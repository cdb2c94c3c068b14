"""Dense linear-algebra helpers and a portable seeded RNG.

Everything in this package computes in 64-bit floats. Matrices are plain
2-D ``numpy`` arrays in row-major order; vectors are 1-D arrays. The random
source is a splitmix64 generator written out here so that a given seed
produces the same draw sequence on every platform and every numpy version.
The scalar draw ``next_u64`` and the block draws (``next_u64_block``,
``uniform_block``) consume one and the same sequence: a block of n draws
returns, and advances the state by, exactly what n scalar draws would.
``fractions`` hands out that sequence's 53-bit fractions one call at a time
through a C-level iterator over whole blocks, for loops that draw a few
floats per step.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .errors import ContractViolationError, NumericalError

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea & Flood, "Fast splittable pseudorandom
# number generators", OOPSLA 2014).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# fractions a fractions() source draws at a time
_BLOCK = 1024


class SeededRng:
    """splitmix64 pseudorandom generator.

    The state advances by a fixed odd increment and the output is a mixed
    copy of the state, so any 64-bit seed (including 0) is valid. Draw
    sequences are byte-identical across runs and platforms for equal seeds.

    Because splitmix64 is counter-based (output t is a fixed mix of
    ``seed + t * golden``), a block draw computes n outputs at once in
    wrapping ``np.uint64`` arithmetic. Block and scalar draws are one
    sequence and may be interleaved freely.

    Instances are cheap but stateful; do not share one across concurrent
    tasks.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64_block(self, n: int) -> np.ndarray:
        """Return the next ``n`` raw outputs as a ``uint64`` array.

        Equal to ``n`` successive :meth:`next_u64` calls, including the state
        left behind.
        """
        if n < 0:
            raise ContractViolationError(f"block size must be >= 0, got {n}")
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN)  # wraps mod 2^64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return z ^ (z >> np.uint64(31))

    def uniform_block(
        self, n: int, lo: float = 0.0, hi: float | np.ndarray = 1.0
    ) -> np.ndarray:
        """Draw ``n`` floats in [lo, hi) at once, one raw draw each.

        Draw t is ``lo + u * (hi - lo)`` for the top 53 bits ``u`` of the
        raw output as a fraction of 2^53, so all 2^53 representable offsets
        in [0, 1) are reachable. ``hi`` may be an array of ``n`` upper
        bounds, one per draw. Each width ``hi - lo`` must be finite: wider
        bounds are rejected, since every draw would overflow.
        """
        hi = np.asarray(hi, dtype=np.float64)
        with np.errstate(over="ignore"):
            width = hi - lo
        if not np.all((lo < hi) & np.isfinite(width)):
            raise ContractViolationError(
                f"uniform bounds require lo < hi and a finite hi - lo, got lo={lo}, hi={hi}"
            )
        u = (self.next_u64_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        value = lo + u * width
        over = np.flatnonzero(value >= hi)
        if over.size:  # the rare rounding onto the open bound
            value[over] = np.nextafter(np.broadcast_to(hi, value.shape)[over], lo)
        return value

    def fractions(self) -> Callable[[], float]:
        """A zero-argument source of floats in [0, 1): call t returns
        element t of one long ``uniform_block``.

        The source draws ``_BLOCK`` fractions at a time, on its first call
        and whenever it has handed out all it drew, and hands them out
        through C-level iterators, so a call runs no Python code. This rng's
        state moves by whole blocks: a later draw from the rng itself
        continues after the last block the source drew.
        """
        blocks = map(self.uniform_block, itertools.repeat(_BLOCK))
        return itertools.chain.from_iterable(map(np.ndarray.tolist, blocks)).__next__

    def shuffled_indices(self, n: int) -> np.ndarray:
        """Return a Fisher-Yates permutation of range(n).

        Swap i (from n-1 down to 1) exchanges positions i and ``j_i =
        int(u_i)`` for ``u_i`` in [0, i + 1); all n-1 draws come from one
        block draw. The swaps are not run one by one; their result is worked
        out in whole-array steps:

        * Position i is final once swap i is done, and receives what j_i
          held just before it: what the next swap t > i with ``j_t = j_i``
          carried into j_i, or j_i itself if there is none.
        * Swap t carried C(t), what position t held just before swap t. By
          the same rule C(q) = C(W(q)) for the first t > q with ``j_t = q``,
          W(q), and C(q) = q if there is none. Position 0 ends with C(0).
          Every C that is read is at a position q with ``j_q != q``, or at 0.

        One stable ``argsort`` of the j's (a radix sort on keys of at most
        16 bits while n <= 65 536) groups the swaps by j with t ascending,
        so neighbours in that order give each swap's next swap in its group
        and each position's W. Pointer doubling along W then gives every C.
        """
        bounds = np.arange(n, 1, -1, dtype=np.float64)  # i + 1 for each swap
        draws = self.uniform_block(bounds.shape[0], 0.0, bounds)
        if n < 2:
            return np.arange(n)
        # js[t - 1] is j_t, for the swaps t = 1 ... n-1 in ascending order
        js = draws[::-1].astype(np.min_scalar_type(n - 1))
        order = np.argsort(js, kind="stable")
        group, swap = js[order], order + 1
        starts = np.empty(n - 1, dtype=bool)  # where each group of equal j's begins
        starts[0] = True
        np.not_equal(group[1:], group[:-1], out=starts[1:])
        after = np.zeros(n, dtype=np.intp)  # the next swap in swap t's group, or 0
        after[swap[:-1]] = np.where(starts[1:], 0, swap[1:])
        # W(q) is the first swap of group q where that swap is not q itself.
        # Where it is, j_q = q, and C(q) is never read: no swap carries into
        # q after swap q, so q is neither a next swap nor a W.
        firsts = np.flatnonzero(starts)
        carried = np.arange(n)  # W(q) where there is one, and q where not
        carried[group[firsts]] = swap[firsts]
        while True:
            further = carried[carried]
            if np.array_equal(further, carried):
                break
            carried = further
        perm = np.empty(n, dtype=np.int_)
        perm[0] = carried[0]
        perm[1:] = np.where(after[1:] > 0, carried[after[1:]], js)
        return perm


def as_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a 2-D float64 row-major array."""
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def as_vector(v: np.ndarray, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a 1-D float64 array."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ContractViolationError(f"{name} must be 1-D, got shape {v.shape}")
    return v


def require_finite(arr: np.ndarray, context: str) -> np.ndarray:
    """Raise :class:`NumericalError` if ``arr`` holds NaN or infinity."""
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values in {context}")
    return arr

