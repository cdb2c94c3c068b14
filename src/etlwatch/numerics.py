"""Dense linear-algebra helpers and a portable seeded RNG.

Everything in this package computes in 64-bit floats. Matrices are plain
2-D ``numpy`` arrays in row-major order; vectors are 1-D arrays. The random
source is a splitmix64 generator written out here so that a given seed
produces the same draw sequence on every platform and every numpy version.
Scalar draws (``next_u64``, ``uniform``, ``unit``) and block draws
(``next_u64_block``, ``uniform_block``) consume one and the same sequence: a
block of n draws returns, and advances the state by, exactly what n scalar
draws would. ``uniform`` and ``unit`` take their 53-bit fractions from a block
drawn ahead; the next raw or block draw first gives back the fractions not yet
used, so buffering never changes which value a call returns.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, NumericalError

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea & Flood, "Fast splittable pseudorandom
# number generators", OOPSLA 2014).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# fractions unit() draws ahead in one block
_AHEAD = 256


class SeededRng:
    """splitmix64 pseudorandom generator.

    The state advances by a fixed odd increment and the output is a mixed
    copy of the state, so any 64-bit seed (including 0) is valid. Draw
    sequences are byte-identical across runs and platforms for equal seeds.

    Because splitmix64 is counter-based (output t is a fixed mix of
    ``seed + t * golden``), a block draw computes n outputs at once in
    wrapping ``np.uint64`` arithmetic. Block and scalar draws are one
    sequence and may be interleaved freely. :meth:`unit` draws its
    fractions ``_AHEAD`` at a time; ``_state`` then runs ahead of the
    sequence by the fractions still buffered, which :meth:`_give_back`
    rewinds before any raw draw.

    Instances are cheap but stateful; do not share one across concurrent
    tasks.
    """

    __slots__ = ("seed", "_state", "_ahead")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self._state = self.seed
        self._ahead: list[float] = []  # unused fractions, the next one last

    def _give_back(self) -> None:
        """Rewind the state over the fractions drawn ahead but not used."""
        if self._ahead:
            self._state = (self._state - len(self._ahead) * _GOLDEN) & _MASK64
            self._ahead = []

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._give_back()
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
        self._give_back()
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN)  # wraps mod 2^64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return z ^ (z >> np.uint64(31))

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Draw a float in [lo, hi).

        Uses the top 53 bits of the raw output, so all 2^53 representable
        offsets in [0, 1) are reachable. The width ``hi - lo`` must be
        finite: wider bounds are rejected, since every draw would overflow.
        """
        if not lo < hi or math.isinf(float(hi) - float(lo)):
            raise ContractViolationError(
                f"uniform bounds require lo < hi and a finite hi - lo, got [{lo}, {hi})"
            )
        value = lo + self.unit() * (hi - lo)
        if value >= hi:  # guard the rare rounding onto the open bound
            value = np.nextafter(hi, lo)
        return value

    def unit(self) -> float:
        """Draw a float in [0, 1): the value ``uniform()`` would return.

        With the default bounds ``0.0 + u * 1.0 == u`` and the open-bound
        guard never fires, so this skips both.
        """
        if not self._ahead:
            fractions = (self.next_u64_block(_AHEAD) >> np.uint64(11)) * 2.0**-53
            self._ahead = fractions[::-1].tolist()
        return self._ahead.pop()

    def uniform_block(
        self, n: int, lo: float = 0.0, hi: float | np.ndarray = 1.0
    ) -> np.ndarray:
        """Draw ``n`` floats at once; element t equals the t-th ``uniform(lo, hi)``.

        ``hi`` may be an array of ``n`` upper bounds, one per draw.
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
        # guard the rare rounding onto the open bound, as uniform() does
        return np.where(value >= hi, np.nextafter(hi, lo), value)

    def index(self, n: int) -> int:
        """Draw an integer in [0, n)."""
        if n < 1:
            raise ContractViolationError(f"index bound must be >= 1, got {n}")
        return int(self.uniform(0.0, float(n)))

    def shuffled_indices(self, n: int) -> np.ndarray:
        """Return a Fisher-Yates permutation of range(n).

        Swap i (from n-1 down to 1) exchanges i with ``index(i + 1)``; all
        n-1 indices come from one block draw.
        """
        bounds = np.arange(n, 1, -1, dtype=np.float64)  # i + 1 for each swap
        js = self.uniform_block(bounds.shape[0], 0.0, bounds).astype(np.int64)
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int_)


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

