import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etlwatch.autoencoder import init_params
from etlwatch.errors import ContractViolationError, NumericalError
from etlwatch.numerics import SeededRng

from gradcheck import finite_diff_grad

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestFiniteDiffGrad:
    def test_square(self):
        grad = finite_diff_grad(lambda x: x[0] ** 2, np.array([3.0]), h=1e-5)
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda x: 4.5, np.array([1.0, -2.0, 0.3]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_product(self):
        # f = x0*x1 has gradient (x1, x0)
        grad = finite_diff_grad(lambda x: x[0] * x[1], np.array([2.0, 5.0]), h=1e-5)
        np.testing.assert_allclose(grad, [5.0, 2.0], atol=1e-6)

    def test_cancels_the_h_squared_error(self):
        # a plain central difference at h = 0.01 is off by h^2/6 * cos(0.7) ~ 1.3e-5
        grad = finite_diff_grad(lambda x: np.sin(x[0]), np.array([0.7]), h=1e-2)
        assert grad[0] == pytest.approx(np.cos(0.7), abs=1e-9)

    def test_nonfinite_probe_reports_index(self):
        def f(x):
            return float("inf") if x[1] > 1.0 else x[0]

        with pytest.raises(NumericalError, match="index 1"):
            finite_diff_grad(f, np.array([0.0, 1.0]))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ContractViolationError):
            finite_diff_grad(lambda x: 0.0, np.array([1.0]), h=0.0)

    @given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30)
    def test_matches_analytic_gradient_on_quadratics(self, rnd, n):
        a = np.array([[rnd.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
        b = np.array([rnd.uniform(-2, 2) for _ in range(n)])
        c = rnd.uniform(-2, 2)
        x = np.array([rnd.uniform(-2, 2) for _ in range(n)])

        def f(v):
            return float(v @ a @ v + b @ v + c)

        analytic = (a + a.T) @ x + b
        approx = finite_diff_grad(f, x, h=1e-5)
        denom = np.maximum(np.abs(analytic), 1.0)
        assert np.max(np.abs(approx - analytic) / denom) < 1e-6


def test_no_test_seeds_from_the_process_random_string_hash():
    # the built-in hash of a str changes per process, so a seed taken from it
    # makes a test check different instances on every run
    offenders = [
        path.name for path in Path(__file__).parent.rglob("*.py")
        if re.search(r"\bhash\(", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def reference_uniform(rng, lo: float = 0.0, hi: float = 1.0) -> float:
    """One ``uniform(lo, hi)`` from one ``next_u64()``, with no draw-ahead buffer."""
    u = (rng.next_u64() >> 11) * 2.0**-53
    value = lo + u * (hi - lo)
    if value >= hi:
        value = np.nextafter(hi, lo)
    return value


def reference_shuffled_indices(rng, n: int) -> np.ndarray:
    """Scalar Fisher-Yates, one draw per swap: the oracle for the block-drawn shuffle."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(reference_uniform(rng, 0.0, float(i + 1)))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class ReferenceRng:
    """Scalar-only oracle for :class:`SeededRng`: every draw is one ``next_u64()``.

    Its inner generator never draws ahead, so its sequence is splitmix64 one
    output at a time. It has the public draw methods of ``SeededRng`` and can
    stand in for it.
    """

    def __init__(self, seed: int) -> None:
        self._rng = SeededRng(seed)

    def next_u64(self) -> int:
        return self._rng.next_u64()

    def next_u64_block(self, n: int) -> np.ndarray:
        return np.array([self.next_u64() for _ in range(n)], dtype=np.uint64)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return reference_uniform(self, lo, hi)

    def unit(self) -> float:
        return reference_uniform(self)

    def uniform_block(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])

    def index(self, n: int) -> int:
        return int(self.uniform(0.0, float(n)))

    def shuffled_indices(self, n: int) -> np.ndarray:
        return reference_shuffled_indices(self, n)


def _draw(rng, method: str, count: int) -> list:
    """``count`` draws of one kind, as a list."""
    if method == "uniform":
        return [rng.uniform(-1.0, 2.0) for _ in range(count)]
    if method == "index":
        return [rng.index(7) for _ in range(count)]
    if method == "next_u64":
        return [rng.next_u64() for _ in range(count)]
    if method == "uniform_block":
        return rng.uniform_block(count, -1.0, 2.0).tolist()
    return getattr(rng, method)(count).tolist()  # next_u64_block, shuffled_indices


class TestSeededRng:
    def test_identical_seeds_give_identical_streams(self):
        a, b = SeededRng(42), SeededRng(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_first_draws_are_distinct(self):
        rng = SeededRng(42)
        assert rng.uniform() != rng.uniform()

    def test_different_seeds_differ(self):
        assert SeededRng(1).next_u64() != SeededRng(2).next_u64()

    def test_uniform_stays_in_range(self):
        rng = SeededRng(9)
        for _ in range(1000):
            value = rng.uniform(-2.0, 3.0)
            assert -2.0 <= value < 3.0

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ContractViolationError):
            SeededRng(0).uniform(1.0, 1.0)

    def test_law_of_large_numbers(self):
        # 1e5 draws on [0,1): sample mean within [0.49, 0.51]
        rng = SeededRng(123)
        mean = sum(rng.uniform() for _ in range(100_000)) / 100_000
        assert 0.49 <= mean <= 0.51

    def test_shuffled_indices_is_permutation(self):
        perm = SeededRng(5).shuffled_indices(50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_index_bounds(self):
        rng = SeededRng(3)
        assert all(0 <= rng.index(7) < 7 for _ in range(200))
        with pytest.raises(ContractViolationError):
            rng.index(0)

    def test_block_and_scalar_draws_interleave(self):
        a, b = SeededRng(11), SeededRng(11)
        mixed = [a.next_u64(), *a.next_u64_block(3).tolist(), a.next_u64()]
        assert mixed == [b.next_u64() for _ in range(5)]

    def test_block_rejects_negative_count(self):
        with pytest.raises(ContractViolationError):
            SeededRng(0).next_u64_block(-1)

    def test_uniform_block_rejects_bad_bounds(self):
        with pytest.raises(ContractViolationError):
            SeededRng(0).uniform_block(2, 0.0, np.array([1.0, 0.0]))


class TestRngOracles:
    """Block draws against the scalar generator they must reproduce bit for bit."""

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=60)
    def test_block_draw_equals_successive_scalar_draws(self, seed, count):
        block_rng, scalar_rng = SeededRng(seed), SeededRng(seed)
        block = block_rng.next_u64_block(count)
        assert block.dtype == np.uint64 and block.shape == (count,)
        assert block.tolist() == [scalar_rng.next_u64() for _ in range(count)]
        assert block_rng.next_u64() == scalar_rng.next_u64()

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (-2.0, 3.0),
            # one ulp wide: lo + u * (hi - lo) rounds onto hi for about half
            # the draws, so the open-bound guard must match uniform()'s
            (1.0, float(np.nextafter(1.0, 2.0))),
        ],
    )
    def test_uniform_block_equals_successive_uniform(self, lo, hi):
        block_rng, oracle_rng = SeededRng(3), SeededRng(3)
        block = block_rng.uniform_block(200, lo, hi)
        expected = [reference_uniform(oracle_rng, lo, hi) for _ in range(200)]
        assert block.tolist() == expected
        assert block_rng.next_u64() == oracle_rng.next_u64()

    @pytest.mark.parametrize("lo, hi", [(-2.0, 3.0), (1.0, float(np.nextafter(1.0, 2.0)))])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_buffered_uniform_equals_one_raw_draw_per_call(self, seed, lo, hi):
        # 600 draws cross two refills of the draw-ahead block
        rng, oracle_rng = SeededRng(seed), SeededRng(seed)
        values = [rng.uniform(lo, hi) for _ in range(600)]
        assert values == [reference_uniform(oracle_rng, lo, hi) for _ in range(600)]
        assert rng.next_u64() == oracle_rng.next_u64()

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["uniform", "index", "next_u64", "next_u64_block",
                     "uniform_block", "shuffled_indices"]
                ),
                st.integers(min_value=0, max_value=300),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_interleaving_equals_the_scalar_oracle(self, seed, calls):
        rng, oracle = SeededRng(seed), ReferenceRng(seed)
        for method, count in calls:
            assert _draw(rng, method, count) == _draw(oracle, method, count), method
        assert rng.next_u64() == oracle.next_u64()
        assert rng.uniform() == oracle.uniform()

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(
            st.tuples(
                st.sampled_from(["unit", "uniform", "next_u64", "next_u64_block"]),
                st.integers(min_value=0, max_value=300),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_equals_uniform_with_default_bounds(self, seed, calls):
        # the same calls on the scalar oracle, with every unit() drawn as
        # uniform() instead
        rng, oracle = SeededRng(seed), ReferenceRng(seed)
        for method, count in calls:
            if method == "unit":
                got = [rng.unit() for _ in range(count)]
                assert got == [oracle.uniform() for _ in range(count)]
            else:
                assert _draw(rng, method, count) == _draw(oracle, method, count), method
        assert rng.next_u64() == oracle.next_u64()
        assert rng.unit() == oracle.uniform()

    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 5700])
    def test_shuffle_matches_scalar_fisher_yates(self, seed, n):
        rng, oracle_rng = SeededRng(seed), SeededRng(seed)
        perm = rng.shuffled_indices(n)
        expected = reference_shuffled_indices(oracle_rng, n)
        assert perm.dtype == expected.dtype
        np.testing.assert_array_equal(perm, expected)
        assert rng.next_u64() == oracle_rng.next_u64()

    @pytest.mark.parametrize("d, k", [(16, 4), (16, 128), (1, 1)])
    def test_init_params_matches_per_element_uniform(self, d, k):
        rng, oracle_rng = SeededRng(7), SeededRng(7)
        params = init_params(d, k, rng=rng)
        bound = np.sqrt(6.0 / (d + k))
        w_e = np.array([reference_uniform(oracle_rng, -bound, bound) for _ in range(k * d)])
        w_d = np.array([reference_uniform(oracle_rng, -bound, bound) for _ in range(d * k)])
        np.testing.assert_array_equal(params.w_e, w_e.reshape(k, d))
        np.testing.assert_array_equal(params.w_d, w_d.reshape(d, k))
        assert rng.next_u64() == oracle_rng.next_u64()
