import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etlwatch.autoencoder import init_params
from etlwatch.errors import ContractViolationError, NumericalError
from etlwatch.numerics import _BLOCK, SeededRng

from gradcheck import finite_diff_grad
from reference import ReferenceRng, reference_shuffled_indices, reference_uniform

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


def _fractions(rng, count: int) -> list[float]:
    """The first ``count`` values of a new :meth:`SeededRng.fractions` source."""
    source = rng.fractions()
    return [source() for _ in range(count)]


def _draw(rng, method: str, count: int) -> list:
    """``count`` draws of one kind, as a list."""
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
        first, second = _fractions(SeededRng(42), 2)
        assert first != second

    def test_different_seeds_differ(self):
        assert SeededRng(1).next_u64() != SeededRng(2).next_u64()

    def test_uniform_block_stays_in_range(self):
        values = SeededRng(9).uniform_block(1000, -2.0, 3.0)
        assert np.all((-2.0 <= values) & (values < 3.0))

    def test_fractions_stay_in_the_unit_interval(self):
        values = _fractions(SeededRng(9), 3000)
        assert all(type(value) is float and 0.0 <= value < 1.0 for value in values)

    def test_uniform_block_rejects_empty_bounds(self):
        with pytest.raises(ContractViolationError):
            SeededRng(0).uniform_block(2, 1.0, 1.0)

    def test_law_of_large_numbers(self):
        # 1e5 draws on [0,1): sample mean within [0.49, 0.51]
        mean = sum(_fractions(SeededRng(123), 100_000)) / 100_000
        assert 0.49 <= mean <= 0.51

    def test_shuffled_indices_is_permutation(self):
        perm = SeededRng(5).shuffled_indices(50)
        assert sorted(perm.tolist()) == list(range(50))

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

    @pytest.mark.filterwarnings("error")  # as under python -W error
    @pytest.mark.parametrize(
        "lo, hi",
        [(-1e308, 1e308), (-np.inf, 0.0), (0.0, np.inf), (-np.inf, np.inf), (-1e307, 1.79e308)],
    )
    def test_a_width_wider_than_the_largest_float_is_rejected(self, lo, hi):
        # lo + u * (hi - lo) is then inf or NaN, which the open-bound guard
        # used to clamp to the float just below hi on every draw
        message = "uniform bounds require lo < hi and a finite hi - lo, got "
        with pytest.raises(ContractViolationError, match=re.escape(f"{message}lo={lo}, hi={hi}")):
            SeededRng(0).uniform_block(6, lo, hi)
        with pytest.raises(ContractViolationError, match=re.escape(f"{message}lo={lo}, hi=[")):
            SeededRng(0).uniform_block(3, lo, np.full(3, hi))

    @pytest.mark.filterwarnings("error")
    def test_the_widest_finite_width_draws_as_before(self):
        top = np.finfo(np.float64).max
        lo, hi = -top / 2, float(np.nextafter(top / 2, 0.0))
        block_rng, oracle_rng = SeededRng(8), SeededRng(8)
        values = block_rng.uniform_block(300, lo, hi).tolist()
        assert values == [reference_uniform(oracle_rng, lo, hi) for _ in range(300)]
        assert all(lo <= value < hi for value in values)


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
            # the draws, so the open-bound guard must match the oracle's
            (1.0, float(np.nextafter(1.0, 2.0))),
        ],
    )
    def test_uniform_block_equals_successive_uniform(self, lo, hi):
        block_rng, oracle_rng = SeededRng(3), SeededRng(3)
        block = block_rng.uniform_block(200, lo, hi)
        expected = [reference_uniform(oracle_rng, lo, hi) for _ in range(200)]
        assert block.tolist() == expected
        assert block_rng.next_u64() == oracle_rng.next_u64()

    def test_uniform_block_with_bounds_per_draw_equals_successive_uniform(self):
        # every other bound one ulp above lo, where about half the draws
        # round onto it: the guard takes the float below each draw's own bound
        his = np.where(np.arange(200) % 2 == 0, 3.0, np.nextafter(1.0, 2.0))
        block_rng, oracle_rng = SeededRng(5), SeededRng(5)
        block = block_rng.uniform_block(200, 1.0, his)
        assert block.tolist() == [reference_uniform(oracle_rng, 1.0, hi) for hi in his.tolist()]
        assert (block == 1.0).sum() > 20

    @pytest.mark.parametrize("count",[0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 600])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_fractions_equal_one_raw_draw_per_call(self, seed, count):
        # the source draws whole blocks: the rng goes on after the last one
        rng, oracle = SeededRng(seed), ReferenceRng(seed)
        assert _fractions(rng, count) == [oracle.uniform() for _ in range(count)]
        oracle.next_u64_block(-count % _BLOCK)
        assert rng.next_u64() == oracle.next_u64()

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["fractions", "next_u64", "next_u64_block", "uniform_block",
                     "shuffled_indices"]
                ),
                st.integers(min_value=0, max_value=300),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_interleaving_equals_the_scalar_oracle(self, seed, calls):
        # each fractions source is new, and the oracle skips the rest of the
        # last block it drew
        rng, oracle = SeededRng(seed), ReferenceRng(seed)
        for method, count in calls:
            if method == "fractions":
                assert _fractions(rng, count) == _fractions(oracle, count)
                oracle.next_u64_block(-count % _BLOCK)
            else:
                assert _draw(rng, method, count) == _draw(oracle, method, count), method
        assert rng.next_u64() == oracle.next_u64()

    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 5700])
    def test_shuffle_matches_scalar_fisher_yates(self, seed, n):
        rng, oracle_rng = SeededRng(seed), SeededRng(seed)
        perm = rng.shuffled_indices(n)
        expected = reference_shuffled_indices(oracle_rng, n)
        assert perm.dtype == expected.dtype
        np.testing.assert_array_equal(perm, expected)
        assert rng.next_u64() == oracle_rng.next_u64()

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=3000))
    @settings(max_examples=200, deadline=None)
    def test_shuffle_equals_scalar_fisher_yates_at_any_size(self, seed, n):
        perm = SeededRng(seed).shuffled_indices(n)
        expected = reference_shuffled_indices(SeededRng(seed), n)
        assert perm.dtype == expected.dtype
        np.testing.assert_array_equal(perm, expected)

    # the sort key widens past 16 bits after 65 536, and past 65 535 in value at 100 000
    @pytest.mark.parametrize("n", [65_536, 65_537, 100_000])
    def test_shuffle_matches_scalar_fisher_yates_at_the_key_width_edge(self, n):
        rng, oracle_rng = SeededRng(n), SeededRng(n)
        np.testing.assert_array_equal(
            rng.shuffled_indices(n), reference_shuffled_indices(oracle_rng, n)
        )
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
