import contextlib
import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etlwatch import autoencoder, evaluation
from etlwatch.autoencoder import (
    Activation,
    AutoencoderParams,
    Gradients,
    TrainConfig,
    backprop,
    batch_loss,
    decode,
    encode,
    init_params,
    load_model,
    save_model,
    sgd_step,
    total_loss,
    train,
)
from etlwatch.errors import (
    ContractViolationError,
    ModelFormatError,
    ModelShapeError,
    ModelVersionError,
    NumericalError,
    TrainingDivergedError,
)
from etlwatch.evaluation import evaluate_config, make_bundle
from etlwatch.numerics import SeededRng
from etlwatch.preprocess import FeatureSchema, StandardizationStats
from etlwatch.streamgen import StreamConfig, generate

import reference
from gradcheck import finite_diff_grad
from reference import ReferenceRng, latent_l1, reconstruction_loss

ALL_ACTIVATIONS = list(Activation)


def identity_params(d: int) -> AutoencoderParams:
    return AutoencoderParams(
        w_e=np.eye(d),
        b_e=np.zeros(d),
        w_d=np.eye(d),
        b_d=np.zeros(d),
        hidden_activation=Activation.IDENTITY,
        output_activation=Activation.IDENTITY,
    )


def flatten_params(p: AutoencoderParams) -> np.ndarray:
    return np.concatenate([p.w_e.ravel(), p.b_e, p.w_d.ravel(), p.b_d])


def unflatten_params(theta: np.ndarray, template: AutoencoderParams) -> AutoencoderParams:
    d, k = template.d, template.k
    i = 0
    w_e = theta[i : i + k * d].reshape(k, d); i += k * d
    b_e = theta[i : i + k]; i += k
    w_d = theta[i : i + d * k].reshape(d, k); i += d * k
    b_d = theta[i : i + d]
    return AutoencoderParams(
        w_e=w_e, b_e=b_e, w_d=w_d, b_d=b_d,
        hidden_activation=template.hidden_activation,
        output_activation=template.output_activation,
    )


def flatten_grads(g: Gradients) -> np.ndarray:
    return np.concatenate([g.w_e.ravel(), g.b_e, g.w_d.ravel(), g.b_d])


def check_gradients(params, batch, l1_penalty, h=3e-5, tol=1e-5):
    """Compare backprop against the finite-difference oracle.

    The step h trades round-off, which grows as h shrinks and swamps
    gradient components near 1e-6, against the chance that a probe straddles
    a ReLU or L1 kink, which grows with h.
    """
    analytic = flatten_grads(backprop(params, batch, l1_penalty))

    def loss_of(theta):
        return batch_loss(unflatten_params(theta, params), batch, l1_penalty).l_total

    numeric = finite_diff_grad(loss_of, flatten_params(params), h=h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    worst = np.max(np.abs(analytic - numeric) / denom)
    assert worst < tol, f"gradient mismatch {worst:.2e}"


class TestInitParams:
    def test_same_seed_gives_identical_params(self):
        a = init_params(6, 3, rng=SeededRng(4))
        b = init_params(6, 3, rng=SeededRng(4))
        np.testing.assert_array_equal(a.w_e, b.w_e)
        np.testing.assert_array_equal(a.w_d, b.w_d)

    def test_biases_start_at_zero(self):
        p = init_params(5, 2, rng=SeededRng(0))
        assert not p.b_e.any() and not p.b_d.any()

    def test_glorot_bound_for_16_by_32(self):
        # bound = sqrt(6 / (16 + 32)) ~= 0.35355
        p = init_params(16, 32, rng=SeededRng(1))
        bound = math.sqrt(6.0 / 48.0)
        assert bound == pytest.approx(0.3536, abs=5e-5)
        assert np.max(np.abs(p.w_e)) <= bound
        assert np.max(np.abs(p.w_d)) <= bound

    def test_rejects_bad_dims(self):
        with pytest.raises(ContractViolationError):
            init_params(0, 3)


SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan]


class TestActivationInPlace:
    """``apply`` and ``derivative`` with ``out=`` must give the same bits as
    their allocating forms, whether ``out`` is a new array or z itself."""

    @given(
        st.sampled_from(ALL_ACTIVATIONS),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
    )
    @settings(max_examples=200)
    def test_out_forms_equal_allocating_forms(self, act, values):
        z = np.array(values + SPECIAL_FLOATS)
        with np.errstate(all="ignore"):
            activated = act.apply(z.copy())
            derivative = act.derivative(z, activated)
            applied = [act.apply(z, out=np.empty_like(z))]
            derived = [act.derivative(z, activated, out=np.empty_like(z))]
            z_itself = z.copy()
            applied.append(act.apply(z_itself, out=z_itself))
            z_itself = z.copy()
            derived.append(act.derivative(z_itself, activated, out=z_itself))
        for arr in applied:
            assert arr.tobytes() == activated.tobytes()
        for arr in derived:
            assert arr.tobytes() == derivative.tobytes()

    @pytest.mark.parametrize("act", ALL_ACTIVATIONS)
    def test_derivative_of_a_python_float_equals_the_array_form(self, act):
        for value in [0.5, -0.5, 0.0, -0.0, 3.0, -40.0]:
            z = np.array([value])
            expected = act.derivative(z, act.apply(z.copy()))
            got = act.derivative(value, act.apply(value))
            assert np.float64(got).tobytes() == expected[0].tobytes(), value


def _nan(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


class TestSigmoid:
    """The mask-free sigmoid gives the bits of the masked formula in
    ``reference.sigmoid``, NaN signs and payloads included."""

    SPECIAL = SPECIAL_FLOATS + [
        _nan(0xFFF8000000000000), _nan(0x7FF8000000000123), _nan(0xFFF8000000000456),
        709.9, -745.5, 5e-324, -5e-324,
    ]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60))
    @settings(max_examples=200)
    def test_bitwise_equal_to_masked_formula(self, values):
        z = np.array(values + self.SPECIAL)
        with np.errstate(all="ignore"):
            expected = reference.sigmoid(z.copy())
            results = [
                Activation.SIGMOID.apply(z.copy()),
                Activation.SIGMOID.apply(z.copy(), out=np.empty_like(z)),
            ]
            z_itself = z.copy()
            results.append(Activation.SIGMOID.apply(z_itself, out=z_itself))
        for got in results:
            assert got.tobytes() == expected.tobytes()


class TestForwardPass:
    def test_encode_identity_network(self):
        x = np.array([0.3, -1.2, 5.0])
        np.testing.assert_array_equal(encode(identity_params(3), x), x)

    def test_encode_tanh_of_zero(self):
        p = init_params(4, 2, (Activation.TANH, Activation.IDENTITY), SeededRng(0))
        np.testing.assert_array_equal(encode(p, np.zeros(4)), np.zeros(2))

    def test_encode_hand_example(self):
        # w_e=[[1,2]], b_e=[0.5], identity: x=[1,1] -> 1+2+0.5 = 3.5
        p = AutoencoderParams(
            w_e=np.array([[1.0, 2.0]]), b_e=np.array([0.5]),
            w_d=np.array([[1.0], [1.0]]), b_d=np.zeros(2),
            hidden_activation=Activation.IDENTITY,
            output_activation=Activation.IDENTITY,
        )
        np.testing.assert_array_equal(encode(p, np.array([1.0, 1.0])), [3.5])

    def test_decode_identity_when_k_equals_d(self):
        h = np.array([1.5, -0.5])
        np.testing.assert_array_equal(decode(identity_params(2), h), h)

    def test_decode_zero_latent_returns_activated_bias(self):
        p = AutoencoderParams(
            w_e=np.ones((1, 2)), b_e=np.zeros(1),
            w_d=np.array([[3.0], [-1.0]]), b_d=np.array([0.25, -2.0]),
            hidden_activation=Activation.IDENTITY,
            output_activation=Activation.TANH,
        )
        np.testing.assert_allclose(
            decode(p, np.zeros(1)), np.tanh([0.25, -2.0])
        )

    def test_decode_hand_example(self):
        # w_d=[[2],[-1]], b_d=[0,1], identity: h=[3] -> [6, -2]
        p = AutoencoderParams(
            w_e=np.ones((1, 2)), b_e=np.zeros(1),
            w_d=np.array([[2.0], [-1.0]]), b_d=np.array([0.0, 1.0]),
            hidden_activation=Activation.IDENTITY,
            output_activation=Activation.IDENTITY,
        )
        np.testing.assert_array_equal(decode(p, np.array([3.0])), [6.0, -2.0])

    def test_dimension_mismatches(self):
        p = init_params(4, 2)
        with pytest.raises(ContractViolationError):
            encode(p, np.zeros(3))
        with pytest.raises(ContractViolationError):
            decode(p, np.zeros(3))

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.sampled_from(ALL_ACTIVATIONS),
        st.sampled_from(ALL_ACTIVATIONS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30)
    def test_encode_decode_returns_dimension_d(self, d, k, act_h, act_o, seed):
        p = init_params(d, k, (act_h, act_o), SeededRng(seed))
        x = np.array([ReferenceRng(seed + 1).uniform(-3, 3) for _ in range(d)])
        assert decode(p, encode(p, x)).shape == (d,)


class TestLosses:
    def test_perfect_reconstruction_is_zero(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert reconstruction_loss(x, x) == 0.0

    def test_hand_norm(self):
        # single sample: ||(0, -2)||^2 = 4
        assert reconstruction_loss(np.array([3.0, -2.0]), np.array([3.0, 0.0])) == 4.0

    def test_quadratic_scaling(self):
        x = np.array([[1.0, -2.0, 0.5]])
        xhat = np.array([[0.0, 1.0, 2.0]])
        doubled = x + 2 * (xhat - x)
        assert reconstruction_loss(x, doubled) == pytest.approx(
            4.0 * reconstruction_loss(x, xhat)
        )

    def test_latent_l1_zero_latents(self):
        assert latent_l1(np.zeros((4, 3)), 2.5) == 0.0

    def test_latent_l1_disabled(self):
        assert latent_l1(np.array([[1.0, -7.0]]), 0.0) == 0.0

    def test_latent_l1_hand_example(self):
        # h1=[1,-2], h2=[0,3], lambda=0.5 -> 0.5 * (3+3)/2 = 1.5
        h = np.array([[1.0, -2.0], [0.0, 3.0]])
        assert latent_l1(h, 0.5) == pytest.approx(1.5)

    def test_total_loss_examples(self):
        assert total_loss(0.0, 0.0).l_total == 0.0
        assert total_loss(2.0, 0.5).l_total == 2.5

    @given(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6))
    def test_total_loss_decomposition_exact(self, a, b):
        # l_total is exactly the 64-bit sum of the recorded parts
        breakdown = total_loss(a, b)
        assert breakdown.l_total == breakdown.l_rec + breakdown.l_reg


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread for the body, where it can be set.
    Some kernels (Haswell, Prescott) split a product's rows between two
    threads at a row that is not a multiple of their block, and round the
    rows at the split another way than one thread does (ROADMAP item 12),
    so their bits depend on the thread count, in a slice and over all rows
    alike."""
    blas = evaluation._openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


class TestBatchLoss:
    """batch_loss overwrites its temporaries in place; every bit must stay as
    the loss terms composed on fresh arrays give it."""

    @staticmethod
    def assert_same_as_reference(params, x, l1_penalty):
        # repr, because a NaN loss is not equal to itself
        expected = reference.batch_loss(params, x, l1_penalty)
        with np.errstate(all="ignore"):
            assert repr(batch_loss(params, x, l1_penalty)) == repr(expected)
        h, xhat = reference.forward(params, x)
        np.testing.assert_array_equal(encode(params, x), h)
        np.testing.assert_array_equal(decode(params, h), xhat)

    @pytest.mark.parametrize("act_h", ALL_ACTIVATIONS)
    @pytest.mark.parametrize("act_o", ALL_ACTIVATIONS)
    def test_bitwise_equal_to_reference(self, act_h, act_o):
        rng = SeededRng(31)
        params = init_params(6, 4, (act_h, act_o), rng)
        x = rng.uniform_block(1001 * 6, -40.0, 40.0).reshape(1001, 6)
        x_before = x.copy()
        self.assert_same_as_reference(params, x, 0.3)
        self.assert_same_as_reference(params, x[0], 0.3)  # one 1-D sample
        np.testing.assert_array_equal(x, x_before)

    @pytest.mark.parametrize("act_h", ALL_ACTIVATIONS)
    @pytest.mark.parametrize("act_o", ALL_ACTIVATIONS)
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_bitwise_equal_to_reference_on_non_finite_rows(self, act_h, act_o, poison):
        rng = SeededRng(32)
        params = init_params(5, 3, (act_h, act_o), rng)
        x = rng.uniform_block(20 * 5, -2.0, 2.0).reshape(20, 5)
        x[3, 1] = poison
        x[11] = poison
        with np.errstate(all="ignore"):
            self.assert_same_as_reference(params, x, 1e-4)
            self.assert_same_as_reference(params, x[3], 1e-4)

    @pytest.mark.parametrize("n", [1, 2, 1536, 2048, 2049, 2050, 2560, 2561, 3071])
    @pytest.mark.parametrize("k", [4, 32, 128])
    @pytest.mark.parametrize("act", ALL_ACTIVATIONS)
    def test_slices_give_each_row_the_whole_set_bits(self, n, k, act):
        # n = 0, 1 and 2 mod the slice, and odd; a last slice of at most half
        # a slice (2 - 512 rows here) joins the one before, a longer one not
        assert autoencoder._SLICE == 1024
        rng = SeededRng(n + k)
        params = init_params(16, k, (act, act), rng)
        x = rng.uniform_block(n * 16, -4.0, 4.0).reshape(n, 16)
        with one_blas_thread():  # on two, Haswell's and Prescott's splits differ too
            got = autoencoder._row_losses(params, x)
            want = reference.row_losses(params, x)
            assert batch_loss(params, x, 0.3) == reference.batch_loss(params, x, 0.3)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_takes_a_list_and_keeps_the_checks(self):
        params = init_params(3, 2, rng=SeededRng(3))
        rows = [[0.5, -1.0, 2.0], [1.0, 1.0, 1.0]]
        assert batch_loss(params, rows, 0.1) == reference.batch_loss(params, np.array(rows), 0.1)
        with pytest.raises(ContractViolationError, match="encode expects"):
            batch_loss(params, np.zeros((2, 4)), 0.1)
        with pytest.raises(ContractViolationError, match="l1_penalty"):
            batch_loss(params, rows, -1.0)


class TestBackprop:
    def test_perfect_reconstruction_gives_zero_gradients(self):
        # identity network reconstructs exactly; lambda=0 means a loss minimum
        p = identity_params(3)
        batch = np.array([[0.5, -1.0, 2.0], [1.0, 1.0, 1.0]])
        grads = backprop(p, batch, 0.0)
        for arr in (grads.w_e, grads.b_e, grads.w_d, grads.b_d):
            assert np.max(np.abs(arr)) < 1e-12

    def test_matches_oracle_on_random_instance(self):
        rng = ReferenceRng(99)
        p = init_params(5, 3, (Activation.TANH, Activation.IDENTITY), rng)
        batch = np.array([[rng.uniform(-2, 2) for _ in range(5)] for _ in range(8)])
        check_gradients(p, batch, l1_penalty=0.0)

    def test_l1_term_checked_against_oracle(self):
        rng = ReferenceRng(14)
        p = init_params(4, 2, (Activation.TANH, Activation.IDENTITY), rng)
        batch = np.array([[rng.uniform(-2, 2) for _ in range(4)] for _ in range(6)])
        check_gradients(p, batch, l1_penalty=0.3)

    def test_l1_changes_encoder_but_not_decoder_gradients(self):
        # the penalty reaches the decoder only through h itself, so with the
        # same params and batch the decoder blocks are bit-identical
        rng = ReferenceRng(15)
        p = init_params(5, 3, (Activation.TANH, Activation.IDENTITY), rng)
        batch = np.array([[rng.uniform(-2, 2) for _ in range(5)] for _ in range(4)])
        without = backprop(p, batch, 0.0)
        with_l1 = backprop(p, batch, 0.7)
        np.testing.assert_array_equal(without.w_d, with_l1.w_d)
        np.testing.assert_array_equal(without.b_d, with_l1.b_d)
        assert np.max(np.abs(without.w_e - with_l1.w_e)) > 0

    @pytest.mark.parametrize("act_h", ALL_ACTIVATIONS)
    @pytest.mark.parametrize("act_o", [Activation.IDENTITY, Activation.SIGMOID])
    def test_every_activation_against_oracle(self, act_h, act_o):
        # one fixed seed per pair: every run checks the same instances
        rng = ReferenceRng(2 * ALL_ACTIVATIONS.index(act_h) + (act_o is Activation.SIGMOID))
        p = init_params(4, 3, (act_h, act_o), rng)
        batch = np.array([[rng.uniform(-1.5, 1.5) for _ in range(4)] for _ in range(5)])
        check_gradients(p, batch, l1_penalty=0.01)

    def test_rejects_empty_batch(self):
        with pytest.raises(ContractViolationError):
            backprop(identity_params(2), np.empty((0, 2)), 0.0)

    @pytest.mark.parametrize("act_h", ALL_ACTIVATIONS)
    @pytest.mark.parametrize("act_o", ALL_ACTIVATIONS)
    def test_bitwise_equal_to_fresh_array_reference(self, act_h, act_o):
        rng = SeededRng(18)
        p = init_params(6, 5, (act_h, act_o), rng)
        for n in (1, 7, 64):
            batch = rng.uniform_block(n * 6, -3.0, 3.0).reshape(n, 6)
            expected = reference.gradients(p, batch, 0.2)
            got = backprop(p, batch, 0.2)
            for name, arr in vars(expected).items():
                assert getattr(got, name).tobytes() == arr.tobytes(), name

    def test_successive_calls_return_fresh_arrays(self):
        rng = SeededRng(16)
        p = init_params(5, 3, rng=rng)
        batch = rng.uniform_block(4 * 5, -2.0, 2.0).reshape(4, 5)
        first = vars(backprop(p, batch, 0.1))
        kept = {name: arr.copy() for name, arr in first.items()}
        second = vars(backprop(p, batch[:3], 0.1))
        for a in first.values():
            for b in second.values():
                assert not np.shares_memory(a, b)
        for name, arr in first.items():
            np.testing.assert_array_equal(arr, kept[name], err_msg=name)


class TestSgdStep:
    def test_zero_gradients_fixed_point(self):
        p = init_params(3, 2, rng=SeededRng(2))
        zeros = Gradients(
            w_e=np.zeros_like(p.w_e), b_e=np.zeros_like(p.b_e),
            w_d=np.zeros_like(p.w_d), b_d=np.zeros_like(p.b_d),
        )
        q = sgd_step(p, zeros, 0.5)
        np.testing.assert_array_equal(p.w_e, q.w_e)
        np.testing.assert_array_equal(p.b_d, q.b_d)

    def test_unit_gradients_decrement_by_lr(self):
        p = init_params(2, 2, rng=SeededRng(3))
        ones = Gradients(
            w_e=np.ones_like(p.w_e), b_e=np.ones_like(p.b_e),
            w_d=np.ones_like(p.w_d), b_d=np.ones_like(p.b_d),
        )
        q = sgd_step(p, ones, 1.0)
        np.testing.assert_array_equal(q.w_e, p.w_e - 1.0)
        np.testing.assert_array_equal(q.b_e, p.b_e - 1.0)

    def test_two_frozen_steps_equal_one_double_step(self):
        rng = ReferenceRng(8)
        p = init_params(3, 2, rng=rng)
        g = Gradients(
            w_e=np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(2)]),
            b_e=np.array([rng.uniform(-1, 1) for _ in range(2)]),
            w_d=np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(3)]),
            b_d=np.array([rng.uniform(-1, 1) for _ in range(3)]),
        )
        twice = sgd_step(sgd_step(p, g, 0.1), g, 0.1)
        once = sgd_step(p, g, 0.2)
        np.testing.assert_allclose(twice.w_e, once.w_e, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(twice.w_d, once.w_d, rtol=1e-12, atol=1e-15)


@pytest.fixture(scope="module")
def small_training_set():
    # correlated two-feature normals, standardized
    rng = ReferenceRng(17)
    rows = []
    for _ in range(256):
        a = rng.uniform(-1, 1)
        rows.append([a, 0.8 * a + 0.2 * rng.uniform(-1, 1), rng.uniform(-1, 1)])
    x = np.array(rows)
    return (x - x.mean(axis=0)) / x.std(axis=0)


def reference_train(x, cfg, activations=(Activation.TANH, Activation.IDENTITY)):
    """Training loop over the public backprop and sgd_step: the oracle for train.

    Returns the final params, the per-epoch losses and the epoch at which a
    step raised NumericalError or the epoch loss went non-finite (None if
    training completed).
    """
    rng = SeededRng(cfg.seed)
    params = init_params(x.shape[1], cfg.latent_dim, activations, rng)
    losses = []
    for epoch in range(cfg.epochs):
        perm = rng.shuffled_indices(x.shape[0])
        try:
            with np.errstate(all="ignore"):
                for lo in range(0, x.shape[0], cfg.batch_size):
                    grads = backprop(params, x[perm[lo : lo + cfg.batch_size]], cfg.l1_penalty)
                    params = sgd_step(params, grads, cfg.learning_rate)
        except NumericalError:
            return params, losses, epoch
        with np.errstate(all="ignore"):
            loss = reference.batch_loss(params, x, cfg.l1_penalty)
        if not np.isfinite(loss.l_total):
            return params, losses, epoch
        losses.append(loss)
    return params, losses, None


class TestTrain:
    def test_deterministic(self, small_training_set):
        cfg = TrainConfig(epochs=5, batch_size=32, seed=21, latent_dim=2)
        p1, h1 = train(small_training_set, cfg)
        p2, h2 = train(small_training_set, cfg)
        np.testing.assert_array_equal(p1.w_e, p2.w_e)
        np.testing.assert_array_equal(p1.w_d, p2.w_d)
        assert [b.l_total for b in h1.losses] == [b.l_total for b in h2.losses]

    def test_endpoint_loss_decreases(self, small_training_set):
        cfg = TrainConfig(learning_rate=0.001, epochs=30, batch_size=32, seed=5, latent_dim=2)
        _, history = train(small_training_set, cfg)
        assert history.losses[-1].l_total < history.losses[0].l_total

    def test_history_length_matches_epochs(self, small_training_set):
        cfg = TrainConfig(epochs=7, batch_size=64, seed=1, latent_dim=2)
        _, history = train(small_training_set, cfg)
        assert len(history) == 7
        assert len(history.epoch_seconds) == 7

    def test_pathological_learning_rate(self, small_training_set):
        # either training diverges outright or the final loss exceeds the first
        cfg = TrainConfig(learning_rate=10.0, epochs=10, batch_size=32, seed=2, latent_dim=2)
        try:
            _, history = train(small_training_set, cfg)
        except TrainingDivergedError as exc:
            assert exc.learning_rate == 10.0
        else:
            assert history.losses[-1].l_total > history.losses[0].l_total

    def test_requires_batch_size_rows(self):
        with pytest.raises(ContractViolationError):
            train(np.zeros((3, 2)), TrainConfig(batch_size=8, latent_dim=1))

    @staticmethod
    def assert_same_as_public_step_loop(x, cfg, activations):
        params, history = train(x, cfg, activations)
        expected, losses, diverged_at = reference_train(x, cfg, activations)
        assert diverged_at is None
        for name, block in params.blocks().items():
            np.testing.assert_array_equal(block, expected.blocks()[name], err_msg=name)
        assert history.losses == losses

    @staticmethod
    def assert_diverges_as_public_step_loop(x, cfg):
        _, _, diverged_at = reference_train(x, cfg)
        assert diverged_at is not None
        with pytest.raises(TrainingDivergedError) as info:
            train(x, cfg)
        assert info.value.epoch == diverged_at
        assert isinstance(info.value.__cause__, NumericalError)

    @pytest.mark.parametrize("act_h", ALL_ACTIVATIONS)
    @pytest.mark.parametrize("act_o", ALL_ACTIVATIONS)
    def test_bitwise_equal_to_public_step_loop(self, small_training_set, act_h, act_o):
        cfg = TrainConfig(learning_rate=0.01, epochs=3, batch_size=32, seed=9, latent_dim=4)
        self.assert_same_as_public_step_loop(small_training_set, cfg, (act_h, act_o))

    @pytest.mark.parametrize("act_h", ALL_ACTIVATIONS)
    @pytest.mark.parametrize("act_o", ALL_ACTIVATIONS)
    def test_short_last_batch_bitwise_equal_to_public_step_loop(
        self, small_training_set, act_h, act_o
    ):
        # 256 rows in batches of 48: five full batches, then one of 16 rows
        # that has work arrays of its own
        cfg = TrainConfig(learning_rate=0.01, epochs=3, batch_size=48, seed=9, latent_dim=4)
        self.assert_same_as_public_step_loop(small_training_set, cfg, (act_h, act_o))

    @pytest.mark.parametrize("act_h", ALL_ACTIVATIONS)
    @pytest.mark.parametrize("act_o", ALL_ACTIVATIONS)
    def test_narrow_short_last_batch_bitwise_equal_to_public_step_loop(
        self, small_training_set, act_h, act_o
    ):
        # k = 2 in batches of 100: two full batches, then one of 56 rows
        cfg = TrainConfig(learning_rate=0.01, epochs=3, batch_size=100, seed=9, latent_dim=2)
        self.assert_same_as_public_step_loop(small_training_set, cfg, (act_h, act_o))

    @pytest.mark.parametrize("lr", [100.0, 1e4])
    def test_divergence_epoch_matches_public_step_loop(self, small_training_set, lr):
        cfg = TrainConfig(learning_rate=lr, epochs=10, batch_size=32, seed=2, latent_dim=2)
        self.assert_diverges_as_public_step_loop(small_training_set, cfg)

    def test_short_last_batch_divergence_epoch_matches_public_step_loop(
        self, small_training_set
    ):
        cfg = TrainConfig(learning_rate=100.0, epochs=10, batch_size=48, seed=2, latent_dim=2)
        self.assert_diverges_as_public_step_loop(small_training_set, cfg)

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_step_going_non_finite_mid_epoch_names_that_epoch(
        self, small_training_set, monkeypatch, poison
    ):
        # 256 rows in batches of 32: 8 steps per epoch; the fourth step of
        # epoch 2 writes a non-finite gradient
        cfg = TrainConfig(learning_rate=0.01, epochs=5, batch_size=32, seed=4, latent_dim=2)
        steps = 0
        kernel = autoencoder._gradients

        def poisoned(params, n, l1_penalty, grads):
            step = kernel(params, n, l1_penalty, grads)

            def counted(x):
                nonlocal steps
                steps += 1
                step(x)
                if steps == 2 * 8 + 4:
                    grads.b_d[0] = poison

            return counted

        monkeypatch.setattr(autoencoder, "_gradients", poisoned)
        with pytest.raises(TrainingDivergedError) as info:
            train(small_training_set, cfg)
        assert info.value.epoch == 2
        assert isinstance(info.value.__cause__, NumericalError)
        assert steps == 3 * 8  # epoch 2 ran to its end before the check

    def test_overflowing_update_with_finite_gradients_diverges(self, small_training_set):
        # inputs of order 1e9 give gradients of order 1e9: finite, but
        # lr * g overflows, so only the updated parameters are non-finite
        x = small_training_set * 1e9
        cfg = TrainConfig(learning_rate=1e300, epochs=3, batch_size=32, seed=2, latent_dim=2)
        rng = SeededRng(cfg.seed)
        params = init_params(x.shape[1], cfg.latent_dim, rng=rng)
        first_batch = x[rng.shuffled_indices(x.shape[0])[: cfg.batch_size]]
        grads = backprop(params, first_batch, cfg.l1_penalty)
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            sgd_step(params, grads, cfg.learning_rate)
        with pytest.raises(TrainingDivergedError) as info:
            train(x, cfg)
        assert info.value.epoch == 0
        assert isinstance(info.value.__cause__, NumericalError)

    @staticmethod
    def count_batch_loss(monkeypatch):
        calls = []
        original = autoencoder.batch_loss

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(autoencoder, "batch_loss", counted)
        return calls

    def test_losses_are_computed_once_on_first_read(self, small_training_set, monkeypatch):
        cfg = TrainConfig(learning_rate=0.01, epochs=4, batch_size=32, seed=3, latent_dim=2)
        _, expected, _ = reference_train(small_training_set, cfg)
        calls = self.count_batch_loss(monkeypatch)
        x = small_training_set.copy()
        _, history = train(x, cfg)
        x[:] = 0.0  # the history holds a copy of the training set
        assert len(history) == 4
        assert not calls
        assert history.losses == expected
        assert len(calls) == 4
        assert history.losses == expected
        assert len(calls) == 4

    @pytest.mark.parametrize("n", [2048, 2049, 2050, 3071])
    @pytest.mark.parametrize("k", [4, 32, 128])
    @pytest.mark.parametrize("act", ALL_ACTIVATIONS)
    def test_the_history_holds_the_whole_set_losses(self, n, k, act):
        cfg = TrainConfig(learning_rate=0.01, epochs=2, seed=n, latent_dim=k)
        x = np.random.default_rng(n).normal(size=(n, 16))
        with one_blas_thread():
            _, expected, _ = reference_train(x, cfg, (act, act))
        assert train(x, cfg, (act, act))[1].losses == expected

    def test_reading_the_losses_holds_no_n_by_k_array(self):
        n, k = 20_000, 128
        x = np.random.default_rng(5).normal(size=(n, 16))
        _, history = train(x, TrainConfig(epochs=2, latent_dim=k))
        tracemalloc.start()
        try:
            history.losses
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one slice's two products and one row sum of each term per row:
        # about 0.13 (n, k) arrays here
        assert peak < 0.25 * n * k * 8

    def test_evaluate_config_computes_no_loss(self, monkeypatch):
        bundle = make_bundle(generate(StreamConfig(n_events=1000, seed=13)))
        calls = self.count_batch_loss(monkeypatch)
        evaluate_config(bundle, TrainConfig(epochs=3, latent_dim=4))
        assert not calls

    def test_finite_parameters_with_an_overflowing_loss_diverge_at_that_epoch(
        self, small_training_set
    ):
        # inputs of order 1e155 square past the largest float64 in the loss,
        # while a learning rate of 1e-300 leaves the parameters finite
        x = small_training_set * 1e155
        cfg = TrainConfig(learning_rate=1e-300, epochs=3, batch_size=32, seed=2, latent_dim=2)
        assert reference_train(x, cfg)[2] == 0
        with pytest.raises(TrainingDivergedError) as info:
            train(x, cfg)
        assert info.value.epoch == 0
        assert info.value.__cause__ is None

    def test_losses_near_the_largest_float_are_computed_in_place(
        self, small_training_set, monkeypatch
    ):
        x = small_training_set * 1e150
        cfg = TrainConfig(learning_rate=1e-300, epochs=3, batch_size=32, seed=2, latent_dim=2)
        _, expected, diverged_at = reference_train(x, cfg)
        assert diverged_at is None
        assert all(1e300 < loss.l_total < math.inf for loss in expected)
        calls = self.count_batch_loss(monkeypatch)
        _, history = train(x, cfg)
        assert len(calls) == 3  # the guard could not rule out an overflow
        assert history.losses == expected
        assert len(calls) == 3

    @given(
        st.sampled_from(ALL_ACTIVATIONS),
        st.sampled_from(ALL_ACTIVATIONS),
        st.floats(0.0, 308.0),
        st.floats(0.0, 308.0),
        st.floats(-6.0, 308.0),
        st.one_of(st.none(), st.tuples(*[st.sampled_from("+-~")] * 3)),
        st.sampled_from([3, 64]),
    )
    @example(Activation.TANH, Activation.TANH, 300.0, 10.0, -4.0, ("~", "+", "+"), 64)
    @example(Activation.TANH, Activation.IDENTITY, 0.0, 0.0, 308.0, ("+", "+", "+"), 3)
    @settings(max_examples=300, deadline=None)
    def test_a_deferred_loss_is_finite(
        self, act_h, act_o, theta_exp, x_exp, l1_exp, signs, d
    ):
        """Random parameters and inputs, or ones of one magnitude whose signs
        are all + or all - (every sum reaches its bound) or alternate (~:
        overflowing products of both signs can add up to NaN where a product
        sums in several partial sums, as BLAS does over 64 inputs), for the
        encoder, the decoder and the input."""
        n, k = 40, 4
        theta_scale, x_scale, l1_penalty = 10.0**theta_exp, 10.0**x_exp, 10.0**l1_exp

        def signed(shape, sign, scale):
            if sign == "~":
                return scale * np.where(np.indices(shape).sum(axis=0) % 2, -1.0, 1.0)
            return np.full(shape, scale if sign == "+" else -scale)

        rng = SeededRng(int(theta_exp * 1e6))
        params = init_params(d, k, (act_h, act_o), rng)
        if signs is None:
            blocks = {name: block * theta_scale for name, block in params.blocks().items()}
            x = rng.uniform_block(n * d, -1.0, 1.0).reshape(n, d) * x_scale
        else:
            enc, dec, x_sign = signs
            blocks = {
                name: signed(block.shape, enc if name.endswith("_e") else dec, theta_scale)
                for name, block in params.blocks().items()
            }
            x = signed((n, d), x_sign, x_scale)
        params = AutoencoderParams(**blocks, hidden_activation=act_h, output_activation=act_o)
        theta_max = max(float(np.abs(block).max()) for block in blocks.values())
        x_max = float(np.abs(x).max())
        bound = autoencoder._loss_bound(x_max, theta_max, n, d, k, (act_h, act_o), l1_penalty)
        if bound < autoencoder._LOSS_BOUND_LIMIT:
            with np.errstate(all="ignore"):
                assert math.isfinite(batch_loss(params, x, l1_penalty).l_total)

    def test_leaves_caller_input_unchanged(self, small_training_set):
        x = small_training_set.copy()
        train(x, TrainConfig(epochs=2, batch_size=32, seed=3, latent_dim=2))
        assert x.tobytes() == small_training_set.tobytes()

    def test_non_finite_input_names_x_train(self):
        x = np.array([[ReferenceRng(i).uniform(-1, 1) for _ in range(4)] for i in range(200)])
        x[17, 2] = np.nan
        with pytest.raises(NumericalError, match="x_train"):
            train(x, TrainConfig(epochs=2, batch_size=32, latent_dim=2))

    def test_config_validation(self):
        with pytest.raises(ContractViolationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ContractViolationError):
            TrainConfig(l1_penalty=-1.0)
        with pytest.raises(ContractViolationError):
            TrainConfig(epochs=0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ContractViolationError, match="learning_rate"):
                TrainConfig(learning_rate=bad)
            with pytest.raises(ContractViolationError, match="l1_penalty"):
                TrainConfig(l1_penalty=bad)


@pytest.fixture
def saved_model(tmp_path):
    schema = FeatureSchema()
    rng = ReferenceRng(33)
    params = init_params(schema.dim, 4, rng=rng)
    stats = StandardizationStats(
        mu=np.array([rng.uniform(-5, 5) for _ in range(schema.dim)]),
        sigma=np.array([rng.uniform(0.5, 3) for _ in range(schema.dim)]),
    )
    path = tmp_path / "model.json"
    save_model(path, params, stats, schema)
    return path, params, stats, schema


class TestModelDocument:
    def test_round_trip_is_byte_identical(self, saved_model, tmp_path):
        path, *_ = saved_model
        params, stats, schema = load_model(path)
        second = tmp_path / "model2.json"
        save_model(second, params, stats, schema)
        assert path.read_bytes() == second.read_bytes()

    def test_round_trip_values_exact(self, saved_model):
        path, params, stats, _ = saved_model
        loaded_params, loaded_stats, _ = load_model(path)
        np.testing.assert_array_equal(loaded_params.w_e, params.w_e)
        np.testing.assert_array_equal(loaded_stats.sigma, stats.sigma)

    def test_unknown_version_names_both_versions(self, saved_model):
        path, *_ = saved_model
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError, match="99.*version 1"):
            load_model(path)

    def test_truncated_file(self, saved_model):
        path, *_ = saved_model
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_contradictory_shape(self, saved_model):
        path, *_ = saved_model
        doc = json.loads(path.read_text())
        doc["k"] = doc["k"] + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelShapeError):
            load_model(path)

    @pytest.mark.parametrize("edit, field", reference.MODEL_EDITS.values(),
                             ids=reference.MODEL_EDITS)
    def test_another_layout_or_floor_is_refused(self, saved_model, edit, field):
        # and a field that is missing or will not read (CORRUPT_MODELS): of
        # those, a string k loaded, a fractional d was cut to an integer and
        # an infinite d raised OverflowError
        path, *_ = saved_model
        reference.edit_model(path, path, edit)
        named = f"^model file {re.escape(str(path))}: field '{field}' must be"
        with pytest.raises(ModelFormatError, match=named):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"schema": {"extra": None}}, "field 'schema.extra' must be absent"),
            ({"schema": 5}, "field 'schema' must be an object"),
            ({"epsilon": "1e-08"}, "field 'epsilon' must be 1e-08"),
            ({"epsilon": True}, "field 'epsilon' must be 1e-08"),
        ],
    )
    def test_a_refusal_names_the_field(self, saved_model, edit, message):
        path, *_ = saved_model
        reference.edit_model(path, path, edit)
        named = f"^model file {re.escape(str(path))}: {re.escape(message)}"
        with pytest.raises(ModelFormatError, match=named):
            load_model(path)

    def test_a_missing_layout_field_is_named(self, saved_model):
        path, *_ = saved_model
        doc = json.loads(path.read_text())
        del doc["schema"]["geo_regions"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=r"field 'schema\.geo_regions' must be \["):
            load_model(path)

    def test_the_one_layout_in_another_key_order_loads(self, saved_model, tmp_path):
        path, params, stats, schema = saved_model
        doc = json.loads(path.read_text())
        doc["schema"] = dict(reversed(doc["schema"].items()))
        path.write_text(json.dumps(doc))
        loaded_params, loaded_stats, loaded_schema = load_model(path)
        assert loaded_schema == schema
        np.testing.assert_array_equal(loaded_stats.sigma, stats.sigma)

    def test_a_file_nested_too_deeply_is_a_format_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ModelFormatError, match="maximum recursion depth"):
            load_model(path)


class TestOneLayout:
    def test_the_layout_and_the_floor_are_not_fields(self):
        assert dataclasses.fields(FeatureSchema) == ()
        assert [f.name for f in dataclasses.fields(StandardizationStats)] == ["mu", "sigma"]
        with pytest.raises(TypeError):
            FeatureSchema(numeric_fields=("amount",))
        with pytest.raises(TypeError):
            StandardizationStats(mu=np.zeros(2), sigma=np.ones(2), epsilon=1e-10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            FeatureSchema().device_types = ("web",)

    def test_the_layout(self):
        schema = FeatureSchema()
        assert schema == FeatureSchema() and schema.dim == len(schema.column_names()) == 16
        assert StandardizationStats.epsilon == 1e-8
        assert FeatureSchema.from_dict(json.loads(json.dumps(schema.to_dict()))) == schema
