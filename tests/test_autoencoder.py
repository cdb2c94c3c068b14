import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etlwatch import autoencoder
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
    latent_l1,
    load_model,
    reconstruction_loss,
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
from etlwatch.numerics import SeededRng
from etlwatch.preprocess import FeatureSchema, StandardizationStats

from gradcheck import finite_diff_grad

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
        x = np.array([SeededRng(seed + 1).uniform(-3, 3) for _ in range(d)])
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


class TestBackprop:
    def test_perfect_reconstruction_gives_zero_gradients(self):
        # identity network reconstructs exactly; lambda=0 means a loss minimum
        p = identity_params(3)
        batch = np.array([[0.5, -1.0, 2.0], [1.0, 1.0, 1.0]])
        grads = backprop(p, batch, 0.0)
        for arr in (grads.w_e, grads.b_e, grads.w_d, grads.b_d):
            assert np.max(np.abs(arr)) < 1e-12

    def test_matches_oracle_on_random_instance(self):
        rng = SeededRng(99)
        p = init_params(5, 3, (Activation.TANH, Activation.IDENTITY), rng)
        batch = np.array([[rng.uniform(-2, 2) for _ in range(5)] for _ in range(8)])
        check_gradients(p, batch, l1_penalty=0.0)

    def test_l1_term_checked_against_oracle(self):
        rng = SeededRng(14)
        p = init_params(4, 2, (Activation.TANH, Activation.IDENTITY), rng)
        batch = np.array([[rng.uniform(-2, 2) for _ in range(4)] for _ in range(6)])
        check_gradients(p, batch, l1_penalty=0.3)

    def test_l1_changes_encoder_but_not_decoder_gradients(self):
        # the penalty reaches the decoder only through h itself, so with the
        # same params and batch the decoder blocks are bit-identical
        rng = SeededRng(15)
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
        rng = SeededRng(2 * ALL_ACTIVATIONS.index(act_h) + (act_o is Activation.SIGMOID))
        p = init_params(4, 3, (act_h, act_o), rng)
        batch = np.array([[rng.uniform(-1.5, 1.5) for _ in range(4)] for _ in range(5)])
        check_gradients(p, batch, l1_penalty=0.01)

    def test_rejects_empty_batch(self):
        with pytest.raises(ContractViolationError):
            backprop(identity_params(2), np.empty((0, 2)), 0.0)


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
        rng = SeededRng(8)
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
    rng = SeededRng(17)
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
            loss = batch_loss(params, x, cfg.l1_penalty)
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

    @pytest.mark.parametrize("act_h", ALL_ACTIVATIONS)
    @pytest.mark.parametrize("act_o", ALL_ACTIVATIONS)
    def test_bitwise_equal_to_public_step_loop(self, small_training_set, act_h, act_o):
        cfg = TrainConfig(learning_rate=0.01, epochs=3, batch_size=32, seed=9, latent_dim=4)
        params, history = train(small_training_set, cfg, (act_h, act_o))
        expected, losses, diverged_at = reference_train(small_training_set, cfg, (act_h, act_o))
        assert diverged_at is None
        for name, block in params.blocks().items():
            np.testing.assert_array_equal(block, expected.blocks()[name], err_msg=name)
        assert history.losses == losses

    @pytest.mark.parametrize("lr", [100.0, 1e4])
    def test_divergence_epoch_matches_public_step_loop(self, small_training_set, lr):
        cfg = TrainConfig(learning_rate=lr, epochs=10, batch_size=32, seed=2, latent_dim=2)
        _, _, diverged_at = reference_train(small_training_set, cfg)
        assert diverged_at is not None
        with pytest.raises(TrainingDivergedError) as info:
            train(small_training_set, cfg)
        assert info.value.epoch == diverged_at
        assert isinstance(info.value.__cause__, NumericalError)

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_step_going_non_finite_mid_epoch_names_that_epoch(
        self, small_training_set, monkeypatch, poison
    ):
        # 256 rows in batches of 32: 8 steps per epoch; the fourth step of
        # epoch 2 returns a non-finite gradient
        cfg = TrainConfig(learning_rate=0.01, epochs=5, batch_size=32, seed=4, latent_dim=2)
        steps = 0
        kernel = autoencoder._gradients

        def poisoned(params, x, l1_penalty):
            nonlocal steps
            steps += 1
            grads = kernel(params, x, l1_penalty)
            if steps == 2 * 8 + 4:
                grads.b_d[0] = poison
            return grads

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

    def test_leaves_caller_input_unchanged(self, small_training_set):
        x = small_training_set.copy()
        train(x, TrainConfig(epochs=2, batch_size=32, seed=3, latent_dim=2))
        assert x.tobytes() == small_training_set.tobytes()

    def test_non_finite_input_names_x_train(self):
        x = np.array([[SeededRng(i).uniform(-1, 1) for _ in range(4)] for i in range(200)])
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
    rng = SeededRng(33)
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
