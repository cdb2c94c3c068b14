"""Single-hidden-layer autoencoder: forward pass, losses, exact backprop, SGD.

The model maps a standardized input x through h = act_h(W_e x + b_e) and back
through xhat = act_o(W_d h + b_d). Training minimizes

    L = L_rec + L_reg
    L_rec = mean_i ||x_i - xhat_i||^2        (squared norm summed over features)
    L_reg = l1_penalty * mean_i ||h_i||_1

with plain mini-batch SGD at a constant learning rate. Both loss terms are
batch means, so the learning rate and the L1 coefficient keep their meaning
across batch sizes. Gradients are exact up to the usual subgradient choices:
d|h|/dh = 0 at h = 0 and relu'(0) = 0.

All sums reduce through numpy's deterministic (pairwise) accumulation, so a
fixed seed and config reproduce training bit-for-bit. One gradient kernel,
the step :func:`_gradients` builds for a batch length, serves both
:func:`backprop` and :func:`train`. It binds its work arrays, ufuncs,
constants and activation branches when it is built and computes in place,
so a training step allocates nothing, makes no attribute lookup and rounds
exactly as the same arithmetic on fresh arrays.
"""

from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    ContractViolationError,
    ModelFormatError,
    ModelShapeError,
    ModelVersionError,
    NumericalError,
    TrainingDivergedError,
)
from .numerics import SeededRng, as_matrix, require_finite
from .preprocess import FeatureSchema, StandardizationStats

MODEL_FORMAT_VERSION = 1


class Activation(str, enum.Enum):
    IDENTITY = "identity"
    TANH = "tanh"
    RELU = "relu"
    SIGMOID = "sigmoid"

    def apply(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The activation of z, written into ``out`` when given (which may be
        z itself) and into a new array otherwise; identity returns z as is."""
        if self is Activation.IDENTITY:
            if out is None or out is z:
                return z
            out[...] = z
            return out
        if self is Activation.TANH:
            return np.tanh(z, out=out)
        if self is Activation.RELU:
            return np.maximum(z, 0.0, out=out)
        # sigmoid, split for stability at large |z|: 1 / (1 + e^-z) where
        # z >= 0 and e^z / (1 + e^z) elsewhere. Only z >= 0 is negated, so a
        # NaN keeps its sign and payload.
        pos = np.greater_equal(z, 0.0)
        e = np.array(z, dtype=np.float64)
        np.negative(e, out=e, where=pos)
        np.exp(e, out=e)
        numerator = np.where(pos, 1.0, e)
        np.add(1.0, e, out=e)
        return np.divide(numerator, e, out=out)

    def derivative(
        self, z: np.ndarray, activated: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Derivative at z, reusing the already-computed activation value.

        Written into ``out`` when given (which may be z itself) and into a new
        array or scalar otherwise; both forms give the same bits.
        """
        if self is Activation.IDENTITY:
            if out is None:
                return np.ones_like(z)
            out[...] = 1.0
            return out
        if self is Activation.TANH:
            if out is None:
                return 1.0 - activated * activated
            np.multiply(activated, activated, out=out)
            return np.subtract(1.0, out, out=out)
        if self is Activation.RELU:
            if out is None:
                return np.greater(z, 0.0).astype(np.float64)
            return np.greater(z, 0.0, out=out)  # True/False cast to 1.0/0.0
        if out is None:
            return activated * (1.0 - activated)
        np.subtract(1.0, activated, out=out)
        return np.multiply(activated, out, out=out)


DEFAULT_ACTIVATIONS = (Activation.TANH, Activation.IDENTITY)


@dataclass
class AutoencoderParams:
    """Weights, biases and activation choices of the model.

    Shapes: w_e is (k, d), b_e is (k,), w_d is (d, k), b_d is (d,).
    """

    w_e: np.ndarray
    b_e: np.ndarray
    w_d: np.ndarray
    b_d: np.ndarray
    hidden_activation: Activation = Activation.TANH
    output_activation: Activation = Activation.IDENTITY

    def __post_init__(self) -> None:
        self.w_e = as_matrix(self.w_e, "w_e")
        self.w_d = as_matrix(self.w_d, "w_d")
        self.b_e = np.ascontiguousarray(self.b_e, dtype=np.float64)
        self.b_d = np.ascontiguousarray(self.b_d, dtype=np.float64)
        k, d = self.w_e.shape
        if self.w_d.shape != (d, k):
            raise ContractViolationError(
                f"w_d must be {(d, k)} to invert w_e {self.w_e.shape}, got {self.w_d.shape}"
            )
        if self.b_e.shape != (k,) or self.b_d.shape != (d,):
            raise ContractViolationError(
                f"bias shapes {self.b_e.shape}/{self.b_d.shape} do not match k={k}, d={d}"
            )
        for name, arr in self.blocks().items():
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"non-finite values in parameter block {name}")

    @property
    def d(self) -> int:
        return self.w_e.shape[1]

    @property
    def k(self) -> int:
        return self.w_e.shape[0]

    def blocks(self) -> dict[str, np.ndarray]:
        return {"w_e": self.w_e, "b_e": self.b_e, "w_d": self.w_d, "b_d": self.b_d}


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the training loop; defaults follow the reported optima."""

    learning_rate: float = 0.001
    l1_penalty: float = 1e-4
    epochs: int = 50
    batch_size: int = 64
    seed: int = 7
    latent_dim: int = 32

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ContractViolationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if not (self.l1_penalty >= 0 and math.isfinite(self.l1_penalty)):
            raise ContractViolationError(
                f"l1_penalty must be finite and >= 0, got {self.l1_penalty}"
            )
        if self.epochs < 1 or self.batch_size < 1 or self.latent_dim < 1:
            raise ContractViolationError(
                "epochs, batch_size and latent_dim must all be >= 1"
            )


@dataclass(frozen=True)
class LossBreakdown:
    l_rec: float
    l_reg: float
    l_total: float


class TrainHistory:
    """Per-epoch losses on the full training set plus wall time per epoch.

    ``epoch_seconds`` times each epoch's shuffle, the gather of its rows and
    its steps, not its loss.
    The history :func:`train` returns computes its ``losses`` on first
    read, each with :func:`batch_loss` on a copy of the parameters taken
    after its epoch, so they are the bits a loss computed during training
    would have; an epoch whose loss :func:`train` computed at once, because
    its bound could not rule out an overflow, keeps that value. Until then
    the history holds the copies, epochs x P x 8 bytes for P = 2kd + k + d
    parameters (0.43 MB at the defaults, 1.7 MB at k = 128), and a copy of
    the training set; the first read drops both. A read allocates one
    slice's forward pass at a time (see :func:`_row_losses`), not one over
    the whole set.
    """

    def __init__(self) -> None:
        self._losses: list[LossBreakdown | None] = []
        self.epoch_seconds: list[float] = []
        # epoch -> its loss, for the entries still None
        self._loss_at: Callable[[int], LossBreakdown] | None = None

    @property
    def losses(self) -> list[LossBreakdown]:
        if self._loss_at is not None:
            with np.errstate(all="ignore"):
                self._losses = [
                    self._loss_at(epoch) if loss is None else loss
                    for epoch, loss in enumerate(self._losses)
                ]
            self._loss_at = None
        return self._losses

    def __len__(self) -> int:
        return len(self._losses)


@dataclass
class Gradients:
    w_e: np.ndarray
    b_e: np.ndarray
    w_d: np.ndarray
    b_d: np.ndarray


def init_params(
    d: int,
    k: int,
    activations: tuple[Activation, Activation] = DEFAULT_ACTIVATIONS,
    rng: SeededRng | None = None,
) -> AutoencoderParams:
    """Glorot-uniform weights, zero biases, deterministic for a given rng.

    Each weight matrix is filled row-major with draws from
    U(-sqrt(6 / (fan_in + fan_out)), +sqrt(6 / (fan_in + fan_out))).
    """
    if d < 1 or k < 1:
        raise ContractViolationError(f"dimensions must be >= 1, got d={d}, k={k}")
    if rng is None:
        rng = SeededRng(0)
    bound = np.sqrt(6.0 / (d + k))  # same fan sum for both matrices
    w_e = rng.uniform_block(k * d, -bound, bound).reshape(k, d)
    w_d = rng.uniform_block(d * k, -bound, bound).reshape(d, k)
    return AutoencoderParams(
        w_e=w_e,
        b_e=np.zeros(k),
        w_d=w_d,
        b_d=np.zeros(d),
        hidden_activation=activations[0],
        output_activation=activations[1],
    )


def encode(params: AutoencoderParams, x_std: np.ndarray) -> np.ndarray:
    """Latent representation; accepts a single vector or an (n, d) batch."""
    x_std = np.asarray(x_std, dtype=np.float64)
    if x_std.shape[-1] != params.d:
        raise ContractViolationError(
            f"encode expects inputs of dimension {params.d}, got shape {x_std.shape}"
        )
    z = x_std @ params.w_e.T
    z += params.b_e
    return params.hidden_activation.apply(z, out=z)


def decode(params: AutoencoderParams, h: np.ndarray) -> np.ndarray:
    """Reconstruction from a latent vector or an (n, k) batch."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != params.k:
        raise ContractViolationError(
            f"decode expects latents of dimension {params.k}, got shape {h.shape}"
        )
    z = h @ params.w_d.T
    z += params.b_d
    return params.output_activation.apply(z, out=z)


def total_loss(l_rec: float, l_reg: float) -> LossBreakdown:
    if l_rec < 0 or l_reg < 0:
        raise ContractViolationError("loss terms must be non-negative")
    return LossBreakdown(l_rec=l_rec, l_reg=l_reg, l_total=l_rec + l_reg)


# Rows a loss runs through its forward pass at a time (see _row_losses).
_SLICE = 1024


def batch_loss(params: AutoencoderParams, x: np.ndarray, l1_penalty: float) -> LossBreakdown:
    """Forward pass plus loss decomposition for a standardized batch.

    Equal bit for bit to ``total_loss(l_rec, l_reg)`` with ``l_rec`` the
    mean over rows of ``||x - xhat||^2`` (summed over features) and
    ``l_reg`` ``l1_penalty`` times the mean over rows of ``||h||_1``, where
    ``h = encode(params, x)`` and ``xhat = decode(params, h)`` over the
    whole batch at once. An (n, d) batch runs through its forward pass a
    slice of rows at a time (:func:`_row_losses`). A training history runs
    it over the whole training set once per epoch.
    """
    x = np.asarray(x, dtype=np.float64)
    if l1_penalty < 0:
        raise ContractViolationError(f"l1_penalty must be >= 0, got {l1_penalty}")
    if x.ndim == 1:
        h = encode(params, x)
        diff = np.subtract(x, decode(params, h))
        return total_loss(float(diff @ diff), float(l1_penalty * np.sum(np.abs(h, out=h))))
    rec, reg = _row_losses(params, x)
    return total_loss(float(np.mean(rec)), float(l1_penalty * np.mean(reg)))


def _row_losses(params: AutoencoderParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``||x - xhat||^2`` and ``||h||_1``, with the bits of the
    forward pass over all of the (n, d) ``x`` at once.

    The rows go through :func:`encode` and :func:`decode` :data:`_SLICE` at
    a time, the last rows joining the slice before when they are at most
    half a slice. The products of slices aligned at multiples of ``_SLICE``
    and none that short have the bits of the product of all rows; a short
    one may not, as BLAS computes one row (gemv) or a few (a small-matrix
    kernel) another way. Each slice's two products are all it allocates
    besides the two (n,) results: the difference, its square and ``|h|``
    overwrite them in place.
    """
    n = len(x)
    starts = range(0, max(n - _SLICE // 2, 1), _SLICE)
    rec, reg = np.empty(n), np.empty(n)
    for lo, hi in zip(starts, [*starts[1:], n]):
        part = x[lo:hi]
        h = encode(params, part)
        diff = decode(params, h)
        np.subtract(part, diff, out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=1, out=rec[lo:hi])
        np.add.reduce(np.abs(h, out=h), axis=1, out=reg[lo:hi])
    return rec, reg


def _views(flat: np.ndarray, d: int, k: int) -> tuple[np.ndarray, ...]:
    """The w_e, b_e, w_d and b_d blocks of a flat vector, as views of it."""
    kd = k * d
    return (
        flat[:kd].reshape(k, d),
        flat[kd : kd + k],
        flat[kd + k : 2 * kd + k].reshape(d, k),
        flat[2 * kd + k :],
    )


def _gradients(
    params: AutoencoderParams, n: int, l1_penalty: float, grads: Gradients
) -> Callable[[np.ndarray], None]:
    """The gradient step for batches of n rows: ``step(x)`` writes the exact
    gradients of the total loss for a validated (n, d) batch into ``grads``.

    The step binds once what each call would otherwise look up: its seven
    work arrays, the parameter and gradient blocks (bound, not copied, so it
    sees their in-place updates), the ufuncs, the two scale constants and
    each activation's branch. Every operation writes into a work array or
    into ``grads`` in place, and each element goes through the same
    operations in the same order as on fresh arrays, so the bits are the
    same. ``np.dot`` makes the same BLAS call as ``@`` with less overhead,
    and ``np.add.reduce`` is what ``ndarray.sum`` calls. The gradients may
    come out non-finite: callers run the step under
    ``np.errstate(all="ignore")`` and check them.
    """
    d, k = params.d, params.k
    z_h, h, l1, d_h = (np.empty((n, k)) for _ in range(4))
    z_o, xhat, d_zo = (np.empty((n, d)) for _ in range(3))
    d_h_t, d_zo_t = d_h.T, d_zo.T
    w_e_t, b_e, w_d, b_d = params.w_e.T, params.b_e, params.w_d, params.b_d
    w_d_t = w_d.T
    g_w_e, g_b_e, g_w_d, g_b_d = grads.w_e, grads.b_e, grads.w_d, grads.b_d
    rec_scale, l1_scale = 2.0 / n, l1_penalty / n
    dot, add, subtract, multiply, sign = np.dot, np.add, np.subtract, np.multiply, np.sign
    sum_rows = np.add.reduce
    # identity: the activation is its input, and x * 1.0 == x needs no step
    act_h, act_o = params.hidden_activation, params.output_activation
    apply_h = derive_h = apply_o = derive_o = None
    if act_h is Activation.IDENTITY:
        h = z_h
    else:
        apply_h, derive_h = act_h.apply, act_h.derivative
    if act_o is Activation.IDENTITY:
        xhat = z_o
    else:
        apply_o, derive_o = act_o.apply, act_o.derivative

    def step(x: np.ndarray) -> None:
        dot(x, w_e_t, z_h)
        add(z_h, b_e, z_h)
        if apply_h is not None:
            apply_h(z_h, h)
        dot(h, w_d_t, z_o)
        add(z_o, b_d, z_o)
        if apply_o is not None:
            apply_o(z_o, xhat)

        subtract(xhat, x, d_zo)
        multiply(d_zo, rec_scale, d_zo)
        if derive_o is not None:
            multiply(d_zo, derive_o(z_o, xhat, z_o), d_zo)
        dot(d_zo_t, h, g_w_d)
        sum_rows(d_zo, 0, None, g_b_d)

        dot(d_zo, w_d, d_h)
        # sign(0) = 0 is the chosen subgradient of the L1 term; np.sign runs
        # several times slower in place, hence an array of its own
        sign(h, l1)
        multiply(l1, l1_scale, l1)
        add(d_h, l1, d_h)
        if derive_h is not None:
            multiply(d_h, derive_h(z_h, h, z_h), d_h)
        dot(d_h_t, x, g_w_e)
        sum_rows(d_h, 0, None, g_b_e)

    return step


def backprop(params: AutoencoderParams, x_batch: np.ndarray, l1_penalty: float) -> Gradients:
    """Exact gradients of the total loss for one standardized batch.

    Returns gradients for all four parameter blocks, in new arrays. Raises
    :class:`NumericalError` naming the offending block if any gradient is
    non-finite.
    """
    x = as_matrix(np.atleast_2d(np.asarray(x_batch, dtype=np.float64)), "x_batch")
    if x.shape[0] < 1:
        raise ContractViolationError("backprop needs a non-empty batch")
    if x.shape[1] != params.d:
        raise ContractViolationError(
            f"batch dimension {x.shape[1]} does not match model d={params.d}"
        )
    d, k = params.d, params.k
    grads = Gradients(*_views(np.empty(2 * k * d + k + d), d, k))
    with np.errstate(all="ignore"):
        _gradients(params, x.shape[0], l1_penalty, grads)(x)
    for name, arr in vars(grads).items():
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"non-finite gradient for parameter block {name}")
    return grads


def sgd_step(params: AutoencoderParams, grads: Gradients, lr: float) -> AutoencoderParams:
    """One plain gradient-descent update; returns new params."""
    if lr <= 0:
        raise ContractViolationError(f"learning rate must be > 0, got {lr}")
    return AutoencoderParams(
        w_e=params.w_e - lr * grads.w_e,
        b_e=params.b_e - lr * grads.b_e,
        w_d=params.w_d - lr * grads.w_d,
        b_d=params.b_d - lr * grads.b_d,
        hidden_activation=params.hidden_activation,
        output_activation=params.output_activation,
    )


# batch_loss stays finite while _loss_bound is below this: the factor of
# about 1.8e8 up to the largest float64 absorbs the rounding of every sum.
_LOSS_BOUND_LIMIT = 1e300


def _loss_bound(
    x_max: float, theta_max: float, n: int, d: int, k: int,
    activations: tuple[Activation, Activation], l1_penalty: float,
) -> float:
    """A bound on the magnitude of every intermediate of :func:`batch_loss`
    over n rows with |x| <= x_max and parameters with |theta| <= theta_max.

    It covers both pre-activations, the reconstruction, the squared
    differences, their row sums and n-row sum, and the L1 term. tanh and
    sigmoid are bounded by 1, identity and relu by their input.
    """

    def activated(act: Activation, z: float) -> float:
        return 1.0 if act in (Activation.TANH, Activation.SIGMOID) else z

    z_h = (d * x_max + 1.0) * theta_max
    h = activated(activations[0], z_h)
    z_o = (k * h + 1.0) * theta_max
    diff = x_max + activated(activations[1], z_o)
    return z_h + z_o + n * (d * diff * diff + k * h * max(1.0, l1_penalty))


def train(
    x_train: np.ndarray,
    cfg: TrainConfig,
    activations: tuple[Activation, Activation] = DEFAULT_ACTIVATIONS,
) -> tuple[AutoencoderParams, TrainHistory]:
    """Mini-batch SGD over shuffled epochs; fully determined by cfg.

    The epoch shuffle and the weight initialization both draw from a single
    rng seeded with ``cfg.seed``. The history records each epoch's loss
    breakdown on the full training set and the wall time of its shuffle,
    gather and steps. A non-finite ``x_train`` raises
    :class:`NumericalError`. An epoch that leaves a non-finite parameter
    (from a non-finite gradient or an overflowing update) or a non-finite
    epoch loss aborts with :class:`TrainingDivergedError`.

    The parameters are views of one flat vector and the gradients views of
    a second, so each step's update is ``grad *= lr; theta -= grad``, which
    rounds exactly as :func:`sgd_step`'s per-block ``w - lr * g``. The
    gradient step behind :func:`backprop` writes into the second vector; one
    is built for each of the two batch lengths an epoch has. Each epoch
    gathers the shuffled rows into one kept array, whose batch views are
    made once, so a step allocates nothing. Parameters are checked for
    finiteness once per epoch:
    a non-finite value stays non-finite under every later update, so the
    check names the same epoch as a check after every step would.

    Most callers never read the losses, so each epoch only copies the
    parameters into one epochs x P array, and the history computes the
    losses from those rows on first read (see :class:`TrainHistory`); it
    keeps a copy of the training set until then, in the buffer the epochs
    gathered their shuffled rows into, so training holds two n-row arrays,
    ``x_train`` and that buffer, and no third. An epoch's loss is computed
    at once, as the divergence check needs, only when :func:`_loss_bound`
    from max|x| (once per call) and max|theta| (once per epoch) cannot rule
    out an overflow in :func:`batch_loss`; a deferred loss is then finite.
    """
    x = require_finite(as_matrix(x_train, "x_train"), "x_train")
    n, d = x.shape
    if n < cfg.batch_size:
        raise ContractViolationError(
            f"training needs at least batch_size={cfg.batch_size} rows, got {n}"
        )
    rng = SeededRng(cfg.seed)
    k, size = cfg.latent_dim, cfg.batch_size
    initial = init_params(d, k, activations, rng)
    theta = np.concatenate([arr.ravel() for arr in initial.blocks().values()])
    params = AutoencoderParams(*_views(theta, d, k), *activations)
    grad = np.empty_like(theta)
    grads = Gradients(*_views(grad, d, k))
    steps = {m: _gradients(params, m, cfg.l1_penalty, grads) for m in {size, n % size} if m}
    shuffled = np.empty_like(x)
    batches = [(shuffled[lo : lo + size], steps[min(size, n - lo)]) for lo in range(0, n, size)]
    lr = cfg.learning_rate
    x_max = max(float(x.max()), -float(x.min()))
    thetas = np.empty((cfg.epochs, theta.size))
    history = TrainHistory()

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        # the indices are a permutation, so "clip" never clips; it spares
        # the buffered copy that take makes into out under "raise"
        np.take(x, rng.shuffled_indices(n), axis=0, out=shuffled, mode="clip")
        with np.errstate(all="ignore"):  # a non-finite step is caught below
            for batch, step in batches:
                step(batch)
                grad *= lr
                theta -= grad
        history.epoch_seconds.append(time.perf_counter() - started)
        theta_max = float(np.abs(theta).max())  # NaN or inf if any parameter is
        if not math.isfinite(theta_max):
            raise TrainingDivergedError(epoch, lr) from NumericalError(
                f"non-finite parameters after epoch {epoch}"
            )

        thetas[epoch] = theta
        epoch_loss = None
        bound = _loss_bound(x_max, theta_max, n, d, k, activations, cfg.l1_penalty)
        if not bound < _LOSS_BOUND_LIMIT:  # NaN, from 0 * inf, included
            with np.errstate(all="ignore"):
                epoch_loss = batch_loss(params, x, cfg.l1_penalty)
            if not np.isfinite(epoch_loss.l_total):
                raise TrainingDivergedError(epoch, lr)
        history._losses.append(epoch_loss)

    # the caller may change x_train before the losses are read, so the
    # history keeps a copy: the shuffle buffer, which the steps are done with
    x_kept = shuffled
    x_kept[...] = x

    def loss_at(epoch: int) -> LossBreakdown:
        after = AutoencoderParams(*_views(thetas[epoch], d, k), *activations)
        return batch_loss(after, x_kept, cfg.l1_penalty)

    history._loss_at = loss_at
    return params, history


# --- model document -----------------------------------------------------

def save_model(
    path: str | Path,
    params: AutoencoderParams,
    stats: StandardizationStats,
    schema: FeatureSchema,
) -> None:
    """Write the model as a self-describing JSON document.

    Reals are serialized with Python's shortest round-trip representation,
    so save -> load -> save is byte-identical.
    """
    if stats.dim != params.d or schema.dim != params.d:
        raise ContractViolationError(
            f"model d={params.d}, stats dim={stats.dim} and schema dim={schema.dim} disagree"
        )
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "d": params.d,
        "k": params.k,
        "activations": {
            "hidden": params.hidden_activation.value,
            "output": params.output_activation.value,
        },
        "w_e": params.w_e.tolist(),
        "b_e": params.b_e.tolist(),
        "w_d": params.w_d.tolist(),
        "b_d": params.b_d.tolist(),
        "mu": stats.mu.tolist(),
        "sigma": stats.sigma.tolist(),
        "epsilon": stats.epsilon,
        "schema": schema.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


def load_model(path: str | Path) -> tuple[AutoencoderParams, StandardizationStats]:
    """Read and validate a model document written by :func:`save_model`; one
    that records another feature layout or sigma floor is refused."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deeply
        raise ModelFormatError(f"model file {path} is not readable JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ModelFormatError(f"model file {path} does not hold a JSON object")

    version = document.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model file {path} has format version {version}, "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )

    def field(name: str, read: Callable, expected: str):
        """``read`` of the field at the dotted path ``name``; a field that is
        missing or that ``read`` refuses is a ModelFormatError naming it."""
        value = document
        try:
            for key in name.split("."):
                value = value[key]
            return read(value)
        except (KeyError, TypeError, ValueError, OverflowError):
            message = f"model file {path}: field {name!r} must be {expected}"
            raise ModelFormatError(message) from None

    def integer(value: object) -> int:
        if type(value) is not int:
            raise TypeError(value)
        return value

    def floor(value: object) -> None:
        if value != StandardizationStats.epsilon:
            raise ValueError(value)

    d, k = (field(name, integer, "an integer") for name in ("d", "k"))
    w_e, b_e, w_d, b_d, mu, sigma = (
        field(name, lambda value: np.array(value, dtype=np.float64), "an array of numbers")
        for name in ("w_e", "b_e", "w_d", "b_d", "mu", "sigma")
    )
    field("epsilon", floor, str(StandardizationStats.epsilon))
    try:
        field("schema", FeatureSchema.from_dict, "an object")
    except ContractViolationError as exc:
        raise ModelFormatError(f"model file {path}: {exc}") from None
    choices = ", ".join(repr(activation.value) for activation in Activation)
    hidden, output = (
        field(f"activations.{layer}", Activation, f"one of {choices}")
        for layer in ("hidden", "output")
    )

    if w_e.shape != (k, d) or w_d.shape != (d, k):
        raise ModelShapeError(
            f"declared d={d}, k={k} contradict stored shapes "
            f"w_e={w_e.shape}, w_d={w_d.shape}"
        )
    if b_e.shape != (k,) or b_d.shape != (d,):
        raise ModelShapeError(
            f"bias shapes b_e={b_e.shape}, b_d={b_d.shape} contradict d={d}, k={k}"
        )
    if mu.shape != (d,) or sigma.shape != (d,) or FeatureSchema.dim != d:
        raise ModelShapeError(
            f"stats of dimension {mu.shape[0]}/{sigma.shape[0]} or schema dimension "
            f"{FeatureSchema.dim} contradict d={d}"
        )

    params = AutoencoderParams(
        w_e=w_e, b_e=b_e, w_d=w_d, b_d=b_d,
        hidden_activation=hidden, output_activation=output,
    )
    return params, StandardizationStats(mu=mu, sigma=sigma)
