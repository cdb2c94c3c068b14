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
fixed seed and config reproduce training bit-for-bit.
"""

from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

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

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self is Activation.IDENTITY:
            return z
        if self is Activation.TANH:
            return np.tanh(z)
        if self is Activation.RELU:
            return np.maximum(z, 0.0)
        # sigmoid, split for stability at large |z|
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def derivative(self, z: np.ndarray, activated: np.ndarray) -> np.ndarray:
        """Derivative at z, reusing the already-computed activation value."""
        if self is Activation.IDENTITY:
            return np.ones_like(z)
        if self is Activation.TANH:
            return 1.0 - activated * activated
        if self is Activation.RELU:
            return (z > 0.0).astype(np.float64)
        return activated * (1.0 - activated)


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


@dataclass
class TrainHistory:
    """Per-epoch losses on the full training set plus wall time per epoch."""

    losses: list[LossBreakdown] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.losses)


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
    return params.hidden_activation.apply(x_std @ params.w_e.T + params.b_e)


def decode(params: AutoencoderParams, h: np.ndarray) -> np.ndarray:
    """Reconstruction from a latent vector or an (n, k) batch."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != params.k:
        raise ContractViolationError(
            f"decode expects latents of dimension {params.k}, got shape {h.shape}"
        )
    return params.output_activation.apply(h @ params.w_d.T + params.b_d)


def reconstruction_loss(x: np.ndarray, xhat: np.ndarray) -> float:
    """Mean over samples of the squared Euclidean reconstruction error.

    The squared norm is summed over features, not averaged, so the value for
    a single (x, xhat) pair is exactly ||x - xhat||^2.
    """
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ContractViolationError(
            f"reconstruction_loss shape mismatch: {x.shape} vs {xhat.shape}"
        )
    diff = x - xhat
    if diff.ndim == 1:
        return float(diff @ diff)
    return float(np.mean(np.sum(diff * diff, axis=1)))


def latent_l1(h: np.ndarray, l1_penalty: float) -> float:
    """l1_penalty times the batch-mean L1 norm of the latents."""
    if l1_penalty < 0:
        raise ContractViolationError(f"l1_penalty must be >= 0, got {l1_penalty}")
    h = np.asarray(h, dtype=np.float64)
    if h.ndim == 1:
        return float(l1_penalty * np.sum(np.abs(h)))
    return float(l1_penalty * np.mean(np.sum(np.abs(h), axis=1)))


def total_loss(l_rec: float, l_reg: float) -> LossBreakdown:
    if l_rec < 0 or l_reg < 0:
        raise ContractViolationError("loss terms must be non-negative")
    return LossBreakdown(l_rec=l_rec, l_reg=l_reg, l_total=l_rec + l_reg)


def batch_loss(params: AutoencoderParams, x: np.ndarray, l1_penalty: float) -> LossBreakdown:
    """Forward pass plus loss decomposition for a standardized batch."""
    h = encode(params, x)
    xhat = decode(params, h)
    return total_loss(reconstruction_loss(x, xhat), latent_l1(h, l1_penalty))


def _gradients(params: AutoencoderParams, x: np.ndarray, l1_penalty: float) -> Gradients:
    """Exact gradients for a validated (n, d) batch; may return non-finite values.

    Callers run it under ``np.errstate(all="ignore")`` and check the result.
    """
    n = x.shape[0]
    z_h = x @ params.w_e.T + params.b_e
    h = params.hidden_activation.apply(z_h)
    z_o = h @ params.w_d.T + params.b_d
    xhat = params.output_activation.apply(z_o)

    d_zo = (2.0 / n) * (xhat - x)
    if params.output_activation is not Activation.IDENTITY:  # identity: x * 1.0 == x
        d_zo *= params.output_activation.derivative(z_o, xhat)
    g_wd = d_zo.T @ h
    g_bd = d_zo.sum(axis=0)

    # sign(0) = 0 is the chosen subgradient of the L1 term
    d_h = d_zo @ params.w_d + (l1_penalty / n) * np.sign(h)
    d_zh = d_h * params.hidden_activation.derivative(z_h, h)
    g_we = d_zh.T @ x
    g_be = d_zh.sum(axis=0)

    return Gradients(w_e=g_we, b_e=g_be, w_d=g_wd, b_d=g_bd)


def backprop(params: AutoencoderParams, x_batch: np.ndarray, l1_penalty: float) -> Gradients:
    """Exact gradients of the total loss for one standardized batch.

    Returns gradients for all four parameter blocks. Raises
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
    with np.errstate(all="ignore"):
        grads = _gradients(params, x, l1_penalty)
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


def train(
    x_train: np.ndarray,
    cfg: TrainConfig,
    activations: tuple[Activation, Activation] = DEFAULT_ACTIVATIONS,
) -> tuple[AutoencoderParams, TrainHistory]:
    """Mini-batch SGD over shuffled epochs; fully determined by cfg.

    The epoch shuffle and the weight initialization both draw from a single
    rng seeded with ``cfg.seed``. After each epoch the loss breakdown on the
    full training set is recorded. A non-finite ``x_train`` raises
    :class:`NumericalError`. An epoch that leaves a non-finite parameter (from
    a non-finite gradient or an overflowing update) or a non-finite epoch loss
    aborts with :class:`TrainingDivergedError`.

    Each step updates the parameters in place; ``g *= lr; w -= g`` rounds
    exactly as :func:`sgd_step`'s ``w - lr * g``. Parameters are checked for
    finiteness once per epoch, before its loss: a non-finite value stays
    non-finite under every later update, so the check names the same epoch
    as a check after every step would.
    """
    x = require_finite(as_matrix(x_train, "x_train"), "x_train")
    n = x.shape[0]
    if n < cfg.batch_size:
        raise ContractViolationError(
            f"training needs at least batch_size={cfg.batch_size} rows, got {n}"
        )
    rng = SeededRng(cfg.seed)
    params = init_params(x.shape[1], cfg.latent_dim, activations, rng)
    blocks = params.blocks()
    lr = cfg.learning_rate
    history = TrainHistory()

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        shuffled = x[rng.shuffled_indices(n)]
        with np.errstate(all="ignore"):  # a non-finite step is caught below
            for lo in range(0, n, cfg.batch_size):
                grads = _gradients(params, shuffled[lo : lo + cfg.batch_size], cfg.l1_penalty)
                for name, arr in blocks.items():
                    g = getattr(grads, name)
                    g *= lr
                    arr -= g
        if not all(np.isfinite(arr).all() for arr in blocks.values()):
            raise TrainingDivergedError(epoch, lr) from NumericalError(
                f"non-finite parameters after epoch {epoch}"
            )

        with np.errstate(all="ignore"):
            epoch_loss = batch_loss(params, x, cfg.l1_penalty)
        if not np.isfinite(epoch_loss.l_total):
            raise TrainingDivergedError(epoch, lr)
        history.losses.append(epoch_loss)
        history.epoch_seconds.append(time.perf_counter() - started)

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


def load_model(
    path: str | Path,
) -> tuple[AutoencoderParams, StandardizationStats, FeatureSchema]:
    """Read and validate a model document written by :func:`save_model`."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"model file {path} is truncated or not valid JSON") from exc
    if not isinstance(document, dict):
        raise ModelFormatError(f"model file {path} does not hold a JSON object")

    version = document.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model file {path} has format version {version}, "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )

    try:
        d = int(document["d"])
        k = int(document["k"])
        w_e = np.array(document["w_e"], dtype=np.float64)
        b_e = np.array(document["b_e"], dtype=np.float64)
        w_d = np.array(document["w_d"], dtype=np.float64)
        b_d = np.array(document["b_d"], dtype=np.float64)
        mu = np.array(document["mu"], dtype=np.float64)
        sigma = np.array(document["sigma"], dtype=np.float64)
        epsilon = float(document["epsilon"])
        schema = FeatureSchema.from_dict(document["schema"])
        hidden = Activation(document["activations"]["hidden"])
        output = Activation(document["activations"]["output"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file {path} is missing or corrupts a field") from exc

    if w_e.shape != (k, d) or w_d.shape != (d, k):
        raise ModelShapeError(
            f"declared d={d}, k={k} contradict stored shapes "
            f"w_e={w_e.shape}, w_d={w_d.shape}"
        )
    if b_e.shape != (k,) or b_d.shape != (d,):
        raise ModelShapeError(
            f"bias shapes b_e={b_e.shape}, b_d={b_d.shape} contradict d={d}, k={k}"
        )
    if mu.shape != (d,) or sigma.shape != (d,) or schema.dim != d:
        raise ModelShapeError(
            f"stats of dimension {mu.shape[0]}/{sigma.shape[0]} or schema dimension "
            f"{schema.dim} contradict d={d}"
        )

    params = AutoencoderParams(
        w_e=w_e, b_e=b_e, w_d=w_d, b_d=b_d,
        hidden_activation=hidden, output_activation=output,
    )
    stats = StandardizationStats(mu=mu, sigma=sigma, epsilon=epsilon)
    return params, stats, schema
