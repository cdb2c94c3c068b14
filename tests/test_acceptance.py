"""Acceptance suite: every release gate in one module.

Each test prints one ``[acceptance] criterion N ...: PASS`` line on success;
a failing criterion fails its test. The heavyweight benchmark pipeline
(generate, split, train, calibrate, sweep) runs once in a session fixture;
the determinism criterion reruns it from scratch and compares report bytes.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from etlwatch.autoencoder import (
    Activation,
    TrainConfig,
    backprop,
    batch_loss,
    encode,
    init_params,
    load_model,
    save_model,
    train,
)
from etlwatch.errors import ModelFormatError, ModelShapeError, ModelVersionError
from etlwatch.evaluation import (
    K_GRID,
    LR_GRID,
    auc,
    emit_report,
    evaluate_config,
    make_bundle,
    metrics_to_dict,
)
from etlwatch.evaluation import sweep as run_sweep
from etlwatch.preprocess import FeatureSchema, StandardizationStats, fit_stats, standardize
from etlwatch.streamgen import StreamConfig, generate

from gradcheck import finite_diff_grad
from reference import ReferenceRng
from test_autoencoder import flatten_grads, flatten_params, unflatten_params

BENCHMARK_SEED = 7
ACTIVATION_CYCLE = [
    (Activation.TANH, Activation.IDENTITY),
    (Activation.IDENTITY, Activation.IDENTITY),
    (Activation.RELU, Activation.IDENTITY),
    (Activation.SIGMOID, Activation.IDENTITY),
    (Activation.TANH, Activation.TANH),
    (Activation.RELU, Activation.SIGMOID),
    (Activation.SIGMOID, Activation.TANH),
    (Activation.IDENTITY, Activation.RELU),
]


def criterion(label: str):
    """Print one pass/fail line per criterion, whatever pytest does with it."""

    def decorate(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except AssertionError as exc:
                print(f"\n[acceptance] {label}: FAIL ({exc})")
                raise
            print(f"\n[acceptance] {label}: PASS" + (f" ({detail})" if detail else ""))

        return wrapper

    return decorate


def run_benchmark_pipeline(out_dir: Path) -> dict:
    """Standard synthetic benchmark end to end, emitting all report files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    events = generate(StreamConfig(seed=BENCHMARK_SEED))  # n=10^4, 5% anomalies
    bundle = make_bundle(events)
    base = TrainConfig()  # lr 0.001, k 32, l1 1e-4, epochs 50, batch 64
    report = evaluate_config(bundle, base)
    detection_seconds = time.perf_counter() - started

    lr_sweep = run_sweep("lr", base, LR_GRID, bundle, seed=BENCHMARK_SEED)
    k_sweep = run_sweep("k", base, K_GRID, bundle, seed=BENCHMARK_SEED)

    with open(out_dir / "benchmark_metrics.json", "w", encoding="utf-8") as fh:
        json.dump(metrics_to_dict(report), fh, indent=1)
        fh.write("\n")
    for sweep, knob in ((lr_sweep, "lr"), (k_sweep, "k")):
        for fmt in ("csv", "json"):
            emit_report(sweep, out_dir / f"sweep_{knob}_{BENCHMARK_SEED}.{fmt}", fmt)

    return {
        "bundle": bundle,
        "report": report,
        "lr_sweep": lr_sweep,
        "k_sweep": k_sweep,
        "detection_seconds": detection_seconds,
        "out_dir": out_dir,
    }


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    return run_benchmark_pipeline(tmp_path_factory.mktemp("acceptance") / "run1")


@criterion("criterion 1 (gradient oracle)")
def test_criterion_1_gradient_oracle():
    """Backprop matches central differences on 20 random small instances."""
    started = time.perf_counter()
    rng = ReferenceRng(1001)
    worst = 0.0
    for i in range(20):
        d = 2 + rng.index(7)  # 2..8
        k = 1 + rng.index(4)  # 1..4
        n = 1 + rng.index(16)  # 1..16
        acts = ACTIVATION_CYCLE[i % len(ACTIVATION_CYCLE)]
        l1 = (0.0, 1e-3, 0.1)[i % 3]
        params = init_params(d, k, acts, rng)
        batch = np.array([[rng.uniform(-2, 2) for _ in range(d)] for _ in range(n)])

        analytic = flatten_grads(backprop(params, batch, l1))
        numeric = finite_diff_grad(
            lambda theta: batch_loss(unflatten_params(theta, params), batch, l1).l_total,
            flatten_params(params),
            h=1e-6,
        )
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    elapsed = time.perf_counter() - started
    assert worst < 1e-5, f"worst relative gradient error {worst:.2e}"
    assert elapsed < 5.0, f"gradient oracle took {elapsed:.1f}s"
    return f"worst rel err {worst:.1e}, {elapsed:.1f}s"


@criterion("criterion 2 (standardization round trip)")
def test_criterion_2_standardization_round_trip():
    rng = np.random.default_rng(2002)
    for _ in range(5):
        x = rng.normal(loc=rng.uniform(-100, 100), scale=rng.uniform(0.1, 50),
                       size=(1000, 16))
        z = standardize(x, fit_stats(x))
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9
    return "five random 1000x16 matrices"


@criterion("criterion 3 (AUC oracle)")
def test_criterion_3_auc_oracle():
    def brute_force(scores, labels):
        pos = [s for s, l in zip(scores, labels) if l]
        neg = [s for s, l in zip(scores, labels) if not l]
        wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
        return wins / (len(pos) * len(neg))

    assert auc([0.1, 0.4, 0.35, 0.8], [False, False, True, True]) == 0.75

    rng = ReferenceRng(3003)
    grid = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
    for _ in range(100):
        n = 2 + rng.index(11)  # 2..12
        scores = [grid[rng.index(len(grid))] for _ in range(n)]
        labels = [rng.uniform() < 0.5 for _ in range(n)]
        if all(labels) or not any(labels):
            labels[0] = not labels[0]
        assert auc(scores, labels) == brute_force(scores, labels)
    return "exact match with pair enumeration on 100 random sets"


@criterion("criterion 4 (end-to-end detection floor)")
def test_criterion_4_end_to_end_detection_floor(pipeline):
    report = pipeline["report"]
    seconds = pipeline["detection_seconds"]
    assert report.auc >= 0.90, f"test AUC {report.auc:.4f} below 0.90"
    assert report.recall is not None and report.recall >= 0.80, (
        f"recall {report.recall} below 0.80"
    )
    assert seconds < 120.0, f"pipeline took {seconds:.0f}s"
    return (
        f"AUC {report.auc:.4f} >= 0.90, recall {report.recall:.4f} >= 0.80, "
        f"{seconds:.0f}s < 120s"
    )


@criterion("criterion 5 (learning-rate sweep shape)")
def test_criterion_5_learning_rate_sweep_shape(pipeline):
    by_lr = {e.knob_value: e for e in pipeline["lr_sweep"].entries}
    best = by_lr[0.001]
    low, high = by_lr[0.0001], by_lr[0.01]
    assert not best.diverged, "the default learning rate must not diverge"
    if not low.diverged:
        assert best.report.auc >= low.report.auc, (
            f"AUC(0.001)={best.report.auc:.4f} < AUC(0.0001)={low.report.auc:.4f}"
        )
    degraded = high.diverged or high.report.auc < best.report.auc
    assert degraded, (
        f"AUC(0.01)={high.report.auc:.4f} neither degraded nor diverged "
        f"(AUC(0.001)={best.report.auc:.4f})"
    )
    summary = " ".join(
        f"{e.knob_value:g}:{'DIV' if e.diverged else format(e.report.auc, '.4f')}"
        for e in pipeline["lr_sweep"].entries
    )
    return f"interior maximum: {summary}"


@criterion("criterion 6 (latent-dimension sweep shape)")
def test_criterion_6_latent_dim_sweep_shape(pipeline):
    entries = {int(e.knob_value): e for e in pipeline["k_sweep"].entries}
    precisions = {
        k: (None if e.diverged else e.report.precision) for k, e in entries.items()
    }
    mid = [precisions[k] for k in (8, 16, 32, 64) if precisions[k] is not None]
    assert mid, "every mid-grid point diverged"
    best_mid = max(mid)
    assert precisions[4] is not None and precisions[128] is not None
    assert best_mid > precisions[4], (
        f"best mid-grid precision {best_mid:.4f} not above k=4 ({precisions[4]:.4f})"
    )
    assert best_mid > precisions[128], (
        f"best mid-grid precision {best_mid:.4f} not above k=128 ({precisions[128]:.4f})"
    )
    summary = " ".join(f"{k}:{precisions[k]:.4f}" for k in sorted(precisions))
    return f"rise then decline: {summary}"


@criterion("criterion 7 (determinism)")
def test_criterion_7_determinism_byte_identical_reports(pipeline, tmp_path_factory):
    second = run_benchmark_pipeline(tmp_path_factory.mktemp("acceptance") / "run2")
    first_dir, second_dir = pipeline["out_dir"], second["out_dir"]
    names = sorted(p.name for p in first_dir.iterdir())
    assert names == sorted(p.name for p in second_dir.iterdir())
    for name in names:
        a = (first_dir / name).read_bytes()
        b = (second_dir / name).read_bytes()
        assert a == b, f"report file {name} differs between identical runs"
    return f"{len(names)} report files byte-identical across reruns"


@criterion("criterion 8 (sparsity pressure)")
def test_criterion_8_sparsity_pressure(pipeline):
    bundle = pipeline["bundle"]
    norms = {}
    for l1 in (0.0, 1000.0):
        params, _ = train(bundle.x_train, TrainConfig(l1_penalty=l1))
        h = encode(params, bundle.x_test)
        norms[l1] = float(np.abs(h).sum(axis=1).mean())
    assert norms[1000.0] < norms[0.0], (
        f"mean ||h||_1 with l1=1e3 ({norms[1000.0]:.4f}) not below "
        f"l1=0 ({norms[0.0]:.4f})"
    )
    return f"mean ||h||_1 {norms[1000.0]:.4f} < {norms[0.0]:.4f}"


@criterion("criterion 9 (serialization)")
def test_criterion_9_serialization(tmp_path):
    rng = ReferenceRng(9009)
    schema = FeatureSchema()
    activations = list(Activation)
    for i in range(50):
        d = schema.dim
        k = 1 + rng.index(48)
        params = init_params(
            d, k,
            (activations[rng.index(4)], activations[rng.index(4)]),
            rng,
        )
        stats = StandardizationStats(
            mu=np.array([rng.uniform(-10, 10) for _ in range(d)]),
            sigma=np.array([rng.uniform(0.01, 5) for _ in range(d)]),
        )
        first = tmp_path / f"model_{i}_a.json"
        second = tmp_path / f"model_{i}_b.json"
        save_model(first, params, stats, schema)
        save_model(second, *load_model(first), schema)
        assert first.read_bytes() == second.read_bytes(), f"cycle {i} not byte-identical"

    good = tmp_path / "model_0_a.json"
    doc = json.loads(good.read_text())

    versioned = tmp_path / "bad_version.json"
    versioned.write_text(json.dumps({**doc, "format_version": 3}))
    with pytest.raises(ModelVersionError):
        load_model(versioned)

    truncated = tmp_path / "truncated.json"
    truncated.write_bytes(good.read_bytes()[: good.stat().st_size // 3])
    with pytest.raises(ModelFormatError):
        load_model(truncated)

    misshapen = tmp_path / "bad_shape.json"
    misshapen.write_text(json.dumps({**doc, "k": doc["k"] + 2}))
    with pytest.raises(ModelShapeError):
        load_model(misshapen)

    return "50 byte-identical save/load cycles; 3 distinct load errors"
