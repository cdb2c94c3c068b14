"""Detection metrics, sensitivity sweeps, and machine-readable reports.

AUC is the Mann-Whitney pair statistic (probability that a random anomaly
outscores a random normal, ties counted 0.5) computed from average ranks, so
it matches brute-force pair enumeration bit for bit. Accuracy, precision and
recall come from the confusion matrix at a fixed threshold; a metric whose
denominator is zero is reported as ``None``, never silently as 0 or 1.

Sweeps retrain one model per grid value from the same seed on the same data
bundle, so the knob under study is the only varying factor. Grid points are
independent, so a sweep runs them on every usable CPU as the jobs of
:func:`~etlwatch.workers.run`, longest first: in descending latent dimension
(lr points, which cost the same, keep grid order), each process taking the
next point whenever it is free. Every process uses one OpenBLAS thread, and
results are listed in grid order. Every point gives the same bits in any
process, so the reports do not depend on the CPU count. With one usable CPU,
or where numpy's OpenBLAS cannot be pinned or ``fork`` is unavailable, or in
a daemonic process, the points run serially in the calling process.
"""

from __future__ import annotations

import csv
import ctypes
import json
import os
from dataclasses import asdict, dataclass, replace
from functools import partial
from glob import glob
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autoencoder import TrainConfig, train
from .detector import batch_scores, calibrate_threshold
from .errors import (
    ContractViolationError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from .preprocess import (
    FeatureSchema,
    StandardizationStats,
    collector_paused,
    fit_stats,
    standardize,
    vectorize_events,
)
from .streamgen import LabeledEvent, LabeledStream, StreamConfig, generate
from .workers import fork_ways, run

LR_GRID = (0.0001, 0.0005, 0.001, 0.005, 0.01)
K_GRID = (4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    auc: float | None
    acc: float | None
    precision: float | None
    recall: float | None
    confusion: ConfusionCounts
    n: int
    delta_used: float


@dataclass(frozen=True)
class SweepEntry:
    knob_value: float
    report: MetricsReport | None
    diverged: bool = False
    overcomplete: bool = False


@dataclass(frozen=True)
class SweepResult:
    knob: str
    grid: tuple[float, ...]
    entries: tuple[SweepEntry, ...]
    seed: int

    def __post_init__(self) -> None:
        if len(self.grid) != len(self.entries):
            raise ContractViolationError("grid and entries must have equal length")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks: sorted position p ranks p + 1, and a run of equal sorted
    values at i..j ranks 0.5 * ((i + 1) + (j + 1)). NaN equals nothing, so it
    ranks alone. Only the runs get work arrays, so few ties cost little memory.
    """
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    tied = np.zeros(ordered.shape[0] + 1, dtype=bool)  # tied[p]: sorted p-1 == sorted p
    np.equal(ordered[1:], ordered[:-1], out=tied[1:-1])
    del ordered
    edges = np.flatnonzero(tied[1:] != tied[:-1])  # each run's first, then last position
    first, last = edges[0::2], edges[1::2]
    sorted_ranks = np.arange(1.0, tied.shape[0])
    run_ranks = 0.5 * ((first + 1) + (last + 1))
    sorted_ranks[tied[1:] | tied[:-1]] = np.repeat(run_ranks, last - first + 1)
    ranks = np.empty_like(sorted_ranks)
    ranks[order] = sorted_ranks
    return ranks


def auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Probability that a random anomaly outscores a random normal."""
    scores_arr = np.asarray(scores, dtype=np.float64)
    labels_arr = np.asarray(labels, dtype=bool)
    if scores_arr.shape != labels_arr.shape or scores_arr.ndim != 1:
        raise ContractViolationError(
            f"scores and labels must be equal-length 1-D sequences, "
            f"got {scores_arr.shape} and {labels_arr.shape}"
        )
    n_pos = int(labels_arr.sum())
    n_neg = labels_arr.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    ranks = _average_ranks(scores_arr)
    u = ranks[labels_arr].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def metrics_at_threshold(
    scores: Sequence[float], labels: Sequence[bool], delta: float
) -> MetricsReport:
    """Confusion counts and derived metrics with predicted-anomaly iff score > delta."""
    scores_arr = np.asarray(scores, dtype=np.float64)
    labels_arr = np.asarray(labels, dtype=bool)
    area = auc(scores_arr, labels_arr)  # checks the shapes and that both classes are present
    predicted = scores_arr > delta
    confusion = ConfusionCounts(
        tp=int(np.sum(predicted & labels_arr)),
        fp=int(np.sum(predicted & ~labels_arr)),
        tn=int(np.sum(~predicted & ~labels_arr)),
        fn=int(np.sum(~predicted & labels_arr)),
    )
    n = confusion.n
    precision = (
        confusion.tp / (confusion.tp + confusion.fp)
        if confusion.tp + confusion.fp > 0
        else None
    )
    recall = (
        confusion.tp / (confusion.tp + confusion.fn)
        if confusion.tp + confusion.fn > 0
        else None
    )
    return MetricsReport(
        auc=area,
        acc=(confusion.tp + confusion.tn) / n,
        precision=precision,
        recall=recall,
        confusion=confusion,
        n=n,
        delta_used=float(delta),
    )


# --- data bundle ------------------------------------------------------------

@dataclass(frozen=True)
class DataBundle:
    """Standardized train/validation/test splits of a labeled stream.

    Training rows are normal events only; validation rows keep only normals
    (they calibrate the threshold); the test split keeps everything together
    with its labels. Standardization stats are fit on the training normals
    and frozen for the other splits.
    """

    x_train: np.ndarray
    x_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    stats: StandardizationStats
    schema: FeatureSchema


@collector_paused()
def make_bundle(events: Sequence[LabeledEvent]) -> DataBundle:
    """Split a labeled stream 60/20/20 in stream order and standardize it.

    The stream is worked on as columns: a :class:`LabeledStream` as it is,
    any other sequence of labeled events gathered into one first
    (:meth:`LabeledStream.from_events`). Each split's events are selected
    from the stream's columns in one pass
    (:meth:`~etlwatch.preprocess.EventBatch.where`).
    """
    stream = LabeledStream.from_events(events)
    schema = FeatureSchema()
    n = len(stream)
    n_train = int(n * 0.6)
    n_val = int(n * 0.2)
    normal = [not label for label in stream.labels]
    train_part = stream.events.where(normal[:n_train])
    val_part = stream.events.where(normal[n_train : n_train + n_val], n_train)
    test_part = stream.events[n_train + n_val :]
    if len(train_part) < 2 or not val_part or not test_part:
        raise ContractViolationError("stream is too small to split into three parts")

    x_train = vectorize_events(train_part, schema)
    stats = fit_stats(x_train)
    x_train = standardize(x_train, stats)  # the raw rows are dropped here
    x_val = standardize(vectorize_events(val_part, schema), stats)
    x_test = standardize(vectorize_events(test_part, schema), stats)
    y_test = np.array(stream.labels[n_train + n_val :], dtype=bool)
    return DataBundle(
        x_train=x_train, x_val=x_val, x_test=x_test, y_test=y_test,
        stats=stats, schema=schema,
    )


def standard_benchmark(seed: int = 7, n_events: int = 10_000) -> DataBundle:
    """The default synthetic benchmark: 10k events, 5% anomalies, equal mix."""
    cfg = StreamConfig(n_events=n_events, anomaly_rate=0.05, seed=seed)
    return make_bundle(generate(cfg))


# Quantile of the validation normals' scores that sets delta; also the
# default of ``detect --quantile``.
DELTA_QUANTILE = 0.95

# sweep knob -> the TrainConfig field its grid values set
_KNOB_FIELDS = {"lr": "learning_rate", "k": "latent_dim"}


def evaluate_config(bundle: DataBundle, cfg: TrainConfig) -> MetricsReport:
    """Train on the bundle, calibrate delta on validation normals, score test.

    The training history, which holds a copy of the parameters per epoch and
    one of ``x_train``, is dropped before anything is scored.
    """
    params = train(bundle.x_train, cfg)[0]
    delta = calibrate_threshold(batch_scores(params, bundle.x_val), DELTA_QUANTILE)
    test_scores = batch_scores(params, bundle.x_test)
    return metrics_at_threshold(test_scores, bundle.y_test, delta)


def _point(bundle: DataBundle, cfg: TrainConfig) -> tuple[MetricsReport | None, bool]:
    """One grid point on ``bundle``: its report, or None and True if it diverged.

    ``evaluate_config`` is looked up at call time, so a wrapper bound to the
    module name is the one called.
    """
    try:
        return evaluate_config(bundle, cfg), False
    except TrainingDivergedError:
        return None, True


def _openblas(name: str, restype, *argtypes):
    """The function ``scipy_openblas_<name>64_`` of numpy's bundled OpenBLAS,
    or None where numpy was built without one that has it."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob(os.path.join(libs, "*openblas*")):
        function = getattr(ctypes.CDLL(path), f"scipy_openblas_{name}64_", None)
        if function is not None:
            function.argtypes, function.restype = list(argtypes), restype
            return function
    return None


def _openblas_threads():
    """Get and set functions for the thread count of numpy's bundled OpenBLAS,
    or None where numpy was built without one that can be asked."""
    get = _openblas("get_num_threads", ctypes.c_int)
    set_ = _openblas("set_num_threads", None, ctypes.c_int)
    return None if get is None or set_ is None else (get, set_)


def blas_kernel() -> str | None:
    """The kernel numpy's bundled OpenBLAS chose for this CPU, such as
    ``SkylakeX``, or None where numpy was built without one that can be asked."""
    corename = _openblas("get_corename", ctypes.c_char_p)
    return None if corename is None else corename().decode()


def _run_points(
    bundle: DataBundle, cfgs: list[TrainConfig]
) -> list[tuple[MetricsReport | None, bool]]:
    """``_point`` of every config on ``bundle``, in order, on every usable CPU.

    With ``ways`` usable processes (:func:`fork_ways`) the points run longest
    first (stable, so points of one latent dimension keep their order) as
    :func:`run`'s jobs: workers start on the first points and the caller on
    the next, and then each process takes the next point left whenever it is
    free. Every process uses one OpenBLAS thread, since two processes of two
    threads each on two cores run slower than one; the caller gets its own
    count back afterwards.
    """
    ways = fork_ways(len(cfgs))
    blas = _openblas_threads() if ways > 1 else None
    if blas is None:
        return [_point(bundle, cfg) for cfg in cfgs]
    get_threads, set_threads = blas
    threads = get_threads()
    order = sorted(range(len(cfgs)), key=lambda i: -cfgs[i].latent_dim)
    try:
        set_threads(1)  # forked workers inherit the count
        done = run([partial(_point, bundle, cfgs[i]) for i in order], "a sweep process", "points")
    finally:
        set_threads(threads)
    return [done[order.index(i)] for i in range(len(cfgs))]


def sweep(
    knob: str,
    base_cfg: TrainConfig,
    grid: Sequence[float],
    bundle: DataBundle,
    seed: int,
) -> SweepResult:
    """Retrain once per grid value of ``knob`` on identical data and seed.

    ``knob`` is ``"lr"`` (learning rate) or ``"k"`` (latent dimension); the
    grid must be non-empty and strictly ascending. A point whose latent
    dimension exceeds the input dimension is flagged overcomplete, and one
    whose training diverges is kept as a diverged entry without a report.
    """
    if knob not in _KNOB_FIELDS:
        raise ContractViolationError(f"unknown sweep knob {knob!r}")
    if not grid:
        raise ContractViolationError("sweep grid must be non-empty")
    if not all(a < b for a, b in zip(grid, grid[1:])):
        raise ContractViolationError(f"{knob} grid must be strictly ascending")
    cfgs = [replace(base_cfg, seed=seed, **{_KNOB_FIELDS[knob]: value}) for value in grid]
    entries = tuple(
        SweepEntry(value, report, diverged, cfg.latent_dim > bundle.x_train.shape[1])
        for value, cfg, (report, diverged) in zip(grid, cfgs, _run_points(bundle, cfgs))
    )
    return SweepResult(
        knob=knob, grid=tuple(float(v) for v in grid), entries=entries, seed=seed
    )


def sweep_latent_dim(
    base_cfg: TrainConfig, grid: Sequence[int], bundle: DataBundle, seed: int
) -> SweepResult:
    """``sweep("k", ...)``; the benchmark calls the k sweep, and traces it, by this name."""
    return sweep("k", base_cfg, grid, bundle, seed)


# --- report files -------------------------------------------------------------

# CSV columns of a MetricsReport: the fields of metrics_to_dict in order,
# with the confusion counts lifted to the top level. A sweep CSV row keeps
# the first _RATES of them, after the knob value.
_METRIC_COLUMNS = ("auc", "acc", "precision", "recall", "tp", "fp", "tn", "fn", "n", "delta_used")
_RATES = 4


def _cell(value: object) -> str:
    return "" if value is None else repr(value)


def _metric_cells(report: MetricsReport | None) -> list[str]:
    """A report's CSV cells, one per _METRIC_COLUMNS; blanks when there is none."""
    if report is None:
        return [""] * len(_METRIC_COLUMNS)
    fields = metrics_to_dict(report)
    fields.update(fields.pop("confusion"))
    return [_cell(fields[name]) for name in _METRIC_COLUMNS]


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _check_format(fmt: str) -> None:
    if fmt not in ("csv", "json"):
        raise ContractViolationError(f"format must be 'csv' or 'json', got {fmt!r}")


def emit_report(result: SweepResult, path: str | Path, fmt: str = "csv") -> None:
    """Write a sweep report; CSV for plotting, JSON with full confusion counts."""
    _check_format(fmt)
    if not result.entries:
        raise ContractViolationError("refusing to emit a report for an empty grid")
    if fmt == "csv":
        _write_csv(
            path,
            ["knob_value", *_METRIC_COLUMNS[:_RATES]],
            ([_cell(e.knob_value), *_metric_cells(e.report)[:_RATES]] for e in result.entries),
        )
        return
    _write_json(path, {
        "knob": result.knob,
        "seed": result.seed,
        "grid": list(result.grid),
        "entries": [
            {
                "knob_value": entry.knob_value,
                "diverged": entry.diverged,
                "overcomplete": entry.overcomplete,
                "report": None if entry.report is None else metrics_to_dict(entry.report),
            }
            for entry in result.entries
        ],
    })


def write_metrics_report(report: MetricsReport, path: str | Path, fmt: str) -> None:
    """Write one report: CSV with every field in one row, or its JSON mapping."""
    _check_format(fmt)
    if fmt == "csv":
        _write_csv(path, _METRIC_COLUMNS, [_metric_cells(report)])
    else:
        _write_json(path, metrics_to_dict(report))


def report_filename(knob: str, seed: int, fmt: str) -> str:
    return f"sweep_{knob}_{seed}.{fmt}"


def metrics_to_dict(report: MetricsReport) -> dict:
    return asdict(report)
