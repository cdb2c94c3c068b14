"""The three workloads: inputs built untimed, one timed unit, its checks.

Each workload is built from a seed and a :class:`Sizes`. ``run`` is the
timed unit; it calls etlwatch through module attributes (``autoencoder.train``
and so on), so the traced run sees every call. ``check`` runs after the
timer stops and returns digests of the unit's primary outputs, for the
byte-identity check across repeats, together with any failed guard.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy.stats import mannwhitneyu

import etlwatch
from etlwatch import autoencoder, cli, detector, evaluation, streamgen
from etlwatch.autoencoder import TrainConfig
from etlwatch.evaluation import K_GRID, metrics_to_dict
from etlwatch.streamgen import StreamConfig

from spans import Tracer

ANOMALY_RATE = 0.05
QUANTILE = 0.95
UNKNOWN_DEVICE = "mainframe"

# RESULTS.md, standard synthetic benchmark at seed 7.
RESULTS_SEED = 7
RESULTS_STANDARD = {
    "auc": 0.9407, "recall": 0.8333, "delta": 0.7162,
    "confusion": (85, 107, 1791, 17),
}
RESULTS_PRECISION_BY_K = {
    4: 0.4148, 8: 0.4530, 16: 0.4450, 32: 0.4427, 64: 0.4556, 128: 0.4350,
}


@dataclass(frozen=True)
class Sizes:
    events: int = 10_000  # standard stream, and the stream detect_cli trains on
    epochs: int = 50
    k_grid: tuple[int, ...] = K_GRID
    detect_events: int = 50_000
    poison_frac: float = 0.01


FULL = Sizes()
TINY = Sizes(events=800, epochs=2, k_grid=(4, 8), detect_events=1_000)


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this etlwatch."""
    paths = [str(Path(etlwatch.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _round4(value: float | None) -> float | None:
    return None if value is None else round(value, 4)


def _report_problems(report, scores, labels, delta: float) -> list[str]:
    """Check a MetricsReport against an independent recount of its inputs."""
    scores = np.asarray(scores)
    labels = np.asarray(labels, dtype=bool)
    flagged = scores > delta
    confusion = (
        int(np.sum(flagged & labels)), int(np.sum(flagged & ~labels)),
        int(np.sum(~flagged & ~labels)), int(np.sum(~flagged & labels)),
    )
    got = report.confusion
    problems = []
    if (got.tp, got.fp, got.tn, got.fn) != confusion or report.n != len(labels):
        problems.append(f"confusion {got} (n={report.n}) != recount {confusion}")
    u = mannwhitneyu(scores[labels], scores[~labels], method="asymptotic").statistic
    oracle = u / (labels.sum() * (~labels).sum())
    if abs(report.auc - oracle) > 1e-12:
        problems.append(f"auc {report.auc!r} != Mann-Whitney {oracle!r}")
    return problems


class Standard:
    """The README library path: generate, bundle, train, calibrate, score."""

    name = "standard"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.input_events = sizes.events
        self.model_path = workdir / "standard.model.json"

    def run(self, tracer: Tracer | None = None):
        cfg = StreamConfig(
            n_events=self.sizes.events, anomaly_rate=ANOMALY_RATE, seed=self.seed
        )
        bundle = evaluation.make_bundle(streamgen.generate(cfg))
        params, _ = autoencoder.train(
            bundle.x_train, TrainConfig(epochs=self.sizes.epochs, seed=self.seed)
        )
        delta = detector.calibrate_threshold(
            detector.batch_scores(params, bundle.x_val), QUANTILE
        )
        test_scores = detector.batch_scores(params, bundle.x_test)
        report = evaluation.metrics_at_threshold(test_scores, bundle.y_test, delta)
        autoencoder.save_model(self.model_path, params, bundle.stats, bundle.schema)
        return report, test_scores, bundle.y_test

    def check(self, state) -> tuple[dict[str, str], list[str]]:
        report, test_scores, y_test = state
        primary = {
            "report": json.dumps(metrics_to_dict(report)),
            "model": _digest(self.model_path),
        }
        problems = _report_problems(report, test_scores, y_test, report.delta_used)
        if self.seed == RESULTS_SEED and self.sizes == FULL:
            c = report.confusion
            got = {
                "auc": _round4(report.auc), "recall": _round4(report.recall),
                "delta": _round4(report.delta_used),
                "confusion": (c.tp, c.fp, c.tn, c.fn),
            }
            if got != RESULTS_STANDARD:
                problems.append(f"RESULTS.md mismatch: {got} != {RESULTS_STANDARD}")
        return primary, problems


class SweepK:
    """``sweep_latent_dim`` over the k grid on the standard bundle."""

    name = "sweep_k"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.input_events = sizes.events
        self.bundle = evaluation.standard_benchmark(seed=seed, n_events=sizes.events)
        self.report_path = workdir / "sweep_k.json"

    def run(self, tracer: Tracer | None = None):
        return evaluation.sweep_latent_dim(
            TrainConfig(epochs=self.sizes.epochs), self.sizes.k_grid, self.bundle, self.seed
        )

    def check(self, result) -> tuple[dict[str, str], list[str]]:
        evaluation.emit_report(result, self.report_path, "json")
        primary = {"report": _digest(self.report_path)}
        problems = []
        n_test = len(self.bundle.y_test)
        for entry in result.entries:
            if entry.diverged:
                problems.append(f"k={entry.knob_value:g} diverged")
            elif entry.report.confusion.n != n_test:
                problems.append(f"k={entry.knob_value:g} scored {entry.report.n} of {n_test}")
        if self.seed == RESULTS_SEED and self.sizes == FULL:
            got = {
                int(e.knob_value): _round4(e.report and e.report.precision)
                for e in result.entries
            }
            if got != RESULTS_PRECISION_BY_K:
                problems.append(f"RESULTS.md mismatch: {got} != {RESULTS_PRECISION_BY_K}")
        return primary, problems


def _write_detect_inputs(seed: int, sizes: Sizes, workdir: Path) -> tuple[int, set[str]]:
    """Train and save the model and write the calibration and scored streams.

    Returns the number of scored lines and the ids of the poisoned ones.
    """
    labeled = streamgen.generate(
        StreamConfig(n_events=sizes.events, anomaly_rate=ANOMALY_RATE, seed=seed)
    )
    bundle = evaluation.make_bundle(labeled)
    params, _ = autoencoder.train(bundle.x_train, TrainConfig(epochs=sizes.epochs, seed=seed))
    autoencoder.save_model(workdir / "model.json", params, bundle.stats, bundle.schema)
    n_train, n_val = int(len(labeled) * 0.6), int(len(labeled) * 0.2)  # as make_bundle
    streamgen.write_labeled_events(
        labeled[n_train : n_train + n_val], workdir / "calibrate.jsonl"
    )

    stream = streamgen.generate(
        StreamConfig(n_events=sizes.detect_events, anomaly_rate=ANOMALY_RATE, seed=seed + 1)
    )
    n_poison = round(len(stream) * sizes.poison_frac)
    poisoned = random.Random(seed).sample(range(len(stream)), n_poison)
    for i in poisoned:
        event = replace(stream[i].event, device_type=UNKNOWN_DEVICE)
        stream[i] = replace(stream[i], event=event)
    streamgen.write_labeled_events(stream, workdir / "stream.jsonl")
    return len(stream), {stream[i].event.event_id for i in poisoned}


class DetectCli:
    """In-process ``etlwatch detect --calibrate`` then ``etlwatch evaluate``.

    The model is trained on its own stream and the scored stream is a
    separate one, with a share of its lines given an unknown device type
    so that they must come back as in-stream error records. A child
    interpreter writes these inputs, so that this process's peak memory is
    that of the timed unit rather than of building its inputs.
    """

    name = "detect_cli"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.workdir = workdir
        child = subprocess.run(
            [sys.executable, __file__, str(seed), str(workdir), json.dumps(asdict(sizes))],
            env=child_env(), stdout=subprocess.PIPE, text=True, check=True, timeout=170,
        )
        self.input_events, poisoned = json.loads(child.stdout)
        self.poisoned_ids = set(poisoned)

    def run(self, tracer: Tracer | None = None) -> None:
        w = self.workdir
        detect = [
            "detect", str(w / "stream.jsonl"), "--model", str(w / "model.json"),
            "--calibrate", str(w / "calibrate.jsonl"), "--quantile", str(QUANTILE),
            "--out", str(w / "detections.jsonl"),
        ]
        evaluate = ["evaluate", str(w / "detections.jsonl"), "--out", str(w / "report.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("cli.detect") if tracer else contextlib.nullcontext():
                cli.main(detect, standalone_mode=False)
            with tracer.span("cli.evaluate") if tracer else contextlib.nullcontext():
                cli.main(evaluate, standalone_mode=False)

    def check(self, state: None) -> tuple[dict[str, str], list[str]]:
        names = ("detections.jsonl", "detections.csv", "report.json")
        primary = {name: _digest(self.workdir / name) for name in names}
        lines = 0
        error_ids = set()
        with open(self.workdir / "detections.jsonl", encoding="utf-8") as fh:
            for line in fh:
                lines += 1
                record = json.loads(line)
                if "error" in record:
                    error_ids.add(record["event_id"])
        report = json.loads((self.workdir / "report.json").read_text(encoding="utf-8"))
        confusion_sum = sum(report["confusion"].values())
        scored = lines - len(error_ids)
        problems = []
        if lines != self.input_events:
            problems.append(f"{lines} detection records for {self.input_events} lines")
        if error_ids != self.poisoned_ids:
            problems.append(
                f"{len(error_ids)} error records for {len(self.poisoned_ids)} poisoned lines"
            )
        if confusion_sum != scored or report["n"] != scored:
            problems.append(
                f"confusion sums to {confusion_sum}, n={report['n']}, scored rows {scored}"
            )
        return primary, problems


WORKLOADS = {w.name: w for w in (Standard, SweepK, DetectCli)}


if __name__ == "__main__":
    # python3 bench/workloads.py SEED WORKDIR SIZES_JSON writes detect_cli's inputs
    lines, poisoned = _write_detect_inputs(
        int(sys.argv[1]), Sizes(**json.loads(sys.argv[3])), Path(sys.argv[2])
    )
    print(json.dumps([lines, sorted(poisoned)]))
