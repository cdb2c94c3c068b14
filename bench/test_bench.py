"""Tests of the benchmark itself: span arithmetic and tiny runs of each workload.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run

run.import_from_checkout()

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_seconds  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        Span("parent", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 4.0, 0),  # overlaps a: [1, 4] is covered once
        Span("c", 9.0, 12.0, 0),  # only [9, 10] lies inside the parent
        Span("grandchild", 1.5, 2.5, 1),
    ]
    assert self_seconds(spans) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


def test_times_are_scaled_to_the_reference_speed():
    assert speed.at_reference_speed(3.0, speed.REFERENCE_S) == pytest.approx(3.0)
    assert speed.at_reference_speed(3.0, 2 * speed.REFERENCE_S) == pytest.approx(1.5)
    assert speed.kernel(100) == speed.kernel(100)


def test_sampler_takes_its_kernel_time_out_of_the_wall_time_and_spans():
    with speed.Sampler() as sampler:
        tracer = Tracer(sampler.clock)
        with tracer.span("busy"):
            deadline = time.perf_counter() + 0.4
            while time.perf_counter() < deadline:
                pass
    inside = sampler.samples[1:-1]
    assert len(inside) >= 5
    assert sampler.wall == pytest.approx(0.4 - sum(inside), abs=0.02)
    assert tracer.spans[0].duration == pytest.approx(0.4 - sum(inside), abs=0.02)
    mean = sum(sampler.samples) / len(sampler.samples)
    assert sampler.seconds == pytest.approx(sampler.wall * speed.REFERENCE_S / mean)


def test_wrapped_calls_nest_and_count():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, count=lambda a, k, r: {"rows": r})
    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0),
    ]
    assert tracer.counters["rows"] == 5
    calls, total, own = tracer.totals()["outer"]
    inner_total = tracer.totals()["inner"][1]
    assert calls == 1
    assert own == pytest.approx(total - inner_total)


def test_traced_restores_every_binding():
    import etlwatch.cli
    import etlwatch.detector
    from etlwatch.numerics import SeededRng

    before = (etlwatch.cli.score_stream, etlwatch.detector.vectorize,
              SeededRng.shuffled_indices)
    with layers.traced(Tracer()):
        assert etlwatch.cli.score_stream is not before[0]
        assert etlwatch.detector.vectorize is not before[1]
        assert SeededRng.shuffled_indices is not before[2]
    after = (etlwatch.cli.score_stream, etlwatch.detector.vectorize,
             SeededRng.shuffled_indices)
    assert after == before


def test_declared_metrics_match_what_the_runs_report():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    declared_layers = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert declared_layers == {**layers.METRICS, "trace.overhead_frac": "frac"}
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)


class _Flaky:
    """Unit 2 raises and unit 3 changes its output; the rest pass."""

    input_events = 1

    def __init__(self) -> None:
        self.calls = 0

    def run(self, tracer=None) -> int:
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("unit failed")
        return self.calls

    def check(self, state: int):
        return {"output": "changed" if state == 3 else "same"}, []


def test_raising_units_and_changed_outputs_count_as_failed():
    units = run.run_units(_Flaky(), seconds=0.05, trace=False)
    assert len(units) > 3
    assert [u.ok for u in units[:4]] == [True, False, False, True]
    assert all(u.ok for u in units[4:])


def _tiny_run(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.TINY) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_untraced_run_passes_its_checks(capsys, monkeypatch, workload):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result = _tiny_run(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize(
    "workload, ran, idle",
    [
        ("standard", "streamgen.generate_s", "cli.detect_s"),
        ("sweep_k", "evaluation.sweep_overlap", "preprocess.parse_event_s"),
        ("detect_cli", "detector.score_stream_self_s", "numerics.shuffle_s"),
    ],
)
def test_tiny_traced_run_reports_every_layer(capsys, workload, ran, idle):
    result = _tiny_run(capsys, workload, trace=1)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(layers.METRICS) | {"trace.overhead_frac"}
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert metrics[ran]["value"] > 0
    assert metrics[idle]["value"] == 0
    if workload == "detect_cli":
        poisoned = round(workloads.TINY.detect_events * workloads.TINY.poison_frac)
        assert metrics["detector.error_records"]["value"] == poisoned
        assert metrics["detector.error_frac"]["value"] == pytest.approx(
            workloads.TINY.poison_frac
        )


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "standard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
