import csv
import json
import math
import multiprocessing
import os
import pickle
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etlwatch.autoencoder import TrainConfig
from etlwatch import evaluation
from etlwatch.errors import (
    ContractViolationError,
    EncodingError,
    EtlwatchError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from etlwatch.evaluation import (
    ConfusionCounts,
    DataBundle,
    MetricsReport,
    SweepEntry,
    SweepResult,
    _average_ranks,
    auc,
    emit_report,
    make_bundle,
    metrics_at_threshold,
    report_filename,
    sweep,
    sweep_latent_dim,
    write_metrics_report,
)
from etlwatch.streamgen import StreamConfig, generate
from reference import average_ranks


def brute_force_auc(scores, labels):
    """Independent oracle: enumerate every positive-negative pair."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_worked_example(self):
        # pairs: 0.35>0.1, 0.35<0.4, 0.8>0.1, 0.8>0.4 -> 3 of 4
        assert auc([0.1, 0.4, 0.35, 0.8], [False, False, True, True]) == 0.75

    def test_perfect_separation(self):
        assert auc([1.0, 2.0, 10.0, 11.0], [False, False, True, True]) == 1.0

    def test_constant_scores_give_half(self):
        assert auc([3.0, 3.0, 3.0, 3.0], [False, True, False, True]) == 0.5

    def test_single_class_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc([1.0, 2.0], [True, True])

    def test_length_mismatch(self):
        with pytest.raises(ContractViolationError):
            auc([1.0, 2.0], [True])

    @given(st.randoms(use_true_random=False), st.integers(min_value=2, max_value=12))
    @settings(max_examples=150)
    def test_matches_brute_force_exactly(self, rnd, n):
        # small grid of score values forces plenty of ties
        scores = [rnd.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
        labels = [rnd.random() < 0.5 for _ in range(n)]
        if all(labels) or not any(labels):
            labels[0] = not labels[0]
        assert auc(scores, labels) == brute_force_auc(scores, labels)

    @given(st.randoms(use_true_random=False), st.integers(min_value=2, max_value=40))
    @settings(max_examples=60)
    def test_invariant_under_strictly_increasing_transform(self, rnd, n):
        scores = [float(rnd.randrange(-100, 101)) for _ in range(n)]
        labels = [rnd.random() < 0.5 for _ in range(n)]
        if all(labels) or not any(labels):
            labels[0] = not labels[0]
        transformed = [s**3 + 2.0 * s for s in scores]  # strictly increasing, tie-preserving
        assert auc(scores, labels) == auc(transformed, labels)

    @given(st.randoms(use_true_random=False), st.integers(min_value=2, max_value=30))
    @settings(max_examples=60)
    def test_negation_complement(self, rnd, n):
        scores = rnd.sample(range(1000), n)  # tie-free
        labels = [rnd.random() < 0.5 for _ in range(n)]
        if all(labels) or not any(labels):
            labels[0] = not labels[0]
        forward = auc([float(s) for s in scores], labels)
        backward = auc([-float(s) for s in scores], labels)
        assert forward + backward == pytest.approx(1.0, abs=1e-12)


class TestAverageRanks:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan]),
                st.floats(),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_matches_the_tie_group_loop_bit_for_bit(self, values):
        values = np.array(values, dtype=np.float64)
        assert _average_ranks(values).tobytes() == average_ranks(values).tobytes()

    def test_each_nan_ranks_alone(self):
        values = np.array([math.nan, 1.0, math.nan, 1.0])
        np.testing.assert_array_equal(_average_ranks(values), [3.0, 1.5, 4.0, 1.5])


class TestMetricsAtThreshold:
    def test_delta_below_all_scores_gives_recall_one(self):
        report = metrics_at_threshold([1.0, 2.0, 3.0], [False, True, True], 0.5)
        assert report.recall == 1.0

    def test_delta_above_all_scores_gives_undefined_precision(self):
        report = metrics_at_threshold([1.0, 2.0, 3.0], [False, True, True], 10.0)
        assert report.confusion.tp == 0 and report.confusion.fp == 0
        assert report.precision is None
        assert report.recall == 0.0

    def test_hand_confusion_table(self):
        report = metrics_at_threshold(
            [1.0, 2.0, 3.0, 4.0], [False, False, True, True], 2.5
        )
        assert (report.confusion.tp, report.confusion.fp) == (2, 0)
        assert (report.confusion.tn, report.confusion.fn) == (2, 0)
        assert report.acc == 1.0
        assert report.delta_used == 2.5

    def test_a_score_equal_to_delta_is_not_flagged(self):
        # flagged means score > delta: the normal and the anomaly at 2.0 are not
        report = metrics_at_threshold([1.0, 2.0, 2.0, 3.0], [False, False, True, True], 2.0)
        assert (report.confusion.tp, report.confusion.fp) == (1, 0)
        assert (report.confusion.tn, report.confusion.fn) == (2, 1)

    @given(st.randoms(use_true_random=False), st.integers(min_value=4, max_value=40))
    @settings(max_examples=60)
    def test_metric_identities(self, rnd, n):
        scores = [rnd.uniform(0, 10) for _ in range(n)]
        labels = [rnd.random() < 0.4 for _ in range(n)]
        if all(labels) or not any(labels):
            labels[0] = not labels[0]
        report = metrics_at_threshold(scores, labels, rnd.uniform(0, 10))
        c = report.confusion
        assert c.tp + c.fp + c.tn + c.fn == report.n == n
        assert report.acc == (c.tp + c.tn) / n
        if c.tp + c.fp > 0:
            assert report.precision == c.tp / (c.tp + c.fp)
        else:
            assert report.precision is None
        if c.tp + c.fn > 0:
            assert report.recall == c.tp / (c.tp + c.fn)


@pytest.fixture(scope="module")
def small_bundle():
    return make_bundle(generate(StreamConfig(n_events=1500, seed=13)))


class TestBundle:
    def test_split_sizes_and_training_purity(self, small_bundle):
        events = generate(StreamConfig(n_events=1500, seed=13))
        n_train_normals = sum(1 for e in events[:900] if not e.label)
        assert small_bundle.x_train.shape == (n_train_normals, 16)
        assert small_bundle.x_test.shape[0] == 300
        assert small_bundle.y_test.dtype == bool

    def test_training_columns_are_standardized(self, small_bundle):
        means = small_bundle.x_train.mean(axis=0)
        assert np.max(np.abs(means)) < 1e-9

    def test_too_small_stream_rejected(self):
        with pytest.raises(ContractViolationError):
            make_bundle(generate(StreamConfig(n_events=3, seed=1)))


FAST = TrainConfig(epochs=3, batch_size=64, latent_dim=8)


def test_trained_model_separates_class_means(small_bundle):
    # anomalies must reconstruct worse than held-out normals on average
    from etlwatch.autoencoder import train
    from etlwatch.detector import batch_scores

    params, _ = train(small_bundle.x_train, TrainConfig(epochs=10, latent_dim=8))
    scores = batch_scores(params, small_bundle.x_test)
    assert scores[small_bundle.y_test].mean() > scores[~small_bundle.y_test].mean()


def test_the_training_history_is_gone_before_anything_is_scored(small_bundle, monkeypatch):
    # it holds a copy of the parameters per epoch and one of x_train
    train, batch_scores, histories, alive = evaluation.train, evaluation.batch_scores, [], []

    def watched_train(x, cfg):
        params, history = train(x, cfg)
        histories.append(weakref.ref(history))
        return params, history

    def watched_scores(params, x):
        alive.append(histories[0]() is not None)
        return batch_scores(params, x)

    monkeypatch.setattr(evaluation, "train", watched_train)
    monkeypatch.setattr(evaluation, "batch_scores", watched_scores)
    evaluation.evaluate_config(small_bundle, FAST)
    assert alive == [False, False]


class TestSweeps:
    def test_grid_of_one(self, small_bundle):
        result = sweep("lr", FAST, [0.001], small_bundle, seed=3)
        assert result.knob == "lr"
        assert len(result.entries) == 1
        assert result.entries[0].report is not None

    def test_deterministic(self, small_bundle):
        a = sweep("lr", FAST, [0.0005, 0.001], small_bundle, seed=3)
        b = sweep("lr", FAST, [0.0005, 0.001], small_bundle, seed=3)
        assert a == b

    def test_latent_sweep_flags_overcomplete(self, small_bundle):
        result = sweep_latent_dim(FAST, [4, 32], small_bundle, seed=3)
        assert result == sweep("k", FAST, [4, 32], small_bundle, seed=3)
        assert [e.overcomplete for e in result.entries] == [False, True]

    def test_empty_grid_rejected(self, small_bundle):
        for knob in ("lr", "k"):
            with pytest.raises(ContractViolationError, match="non-empty"):
                sweep(knob, FAST, [], small_bundle, seed=3)

    def test_unsorted_lr_grid_rejected(self, small_bundle):
        with pytest.raises(ContractViolationError, match="strictly ascending"):
            sweep("lr", FAST, [0.01, 0.001], small_bundle, seed=3)

    def test_unsorted_k_grid_rejected(self, small_bundle):
        with pytest.raises(ContractViolationError, match="strictly ascending"):
            sweep("k", FAST, [8, 4], small_bundle, seed=3)

    def test_repeated_grid_value_rejected(self, small_bundle):
        for knob, grid in (("k", [4, 4]), ("lr", [0.001, 0.01, 0.01])):
            with pytest.raises(ContractViolationError, match="strictly ascending"):
                sweep(knob, FAST, grid, small_bundle, seed=3)

    def test_unknown_knob_rejected(self, small_bundle):
        with pytest.raises(ContractViolationError, match="knob"):
            sweep("epochs", FAST, [1, 2], small_bundle, seed=3)


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(evaluation.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.skipif(
    evaluation._openblas_threads() is None
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="the sweep pool needs fork and numpy's OpenBLAS",
)
class TestSweepPool:
    """Three CPUs are claimed, so two forked workers start on the two
    longest points, the caller on the third, and the three share the rest,
    whatever the host has."""

    @pytest.mark.parametrize("knob, grid", [("lr", [0.0005, 0.001, 0.005, 0.01]),
                                            ("k", [4, 8, 16, 32])])
    def test_same_result_as_serial(self, monkeypatch, small_bundle, knob, grid):
        use_cpus(monkeypatch, 3)
        pooled = sweep(knob, FAST, grid, small_bundle, seed=3)
        use_cpus(monkeypatch, 1)
        assert pooled == sweep(knob, FAST, grid, small_bundle, seed=3)

    def test_diverged_point_in_a_worker_keeps_its_position(self, monkeypatch, small_bundle):
        caller, evaluate_config = os.getpid(), evaluation.evaluate_config

        def diverges_in_a_worker(bundle, cfg):
            if cfg.latent_dim == 16:  # the second longest point: a worker starts on it
                assert os.getpid() != caller
                raise TrainingDivergedError(1, cfg.learning_rate)
            return evaluate_config(bundle, cfg)

        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(evaluation, "evaluate_config", diverges_in_a_worker)
        result = sweep("k", FAST, [4, 8, 16, 32], small_bundle, seed=3)
        assert [e.diverged for e in result.entries] == [False, False, True, False]
        assert [e.report is None for e in result.entries] == [False, False, True, False]

    def test_each_point_runs_once_longest_first_and_comes_back_in_grid_order(
        self, monkeypatch, small_bundle
    ):
        # more processes than the host has cores, all taking from one queue
        started = multiprocessing.get_context("fork").SimpleQueue()  # put writes at once
        evaluate_config = evaluation.evaluate_config

        def logged(bundle, cfg):
            started.put((cfg.latent_dim, os.getpid()))
            return evaluate_config(bundle, cfg)

        use_cpus(monkeypatch, 6)
        monkeypatch.setattr(evaluation, "evaluate_config", logged)
        grid = [4, 6, 8, 10, 12, 14, 16, 20, 24, 32]
        result = sweep("k", FAST, grid, small_bundle, seed=3)
        runs = []
        while not started.empty():
            runs.append(started.get())
        assert sorted(k for k, _ in runs) == grid  # none skipped, none run twice
        by_process = {}
        for k, pid in runs:
            by_process.setdefault(pid, []).append(k)
        assert all(ks == sorted(ks, reverse=True) for ks in by_process.values())
        assert [e.knob_value for e in result.entries] == grid
        use_cpus(monkeypatch, 1)
        monkeypatch.setattr(evaluation, "evaluate_config", evaluate_config)
        assert result == sweep("k", FAST, grid, small_bundle, seed=3)

    def test_worker_error_reaches_the_caller_with_its_type(self, monkeypatch, small_bundle):
        caller, evaluate_config = os.getpid(), evaluation.evaluate_config

        def fails_in_a_worker(bundle, cfg):
            if os.getpid() != caller:
                raise UndefinedMetricError(f"worker failed at k={cfg.latent_dim}")
            return evaluate_config(bundle, cfg)

        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(evaluation, "evaluate_config", fails_in_a_worker)
        with pytest.raises(UndefinedMetricError, match="worker failed at k=8"):
            sweep("k", FAST, [4, 8], small_bundle, seed=3)

    @pytest.mark.parametrize(
        "error",
        [EncodingError("device_type", "x"), TrainingDivergedError(2, 0.5), UndefinedMetricError("m")],
    )
    def test_errors_survive_the_trip_back_from_a_worker(self, error):
        # a worker's error that cannot be unpickled stops the pool's result
        # thread, and the caller then waits for the result for ever
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert (str(back), vars(back)) == (str(error), vars(error))

    def test_points_run_on_one_blas_thread_and_the_caller_gets_its_count_back(
        self, monkeypatch, small_bundle
    ):
        get_threads, set_threads = evaluation._openblas_threads()
        before, evaluate_config = get_threads(), evaluation.evaluate_config

        def one_thread(bundle, cfg):
            if get_threads() != 1:
                raise UndefinedMetricError(f"k={cfg.latent_dim} ran on {get_threads()} threads")
            return evaluate_config(bundle, cfg)

        def fails(bundle, cfg):
            raise UndefinedMetricError("point failed")

        use_cpus(monkeypatch, 3)
        try:
            set_threads(3)
            monkeypatch.setattr(evaluation, "evaluate_config", one_thread)
            sweep("k", FAST, [4, 8, 16, 32], small_bundle, seed=3)
            assert get_threads() == 3
            monkeypatch.setattr(evaluation, "evaluate_config", fails)
            with pytest.raises(UndefinedMetricError):
                sweep("k", FAST, [4, 8], small_bundle, seed=3)
            assert get_threads() == 3
        finally:
            set_threads(before)

    def test_a_k_sweep_on_two_cpus_starts_one_process(self, monkeypatch, small_bundle, tmp_path):
        caller = os.getpid()
        log, start = tmp_path / "started", multiprocessing.process.BaseProcess.start

        def logged_start(process):
            with open(log, "a") as fh:  # one line a process, from any process
                fh.write(f"{os.getpid()}\n")
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", logged_start)
        use_cpus(monkeypatch, 2)
        result = sweep("k", FAST, [4, 8], small_bundle, seed=3)
        assert log.read_text() == f"{caller}\n"  # ways - 1 = 1, by the caller
        assert not multiprocessing.active_children()
        use_cpus(monkeypatch, 1)
        assert result == sweep("k", FAST, [4, 8], small_bundle, seed=3)

    def test_daemonic_caller_runs_serially(self, monkeypatch, small_bundle):
        use_cpus(monkeypatch, 1)
        serial = sweep("k", FAST, [4, 8], small_bundle, seed=3)
        use_cpus(monkeypatch, 3)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def run():
            try:
                send.send(sweep("k", FAST, [4, 8], small_bundle, seed=3))
            except Exception as exc:  # a pool in a daemon raises here
                send.send(repr(exc))

        daemon = ctx.Process(target=run, daemon=True)
        daemon.start()
        assert receive.poll(120), "the daemonic sweep sent nothing"
        got = receive.recv()
        daemon.join(10)
        assert not daemon.is_alive()
        assert got == serial


@pytest.mark.skipif(
    evaluation._openblas_threads() is None
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="the sweep's workers need fork and numpy's OpenBLAS",
)
class TestSweepProcesses:
    """A worker's death or exception, and the caller's own, end the sweep
    with an error and leave no process behind."""

    GRID = [4, 8, 16, 32]

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        yield
        assert not multiprocessing.active_children()

    def test_worker_that_dies_without_sending_is_an_error(self, monkeypatch, small_bundle):
        caller = os.getpid()

        def dies_in_a_worker(bundle, cfg):
            if os.getpid() != caller:
                os._exit(3)
            return None

        monkeypatch.setattr(evaluation, "evaluate_config", dies_in_a_worker)
        started = time.monotonic()
        with pytest.raises(EtlwatchError, match="a sweep process ended with exit code 3"):
            sweep("k", FAST, self.GRID, small_bundle, seed=3)
        assert time.monotonic() - started < 30

    def test_worker_exception_reaches_the_caller(self, monkeypatch, small_bundle):
        caller = os.getpid()

        def fails_in_a_worker(bundle, cfg):
            if os.getpid() != caller:
                raise UndefinedMetricError(f"failed at k={cfg.latent_dim}")
            return None

        monkeypatch.setattr(evaluation, "evaluate_config", fails_in_a_worker)
        # the two workers start on the two longest points
        with pytest.raises(UndefinedMetricError, match="failed at k=32"):
            sweep("k", FAST, self.GRID, small_bundle, seed=3)

    def test_caller_exception_stops_the_workers(self, monkeypatch, small_bundle):
        caller = os.getpid()

        def fails_in_the_caller(bundle, cfg):
            if os.getpid() == caller:
                raise UndefinedMetricError("failed in the caller")
            time.sleep(60)  # a worker still busy is stopped, not waited for

        monkeypatch.setattr(evaluation, "evaluate_config", fails_in_the_caller)
        started = time.monotonic()
        with pytest.raises(UndefinedMetricError, match="failed in the caller"):
            sweep("k", FAST, self.GRID, small_bundle, seed=3)
        assert time.monotonic() - started < 30


@pytest.fixture(scope="module")
def sweep_result(small_bundle):
    return sweep_latent_dim(FAST, [4, 8], small_bundle, seed=3)


class TestEmitReport:
    def test_csv_header_exact(self, sweep_result, tmp_path):
        path = tmp_path / report_filename("k", 3, "csv")
        emit_report(sweep_result, path, "csv")
        assert path.read_text().splitlines()[0] == "knob_value,auc,acc,precision,recall"

    def test_csv_round_trip_to_1e12(self, sweep_result, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_report(sweep_result, path, "csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(sweep_result.entries)
        for row, entry in zip(rows, sweep_result.entries):
            assert abs(float(row["knob_value"]) - entry.knob_value) < 1e-12
            for name in ("auc", "acc", "precision", "recall"):
                in_memory = getattr(entry.report, name)
                if in_memory is None:
                    assert row[name] == ""
                else:
                    assert abs(float(row[name]) - in_memory) < 1e-12

    def test_json_mirror_has_confusion_counts(self, sweep_result, tmp_path):
        path = tmp_path / "sweep.json"
        emit_report(sweep_result, path, "json")
        payload = json.loads(path.read_text())
        assert payload["knob"] == "k"
        entry = payload["entries"][0]
        assert set(entry["report"]["confusion"]) == {"tp", "fp", "tn", "fn"}

    def test_filename_pattern(self):
        assert report_filename("lr", 7, "csv") == "sweep_lr_7.csv"

    def test_bad_format_rejected(self, sweep_result, tmp_path):
        with pytest.raises(ContractViolationError):
            emit_report(sweep_result, tmp_path / "x.txt", "yaml")

    def test_empty_grid_rejected_before_emission(self, tmp_path):
        empty = SweepResult(knob="lr", grid=(), entries=(), seed=1)
        with pytest.raises(ContractViolationError):
            emit_report(empty, tmp_path / "x.csv", "csv")




# The report writers' exact bytes for literal reports, as written before the
# writers shared one row builder.
FULL_REPORT = MetricsReport(
    auc=0.9406547655943305, acc=0.938, precision=0.4427083333333333,
    recall=0.8333333333333334, confusion=ConfusionCounts(tp=85, fp=107, tn=1791, fn=17),
    n=2000, delta_used=0.7161755119351951,
)
UNDEFINED_PRECISION = MetricsReport(
    auc=0.5, acc=0.949, precision=None, recall=0.0,
    confusion=ConfusionCounts(tp=0, fp=0, tn=1898, fn=102), n=2000, delta_used=1e16,
)
LITERAL_SWEEP = SweepResult(knob="k", grid=(4.0, 8.0, 32.0), seed=7, entries=(
    SweepEntry(knob_value=4, report=UNDEFINED_PRECISION),
    SweepEntry(knob_value=8, report=None, diverged=True),
    SweepEntry(knob_value=32, report=FULL_REPORT, overcomplete=True),
))
METRICS_HEADER = b"auc,acc,precision,recall,tp,fp,tn,fn,n,delta_used\r\n"
UNDEFINED_PRECISION_JSON = """{
 "auc": 0.5,
 "acc": 0.949,
 "precision": null,
 "recall": 0.0,
 "confusion": {
  "tp": 0,
  "fp": 0,
  "tn": 1898,
  "fn": 102
 },
 "n": 2000,
 "delta_used": 1e+16
}
"""
LITERAL_SWEEP_JSON = """{
 "knob": "k",
 "seed": 7,
 "grid": [
  4.0,
  8.0,
  32.0
 ],
 "entries": [
  {
   "knob_value": 4,
   "diverged": false,
   "overcomplete": false,
   "report": {
    "auc": 0.5,
    "acc": 0.949,
    "precision": null,
    "recall": 0.0,
    "confusion": {
     "tp": 0,
     "fp": 0,
     "tn": 1898,
     "fn": 102
    },
    "n": 2000,
    "delta_used": 1e+16
   }
  },
  {
   "knob_value": 8,
   "diverged": true,
   "overcomplete": false,
   "report": null
  },
  {
   "knob_value": 32,
   "diverged": false,
   "overcomplete": true,
   "report": {
    "auc": 0.9406547655943305,
    "acc": 0.938,
    "precision": 0.4427083333333333,
    "recall": 0.8333333333333334,
    "confusion": {
     "tp": 85,
     "fp": 107,
     "tn": 1791,
     "fn": 17
    },
    "n": 2000,
    "delta_used": 0.7161755119351951
   }
  }
 ]
}
"""


class TestWriterBytes:
    def test_sweep_csv(self, tmp_path):
        emit_report(LITERAL_SWEEP, tmp_path / "s.csv", "csv")
        assert (tmp_path / "s.csv").read_bytes() == (
            b"knob_value,auc,acc,precision,recall\r\n"
            b"4,0.5,0.949,,0.0\r\n"
            b"8,,,,\r\n"
            b"32,0.9406547655943305,0.938,0.4427083333333333,0.8333333333333334\r\n"
        )

    def test_sweep_json(self, tmp_path):
        emit_report(LITERAL_SWEEP, tmp_path / "s.json", "json")
        assert (tmp_path / "s.json").read_bytes() == LITERAL_SWEEP_JSON.encode()

    def test_metrics_csv(self, tmp_path):
        write_metrics_report(FULL_REPORT, tmp_path / "full.csv", "csv")
        write_metrics_report(UNDEFINED_PRECISION, tmp_path / "undefined.csv", "csv")
        assert (tmp_path / "full.csv").read_bytes() == METRICS_HEADER + (
            b"0.9406547655943305,0.938,0.4427083333333333,0.8333333333333334,"
            b"85,107,1791,17,2000,0.7161755119351951\r\n"
        )
        assert (tmp_path / "undefined.csv").read_bytes() == METRICS_HEADER + (
            b"0.5,0.949,,0.0,0,0,1898,102,2000,1e+16\r\n"
        )

    def test_metrics_json(self, tmp_path):
        write_metrics_report(UNDEFINED_PRECISION, tmp_path / "m.json", "json")
        assert (tmp_path / "m.json").read_bytes() == UNDEFINED_PRECISION_JSON.encode()
