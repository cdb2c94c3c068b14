import csv
import dataclasses
import io
import itertools
import json
import math
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etlwatch.autoencoder import Activation, AutoencoderParams
from etlwatch import cli, detector, preprocess, streamgen
from etlwatch.detector import (
    DetectionResult,
    Detections,
    StreamError,
    batch_scores,
    calibrate_threshold,
    calibration_scores,
    read_detections_jsonl,
    read_normal_rows,
    score,
    score_stream,
    write_detections_csv,
    write_detections_jsonl,
)
from etlwatch.errors import ContractViolationError, EtlwatchError, InsufficientDataError
from etlwatch.preprocess import (
    EtlEvent,
    FeatureSchema,
    StandardizationStats,
    fit_stats,
    standardize,
    vectorize,
)
from etlwatch.streamgen import StreamConfig, generate
import reference
from reference import event_to_dict


# The width of every feature row.
DIM = FeatureSchema.dim


def passthrough_stats(d: int) -> StandardizationStats:
    return StandardizationStats(mu=np.zeros(d), sigma=np.ones(d))


def squeezed_model(d: int) -> AutoencoderParams:
    """A two-unit bottleneck, so most rows score above zero."""
    return AutoencoderParams(
        w_e=np.full((2, d), 0.1), b_e=np.zeros(2),
        w_d=np.full((d, 2), 0.2), b_d=np.zeros(d),
    )


def identity_model(d: int) -> AutoencoderParams:
    return AutoencoderParams(
        w_e=np.eye(d), b_e=np.zeros(d), w_d=np.eye(d), b_d=np.zeros(d),
        hidden_activation=Activation.IDENTITY,
        output_activation=Activation.IDENTITY,
    )


class TestScore:
    def test_perfect_reconstruction_scores_zero(self):
        model = identity_model(3)
        assert score(model, passthrough_stats(3), np.array([1.0, -2.0, 0.5])) == 0.0

    def test_hand_built_example(self):
        # x_std=[3,-2] reconstructed as [3,0]: ||(0,-2)||^2 = 4
        model = AutoencoderParams(
            w_e=np.array([[1.0, 0.0]]), b_e=np.zeros(1),
            w_d=np.array([[1.0], [0.0]]), b_d=np.zeros(2),
            hidden_activation=Activation.IDENTITY,
            output_activation=Activation.IDENTITY,
        )
        assert score(model, passthrough_stats(2), np.array([3.0, -2.0])) == 4.0

    def test_pure_function_of_inputs(self):
        model = identity_model(2)
        stats = StandardizationStats(mu=np.array([1.0, 2.0]), sigma=np.array([2.0, 3.0]))
        x = np.array([4.0, -1.0])
        assert score(model, stats, x) == score(model, stats, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            score(identity_model(3), passthrough_stats(3), np.zeros(2))


class TestBatchScores:
    def test_width_mismatch(self):
        with pytest.raises(ContractViolationError, match="dimension 3"):
            batch_scores(identity_model(3), np.zeros((4, 2)))

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=200),
        st.sampled_from(list(Activation)),
        st.sampled_from(list(Activation)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_scores_do_not_depend_on_batching(self, d, k, n, act_h, act_o, seed):
        rnd = np.random.default_rng(seed)
        params = AutoencoderParams(
            w_e=rnd.normal(size=(k, d)), b_e=rnd.normal(size=k),
            w_d=rnd.normal(size=(d, k)), b_d=rnd.normal(size=d),
            hidden_activation=act_h, output_activation=act_o,
        )
        stats = StandardizationStats(mu=rnd.normal(size=d), sigma=rnd.uniform(0.1, 3.0, d))
        x_raw = rnd.normal(scale=3.0, size=(n, d))
        x_std = standardize(x_raw, stats)
        full = batch_scores(params, x_std)
        for chunk in (1, 2, 7, 64):
            parts = np.concatenate(
                [batch_scores(params, x_std[i : i + chunk]) for i in range(0, n, chunk)]
            )
            assert parts.tobytes() == full.tobytes(), f"chunk {chunk}"
        for i in range(n):
            assert batch_scores(params, x_std[i]).tobytes() == full[i : i + 1].tobytes()
            assert score(params, stats, x_raw[i]) == full[i]

    @pytest.mark.parametrize("n", [1, 2_000])
    @pytest.mark.parametrize("act_o", list(Activation))
    @pytest.mark.parametrize("act_h", list(Activation))
    def test_equal_fresh_arrays_bit_for_bit(self, act_h, act_o, n):
        # computed in place; rows far out reach both sigmoid branches and relu's zero
        rnd = np.random.default_rng(n)
        d, k = 16, 24
        params = AutoencoderParams(
            w_e=rnd.normal(size=(k, d)), b_e=rnd.normal(size=k),
            w_d=rnd.normal(size=(d, k)), b_d=rnd.normal(size=d),
            hidden_activation=act_h, output_activation=act_o,
        )
        x = rnd.normal(scale=3.0, size=(n, d))
        x[::7] *= 50.0
        before = x.copy()
        assert batch_scores(params, x).tobytes() == reference.batch_scores(params, x).tobytes()
        assert x.tobytes() == before.tobytes()

    def test_holds_one_n_by_k_array_at_k_128(self):
        # a fresh array for the bias and one for the activation once held three
        n, d, k = 2_000, 16, 128
        rnd = np.random.default_rng(5)
        params = AutoencoderParams(
            w_e=rnd.normal(size=(k, d)), b_e=rnd.normal(size=k),
            w_d=rnd.normal(size=(d, k)), b_d=rnd.normal(size=d),
        )
        x = rnd.normal(size=(n, d))
        tracemalloc.start()
        try:
            batch_scores(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * k * 8  # one (n, k) array, one (n, d) and the scores


class TestCalibrateThreshold:
    def test_nearest_rank_on_1_to_100(self):
        # ceil(0.95 * 100) = 95th smallest of [1..100] is 95
        scores = [float(i) for i in range(1, 101)]
        assert calibrate_threshold(scores, 0.95) == 95.0

    @pytest.mark.parametrize("q, rank", [(0.93, 10), (0.51, 6), (0.12, 2), (0.05, 1)])
    def test_the_ceiling_rank_where_q_n_is_not_whole(self, q, rank):
        # q * n = 9.3, 5.1, 1.2 and 0.5: a rounded rank would be 9, 5, 1 and 0
        scores = [float(i) for i in range(10, 0, -1)]
        assert calibrate_threshold(scores, q) == float(rank)

    def test_single_score(self):
        assert calibrate_threshold([3.7], 0.5) == 3.7
        assert calibrate_threshold([3.7], 0.99) == 3.7

    def test_all_equal_scores(self):
        assert calibrate_threshold([2.0] * 10, 0.9) == 2.0

    def test_empty_list(self):
        with pytest.raises(InsufficientDataError):
            calibrate_threshold([], 0.95)

    def test_quantile_bounds(self):
        for bad_q in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ContractViolationError):
                calibrate_threshold([1.0], bad_q)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=60),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60)
    def test_monotone_in_q(self, scores, q1, q2):
        lo, hi = sorted((q1, q2))
        assert calibrate_threshold(scores, lo) <= calibrate_threshold(scores, hi)


@pytest.fixture(scope="module")
def tiny_pipeline():
    events = [e.event for e in generate(StreamConfig(n_events=40, anomaly_rate=0.0, seed=3))]
    from etlwatch.preprocess import standardize, vectorize_events

    x = vectorize_events(events)
    stats = fit_stats(x)
    model = identity_model(DIM)
    return model, stats, events


def write_stream(path, events, truth=None):
    """Write ``events`` as a stream file, each with its truth label inline
    (null where it is None, or everywhere when ``truth`` is None)."""
    truth = [None] * len(events) if truth is None else truth
    path.write_text(
        "".join(json.dumps(event_to_dict(e) | {"label": t}) + "\n" for e, t in zip(events, truth))
    )
    return path


@pytest.fixture(scope="module")
def tiny_stream(tiny_pipeline, tmp_path_factory):
    """The tiny pipeline's events as a stream file without labels."""
    return write_stream(tmp_path_factory.mktemp("stream") / "stream.jsonl", tiny_pipeline[2])


# Lines read, checked and scored at a time.
CHUNK = preprocess._CHUNK


class TestScoreStream:
    def test_empty_stream(self, tiny_pipeline, tmp_path):
        model, stats, _ = tiny_pipeline
        path = tmp_path / "stream.jsonl"
        path.write_text("")
        assert list(score_stream(model, stats, path, 1.0)) == []
        assert list(score_stream(model, stats, str(path), 1.0)) == []

    def test_concatenation_equals_concatenated_results(self, tiny_pipeline, tmp_path):
        model, stats, events = tiny_pipeline

        def scored(name, part):
            return list(score_stream(model, stats, write_stream(tmp_path / name, part), 0.5))

        whole = scored("whole.jsonl", events)
        assert whole == scored("head.jsonl", events[:25]) + scored("tail.jsonl", events[25:])

    def test_bad_event_becomes_error_record(self, tiny_pipeline, tmp_path):
        model, stats, events = tiny_pipeline
        broken = [events[0], dataclasses.replace(events[1], device_type="toaster"), events[2]]
        path = write_stream(tmp_path / "stream.jsonl", broken)
        results = score_stream(model, stats, path, 0.0)
        assert len(results) == 3
        assert isinstance(results[0], DetectionResult)
        assert isinstance(results[1], StreamError)
        assert "toaster" in results[1].error
        assert isinstance(results[2], DetectionResult)

    def test_order_preserved_and_truth_passthrough(self, tiny_pipeline, tmp_path):
        model, stats, events = tiny_pipeline
        truth = [i % 2 == 0 for i in range(len(events))]
        path = write_stream(tmp_path / "stream.jsonl", events, truth)
        results = score_stream(model, stats, path, 0.0)
        assert [r.event_id for r in results] == [e.event_id for e in events]
        assert [r.truth_label for r in results] == truth

    def test_schema_model_mismatch(self, tiny_pipeline, tmp_path):
        # refused before the file is opened: there is no file at the path
        _, stats, _ = tiny_pipeline
        message = "model d=4 does not match the feature dimension 16"
        with pytest.raises(ContractViolationError, match=message):
            score_stream(identity_model(4), stats, tmp_path / "absent.jsonl", 0.0)

    def test_stats_model_mismatch(self, tiny_pipeline, tiny_stream):
        model, _, _ = tiny_pipeline
        with pytest.raises(ContractViolationError, match="stats of dimension 4"):
            score_stream(model, passthrough_stats(4), tiny_stream, 0.0)

    def test_rejects_bad_delta(self, tiny_pipeline, tiny_stream):
        model, stats, _ = tiny_pipeline
        for delta in (-1.0, math.nan, math.inf):
            with pytest.raises(ContractViolationError, match="delta"):
                score_stream(model, stats, tiny_stream, delta)

    def test_score_equal_to_delta_is_normal(self, tiny_pipeline, tmp_path):
        _, stats, events = tiny_pipeline
        model = squeezed_model(DIM)
        path = write_stream(tmp_path / "stream.jsonl", events[:1])
        value = score_stream(model, stats, path, 0.0)[0].score
        assert value > 0
        assert score_stream(model, stats, path, value)[0].is_anomaly is False

    def test_score_above_delta_is_anomaly(self, tiny_pipeline, tmp_path):
        _, stats, events = tiny_pipeline
        model = squeezed_model(DIM)
        path = write_stream(tmp_path / "stream.jsonl", events[:1])
        value = score_stream(model, stats, path, 0.0)[0].score
        below = float(np.nextafter(value, 0.0))
        assert score_stream(model, stats, path, below)[0].is_anomaly is True

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_raising_delta_never_flags_more_events(self, tiny_pipeline, tiny_stream, d1, d2):
        _, stats, _ = tiny_pipeline
        model = squeezed_model(DIM)
        lo, hi = sorted((d1, d2))
        flagged = [
            {r.event_id for r in score_stream(model, stats, tiny_stream, d) if r.is_anomaly}
            for d in (lo, hi)
        ]
        assert flagged[1] <= flagged[0]

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_chunks_equal_scoring_one_event_at_a_time(self, tiny_pipeline, tmp_path, n):
        _, stats, events = tiny_pipeline
        rnd = np.random.default_rng(n)
        k = 5
        model = AutoencoderParams(
            w_e=rnd.normal(size=(k, DIM)), b_e=rnd.normal(size=k),
            w_d=rnd.normal(size=(DIM, k)), b_d=rnd.normal(size=DIM),
            hidden_activation=Activation.TANH,
        )
        # unknown values just before and after the first run's edge, and at the ends
        bad = {0: ("device_type", "toaster"), CHUNK - 2: ("geo_region", "mars"),
               CHUNK - 1: ("device_type", ""), CHUNK: ("geo_region", "EU"),
               n - 1: ("device_type", "WEB")}
        stream = []
        for i in range(n):
            event = dataclasses.replace(
                events[i % len(events)], event_id="" if i % 7 == 0 else f"e{i}"
            )
            if i in bad:
                event = dataclasses.replace(event, **{bad[i][0]: bad[i][1]})
            stream.append(event)
        truth = [None if i % 5 == 0 else i % 3 == 0 for i in range(n)]
        path = write_stream(tmp_path / "stream.jsonl", stream, truth)
        read, labels, _ = reference.read_stream(path)
        whole = score_stream(model, stats, path, 0.0)
        delta = float(np.median([r.score for r in whole if isinstance(r, DetectionResult)]))
        for d in (0.0, delta):
            expected = reference.score_one_at_a_time(model, stats, read, d, labels)
            assert list(score_stream(model, stats, path, d)) == expected
        errors = {i for i, r in enumerate(whole) if isinstance(r, StreamError)}
        assert errors == {i for i in bad if i < n}

    @pytest.mark.parametrize("lacks", [None, "e7", "e6"])  # e6 fails to encode
    def test_runs_that_mix_inline_and_held_out_labels(
        self, tiny_pipeline, tmp_path, monkeypatch, lacks
    ):
        # runs of 4: runs 0, 3 and 6 inline, the others mixed; an error
        # record inline (13) and one held out (6)
        monkeypatch.setattr(preprocess, "_CHUNK", 4)
        _, stats, events = tiny_pipeline
        model = squeezed_model(DIM)
        n = 30
        stream = [dataclasses.replace(events[i % len(events)], event_id=f"e{i}") for i in range(n)]
        for at in (6, 13):
            stream[at] = dataclasses.replace(stream[at], device_type="toaster")
        truth = [i % 3 == 0 for i in range(n)]
        inline = [(i // 4) % 3 == 0 or i % 5 == 0 for i in range(n)]
        assert inline[13] and not inline[6] and not inline[7]
        path = write_split_labels(tmp_path / "stream.jsonl", stream, truth, inline)
        if lacks:
            drop_held_out_label(path, lacks)

        def scored_whole():
            events, labels, _ = streamgen.read_stream(path)
            return reference.score_one_at_a_time(model, stats, events, 1.0, labels)

        ours = outcome(lambda: list(score_stream(model, stats, path, 1.0)))
        assert ours == outcome(scored_whole)
        if lacks:
            labels_path = streamgen.labels_sibling_path(path)
            assert ours == f"ContractViolationError: event '{lacks}' has no entry in {labels_path}"
        else:
            assert [r.truth_label for r in ours if isinstance(r, DetectionResult)] == [
                t for i, t in enumerate(truth) if i not in (6, 13)
            ]
            assert [i for i, r in enumerate(ours) if isinstance(r, StreamError)] == [6, 13]

    def test_held_out_labels_peak_under_4_mb_over_20_000_lines(
        self, tiny_pipeline, tmp_path, cpus
    ):
        # about 3.3 MB here, against 1.7 MB with the labels inline; with every
        # id joined into one list, a class list beside the labels and a
        # (label, class) pair per held-out id, about 6.9 MB
        cpus(1)
        model, stats, events = tiny_pipeline
        n = 20_000
        stream = [dataclasses.replace(events[i % len(events)], event_id=f"evt-{i:06d}")
                  for i in range(n)]
        truth = [i % 7 == 0 for i in range(n)]
        path = write_split_labels(tmp_path / "stream.jsonl", stream, truth, [False] * n)
        tracemalloc.start()
        try:
            detections = score_stream(model, stats, path, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert detections.truth == truth
        assert peak < 4_000_000

    def test_records_stay_in_order_across_chunk_edges(self, tiny_pipeline, tmp_path):
        _, stats, events = tiny_pipeline
        model = squeezed_model(DIM)
        n = 2 * CHUNK + 3
        broken = {0, CHUNK - 1, CHUNK, n - 1}
        stream = []
        for i in range(n):
            event = dataclasses.replace(events[i % len(events)], event_id=f"e{i}")
            if i in broken:
                event = dataclasses.replace(event, device_type="toaster")
            stream.append(event)
        stream[CHUNK + 1] = dataclasses.replace(stream[CHUNK + 1], event_id="")
        truth = [i % 3 == 0 for i in range(n)]
        results = score_stream(
            model, stats, write_stream(tmp_path / "stream.jsonl", stream, truth), 1.0
        )
        ids = [f"e{i}" for i in range(n)]
        ids[CHUNK + 1] = f"line-{CHUNK + 2}"
        assert [r.event_id for r in results] == ids
        assert {i for i, r in enumerate(results) if isinstance(r, StreamError)} == broken
        for i, (event, record) in enumerate(zip(stream, results)):
            if i in broken:
                assert "toaster" in record.error
                continue
            value = score(model, stats, vectorize(event))
            assert record == DetectionResult(record.event_id, value, value > 1.0, truth[i])


def write_split_labels(path, events, truth, inline):
    """Write ``events`` as a stream file whose record i carries its truth
    label inline where ``inline[i]`` holds and null elsewhere; those labels
    go to the sibling labels file."""
    write_stream(path, events, [t if keep else None for t, keep in zip(truth, inline)])
    held_out = [
        json.dumps({"event_id": event.event_id, "label": t}) + "\n"
        for event, t, keep in zip(events, truth, inline) if not keep
    ]
    if held_out:
        streamgen.labels_sibling_path(path).write_text("".join(held_out))
    return path


def drop_held_out_label(path, event_id):
    """Delete the line of ``event_id`` from the labels file beside ``path``."""
    labels_path = streamgen.labels_sibling_path(path)
    lines = labels_path.read_text().splitlines(keepends=True)
    labels_path.write_text(
        "".join(line for line in lines if json.loads(line)["event_id"] != event_id)
    )


def outcome(compute, *args):
    """What ``compute(*args)`` gives: its value, or its error's type and message."""
    try:
        return compute(*args)
    except EtlwatchError as exc:
        return f"{type(exc).__name__}: {exc}"


def calibration_stream(events, normals):
    """Events with ids ``e<i>`` and their labels: exactly ``normals`` normal
    ones, every 7th anomalous, and an anomalous one last."""
    stream, truth = [], []
    while normals:
        anomalous = len(stream) % 7 == 3
        normals -= not anomalous
        stream.append(dataclasses.replace(events[len(stream) % len(events)],
                                          event_id=f"e{len(stream)}"))
        truth.append(anomalous)
    stream.append(dataclasses.replace(events[0], event_id=f"e{len(stream)}"))
    return stream, [*truth, True]


# How the records of a calibration file carry their labels: the i-th inline
# or in the labels file; "none" has neither.
LABELINGS = {
    "inline": lambda i: True,
    "held-out": lambda i: False,
    "mixed": lambda i: i < CHUNK or i % 3 == 0,  # the first run inline, the rest mixed
    "none": None,
}


def write_calibration(path, stream, truth, labeling):
    if LABELINGS[labeling] is None:
        return write_stream(path, stream)
    inline = list(map(LABELINGS[labeling], range(len(truth))))
    return write_split_labels(path, stream, truth, inline)


class TestCalibrationScores:
    """detect's validation scores and train's rows, read a run at a time,
    against the whole file read at once and its normal rows encoded and
    scored as one batch."""

    @staticmethod
    def assert_as_the_reference(model, stats, path):
        # train's rows, from the same reader, too
        rows, their_rows = (
            outcome(read, path) for read in (read_normal_rows, reference.read_normal_rows)
        )
        ours, theirs = (
            outcome(calibrate, model, stats, path)
            for calibrate in (calibration_scores, reference.calibration_scores)
        )
        if isinstance(theirs, str):
            assert ours == theirs == rows == their_rows
            return ours
        assert rows.shape == their_rows.shape == (len(theirs), DIM)
        assert rows.tobytes() == their_rows.tobytes()
        assert ours.tobytes() == theirs.tobytes()
        assert calibrate_threshold(ours, 0.95) == calibrate_threshold(theirs, 0.95)
        return ours

    @pytest.mark.parametrize("labeling", LABELINGS)
    @pytest.mark.parametrize("normals", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_equal_the_reference_at_run_edges(self, tiny_pipeline, tmp_path, normals, labeling):
        _, stats, events = tiny_pipeline
        model = squeezed_model(DIM)
        stream, truth = calibration_stream(events, normals)
        path = write_calibration(tmp_path / "val.jsonl", stream, truth, labeling)
        scores = self.assert_as_the_reference(model, stats, path)
        assert len(scores) == (len(stream) if labeling == "none" else normals)

    @pytest.mark.parametrize("labeling", ["inline", "held-out", "mixed"])
    @pytest.mark.parametrize("anomalous", [True, False])
    def test_an_event_that_fails_to_encode(
        self, tiny_pipeline, tmp_path, labeling, anomalous
    ):
        # skipped when it is anomalous, raised when it is normal; an
        # anomalous one after it is skipped either way
        _, stats, events = tiny_pipeline
        model = squeezed_model(DIM)
        stream, truth = calibration_stream(events, CHUNK + 1)
        for at, field, value, label in ((CHUNK + 1, "device_type", "toaster", anomalous),
                                        (CHUNK + 3, "geo_region", "mars", True)):
            stream[at] = dataclasses.replace(stream[at], **{field: value})
            truth[at] = label
        path = write_calibration(tmp_path / "val.jsonl", stream, truth, labeling)
        result = self.assert_as_the_reference(model, stats, path)
        if anomalous:
            assert len(result) == truth.count(False)
        else:
            assert result == (
                "EncodingError: cannot encode field 'device_type': unknown value 'toaster'"
            )

    def test_a_record_the_labels_file_lacks(self, tiny_pipeline, tmp_path):
        _, stats, events = tiny_pipeline
        stream, truth = calibration_stream(events, CHUNK + 1)
        path = write_calibration(tmp_path / "val.jsonl", stream, truth, "mixed")
        drop_held_out_label(path, f"e{CHUNK + 1}")
        result = self.assert_as_the_reference(squeezed_model(DIM), stats, path)
        labels_path = streamgen.labels_sibling_path(path)
        assert result == (
            f"ContractViolationError: event 'e{CHUNK + 1}' has no entry in {labels_path}"
        )

    def test_holds_one_run_of_events_at_a_time(self, tiny_pipeline, tmp_path, cpus, monkeypatch):
        # the whole file at once holds every event; a run at a time, its scores
        cpus(1)
        monkeypatch.setattr(preprocess, "_CHUNK", 256)
        _, stats, events = tiny_pipeline
        model = squeezed_model(DIM)
        stream, truth = calibration_stream(events, 4000)
        path = write_calibration(tmp_path / "val.jsonl", stream, truth, "inline")
        peaks = []
        for calibrate in (calibration_scores, reference.calibration_scores):
            tracemalloc.start()
            try:
                calibrate(model, stats, path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2_000_000 < peaks[1]

    def test_peaks_under_1_6_mb_over_20_001_events(self, tiny_pipeline, tmp_path, cpus):
        # about 1.30 MB here; with each run's lines and decoded records held
        # until the run is scored, about 2.02 MB
        cpus(1)
        _, stats, events = tiny_pipeline
        stream, truth = calibration_stream(events, 17_143)  # 20 001 events
        path = write_calibration(tmp_path / "val.jsonl", stream, truth, "inline")
        tracemalloc.start()
        try:
            scores = calibration_scores(squeezed_model(DIM), stats, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scores) == truth.count(False)
        assert peak < 1_600_000

    def test_train_rows_hold_under_300_bytes_per_event(self, tiny_pipeline, tmp_path):
        # about 220 here; the whole file at once, as train once read it, about 680
        _, _, events = tiny_pipeline
        stream, truth = calibration_stream(events, 17_143)  # 20 001 events
        n = len(stream)
        path = write_calibration(tmp_path / "train.jsonl", stream, truth, "inline")
        tracemalloc.start()
        try:
            rows = read_normal_rows(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (truth.count(False), DIM)
        assert peak < 300 * n


# any text, rich in what csv.writer quotes: commas, quotes, CR and LF
TEXT = st.text(st.one_of(st.sampled_from(',"\r\n'), st.characters(blacklist_categories=("Cs",))))


def detection_records(scores=st.floats()):
    return st.lists(
        st.one_of(
            st.builds(
                DetectionResult,
                TEXT,
                st.one_of(scores, st.sampled_from([math.inf, -math.inf])),
                st.booleans(),
                st.sampled_from([None, True, False]),
            ),
            st.builds(StreamError, TEXT, TEXT),
        ),
        max_size=20,
    )


DETECTION_RECORDS = detection_records()
# the reader rejects a NaN score, which detect never writes
READABLE_RECORDS = detection_records(st.floats(allow_nan=False))


RECORDS = [
    EtlEvent(1_767_225_600_000, 52.3, 140.0, 61.0, 9, "web", "eu", (False, True, False), "e-1"),
    DetectionResult("e-1", 1.5, True, False),
    StreamError("e-2", "unknown device_type 'toaster'"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_record_is_frozen_hashable_picklable_and_replaceable(record):
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.event_id = "other"
    twin = dataclasses.replace(record)
    assert twin == record and twin is not record
    assert len({record, twin}) == 1  # equal records hash equal
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    changed = dataclasses.replace(record, event_id="other")
    assert changed.event_id == "other" and changed != record and record.event_id != "other"


class TestDetectionIO:
    def test_jsonl_round_trip(self, tmp_path):
        records = [
            DetectionResult(event_id="a", score=1.5, is_anomaly=True, truth_label=True),
            StreamError(event_id="b", error="boom"),
            DetectionResult(event_id="c", score=0.25, is_anomaly=False),
        ]
        path = tmp_path / "detections.jsonl"
        write_detections_jsonl(reference.detections(records), path)
        assert list(read_detections_jsonl(path)) == records
        assert len(path.read_text().splitlines()) == 3

    def test_csv_mirror_has_header_and_rows(self, tmp_path):
        records = [DetectionResult(event_id="a", score=1.0, is_anomaly=False)]
        path = tmp_path / "detections.csv"
        write_detections_csv(reference.detections(records), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "event_id,score,is_anomaly,truth_label,error"
        assert len(lines) == 2

    def test_writers_match_reference_bytes_for_odd_records(self, tmp_path):
        ids = ['say "hi"', "back\\slash", "a,b", "line\nbreak", "cr\rid", "naïve-ünïcødé-事件", ""]
        scores = [0.0, 5e-324, 1e16, math.inf, -0.0, 0.1, 2e16, math.nan]
        records = [StreamError("first", "unknown device_type 'toaster'")] + [
            DetectionResult(event_id, value, value > 1.0, truth)
            for event_id, value, truth in itertools.product(ids, scores, [None, True, False])
        ] + [StreamError(event_id, f"cannot encode {event_id!r}") for event_id in ids]
        self.assert_matches_reference(records, tmp_path)

    @given(DETECTION_RECORDS)
    @settings(max_examples=60, deadline=None)
    def test_writers_match_reference_bytes(self, tmp_path_factory, records):
        self.assert_matches_reference(records, tmp_path_factory.mktemp("writers"))

    def test_score_text_is_repr_in_the_csv_and_json_dumps_in_the_jsonl(self):
        # the writers take orjson's digits for 0 and 1e-4 <= |x| < 1e16; the
        # hypothesis test above draws too few scores to find a rare digit
        # that differs. 2**20 bit patterns of either sign: 2**14 of any
        # exponent, the rest of one in [2**-14, 2**55); then 10**x for x in
        # [-5, 17), and short decimals.
        rng = np.random.default_rng(2018)
        n, wide = 1 << 20, 1 << 14
        exponent = np.concatenate([rng.integers(0, 2048, wide),
                                   rng.integers(1023 - 14, 1023 + 55, n - wide)])
        bits = (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
                | exponent.astype(np.uint64) << np.uint64(52)
                | rng.integers(0, 1 << 52, n, dtype=np.uint64))
        edges = np.array([1e-4, 1e16])
        special = np.array([0.0, 5e-324, 1e-310, np.inf, np.nan, *edges,
                            *np.nextafter(edges, 0), *np.nextafter(edges, np.inf)])
        decades = 10.0 ** rng.uniform(-5, 17, 1 << 14)
        decimals = [float(f"{k}e{e}") for k, e in zip(rng.integers(1, 10**6, 1 << 14).tolist(),
                                                       rng.integers(-11, 12, 1 << 14).tolist())]
        values = np.concatenate([special, -special, bits.view(np.float64), decades, decimals])
        floats = values.tolist()
        for form, reference_texts in (
            (detector._CSV, list(map(float.__repr__, floats))),
            (detector._JSONL, json.dumps(floats)[1:-1].split(", ")),
        ):
            texts = detector._score_texts(values, form.other)
            if texts != reference_texts:
                assert len(texts) == len(reference_texts)
                differ = [(v, a, b) for v, a, b in zip(floats, texts, reference_texts) if a != b]
                assert differ[:5] == []

    @staticmethod
    def assert_matches_reference(records, root):
        detections = reference.detections(records)
        for write, write_reference in (
            (write_detections_jsonl, reference.write_detections_jsonl),
            (write_detections_csv, reference.write_detections_csv),
        ):
            write(detections, root / "ours")
            write_reference(records, root / "theirs")
            assert (root / "ours").read_bytes() == (root / "theirs").read_bytes()
        reference.write_detections_jsonl(records, root / "theirs.jsonl")
        reference.write_detections_csv(records, root / "theirs.csv")
        # detect writes both files, the CSV one in a forked worker where two
        # CPUs are usable
        for cpus in (1, 2):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "_SPLIT_ROWS", 1)
                patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
                cli._write_detections(detections, root / "both.jsonl", root / "both.csv")
            for suffix in (".jsonl", ".csv"):
                ours, theirs = root / f"both{suffix}", root / f"theirs{suffix}"
                assert ours.read_bytes() == theirs.read_bytes(), f"{cpus} CPUs"


def odd_records():
    """Error records first and last; ids with quotes, commas, a newline, a
    CR and non-ASCII text; every truth label; 1e16, the score of one masked
    field."""
    ids = ['say "hi"', "a,b", "naïve-ünïcødé-事件", "line\nbreak", "cr\rid", ""]
    scored = [
        DetectionResult(event_id, [0.25, 1e16, 2e16][i % 3], i % 2 == 0, truth)
        for i, (event_id, truth) in enumerate(itertools.product(ids, [None, True, False]))
    ]
    return [
        StreamError("first", "unknown device_type 'toaster'"),
        *scored[:7],
        StreamError('mid, "事件"', "unknown geo_region 'mars'"),
        *scored[7:],
        StreamError('last "one"', "unknown geo_region 'EU'"),
    ]


def reference_csv_field(text):
    """``text`` as ``csv.writer`` writes it as the first of two fields."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


WRITERS = [
    (write_detections_jsonl, reference.write_detections_jsonl, "jsonl"),
    (write_detections_csv, reference.write_detections_csv, "csv"),
]


class TestDetections:
    def test_records_come_back_by_position(self):
        records = odd_records()
        detections = reference.detections(records)
        assert len(detections) == len(records)
        assert list(detections) == records
        assert [detections[i] for i in range(-len(records), len(records))] == records * 2
        assert detections[3:12:4] == records[3:12:4]
        assert sorted(detections.errors) == [0, 8, len(records) - 1]
        scored = [r for r in records if isinstance(r, DetectionResult)]
        assert detections.truth == [r.truth_label for r in scored]
        with pytest.raises(IndexError):
            detections[len(records)]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 8, 9, 1024])
    def test_rows_come_in_slices_of_a_run(self, tmp_path, monkeypatch, chunk):
        # errors first, last and at slice edges; the writers take the ids of
        # a slice whose ids need no JSON escape or no CSV quoting as they are
        monkeypatch.setattr(preprocess, "_CHUNK", chunk)
        plain = [DetectionResult(f"ev-{i}", [0.5, 3e-5, 2e16][i % 3], i % 2 == 0,
                                 [None, True, False][i % 3]) for i in range(2 * chunk)]
        records = [*odd_records(), *plain, *odd_records()]
        slices = [records[i : i + chunk] for i in range(0, len(records), chunk)]
        for as_is in (lambda text: json.dumps(text) == f'"{text}"',
                      lambda text: reference_csv_field(text) == text):
            assert {all(as_is(r.event_id) for r in part) for part in slices} == {True, False}
        detections = reference.detections(records)
        assert list(detections) == records
        for write, write_reference, suffix in WRITERS:
            write(detections, tmp_path / f"ours.{suffix}")
            write_reference(records, tmp_path / f"theirs.{suffix}")
            assert (tmp_path / f"ours.{suffix}").read_bytes() == (
                tmp_path / f"theirs.{suffix}").read_bytes()

    def test_a_write_holds_one_slice_of_columns_at_a_time(self, tmp_path):
        # a whole-stream write once built a float and two lists per record
        n = 20_000
        errors = {i: "unknown device_type 'toaster'" for i in range(0, n, 97)}
        m = n - len(errors)
        detections = Detections([f"e{i}" for i in range(n)], np.linspace(0.0, 2.0, m),
                                np.arange(m) % 2 == 0, [True, False, None] * (m // 3)
                                + [None] * (m % 3), errors)
        tracemalloc.start()
        try:
            write_detections_jsonl(detections, tmp_path / "detections.jsonl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000

    def test_a_scored_or_read_stream_holds_under_50_bytes_per_record(
        self, tmp_path, tiny_pipeline
    ):
        # one str object per id once took about 86 bytes per record
        model, stats, events = tiny_pipeline
        n = 20_000
        ids = [f"evt-{i:06d}" for i in range(n)]  # 200 000 characters: wider offsets than a run's
        stream = [dataclasses.replace(events[i % len(events)], event_id=event_id)
                  for i, event_id in enumerate(ids)]
        path = write_stream(tmp_path / "stream.jsonl", stream, [i % 7 == 0 for i in range(n)])
        write_detections_jsonl(score_stream(model, stats, path, 0.5),
                               tmp_path / "detections.jsonl")
        for build in (lambda: score_stream(model, stats, path, 0.5),
                      lambda: read_detections_jsonl(tmp_path / "detections.jsonl")):
            tracemalloc.start()
            try:
                detections = build()
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert held < 50 * n
            assert detections.event_ids() == ids

    def test_scores_in_any_layout_write_the_same_bytes(self, tmp_path):
        # orjson formats a score array from its raw buffer
        records = [DetectionResult(f"e{i}", 0.25 * i, i % 2 == 0) for i in range(5)]
        values = np.arange(10.0) * 0.125
        for scores in (values[::2], values.astype(">f8")[::2]):
            detections = Detections([r.event_id for r in records], scores,
                                    [r.is_anomaly for r in records], [None] * 5, {})
            for write, write_reference, suffix in WRITERS:
                write(detections, tmp_path / f"ours.{suffix}")
                write_reference(records, tmp_path / f"theirs.{suffix}")
                assert (tmp_path / f"ours.{suffix}").read_bytes() == (
                    tmp_path / f"theirs.{suffix}").read_bytes()

    def test_columns_that_disagree_are_refused(self):
        with pytest.raises(ContractViolationError):
            Detections(["a", "b"], np.zeros(2), np.zeros(2, bool), [None, None], {1: "boom"})
        with pytest.raises(ContractViolationError):
            Detections(["a"], np.zeros(0), np.zeros(0, bool), [], {1: "boom"})

    def test_scored_stream_writes_reference_bytes(self, tmp_path, tiny_pipeline):
        model, stats, events = tiny_pipeline
        stream = list(events)
        for i in (0, 17, len(stream) - 1):
            stream[i] = dataclasses.replace(stream[i], device_type="toaster")
        stream[5] = dataclasses.replace(stream[5], event_id='say "hi", 事件')
        truth = [None if i % 5 == 0 else i % 2 == 0 for i in range(len(stream))]
        path = write_stream(tmp_path / "stream.jsonl", stream, truth)
        detections = score_stream(model, stats, path, 0.5)
        assert sorted(detections.errors) == [0, 17, len(stream) - 1]
        for write, write_reference, suffix in WRITERS:
            write(detections, tmp_path / f"ours.{suffix}")
            write_reference(list(detections), tmp_path / f"theirs.{suffix}")
            assert (tmp_path / f"ours.{suffix}").read_bytes() == (
                tmp_path / f"theirs.{suffix}"
            ).read_bytes()

    def test_read_back_writes_the_same_bytes(self, tmp_path):
        records = odd_records()
        self.assert_round_trip(records, tmp_path)
        back = read_detections_jsonl(tmp_path / "first.jsonl")
        assert list(back) == records
        assert back.scores.tolist() == [r.score for r in records if isinstance(r, DetectionResult)]

    def test_nan_score_does_not_read_back_and_infinity_does(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        records = [DetectionResult("a", math.inf, True), StreamError("b", "unknown device_type")]
        write_detections_jsonl(reference.detections(records), path)
        assert list(read_detections_jsonl(path)) == records
        write_detections_jsonl(
            reference.detections([*records, DetectionResult("c", math.nan, False)]), path
        )
        with pytest.raises(ContractViolationError) as info:
            read_detections_jsonl(path)
        assert str(info.value) == f"{path} line 3: field 'score' must not be NaN"

    @given(READABLE_RECORDS, st.sampled_from([1, 2, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_read_back_round_trips(self, tmp_path_factory, records, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(preprocess, "_CHUNK", chunk)
            self.assert_round_trip(records, tmp_path_factory.mktemp("round"))

    @staticmethod
    def assert_round_trip(records, root):
        detections = reference.detections(records)
        write_detections_jsonl(detections, root / "first.jsonl")
        write_detections_csv(detections, root / "first.csv")
        back = read_detections_jsonl(root / "first.jsonl")
        # repr, because -0.0 equals 0.0
        assert repr(list(back)) == repr(reference.read_detections_jsonl(root / "first.jsonl"))
        write_detections_jsonl(back, root / "second.jsonl")
        write_detections_csv(back, root / "second.csv")
        for suffix in ("jsonl", "csv"):
            first, second = root / f"first.{suffix}", root / f"second.{suffix}"
            assert first.read_bytes() == second.read_bytes()


DETECTION_LINE = st.one_of(
    st.fixed_dictionaries(
        {"event_id": st.sampled_from(["a", 5, None])},
        optional={
            "score": st.sampled_from([1.5, 0, "2.5", "abc", None, [], 10**400, True, math.nan]),
            "is_anomaly": st.sampled_from([True, False, 0, "x", "no", None]),
            "truth_label": st.sampled_from([True, False, None, 1, "", "false", 0]),
            "error": st.sampled_from(["boom", None]),
        },
    ).map(json.dumps),
    st.fixed_dictionaries({}, optional={"score": st.just(1.0), "error": st.just("x")}).map(
        json.dumps
    ),
    # a scored record, most often with every field present and of its type
    st.fixed_dictionaries(
        {
            "event_id": st.just("s"),
            "score": st.sampled_from([2.5, 0, -1e300, math.inf, math.nan, "2.5", False]),
            "is_anomaly": st.sampled_from([True, False, True, False, "no", 1]),
        },
        optional={"truth_label": st.sampled_from([True, False, None, True, "false", 0])},
    ).map(json.dumps),
    st.sampled_from(["{not json", "[1]", ""]),
)


@given(st.lists(DETECTION_LINE, max_size=8), st.sampled_from([1, 2, 1024]))
@settings(max_examples=200, deadline=None)
def test_detection_reader_matches_per_record_reader(tmp_path_factory, lines, chunk):
    path = tmp_path_factory.mktemp("detections") / "detections.jsonl"
    path.write_text("\n".join(lines) + "\n")
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess, "_CHUNK", chunk)
        for read in (read_detections_jsonl, reference.read_detections_jsonl):
            try:
                outcomes.append(repr(list(read(path))))
            except ContractViolationError as exc:
                outcomes.append(f"error: {exc}")
    assert outcomes[0] == outcomes[1]
