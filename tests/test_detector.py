import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etlwatch.autoencoder import Activation, AutoencoderParams
from etlwatch.detector import (
    _SCORE_CHUNK,
    DetectionResult,
    StreamError,
    batch_scores,
    calibrate_threshold,
    classify,
    read_detections_jsonl,
    score,
    score_stream,
    write_detections_csv,
    write_detections_jsonl,
)
from etlwatch.errors import ContractViolationError, InsufficientDataError
from etlwatch.preprocess import (
    FeatureSchema,
    StandardizationStats,
    fit_stats,
    standardize,
    vectorize,
)
from etlwatch.streamgen import StreamConfig, generate


def passthrough_stats(d: int) -> StandardizationStats:
    return StandardizationStats(mu=np.zeros(d), sigma=np.ones(d))


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


class TestCalibrateThreshold:
    def test_nearest_rank_on_1_to_100(self):
        # ceil(0.95 * 100) = 95th smallest of [1..100] is 95
        scores = [float(i) for i in range(1, 101)]
        assert calibrate_threshold(scores, 0.95) == 95.0

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


class TestClassify:
    def test_boundary_is_normal(self):
        assert classify(0.0, 0.0) is False

    def test_above_threshold_is_anomaly(self):
        assert classify(5.0, 4.0) is True

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_raising_delta_never_creates_anomalies(self, value, d1, d2):
        lo, hi = sorted((d1, d2))
        if not classify(value, lo):
            assert not classify(value, hi)


@pytest.fixture(scope="module")
def tiny_pipeline():
    events = [e.event for e in generate(StreamConfig(n_events=40, anomaly_rate=0.0, seed=3))]
    schema = FeatureSchema()
    from etlwatch.preprocess import standardize, vectorize_events

    x = vectorize_events(events, schema)
    stats = fit_stats(x)
    model = identity_model(schema.dim)
    return model, stats, schema, events


class TestScoreStream:
    def test_empty_stream(self, tiny_pipeline):
        model, stats, schema, _ = tiny_pipeline
        assert score_stream(model, stats, [], schema, 1.0) == []

    def test_concatenation_equals_concatenated_results(self, tiny_pipeline):
        model, stats, schema, events = tiny_pipeline
        whole = score_stream(model, stats, events, schema, 0.5)
        parts = score_stream(model, stats, events[:25], schema, 0.5) + score_stream(
            model, stats, events[25:], schema, 0.5
        )
        assert whole == parts

    def test_bad_event_becomes_error_record(self, tiny_pipeline):
        from dataclasses import replace

        model, stats, schema, events = tiny_pipeline
        broken = [events[0], replace(events[1], device_type="toaster"), events[2]]
        results = score_stream(model, stats, broken, schema, 0.0)
        assert len(results) == 3
        assert isinstance(results[0], DetectionResult)
        assert isinstance(results[1], StreamError)
        assert "toaster" in results[1].error
        assert isinstance(results[2], DetectionResult)

    def test_order_preserved_and_truth_passthrough(self, tiny_pipeline):
        model, stats, schema, events = tiny_pipeline
        truth = [i % 2 == 0 for i in range(len(events))]
        results = score_stream(
            model, stats, events, schema, 0.0, truth_labels=truth
        )
        assert [r.event_id for r in results] == [e.event_id for e in events]
        assert [r.truth_label for r in results] == truth

    def test_schema_model_mismatch(self, tiny_pipeline):
        _, stats, schema, events = tiny_pipeline
        with pytest.raises(ContractViolationError):
            score_stream(identity_model(4), stats, events, schema, 0.0)

    def test_stats_model_mismatch(self, tiny_pipeline):
        model, _, schema, events = tiny_pipeline
        with pytest.raises(ContractViolationError, match="stats of dimension 4"):
            score_stream(model, passthrough_stats(4), events, schema, 0.0)

    def test_rejects_bad_delta(self, tiny_pipeline):
        model, stats, schema, events = tiny_pipeline
        for delta in (-1.0, math.nan, math.inf):
            with pytest.raises(ContractViolationError, match="delta"):
                score_stream(model, stats, events, schema, delta)

    def test_records_stay_in_order_across_chunk_edges(self, tiny_pipeline):
        from dataclasses import replace

        _, stats, schema, events = tiny_pipeline
        model = AutoencoderParams(
            w_e=np.full((2, schema.dim), 0.1), b_e=np.zeros(2),
            w_d=np.full((schema.dim, 2), 0.2), b_d=np.zeros(schema.dim),
        )
        n = 2 * _SCORE_CHUNK + 3
        broken = {0, _SCORE_CHUNK - 1, _SCORE_CHUNK, n - 1}
        stream = []
        for i in range(n):
            event = replace(events[i % len(events)], event_id=f"e{i}")
            if i in broken:
                event = replace(event, device_type="toaster")
            stream.append(event)
        stream[_SCORE_CHUNK + 1] = replace(stream[_SCORE_CHUNK + 1], event_id="")
        truth = [i % 3 == 0 for i in range(n)]
        results = score_stream(
            model, stats, stream, schema, 1.0, truth_labels=truth
        )
        ids = [f"e{i}" for i in range(n)]
        ids[_SCORE_CHUNK + 1] = f"event-{_SCORE_CHUNK + 1}"
        assert [r.event_id for r in results] == ids
        assert {i for i, r in enumerate(results) if isinstance(r, StreamError)} == broken
        for i, (event, record) in enumerate(zip(stream, results)):
            if i in broken:
                assert "toaster" in record.error
                continue
            value = score(model, stats, vectorize(event, schema))
            assert record == DetectionResult(record.event_id, value, value > 1.0, truth[i])


class TestDetectionIO:
    def test_jsonl_round_trip(self, tmp_path):
        records = [
            DetectionResult(event_id="a", score=1.5, is_anomaly=True, truth_label=True),
            StreamError(event_id="b", error="boom"),
            DetectionResult(event_id="c", score=0.25, is_anomaly=False),
        ]
        path = tmp_path / "detections.jsonl"
        write_detections_jsonl(records, path)
        assert read_detections_jsonl(path) == records
        assert len(path.read_text().splitlines()) == 3

    def test_csv_mirror_has_header_and_rows(self, tmp_path):
        records = [DetectionResult(event_id="a", score=1.0, is_anomaly=False)]
        path = tmp_path / "detections.csv"
        write_detections_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "event_id,score,is_anomaly,truth_label,error"
        assert len(lines) == 2


