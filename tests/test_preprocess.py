import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etlwatch.errors import (
    ContractViolationError,
    EncodingError,
    InsufficientDataError,
)
from etlwatch.preprocess import (
    EtlEvent,
    FeatureSchema,
    fit_stats,
    hour_angle,
    parse_event,
    read_jsonl,
    standardize,
    vectorize,
    vectorize_events,
)

SCHEMA = FeatureSchema()


def make_event(**overrides):
    base = dict(
        timestamp=1_767_225_600_000,
        amount=52.3,
        latency_ms=140.0,
        task_duration_s=61.0,
        records_loaded=9,
        device_type="web",
        geo_region="eu",
        missing_mask=(False, False, False),
        event_id="evt-1",
    )
    base.update(overrides)
    return EtlEvent(**base)


class TestVectorize:
    def test_dimension_is_16(self):
        assert SCHEMA.dim == 16
        assert vectorize(make_event(), SCHEMA).shape == (16,)

    def test_column_names_name_every_slot(self):
        names = SCHEMA.column_names()
        assert len(names) == len(set(names)) == SCHEMA.dim == 16

    def test_all_present_means_zero_indicators(self):
        x = vectorize(make_event(), SCHEMA)
        names = SCHEMA.column_names()
        for i, name in enumerate(names):
            if name.endswith("_missing"):
                assert x[i] == 0.0

    def test_device_change_only_touches_its_one_hot_block(self):
        a = vectorize(make_event(device_type="web"), SCHEMA)
        b = vectorize(make_event(device_type="pos"), SCHEMA)
        names = SCHEMA.column_names()
        differing = {names[i] for i in np.nonzero(a != b)[0]}
        assert differing == {"device_type=web", "device_type=pos"}

    def test_midnight_time_features(self):
        # default start timestamp is exactly midnight UTC
        x = vectorize(make_event(), SCHEMA)
        assert x[-2] == pytest.approx(0.0, abs=1e-12)  # sin
        assert x[-1] == pytest.approx(1.0)  # cos

    def test_missing_field_emits_zero_and_indicator(self):
        event = make_event(amount=0.0, missing_mask=(True, False, False))
        x = vectorize(event, SCHEMA)
        names = SCHEMA.column_names()
        assert x[names.index("amount")] == 0.0
        assert x[names.index("amount_missing")] == 1.0

    def test_unknown_categorical_names_field_and_value(self):
        with pytest.raises(EncodingError, match="device_type.*tablet"):
            vectorize(make_event(device_type="tablet"), SCHEMA)
        with pytest.raises(EncodingError, match="geo_region"):
            vectorize(make_event(geo_region="mars"), SCHEMA)

    def test_deterministic(self):
        event = make_event()
        np.testing.assert_array_equal(vectorize(event, SCHEMA), vectorize(event, SCHEMA))

    def test_hour_angle_wraps_daily(self):
        assert hour_angle(0) == 0.0
        assert hour_angle(86_400_000) == 0.0
        assert hour_angle(43_200_000) == pytest.approx(math.pi)


class TestFitStats:
    def test_hand_computed_column(self):
        # column [2,4,6]: mean 4, population std sqrt(((2-4)^2+0+(6-4)^2)/3)
        x = np.array([[2.0], [4.0], [6.0]])
        stats = fit_stats(x)
        assert stats.mu[0] == pytest.approx(4.0)
        assert stats.sigma[0] == pytest.approx(math.sqrt(8.0 / 3.0))

    def test_constant_column_floors_at_epsilon(self):
        stats = fit_stats(np.full((3, 1), 5.0))
        assert stats.mu[0] == 5.0
        assert stats.sigma[0] == 1e-8

    def test_already_standardized_column(self):
        x = np.array([[2.0], [4.0], [6.0]])
        z = standardize(x, fit_stats(x))
        stats2 = fit_stats(z)
        assert abs(stats2.mu[0]) < 1e-9
        assert abs(stats2.sigma[0] - 1.0) < 1e-9

    def test_requires_two_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_stats(np.ones((1, 4)))


class TestStandardize:
    def test_centering(self):
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        stats = fit_stats(x)
        np.testing.assert_allclose(standardize(stats.mu.copy(), stats), 0.0, atol=1e-15)

    def test_unit_scaling(self):
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        stats = fit_stats(x)
        out = standardize(stats.mu + stats.sigma, stats)
        np.testing.assert_allclose(out, 1.0)

    def test_own_stats_give_zero_mean_unit_std(self):
        x = np.array([[2.0], [4.0], [6.0]])
        z = standardize(x, fit_stats(x))
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        stats = fit_stats(np.random.default_rng(0).normal(size=(5, 3)))
        with pytest.raises(ContractViolationError):
            standardize(np.zeros(4), stats)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25)
    def test_round_trip_mean_and_std(self, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        x = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.1, 30), size=(200, 4))
        z = standardize(x, fit_stats(x))
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=25)
    def test_affine_relation(self, a, b, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        base = rng.normal(size=(10, 3))
        stats = fit_stats(base)
        x, y = rng.normal(size=3), rng.normal(size=3)
        left = standardize(a * x + b * y, stats)
        right = (
            a * standardize(x, stats)
            + b * standardize(y, stats)
            + (a + b - 1) * stats.mu / stats.sigma
        )
        np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-9)


class TestEventIO:
    def test_parse_event_round_trip(self):
        from etlwatch.preprocess import event_to_dict

        event = make_event()
        assert parse_event(event_to_dict(event)) == event

    def test_parse_event_missing_field(self):
        with pytest.raises(ContractViolationError, match="amount"):
            parse_event({"timestamp": 0})

    def test_read_jsonl_skips_blank_lines_and_numbers_the_rest(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"a": 1}\n\n  \n{"a": 2}\n')
        assert read_jsonl(path, lambda record, line_no: (record["a"], line_no)) == [
            (1, 1), (2, 4)
        ]

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b"[1, 2]", "not a JSON object"),
            (b'{"b": 1}', "no field 'a'"),
            (b'{"a": -1}', "negative"),
        ],
    )
    def test_read_jsonl_bad_line_names_file_and_line(self, tmp_path, line, reason):
        def parse(record, line_no):
            if int(record["a"]) < 0:
                raise InsufficientDataError("negative")
            return record["a"]

        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"a": 1}\n' + line + b"\n")
        with pytest.raises(ContractViolationError) as info:
            read_jsonl(path, parse)
        message = str(info.value)
        assert message.startswith(f"{path} line 2: ") and reason in message

    def test_nonfinite_numeric_rejected(self):
        with pytest.raises(ContractViolationError, match="latency_ms"):
            make_event(latency_ms=float("nan"))
