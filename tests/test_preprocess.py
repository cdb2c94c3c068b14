import json
import math
import re

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
    EventBatch,
    FeatureSchema,
    encode_events,
    event_to_dict,
    fit_stats,
    hour_angle,
    parse_event,
    read_jsonl,
    standardize,
    vectorize,
    vectorize_events,
)
import reference
from reference import read_jsonl as per_line_read_jsonl
from reference import vectorize_row

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


# Values a masked field may hold, since EtlEvent checks only present fields;
# the encoder must never read them.
MASKED_VALUE = st.one_of(st.floats(), st.none(), st.just("n/a"))
TRUTHY_OR_NOT = st.sampled_from([False, True, 0, 1, 2, "", "x", None, (), (0,)])


@st.composite
def events(draw):
    """Events with masked NaN/inf values, odd mask entries and unknown categories."""
    mask = tuple(draw(TRUTHY_OR_NOT) for _ in range(3))
    numerics = {
        name: draw(MASKED_VALUE if missing else st.floats(allow_nan=False, allow_infinity=False))
        for name, missing in zip(("amount", "latency_ms", "task_duration_s"), mask)
    }
    return EtlEvent(
        timestamp=draw(st.integers(min_value=-(2**62), max_value=2**62)),
        records_loaded=draw(
            st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.floats(-1e9, 1e9))
        ),
        device_type=draw(st.sampled_from([*SCHEMA.device_types, "tablet", "", "WEB"])),
        geo_region=draw(st.sampled_from([*SCHEMA.geo_regions, "mars", "EU"])),
        missing_mask=mask,
        event_id=draw(st.text(max_size=5)),
        **numerics,
    )


def reference_rows(chunk):
    """Per-event reference encodings: the rows, and (position, error) for the rest."""
    rows, errors = [], []
    for position, event in enumerate(chunk):
        try:
            rows.append(vectorize_row(event, SCHEMA))
        except EncodingError as exc:
            errors.append((position, exc))
    return np.array(rows, dtype=np.float64).reshape(-1, SCHEMA.dim), errors


def describe(errors):
    return [(position, exc.field, exc.value, str(exc)) for position, exc in errors]


class TestEncodeEvents:
    @given(st.lists(events(), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_event_reference_bit_for_bit(self, chunk):
        x, errors = encode_events(chunk, SCHEMA)
        want_x, want_errors = reference_rows(chunk)
        assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
        assert describe(errors) == describe(want_errors)
        for event in chunk:
            try:
                want = vectorize_row(event, SCHEMA)
            except EncodingError as exc:
                with pytest.raises(EncodingError, match=f"^{re.escape(str(exc))}$"):
                    vectorize(event, SCHEMA)
                continue
            assert vectorize(event, SCHEMA).tobytes() == want.tobytes()

    @given(st.lists(events(), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_vectorize_events_raises_the_first_error(self, chunk):
        _, want_errors = reference_rows(chunk)
        if not want_errors:
            assert vectorize_events(chunk, SCHEMA).tobytes() == reference_rows(chunk)[0].tobytes()
            return
        with pytest.raises(EncodingError) as info:
            vectorize_events(chunk, SCHEMA)
        first = want_errors[0][1]
        assert (info.value.field, info.value.value) == (first.field, first.value)

    def test_device_is_checked_before_region(self):
        event = make_event(device_type="tablet", geo_region="mars")
        with pytest.raises(EncodingError) as info:
            vectorize_row(event, SCHEMA)
        assert info.value.field == "device_type"
        _, errors = encode_events([make_event(), event], SCHEMA)
        assert describe(errors) == describe([(1, info.value)])

    def test_chunk_where_every_event_fails(self):
        chunk = [make_event(device_type="tablet"), make_event(geo_region="mars")] * 3
        x, errors = encode_events(chunk, SCHEMA)
        assert x.shape == (0, SCHEMA.dim)
        assert [(position, exc.field) for position, exc in errors] == [
            (i, "device_type" if i % 2 == 0 else "geo_region") for i in range(6)
        ]

    def test_masked_nan_and_inf_encode_as_zero(self):
        event = make_event(
            amount=math.nan, latency_ms=math.inf, missing_mask=(True, True, False)
        )
        x = vectorize(event, SCHEMA)
        assert x.tobytes() == vectorize_row(event, SCHEMA).tobytes()
        assert np.all(np.isfinite(x)) and x[0] == x[1] == 0.0


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


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Blanks JSON allows (" \t\r") and ones it does not: a form feed, a BOM,
# a no-break space.
LINE_EDGE = st.sampled_from(["", "", " ", "\t", "\r", " \t\r", "\x0c", "\ufeff", "\xa0"])


@st.composite
def jsonl_line(draw):
    """One line of a JSON-lines file, without its newline: mostly a JSON
    value (an object more often than not) between blanks, sometimes a blank
    line, trailing data, half of a value split over two lines or bytes that
    are not UTF-8."""
    kind = draw(st.sampled_from(["object", "object", "object", "value", "blank", "odd"]))
    if kind == "blank":
        return draw(st.sampled_from([b"", b" ", b"\t", b"\r", b" \r", b"\x0b\x0c"]))
    if kind == "odd":
        return draw(st.sampled_from(
            [b'{"x": [1', b"2]}", b'{"a": 1} {"b": 2}', b'{"a": 1}x', b"NaN", b"-Infinity",
             b"\xff\xfe", b'{"a": "\xc3"}', b"{", b'{"a": NaN}', b'{"a": 1,}']
        ))
    if kind == "object":
        value = draw(st.dictionaries(st.text(max_size=3), JSON_VALUE, max_size=3))
    else:
        value = draw(JSON_VALUE)
    text = json.dumps(value, ensure_ascii=draw(st.booleans()))
    return (draw(LINE_EDGE) + text + draw(LINE_EDGE | st.just(" 1"))).encode("utf-8")


class TestEventIO:
    def test_parse_event_round_trip(self):
        event = make_event()
        assert parse_event(event_to_dict(event)) == event

    def test_parse_event_missing_field(self):
        with pytest.raises(ContractViolationError, match="amount"):
            parse_event({"timestamp": 0})

    @pytest.mark.parametrize("text", ["null", '"n/a"', "1e999"])
    def test_masked_value_is_kept_as_read(self, text):
        record = event_to_dict(make_event(amount=0.0, missing_mask=(True, False, False)))
        zero = parse_event(record)
        record["amount"] = json.loads(text)
        event = parse_event(record)
        assert event.amount is record["amount"]
        np.testing.assert_array_equal(vectorize(event, SCHEMA), vectorize(zero, SCHEMA))

    def test_masked_field_is_still_required(self):
        record = event_to_dict(make_event(missing_mask=(True, False, False)))
        del record["amount"]
        with pytest.raises(ContractViolationError, match="amount"):
            parse_event(record)

    @pytest.mark.parametrize("field", ["amount", "latency_ms", "task_duration_s"])
    @pytest.mark.parametrize(
        "value, shown", [(None, "None"), ("abc", "'abc'"), ([], "[]"), ("5_0.0", "'5_0.0'")]
    )
    def test_unreadable_number_names_its_field(self, field, value, shown):
        record = event_to_dict(make_event())
        record[field] = value
        with pytest.raises(ContractViolationError) as info:
            parse_event(record)
        assert str(info.value) == f"field {field!r} must be a number, got {shown}"

    @pytest.mark.parametrize("field", ["timestamp", "records_loaded"])
    @pytest.mark.parametrize("value", [None, "abc", "7.9", " 8 "])
    def test_unreadable_integer_names_its_field(self, field, value):
        record = event_to_dict(make_event())
        record[field] = value
        with pytest.raises(ContractViolationError) as info:
            parse_event(record)
        assert str(info.value) == f"field {field!r} must be an integer, got {value!r}"

    @pytest.mark.parametrize("field", ["timestamp", "records_loaded"])
    @pytest.mark.parametrize("text", ["1e999", "Infinity", "NaN", "7.9"])
    def test_integer_field_rejects_a_non_integral_float(self, field, text):
        record = event_to_dict(make_event())
        record[field] = json.loads(text)
        with pytest.raises(ContractViolationError, match=f"'{field}' must be an integer"):
            parse_event(record)

    @pytest.mark.parametrize("field", ["timestamp", "records_loaded"])
    def test_integer_field_accepts_an_integral_float(self, field):
        record = event_to_dict(make_event())
        record[field] = 7.0
        value = getattr(parse_event(record), field)
        assert value == 7 and type(value) is int

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

    @given(st.lists(jsonl_line(), max_size=6), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_read_jsonl_matches_per_line_json_loads(self, tmp_path_factory, lines, final_newline):
        path = tmp_path_factory.mktemp("jsonl") / "lines.jsonl"
        path.write_bytes(b"\n".join(lines) + (b"\n" if final_newline else b""))
        outcomes = []
        for read in (read_jsonl, per_line_read_jsonl):
            try:
                # repr, because a decoded NaN is not equal to itself
                outcomes.append(repr(read(path, lambda record, line_no: (record, line_no))))
            except ContractViolationError as exc:
                outcomes.append(f"error: {exc}")
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("mask", [["false", False, False], [0, 0, 0], [None, True, False]])
    def test_mask_entries_must_be_booleans(self, mask):
        record = event_to_dict(make_event())
        record["missing_mask"] = mask
        with pytest.raises(ContractViolationError) as info:
            parse_event(record)
        assert str(info.value) == f"field 'missing_mask' must be an array of booleans, got {mask!r}"

    def test_nonfinite_numeric_rejected(self):
        with pytest.raises(ContractViolationError, match="latency_ms"):
            make_event(latency_ms=float("nan"))


class TestEventBatch:
    @given(st.lists(events(), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_holds_the_events_it_was_built_from(self, chunk):
        batch = EventBatch.from_events(chunk)
        assert EventBatch.from_events(batch) is batch
        assert len(batch) == len(chunk)
        # repr, because a masked NaN is not equal to itself
        assert repr(list(batch)) == repr(chunk)
        assert repr([batch[i] for i in range(len(chunk))]) == repr(chunk)
        assert repr(list(batch[1::2])) == repr(chunk[1::2])
        keep = [i % 3 != 1 for i in range(len(chunk))]
        assert repr(list(batch.where(keep))) == repr([e for e, k in zip(chunk, keep) if k])
        halves = EventBatch.concat([batch[:5], batch[5:]])
        assert repr(list(halves)) == repr(chunk)
        x, errors = encode_events(chunk, SCHEMA)
        x_batch, errors_batch = encode_events(batch, SCHEMA)
        assert x.tobytes() == x_batch.tobytes() and describe(errors) == describe(errors_batch)

    def test_columns_must_have_one_length(self):
        with pytest.raises(ContractViolationError):
            EventBatch([1], [2.0], [3.0], [4.0], [5], ["web"], ["eu"], [(False,) * 3], [])


LEFT_OUT = object()
# Faults each field of an event record can have, checked in a fixed order;
# a fully masked mask is valid and lets the numeric faults through.
FAULTS = [
    ("timestamp", value) for value in (LEFT_OUT, "8", 7.9, math.inf, None, True)
] + [
    ("amount", value) for value in (LEFT_OUT, "5_0.0", True, math.inf, math.nan, 10**400)
] + [
    ("latency_ms", value) for value in (LEFT_OUT, None, -math.inf)
] + [
    ("task_duration_s", value) for value in (LEFT_OUT, "61", math.nan, [])
] + [
    ("records_loaded", value) for value in (LEFT_OUT, " 8 ", 7.9, 10**400, False)
] + [
    ("device_type", LEFT_OUT), ("geo_region", LEFT_OUT), ("event_id", None), ("event_id", 5),
] + [
    ("missing_mask", value)
    for value in (LEFT_OUT, "abc", ["false", False, False], [0, 0, 0], [True, False],
                  [False] * 4, [True] * 3, [True, False, True])
]


def outcome(parse, record):
    try:
        return repr(parse(record))
    except (ContractViolationError, OverflowError) as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("first_fault", FAULTS, ids=repr)
def test_faults_in_one_record_give_the_per_record_check_order(first_fault):
    """Every pair of faults in one record: the column check names the one a
    field-by-field check meets first."""
    for second_fault in FAULTS:
        record = event_to_dict(make_event())
        for field, value in (first_fault, second_fault):
            if value is LEFT_OUT:
                record.pop(field, None)
            else:
                record[field] = value
        assert outcome(parse_event, record) == outcome(reference.parse_event, record)
