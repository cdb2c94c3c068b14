import gc
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from etlwatch import cli, detector, preprocess, streamgen
from etlwatch.autoencoder import AutoencoderParams
from etlwatch.detector import (
    Detections,
    read_detections_jsonl,
    score_stream,
    write_detections_csv,
    write_detections_jsonl,
)
from etlwatch.errors import (
    ContractViolationError,
    EncodingError,
    EtlwatchError,
    InsufficientDataError,
    UndefinedMetricError,
)
from etlwatch.preprocess import (
    EtlEvent,
    EventBatch,
    FeatureSchema,
    encode_events,
    fit_stats,
    parse_event,
    read_chunks,
    standardize,
    vectorize,
    vectorize_events,
)
from etlwatch.evaluation import make_bundle, metrics_at_threshold, write_metrics_report
from etlwatch.streamgen import (
    StreamConfig,
    generate,
    labels_sibling_path,
    read_stream,
    write_labeled_events,
)
import reference
from reference import read_jsonl as per_line_read_jsonl
from reference import event_to_dict, hour_angle, vectorize_row

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
        assert vectorize(make_event()).shape == (16,)

    def test_column_names_name_every_slot(self):
        names = SCHEMA.column_names()
        assert len(names) == len(set(names)) == SCHEMA.dim == 16

    def test_all_present_means_zero_indicators(self):
        x = vectorize(make_event())
        names = SCHEMA.column_names()
        for i, name in enumerate(names):
            if name.endswith("_missing"):
                assert x[i] == 0.0

    def test_device_change_only_touches_its_one_hot_block(self):
        a = vectorize(make_event(device_type="web"))
        b = vectorize(make_event(device_type="pos"))
        names = SCHEMA.column_names()
        differing = {names[i] for i in np.nonzero(a != b)[0]}
        assert differing == {"device_type=web", "device_type=pos"}

    def test_midnight_time_features(self):
        # default start timestamp is exactly midnight UTC
        x = vectorize(make_event())
        assert x[-2] == pytest.approx(0.0, abs=1e-12)  # sin
        assert x[-1] == pytest.approx(1.0)  # cos

    def test_missing_field_emits_zero_and_indicator(self):
        event = make_event(amount=0.0, missing_mask=(True, False, False))
        x = vectorize(event)
        names = SCHEMA.column_names()
        assert x[names.index("amount")] == 0.0
        assert x[names.index("amount_missing")] == 1.0

    def test_unknown_categorical_names_field_and_value(self):
        with pytest.raises(EncodingError, match="device_type.*tablet"):
            vectorize(make_event(device_type="tablet"))
        with pytest.raises(EncodingError, match="geo_region"):
            vectorize(make_event(geo_region="mars"))

    def test_deterministic(self):
        event = make_event()
        np.testing.assert_array_equal(vectorize(event), vectorize(event))

    def test_hour_angle_wraps_daily(self):
        assert hour_angle(0) == 0.0
        assert hour_angle(86_400_000) == 0.0
        assert hour_angle(43_200_000) == pytest.approx(math.pi)

    def test_encoded_hour_columns_have_hour_angle_bits(self):
        # the encoder takes each day's milliseconds as a Python int, then
        # computes the angles of a run as one float64 expression
        angles = {
            0: "0x0.0p+0",
            -1: "0x1.921fb4f62d221p+2",
            preprocess.MS_PER_DAY - 1: "0x1.921fb4f62d221p+2",
            preprocess.MS_PER_DAY: "0x0.0p+0",
            2**63 + 5: "0x1.e396731627307p+0",
            10**30: "0x1.dc975b9345b5ep-2",
        }
        x, failed = encode_events([make_event(timestamp=t) for t in angles])
        assert not failed
        for (t, angle), row in zip(angles.items(), x):
            assert hour_angle(t).hex() == angle
            assert [v.hex() for v in row[-2:].tolist()] == [
                math.sin(hour_angle(t)).hex(), math.cos(hour_angle(t)).hex()]


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
            rows.append(vectorize_row(event))
        except EncodingError as exc:
            errors.append((position, exc))
    return np.array(rows, dtype=np.float64).reshape(-1, SCHEMA.dim), errors


def describe(errors):
    return [(position, exc.field, exc.value, str(exc)) for position, exc in errors]


class TestEncodeEvents:
    @given(st.lists(events(), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_event_reference_bit_for_bit(self, chunk):
        x, errors = encode_events(chunk)
        want_x, want_errors = reference_rows(chunk)
        assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
        assert describe(errors) == describe(want_errors)
        for event in chunk:
            try:
                want = vectorize_row(event)
            except EncodingError as exc:
                with pytest.raises(EncodingError, match=f"^{re.escape(str(exc))}$"):
                    vectorize(event)
                continue
            assert vectorize(event).tobytes() == want.tobytes()

    @given(st.lists(events(), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_vectorize_events_raises_the_first_error(self, chunk):
        _, want_errors = reference_rows(chunk)
        if not want_errors:
            assert vectorize_events(chunk).tobytes() == reference_rows(chunk)[0].tobytes()
            return
        with pytest.raises(EncodingError) as info:
            vectorize_events(chunk)
        first = want_errors[0][1]
        assert (info.value.field, info.value.value) == (first.field, first.value)

    def test_device_is_checked_before_region(self):
        event = make_event(device_type="tablet", geo_region="mars")
        with pytest.raises(EncodingError) as info:
            vectorize_row(event)
        assert info.value.field == "device_type"
        _, errors = encode_events([make_event(), event])
        assert describe(errors) == describe([(1, info.value)])

    def test_chunk_where_every_event_fails(self):
        chunk = [make_event(device_type="tablet"), make_event(geo_region="mars")] * 3
        x, errors = encode_events(chunk)
        assert x.shape == (0, SCHEMA.dim)
        assert [(position, exc.field) for position, exc in errors] == [
            (i, "device_type" if i % 2 == 0 else "geo_region") for i in range(6)
        ]

    def test_masked_nan_and_inf_encode_as_zero(self):
        event = make_event(
            amount=math.nan, latency_ms=math.inf, missing_mask=(True, True, False)
        )
        x = vectorize(event)
        assert x.tobytes() == vectorize_row(event).tobytes()
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

    @pytest.mark.parametrize("n", [2, 1023, 1024, 1025, 2048, 2049, 2050, 3071])
    def test_equals_the_whole_set_mean_and_std_bit_for_bit(self, n):
        # the sums run a chunk of rows at a time; n = 0, 1, 2 mod the chunk and odd
        assert preprocess._CHUNK == 1024
        rng = np.random.default_rng(n)
        x = rng.normal(rng.uniform(-1e4, 1e4, 16), rng.uniform(1e-3, 1e3, 16), size=(n, 16))
        x[:, 7:10] = rng.integers(0, 2, size=(n, 3))  # indicator columns
        x[:, 10] = 5.0  # a constant column, whose sigma is floored
        x[0, 11] = -0.0
        got, want = fit_stats(x), reference.fit_stats(x)
        assert got.mu.tobytes() == want.mu.tobytes()
        assert got.sigma.tobytes() == want.sigma.tobytes()


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

    @pytest.mark.parametrize("shape", [(16,), (1, 16), (2_000, 16)])
    def test_equals_a_fresh_difference_bit_for_bit_and_leaves_its_input(self, shape):
        rng = np.random.default_rng(len(shape))
        stats = preprocess.StandardizationStats(mu=rng.normal(size=16) * 100,
                                                sigma=np.r_[1e-8, rng.uniform(1e-3, 1e3, 15)])
        x = rng.normal(scale=1e3, size=shape)
        before = x.copy()
        z = standardize(x, stats)
        assert z.tobytes() == reference.standardize(x, stats).tobytes()
        assert x.tobytes() == before.tobytes()
        assert not np.shares_memory(z, x)
        # into out, the input itself included
        assert standardize(x, stats, out=x) is x
        assert x.tobytes() == z.tobytes()

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
             b"\xff\xfe", b'{"a": "\xc3"}', b"{", b'{"a": NaN}', b'{"a": 1,}',
             b'{"a": 18446744073709551616}', b'{"a": -9223372036854775809}', b'{"a": 1e400}',
             b'{"a": "\\ud800"}', b'{"a": "\x01"}', b'\xef\xbb\xbf{"a": 1}', b'{"a": 1}\x0c']
        ))
    if kind == "object":
        value = draw(st.dictionaries(st.text(max_size=3), JSON_VALUE, max_size=3))
    else:
        value = draw(JSON_VALUE)
    text = json.dumps(value, ensure_ascii=draw(st.booleans()))
    return (draw(LINE_EDGE) + text + draw(LINE_EDGE | st.just(" 1"))).encode("utf-8")


# Integers of 18, 19 and 20 or more digits on both sides of -2**63, 2**63
# and 2**64: orjson reads one outside the 64-bit range as a float.
EDGE_INTEGERS = [
    10**18 - 1, 10**18, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, 10**25,
    -(10**18) + 1, -(10**18), -(2**63) + 1, -(2**63), -(2**63) - 1, -(2**64), -(10**25),
]
# Lines whose values or errors orjson could give differently from json.
EDGE_LINES = [
    *(b'{"a": %d, "b": [%d]}' % (n, n) for n in EDGE_INTEGERS),
    *(b'{"a": %s}' % text for text in (b"-0", b"-0.0", b"1e400", b"-1e400", b"1e-400")),
    *(b'{"a": %s}' % text for text in (b"NaN", b"Infinity", b"-Infinity")),
    b'{"a": 1.7976931348623157e308, "b": 1.7976931348623159e308}',
    b'{"a": "\\ud800"}', b'{"a": "\\udc00\\ud800"}', b'{"a": "\\ud83d\\ude00"}',
    b'{"a": "x\x01y"}', b'{"a": "\t"}', b'{"a": "\x7f"}',
    b'\xef\xbb\xbf{"a": 1}', b'{"a": 1}\x0c', b'\x0c{"a": 1}', b"\x0c", b"\x0b\x0c",
    b'{"id": "12345678901234567890"}',  # a run of digits in a string
    b'{"a": %s}' % (b"[" * 200 + b"]" * 200),  # short enough for orjson
    b'{"a": %s}' % (b"[" * 600 + b"]" * 600),  # too long: json decodes it
]


def json_lines(path, parse=lambda record, line_no: (record, line_no)):
    """``parse(record, line_no)`` of each record that ``_json_runs`` decodes,
    or the error of its first bad line."""
    out = []
    with open(path, "rb") as fh:
        for line_nos, records, failure in preprocess._json_runs(fh, path):
            out += map(parse, records, line_nos)
            if failure is not None:
                raise failure
    return out


def same_outcome(path):
    """_json_runs' records and line numbers, or its error, against those of
    one json.loads per line."""
    outcomes = []
    for read in (json_lines, per_line_read_jsonl):
        try:
            # repr, because a decoded NaN is not equal to itself
            outcomes.append(repr(read(path, lambda record, line_no: (record, line_no))))
        except ContractViolationError as exc:
            outcomes.append(f"error: {exc}")
    assert outcomes[0] == outcomes[1]


def nested(depth, inner=None):
    """``inner`` inside ``depth`` arrays, built without recursion."""
    for _ in range(depth):
        inner = [inner]
    return inner


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
        np.testing.assert_array_equal(vectorize(event), vectorize(zero))

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

    def test_json_runs_skip_blank_lines_and_number_the_rest(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"a": 1}\n\n  \n{"a": 2}\n')
        assert json_lines(path, lambda record, line_no: (record["a"], line_no)) == [
            (1, 1), (2, 4)
        ]

    @pytest.mark.parametrize(
        "body", [b'{"a": 1}\n{"a": 2}\n', b'{"a": 1}\n\n{"a": 2}\n'], ids=["orjson", "json"]
    )
    def test_json_runs_let_a_block_s_lines_go_before_its_records_are_checked(
        self, tmp_path, body
    ):
        # orjson takes no block with a blank line
        path = tmp_path / "records.jsonl"
        path.write_bytes(body)
        with open(path, "rb") as fh:
            runs = preprocess._json_runs(fh, path)
            assert [record["a"] for record in next(runs)[1]] == [1, 2]
            assert "lines" not in runs.gi_frame.f_locals

    def test_json_runs_bad_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"a": 1}\n[1, 2]\n{"a": 3}\n')
        with pytest.raises(ContractViolationError) as info:
            json_lines(path)
        assert str(info.value) == f"{path} line 2: not a JSON object"

    @given(st.lists(jsonl_line(), max_size=6), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_json_runs_match_per_line_json_loads(self, tmp_path_factory, lines, final_newline):
        path = tmp_path_factory.mktemp("jsonl") / "lines.jsonl"
        path.write_bytes(b"\n".join(lines) + (b"\n" if final_newline else b""))
        same_outcome(path)

    @pytest.mark.parametrize("line", EDGE_LINES, ids=lambda line: repr(line[:40]))
    @pytest.mark.parametrize("alone", [True, False], ids=["alone", "after-a-block"])
    def test_json_runs_match_per_line_json_loads_on_edge_lines(self, tmp_path, line, alone):
        # after a block, the line is the first of the second block of lines
        block = b"" if alone else b'{"a": 1, "b": [2.5, null]}\n' * preprocess._CHUNK
        path = tmp_path / "lines.jsonl"
        path.write_bytes(block + line + b'\n{"c": "d"}\n')
        same_outcome(path)

    @pytest.mark.parametrize("nan", [False, True], ids=["plain", "with-NaN"])
    def test_a_line_nested_too_deeply_is_a_bad_line(self, tmp_path, nan):
        # the line is too long for orjson, which would also reject the NaN
        path = tmp_path / "lines.jsonl"
        deep = b"[" * 3000 + b"]" * 3000
        path.write_bytes(b'{"a": 1}\n{"a": %s%s}\n' % (deep, b', "b": NaN' if nan else b""))
        with pytest.raises(ContractViolationError) as info:
            json_lines(path)
        assert str(info.value) == (
            f"{path} line 2: maximum recursion depth exceeded while decoding a JSON array"
            " from a unicode string"
        )

    @pytest.mark.parametrize("field", [
        "timestamp", "amount", "missing_mask", "records_loaded", "device_type", "geo_region",
        "event_id",
    ])
    def test_a_value_too_deep_to_show_is_a_check_failure(self, field):
        record = event_to_dict(make_event())
        record[field] = nested(5000)
        with pytest.raises(ContractViolationError, match="maximum recursion depth exceeded"):
            parse_event(record)

    def test_orjson_is_imported_by_the_first_read_not_by_the_cli(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b'{"a": 1}\n')
        code = (
            "import sys, etlwatch.cli, etlwatch.preprocess as p\n"
            "assert 'orjson' not in sys.modules\n"
            "with open(sys.argv[1], 'rb') as fh: list(p._json_runs(fh, sys.argv[1]))\n"
            "assert 'orjson' in sys.modules\n"
        )
        paths = [str(Path(preprocess.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)

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
        x, errors = encode_events(chunk)
        x_batch, errors_batch = encode_events(batch)
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
def test_faults_in_one_record_give_the_per_record_check_order(tmp_path, first_fault):
    """Every pair of faults in one record: the record check, and a stream
    read that meets the record as its line 2, name the one a field-by-field
    check meets first."""
    good = json.dumps(event_to_dict(make_event()))
    path = tmp_path / "stream.jsonl"
    for second_fault in FAULTS:
        record = event_to_dict(make_event())
        for field, value in (first_fault, second_fault):
            if value is LEFT_OUT:
                record.pop(field, None)
            else:
                record[field] = value
        want = outcome(reference.parse_event, record)
        assert outcome(parse_event, record) == want
        path.write_text("\n".join([good, json.dumps(record), good]) + "\n")
        if want.startswith("error: "):
            with pytest.raises(ContractViolationError) as info:
                read_stream(path)
            assert str(info.value) == f"{path} line 2: {want.removeprefix('error: ')}"
        else:  # repr, because a masked NaN is not equal to itself
            assert repr(list(read_stream(path)[0])) == repr(reference.read_stream(path)[0])


# --- reading a file in line-aligned byte ranges ---------------------------------

FORK = "fork" in multiprocessing.get_all_start_methods() and hasattr(os, "sched_getaffinity")
needs_fork = pytest.mark.skipif(not FORK, reason="ranged reads need fork and sched_getaffinity")


def claim_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def split(monkeypatch):
    """Split every file, and claim ``n`` CPUs with ``split(n)``."""
    monkeypatch.setattr(preprocess, "_SPLIT_BYTES", 1)
    return lambda n: claim_cpus(monkeypatch, n)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Whether the cyclic garbage collector is enabled when the test starts:
    as it is, or disabled by the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def stream_body(
    *, bad: dict[int, bytes] = {}, change: dict[int, dict] = {}, labels: bool = True
) -> bytes:
    """Eight stream lines: LF and CRLF ends, a blank and a whitespace-only
    line, a line that starts with blanks, a record without an id (it gets
    ``line-6``) and a last line without a newline. The six records are
    labeled inline unless ``labels`` is false, ``change`` updates records by
    their index, and ``bad`` replaces lines by their index."""
    records = [
        event_to_dict(make_event(amount=float(i), event_id=f"e-{i}"))
        | ({"label": i % 2 == 0} if labels else {})
        | change.get(i, {})
        for i in range(6)
    ]
    del records[3]["event_id"]
    lines = [json.dumps(record).encode() for record in records]
    lines = [
        lines[0] + b"\n", lines[1] + b"\r\n", b"\n", b" \t \r\n", b"  " + lines[2] + b"\n",
        lines[3] + b"\r\n", lines[4] + b"\n", lines[5],
    ]
    for i, line in bad.items():
        lines[i] = line + lines[i][len(lines[i].rstrip()):]
    return b"".join(lines)


def detection_body(*, bad: dict[int, bytes] = {}) -> bytes:
    lines = [
        b'{"event_id": "a", "score": 0.5, "is_anomaly": false, "truth_label": true}\r\n',
        b'\n',
        b'{"event_id": "b", "error": "unknown geo_region \'mars\'"}\n',
        b' \t \n',
        b'{"event_id": "c", "score": Infinity, "is_anomaly": true}\n',
        b'{"event_id": "d", "score": 2, "is_anomaly": true, "truth_label": null}\n',
        b'{"event_id": "e", "score": 0.25, "is_anomaly": false, "truth_label": false}',
    ]
    for i, line in bad.items():
        lines[i] = line + lines[i][len(lines[i].rstrip()):]
    return b"".join(lines)


def split_at(body: bytes, t: int) -> bytes:
    """``body`` padded with blanks so that a read in two ranges seeks to its
    byte ``t``: blanks before the first line move the midpoint back, and
    blanks after the last line move it forward."""
    n = len(body)
    return b" " * (n - 2 * t) + body if 2 * t < n else body + b" " * (2 * t - n)


def near_line_starts(body: bytes) -> list[int]:
    """Offsets at and just before every line start: a seek there lands on a
    line start, on a newline, or on a CR or inside a line."""
    starts = [0] + [i + 1 for i, byte in enumerate(body) if byte == ord("\n")]
    return sorted({t for s in starts for t in (s - 2, s - 1, s) if 0 <= t < len(body)})


def read_outcome(read, path):
    """What a read gives, as pickle bytes, or its error's type and text."""
    try:
        return pickle.dumps(read(path))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


CASES = [
    (read_stream, stream_body(), None),
    (read_stream, stream_body(bad={6: b"{broken"}), "line 7: Expecting property name"),
    (read_stream, stream_body(bad={5: b'{"missing_mask": ["false"]}'}),
     "line 6: event record is missing field 'timestamp'"),
    # a bad record early and an undecodable line late; then the other way round
    (read_stream, stream_body(bad={1: b"[1]", 7: b'{"timestamp": 1}'}),
     "line 2: not a JSON object"),
    (read_stream, stream_body(bad={0: b'{"timestamp": "8"}', 6: b"{broken"}),
     "line 1: field 'timestamp' must be an integer"),
    (read_stream, stream_body(change={4: {"timestamp": 2**70, "records_loaded": -(2**63) - 1}}),
     None),
    (read_stream, stream_body(bad={4: b'{"junk": %s}' % (b"[" * 3000 + b"]" * 3000)}),
     "line 5: maximum recursion depth exceeded"),
    (read_detections_jsonl, detection_body(), None),
    (read_detections_jsonl, detection_body(bad={5: b'{"event_id": "d", "score": NaN}'}),
     "line 6: field 'score' must not be NaN"),
    (read_detections_jsonl, detection_body(bad={2: b'{"score": 1}', 6: b"{broken"}),
     "line 3: no field 'event_id'"),
    # an id is held as text, so one of another type is refused, not kept
    (read_detections_jsonl, detection_body(bad={2: b'{"event_id": 5, "error": "boom"}'}),
     "line 3: field 'event_id' must be a string, got 5"),
    # an error is written as text, so one of another type is refused, not kept
    (read_detections_jsonl, detection_body(bad={2: b'{"event_id": "a", "error": null}'}),
     "line 3: field 'error' must be a string, got None"),
]


# Detection files that evaluate reads: every scored record labeled, with
# detection_body's error record, Infinity score, int score, blanks and line
# ends; then with a NaN score, which it refuses.
LABELED_C = b'{"event_id": "c", "score": Infinity, "is_anomaly": true, "truth_label": false}'
EVALUATED = {
    "labeled": detection_body(bad={
        4: LABELED_C, 5: b'{"event_id": "d", "score": 2, "is_anomaly": true, "truth_label": true}'
    }),
    "nan-score": detection_body(bad={
        4: LABELED_C, 5: b'{"event_id": "d", "score": NaN, "is_anomaly": true, "truth_label": true}'
    }),
}


@needs_fork
class TestRangedRead:
    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("read, body, error", CASES, ids=range(len(CASES)))
    def test_same_result_and_error_as_one_range_at_every_split(
        self, tmp_path, split, collector, cpus, read, body, error
    ):
        path = tmp_path / "lines.jsonl"
        # two ranges split at every line start; three at some of them
        for t in near_line_starts(body)[:: cpus - 1]:
            path.write_bytes(split_at(body, t))
            split(1)
            want = read_outcome(read, path)
            if error is not None:
                assert want.startswith("ContractViolationError: ") and error in want
            assert gc.isenabled() is collector
            split(cpus)
            assert read_outcome(read, path) == want, f"split at byte {t}"
            assert gc.isenabled() is collector
            assert not multiprocessing.active_children()

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("body", EVALUATED.values(), ids=list(EVALUATED))
    def test_evaluate_reports_the_columns_of_a_one_range_read_at_every_split(
        self, tmp_path, split, cpus, body
    ):
        path, report, theirs = tmp_path / "det.jsonl", tmp_path / "r.json", tmp_path / "theirs"
        args = ["evaluate", str(path), "--delta", "1", "--out", str(report)]
        for t in near_line_starts(body)[:: cpus - 1]:
            path.write_bytes(split_at(body, t))
            report.unlink(missing_ok=True)
            split(1)
            try:
                read = read_detections_jsonl(path)
            except ContractViolationError as exc:
                want = f"Error: {exc}"
            else:
                write_metrics_report(metrics_at_threshold(read.scores, read.truth, 1.0), theirs, "json")
                want = theirs.read_bytes()
            split(cpus)
            result = CliRunner().invoke(cli.main, args)
            got = report.read_bytes() if result.exit_code == 0 else result.output.strip()
            assert got == want, f"split at byte {t}"
            assert not multiprocessing.active_children()

    def test_each_cpu_reads_one_range_and_numbers_its_lines(self, tmp_path, split):
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b"".join(b'{"a": %d}\n' % i for i in range(30)))
        split(3)
        parts = read_chunks(path, {"a": None}, lambda records: (
            os.getpid(), list(records.line_nos), records.values["a"]
        ))
        pids = [pid for pid, _, _ in parts]
        assert len(parts) == 3 and pids[0] == os.getpid() and len(set(pids)) == 3
        assert [n for _, line_nos, _ in parts for n in line_nos] == list(range(1, 31))
        assert [a for _, _, values in parts for a in values] == list(range(30))
        assert not multiprocessing.active_children()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_is_read_in_one_range(self, tmp_path, split):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        split(3)
        writer = threading.Thread(target=fifo.write_bytes, args=(stream_body(),))
        writer.start()
        try:
            events, labels, _ = read_stream(fifo)
        finally:
            writer.join()
        assert events.event_id == ["e-0", "e-1", "e-2", "line-6", "e-4", "e-5"]
        assert labels == [True, False, True, False, True, False]
        writer = threading.Thread(target=fifo.write_bytes, args=(stream_body(),))
        writer.start()
        try:
            parts = read_chunks(fifo, {}, lambda records: os.getpid())
        finally:
            writer.join()
        assert parts == [os.getpid()]


@needs_fork
class TestReaderProcesses:
    """A worker's death or exception, and the caller's own, end the read
    with an error and leave no process behind."""

    @pytest.fixture
    def path(self, tmp_path, split):
        split(3)
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b"".join(b'{"a": %d}\n' % i for i in range(30)))
        return path

    def test_worker_that_dies_without_sending_is_an_error(self, path):
        caller = os.getpid()

        def dies_in_a_worker(records):
            if os.getpid() != caller:
                os._exit(3)
            return records.values["a"]

        with pytest.raises(EtlwatchError, match="reader process ended with exit code 3"):
            read_chunks(path, {"a": None}, dies_in_a_worker)
        assert not multiprocessing.active_children()

    def test_worker_exception_reaches_the_caller(self, path):
        caller = os.getpid()

        def fails_in_a_worker(records):
            if os.getpid() != caller:
                raise UndefinedMetricError(f"failed at line {records.line_nos[0]}")
            return records.values["a"]

        with pytest.raises(UndefinedMetricError, match="failed at line 12"):
            read_chunks(path, {"a": None}, fails_in_a_worker)
        assert not multiprocessing.active_children()

    def test_caller_exception_stops_the_workers(self, path):
        caller = os.getpid()

        def fails_in_the_caller(records):
            if os.getpid() == caller:
                raise UndefinedMetricError("failed in the caller")
            time.sleep(60)  # a worker still busy is stopped, not waited for

        started = time.monotonic()
        with pytest.raises(UndefinedMetricError, match="failed in the caller"):
            read_chunks(path, {"a": None}, fails_in_the_caller)
        assert time.monotonic() - started < 30
        assert not multiprocessing.active_children()

    def test_caller_bad_line_stops_the_workers(self, path):
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"{broken\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ContractViolationError, match="line 2: Expecting property name"):
            read_chunks(path, {"a": None}, lambda records: records.values["a"])
        assert not multiprocessing.active_children()


STREAM_IDS = ["e-0", "e-1", "e-2", "line-6", "e-4", "e-5"]


def labels_file(*, without: str | None = None) -> bytes:
    """A held-out labels file for :func:`stream_body`, less one id."""
    return b"".join(
        json.dumps({"event_id": event_id, "label": i % 2 == 0, "anomaly_class": None}).encode()
        + b"\n"
        for i, event_id in enumerate(STREAM_IDS)
        if event_id != without
    )


UNKNOWN = {1: {"device_type": "toaster"}, 5: {"geo_region": "mars"}}
SCORING_CASES = [
    (stream_body(change=UNKNOWN), None, None),
    (stream_body(labels=False), labels_file(), None),
    # some labels inline and some held out, one of them an unencodable record's
    (stream_body(change={2: {"label": None}, 4: {"label": None, "device_type": "toaster"}}),
     labels_file(), None),
    (stream_body(labels=False), None, None),
    (stream_body(labels=False), labels_file(without="e-4"), "event 'e-4' has no entry in"),
    (stream_body(bad={6: b"{broken"}), None, "line 7: Expecting property name"),
    # a bad line is raised before a held-out id that the labels file lacks
    (stream_body(labels=False, bad={6: b"{broken"}), labels_file(without="e-0"),
     "line 7: Expecting property name"),
]


MODEL = AutoencoderParams(
    w_e=np.full((2, SCHEMA.dim), 0.1), b_e=np.zeros(2),
    w_d=np.full((SCHEMA.dim, 2), 0.2), b_d=np.zeros(SCHEMA.dim),
)
STATS = preprocess.StandardizationStats(mu=np.zeros(SCHEMA.dim), sigma=np.ones(SCHEMA.dim))
DELTA = 2e4


def score_one_at_a_time(path):
    """The stream at ``path`` read and scored one record at a time, each
    record without an inline label labeled from its sibling labels file."""
    events, labels, _ = reference.read_stream(path)
    labels_path = labels_sibling_path(path)
    if None in labels and labels_path.exists():
        held_out = reference.read_held_out_labels(labels_path)
        for i, event in enumerate(events):
            if labels[i] is None:
                if event.event_id not in held_out:
                    raise ContractViolationError(
                        f"event {event.event_id!r} has no entry in {labels_path}"
                    )
                labels[i] = held_out[event.event_id][0]
    return reference.score_one_at_a_time(MODEL, STATS, events, DELTA, labels)


@needs_fork
class TestRangedScoring:
    """A stream file is scored in the processes that read it, with the
    records and the error of scoring one record at a time."""

    def outcome(self, path, score_file):
        try:
            if score_file:
                d = score_stream(MODEL, STATS, path, DELTA)
            else:
                d = reference.detections(score_one_at_a_time(path))
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
        return d.event_ids(), d.scores.tolist(), d.flags.tolist(), d.truth, d.errors

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("body, labels, error", SCORING_CASES, ids=range(len(SCORING_CASES)))
    def test_same_records_and_error_as_scoring_a_one_range_read(
        self, tmp_path, split, collector, cpus, body, labels, error
    ):
        path = tmp_path / "stream.jsonl"
        if labels is not None:
            labels_sibling_path(path).write_bytes(labels)
        for t in near_line_starts(body)[:: cpus - 1]:
            path.write_bytes(split_at(body, t))
            split(1)
            want = self.outcome(path, score_file=False)
            if error is None:
                assert isinstance(want, tuple), want
            else:
                assert isinstance(want, str) and want.startswith("ContractViolationError: ") and error in want
            assert self.outcome(path, score_file=True) == want, "one range"
            assert gc.isenabled() is collector
            split(cpus)
            assert self.outcome(path, score_file=True) == want, f"split at byte {t}"
            assert gc.isenabled() is collector
            assert not multiprocessing.active_children()

    def test_ids_truth_and_errors(self, tmp_path, split):
        path = tmp_path / "stream.jsonl"
        path.write_bytes(stream_body(labels=False, change=UNKNOWN))
        labels_sibling_path(path).write_bytes(labels_file())
        split(3)
        detections = score_stream(MODEL, STATS, path, DELTA)
        assert detections.event_ids() == STREAM_IDS
        assert detections.errors == {
            1: "cannot encode field 'device_type': unknown value 'toaster'",
            5: "cannot encode field 'geo_region': unknown value 'mars'",
        }
        assert detections.truth == [True, True, False, True]
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 8])
    def test_odd_ids_come_back_whole_at_run_and_range_edges(
        self, tmp_path, monkeypatch, split, cpus, chunk
    ):
        monkeypatch.setattr(preprocess, "_CHUNK", chunk)
        odd = ["naïve-事件", "astral-\U0001F600\U00010348", "line\nbreak", 'say "hi"',
               "back\\slash", "nul\x00byte", None]
        lines = []
        for i in range(15):
            record = event_to_dict(make_event(amount=float(i), event_id=odd[i % len(odd)]))
            if record["event_id"] is None:
                del record["event_id"]  # it gets line-<n>
            if i in (0, 2, 3, 7, 8, 14):
                record["device_type"] = "toaster"
            record["label"] = i % 3 == 0
            # escaped, surrogate pairs included, or as UTF-8
            lines.append(json.dumps(record, ensure_ascii=i % 2 == 0) + "\n")
        path = tmp_path / "stream.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        split(cpus)
        want = score_one_at_a_time(path)
        assert {"line-7", "line-14", "nul\x00byte"} <= {r.event_id for r in want}
        detections = score_stream(MODEL, STATS, path, DELTA)
        assert list(detections) == want
        n = len(want)
        assert [detections[i] for i in range(-n, n)] == want * 2
        for cut in (slice(None), slice(1, 9, 2), slice(None, None, -3), slice(5, 2)):
            assert detections[cut] == want[cut]
        assert detections.event_ids(3, 11) == [r.event_id for r in want[3:11]]
        edges = [0, 0, 3, 4, 8, n]
        parts = [reference.detections(want[a:b]) for a, b in zip(edges, edges[1:])]
        assert list(Detections.concat(parts)) == want
        for write, write_reference, suffix in (
            (write_detections_jsonl, reference.write_detections_jsonl, "jsonl"),
            (write_detections_csv, reference.write_detections_csv, "csv"),
        ):
            write(detections, tmp_path / f"ours.{suffix}")
            write_reference(want, tmp_path / f"theirs.{suffix}")
            assert (tmp_path / f"ours.{suffix}").read_bytes() == (
                tmp_path / f"theirs.{suffix}").read_bytes()
        back = read_detections_jsonl(tmp_path / "ours.jsonl")
        assert list(back) == want
        write_detections_jsonl(back, tmp_path / "back.jsonl")
        assert (tmp_path / "back.jsonl").read_bytes() == (tmp_path / "ours.jsonl").read_bytes()
        assert not multiprocessing.active_children()


@pytest.mark.parametrize("holdout", [False, True], ids=["inline", "held-out"])
def test_canonical_runs_are_checked_as_columns(tmp_path, monkeypatch, holdout):
    """A generated stream, its labels file and its detections are read with
    no per-record check. The same stream with integral-float timestamps is
    read record by record, with the same columns and detections."""
    rules = []
    for module in (streamgen, detector):
        def counted(rule, records, each_record=module.each_record):
            rules.append(rule.__name__)
            return each_record(rule, records)

        monkeypatch.setattr(module, "each_record", counted)
    stream = generate(StreamConfig(n_events=3000, seed=5))
    for i in range(0, 3000, 97):  # some events detect cannot encode
        stream[i] = replace(stream[i], event=replace(stream[i].event, device_type="toaster"))
    path, typed = tmp_path / "stream.jsonl", tmp_path / "typed.jsonl"
    write_labeled_events(stream, path, holdout=holdout)
    read = read_stream(path)
    detections = score_stream(MODEL, STATS, path, DELTA)
    write_detections_jsonl(detections, tmp_path / "det.jsonl")
    assert list(read_detections_jsonl(tmp_path / "det.jsonl")) == list(detections)
    assert detections.errors and rules == []

    typed.write_text(re.sub(r'"timestamp": (\d+)', r'"timestamp": \1.0', path.read_text()))
    if holdout:
        labels_sibling_path(typed).write_bytes(labels_sibling_path(path).read_bytes())
    typed_read = read_stream(typed)
    assert rules and set(rules) == {"_stream_event"}
    assert repr(typed_read[0].columns()) == repr(read[0].columns())
    assert typed_read[1:] == read[1:]
    assert list(score_stream(MODEL, STATS, typed, DELTA)) == list(detections)


@pytest.mark.parametrize(
    "fields, check, body, kept",
    [(streamgen.STREAM_FIELDS, streamgen._check_stream_records, stream_body(), 0),
     # an integral float timestamp takes the per-record rule, which reads the records
     (streamgen.STREAM_FIELDS, streamgen._check_stream_records,
      stream_body(change={1: {"timestamp": 5.0}}), 6),
     (detector._DETECTION_FIELDS, detector._check_detection_records, detection_body(), 0)],
    ids=["stream", "stream-record-by-record", "detections"],
)
def test_a_run_that_passes_as_columns_lets_its_records_go(tmp_path, fields, check, body, kept):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(body)

    def checked(records):
        check(records)
        return len(records.rows)

    assert read_chunks(path, fields, checked) == [kept]


@pytest.mark.parametrize("chunk", [1, 2, 1024])
@pytest.mark.parametrize(
    "read, per_record, body, line",
    [(read_stream, reference.read_stream,
      stream_body(change={1: {"timestamp": 5.0}}, bad={6: b'{"timestamp": "8"}'}), 7),
     (read_detections_jsonl, reference.read_detections_jsonl,
      detection_body(bad={5: b'{"event_id": "d", "score": "2"}'}), 6)],
    ids=["stream", "detections"],
)
def test_a_run_read_record_by_record_names_its_first_bad_line(
    tmp_path, monkeypatch, chunk, read, per_record, body, line
):
    # the runs before it pass as columns and let their records go
    monkeypatch.setattr(preprocess, "_CHUNK", chunk)
    path = tmp_path / "lines.jsonl"
    path.write_bytes(body)
    errors = []
    for each in (read, per_record):
        with pytest.raises(ContractViolationError) as info:
            each(path)
        errors.append(str(info.value))
    assert errors[0] == errors[1] and errors[0].startswith(f"{path} line {line}: ")


# A labels-file line for e-4 (line 5) with each fault a labels record can
# have, and what the per-record reader says of it.
BAD_LABELS = {
    "string-label": (b'{"event_id": "e-4", "label": "false", "anomaly_class": null}',
                     "field 'label' must be a boolean, got 'false'"),
    "no-label": (b'{"event_id": "e-4", "anomaly_class": null}', "no field 'label'"),
    "null-label": (b'{"event_id": "e-4", "label": null, "anomaly_class": null}',
                   "no field 'label'"),
    "no-event-id": (b'{"label": true, "anomaly_class": null}', "no field 'event_id'"),
    "no-event-id-nor-boolean-label": (b'{"label": "false"}', "no field 'event_id'"),
    "broken": (b"{broken", "Expecting property name"),
}


class TestBadLabelsFile:
    """A bad line of a held-out labels file ends read_stream and
    score_stream with the per-record reader's message, however the file is
    read."""

    @staticmethod
    def labels_body(line):
        lines = labels_file().splitlines(keepends=True)
        lines[4] = line + b"\n"
        return b"".join(lines)

    @staticmethod
    def per_record_error(labels_path, reason):
        with pytest.raises(ContractViolationError) as info:
            reference.read_held_out_labels(labels_path)
        assert str(info.value).startswith(f"{labels_path} line 5: ") and reason in str(info.value)
        return str(info.value)

    @staticmethod
    def errors(path):
        """The errors of read_stream and score_stream on the stream at ``path``."""
        errors = []
        for read in (
            lambda: read_stream(path),
            lambda: score_stream(MODEL, STATS, path, DELTA),
        ):
            with pytest.raises(ContractViolationError) as info:
                read()
            errors.append(str(info.value))
        return errors

    @pytest.mark.parametrize("chunk", [1, 2, 1024])
    @pytest.mark.parametrize("line, reason", BAD_LABELS.values(), ids=list(BAD_LABELS))
    def test_per_record_message_at_every_run_length(
        self, tmp_path, monkeypatch, chunk, line, reason
    ):
        path = tmp_path / "stream.jsonl"
        path.write_bytes(stream_body(labels=False))
        labels_path = labels_sibling_path(path)
        labels_path.write_bytes(self.labels_body(line))
        want = self.per_record_error(labels_path, reason)
        monkeypatch.setattr(preprocess, "_CHUNK", chunk)
        assert self.errors(path) == [want, want]

    @needs_fork
    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("line, reason", BAD_LABELS.values(), ids=list(BAD_LABELS))
    def test_per_record_message_at_every_split(self, tmp_path, split, cpus, line, reason):
        path = tmp_path / "stream.jsonl"
        path.write_bytes(stream_body(labels=False))
        labels_path = labels_sibling_path(path)
        body = self.labels_body(line)
        for t in near_line_starts(body)[:: cpus - 1]:
            labels_path.write_bytes(split_at(body, t))
            split(1)
            want = self.per_record_error(labels_path, reason)
            split(cpus)
            assert self.errors(path) == [want, want], f"split at byte {t}"
            assert not multiprocessing.active_children()


class TestCollectorPaused:
    """Reading, generating and bundling pause the cyclic garbage collector
    and leave it as they found it."""

    def test_pauses_nest_and_keep_a_disabled_collector_off(self, collector):
        with preprocess.collector_paused():
            with preprocess.collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is collector
        with pytest.raises(ZeroDivisionError), preprocess.collector_paused():
            1 / 0
        assert gc.isenabled() is collector

    def test_generate_and_make_bundle_restore_the_collector(self, collector):
        events = generate(StreamConfig(n_events=200, seed=3))
        assert gc.isenabled() is collector
        make_bundle(events)
        assert gc.isenabled() is collector
        with pytest.raises(ContractViolationError, match="too small"):
            make_bundle(events[:3])
        assert gc.isenabled() is collector

    def test_scoring_generating_and_bundling_run_at_most_one_collection(self, tmp_path):
        """The one allowed is the generation-0 pass that the first allocation
        after the pause sets off; without the pause each call runs several."""
        cfg = StreamConfig(n_events=4000, seed=7)
        events = generate(cfg)
        path = tmp_path / "stream.jsonl"
        write_labeled_events(events, path)
        generations = []

        def count(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        calls = {
            "score_stream": lambda: score_stream(MODEL, STATS, path, DELTA),
            "generate": lambda: generate(cfg),
            "make_bundle": lambda: make_bundle(events),
        }
        runs = {}
        gc.callbacks.append(count)
        try:
            for name, call in calls.items():
                gc.collect()  # every generation starts empty, so the one pass is generation 0
                generations.clear()
                call()
                runs[name] = list(generations)
        finally:
            gc.callbacks.remove(count)
        assert all(run in ([], [0]) for run in runs.values()), {
            name: len(run) for name, run in runs.items()
        }
