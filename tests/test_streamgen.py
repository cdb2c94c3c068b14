import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ReferenceRng, event_to_dict

from etlwatch import preprocess, streamgen
from etlwatch.errors import ContractViolationError
from etlwatch.evaluation import make_bundle
from etlwatch.numerics import SeededRng
from etlwatch.preprocess import EVENT_FIELDS, MASKABLE_FIELDS, EtlEvent, EventBatch
from etlwatch.streamgen import (
    ANOMALY_CLASSES,
    AnomalyMix,
    LabeledEvent,
    LabeledStream,
    StreamConfig,
    generate,
    inject,
    labels_sibling_path,
    read_stream,
    sample_gamma,
    sample_poisson,
    write_labeled_events,
)


@pytest.fixture(scope="module")
def benchmark_stream():
    return generate(StreamConfig(seed=7))


CONFIGS = {
    "default": {},
    "skewed-mix": {"anomaly_rate": 0.2, "mix": AnomalyMix(0.55, 0.05, 0.1, 0.3)},
    # Poisson means up to 15.2, those >= 10 by the PTRS branch
    "ptrs": {"diurnal_amplitude": 0.9},
    "flat-day": {"diurnal_amplitude": 0.0},
}


def bits(items):
    """Each labeled event's fields, every float as its hex form."""
    return [
        (item.label, item.anomaly_class,
         *(v.hex() if type(v) is float else v for v in astuple(item.event)))
        for item in items
    ]


class TestGenerate:
    def test_zero_rate_means_all_normal(self):
        events = generate(StreamConfig(n_events=300, anomaly_rate=0.0, seed=1))
        assert all(not e.label for e in events)
        assert all(e.anomaly_class is None for e in events)

    def test_same_seed_gives_identical_streams(self):
        a = generate(StreamConfig(n_events=200, seed=5))
        b = generate(StreamConfig(n_events=200, seed=5))
        assert list(a) == list(b)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_equals_a_run_on_the_scalar_reference_rng(self, monkeypatch, seed):
        # a 20 % anomaly rate exercises every injector's draws
        cfg = StreamConfig(n_events=1500, anomaly_rate=0.2, seed=seed)
        events = list(generate(cfg))
        monkeypatch.setattr(streamgen, "SeededRng", ReferenceRng)
        assert list(generate(cfg)) == events

    @pytest.mark.parametrize("seed", [0, 7, 11, 2**64 - 1])
    @pytest.mark.parametrize("changes", CONFIGS.values(), ids=CONFIGS)
    def test_equals_the_per_event_reference(self, seed, changes):
        cfg = StreamConfig(n_events=400, seed=seed, **changes)
        assert list(generate(cfg)) == reference.generate(cfg)

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
    def test_equals_the_per_event_reference_bit_for_bit_at_chunk_edges(self, n):
        # rows are moved into the columns one chunk at a time
        assert preprocess._CHUNK == 1024
        cfg = StreamConfig(n_events=n, anomaly_rate=0.2, seed=n)
        assert bits(generate(cfg)) == bits(reference.generate(cfg))

    def test_equals_the_per_event_reference_at_full_size(self, benchmark_stream):
        # the default config: 10 000 events at seed 7
        assert list(benchmark_stream) == reference.generate(StreamConfig(seed=7))

    class UnreachableBands(dict):
        """Poisson bands that count their lookups, and from lookup ``after``
        on give a band no draw reaches."""

        def __init__(self, after):
            super().__init__()
            self.after, self.calls = after, 0

        def __getitem__(self, mean):
            self.calls += 1
            return (math.inf, math.inf) if self.calls > self.after else super().__getitem__(mean)

    def test_a_band_no_draw_reaches_is_an_error(self, monkeypatch):
        bands = self.UnreachableBands(after=200)
        monkeypatch.setattr(streamgen, "_POISSON_BANDS", bands)
        message = r"could not draw a value inside \[inf, inf\] after 10000 tries"
        with pytest.raises(ContractViolationError, match=message):
            generate(StreamConfig(n_events=700, seed=11))
        assert bands.calls == 201  # one band an event

    def test_an_event_before_a_failed_draw_is_checked_first(self, monkeypatch):
        # every amount is inf, which the event check refuses; the records
        # band of event 3 is one no draw reaches
        monkeypatch.setattr(streamgen, "_POISSON_BANDS", self.UnreachableBands(after=3))
        cfg = StreamConfig(n_events=700, seed=11, amount_log_mu=math.inf)
        with pytest.raises(ContractViolationError, match="non-finite value for field 'amount'"):
            generate(cfg)

    @pytest.mark.parametrize("field, changes", [
        ("amount", {"amount_log_mu": math.inf}),
        ("latency_ms", {"latency_scale": math.inf}),
        # amounts near exp(706) are finite, and 10 to 50 times them not always:
        # the first spike that overflows fails
        ("amount", {"amount_log_mu": 706.0, "anomaly_rate": 0.5,
                    "mix": AnomalyMix(0.0, 0.0, 0.0, 1.0)}),
    ])
    def test_a_non_finite_value_is_refused_as_an_event_refuses_it(self, field, changes):
        # before its fault, or after it when only the fault overflows
        cfg = StreamConfig(n_events=200, seed=3, **changes)
        with pytest.raises(ContractViolationError) as info:
            reference.generate(cfg)
        assert str(info.value) == f"non-finite value for field {field!r}: inf"
        with pytest.raises(ContractViolationError, match=re.escape(str(info.value))):
            generate(cfg)
        if "mix" in changes:  # the normal events before the first spike pass
            assert len(generate(replace(cfg, anomaly_rate=0.0))) == 200

    @pytest.mark.parametrize(
        "field, sampler",
        [("records", "sample_poisson"), ("amount", "sample_lognormal"),
         ("latency", "sample_gamma"), ("duration", "sample_gamma")],
    )
    def test_a_band_no_draw_reaches_fails_after_10_000_tries(self, monkeypatch, field, sampler):
        normal = streamgen._NormalEvents(StreamConfig())
        never = (math.inf, math.inf)
        if field == "records":
            for mean in list(streamgen._POISSON_BANDS):
                monkeypatch.setitem(streamgen._POISSON_BANDS, mean, never)
        elif field == "amount":
            normal.amount = [(log_mu, never) for log_mu, _ in normal.amount]
        else:
            setattr(normal, f"_{field}", never)
        shapes = {"latency": streamgen.LATENCY_SHAPE, "duration": streamgen.DURATION_SHAPE}
        tries = []
        draw = getattr(streamgen, sampler)

        def counted(unit, *args):
            if args[0] == shapes.get(field, args[0]):  # gamma: this field's draws only
                tries.append(args)
            return draw(unit, *args)

        monkeypatch.setattr(streamgen, sampler, counted)
        message = r"could not draw a value inside \[inf, inf\] after 10000 tries"
        with pytest.raises(ContractViolationError, match=message):
            normal.draw(SeededRng(1).fractions(), streamgen.START_TIMESTAMP, "evt-000000")
        assert len(tries) == 10_000

    def test_different_seeds_differ(self):
        a = generate(StreamConfig(n_events=50, seed=5))
        b = generate(StreamConfig(n_events=50, seed=6))
        assert list(a) != list(b)

    def test_anomaly_count_in_binomial_interval(self, benchmark_stream):
        # binomial(10^4, 0.05): mean 500, 5 sigma ~ 109
        count = sum(e.label for e in benchmark_stream)
        assert 400 <= count <= 600

    def test_event_count_contract(self, benchmark_stream):
        assert len(benchmark_stream) == 10_000

    def test_timestamps_strictly_increase(self, benchmark_stream):
        stamps = [e.event.timestamp for e in benchmark_stream]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_gap_mean_matches_config(self, benchmark_stream):
        stamps = [e.event.timestamp for e in benchmark_stream]
        gaps = np.diff(stamps)
        # mean of 10^4 exponential(60000) draws: SE = 600, allow 5 sigma
        assert abs(gaps.mean() - 60_000) < 3_000

    def test_class_counts_match_mix_within_3_sigma(self, benchmark_stream):
        anomalies = [e for e in benchmark_stream if e.label]
        n = len(anomalies)
        for cls in ANOMALY_CLASSES:
            count = sum(1 for e in anomalies if e.anomaly_class == cls)
            expected = n * 0.25
            sigma = math.sqrt(n * 0.25 * 0.75)
            assert abs(count - expected) <= 3 * sigma, (cls, count, expected)

    def test_normal_events_have_no_mask_bits(self, benchmark_stream):
        for item in benchmark_stream:
            if not item.label:
                assert not any(item.event.missing_mask)

    def test_normal_events_lie_in_conditional_bands(self, benchmark_stream):
        cfg = StreamConfig(seed=7)
        for item in benchmark_stream:
            if item.label:
                continue
            event = item.event
            bands = reference.numeric_bands(
                cfg, event.timestamp, event.records_loaded, event.device_type
            )
            for field, (lo, hi) in bands.items():
                value = float(getattr(event, field))
                assert lo <= value <= hi, (field, value, lo, hi)


class TestPoissonBands:
    @pytest.fixture
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(streamgen, "_POISSON_BANDS", {})
        return lambda: streamgen._POISSON_BANDS

    @pytest.mark.parametrize("amplitude, ends", [
        (0.0, (800, 800)), (0.45, (440, 1160)), (0.9, (80, 1520)), (0.99, (8, 1592)),
    ])
    def test_a_stream_holds_the_band_of_each_mean_it_reaches(self, empty_cache, amplitude, ends):
        # 10 000 events span about a week, every load factor of the day; the
        # bands of the one vectorised call have the bits of one call per mean
        generate(StreamConfig(n_events=10_000, seed=5, diurnal_amplitude=amplitude))
        bands = empty_cache()
        lo, hi = ends
        assert list(bands) == [k / 100 for k in range(lo, hi + 1)]  # 0.45: 4.40 ... 11.60
        for mean, band in bands.items():
            assert band == reference.band("poisson", mu=mean), mean


COLD_START = """
import json, sys

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

import etlwatch, etlwatch.cli
on_import = scipy_loaded()
from etlwatch.streamgen import StreamConfig, generate
events = [item.event for item in generate(StreamConfig(n_events=3, seed=52))]
print(json.dumps({
    "on_import": on_import,
    "on_generate": scipy_loaded(),
    "events": [[e.records_loaded, e.amount, e.latency_ms, e.task_duration_s] for e in events],
}))
"""

# Seed 52 is the first seed whose first three events hold a rejected draw
# (event 1's latency), so these values move if the bands are not applied.
SEED_52_PREFIX = [
    [3, 40.33941813132947, 79.17152293160756, 17.917800295514475],
    [4, 74.6635212216672, 131.67755852142236, 22.503766905769012],
    [8, 156.69984998273483, 62.85608022675232, 75.16167141778334],
]


def test_scipy_loads_only_when_a_stream_is_generated():
    src = str(Path(streamgen.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run(
        [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    result = json.loads(child.stdout)
    assert result["on_import"] is False
    assert result["on_generate"] is True
    assert result["events"] == SEED_52_PREFIX


class TestInject:
    @pytest.fixture
    def normal_event(self):
        return generate(StreamConfig(n_events=1, anomaly_rate=0.0, seed=2))[0].event

    @staticmethod
    def inject(event, anomaly_class, unit):
        """``streamgen.inject`` on the row of ``event``, built back into an event."""
        row = [getattr(event, name) for name in EVENT_FIELDS]
        streamgen.inject(row, anomaly_class, unit)
        return EtlEvent(*row)

    def test_delay_strictly_increases_latency(self, normal_event):
        out = self.inject(normal_event, "delay", SeededRng(1).fractions())
        assert out.latency_ms > normal_event.latency_ms
        factor = out.latency_ms / normal_event.latency_ms
        assert 5.0 <= factor <= 20.0

    def test_missing_sets_mask_and_zeroes_fields(self, normal_event):
        out = self.inject(normal_event, "missing", SeededRng(2).fractions())
        assert any(out.missing_mask)
        for i, field in enumerate(MASKABLE_FIELDS):
            if out.missing_mask[i]:
                assert getattr(out, field) == 0.0

    def test_duplicate_signature(self, normal_event):
        out = self.inject(normal_event, "duplicate", SeededRng(3).fractions())
        assert out.records_loaded == 2 * normal_event.records_loaded
        assert out.task_duration_s == pytest.approx(normal_event.task_duration_s / 2)

    def test_spike_bounds(self, normal_event):
        out = self.inject(normal_event, "spike", SeededRng(4).fractions())
        assert 10.0 * normal_event.amount <= out.amount <= 50.0 * normal_event.amount

    def test_open_bound_guard_keeps_each_draw_below_its_bound(self, normal_event):
        # the largest fraction, 1 - 2^-53, makes lo + u * (hi - lo) round onto
        # 20 for the delay factor; the guard takes the float below the bound
        top = 1.0 - 2.0**-53
        delayed = self.inject(normal_event, "delay", lambda: top)
        assert delayed.latency_ms / normal_event.latency_ms < 20.0
        assert delayed.latency_ms == normal_event.latency_ms * math.nextafter(20.0, 0.0)
        spiked = self.inject(normal_event, "spike", lambda: top)
        assert spiked.amount / normal_event.amount < 50.0
        # three fields to mask, the first of them the last index
        masked = self.inject(normal_event, "missing", iter([top, top, 0.0, 0.5]).__next__)
        assert masked.missing_mask == (True,) * len(MASKABLE_FIELDS)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("anomaly_class", ANOMALY_CLASSES)
    def test_equals_the_per_event_reference(self, normal_event, anomaly_class, seed):
        unit, oracle_unit = SeededRng(seed).fractions(), SeededRng(seed).fractions()
        expected = reference.inject(normal_event, anomaly_class, oracle_unit)
        assert self.inject(normal_event, anomaly_class, unit) == expected
        assert unit() == oracle_unit()  # both drew the same number of fractions

    def test_unknown_class(self, normal_event):
        with pytest.raises(ContractViolationError):
            self.inject(normal_event, "gremlins", SeededRng(5).fractions())


class TestSamplers:
    def test_gamma_moments(self):
        unit = SeededRng(11).fractions()
        draws = [sample_gamma(unit, 3.0, 2.0) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(6.0, rel=0.05)
        assert np.var(draws) == pytest.approx(12.0, rel=0.15)

    def test_gamma_shape_below_one(self):
        unit = SeededRng(12).fractions()
        draws = [sample_gamma(unit, 0.5, 1.0) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(0.5, rel=0.1)

    def test_poisson_small_and_large_mean(self):
        unit = SeededRng(13).fractions()
        small = [sample_poisson(unit, 4.0) for _ in range(20_000)]
        assert np.mean(small) == pytest.approx(4.0, rel=0.05)
        large = [sample_poisson(unit, 40.0) for _ in range(20_000)]
        assert np.mean(large) == pytest.approx(40.0, rel=0.05)
        assert np.var(large) == pytest.approx(40.0, rel=0.15)

    def test_poisson_deterministic(self):
        a = [sample_poisson(SeededRng(9).fractions(), 25.0) for _ in range(5)]
        b = [sample_poisson(SeededRng(9).fractions(), 25.0) for _ in range(5)]
        assert a == b


class TestConfigValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ContractViolationError):
            AnomalyMix(delay=0.5, missing=0.5, duplicate=0.5, spike=0.5)

    def test_mix_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            AnomalyMix(delay=-0.5, missing=0.5, duplicate=0.5, spike=0.5)

    def test_anomaly_rate_range(self):
        with pytest.raises(ContractViolationError):
            StreamConfig(anomaly_rate=1.0)

    @pytest.mark.parametrize("name, value", [
        ("device_weights", (0, 0, 0)),
        ("device_weights", (math.nan, 0.3, 0.15)),
        ("device_weights", (-1, 1, 1)),
        ("device_weights", (math.inf, 1, 1)),
        ("device_weights", (1e308, 1e308, 1)),  # a sum that overflows
        ("device_weights", (0.5, 0.5)),
        ("latency_scale", math.nan),
        ("latency_scale", 0.0),
        ("amount_log_mu", math.nan),
        ("diurnal_amplitude", math.nan),
    ])
    def test_a_setting_no_stream_can_follow_is_refused_by_name(self, name, value):
        # unchecked, such device weights make every event "pos", and a NaN
        # fails only at the first draw
        with pytest.raises(ContractViolationError, match=f"^{name} must "):
            StreamConfig(**{name: value})

    def test_labeled_event_invariant(self):
        event = generate(StreamConfig(n_events=1, anomaly_rate=0.0, seed=1))[0].event
        with pytest.raises(ContractViolationError):
            LabeledEvent(event=event, label=True, anomaly_class=None)
        with pytest.raises(ContractViolationError):
            LabeledEvent(event=event, label=False, anomaly_class="delay")


def read_labeled(path):
    return [LabeledEvent(*row) for row in zip(*read_stream(path))]


class TestLabeledEventFiles:
    def test_inline_round_trip(self, tmp_path):
        events = generate(StreamConfig(n_events=60, seed=4))
        path = tmp_path / "stream.jsonl"
        write_labeled_events(events, path)
        assert not labels_sibling_path(path).exists()
        assert read_labeled(path) == list(events)
        assert len(path.read_text().splitlines()) == 60

    def test_holdout_round_trip(self, tmp_path):
        events = generate(StreamConfig(n_events=60, seed=4))
        path = tmp_path / "stream.jsonl"
        write_labeled_events(events, path, holdout=True)
        assert "label" not in path.read_text().splitlines()[0]
        assert labels_sibling_path(path).exists()
        assert read_labeled(path) == list(events)

    def test_holdout_labels_come_from_the_sibling_file_when_it_exists(self, tmp_path):
        events = generate(StreamConfig(n_events=60, seed=4))
        path = tmp_path / "stream.jsonl"
        write_labeled_events(events, path, holdout=True)
        _, labels, classes = read_stream(path)
        assert labels == [e.label for e in events]
        assert classes == [e.anomaly_class for e in events]
        # without a labels file the labels come back absent, not guessed
        labels_sibling_path(path).unlink()
        assert read_stream(path)[1:] == ([None] * 60, [None] * 60)

    def test_inline_stream_never_looks_for_a_labels_file(self, tmp_path, monkeypatch):
        events = generate(StreamConfig(n_events=5, seed=4))
        path = tmp_path / "stream.jsonl"
        write_labeled_events(events, path)

        def looked(path):
            raise AssertionError(f"looked for the labels file of {path}")

        monkeypatch.setattr(streamgen, "labels_sibling_path", looked)
        assert read_labeled(path) == list(events)

    def test_holdout_event_missing_from_labels_file_fails(self, tmp_path):
        events = generate(StreamConfig(n_events=5, seed=4))
        path = tmp_path / "stream.jsonl"
        write_labeled_events(events, path, holdout=True)
        labels = labels_sibling_path(path)
        labels.write_text("\n".join(labels.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(ContractViolationError, match="evt-000000"):
            read_labeled(path)

    def test_unlabeled_events_get_line_ids(self, tmp_path):
        events = [e.event for e in generate(StreamConfig(n_events=3, seed=4))]
        rows = [event_to_dict(e) for e in events]
        del rows[1]["event_id"]
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n\n")
        read, labels, classes = read_stream(path)
        assert [e.event_id for e in read] == ["evt-000000", "line-2", "evt-000002"]
        assert read[0] == events[0] and read[2] == events[2]
        assert labels == classes == [None, None, None]

    def test_null_event_id_counts_as_absent(self, tmp_path):
        events = [e.event for e in generate(StreamConfig(n_events=3, seed=4))]
        rows = [event_to_dict(e) for e in events]
        rows[0]["event_id"] = rows[2]["event_id"] = None
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        read, _, _ = read_stream(path)
        assert [e.event_id for e in read] == ["line-1", "evt-000001", "line-3"]


class TestLabeledStream:
    CFG = StreamConfig(n_events=300, anomaly_rate=0.2, seed=8)

    @pytest.fixture
    def stream(self):
        return generate(self.CFG)

    def test_reads_as_the_labeled_events_it_holds(self, stream):
        items = reference.generate(self.CFG)
        assert len(stream) == 300
        assert stream[0] == items[0] and stream[-1] == items[-1] and stream[57] == items[57]
        assert list(stream) == items
        part = stream[100:160]
        assert isinstance(part, LabeledStream)
        assert len(part) == 60 and list(part) == items[100:160]
        assert LabeledStream.from_events(stream) is stream
        assert list(LabeledStream.from_events(items)) == items

    @pytest.mark.parametrize("holdout", [False, True])
    def test_a_slice_writes_the_bytes_of_its_events(self, stream, tmp_path, holdout):
        items = reference.generate(self.CFG)[100:160]
        write_labeled_events(stream[100:160], tmp_path / "part.jsonl", holdout=holdout)
        reference.write_labeled_events(items, tmp_path / "expected.jsonl", holdout=holdout)
        names = ["{}.jsonl", "{}.labels.jsonl"] if holdout else ["{}.jsonl"]
        for name in names:
            got = (tmp_path / name.format("part")).read_bytes()
            assert got == (tmp_path / name.format("expected")).read_bytes()
        # a list of labeled events, held in list columns, writes the same bytes
        write_labeled_events(items, tmp_path / "list.jsonl", holdout=holdout)
        assert (tmp_path / "list.jsonl").read_bytes() == (tmp_path / "part.jsonl").read_bytes()

    def test_an_assigned_item_is_read_and_written(self, stream, tmp_path):
        # as the benchmark poisons a stream: replace one event's device type
        items = reference.generate(self.CFG)
        for i, label in ((5, False), (6, True)):
            event = replace(stream[i].event, device_type="mainframe")
            stream[i] = replace(stream[i], event=event)
            items[i] = replace(items[i], event=event)
            assert stream[i] == items[i]
        normal, anomalous = stream.labels.index(False), stream.labels.index(True)
        stream[normal] = items[normal] = LabeledEvent(items[normal].event, True, "spike")
        stream[anomalous] = items[anomalous] = LabeledEvent(items[anomalous].event, False)
        assert stream.labels[normal] is True and stream.classes[normal] == "spike"
        assert stream.labels[anomalous] is False and stream.classes[anomalous] is None
        assert list(stream) == items
        write_labeled_events(stream, tmp_path / "stream.jsonl")
        reference.write_labeled_events(items, tmp_path / "expected.jsonl")
        assert (tmp_path / "stream.jsonl").read_bytes() == (
            tmp_path / "expected.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize("n", [300, 4097])
    def test_the_bundle_of_its_list_is_its_bundle(self, n):
        # each split is selected from the stream's columns, not from a copied slice
        stream = generate(replace(self.CFG, n_events=n))
        expected = reference.make_bundle(list(stream))
        for bundle in (make_bundle(stream), make_bundle(list(stream))):
            got = (bundle.x_train, bundle.x_val, bundle.x_test, bundle.y_test)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("label, anomaly_class", [
        (True, None), (False, "delay"), (None, None), (True, "gremlins"), (True, ["delay"]),
        (1, "spike"), (0, None),
    ])
    def test_pairs_are_checked_as_a_labeled_event_checks_them(
        self, stream, label, anomaly_class
    ):
        events = stream.events[:3]
        labels, classes = [False, label, True], [None, anomaly_class, "bogus"]
        try:
            LabeledEvent(events[1], label, anomaly_class)
        except ContractViolationError as exc:
            expected = str(exc)
        else:  # the first bad pair is then the last one
            expected = "unknown anomaly class 'bogus'"
        with pytest.raises(ContractViolationError) as info:
            LabeledStream(events, labels, classes)
        assert str(info.value) == expected

    def test_every_event_needs_a_label_and_a_class(self, stream):
        with pytest.raises(ContractViolationError, match="one label and class per event"):
            LabeledStream(stream.events[:3], stream.labels[:3], stream.classes[:2])


class TestFloatColumns:
    """A generated stream holds amount, latency_ms and task_duration_s in
    array("d") columns; every reader of it still gets Python floats."""

    CFG = StreamConfig(n_events=300, anomaly_rate=0.2, seed=8)

    @pytest.fixture
    def stream(self):
        return generate(self.CFG)

    @staticmethod
    def types(batch):
        return [(type(column), getattr(column, "typecode", None)) for column in batch.columns()]

    def test_a_generated_stream_holds_its_floats_in_typed_columns(self, stream):
        assert self.types(stream.events) == [
            (array, "d") if name in MASKABLE_FIELDS else (list, None) for name in EVENT_FIELDS
        ]
        for item in (stream[0], stream[57], stream[-1], *stream[100:103]):
            assert [type(getattr(item.event, name)) for name in MASKABLE_FIELDS] == [float] * 3

    def test_slices_where_and_concat_keep_each_columns_type(self, stream):
        events, items = stream.events, list(stream.events)
        keep = [i % 3 != 1 for i in range(len(events))]
        read = EventBatch.from_events(items)  # list columns, as a reader gives
        for batch in (events, read):
            parts = {
                "slice": (batch[10:250:7], items[10:250:7]),
                "where": (batch.where(keep), list(itertools.compress(items, keep))),
                "where from 100": (
                    batch.where(keep[:150], 100), list(itertools.compress(items[100:], keep[:150]))
                ),
                "concat": (EventBatch.concat([batch[:5], batch[5:]]), items),
            }
            for name, (part, expected) in parts.items():
                assert self.types(part) == self.types(batch), name
                assert list(part) == expected, name

    @pytest.mark.parametrize("name", MASKABLE_FIELDS)
    @pytest.mark.parametrize("value", [5, True, None, "n/a"])
    def test_a_float_column_refuses_an_event_whole(self, stream, name, value):
        # a masked numeric may hold any value, which a float column cannot
        event = replace(stream[3].event, missing_mask=(True, True, True), **{name: value})
        before = list(stream)
        with pytest.raises(ContractViolationError, match=f"field '{name}' .* floats only"):
            stream[3] = LabeledEvent(event, True, "missing")
        assert list(stream) == before
        read = LabeledStream.from_events(before)  # list columns hold it as read
        read[3] = LabeledEvent(event, True, "missing")
        assert read[3].event == event

    def test_generate_holds_under_240_bytes_per_event(self):
        n = 10_000
        generate(StreamConfig(n_events=10))  # the bands and scipy, loaded once
        tracemalloc.start()
        try:
            generate(StreamConfig(n_events=n, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 213 here, against 281 with the three float columns as lists
        assert peak < 240 * n


HUGE = "1" + "0" * 400  # a JSON integer too large for a float
# (what a field holds in a good record, what it may hold in a bad one)
FIELD_TEXT = {
    "event_id": (st.sampled_from(['"e1"', '"e2"', '""', "null", '"say \\"hi\\", naïve"']),
                 st.sampled_from(["5", "true", "[]"])),
    "timestamp": (st.integers(-(2**70), 2**70).map(str) | st.just("7.0"),
                  st.sampled_from(['" 8 "', '"8"', "7.9", "1e999", "NaN", "true", "null", "[]"])),
    "amount": (st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
               st.sampled_from(['"5_0.0"', '"abc"', "null", "true", "false", "{}", "1e999",
                                "-1e999", "NaN", "Infinity", HUGE, '"n/a"'])),
    "latency_ms": (st.integers(-(2**70), 2**70).map(str),
                   st.sampled_from(['"1"', "null", "false", "[]", "-Infinity", "NaN", HUGE])),
    "task_duration_s": (st.just("61.0"), st.sampled_from(['"61"', "true", "1e999", HUGE])),
    "records_loaded": (st.integers(0, 2**70).map(str) | st.just("8.0"),
                       st.sampled_from(['" 8 "', "7.9", "1e999", "false", "null", HUGE])),
    "device_type": (st.sampled_from(['"web"', '"pos"', '"mars"']),
                    st.sampled_from(["5", "null", "true", "[1]"])),
    "geo_region": (st.sampled_from(['"eu"', '"na"', '"moon"']), st.sampled_from(["null", "{}"])),
    "missing_mask": (
        st.lists(st.sampled_from(["true", "false"]), min_size=3, max_size=3).map(
            lambda bits: "[" + ", ".join(bits) + "]"
        ),
        st.sampled_from(['["false", false, false]', '["", false, 0]', "[1, 0, 0]",
                         "[true, false]", "[false, false, false, true]", "[]", '"abc"',
                         '{"x": 1}', "null", "[null, true, false]"]),
    ),
    "label": (st.sampled_from(["true", "false", "null"]), st.sampled_from(['"false"', "1", "0"])),
    "anomaly_class": (st.sampled_from(["null", '"delay"']), st.just("5")),
}
OPTIONAL = ("event_id", "label", "anomaly_class")


@st.composite
def stream_line(draw):
    """One line of a stream file: mostly a record in which each field may
    be left out or hold a value of the wrong JSON type, alone or with
    others; sometimes a line that is not a JSON object, or a blank one."""
    if draw(st.integers(0, 8)) == 0:
        return draw(st.sampled_from(["{not json", "[1, 2]", '"text"', "", "  ", '{"a": 1} x',
                                     "{"]))
    fields = []
    for name, (good_text, bad_text) in FIELD_TEXT.items():
        form = draw(st.sampled_from(["good"] * (3 if name in OPTIONAL else 12) + ["bad", "out"]))
        if form != "out":
            fields.append(f'"{name}": {draw(bad_text if form == "bad" else good_text)}')
    return "{" + ", ".join(draw(st.permutations(fields))) + "}"


# The mask and numbers of a valid record, so that the reader also sees
# files that read through: masked null, "n/a" and 1e999 among them.
VALID_RECORD = st.builds(
    lambda mask, masked, ts, n, id_text: (
        f'{{"event_id": {id_text}, "timestamp": {ts}, '
        f'"amount": {masked if mask[0] else "52.5"}, '
        f'"latency_ms": {masked if mask[1] else "140"}, '
        f'"task_duration_s": {masked if mask[2] else "61.0"}, "records_loaded": {n}, '
        f'"device_type": "web", "geo_region": "eu", '
        f'"missing_mask": [{", ".join("true" if bit else "false" for bit in mask)}]}}'
    ),
    st.tuples(st.booleans(), st.booleans(), st.booleans()),
    st.sampled_from(["null", '"n/a"', "1e999", "NaN", "0.0", "[]"]),
    st.integers(0, 2**62),
    st.integers(0, 50),
    st.sampled_from(['"e1"', "null", '""']),
)


def read_outcome(read, path):
    try:
        events, labels, classes = read(path)
    except ContractViolationError as exc:
        return f"error: {exc}"
    # repr, because a masked NaN is not equal to itself
    return repr((list(events), labels, classes))


@given(
    st.lists(st.one_of(VALID_RECORD, VALID_RECORD, stream_line()), max_size=12),
    st.sampled_from([1, 2, 3, 1024]),
)
@settings(max_examples=400, deadline=None)
def test_column_reader_matches_per_record_reader(tmp_path_factory, lines, chunk):
    path = tmp_path_factory.mktemp("stream") / "stream.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess, "_CHUNK", chunk)
        got = read_outcome(read_stream, path)
    assert got == read_outcome(reference.read_stream, path)


def test_bad_record_is_reported_before_a_later_undecodable_line(tmp_path):
    good = json.dumps(event_to_dict(generate(StreamConfig(n_events=1, seed=4))[0].event))
    bad = good.replace('"missing_mask": [false', '"missing_mask": ["false"')
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join([good, good, bad, good, "{not json"]) + "\n")
    with pytest.raises(ContractViolationError, match="line 3: field 'missing_mask'"):
        read_stream(path)
    path.write_text("\n".join([good, "{not json", bad]) + "\n")
    with pytest.raises(ContractViolationError, match="line 2: Expecting property name"):
        read_stream(path)


class TestHeldOutLabels:
    @pytest.fixture
    def holdout(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        write_labeled_events(generate(StreamConfig(n_events=3, seed=4)), path, holdout=True)
        return path

    def edit_label(self, path, text):
        labels = labels_sibling_path(path)
        lines = labels.read_text().splitlines()
        record = json.loads(lines[1])
        lines[1] = json.dumps(record).replace(
            f'"label": {json.dumps(record["label"])}', f'"label": {text}'
        )
        labels.write_text("\n".join(lines) + "\n")
        return labels

    @pytest.mark.parametrize("text, reason", [
        ('"false"', "field 'label' must be a boolean, got 'false'"),
        ("0", "field 'label' must be a boolean, got 0"),
        ("null", "no field 'label'"),  # a null label counts as absent
    ])
    def test_label_must_be_a_boolean(self, holdout, text, reason):
        labels = self.edit_label(holdout, text)
        with pytest.raises(ContractViolationError) as info:
            read_stream(holdout)
        assert str(info.value) == f"{labels} line 2: {reason}"

    def test_null_inline_label_reads_from_the_labels_file(self, holdout):
        lines = holdout.read_text().splitlines()
        lines[1] = lines[1][:-1] + ', "label": null}'
        holdout.write_text("\n".join(lines) + "\n")
        _, labels, _ = read_stream(holdout)
        assert labels == [e.label for e in generate(StreamConfig(n_events=3, seed=4))]

    def test_ids_are_matched_as_text(self, holdout):
        # an id written as a number in both files is the same id, "7"
        for path in (holdout, labels_sibling_path(holdout)):
            path.write_text(path.read_text().replace('"evt-000001"', "7"))
        events, labels, _ = read_stream(holdout)
        assert events.event_id[1] == "7"
        assert labels == [e.label for e in generate(StreamConfig(n_events=3, seed=4))]
