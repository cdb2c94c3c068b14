"""Synthetic labeled ETL event streams with four injectable fault classes.

Normal traffic is drawn from configurable base distributions (log-normal
amounts, gamma latencies and durations, Poisson record counts) with two
pieces of realistic structure a detector can learn:

* a diurnal load factor scales expected record counts and latencies by time
  of day, and
* task duration scales with the number of records actually loaded.

Every numeric draw is rejection-truncated to the 0.001-0.999 quantile band
of its conditional distribution, so normal events stay in the bulk and the
fault injectors below are what push events out of it.

A stream is held as columns, a :class:`LabeledStream`. :func:`generate`
draws each event's field values as one row, checks them as an
:class:`~etlwatch.preprocess.EtlEvent` would be checked, applies the event's
fault to them (:func:`inject`), if any, and checks them again; the rows
are moved into the stream's columns a chunk at a time, the three floats
of an event into ``array("d")`` columns, 8 bytes a value.

Fault classes (applied to a freshly drawn normal event):

* ``delay``     - latency multiplied by a factor uniform in [5, 20]
* ``missing``   - 1 to 3 maskable numeric fields zeroed with their mask bit set
* ``duplicate`` - records_loaded doubled, task_duration_s halved (a re-run load)
* ``spike``     - amount multiplied by a factor uniform in [10, 50]

All randomness flows through :class:`~etlwatch.numerics.SeededRng`; a config
with the same seed reproduces the stream exactly. The samplers and
:func:`inject` take a zero-argument source of floats in [0, 1) rather than
the rng, and :func:`generate` hands them its rng's
:meth:`~etlwatch.numerics.SeededRng.fractions`, so each of the roughly 18
draws an event takes is one C-level call.

The Poisson bands of every mean a config can reach are cached before its
first event is drawn, in one vectorised scipy call.
"""

from __future__ import annotations

import itertools
import json
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ContractViolationError
from .numerics import SeededRng
from .preprocess import (
    ABSENT,
    DEFAULT_DEVICE_TYPES,
    DEFAULT_GEO_REGIONS,
    EVENT_FIELDS,
    EVENT_RECORD_FIELDS,
    MASKABLE_FIELDS,
    MS_PER_DAY,
    NUMERIC_FIELDS,
    _CHUNK,
    EtlEvent,
    EventBatch,
    Records,
    canonical_events,
    check_finite,
    collector_paused,
    each_record,
    parse_event,
    read_chunks,
)

ANOMALY_CLASSES = ("delay", "missing", "duplicate", "spike")
DELAY_FACTOR_RANGE = (5.0, 20.0)
SPIKE_FACTOR_RANGE = (10.0, 50.0)
BAND_QUANTILES = (0.001, 0.999)


@dataclass(frozen=True)
class AnomalyMix:
    """Relative weights of the four fault classes among injected anomalies."""

    delay: float = 0.25
    missing: float = 0.25
    duplicate: float = 0.25
    spike: float = 0.25

    def __post_init__(self) -> None:
        weights = self.weights()
        if any(w < 0 for w in weights):
            raise ContractViolationError(f"mix weights must be non-negative, got {weights}")
        if not math.isclose(sum(weights), 1.0, abs_tol=1e-9):
            raise ContractViolationError(f"mix weights must sum to 1, got {sum(weights)}")

    def weights(self) -> tuple[float, float, float, float]:
        return (self.delay, self.missing, self.duplicate, self.spike)


@dataclass(frozen=True)
class StreamConfig:
    n_events: int = 10_000
    anomaly_rate: float = 0.05
    mix: AnomalyMix = AnomalyMix()
    seed: int = 7
    # base distributions for normal traffic; amounts are conditional on the
    # device channel (point-of-sale loads carry far larger amounts than
    # mobile ones), durations scale with the records actually loaded, and
    # latency follows the diurnal load factor
    amount_log_mu: float = 4.0
    amount_log_sigma: float = 0.5
    amount_device_offsets: tuple[float, ...] = (-0.5, 0.0, 1.0)
    latency_shape: float = 1.3
    latency_scale: float = 90.0
    duration_shape: float = 24.0
    duration_scale: float = 2.5
    records_mean: float = 8.0
    # arrival process and diurnal cycle; the default gap makes a 10k-event
    # stream span about a week, so chronological splits all cover full cycles
    start_timestamp: int = 1_767_225_600_000  # 2026-01-01T00:00:00Z
    mean_gap_ms: float = 60_000.0
    diurnal_amplitude: float = 0.45
    device_weights: tuple[float, ...] = (0.55, 0.3, 0.15)
    geo_weights: tuple[float, ...] = (0.6, 0.25, 0.125, 0.025)

    def __post_init__(self) -> None:
        if self.n_events < 0:
            raise ContractViolationError(f"n_events must be >= 0, got {self.n_events}")
        if not 0.0 <= self.anomaly_rate < 1.0:
            raise ContractViolationError(
                f"anomaly_rate must lie in [0, 1), got {self.anomaly_rate}"
            )
        for name in (
            "amount_log_sigma", "latency_shape", "latency_scale",
            "duration_shape", "duration_scale", "records_mean", "mean_gap_ms",
        ):
            if getattr(self, name) <= 0:
                raise ContractViolationError(f"{name} must be > 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ContractViolationError("diurnal_amplitude must lie in [0, 1)")
        if len(self.device_weights) != len(DEFAULT_DEVICE_TYPES) or len(
            self.geo_weights
        ) != len(DEFAULT_GEO_REGIONS):
            raise ContractViolationError("categorical weights do not match category counts")
        if len(self.amount_device_offsets) != len(DEFAULT_DEVICE_TYPES):
            raise ContractViolationError(
                "amount_device_offsets must give one offset per device type"
            )


@dataclass(frozen=True)
class LabeledEvent:
    event: EtlEvent
    label: bool
    anomaly_class: str | None = None

    def __post_init__(self) -> None:
        _check_pair(self.label, self.anomaly_class)


def _check_pair(label: object, anomaly_class: object) -> None:
    """Raise unless ``anomaly_class`` is one of :data:`ANOMALY_CLASSES`
    exactly when ``label`` is true, and None when it is false."""
    if label != (anomaly_class is not None):
        raise ContractViolationError("anomaly_class must be present exactly when label is true")
    if anomaly_class is not None and anomaly_class not in ANOMALY_CLASSES:
        raise ContractViolationError(f"unknown anomaly class {anomaly_class!r}")


# every (label, anomaly_class) pair that _check_pair passes
_LABEL_PAIRS = {(False, None), *((True, name) for name in ANOMALY_CLASSES)}


class LabeledStream(Sequence[LabeledEvent]):
    """Labeled events held as columns: an :class:`EventBatch`, and a label
    and an anomaly class per event.

    ``stream[i]`` builds the :class:`LabeledEvent` of row ``i`` and a slice
    gives a new stream; ``stream[i] = item`` writes an item's fields into
    row ``i``. Every label and class pair is checked as ``LabeledEvent``
    checks it: the first bad pair raises its error.
    """

    __slots__ = ("events", "labels", "classes")

    def __init__(
        self, events: EventBatch, labels: list[bool], classes: list[str | None]
    ) -> None:
        if not len(events) == len(labels) == len(classes):
            raise ContractViolationError("a labeled stream needs one label and class per event")
        try:
            checked = set(zip(labels, classes)) <= _LABEL_PAIRS
        except TypeError:  # an unhashable class, which the scan below refuses
            checked = False
        if not checked:
            for pair in zip(labels, classes):
                _check_pair(*pair)
        self.events, self.labels, self.classes = events, labels, classes

    @classmethod
    def from_events(cls, items: Iterable[LabeledEvent]) -> LabeledStream:
        """The labeled events as a stream; a stream is returned as it is."""
        if isinstance(items, LabeledStream):
            return items
        items = list(items)
        return cls(
            EventBatch.from_events(map(attrgetter("event"), items)),
            list(map(attrgetter("label"), items)),
            list(map(attrgetter("anomaly_class"), items)),
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LabeledStream(self.events[index], self.labels[index], self.classes[index])
        return LabeledEvent(self.events[index], self.labels[index], self.classes[index])

    def __setitem__(self, index: int, item: LabeledEvent) -> None:
        self.events[index] = item.event
        self.labels[index], self.classes[index] = item.label, item.anomaly_class

    def __iter__(self) -> Iterator[LabeledEvent]:
        return map(LabeledEvent, self.events, self.labels, self.classes)


# --- distribution samplers ------------------------------------------------
#
# Each draws from ``unit``, a zero-argument source of floats in [0, 1) such
# as SeededRng.fractions().

Unit = Callable[[], float]


def sample_exponential(unit: Unit, mean: float) -> float:
    return -mean * math.log(1.0 - unit())


def sample_normal(unit: Unit) -> float:
    # Box-Muller; the sine partner is discarded to keep each call independent
    # of caller state.
    u1 = 1.0 - unit()
    u2 = unit()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def sample_lognormal(unit: Unit, log_mu: float, log_sigma: float) -> float:
    return math.exp(log_mu + log_sigma * sample_normal(unit))


def sample_gamma(unit: Unit, shape: float, scale: float) -> float:
    """Marsaglia-Tsang squeeze method; shape < 1 uses the boost transform."""
    if shape <= 0 or scale <= 0:
        raise ContractViolationError("gamma shape and scale must be > 0")
    if shape < 1.0:
        boost = (1.0 - unit()) ** (1.0 / shape)
        return sample_gamma(unit, shape + 1.0, scale) * boost
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = sample_normal(unit)
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = unit()
        if u < 1.0 - 0.0331 * x**4:
            return d * v * scale
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v * scale


def sample_poisson(unit: Unit, mean: float) -> int:
    """Knuth's product method for small means, Hormann's PTRS above 10."""
    if mean <= 0:
        raise ContractViolationError("poisson mean must be > 0")
    if mean < 10.0:
        limit = math.exp(-mean)
        k = 0
        product = unit()
        while product > limit:
            k += 1
            product *= unit()
        return k
    # PTRS (transformed rejection with squeeze), Hormann 1993
    slam = math.sqrt(mean)
    loglam = math.log(mean)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = unit() - 0.5
        v = unit()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= vr:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b) <= (
            -mean + k * loglam - math.lgamma(k + 1.0)
        ):
            return int(k)


def running_sums(weights: tuple[float, ...]) -> tuple[float, list[float]]:
    """``sum(weights)`` and the running sums of the weights, which
    :func:`sample_categorical` reads; work them out once per set of weights."""
    return sum(weights), list(itertools.accumulate(weights))


def sample_categorical(unit: Unit, sums: tuple[float, list[float]]) -> int:
    """Index i with probability proportional to weight i, given
    :func:`running_sums` of the weights."""
    total, running = sums
    u = unit() * total
    for i, acc in enumerate(running):
        if u < acc:
            return i
    return len(running) - 1


# --- normal-event structure ------------------------------------------------

def load_factor(cfg: StreamConfig, timestamp: int) -> float:
    """Diurnal activity multiplier; peaks at 15:00, bottoms at 03:00."""
    frac = (timestamp % MS_PER_DAY) / MS_PER_DAY
    return 1.0 + cfg.diurnal_amplitude * math.sin(2.0 * math.pi * (frac - 0.375))


def _ppf(dist: str, **shape: float) -> tuple[float, float]:
    # scipy loads on the first band, not at import: only generation pays for it
    from scipy import stats

    lo, hi = getattr(stats, dist).ppf(BAND_QUANTILES, **shape)
    return float(lo), float(hi)


@lru_cache(maxsize=None)
def _normal_band() -> tuple[float, float]:
    return _ppf("norm")


@lru_cache(maxsize=None)
def _unit_gamma_band(shape: float) -> tuple[float, float]:
    return _ppf("gamma", a=shape)


# The 0.001-0.999 Poisson band of each mean, rounded to 0.01 so that bands
# repeat; at most _POISSON_CACHE of them, the oldest dropped first.
_POISSON_BANDS: dict[float, tuple[float, float]] = {}
_POISSON_CACHE = 4096


def _poisson_band(mean: float) -> tuple[float, float]:
    band = _POISSON_BANDS.get(mean)
    if band is None:
        band = _store_band(mean, _ppf("poisson", mu=mean))
    return band


def _store_band(mean: float, band: tuple[float, float]) -> tuple[float, float]:
    if len(_POISSON_BANDS) >= _POISSON_CACHE:
        del _POISSON_BANDS[next(iter(_POISSON_BANDS))]
    _POISSON_BANDS[mean] = band
    return band


def _fill_poisson_bands(cfg: StreamConfig) -> None:
    """Cache the Poisson band of every rounded mean ``cfg`` can reach, those
    not yet cached in one vectorised ``ppf`` call, whose bits are those of
    one call per mean; nothing where they would not fit.

    A mean is ``records_mean`` times a load factor within ``1 -/+
    diurnal_amplitude``, rounded to 0.01: the float ``k / 100`` for an
    integer ``k`` between the rounded ends of that range (721 means for the
    default config).
    """
    ends = (cfg.records_mean * (1.0 - cfg.diurnal_amplitude),
            cfg.records_mean * (1.0 + cfg.diurnal_amplitude))
    lo, hi = (round(round(end, 2) * 100) for end in ends)
    if hi - lo >= _POISSON_CACHE:
        return
    means = [k / 100 for k in range(lo, hi + 1) if k / 100 not in _POISSON_BANDS]
    if means:
        from scipy import stats

        lows, highs = stats.poisson.ppf([[q] for q in BAND_QUANTILES], mu=means).tolist()
        for mean, low, high in zip(means, lows, highs):
            _store_band(mean, (low, high))


_NO_MASK = (False,) * len(MASKABLE_FIELDS)
# An event drawn here is a row: a list of its field values in EVENT_FIELDS
# order; _AT gives each field's position in it.
_AT = {name: i for i, name in enumerate(EVENT_FIELDS)}
_NUMBERS = itemgetter(*(_AT[name] for name in NUMERIC_FIELDS))


class _NormalEvents:
    """Normal traffic of one config: its draws and their conditional
    0.001-0.999 quantile bands.

    What depends on the config alone (the amount band and log location of
    each device type, the unit latency and duration bands, the categorical
    weights' sums) is worked out once here; an event's load factor, record
    mean and duration scale once per event, and each draw is truncated to
    its band.
    """

    __slots__ = ("cfg", "devices", "geos", "amount", "_latency", "_duration")

    def __init__(self, cfg: StreamConfig) -> None:
        self.cfg = cfg
        self.devices = running_sums(cfg.device_weights)
        self.geos = running_sums(cfg.geo_weights)
        z_lo, z_hi = _normal_band()
        sigma = cfg.amount_log_sigma
        # per device type: the log location of its amounts, and their band
        self.amount = [
            (log_mu, (math.exp(log_mu + sigma * z_lo), math.exp(log_mu + sigma * z_hi)))
            for log_mu in (cfg.amount_log_mu + offset for offset in cfg.amount_device_offsets)
        ]
        g_lo, g_hi = _unit_gamma_band(cfg.latency_shape)
        self._latency = (g_lo * cfg.latency_scale, g_hi * cfg.latency_scale)
        self._duration = _unit_gamma_band(cfg.duration_shape)

    def draw(self, unit: Unit, timestamp: int, event_id: str) -> list:
        """The row of one normal event, unchecked; each numeric value is
        redrawn until it lies in its band, at most ``_MAX_TRIES`` times."""
        cfg = self.cfg
        lf = load_factor(cfg, timestamp)
        device = sample_categorical(unit, self.devices)
        geo = sample_categorical(unit, self.geos)
        mean = cfg.records_mean * lf
        lo, hi = _poisson_band(round(mean, 2))
        for _ in _TRIES:
            records = sample_poisson(unit, mean)
            if lo <= records <= hi:
                break
        else:
            raise _no_draw_inside(lo, hi)
        log_mu, (lo, hi) = self.amount[device]
        for _ in _TRIES:
            amount = sample_lognormal(unit, log_mu, cfg.amount_log_sigma)
            if lo <= amount <= hi:
                break
        else:
            raise _no_draw_inside(lo, hi)
        lo, hi = self._latency
        lo, hi, scale = lo * lf, hi * lf, cfg.latency_scale * lf
        for _ in _TRIES:
            latency = sample_gamma(unit, cfg.latency_shape, scale)
            if lo <= latency <= hi:
                break
        else:
            raise _no_draw_inside(lo, hi)
        scale = cfg.duration_scale * max(records, 1) / cfg.records_mean
        lo, hi = self._duration
        lo, hi = lo * scale, hi * scale
        for _ in _TRIES:
            duration = sample_gamma(unit, cfg.duration_shape, scale)
            if lo <= duration <= hi:
                break
        else:
            raise _no_draw_inside(lo, hi)
        return [
            timestamp,
            amount,
            latency,
            duration,
            records,
            DEFAULT_DEVICE_TYPES[device],
            DEFAULT_GEO_REGIONS[geo],
            _NO_MASK,
            event_id,
        ]


_MAX_TRIES = 10_000
_TRIES = range(_MAX_TRIES)


def _no_draw_inside(lo: float, hi: float) -> ContractViolationError:
    return ContractViolationError(
        f"could not draw a value inside [{lo}, {hi}] after {_MAX_TRIES} tries"
    )


def _uniform(unit: Unit, lo: float, hi: float) -> float:
    """A float in [lo, hi) from one draw of ``unit``."""
    value = lo + unit() * (hi - lo)
    # guard the rare rounding onto the open bound
    return value if value < hi else math.nextafter(hi, lo)


def inject(row: list, anomaly_class: str, unit: Unit) -> None:
    """Apply one fault signature, in place, to the row of a freshly drawn
    normal event (see :meth:`_NormalEvents.draw`)."""
    if anomaly_class == "delay":
        row[_AT["latency_ms"]] *= _uniform(unit, *DELAY_FACTOR_RANGE)
    elif anomaly_class == "missing":
        n = float(len(MASKABLE_FIELDS))
        n_missing = 1 + int(_uniform(unit, 0.0, n))
        chosen: set[int] = set()
        while len(chosen) < n_missing:
            chosen.add(int(_uniform(unit, 0.0, n)))
        for i in chosen:
            row[_AT[MASKABLE_FIELDS[i]]] = 0.0
        row[_AT["missing_mask"]] = tuple(i in chosen for i in range(len(MASKABLE_FIELDS)))
    elif anomaly_class == "duplicate":
        row[_AT["records_loaded"]] *= 2
        row[_AT["task_duration_s"]] *= 0.5
    elif anomaly_class == "spike":
        row[_AT["amount"]] *= _uniform(unit, *SPIKE_FACTOR_RANGE)
    else:
        raise ContractViolationError(f"unknown anomaly class {anomaly_class!r}")


def _check(row: list) -> None:
    """:func:`~etlwatch.preprocess.check_finite` of a row, the check an
    :class:`EtlEvent` of it would make. A finite sum of the three floats and
    a finite count show that every number is finite, and spare the call."""
    amount, latency, duration, records = numbers = _NUMBERS(row)
    if not (math.isfinite(amount + latency + duration) and math.isfinite(records)):
        check_finite(numbers, row[_AT["missing_mask"]])


@collector_paused()
def generate(cfg: StreamConfig) -> LabeledStream:
    """Generate ``cfg.n_events`` labeled events with strictly increasing timestamps.

    Each event is drawn as a row of field values and checked as an
    :class:`EtlEvent` would be, then given its fault (see :func:`inject`),
    if any, and checked again, before the next is drawn. Each
    :data:`~etlwatch.preprocess._CHUNK` rows are moved into the stream's
    columns once drawn, so the rows of one chunk are held at a time;
    ``amount``, ``latency_ms`` and ``task_duration_s`` go into
    ``array("d")`` columns, which hold no float objects. The
    Poisson bands of every mean the config can reach are cached first
    (:func:`_fill_poisson_bands`).
    """
    _fill_poisson_bands(cfg)
    unit = SeededRng(cfg.seed).fractions()
    normal = _NormalEvents(cfg)
    mix = running_sums(cfg.mix.weights())
    timestamp = cfg.start_timestamp
    columns = [array("d") if name in MASKABLE_FIELDS else [] for name in EVENT_FIELDS]
    classes: list[str | None] = []
    n = cfg.n_events
    for first in range(0, n, _CHUNK):
        rows = []
        for i in range(first, min(first + _CHUNK, n)):
            timestamp += max(1, round(sample_exponential(unit, cfg.mean_gap_ms)))
            row = normal.draw(unit, timestamp, f"evt-{i:06d}")
            _check(row)
            anomaly_class = None
            if unit() < cfg.anomaly_rate:
                anomaly_class = ANOMALY_CLASSES[sample_categorical(unit, mix)]
                inject(row, anomaly_class, unit)
                _check(row)
            rows.append(row)
            classes.append(anomaly_class)
        for column, values in zip(columns, zip(*rows)):
            column.extend(values)
    labels = [anomaly_class is not None for anomaly_class in classes]
    return LabeledStream(EventBatch(*columns), labels, classes)


# --- labeled-event files ----------------------------------------------------

def labels_sibling_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".labels.jsonl")


# The keys of a written event record, in order.
_RECORD_KEYS = ("event_id", *EVENT_FIELDS[:-1])
_LABEL_KEYS = ("event_id", "label", "anomaly_class")


def write_labeled_events(
    events: Sequence[LabeledEvent], path: str | Path, holdout: bool = False
) -> None:
    """Write one JSON record per event, from the columns of the stream
    (:meth:`LabeledStream.from_events`).

    With ``holdout=True`` the event file carries no label fields and the
    labels go to a sibling ``<stem>.labels.jsonl`` file keyed by event_id.
    """
    stream = LabeledStream.from_events(events)
    columns = [getattr(stream.events, name) for name in _RECORD_KEYS]
    keys = _RECORD_KEYS
    if not holdout:
        columns += [stream.labels, stream.classes]
        keys += _LABEL_KEYS[1:]
    with open(path, "w", encoding="utf-8") as fh:
        for values in zip(*columns):
            fh.write(json.dumps(dict(zip(keys, values))) + "\n")
    if holdout:
        with open(labels_sibling_path(path), "w", encoding="utf-8") as fh:
            for values in zip(stream.events.event_id, stream.labels, stream.classes):
                fh.write(json.dumps(dict(zip(_LABEL_KEYS, values))) + "\n")


# The fields of a stream record: an event's, and its optional label and class.
STREAM_FIELDS = EVENT_RECORD_FIELDS | {"label": None, "anomaly_class": None}


def read_stream(path: str | Path) -> tuple[EventBatch, list[bool | None], list[str | None]]:
    """Read an event stream: its events, labels and anomaly classes in line order.

    Each record is checked by :func:`~etlwatch.preprocess.parse_event`,
    then its ``label``, which must be ``true`` or ``false``; a null or
    absent label is None. A run of records of the canonical types
    (:func:`~etlwatch.preprocess.canonical_events`) is checked as columns
    instead. An event without an id gets ``line-<n>``. Records without an
    inline label are labeled by :func:`fill_held_out_labels`. The first bad
    line of either file raises one :class:`ContractViolationError` naming
    it.
    """
    parts = read_chunks(path, STREAM_FIELDS, _check_stream_records)
    events = EventBatch.concat(part[0] for part in parts)
    labels = list(itertools.chain.from_iterable(part[1] for part in parts))
    classes = list(itertools.chain.from_iterable(part[2] for part in parts))
    fill_held_out_labels(path, events.event_id, labels, classes)
    return events, labels, classes


def fill_held_out_labels(
    path: str | Path,
    event_ids: Sequence[str],
    labels: list[bool | None],
    classes: list[str | None],
) -> None:
    """Fill in place the label and class of every record of the stream at
    ``path`` that has no inline label, from its sibling labels file
    (:func:`labels_sibling_path`) matched by ``event_id``. Nothing is looked
    up when every record has a label, and without that file the labels stay
    None. A bad line of the file or a record it lacks raises one
    :class:`ContractViolationError`."""
    if None not in labels:
        return
    labels_path = labels_sibling_path(path)
    if not labels_path.exists():
        return
    held_out = dict(
        itertools.chain.from_iterable(read_chunks(labels_path, _LABEL_FIELDS, _check_labels))
    )
    for i, event_id in enumerate(event_ids):
        if labels[i] is None:
            if event_id not in held_out:
                raise ContractViolationError(
                    f"event {event_id!r} has no entry in {labels_path}"
                )
            labels[i], classes[i] = held_out[event_id]


def _check_stream_records(
    records: Records,
) -> tuple[EventBatch, list[bool | None], list[str | None]]:
    """The events, labels and classes of a run of stream records: as
    columns when the run is canonical, and then its decoded records are
    let go, else record by record; an event without an id gets
    ``line-<n>``."""
    events = canonical_events(records.values)
    if events is None or not set(map(type, records.values["label"])) <= {bool, type(None)}:
        events = EventBatch.from_events(each_record(_stream_event, records))
    else:
        records.rows.clear()
    if "" in events.event_id:
        events.event_id = [i or f"line-{no}" for i, no in zip(events.event_id, records.line_nos)]
    return events, records.values["label"], records.values["anomaly_class"]


def _stream_event(record: dict) -> EtlEvent:
    """A stream record's event (:func:`parse_event`), once its label is checked."""
    event = parse_event(record)
    _label(record)
    return event


def _label(record: dict) -> bool | None:
    """A record's label, which must be ``true`` or ``false``; None when it is null or absent."""
    label = record.get("label")
    if label is not None and type(label) is not bool:
        raise ContractViolationError(f"field 'label' must be a boolean, got {label!r}")
    return label


# The fields of a labels-file record; every field but anomaly_class is required.
_LABEL_FIELDS = {"event_id": ABSENT, "label": None, "anomaly_class": None}


def _check_labels(records: Records) -> list[tuple[str, tuple[bool, str | None]]]:
    """A run of labels-file records as ``(event_id, (label, anomaly_class))``
    pairs: as columns when every id is a string and every label a boolean,
    else record by record."""
    ids, labels, classes = records.values.values()
    if set(map(type, ids)) <= {str} and set(map(type, labels)) <= {bool}:
        return list(zip(ids, zip(labels, classes)))
    return each_record(_held_out_label, records)


def _held_out_label(record: dict) -> tuple[str, tuple[bool, str | None]]:
    """A labels-file record as ``(str(event_id), (label, anomaly_class))``;
    a null label counts as absent."""
    event_id, label = str(record["event_id"]), _label(record)
    if label is None:
        raise KeyError("label")
    return event_id, (label, record.get("anomaly_class"))
