"""Feature extraction and standardization for raw ETL events.

An :class:`EtlEvent` is one pipeline record. An :class:`EventBatch` holds
many of them as one list per field and builds an ``EtlEvent`` only when one
is asked for. :meth:`EventBatch.from_records` checks decoded records against
the stream schema one column at a time: type scans over each column, then
one ``np.isfinite`` per numeric column. It is the only copy of the schema;
:func:`parse_event` runs it on a batch of one record. A bad record is
reported as a record-by-record check would report it: the first bad record,
with its first failing check.

:func:`encode_events` turns a batch into fixed-width float rows, one column
at a time: numeric fields in schema order (missing ones emit 0 with a
companion indicator set to 1), one-hot blocks for the categorical fields,
one missing indicator per maskable numeric field, and a (sin, cos) encoding
of the hour of day. :func:`vectorize_events` and :func:`vectorize` are its
all-or-nothing and one-event forms. :func:`fit_stats` / :func:`standardize`
apply per-feature (x - mu) / sigma rescaling; stats are fit on training data
once and frozen for every later split and stream.

JSON-lines files (event streams, label files and detections) share one
reader, :func:`read_chunks`, and one line decoder. orjson decodes the lines,
and the stdlib ``json`` decoder those it rejects or could read differently,
so every line gives the record or the error per-line ``json.loads`` gives; a
line nested too deeply for ``json`` is an error, not a crash.
:func:`read_chunks` gathers the records into columns a run at a time and
checks each run, reading a large file in line-aligned byte ranges on every
usable CPU (:mod:`~etlwatch.workers`), with the garbage collector paused
(:func:`collector_paused`).
"""

from __future__ import annotations

import bisect
import gc
import itertools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import ContractViolationError, EncodingError, InsufficientDataError
from .numerics import as_matrix, as_vector
from .workers import fork_ways, run

MS_PER_DAY = 86_400_000

T = TypeVar("T")

DEFAULT_DEVICE_TYPES = ("mobile", "web", "pos")
DEFAULT_GEO_REGIONS = ("na", "eu", "apac", "latam")
# Numeric fields that may legitimately be absent from a record. records_loaded
# is a loader-side count and is always present.
MASKABLE_FIELDS = ("amount", "latency_ms", "task_duration_s")
NUMERIC_FIELDS = ("amount", "latency_ms", "task_duration_s", "records_loaded")


@dataclass(frozen=True, slots=True)
class EtlEvent:
    """One raw pipeline record.

    ``missing_mask`` is aligned with :data:`MASKABLE_FIELDS`; a set bit means
    the corresponding numeric never arrived. ``event_id`` is an opaque
    pass-through identifier used to join detection output back to inputs; it
    is never part of the feature vector.
    """

    timestamp: int  # epoch milliseconds
    amount: float
    latency_ms: float
    task_duration_s: float
    records_loaded: int
    device_type: str
    geo_region: str
    missing_mask: tuple[bool, ...] = (False, False, False)
    event_id: str = ""

    def __post_init__(self) -> None:
        mask = self.missing_mask
        if len(mask) != len(MASKABLE_FIELDS):
            raise ContractViolationError(
                f"missing_mask must have {len(MASKABLE_FIELDS)} entries, got {len(mask)}"
            )
        numbers = (self.amount, self.latency_ms, self.task_duration_s, self.records_loaded)
        check_finite(numbers, mask)


def check_finite(numbers: Sequence, mask: Sequence[bool]) -> None:
    """Raise on the first of an event's four numerics, in :data:`NUMERIC_FIELDS`
    order, that is neither masked nor finite: the check every :class:`EtlEvent`
    passes, with ``mask`` its ``missing_mask``."""
    for value, masked, name in zip(numbers, (*mask, False), NUMERIC_FIELDS):
        if not masked and not math.isfinite(float(value)):
            raise ContractViolationError(f"non-finite value for field {name!r}: {value}")


EVENT_FIELDS = tuple(field.name for field in dataclass_fields(EtlEvent))
_EVENT_ROW = attrgetter(*EVENT_FIELDS)


class _Absent:
    """The type of :data:`ABSENT`, which no decoded JSON value has."""


# Stands for a field a decoded record lacks.
ABSENT = _Absent()
# Each field of an event record, and what a record that lacks it reads as:
# every field but event_id is required, and a missing event_id reads as null.
EVENT_RECORD_FIELDS = {name: ABSENT for name in EVENT_FIELDS[:-1]} | {"event_id": None}


class Records(NamedTuple):
    """Decoded JSON records held as columns."""

    values: dict[str, list]  # each field's value per record, or its default
    gaps: set[str]  # the fields some record lacks
    line_nos: Sequence[int]  # each record's line in its file


def _gather(records: Sequence[dict], fields: dict[str, object], line_nos=()) -> Records:
    """Each field's value in every record; the field's default where a record lacks it."""
    values, gaps = {}, set()
    for name, default in fields.items():
        try:
            values[name] = list(map(itemgetter(name), records))
        except KeyError:
            values[name] = [record.get(name, default) for record in records]
            gaps.add(name)
    return Records(values, gaps, line_nos)


class FirstFailure:
    """The first bad row of a batch of records, and what is wrong with it.

    Checks run in the order one record's fields are checked, each over the
    rows before the first bad row found so far. So a check may assume that
    every earlier check passed, and the last row found is the first bad row,
    with the message of its first failing check.
    """

    __slots__ = ("row", "message")

    def __init__(self, rows: int) -> None:
        self.row = rows
        self.message: str | None = None

    def scan(self, values: Sequence, bad: Callable, message: Callable, rows=None) -> None:
        """Find the first value for which ``bad`` holds; ``rows`` numbers the
        values when they are not the rows 0, 1, 2, ..."""
        for row, value in zip(range(len(values)) if rows is None else rows, values):
            if row >= self.row:
                return
            if bad(value):
                try:
                    self.row, self.message = row, message(value)
                except RecursionError as exc:  # a value nested too deeply to show
                    self.row, self.message = row, str(exc)
                return

    def types(self, values: Sequence, allowed: set[type], message: Callable, rows=None) -> None:
        """:meth:`scan` for a value of a type not ``allowed``, once a set of
        the column's types shows that there is one."""
        if not set(map(type, values)) <= allowed:
            self.scan(values, lambda value: type(value) not in allowed, message, rows)

    def absent(self, records: Records, name: str, message: str, rows=None) -> None:
        """:meth:`scan` for a record that lacks the field ``name``."""
        if name in records.gaps:
            values = records.values[name]
            if rows is not None:
                values = [values[i] for i in rows]
            if _Absent in set(map(type, values)):
                self.scan(values, lambda value: value is ABSENT, lambda _: message, rows)


def float_error(value: object) -> str | None:
    """Why ``float(value)`` fails, or None when it does not."""
    try:
        float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        return str(exc)
    return None


def _floats(values: list, first: FirstFailure) -> list[float]:
    """``float`` of every value, up to the first one it fails on."""
    try:
        return list(map(float, values))
    except (TypeError, ValueError, OverflowError):
        first.scan(values, lambda value: float_error(value) is not None, float_error)
        return list(map(float, values[: first.row]))


def _str_error(value: object) -> str | None:
    """Why ``str(value)`` fails, or None when it does not."""
    try:
        str(value)
    except RecursionError as exc:  # a value nested too deeply to show
        return str(exc)
    return None


def _strings(values: list, first: FirstFailure) -> list[str]:
    """``str`` of every value, up to the first one it fails on."""
    if set(map(type, values)) <= {str}:
        return values
    try:
        return list(map(str, values))
    except RecursionError:
        first.scan(values, lambda value: _str_error(value) is not None, _str_error)
        return list(map(str, values[: first.row]))


def _integers(values: list, name: str, first: FirstFailure) -> list[int]:
    """The values as ints, up to the first that is not an int or an integral float."""
    if set(map(type, values)) <= {int}:
        return values
    first.scan(
        values,
        lambda v: type(v) is not int and not (type(v) is float and v.is_integer()),
        lambda v: f"field {name!r} must be an integer, got {v!r}",
    )
    return [int(v) if type(v) is float else v for v in values[: first.row]]


class EventBatch(Sequence[EtlEvent]):
    """Events held as one list per :class:`EtlEvent` field, in input order.

    ``batch[i]`` builds the event of row ``i`` and ``batch[i] = event``
    writes an event's fields into row ``i``; a slice and :meth:`where` give
    new batches over the same values. The columns are not checked here:
    :meth:`from_events` takes them from checked events,
    :meth:`from_records` checks decoded records, and a caller of
    :meth:`from_rows` checks its rows.
    """

    __slots__ = EVENT_FIELDS

    def __init__(self, *columns: list) -> None:
        if len(columns) != len(EVENT_FIELDS) or len(set(map(len, columns))) > 1:
            raise ContractViolationError(
                f"an event batch needs {len(EVENT_FIELDS)} columns of one length"
            )
        for name, column in zip(EVENT_FIELDS, columns):
            setattr(self, name, column)

    def columns(self) -> list[list]:
        return [getattr(self, name) for name in EVENT_FIELDS]

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventBatch(*(column[index] for column in self.columns()))
        return EtlEvent(*(column[index] for column in self.columns()))

    def __setitem__(self, index: int, event: EtlEvent) -> None:
        for column, value in zip(self.columns(), _EVENT_ROW(event)):
            column[index] = value

    def __iter__(self) -> Iterator[EtlEvent]:
        return itertools.starmap(EtlEvent, zip(*self.columns()))

    def where(self, keep: Iterable[bool]) -> EventBatch:
        """The rows whose entry of ``keep`` is true."""
        keep = list(keep)
        return EventBatch(*(list(itertools.compress(c, keep)) for c in self.columns()))

    @classmethod
    def concat(cls, batches: Iterable[EventBatch]) -> EventBatch:
        columns = [[] for _ in EVENT_FIELDS]
        for batch in batches:
            for column, part in zip(columns, batch.columns()):
                column += part
        return cls(*columns)

    @classmethod
    def from_events(cls, events: Iterable[EtlEvent]) -> EventBatch:
        """The events as a batch; a batch is returned as it is."""
        if isinstance(events, EventBatch):
            return events
        return cls.from_rows(map(_EVENT_ROW, events))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> EventBatch:
        """Rows of an event's field values, in :data:`EVENT_FIELDS` order, as a batch."""
        columns = [list(column) for column in zip(*rows)]
        return cls(*(columns or [[] for _ in EVENT_FIELDS]))

    @classmethod
    def from_records(cls, records: Records, first: FirstFailure) -> EventBatch:
        """Check decoded event records against the stream schema.

        ``records`` holds every field of :data:`EVENT_RECORD_FIELDS`. The
        first bad record and its message go to ``first``, and the batch
        holds the records before it. Every field but ``event_id`` is
        required, and a null ``event_id`` counts as absent. ``timestamp``
        and ``records_loaded`` must be JSON integers, or integral floats.
        ``missing_mask`` must be an array of booleans, one per maskable
        field. A masked numeric is kept as read and never read; any other
        must be a finite JSON number.
        """
        raw = records.values

        def present(*names: str) -> None:
            for name in names:
                first.absent(records, name, f"event record is missing field {name!r}")

        present("timestamp")
        timestamp = _integers(raw["timestamp"], "timestamp", first)
        present(*MASKABLE_FIELDS, "missing_mask")
        masks = raw["missing_mask"]
        first.types(masks, {list}, lambda m: f"field 'missing_mask' must be an array, got {m!r}")
        if not set(map(type, itertools.chain.from_iterable(masks[: first.row]))) <= {bool}:
            first.scan(
                masks,
                lambda m: not set(map(type, m)) <= {bool},
                lambda m: f"field 'missing_mask' must be an array of booleans, got {m!r}",
            )
        head, size = masks[: first.row], len(MASKABLE_FIELDS)
        odd_size = bool(set(map(len, head)) - {size})
        if odd_size:  # padded here; the length is checked below
            head = [(*m, *[False] * size)[:size] for m in head]
        masked = list(zip(*head)) or [()] * size

        numbers = {}  # each number column as floats; a masked value as read, or 0.0
        converted = set()
        for name, flags in zip(MASKABLE_FIELDS, masked):
            values = raw[name][: first.row]
            if not set(map(type, values)) <= {float}:  # an int, or an odd masked value
                if True in flags:
                    values = [0.0 if m else v for v, m in zip(values, flags)]
                first.types(
                    values, {int, float}, lambda v: f"field {name!r} must be a number, got {v!r}"
                )
                values = _floats(values[: first.row], first)
                converted.add(name)
            numbers[name] = values
        present("records_loaded")
        records_loaded = _integers(raw["records_loaded"][: first.row], "records_loaded", first)
        categories = []
        for name in ("device_type", "geo_region"):
            present(name)
            categories.append(_strings(raw[name][: first.row], first))
        ids = raw["event_id"][: first.row]
        if not set(map(type, ids)) <= {str}:
            ids = _strings(["" if v is None else v for v in ids], first)
        if odd_size:
            first.scan(
                masks,
                lambda m: len(m) != size,
                lambda m: f"missing_mask must have {size} entries, got {len(m)}",
            )
        for name, flags in zip(MASKABLE_FIELDS, masked):
            values = np.array(numbers[name][: first.row], dtype=np.float64)
            bad = ~np.isfinite(values)
            if bad.any():  # a masked value may be anything
                bad = np.flatnonzero(bad & ~np.array(flags[: len(values)], dtype=bool))
                if bad.size:
                    first.row = int(bad[0])
                    first.message = f"non-finite value for field {name!r}: {values[first.row]}"
        _floats(records_loaded[: first.row], first)  # EtlEvent checks that it is finite

        n = first.row
        for name, flags in zip(MASKABLE_FIELDS, masked):
            values, flags = numbers[name][:n], flags[:n]
            if name in converted and True in flags:  # a masked value is kept as read
                numbers[name] = [v if m else f for v, f, m in zip(raw[name], values, flags)]
            else:
                numbers[name] = values
        return cls(
            timestamp[:n],
            *numbers.values(),
            records_loaded[:n],
            *(values[:n] for values in categories),
            list(map(tuple, masks[:n])),
            ids[:n],
        )


@dataclass(frozen=True)
class FeatureSchema:
    """Fixed ordering of feature slots; determines the input dimension d."""

    numeric_fields: tuple[str, ...] = NUMERIC_FIELDS
    device_types: tuple[str, ...] = DEFAULT_DEVICE_TYPES
    geo_regions: tuple[str, ...] = DEFAULT_GEO_REGIONS
    maskable_fields: tuple[str, ...] = MASKABLE_FIELDS

    @property
    def dim(self) -> int:
        return (
            len(self.numeric_fields)
            + len(self.device_types)
            + len(self.geo_regions)
            + len(self.maskable_fields)
            + 2  # hour-of-day (sin, cos)
        )

    def column_names(self) -> list[str]:
        names = list(self.numeric_fields)
        names += [f"device_type={v}" for v in self.device_types]
        names += [f"geo_region={v}" for v in self.geo_regions]
        names += [f"{v}_missing" for v in self.maskable_fields]
        names += ["tod_sin", "tod_cos"]
        return names

    def to_dict(self) -> dict:
        return {
            "numeric_fields": list(self.numeric_fields),
            "device_types": list(self.device_types),
            "geo_regions": list(self.geo_regions),
            "maskable_fields": list(self.maskable_fields),
        }

    @classmethod
    def from_dict(cls, data: dict) -> FeatureSchema:
        return cls(
            numeric_fields=tuple(data["numeric_fields"]),
            device_types=tuple(data["device_types"]),
            geo_regions=tuple(data["geo_regions"]),
            maskable_fields=tuple(data["maskable_fields"]),
        )


@dataclass(frozen=True)
class StandardizationStats:
    """Frozen per-feature mean and (floored) standard deviation."""

    mu: np.ndarray
    sigma: np.ndarray
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        mu = as_vector(self.mu, "mu")
        sigma = as_vector(self.sigma, "sigma")
        if mu.shape != sigma.shape:
            raise ContractViolationError(
                f"mu and sigma lengths differ: {mu.shape[0]} vs {sigma.shape[0]}"
            )
        if np.any(sigma < self.epsilon):
            raise ContractViolationError("every sigma must be >= epsilon")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def hour_angle(timestamp_ms: int) -> float:
    """Hour-of-day expressed as an angle in [0, 2*pi)."""
    return 2.0 * math.pi * (timestamp_ms % MS_PER_DAY) / MS_PER_DAY


def encode_events(
    events: Iterable[EtlEvent], schema: FeatureSchema
) -> tuple[np.ndarray, list[tuple[int, EncodingError]]]:
    """Encode events column by column; return the rows and the failures.

    ``events`` is read as an :class:`EventBatch` (see
    :meth:`EventBatch.from_events`). The (m, d) matrix holds one row per
    event that encodes, in input order. Each event that does not is listed
    as ``(position, EncodingError)`` instead; an unknown ``device_type`` is
    reported before an unknown ``geo_region``. A masked numeric encodes as 0
    and its value is never read, and nothing of an event that fails is read
    past its categories. Hour columns use ``math.sin``/``math.cos`` per
    event, so every value is bitwise what a per-event encoding gives.
    """
    batch = EventBatch.from_events(events)
    device_at = len(schema.numeric_fields)
    device_col = {v: device_at + j for j, v in enumerate(schema.device_types)}
    region_at = device_at + len(schema.device_types)
    region_col = {v: region_at + j for j, v in enumerate(schema.geo_regions)}
    devices = list(map(device_col.get, batch.device_type))
    regions = list(map(region_col.get, batch.geo_region))
    errors: list[tuple[int, EncodingError]] = []
    if None in devices or None in regions:
        keep = [True] * len(devices)
        for position, (device, region) in enumerate(zip(devices, regions)):
            if device is None or region is None:
                keep[position] = False
                field = "device_type" if device is None else "geo_region"
                errors.append((position, EncodingError(field, getattr(batch, field)[position])))
        batch = batch.where(keep)
        devices = list(itertools.compress(devices, keep))
        regions = list(itertools.compress(regions, keep))

    n, n_mask = len(batch), len(schema.maskable_fields)
    x = np.zeros((n, schema.dim), dtype=np.float64)
    flags = itertools.chain.from_iterable(batch.missing_mask)
    size = len(MASKABLE_FIELDS)  # every event's mask has this many entries
    missing = np.fromiter(map(bool, flags), bool, n * size).reshape(n, size)[:, :n_mask]
    for j, name in enumerate(schema.numeric_fields):
        values = getattr(batch, name)
        if name in schema.maskable_fields:
            masked = missing[:, schema.maskable_fields.index(name)]
            if masked.any():
                values = [0.0 if m else v for v, m in zip(values, masked.tolist())]
        x[:, j] = list(map(float, values))
    rows = np.arange(n)
    x[rows, devices] = 1.0
    x[rows, regions] = 1.0
    x[:, -2 - n_mask : -2] = missing
    angles = list(map(hour_angle, batch.timestamp))
    x[:, -2] = list(map(math.sin, angles))
    x[:, -1] = list(map(math.cos, angles))
    return x, errors


def vectorize_events(events: Iterable[EtlEvent], schema: FeatureSchema) -> np.ndarray:
    """:func:`encode_events` as an (n, d) matrix; raises the first EncodingError."""
    x, errors = encode_events(events, schema)
    if errors:
        raise errors[0][1]
    return x


def vectorize(event: EtlEvent, schema: FeatureSchema) -> np.ndarray:
    """Encode one event as a feature vector of length ``schema.dim``."""
    return vectorize_events([event], schema)[0]


def fit_stats(x: np.ndarray) -> StandardizationStats:
    """Column means and population standard deviations, floored at
    :class:`StandardizationStats`' epsilon."""
    x = as_matrix(x, "feature matrix")
    if x.shape[0] < 2:
        raise InsufficientDataError(
            f"fitting stats needs at least 2 rows, got {x.shape[0]}"
        )
    mu = x.mean(axis=0)
    # population (divide-by-N) std
    sigma = np.maximum(x.std(axis=0), StandardizationStats.epsilon)
    return StandardizationStats(mu=mu, sigma=sigma)


def standardize(x: np.ndarray, stats: StandardizationStats) -> np.ndarray:
    """Apply (x - mu) / sigma per feature; accepts a vector or a matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != stats.dim:
        raise ContractViolationError(
            f"cannot standardize shape {x.shape} with stats of dimension {stats.dim}"
        )
    return (x - stats.mu) / stats.sigma


def parse_event(record: dict) -> EtlEvent:
    """Build an :class:`EtlEvent` from one decoded JSON record.

    This is :meth:`EventBatch.from_records` on one record, so it applies the
    same schema; a bad record raises its first failing check. A missing or
    null ``event_id`` gives the id ``""``.
    """
    first = FirstFailure(1)
    batch = EventBatch.from_records(_gather([record], EVENT_RECORD_FIELDS), first)
    if first.message is not None:
        raise ContractViolationError(first.message)
    return batch[0]


# orjson reads an integer literal outside the 64-bit range as a float, where
# json gives the exact int. Such a literal holds a run of at least 19 digits,
# which one search finds once every digit is mapped to "0".
_DIGIT_RUN = b"0" * 19
_DIGITS = bytes.maketrans(b"0123456789", b"0000000000")
# orjson decodes a block of lines only when every line is shorter than this,
# so it never builds a value nested this deep: it recurses without a limit of
# its own (a line nested a million deep crashes the interpreter), and a value
# nested near the recursion limit cannot be shown in an error message. json
# decodes the longer lines, and a RecursionError from it is the line's error.
_DEEP = 512


# Lines decoded at a time, before their records are gathered into columns
# and checked; it bounds the decoded objects held at once.
_CHUNK = 1024
# Bytes of a file per reader process. On a 2-vCPU host a reader costs about
# 25-30 ms to fork, hear from and reap, with what it sends back. Decoding,
# checking and scoring a MiB of stream lines, as detect does, takes about
# 28 ms, and splitting it broke even at about this much per process (best
# of 7). A plain read, with the collector paused, breaks even here too:
# 2 MiB of stream / detection lines took 35.9 / 31.7 ms in one range and
# 34.1 / 30.3 ms in two, and 4 MiB 66.6 / 62.8 against 62.3 / 59.6 ms (best
# of 7, 8 rounds). So a file is split only where every process gets this much.
_SPLIT_BYTES = 1 << 20
# Bytes read at a time when a reader counts the lines before its range.
_COUNT_BLOCK = 1 << 20


def _json_runs(
    fh: BinaryIO, path: str | Path, start: int = 0, end: float = math.inf
) -> Iterator[tuple[Sequence[int], list[dict], Exception | None]]:
    """The records of the lines of a JSON-lines file that start at byte
    ``start`` or later and before byte ``end``, one run per block of
    :data:`_CHUNK` lines, each with the line numbers of its records,
    skipping blank lines. ``fh`` is the file, opened in binary mode at
    offset 0; ``start`` is 0 or the start of a line.

    Each line gives the record that per-line ``json.loads`` of its UTF-8
    text gives, with the same types and float bits. orjson decodes a block
    of lines at once when every line is shorter than :data:`_DEEP` bytes, no
    line holds a run of 19 digits, and orjson accepts every line as a JSON
    object. Any other block, such as one with a longer line (a long id or
    error text), goes line by line through the stdlib ``json`` decoder. The
    first line that is not a UTF-8 JSON object, or is nested too deeply for
    json to decode, ends the last run, which carries a
    :class:`ContractViolationError` that names the file and line with the
    message of json's ValueError or RecursionError; the others carry None.
    """
    from orjson import loads  # here, not at import, which it would slow by ~15 ms

    line_no = 1
    for offset in range(0, start, _COUNT_BLOCK):  # number lines by the newlines before
        line_no += fh.read(min(_COUNT_BLOCK, start - offset)).count(b"\n")
    at = start
    while at < end and (lines := list(itertools.islice(fh, _CHUNK))):
        starts = list(itertools.accumulate(map(len, lines), initial=at))
        del lines[bisect.bisect_left(starts, end, hi=len(lines)) :]  # those from end on
        at = starts[len(lines)]
        line_nos = range(line_no, line_no + len(lines))
        line_no += len(lines)
        if max(map(len, lines)) < _DEEP and _DIGIT_RUN not in b"".join(lines).translate(_DIGITS):
            try:
                records = list(map(loads, lines))
            except ValueError:  # a blank line, bad JSON or JSON that orjson rejects
                records = None
            if records is not None and set(map(type, records)) == {dict}:
                yield line_nos, records, None
                continue
        numbered, records = [], []
        for no, raw in zip(line_nos, lines):
            if raw.isspace():  # the ASCII blanks bytes.strip() removes
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
            except (ValueError, RecursionError) as exc:
                yield numbered, records, ContractViolationError(f"{path} line {no}: {exc}")
                return
            numbered.append(no)
            records.append(record)
        yield numbered, records, None


def _check_range(
    fh: BinaryIO, path: str | Path, fields: dict, check: Callable, start: int, end: float
) -> tuple[list, Exception | None]:
    """``check`` of each run of records in bytes ``start`` up to ``end`` of
    a JSON-lines file (see :func:`_json_runs`), and the range's first bad
    line as a :class:`ContractViolationError`, or None."""
    parts = []
    for line_nos, records, failure in _json_runs(fh, path, start, end):
        first = FirstFailure(len(records))
        parts.append(check(_gather(records, fields, line_nos), first))
        if first.message is not None:
            failure = ContractViolationError(f"{path} line {line_nos[first.row]}: {first.message}")
        if failure is not None:
            return parts, failure
    return parts, None


def _read_range(path, fields, check, start: int, end: float) -> tuple[list, Exception | None]:
    """:func:`_check_range` over a handle of its own: a reader process's job."""
    with open(path, "rb") as fh:
        return _check_range(fh, path, fields, check, start, end)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, process-wide, for the body.

    Decoded JSON values, their columns and generated events form no cycles,
    yet the collector walks them every 700 allocations, and in a forked
    reader copies the pages it walks. Another thread's cycles wait for the
    next collection. On exit the collector is enabled if it was on entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@collector_paused()
def read_chunks(
    path: str | Path,
    fields: dict[str, object],
    check: Callable[[Records, FirstFailure], T],
) -> list[T]:
    """``check`` of each run of records of a JSON-lines file, in line order.

    Each run of up to :data:`_CHUNK` records is :func:`_gather`-ed into the
    ``fields`` columns, and ``check`` reports its first bad record to its
    :class:`FirstFailure`. The first bad line, a bad record or a line that
    is not a UTF-8 JSON object, raises one :class:`ContractViolationError`
    naming the file and line; a line that fails to decode is reported only
    once the records before it have been checked.

    A file of at least :data:`_SPLIT_BYTES` per process is read as
    line-aligned byte ranges, one per usable CPU (:func:`fork_ways`), with
    :func:`~etlwatch.workers.run`: workers check ranges 1, 2, ... and send
    back their parts and their first failure, while the caller checks range
    0 from its own handle, which needs no count of the lines before it. The
    parts are joined in range order and the first failure in line order is
    raised, so the result and every error are those of a read in one range,
    which is what a small file, one usable CPU or a file that cannot be
    seeked (a FIFO) gets.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size if fh.seekable() else 0
        ways = fork_ways(size // _SPLIT_BYTES)
        bounds = [0]
        for i in range(1, ways):  # each range starts after the newline at or past its share
            fh.seek(size * i // ways)
            fh.readline()
            bounds.append(fh.tell())
        if ways > 1:
            fh.seek(0)
        bounds.append(math.inf)
        jobs = [
            partial(_read_range, path, fields, check, start, end)
            for start, end in zip(bounds[1:], bounds[2:])
        ]
        jobs.append(partial(_check_range, fh, path, fields, check, 0, bounds[1]))  # the caller's
        ranges = run(jobs, f"{path}: a reader process", "records")
    parts = []
    for theirs, failure in ranges[-1:] + ranges[:-1]:  # range 0 first
        parts += theirs
        if failure is not None:
            raise failure
    return parts
