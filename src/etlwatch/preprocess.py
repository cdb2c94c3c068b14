"""Feature extraction and standardization for raw ETL events.

An :class:`EtlEvent` is one pipeline record. An :class:`EventBatch` holds
many of them as one list per field and builds an ``EtlEvent`` only when one
is asked for. :func:`parse_event` is the stream schema: it checks one
decoded record field by field and is the only place its messages are
written. A run of records read from a file is checked as columns only to
learn whether every record has the canonical types
(:func:`canonical_events`); a run that has not goes through
:func:`parse_event` record by record (:func:`each_record`), and its first
bad record names the line.

:func:`encode_events` turns a batch into rows of the one, constant feature
layout (:class:`FeatureSchema`), one column at a time: numeric fields
(missing ones emit 0 with a companion indicator set to 1), one-hot blocks
for the categorical fields, one missing indicator per maskable numeric
field, and a (sin, cos) encoding of the hour of day. :func:`vectorize_events`
and :func:`vectorize` are its all-or-nothing and one-event forms.
:func:`fit_stats` / :func:`standardize` apply per-feature (x - mu) / sigma
rescaling, sigma floored at the constant :attr:`StandardizationStats.epsilon`;
stats are fit on training data once and frozen for every later split and stream.

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
from array import array
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
# is a loader-side count and is always present. The maskable fields lead the
# numeric ones, so mask bit j belongs to numeric field j.
MASKABLE_FIELDS = ("amount", "latency_ms", "task_duration_s")
NUMERIC_FIELDS = (*MASKABLE_FIELDS, "records_loaded")


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
    """A run of decoded JSON records, and the same records held as columns."""

    rows: list[dict]  # the records
    values: dict[str, list]  # each field's value per record, or its default
    line_nos: Sequence[int]  # each record's line in its file


def _gather(records: list[dict], fields: dict[str, object], line_nos: Sequence[int]) -> Records:
    """Each field's value in every record; the field's default where a record lacks it."""
    values = {}
    for name, default in fields.items():
        try:
            values[name] = list(map(itemgetter(name), records))
        except KeyError:
            values[name] = [record.get(name, default) for record in records]
    return Records(records, values, line_nos)


class BadRecord(Exception):
    """``BadRecord(row, message)``: the record in row ``row`` of a run fails
    its rule with ``message``."""


def each_record(rule: Callable[[dict], T], records: Records) -> list[T]:
    """``rule`` of every record of a run, in order.

    The first record that ``rule`` fails on raises :class:`BadRecord`. A
    field the record lacks (a ``KeyError``) reads ``no field '<name>'``; the
    text of a :class:`ContractViolationError`, of an ``OverflowError`` from
    ``float`` or of a ``RecursionError`` from showing a value nested too
    deeply is the message.
    """
    results = []
    try:
        for record in records.rows:
            results.append(rule(record))
    except KeyError as exc:
        raise BadRecord(len(results), f"no field {exc.args[0]!r}") from None
    except (ContractViolationError, OverflowError, RecursionError) as exc:
        raise BadRecord(len(results), str(exc)) from None
    return results


def _integral(record: dict, name: str) -> int:
    value = record[name]
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ContractViolationError(f"field {name!r} must be an integer, got {value!r}")


def _number(value: object, name: str) -> float:
    if type(value) is int or type(value) is float:
        return float(value)
    raise ContractViolationError(f"field {name!r} must be a number, got {value!r}")


def parse_event(record: dict) -> EtlEvent:
    """Check one decoded event record against the stream schema and build its event.

    The fields are checked one after another, and the first failing check
    raises :class:`ContractViolationError`. Every field but ``event_id`` is
    required. ``timestamp`` and ``records_loaded`` must be JSON integers,
    or integral floats. ``missing_mask`` must be an array of booleans, one
    per maskable field. A masked numeric is kept as read and never read;
    any other must be a JSON number, and :class:`EtlEvent` checks that it
    is finite. A missing or null ``event_id`` gives the id ``""``, and any
    other value its ``str``.
    """
    try:
        timestamp = _integral(record, "timestamp")
        numbers = [record[name] for name in MASKABLE_FIELDS]
        mask = record["missing_mask"]
        if type(mask) is not list:
            raise ContractViolationError(f"field 'missing_mask' must be an array, got {mask!r}")
        if not set(map(type, mask)) <= {bool}:
            raise ContractViolationError(
                f"field 'missing_mask' must be an array of booleans, got {mask!r}"
            )
        padded = (*mask, *[False] * len(MASKABLE_FIELDS))  # EtlEvent checks the length
        numbers = [
            value if masked else _number(value, name)
            for value, masked, name in zip(numbers, padded, MASKABLE_FIELDS)
        ]
        event_id = record.get("event_id")
        return EtlEvent(
            timestamp,
            *numbers,
            _integral(record, "records_loaded"),
            str(record["device_type"]),
            str(record["geo_region"]),
            tuple(mask),
            "" if event_id is None else str(event_id),
        )
    except KeyError as exc:
        raise ContractViolationError(f"event record is missing field {exc.args[0]!r}") from None
    except (OverflowError, RecursionError) as exc:  # a number too large, a value too deep
        raise ContractViolationError(str(exc)) from None


# The types each field of an event record has when a run of records is
# checked as columns (canonical_events).
_CANONICAL_TYPES = {
    "timestamp": {int},
    **{name: {int, float} for name in MASKABLE_FIELDS},
    "records_loaded": {int},
    "device_type": {str},
    "geo_region": {str},
    "missing_mask": {list},
    "event_id": {str, type(None)},
}


def canonical_events(values: dict[str, list]) -> EventBatch | None:
    """The run of event records whose fields are ``values`` as a batch, when
    every record has the canonical types; else None, and the run must go
    through :func:`parse_event` one record at a time.

    Canonical are int ``timestamp`` and ``records_loaded``, finite float
    numerics or unmasked finite int ones, an array of three booleans as
    ``missing_mask``, string categories, and a string or null
    ``event_id``. Every such record passes :func:`parse_event`, and the
    batch holds the events it gives; a set of types per column and one
    ``np.isfinite`` per numeric column show it.
    """
    types = {name: set(map(type, values[name])) for name in _CANONICAL_TYPES}
    masks = values["missing_mask"]
    if not (
        all(types[name] <= allowed for name, allowed in _CANONICAL_TYPES.items())
        and set(map(len, masks)) <= {len(MASKABLE_FIELDS)}
        and set(map(type, itertools.chain.from_iterable(masks))) <= {bool}
    ):
        return None
    numbers = []
    for j, name in enumerate(NUMERIC_FIELDS):
        column = values[name]
        try:
            floats = np.array(column, dtype=np.float64)
        except OverflowError:  # an int too large for a float
            return None
        if not np.isfinite(floats).all():
            return None
        if name in MASKABLE_FIELDS and int in types[name]:
            if True in (mask[j] for mask in masks):
                return None  # a masked int is kept as read, an unmasked one as a float
            column = floats.tolist()
        numbers.append(column)
    ids = values["event_id"]
    if type(None) in types["event_id"]:
        ids = ["" if value is None else value for value in ids]
    return EventBatch(
        values["timestamp"], *numbers, values["device_type"], values["geo_region"],
        list(map(tuple, masks)), ids,
    )


class EventBatch(Sequence[EtlEvent]):
    """Events held as one column per :class:`EtlEvent` field, in input order.

    A column is a list, or an ``array("d")`` of floats, 8 bytes a value,
    as :func:`~etlwatch.streamgen.generate` holds its three float fields;
    a read gives Python values either way. ``batch[i]`` builds the event of
    row ``i`` and ``batch[i] = event`` writes an event's fields into row
    ``i``, refusing, before it writes any, an event with a value other than
    a float for an array column. A slice, :meth:`where` and :meth:`concat`
    give new batches over the same values, with columns of the same types.
    The columns are not checked here: :meth:`from_events` takes them from
    checked events, :func:`canonical_events` checks decoded records, and a
    caller of :meth:`from_rows` checks its rows.
    """

    __slots__ = EVENT_FIELDS

    def __init__(self, *columns: list | array) -> None:
        if len(columns) != len(EVENT_FIELDS) or len(set(map(len, columns))) > 1:
            raise ContractViolationError(
                f"an event batch needs {len(EVENT_FIELDS)} columns of one length"
            )
        for name, column in zip(EVENT_FIELDS, columns):
            setattr(self, name, column)

    def columns(self) -> list[list | array]:
        return [getattr(self, name) for name in EVENT_FIELDS]

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventBatch(*(column[index] for column in self.columns()))
        return EtlEvent(*(column[index] for column in self.columns()))

    def __setitem__(self, index: int, event: EtlEvent) -> None:
        row = _EVENT_ROW(event)
        for name, column, value in zip(EVENT_FIELDS, self.columns(), row):
            if type(column) is array and not isinstance(value, float):
                raise ContractViolationError(
                    f"field {name!r} of this batch holds floats only, got {value!r}"
                )
        for column, value in zip(self.columns(), row):
            column[index] = value

    def __iter__(self) -> Iterator[EtlEvent]:
        return itertools.starmap(EtlEvent, zip(*self.columns()))

    def where(self, keep: Iterable[bool], start: int = 0) -> EventBatch:
        """The rows from row ``start`` on whose entry of ``keep`` is true:
        row ``start + i`` where ``keep[i]`` is, in one pass over each column,
        without a copy of its rows from ``start`` on."""
        keep = list(keep)
        columns = [column[:0] for column in self.columns()]
        for column, values in zip(columns, self.columns()):
            column.extend(itertools.compress(itertools.islice(values, start, None), keep))
        return EventBatch(*columns)

    @classmethod
    def concat(cls, batches: Iterable[EventBatch]) -> EventBatch:
        """The batches' rows in order, each column of the first batch's type."""
        columns = None
        for batch in batches:
            if columns is None:
                columns = [part[:0] for part in batch.columns()]
            for column, part in zip(columns, batch.columns()):
                column.extend(part)
        return cls(*(columns or [[] for _ in EVENT_FIELDS]))

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


@dataclass(frozen=True)
class FeatureSchema:
    """The one feature layout: its slots, in order, and its dimension d.
    Each is a class constant, not a field, so every instance is the same."""

    numeric_fields = NUMERIC_FIELDS
    device_types = DEFAULT_DEVICE_TYPES
    geo_regions = DEFAULT_GEO_REGIONS
    maskable_fields = MASKABLE_FIELDS
    dim = 2 + sum(  # hour-of-day (sin, cos) and the four blocks
        map(len, (NUMERIC_FIELDS, DEFAULT_DEVICE_TYPES, DEFAULT_GEO_REGIONS, MASKABLE_FIELDS))
    )

    def column_names(self) -> list[str]:
        names = list(self.numeric_fields)
        names += [f"device_type={v}" for v in self.device_types]
        names += [f"geo_region={v}" for v in self.geo_regions]
        names += [f"{v}_missing" for v in self.maskable_fields]
        names += ["tod_sin", "tod_cos"]
        return names

    def to_dict(self) -> dict:
        names = ("numeric_fields", "device_types", "geo_regions", "maskable_fields")
        return {name: list(getattr(self, name)) for name in names}

    @classmethod
    def from_dict(cls, data: object) -> FeatureSchema:
        """The schema of a model document's ``"schema"`` object, which must be
        :meth:`to_dict`'s: any other layout raises
        :class:`ContractViolationError` naming the first field that differs."""
        layout = cls().to_dict()
        if not isinstance(data, dict):
            raise ContractViolationError("field 'schema' must be an object")
        for name in [*layout, *data]:
            if data.get(name, ABSENT) != layout.get(name, ABSENT):
                expected = json.dumps(layout[name]) if name in layout else "absent"
                raise ContractViolationError(f"field 'schema.{name}' must be {expected}")
        return cls()


@dataclass(frozen=True)
class StandardizationStats:
    """Frozen per-feature mean and standard deviation, every sigma at least
    the one floor, :attr:`epsilon`."""

    epsilon = 1e-8  # a class constant, not a field
    mu: np.ndarray
    sigma: np.ndarray

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


# The column of each device and region value: where FeatureSchema.column_names puts it.
_COLUMN = {name: j for j, name in enumerate(FeatureSchema().column_names())}
_DEVICE_COLUMN = {v: _COLUMN[f"device_type={v}"] for v in DEFAULT_DEVICE_TYPES}
_REGION_COLUMN = {v: _COLUMN[f"geo_region={v}"] for v in DEFAULT_GEO_REGIONS}


def encode_events(
    events: Iterable[EtlEvent], schema: FeatureSchema
) -> tuple[np.ndarray, list[tuple[int, EncodingError]]]:
    """Encode events column by column; return the rows and the failures.

    ``events`` is read as an :class:`EventBatch` (see
    :meth:`EventBatch.from_events`). The (m, d) matrix holds one row per
    event that encodes, in input order, in the one :class:`FeatureSchema`
    layout. Each event that does not is listed as ``(position,
    EncodingError)`` instead; an unknown ``device_type`` is reported before
    an unknown ``geo_region``. A masked numeric encodes as 0 and its value
    is never read, and nothing of an event that fails is read past its
    categories. Hour columns use ``math.sin``/``math.cos`` per event, so
    every value is bitwise what a per-event encoding gives.
    """
    batch = EventBatch.from_events(events)
    devices = list(map(_DEVICE_COLUMN.get, batch.device_type))
    regions = list(map(_REGION_COLUMN.get, batch.geo_region))
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

    n, size = len(batch), len(MASKABLE_FIELDS)  # every event's mask has size entries
    x = np.zeros((n, FeatureSchema.dim), dtype=np.float64)
    flags = itertools.chain.from_iterable(batch.missing_mask)
    missing = np.fromiter(map(bool, flags), bool, n * size).reshape(n, size)
    for j, name in enumerate(NUMERIC_FIELDS):
        values = getattr(batch, name)
        if j < size and missing[:, j].any():  # mask bit j masks numeric field j
            values = [0.0 if m else v for v, m in zip(values, missing[:, j].tolist())]
        x[:, j] = list(map(float, values))
    rows = np.arange(n)
    x[rows, devices] = 1.0
    x[rows, regions] = 1.0
    x[:, -2 - size : -2] = missing
    # the hour-of-day angle 2 pi (t mod day) / day, on the day's milliseconds
    # taken as Python ints, so a timestamp beyond int64 encodes too
    day_ms = np.array([t % MS_PER_DAY for t in batch.timestamp], dtype=np.float64)
    angles = (2.0 * math.pi * day_ms / MS_PER_DAY).tolist()
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
    :attr:`StandardizationStats.epsilon`.

    The bits are those of ``x.mean(axis=0)`` and ``x.std(axis=0)``, but
    the sums run :data:`_CHUNK` rows at a time (:func:`_column_sums`), so
    the deviations and their squares are never held for every row at once.
    """
    x = as_matrix(x, "feature matrix")
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(f"fitting stats needs at least 2 rows, got {n}")
    mu = _column_sums(x) / n
    # population (divide-by-N) std
    sigma = np.maximum(np.sqrt(_column_sums(x, mu) / n), StandardizationStats.epsilon)
    return StandardizationStats(mu=mu, sigma=sigma)


def _column_sums(x: np.ndarray, mu: np.ndarray | None = None) -> np.ndarray:
    """The sum down each column of a C-ordered ``x``, or with ``mu`` given of
    ``(x - mu) ** 2``, :data:`_CHUNK` rows at a time. numpy sums axis 0 of
    such an array one row after another, so adding each chunk's rows onto
    the running sums in one reduce gives the bits of one sum over all rows."""
    sums = None
    for lo in range(0, len(x), _CHUNK):
        chunk = x[lo : lo + _CHUNK]
        if mu is not None:
            chunk = chunk - mu
            np.multiply(chunk, chunk, out=chunk)
        if sums is not None:
            chunk = np.vstack((sums[None], chunk))
        sums = np.add.reduce(chunk, axis=0)
    return sums


def standardize(
    x: np.ndarray, stats: StandardizationStats, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply (x - mu) / sigma per feature; accepts a vector or a matrix.

    The result goes into ``out``, which may be ``x`` itself, when given, and
    into a new array otherwise, which is then all that is allocated: the
    division overwrites the difference in place.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != stats.dim:
        raise ContractViolationError(
            f"cannot standardize shape {x.shape} with stats of dimension {stats.dim}"
        )
    y = np.subtract(x, stats.mu, out=out)
    y /= stats.sigma
    return y


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
        try:
            parts.append(check(_gather(records, fields, line_nos)))
        except BadRecord as bad:
            row, message = bad.args
            return parts, ContractViolationError(f"{path} line {line_nos[row]}: {message}")
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
    check: Callable[[Records], T],
) -> list[T]:
    """``check`` of each run of records of a JSON-lines file, in line order.

    Each run of up to :data:`_CHUNK` records is :func:`_gather`-ed into the
    ``fields`` columns, and ``check`` raises :class:`BadRecord` for the
    first bad record of a run it cannot take. The first bad line, a bad
    record or a line that is not a UTF-8 JSON object, raises one
    :class:`ContractViolationError` naming the file and line; a line that
    fails to decode is reported only once the records before it have been
    checked.

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
