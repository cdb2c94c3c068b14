"""Feature extraction and standardization for raw ETL events.

An :class:`EtlEvent` is one pipeline record. :func:`encode_events` turns a
list of them into fixed-width float rows, one column at a time: numeric
fields in schema order (missing ones emit 0 with a companion indicator set
to 1), one-hot blocks for the categorical fields, one missing indicator per
maskable numeric field, and a (sin, cos) encoding of the hour of day.
:func:`vectorize_events` and :func:`vectorize` are its all-or-nothing and
one-event forms. :func:`fit_stats` / :func:`standardize` apply
per-feature (x - mu) / sigma rescaling; stats are fit on training data once
and frozen for every later split and stream. :func:`read_jsonl` is the one
reader of JSON-lines files: event streams, label files and detections.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

from .errors import ContractViolationError, EncodingError, EtlwatchError, InsufficientDataError
from .numerics import as_matrix, as_vector

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
        values = (self.amount, self.latency_ms, self.task_duration_s, self.records_loaded)
        for value, masked, name in zip(values, (*mask, False), NUMERIC_FIELDS):
            if not masked and not math.isfinite(float(value)):
                raise ContractViolationError(f"non-finite value for field {name!r}: {value}")


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

    The (m, d) matrix holds one row per event that encodes, in input order.
    Each event that does not is listed as ``(position, EncodingError)``
    instead; an unknown ``device_type`` is reported before an unknown
    ``geo_region``. A masked numeric encodes as 0 and its value is never
    read. Hour columns use ``math.sin``/``math.cos`` per event, so every
    value is bitwise what a per-event encoding gives.
    """
    device_at = len(schema.numeric_fields)
    device_col = {v: device_at + j for j, v in enumerate(schema.device_types)}
    region_at = device_at + len(schema.device_types)
    region_col = {v: region_at + j for j, v in enumerate(schema.geo_regions)}
    rows: list[EtlEvent] = []
    hot: list[tuple[int, int]] = []
    errors: list[tuple[int, EncodingError]] = []
    for position, event in enumerate(events):
        device = device_col.get(event.device_type)
        region = region_col.get(event.geo_region)
        if device is None:
            errors.append((position, EncodingError("device_type", event.device_type)))
        elif region is None:
            errors.append((position, EncodingError("geo_region", event.geo_region)))
        else:
            rows.append(event)
            hot.append((device, region))

    n_mask = len(schema.maskable_fields)
    x = np.zeros((len(rows), schema.dim), dtype=np.float64)
    flags = itertools.chain.from_iterable(e.missing_mask[:n_mask] for e in rows)
    missing = np.fromiter(map(bool, flags), bool, len(rows) * n_mask).reshape(-1, n_mask)
    for j, name in enumerate(schema.numeric_fields):
        if name in schema.maskable_fields:
            masked = missing[:, schema.maskable_fields.index(name)].tolist()
            x[:, j] = [0.0 if m else float(getattr(e, name)) for e, m in zip(rows, masked)]
        else:
            x[:, j] = [float(getattr(e, name)) for e in rows]
    x[np.arange(len(rows))[:, None], np.array(hot, dtype=np.intp).reshape(-1, 2)] = 1.0
    x[:, -2 - n_mask : -2] = missing
    angles = [hour_angle(e.timestamp) for e in rows]
    x[:, -2] = [math.sin(a) for a in angles]
    x[:, -1] = [math.cos(a) for a in angles]
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


def fit_stats(x: np.ndarray, epsilon: float = 1e-8) -> StandardizationStats:
    """Column means and population standard deviations, floored at epsilon."""
    x = as_matrix(x, "feature matrix")
    if x.shape[0] < 2:
        raise InsufficientDataError(
            f"fitting stats needs at least 2 rows, got {x.shape[0]}"
        )
    mu = x.mean(axis=0)
    sigma = np.maximum(x.std(axis=0), epsilon)  # population (divide-by-N) std
    return StandardizationStats(mu=mu, sigma=sigma, epsilon=epsilon)


def standardize(x: np.ndarray, stats: StandardizationStats) -> np.ndarray:
    """Apply (x - mu) / sigma per feature; accepts a vector or a matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != stats.dim:
        raise ContractViolationError(
            f"cannot standardize shape {x.shape} with stats of dimension {stats.dim}"
        )
    return (x - stats.mu) / stats.sigma


def _integral(record: dict, name: str) -> int:
    value = record[name]
    if value.__class__ is int:
        return value
    if isinstance(value, float) and not value.is_integer():
        raise ContractViolationError(f"field {name!r} must be an integer, got {value}")
    if not isinstance(value, bool):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ContractViolationError(f"field {name!r} must be an integer, got {value!r}")


def _number(value: object, name: str) -> float:
    if value.__class__ is float:
        return value
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ContractViolationError(f"field {name!r} must be a number, got {value!r}")


def parse_event(record: dict) -> EtlEvent:
    """Build an :class:`EtlEvent` from one decoded JSON record.

    Every field but ``event_id`` is required; a null ``event_id`` counts as
    absent. ``missing_mask`` must be an array. A masked numeric is kept as
    read; any other numeric must be a number, not a boolean, and
    ``timestamp`` and ``records_loaded`` take a float only if integral.
    """
    try:
        timestamp = _integral(record, "timestamp")
        amount, latency, duration = (
            record["amount"], record["latency_ms"], record["task_duration_s"]
        )
        mask = record["missing_mask"]
        if not isinstance(mask, list):
            raise ContractViolationError(f"field 'missing_mask' must be an array, got {mask!r}")
        mask = tuple(map(bool, mask))
        # padded so a short mask reaches EtlEvent's length check
        amount_masked, latency_masked, duration_masked = (*mask, False, False, False)[:3]
        event_id = record.get("event_id")
        return EtlEvent(
            timestamp,
            amount if amount_masked else _number(amount, "amount"),
            latency if latency_masked else _number(latency, "latency_ms"),
            duration if duration_masked else _number(duration, "task_duration_s"),
            _integral(record, "records_loaded"),
            str(record["device_type"]),
            str(record["geo_region"]),
            mask,
            "" if event_id is None else str(event_id),
        )
    except KeyError as exc:
        raise ContractViolationError(f"event record is missing field {exc.args[0]!r}") from exc


def event_to_dict(event: EtlEvent) -> dict:
    return {
        "event_id": event.event_id,
        "timestamp": event.timestamp,
        "amount": event.amount,
        "latency_ms": event.latency_ms,
        "task_duration_s": event.task_duration_s,
        "records_loaded": event.records_loaded,
        "device_type": event.device_type,
        "geo_region": event.geo_region,
        "missing_mask": list(event.missing_mask),
    }


# One decoder for every line of every file; json.loads uses one like it.
_DECODER = json.JSONDecoder()
_JSON_BLANKS = " \t\n\r"


def read_jsonl(path: str | Path, parse: Callable[[dict, int], T]) -> list[T]:
    """Return ``parse(record, line_no)`` for every non-blank line of a JSON-lines file.

    Each line must be a UTF-8 JSON object. A line that is not, or whose
    record ``parse`` rejects with a KeyError, ValueError, TypeError,
    OverflowError or :class:`EtlwatchError`, stops the read with one
    :class:`ContractViolationError` naming the file and line number.
    """
    out: list[T] = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if raw.isspace():  # the ASCII blanks bytes.strip() removes
                continue
            try:
                text = raw.decode("utf-8")
                try:
                    record, end = _DECODER.raw_decode(text)
                except ValueError:
                    end = -1
                if end < 0 or text[end:].strip(_JSON_BLANKS):
                    # a leading blank, bad JSON or trailing data: json.loads
                    # accepts the first and words the error for the others
                    record = json.loads(text)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                out.append(parse(record, line_no))
            except KeyError as exc:
                raise ContractViolationError(f"{path} line {line_no}: no field {exc}") from exc
            except (ValueError, TypeError, OverflowError, EtlwatchError) as exc:
                raise ContractViolationError(f"{path} line {line_no}: {exc}") from exc
    return out

