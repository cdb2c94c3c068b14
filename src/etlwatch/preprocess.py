"""Feature extraction and standardization for raw ETL events.

An :class:`EtlEvent` is one pipeline record. :func:`vectorize` turns it into
a fixed-width float vector: numeric fields in schema order (missing ones emit
0 with a companion indicator set to 1), one-hot blocks for the categorical
fields, one missing indicator per maskable numeric field, and a (sin, cos)
encoding of the hour of day. :func:`fit_stats` / :func:`standardize` apply
per-feature (x - mu) / sigma rescaling; stats are fit on training data once
and frozen for every later split and stream. :func:`read_jsonl` is the one
reader of JSON-lines files: event streams, label files and detections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

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


@dataclass(frozen=True)
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
        if len(self.missing_mask) != len(MASKABLE_FIELDS):
            raise ContractViolationError(
                f"missing_mask must have {len(MASKABLE_FIELDS)} entries, "
                f"got {len(self.missing_mask)}"
            )
        for name in NUMERIC_FIELDS:
            value = getattr(self, name)
            if name in MASKABLE_FIELDS and self.missing_mask[MASKABLE_FIELDS.index(name)]:
                continue
            if not math.isfinite(float(value)):
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


def vectorize(event: EtlEvent, schema: FeatureSchema) -> np.ndarray:
    """Encode one event as a feature vector of length ``schema.dim``."""
    values: list[float] = []
    for name in schema.numeric_fields:
        if name in schema.maskable_fields and event.missing_mask[
            schema.maskable_fields.index(name)
        ]:
            values.append(0.0)
        else:
            values.append(float(getattr(event, name)))

    for field_name, block, category in (
        ("device_type", schema.device_types, event.device_type),
        ("geo_region", schema.geo_regions, event.geo_region),
    ):
        if category not in block:
            raise EncodingError(field_name, category)
        values.extend(1.0 if v == category else 0.0 for v in block)

    values.extend(
        1.0 if event.missing_mask[i] else 0.0 for i in range(len(schema.maskable_fields))
    )

    angle = hour_angle(event.timestamp)
    values.append(math.sin(angle))
    values.append(math.cos(angle))
    return np.array(values, dtype=np.float64)


def vectorize_events(events: list[EtlEvent], schema: FeatureSchema) -> np.ndarray:
    """Stack per-event feature vectors into an (n, d) matrix."""
    if not events:
        return np.empty((0, schema.dim), dtype=np.float64)
    return np.stack([vectorize(e, schema) for e in events])


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


def parse_event(record: dict) -> EtlEvent:
    """Build an :class:`EtlEvent` from one decoded JSON record."""
    try:
        return EtlEvent(
            timestamp=int(record["timestamp"]),
            amount=float(record["amount"]),
            latency_ms=float(record["latency_ms"]),
            task_duration_s=float(record["task_duration_s"]),
            records_loaded=int(record["records_loaded"]),
            device_type=str(record["device_type"]),
            geo_region=str(record["geo_region"]),
            missing_mask=tuple(bool(b) for b in record["missing_mask"]),
            event_id=str(record.get("event_id", "")),
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


def read_jsonl(path: str | Path, parse: Callable[[dict, int], T]) -> list[T]:
    """Return ``parse(record, line_no)`` for every non-blank line of a JSON-lines file.

    Each line must be a UTF-8 JSON object. A line that is not, or whose
    record ``parse`` rejects with a KeyError, ValueError, TypeError or
    :class:`EtlwatchError`, stops the read with one
    :class:`ContractViolationError` naming the file and line number.
    """
    out: list[T] = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                out.append(parse(record, line_no))
            except KeyError as exc:
                raise ContractViolationError(f"{path} line {line_no}: no field {exc}") from exc
            except (ValueError, TypeError, EtlwatchError) as exc:
                raise ContractViolationError(f"{path} line {line_no}: {exc}") from exc
    return out

