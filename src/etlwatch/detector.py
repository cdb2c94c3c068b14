"""Reconstruction-error scoring and threshold-based classification.

A sample's anomaly score is the squared Euclidean distance between its
standardized feature vector and the autoencoder's reconstruction. The
decision threshold delta is calibrated as a nearest-rank quantile of scores
on held-out normal data; a score strictly above delta is an anomaly, so
delta = max(validation scores) admits every validation normal.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autoencoder import AutoencoderParams
from .errors import (
    ContractViolationError,
    EncodingError,
    EtlwatchError,
    InsufficientDataError,
)
from .numerics import as_vector
from .preprocess import (
    EtlEvent,
    FeatureSchema,
    StandardizationStats,
    read_jsonl,
    standardize,
    vectorize,
)

# Events vectorized and scored per batch_scores call in score_stream. It
# bounds the working set of a long stream; it cannot change a score.
_SCORE_CHUNK = 1024


@dataclass(frozen=True)
class DetectionResult:
    event_id: str
    score: float
    is_anomaly: bool
    truth_label: bool | None = None


@dataclass(frozen=True)
class StreamError:
    """In-stream record for an event that could not be scored."""

    event_id: str
    error: str


def batch_scores(params: AutoencoderParams, x_std: np.ndarray) -> np.ndarray:
    """Per-row squared reconstruction error for already-standardized inputs.

    This is the one scoring forward pass. Each row's score is bitwise the
    same whatever rows it is scored with and however many: the products are
    ``einsum`` contractions, which reduce every output element over its own
    row in a fixed order, whereas a BLAS matrix product picks its kernel,
    and with it the summation order, by the shape of the whole batch.
    """
    x_std = np.atleast_2d(np.asarray(x_std, dtype=np.float64))
    if x_std.ndim != 2 or x_std.shape[1] != params.d:
        raise ContractViolationError(
            f"scoring expects rows of dimension {params.d}, got shape {x_std.shape}"
        )
    h = params.hidden_activation.apply(np.einsum("nd,kd->nk", x_std, params.w_e) + params.b_e)
    xhat = params.output_activation.apply(np.einsum("nk,dk->nd", h, params.w_d) + params.b_d)
    diff = x_std - xhat
    return np.sum(diff * diff, axis=1)


def score(
    params: AutoencoderParams, stats: StandardizationStats, x_raw: np.ndarray
) -> float:
    """Standardize one raw sample and return its :func:`batch_scores` value."""
    return float(batch_scores(params, standardize(as_vector(x_raw, "raw sample"), stats))[0])


def calibrate_threshold(validation_scores: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the ceil(q*n)-th smallest score."""
    if not 0.0 < q < 1.0:
        raise ContractViolationError(f"quantile must lie strictly inside (0, 1), got {q}")
    n = len(validation_scores)
    if n == 0:
        raise InsufficientDataError("threshold calibration needs at least one score")
    rank = math.ceil(q * n)  # 1-based
    return float(np.sort(np.asarray(validation_scores, dtype=np.float64))[rank - 1])


def classify(score_value: float, delta: float) -> bool:
    """True iff the score strictly exceeds delta; equality is normal."""
    if delta < 0:
        raise ContractViolationError(f"delta must be >= 0, got {delta}")
    return score_value > delta


def score_stream(
    params: AutoencoderParams,
    stats: StandardizationStats,
    events: Iterable[EtlEvent],
    schema: FeatureSchema,
    delta: float,
    truth_labels: Sequence[bool | None] | None = None,
) -> list[DetectionResult | StreamError]:
    """Score a sequence of raw events against ``delta``, one record per event.

    Events that fail vectorization become :class:`StreamError` records in
    place, so a malformed record never aborts the run. Output order matches
    input order. The valid rows are scored :data:`_SCORE_CHUNK` events at a
    time; since :func:`batch_scores` is batch-invariant, every score equals
    the one the library gives the same standardized row in any batch.
    """
    if schema.dim != params.d:
        raise ContractViolationError(
            f"schema dimension {schema.dim} does not match model d={params.d}"
        )
    if not (delta >= 0 and math.isfinite(delta)):
        raise ContractViolationError(f"delta must be finite and >= 0, got {delta}")
    results: list[DetectionResult | StreamError] = []
    numbered = enumerate(events)
    while chunk := list(itertools.islice(numbered, _SCORE_CHUNK)):
        rows: list[np.ndarray] = []
        errors: dict[int, str] = {}
        for i, event in chunk:
            try:
                rows.append(vectorize(event, schema))
            except (EncodingError, EtlwatchError) as exc:
                errors[i] = str(exc)
        x_std = standardize(np.array(rows, dtype=np.float64).reshape(-1, params.d), stats)
        values = iter(batch_scores(params, x_std).tolist())
        for i, event in chunk:
            event_id = event.event_id or f"event-{i}"
            if i in errors:
                results.append(StreamError(event_id=event_id, error=errors[i]))
                continue
            value = next(values)
            results.append(
                DetectionResult(
                    event_id=event_id,
                    score=value,
                    is_anomaly=classify(value, delta),
                    truth_label=truth_labels[i] if truth_labels is not None else None,
                )
            )
    return results


def write_detections_jsonl(
    results: Sequence[DetectionResult | StreamError], path: str | Path
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in results:
            if isinstance(record, StreamError):
                payload: dict = {"event_id": record.event_id, "error": record.error}
            else:
                payload = {
                    "event_id": record.event_id,
                    "score": record.score,
                    "is_anomaly": record.is_anomaly,
                }
                if record.truth_label is not None:
                    payload["truth_label"] = record.truth_label
            fh.write(json.dumps(payload) + "\n")


def write_detections_csv(
    results: Sequence[DetectionResult | StreamError], path: str | Path
) -> None:
    """Spreadsheet-friendly mirror of the line-delimited output."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_id", "score", "is_anomaly", "truth_label", "error"])
        for record in results:
            if isinstance(record, StreamError):
                writer.writerow([record.event_id, "", "", "", record.error])
            else:
                truth = "" if record.truth_label is None else record.truth_label
                writer.writerow(
                    [record.event_id, repr(record.score), record.is_anomaly, truth, ""]
                )


def read_detections_jsonl(
    path: str | Path,
) -> list[DetectionResult | StreamError]:
    """Read back a file written by :func:`write_detections_jsonl`.

    A line that is not a UTF-8 JSON object or lacks a field raises
    :class:`ContractViolationError` naming the file and line number.
    """

    def parse(record: dict, line_no: int) -> DetectionResult | StreamError:
        if "error" in record:
            return StreamError(event_id=record["event_id"], error=record["error"])
        truth = record.get("truth_label")
        return DetectionResult(
            event_id=record["event_id"],
            score=float(record["score"]),
            is_anomaly=bool(record["is_anomaly"]),
            truth_label=None if truth is None else bool(truth),
        )

    return read_jsonl(path, parse)
