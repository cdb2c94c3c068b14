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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autoencoder import AutoencoderParams
from .errors import ContractViolationError, InsufficientDataError
from .numerics import as_vector
from .preprocess import (
    EtlEvent,
    FeatureSchema,
    StandardizationStats,
    encode_events,
    read_jsonl,
    standardize,
    vectorize,  # noqa: F401  unused here; the benchmark traces vectorize under this name
)

# Events encoded and scored per batch_scores call in score_stream. It
# bounds the working set of a long stream; it cannot change a score.
_SCORE_CHUNK = 1024


@dataclass(frozen=True, slots=True)
class DetectionResult:
    event_id: str
    score: float
    is_anomaly: bool
    truth_label: bool | None = None


@dataclass(frozen=True, slots=True)
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


def score_stream(
    params: AutoencoderParams,
    stats: StandardizationStats,
    events: Iterable[EtlEvent],
    schema: FeatureSchema,
    delta: float,
    truth_labels: Sequence[bool | None] | None = None,
) -> list[DetectionResult | StreamError]:
    """Score a sequence of raw events against ``delta``, one record per event.

    Events that fail to encode become :class:`StreamError` records in
    place, so a malformed record never aborts the run. Output order matches
    input order. Each :data:`_SCORE_CHUNK` events are encoded, scored and
    compared with delta as one batch; since :func:`batch_scores` is
    batch-invariant, every score equals the one the library gives the same
    standardized row in any batch.
    """
    if schema.dim != params.d:
        raise ContractViolationError(
            f"schema dimension {schema.dim} does not match model d={params.d}"
        )
    if not (delta >= 0 and math.isfinite(delta)):
        raise ContractViolationError(f"delta must be finite and >= 0, got {delta}")
    results: list[DetectionResult | StreamError] = []
    stream = iter(events)
    start = 0
    while chunk := list(itertools.islice(stream, _SCORE_CHUNK)):
        x, errors = encode_events(chunk, schema)
        scores = batch_scores(params, standardize(x, stats))
        values = iter(zip(scores.tolist(), (scores > delta).tolist()))
        failed = {start + pos: str(exc) for pos, exc in errors}
        for i, event in enumerate(chunk, start):
            event_id = event.event_id or f"event-{i}"
            if i in failed:
                results.append(StreamError(event_id=event_id, error=failed[i]))
                continue
            value, flagged = next(values)
            truth = truth_labels[i] if truth_labels is not None else None
            results.append(DetectionResult(event_id, value, flagged, truth))
        start += len(chunk)
    return results


_JSON_BOOL = {True: "true", False: "false"}
# How a scored record's line ends, by its truth label.
_JSONL_END = {None: "}\n", True: ', "truth_label": true}\n', False: ', "truth_label": false}\n'}


def _jsonl_line(record: DetectionResult | StreamError) -> str:
    """The ``json.dumps`` text of a record's mapping, with its newline."""
    event_id = encode_basestring_ascii(record.event_id)
    if isinstance(record, StreamError):
        return f'{{"event_id": {event_id}, "error": {encode_basestring_ascii(record.error)}}}\n'
    value = record.score  # json.dumps writes a finite float as its repr
    number = float.__repr__(value) if math.isfinite(value) else json.dumps(value)
    return (
        f'{{"event_id": {event_id}, "score": {number}, '
        f'"is_anomaly": {_JSON_BOOL[record.is_anomaly]}{_JSONL_END[record.truth_label]}'
    )


def write_detections_jsonl(
    results: Sequence[DetectionResult | StreamError], path: str | Path
) -> None:
    """One JSON object per line, byte for byte what ``json.dumps`` writes for it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_jsonl_line, results))


def _csv_row(record: DetectionResult | StreamError) -> list:
    if isinstance(record, StreamError):
        return [record.event_id, "", "", "", record.error]
    truth = "" if record.truth_label is None else record.truth_label
    # csv.writer writes a float as float.__repr__ does
    return [record.event_id, record.score, record.is_anomaly, truth, ""]


def write_detections_csv(
    results: Sequence[DetectionResult | StreamError], path: str | Path
) -> None:
    """Spreadsheet-friendly mirror of the line-delimited output."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_id", "score", "is_anomaly", "truth_label", "error"])
        writer.writerows(map(_csv_row, results))


def read_detections_jsonl(
    path: str | Path,
) -> list[DetectionResult | StreamError]:
    """Read back a file written by :func:`write_detections_jsonl`.

    A line that is not a UTF-8 JSON object or lacks a field raises
    :class:`ContractViolationError` naming the file and line number.
    """

    def parse(record: dict, line_no: int) -> DetectionResult | StreamError:
        if "error" in record:
            return StreamError(record["event_id"], record["error"])
        truth = record.get("truth_label")
        return DetectionResult(
            record["event_id"],
            float(record["score"]),
            bool(record["is_anomaly"]),
            None if truth is None else bool(truth),
        )

    return read_jsonl(path, parse)
