"""Reconstruction-error scoring and threshold-based classification.

A sample's anomaly score is the squared Euclidean distance between its
standardized feature vector and the autoencoder's reconstruction. The
decision threshold delta is calibrated as a nearest-rank quantile of scores
on held-out normal data; a score strictly above delta is an anomaly, so
delta = max(validation scores) admits every validation normal.

A scored stream is a :class:`Detections`: columns of ids, scores, flags and
truth labels, with the errors held by position. :func:`score_stream` builds
it, the two writers format their lines from its columns, and
:func:`read_detections_jsonl` reads one back; a
:class:`DetectionResult` or :class:`StreamError` is built only when a
record is asked for.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .autoencoder import AutoencoderParams
from .errors import ContractViolationError, InsufficientDataError
from .numerics import as_vector
from .preprocess import (
    ABSENT,
    EtlEvent,
    EventBatch,
    FeatureSchema,
    FirstFailure,
    Records,
    StandardizationStats,
    encode_events,
    float_error,
    read_chunks,
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


T = TypeVar("T")


class Detections(Sequence):
    """The records of one scored stream, held as columns.

    ``ids`` has one entry per record, and ``errors`` maps the position of
    each record that could not be scored to its message. ``scores``,
    ``flags`` and ``truth`` have one entry per scored record, in order.
    Indexing and iterating build :class:`DetectionResult` and
    :class:`StreamError` records on demand.
    """

    __slots__ = ("ids", "scores", "flags", "truth", "errors", "_error_at")

    def __init__(
        self,
        ids: list[str],
        scores: np.ndarray,
        flags: np.ndarray,
        truth: list[bool | None],
        errors: dict[int, str],
    ) -> None:
        self.ids = ids
        self.scores = np.asarray(scores, dtype=np.float64)
        self.flags = np.asarray(flags, dtype=bool)
        self.truth = truth
        self.errors = errors
        self._error_at = sorted(errors)
        scored = len(ids) - len(errors)
        if not len(self.scores) == len(self.flags) == len(truth) == scored or (
            errors and not 0 <= self._error_at[0] <= self._error_at[-1] < len(ids)
        ):
            raise ContractViolationError("detection columns do not describe one stream")

    @classmethod
    def from_records(cls, records: Iterable[DetectionResult | StreamError]) -> Detections:
        """The records as columns; a :class:`Detections` is returned as it is."""
        if isinstance(records, Detections):
            return records
        ids, scores, flags, truth, errors = [], [], [], [], {}
        for position, record in enumerate(records):
            ids.append(record.event_id)
            if isinstance(record, StreamError):
                errors[position] = record.error
            else:
                scores.append(record.score)
                flags.append(record.is_anomaly)
                truth.append(record.truth_label)
        return cls(ids, scores, flags, truth, errors)

    @classmethod
    def concat(cls, parts: Iterable[Detections]) -> Detections:
        ids, scores, flags, truth, errors = [], [np.zeros(0)], [np.zeros(0, bool)], [], {}
        for part in parts:
            errors.update((len(ids) + position, error) for position, error in part.errors.items())
            ids += part.ids
            scores.append(part.scores)
            flags.append(part.flags)
            truth += part.truth
        return cls(ids, np.concatenate(scores), np.concatenate(flags), truth, errors)

    def rows(
        self,
        scored: Callable[[str, float, bool, bool | None], T],
        failed: Callable[[str, str], T],
    ) -> Iterator[T]:
        """``scored(event_id, score, is_anomaly, truth_label)`` or
        ``failed(event_id, error)`` of every record, in order."""
        ids, errors = self.ids, self.errors
        keep = [True] * len(ids)
        for position in errors:
            keep[position] = False
        done = map(
            scored, itertools.compress(ids, keep), self.scores.tolist(), self.flags.tolist(),
            self.truth,
        )

        def runs() -> Iterator[Iterable[T]]:  # the scored records between errors, and each error
            start = 0
            for position in self._error_at:
                yield itertools.islice(done, position - start)
                yield (failed(ids[position], errors[position]),)
                start = position + 1
            yield done

        return itertools.chain.from_iterable(runs())

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[DetectionResult | StreamError]:
        return self.rows(DetectionResult, StreamError)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if i in self.errors:
            return StreamError(self.ids[i], self.errors[i])
        k = i - bisect.bisect_left(self._error_at, i)
        return DetectionResult(
            self.ids[i], float(self.scores[k]), bool(self.flags[k]), self.truth[k]
        )

    def __repr__(self) -> str:
        return f"Detections(<{len(self)} records, {len(self.errors)} errors>)"


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
) -> Detections:
    """Score a sequence of raw events against ``delta``, one record per event.

    Events that fail to encode become :class:`StreamError` records in
    place, so a malformed record never aborts the run. Output order matches
    input order. The events are read as an :class:`EventBatch`; each
    :data:`_SCORE_CHUNK` of them are encoded, scored and compared with delta
    as one batch, and the chunks' columns are joined into one
    :class:`Detections`. Since :func:`batch_scores` is batch-invariant,
    every score equals the one the library gives the same standardized row
    in any batch.
    """
    if schema.dim != params.d:
        raise ContractViolationError(
            f"schema dimension {schema.dim} does not match model d={params.d}"
        )
    if not (delta >= 0 and math.isfinite(delta)):
        raise ContractViolationError(f"delta must be finite and >= 0, got {delta}")
    batch = EventBatch.from_events(events)
    parts = []
    for start in range(0, len(batch), _SCORE_CHUNK):
        chunk = batch[start : start + _SCORE_CHUNK]
        x, failed = encode_events(chunk, schema)
        scores = batch_scores(params, standardize(x, stats))
        errors = {position: str(exc) for position, exc in failed}
        ids = [event_id or f"event-{start + i}" for i, event_id in enumerate(chunk.event_id)]
        if truth_labels is None:
            truth = [None] * len(scores)
        else:
            truth = truth_labels[start : start + len(chunk)]
            truth = [label for i, label in enumerate(truth) if i not in errors]
        parts.append(Detections(ids, scores, scores > delta, truth, errors))
    return Detections.concat(parts)


_JSON_BOOL = {True: "true", False: "false"}
# How a scored record's line ends, by its truth label.
_JSONL_END = {None: "}\n", True: ', "truth_label": true}\n', False: ', "truth_label": false}\n'}


def _jsonl_scored(event_id: str, value: float, flagged: bool, truth: bool | None) -> str:
    """The ``json.dumps`` text of a scored record's mapping, with its newline."""
    number = float.__repr__(value) if math.isfinite(value) else json.dumps(value)
    return (
        f'{{"event_id": {encode_basestring_ascii(event_id)}, "score": {number}, '
        f'"is_anomaly": {_JSON_BOOL[flagged]}{_JSONL_END[truth]}'
    )


def _jsonl_failed(event_id: str, error: str) -> str:
    return (
        f'{{"event_id": {encode_basestring_ascii(event_id)}, '
        f'"error": {encode_basestring_ascii(error)}}}\n'
    )


def write_detections_jsonl(
    results: Iterable[DetectionResult | StreamError], path: str | Path
) -> None:
    """One JSON object per line, byte for byte what ``json.dumps`` writes for it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(Detections.from_records(results).rows(_jsonl_scored, _jsonl_failed))


def _csv_scored(event_id: str, value: float, flagged: bool, truth: bool | None) -> list:
    # csv.writer writes a float as float.__repr__ does
    return [event_id, value, flagged, "" if truth is None else truth, ""]


def _csv_failed(event_id: str, error: str) -> list:
    return [event_id, "", "", "", error]


def write_detections_csv(
    results: Iterable[DetectionResult | StreamError], path: str | Path
) -> None:
    """Spreadsheet-friendly mirror of the line-delimited output."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_id", "score", "is_anomaly", "truth_label", "error"])
        writer.writerows(Detections.from_records(results).rows(_csv_scored, _csv_failed))


# The fields of a detection record, and what a record that lacks one reads as.
_DETECTION_FIELDS = {
    "event_id": ABSENT, "error": ABSENT, "score": ABSENT, "is_anomaly": ABSENT,
    "truth_label": None,
}


def read_detections_jsonl(path: str | Path) -> Detections:
    """Read back a file written by :func:`write_detections_jsonl`.

    A record with an ``error`` field is an error record. In every other
    record ``score`` must be a JSON number (not a boolean) other than
    ``NaN``, ``is_anomaly`` a boolean and ``truth_label``, if present, a
    boolean or null; nothing is coerced. ``Infinity`` is a score: ``detect``
    writes it for an event whose error overflows. A line that is not a UTF-8
    JSON object, lacks a field, holds a field of another type, a ``NaN``
    score or a score too large for a float raises
    :class:`ContractViolationError` naming the file, the first such line
    and the field.
    """
    return Detections.concat(read_chunks(path, _DETECTION_FIELDS, _check_detection_records))


def _score_error(value: int | float) -> str | None:
    """Why a JSON number is not a score: it is NaN or too large for a float."""
    error = float_error(value)
    if error is None and math.isnan(value):
        return "field 'score' must not be NaN"
    return error


def _check_detection_records(records: Records, first: FirstFailure) -> Detections | None:
    ids, failed, score, flag, truth = records.values.values()
    first.absent(records, "event_id", "no field 'event_id'")
    scored = [i for i, error in enumerate(failed) if error is ABSENT]
    first.absent(records, "score", "no field 'score'", scored)
    scores = [score[i] for i in scored]
    first.types(
        scores, {int, float}, lambda v: f"field 'score' must be a number, got {v!r}", scored
    )
    try:
        scores = list(map(float, scores))
        nan = any(map(math.isnan, scores))
    except (TypeError, ValueError, OverflowError):
        nan = True
    if nan:  # or a number too large for a float
        first.scan(scores, lambda v: _score_error(v) is not None, _score_error, scored)
    first.absent(records, "is_anomaly", "no field 'is_anomaly'", scored)
    flags = [flag[i] for i in scored]
    first.types(
        flags, {bool}, lambda v: f"field 'is_anomaly' must be a boolean, got {v!r}", scored
    )
    truth = [truth[i] for i in scored]
    first.types(
        truth, {bool, type(None)},
        lambda v: f"field 'truth_label' must be a boolean or null, got {v!r}", scored,
    )
    if first.message is not None:
        return None  # read_chunks raises it
    errors = {i: error for i, error in enumerate(failed) if error is not ABSENT}
    return Detections(ids, scores, flags, truth, errors)
