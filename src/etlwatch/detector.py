"""Reconstruction-error scoring and threshold-based classification.

A sample's anomaly score is the squared Euclidean distance between its
standardized feature vector and the autoencoder's reconstruction. The
decision threshold delta is calibrated as a nearest-rank quantile of scores
on held-out normal data (:func:`calibration_scores` scores a validation
file); a score strictly above delta is an anomaly, so
delta = max(validation scores) admits every validation normal.

A scored stream is a :class:`Detections`: columns of ids, scores, flags and
truth labels, with the errors held by position. :func:`score_stream` builds
it, the two writers format their lines from its columns a slice at a time, and
:func:`read_detections_jsonl` reads one back; a
:class:`DetectionResult` or :class:`StreamError` is built only when a
record is asked for. :func:`read_scores_and_truth` reads back only the two
columns that evaluation needs.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import preprocess
from .autoencoder import AutoencoderParams
from .errors import ContractViolationError, InsufficientDataError
from .numerics import as_vector
from .preprocess import (
    ABSENT,
    FeatureSchema,
    Records,
    StandardizationStats,
    each_record,
    encode_events,
    read_chunks,
    standardize,
    vectorize,  # noqa: F401  unused here; the benchmark traces vectorize under this name
)
from .streamgen import (
    STREAM_FIELDS,
    _check_stream_records,
    fill_held_out_labels,
)

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

    The event ids are held as one string, written end to end, with the
    offset at which each starts and the last ends in one array of the
    smallest unsigned integer type that holds the string's length;
    :meth:`event_ids` slices them out. ``errors`` maps the position of each
    record that could not be scored to its message. ``scores``, ``flags``
    and ``truth`` have one entry per scored record, in order. Indexing and
    iterating build :class:`DetectionResult` and :class:`StreamError`
    records on demand.
    """

    __slots__ = ("_text", "_bounds", "scores", "flags", "truth", "errors", "_error_at")

    def __init__(
        self,
        ids: Sequence[str],
        scores: np.ndarray,
        flags: np.ndarray,
        truth: list[bool | None],
        errors: dict[int, str],
    ) -> None:
        text = "".join(ids)
        bounds = itertools.accumulate(map(len, ids), initial=0)
        self._fill(text, np.fromiter(bounds, np.min_scalar_type(len(text)), len(ids) + 1),
                   scores, flags, truth, errors)

    def _fill(self, text: str, bounds: np.ndarray, scores, flags, truth, errors) -> None:
        """Set the columns, and check that they describe one stream."""
        self._text, self._bounds = text, bounds
        self.scores = np.asarray(scores, dtype=np.float64)
        self.flags = np.asarray(flags, dtype=bool)
        self.truth = truth
        self.errors = errors
        self._error_at = sorted(errors)
        scored = len(self) - len(errors)
        if not len(self.scores) == len(self.flags) == len(truth) == scored or (
            errors and not 0 <= self._error_at[0] <= self._error_at[-1] < len(self)
        ):
            raise ContractViolationError("detection columns do not describe one stream")

    @classmethod
    def concat(cls, parts: Iterable[Detections]) -> Detections:
        texts, ends, n = [], [], 0
        scores, flags, truth, errors = [np.zeros(0)], [np.zeros(0, bool)], [], {}
        for part in parts:
            errors.update((n + position, error) for position, error in part.errors.items())
            texts.append(part._text)
            ends.append(part._bounds[1:])
            n += len(part)
            scores.append(part.scores)
            flags.append(part.flags)
            truth += part.truth
        text = "".join(texts)
        bounds = np.zeros(n + 1, np.min_scalar_type(len(text)))
        at = base = 0
        for part_text, part_ends in zip(texts, ends):  # each part's offsets, shifted in place
            shifted = bounds[at + 1 : at + 1 + len(part_ends)]
            shifted[:] = part_ends
            shifted += base
            at, base = at + len(part_ends), base + len(part_text)
        joined = cls.__new__(cls)
        joined._fill(text, bounds, np.concatenate(scores), np.concatenate(flags), truth, errors)
        return joined

    @classmethod
    def from_results(cls, records: Sequence[DetectionResult | StreamError]) -> Detections:
        """The records as columns."""
        errors = {i: r.error for i, r in enumerate(records) if type(r) is StreamError}
        scored = [r for r in records if type(r) is not StreamError]
        return cls(
            [r.event_id for r in records], [r.score for r in scored],
            [r.is_anomaly for r in scored], [r.truth_label for r in scored], errors,
        )

    def event_ids(self, start: int = 0, stop: int | None = None) -> list[str]:
        """The event ids of records ``start`` up to ``stop``, in order."""
        start, stop, _ = slice(start, stop).indices(len(self))
        bounds, text = self._bounds[start : stop + 1].tolist(), self._text
        return [text[i:j] for i, j in zip(bounds, bounds[1:])]

    def rows(
        self,
        scored: Callable[[str, float, bool, bool | None], T],
        failed: Callable[[str, str], T],
    ) -> Iterator[T]:
        """``scored(event_id, score, is_anomaly, truth_label)`` or
        ``failed(event_id, error)`` of every record, in order, from the
        columns of one slice of :data:`~etlwatch.preprocess._CHUNK` records
        at a time."""
        n, errors, error_at, chunk = len(self), self.errors, self._error_at, preprocess._CHUNK

        def runs() -> Iterator[Iterable[T]]:  # the scored records between errors, and each error
            k = e = 0  # the scored records and the errors before the slice
            for first in range(0, n, chunk):
                stop = min(first + chunk, n)
                ids = self.event_ids(first, stop)
                cut = error_at[e : bisect.bisect_left(error_at, stop, lo=e)]
                end = k + stop - first - len(cut)
                keep = [True] * (stop - first)
                for position in cut:
                    keep[position - first] = False
                done = map(
                    scored, itertools.compress(ids, keep),
                    self.scores[k:end].tolist(), self.flags[k:end].tolist(), self.truth[k:end],
                )
                start = first
                for position in cut:
                    yield itertools.islice(done, position - start)
                    yield (failed(ids[position - first], errors[position]),)
                    start = position + 1
                yield done
                k, e = end, e + len(cut)

        return itertools.chain.from_iterable(runs())

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __iter__(self) -> Iterator[DetectionResult | StreamError]:
        return self.rows(DetectionResult, StreamError)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        event_id = self._text[self._bounds[i] : self._bounds[i + 1]]
        if i in self.errors:
            return StreamError(event_id, self.errors[i])
        k = i - bisect.bisect_left(self._error_at, i)
        return DetectionResult(
            event_id, float(self.scores[k]), bool(self.flags[k]), self.truth[k]
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
    It allocates one (n, k) and one (n, d) array, the two products: the
    bias, the activation, the difference and its square overwrite them in
    place, which rounds each element as fresh arrays would.
    """
    x_std = np.atleast_2d(np.asarray(x_std, dtype=np.float64))
    if x_std.ndim != 2 or x_std.shape[1] != params.d:
        raise ContractViolationError(
            f"scoring expects rows of dimension {params.d}, got shape {x_std.shape}"
        )
    h = np.einsum("nd,kd->nk", x_std, params.w_e)
    h += params.b_e
    params.hidden_activation.apply(h, out=h)
    diff = np.einsum("nk,dk->nd", h, params.w_d)
    diff += params.b_d
    params.output_activation.apply(diff, out=diff)
    np.subtract(x_std, diff, out=diff)
    np.multiply(diff, diff, out=diff)
    return np.sum(diff, axis=1)


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


def _popped(items: list[T]) -> Iterator[T]:
    """The items of a list in order, each removed from it as it is yielded."""
    items.reverse()
    while items:
        yield items.pop()


def score_stream(
    params: AutoencoderParams,
    stats: StandardizationStats,
    path: str | os.PathLike,
    delta: float,
) -> Detections:
    """Score the events of a stream file against ``delta``, one record per event.

    The file is read as :func:`read_stream` reads it, with its inline
    labels, else its sibling labels file when there is one, as the truth.
    Events that fail to encode become :class:`StreamError` records in place,
    so a malformed record never aborts the run; output order matches input
    order. Each run of records that :func:`read_chunks` checks is encoded,
    scored and compared with delta as one batch in the process that reads
    it, and a reader process sends back only the run's columns, and its
    inline labels only when one of them is missing. So a large file is
    decoded, encoded and scored on every usable CPU, with the same records
    and errors as scoring what :func:`read_stream` returns; since
    :func:`batch_scores` is batch-invariant, every score equals the one the
    library gives the same standardized row in any batch.
    """
    if params.d != FeatureSchema.dim:
        raise ContractViolationError(
            f"model d={params.d} does not match the feature dimension {FeatureSchema.dim}"
        )
    if not (delta >= 0 and math.isfinite(delta)):
        raise ContractViolationError(f"delta must be finite and >= 0, got {delta}")

    def check(records: Records) -> tuple[Detections, list | None]:
        events, labels, _ = _check_stream_records(records)
        x, failed = encode_events(events)
        scores = batch_scores(params, standardize(x, stats))
        errors = {position: str(exc) for position, exc in failed}
        truth = [label for i, label in enumerate(labels) if i not in errors]
        detections = Detections(events.event_id, scores, scores > delta, truth, errors)
        return detections, labels if None in labels else None

    parts = read_chunks(path, STREAM_FIELDS, check)
    fill_held_out_labels(
        path, ((part.event_ids(), labels, None) for part, labels in parts if labels is not None)
    )
    for part, labels in parts:
        if labels is not None:
            part.truth[:] = [label for i, label in enumerate(labels) if i not in part.errors]
    return Detections.concat(part for part, _ in _popped(parts))


def read_normal_rows(
    path: str | os.PathLike,
    step: Callable[[np.ndarray], np.ndarray] = lambda rows: rows,
) -> np.ndarray:
    """``step`` of the feature rows of the normal and unlabeled events of a
    stream file, run by run, joined in line order: by default the rows
    themselves, the ones ``train`` fits on.

    The file is read as :func:`read_stream` reads it, labels file included.
    Each run of records is encoded, and its rows go through ``step``, in the
    process that reads it; a run keeps only what ``step`` gives for its rows,
    one entry per row, its events that fail to encode and, where one of its
    labels is missing, its ids and labels. So what is held is one entry per
    normal and unlabeled event, as in :func:`vectorize_events` of those
    events in one batch, and not the events. The first such event that
    fails to encode raises its :class:`EncodingError`, as
    :func:`vectorize_events` would; an anomalous one is skipped.
    """

    def check(records: Records) -> tuple[np.ndarray, list, list | None, list | None]:
        events, labels, _ = _check_stream_records(records)
        if None in labels:  # its normal events are known once the labels are filled
            x, failed = encode_events(events)
            return step(x), failed, events.event_id, labels
        x, failed = encode_events(events.where([not label for label in labels]))
        return step(x), failed, None, None

    runs = read_chunks(path, STREAM_FIELDS, check)
    fill_held_out_labels(
        path, ((ids, labels, None) for _, _, ids, labels in runs if labels is not None)
    )
    kept = []
    for rows, failed, _, labels in runs:
        if labels is not None:  # a run encoded whole: keep its normal and unlabeled rows
            normal = np.array([label is not True for label in labels], dtype=bool)
            encoded = np.ones(len(labels), dtype=bool)
            encoded[[position for position, _ in failed]] = False
            rows = rows[normal[encoded]]
            failed = [(position, exc) for position, exc in failed if normal[position]]
        if failed:
            raise failed[0][1]
        kept.append(rows)
    return np.concatenate(kept) if kept else step(np.zeros((0, FeatureSchema.dim)))


def calibration_scores(
    params: AutoencoderParams, stats: StandardizationStats, path: str | os.PathLike
) -> np.ndarray:
    """The scores of the normal and unlabeled events of a stream file, in
    line order: the validation scores delta is calibrated on.

    :func:`read_normal_rows` with each run's rows standardized and scored
    as :func:`score_stream` scores them, so a run keeps only its scores. The
    scores are those of :func:`batch_scores` over the normal and unlabeled
    events in one batch.
    """
    return read_normal_rows(path, lambda x: batch_scores(params, standardize(x, stats)))


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


def write_detections_jsonl(detections: Detections, path: str | Path) -> None:
    """One JSON object per record, byte for byte what ``json.dumps`` writes for it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(detections.rows(_jsonl_scored, _jsonl_failed))


# A scored record's truth_label column, as csv.writer writes it.
_CSV_TRUTH = {None: "", True: "True", False: "False"}


def _csv_line(row: list) -> str:
    """The line ``csv.writer`` writes for ``row``."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(row)
    return buffer.getvalue()


def _csv_scored(event_id: str, value: float, flagged: bool, truth: bool | None) -> str:
    """``csv.writer``'s line for a scored record: it quotes only an id that
    holds a comma, a quote, a CR or an LF, and writes a float as
    ``float.__repr__`` does."""
    if "," in event_id or '"' in event_id or "\n" in event_id or "\r" in event_id:
        return _csv_line([event_id, value, flagged, _CSV_TRUTH[truth], ""])
    return f"{event_id},{float.__repr__(value)},{flagged},{_CSV_TRUTH[truth]},\r\n"


def _csv_failed(event_id: str, error: str) -> str:
    return _csv_line([event_id, "", "", "", error])


def write_detections_csv(detections: Detections, path: str | Path) -> None:
    """Spreadsheet-friendly mirror of the line-delimited output, byte for
    byte what ``csv.writer`` writes for its rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line(["event_id", "score", "is_anomaly", "truth_label", "error"]))
        fh.writelines(detections.rows(_csv_scored, _csv_failed))


# The fields of a detection record, and what a record that lacks one reads as.
_DETECTION_FIELDS = {
    "event_id": ABSENT, "error": ABSENT, "score": ABSENT, "is_anomaly": ABSENT,
    "truth_label": None,
}


def read_detections_jsonl(path: str | Path) -> Detections:
    """Read back a file written by :func:`write_detections_jsonl`.

    Every ``event_id`` must be a string. A record with an ``error`` field
    is an error record, and its ``error`` must be a string. In every other
    record ``score`` must be a JSON number (not a boolean) other than
    ``NaN``, ``is_anomaly`` a boolean and ``truth_label``, if present, a
    boolean or null; nothing is coerced.
    ``Infinity`` is a score: ``detect`` writes it for an event whose error
    overflows. A line that is not a UTF-8 JSON object, lacks a field, holds
    a field of another type, a ``NaN`` score or a score too large for a
    float raises :class:`ContractViolationError` naming the file, the first
    such line and the field. Each record is checked by itself, except in a run of
    records of the types :func:`write_detections_jsonl` writes, which is
    checked as columns.
    """
    return Detections.concat(read_chunks(path, _DETECTION_FIELDS, _check_detection_records))


# A truth label as one byte: its code when it is true, false or missing.
TRUTH_CODES = {True: 1, False: 0, None: -1}


def read_scores_and_truth(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The scores and the truth labels of the scored records of a detections
    file, in line order: what evaluating them needs of
    :func:`read_detections_jsonl`'s columns, in 9 bytes per record.

    The scores are float64 and the labels int8 :data:`TRUTH_CODES`. The file
    is read and checked as :func:`read_detections_jsonl` reads it, with the
    same errors, and each run is cut down to these two columns in the
    process that reads it.
    """

    def check(records: Records) -> tuple[np.ndarray, np.ndarray]:
        part = _check_detection_records(records)
        truth = np.fromiter(map(TRUTH_CODES.__getitem__, part.truth), np.int8, len(part.truth))
        return part.scores, truth

    parts = read_chunks(path, _DETECTION_FIELDS, check)
    return (
        np.concatenate([scores for scores, _ in parts] or [np.zeros(0)]),
        np.concatenate([truth for _, truth in parts] or [np.zeros(0, np.int8)]),
    )


def _check_detection_records(records: Records) -> Detections:
    """A run of detection records: as columns when every id and error is
    a string, every score an int or a float, not NaN and not too large for a
    float, every flag a boolean and every truth label a boolean or null,
    and then its decoded records are let go; else record by record."""
    ids, failed, score, flag, truth = records.values.values()
    errors = {i: error for i, error in enumerate(failed) if error is not ABSENT}
    if errors:
        scored = [i not in errors for i in range(len(ids))]
        score, flag, truth = (list(itertools.compress(c, scored)) for c in (score, flag, truth))
    if (
        set(map(type, ids)) <= {str}
        and set(map(type, errors.values())) <= {str}
        and set(map(type, score)) <= {int, float}
        and set(map(type, flag)) <= {bool}
        and set(map(type, truth)) <= {bool, type(None)}
    ):
        with contextlib.suppress(OverflowError):  # from an int too large for a float
            scores = np.array(score, dtype=np.float64)
            if not np.isnan(scores).any():
                records.rows.clear()
                return Detections(ids, scores, flag, truth, errors)
    return Detections.from_results(each_record(_detection, records))


def _detection(record: dict) -> DetectionResult | StreamError:
    """One detection record: an error record, or a scored one."""
    event_id = record["event_id"]
    if type(event_id) is not str:
        raise ContractViolationError(f"field 'event_id' must be a string, got {event_id!r}")
    if "error" in record:
        error = record["error"]
        if type(error) is not str:
            raise ContractViolationError(f"field 'error' must be a string, got {error!r}")
        return StreamError(event_id, error)
    value = record["score"]
    if type(value) is not int and type(value) is not float:
        raise ContractViolationError(f"field 'score' must be a number, got {value!r}")
    value = float(value)
    if math.isnan(value):
        raise ContractViolationError("field 'score' must not be NaN")
    flag = record["is_anomaly"]
    if type(flag) is not bool:
        raise ContractViolationError(f"field 'is_anomaly' must be a boolean, got {flag!r}")
    truth = record.get("truth_label")
    if truth is not None and type(truth) is not bool:
        raise ContractViolationError(
            f"field 'truth_label' must be a boolean or null, got {truth!r}"
        )
    return DetectionResult(event_id, value, flag, truth)
