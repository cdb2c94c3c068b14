"""Straightforward per-item implementations that the fast paths are checked against.

Each function is the plain form the library once used: one event, one
record, one line or one tie group at a time. The tests compare the
library's column-wise encoder, its column readers of streams and
detections, its line writers, its JSON-lines reader and its rank
computation with these, bit for bit and byte for byte.
"""

import csv
import json
import math
from dataclasses import replace

import numpy as np

from etlwatch.detector import DetectionResult, StreamError, batch_scores
from etlwatch.errors import ContractViolationError, EncodingError, EtlwatchError
from etlwatch.preprocess import EtlEvent, hour_angle, standardize


def vectorize_row(event, schema):
    """Encode one event, one slot after another."""
    values = []
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


def write_detections_jsonl(results, path):
    """One ``json.dumps`` of a dict per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in results:
            if isinstance(record, StreamError):
                payload = {"event_id": record.event_id, "error": record.error}
            else:
                payload = {
                    "event_id": record.event_id,
                    "score": record.score,
                    "is_anomaly": record.is_anomaly,
                }
                if record.truth_label is not None:
                    payload["truth_label"] = record.truth_label
            fh.write(json.dumps(payload) + "\n")


def write_detections_csv(results, path):
    """One ``writerow`` per record."""
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


def average_ranks(values):
    """1-based ranks, walking the sorted values one tie group at a time."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.shape[0], dtype=np.float64)
    i = 0
    while i < values.shape[0]:
        j = i
        while j + 1 < values.shape[0] and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * ((i + 1) + (j + 1))
        i = j + 1
    return ranks


def score_one_at_a_time(params, stats, events, schema, delta, truth_labels=None):
    """Score a stream event by event, each as a batch of one."""
    results = []
    for i, event in enumerate(events):
        event_id = event.event_id or f"event-{i}"
        try:
            row = vectorize_row(event, schema)
        except EncodingError as exc:
            results.append(StreamError(event_id=event_id, error=str(exc)))
            continue
        value = float(batch_scores(params, standardize(row, stats))[0])
        truth = truth_labels[i] if truth_labels is not None else None
        results.append(DetectionResult(event_id, value, value > delta, truth))
    return results


def read_jsonl(path, parse):
    """One ``json.loads`` per non-blank line, errors worded as the library words them."""
    out = []
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
            except (ValueError, TypeError, OverflowError, EtlwatchError) as exc:
                raise ContractViolationError(f"{path} line {line_no}: {exc}") from exc
    return out


def _integral(record, name):
    value = record[name]
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ContractViolationError(f"field {name!r} must be an integer, got {value!r}")


def _number(value, name):
    if type(value) not in (int, float):
        raise ContractViolationError(f"field {name!r} must be a number, got {value!r}")
    return float(value)


def parse_event(record):
    """Check and build one event record, one field after another."""
    try:
        timestamp = _integral(record, "timestamp")
        amount, latency, duration = (
            record["amount"], record["latency_ms"], record["task_duration_s"]
        )
        mask = record["missing_mask"]
        if not isinstance(mask, list):
            raise ContractViolationError(f"field 'missing_mask' must be an array, got {mask!r}")
        if not all(type(bit) is bool for bit in mask):
            raise ContractViolationError(
                f"field 'missing_mask' must be an array of booleans, got {mask!r}"
            )
        mask = tuple(mask)
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


def read_stream(path):
    """The events, inline labels and classes of a stream, one line at a time."""
    labels, classes = [], []

    def parse(record, line_no):
        event = parse_event(record)
        if not event.event_id:
            event = replace(event, event_id=f"line-{line_no}")
        label = record.get("label")
        if label is not None and type(label) is not bool:
            raise ContractViolationError(f"field 'label' must be a boolean, got {label!r}")
        labels.append(label)
        classes.append(record.get("anomaly_class"))
        return event

    return read_jsonl(path, parse), labels, classes


def read_detections_jsonl(path):
    """Detection records, one line at a time."""

    def parse(record, line_no):
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
