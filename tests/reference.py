"""Straightforward per-item implementations that the fast paths are checked against.

Each function is the plain form the library once used: one event, one
record, one line or one tie group at a time, with fresh arrays for every
intermediate. The tests compare the library's column-wise encoder, its
column readers of streams and detections, its line writers, its JSON-lines
reader, its rank computation, its epoch loss and its stream generator with
these, bit for bit and byte for byte.
"""

import csv
import json
import math
from dataclasses import replace

import numpy as np

from etlwatch import streamgen
from etlwatch.autoencoder import latent_l1, reconstruction_loss, total_loss
from etlwatch.detector import DetectionResult, StreamError, batch_scores
from etlwatch.errors import ContractViolationError, EncodingError, EtlwatchError
from etlwatch.numerics import SeededRng
from etlwatch.preprocess import (
    DEFAULT_DEVICE_TYPES,
    DEFAULT_GEO_REGIONS,
    MASKABLE_FIELDS,
    EtlEvent,
    hour_angle,
    standardize,
)
from etlwatch.streamgen import (
    ANOMALY_CLASSES,
    LabeledEvent,
    inject,
    load_factor,
    sample_exponential,
    sample_gamma,
    sample_lognormal,
    sample_poisson,
)


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
        event_id, score = record["event_id"], record["score"]
        if type(score) not in (int, float):
            raise ContractViolationError(f"field 'score' must be a number, got {score!r}")
        score = float(score)
        if math.isnan(score):
            raise ContractViolationError("field 'score' must not be NaN")
        flag = record["is_anomaly"]
        if type(flag) is not bool:
            raise ContractViolationError(f"field 'is_anomaly' must be a boolean, got {flag!r}")
        truth = record.get("truth_label")
        if truth is not None and type(truth) is not bool:
            raise ContractViolationError(
                f"field 'truth_label' must be a boolean or null, got {truth!r}"
            )
        return DetectionResult(event_id, score, flag, truth)

    return read_jsonl(path, parse)


def forward(params, x):
    """The latents and the reconstruction of x, each intermediate a fresh array."""
    x = np.asarray(x, dtype=np.float64)
    h = params.hidden_activation.apply(x @ params.w_e.T + params.b_e)
    return h, params.output_activation.apply(h @ params.w_d.T + params.b_d)


def batch_loss(params, x, l1_penalty):
    """The epoch loss composed from the public loss terms."""
    h, xhat = forward(params, x)
    return total_loss(reconstruction_loss(x, xhat), latent_l1(h, l1_penalty))


def sample_categorical(rng, weights):
    u = rng.uniform() * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def records_band(cfg, timestamp):
    lf = load_factor(cfg, timestamp)
    return streamgen._poisson_band(round(cfg.records_mean * lf, 2))


def numeric_bands(cfg, timestamp, records_loaded, device_type):
    """Each numeric field's band, worked out from scratch for one event."""
    lf = load_factor(cfg, timestamp)
    z_lo, z_hi = streamgen._normal_band()
    log_mu = cfg.amount_log_mu + cfg.amount_device_offsets[
        DEFAULT_DEVICE_TYPES.index(device_type)
    ]
    amount_band = (
        math.exp(log_mu + cfg.amount_log_sigma * z_lo),
        math.exp(log_mu + cfg.amount_log_sigma * z_hi),
    )
    g_lo, g_hi = streamgen._unit_gamma_band(cfg.latency_shape)
    latency_band = (g_lo * cfg.latency_scale * lf, g_hi * cfg.latency_scale * lf)
    d_lo, d_hi = streamgen._unit_gamma_band(cfg.duration_shape)
    duration_scale = cfg.duration_scale * max(records_loaded, 1) / cfg.records_mean
    duration_band = (d_lo * duration_scale, d_hi * duration_scale)
    return {
        "amount": amount_band,
        "latency_ms": latency_band,
        "task_duration_s": duration_band,
        "records_loaded": records_band(cfg, timestamp),
    }


def _truncated(draw, lo, hi, max_tries=10_000):
    for _ in range(max_tries):
        value = draw()
        if lo <= value <= hi:
            return value
    raise ContractViolationError(
        f"could not draw a value inside [{lo}, {hi}] after {max_tries} tries"
    )


def _draw_normal_event(cfg, rng, timestamp, event_id):
    lf = load_factor(cfg, timestamp)
    device = DEFAULT_DEVICE_TYPES[sample_categorical(rng, cfg.device_weights)]
    geo = DEFAULT_GEO_REGIONS[sample_categorical(rng, cfg.geo_weights)]
    records = int(
        _truncated(
            lambda: sample_poisson(rng, cfg.records_mean * lf),
            *records_band(cfg, timestamp),
        )
    )
    bands = numeric_bands(cfg, timestamp, records, device)
    log_mu = cfg.amount_log_mu + cfg.amount_device_offsets[DEFAULT_DEVICE_TYPES.index(device)]
    amount = _truncated(
        lambda: sample_lognormal(rng, log_mu, cfg.amount_log_sigma), *bands["amount"]
    )
    latency = _truncated(
        lambda: sample_gamma(rng, cfg.latency_shape, cfg.latency_scale * lf),
        *bands["latency_ms"],
    )
    duration_scale = cfg.duration_scale * max(records, 1) / cfg.records_mean
    duration = _truncated(
        lambda: sample_gamma(rng, cfg.duration_shape, duration_scale),
        *bands["task_duration_s"],
    )
    return EtlEvent(
        timestamp=timestamp,
        amount=amount,
        latency_ms=latency,
        task_duration_s=duration,
        records_loaded=records,
        device_type=device,
        geo_region=geo,
        missing_mask=(False,) * len(MASKABLE_FIELDS),
        event_id=event_id,
    )


def generate(cfg):
    """A labeled stream, each event's bands and draws worked out on their own."""
    rng = SeededRng(cfg.seed)
    timestamp = cfg.start_timestamp
    out = []
    for i in range(cfg.n_events):
        timestamp += max(1, round(sample_exponential(rng, cfg.mean_gap_ms)))
        event = _draw_normal_event(cfg, rng, timestamp, event_id=f"evt-{i:06d}")
        if rng.uniform() < cfg.anomaly_rate:
            anomaly_class = ANOMALY_CLASSES[sample_categorical(rng, cfg.mix.weights())]
            out.append(LabeledEvent(inject(event, anomaly_class, rng), True, anomaly_class))
        else:
            out.append(LabeledEvent(event, False))
    return out
