"""Straightforward per-item implementations that the fast paths are checked against.

Each function is the plain form the library once used: one event, one
record, one line or one tie group at a time, with fresh arrays for every
intermediate, or one whole file at a time. The tests compare the library's
column-wise encoder, its column readers of streams, labels files and
detections, its line writers, its JSON-lines reader, its column statistics and
standardization, its scoring pass, its training rows and calibration
scores, its rank computation, its sigmoid, its epoch loss and per-row loss
terms, its gradient kernel, its
stream generator and fault injector, its labeled-stream writer, its bundle
split and its random draws with these, bit for bit and byte for byte.
"""

import csv
import json
import math
from dataclasses import replace

import numpy as np

from etlwatch import numerics, streamgen
from etlwatch.autoencoder import Gradients, total_loss
from etlwatch.detector import DetectionResult, Detections, StreamError
from etlwatch.errors import ContractViolationError, EncodingError, EtlwatchError
from etlwatch.preprocess import (
    DEFAULT_DEVICE_TYPES,
    DEFAULT_GEO_REGIONS,
    MASKABLE_FIELDS,
    EtlEvent,
    FeatureSchema,
    StandardizationStats,
    vectorize_events,
)
from etlwatch.streamgen import (
    ANOMALY_CLASSES,
    LabeledEvent,
    load_factor,
    sample_exponential,
    sample_gamma,
    sample_lognormal,
    sample_poisson,
)


def fit_stats(x):
    """Column means and population standard deviations over every row at
    once, sigma floored at ``StandardizationStats.epsilon``."""
    x = np.asarray(x, dtype=np.float64)
    sigma = np.maximum(x.std(axis=0), StandardizationStats.epsilon)
    return StandardizationStats(mu=x.mean(axis=0), sigma=sigma)


def standardize(x, stats):
    """(x - mu) / sigma, the difference a fresh array."""
    return (np.asarray(x, dtype=np.float64) - stats.mu) / stats.sigma


def batch_scores(params, x_std):
    """Each row's squared reconstruction error with the ``einsum`` products
    of the library's scoring pass, each intermediate a fresh array."""
    x_std = np.atleast_2d(np.asarray(x_std, dtype=np.float64))
    h = params.hidden_activation.apply(np.einsum("nd,kd->nk", x_std, params.w_e) + params.b_e)
    xhat = params.output_activation.apply(np.einsum("nk,dk->nd", h, params.w_d) + params.b_d)
    diff = x_std - xhat
    return np.sum(diff * diff, axis=1)


def hour_angle(timestamp_ms):
    """Hour-of-day expressed as an angle in [0, 2*pi)."""
    return 2.0 * math.pi * (timestamp_ms % 86_400_000) / 86_400_000


def reconstruction_loss(x, xhat):
    """Mean over samples of the squared Euclidean reconstruction error.

    The squared norm is summed over features, not averaged, so the value for
    a single (x, xhat) pair is exactly ||x - xhat||^2.
    """
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ContractViolationError(
            f"reconstruction_loss shape mismatch: {x.shape} vs {xhat.shape}"
        )
    diff = x - xhat
    if diff.ndim == 1:
        return float(diff @ diff)
    return float(np.mean(np.sum(diff * diff, axis=1)))


def latent_l1(h, l1_penalty):
    """l1_penalty times the batch-mean L1 norm of the latents."""
    if l1_penalty < 0:
        raise ContractViolationError(f"l1_penalty must be >= 0, got {l1_penalty}")
    h = np.asarray(h, dtype=np.float64)
    if h.ndim == 1:
        return float(l1_penalty * np.sum(np.abs(h)))
    return float(l1_penalty * np.mean(np.sum(np.abs(h), axis=1)))


def vectorize_row(event):
    """Encode one event, one slot after another, in the one layout."""
    schema = FeatureSchema
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


def detections(records):
    """The records as :class:`Detections` columns, one record at a time."""
    ids, scores, flags, truth, errors = [], [], [], [], {}
    for position, record in enumerate(records):
        ids.append(record.event_id)
        if isinstance(record, StreamError):
            errors[position] = record.error
        else:
            scores.append(record.score)
            flags.append(record.is_anomaly)
            truth.append(record.truth_label)
    return Detections(ids, scores, flags, truth, errors)


def read_normal_rows(path):
    """The feature rows of the normal and unlabeled events of a stream file,
    the whole file at once: its events and filled labels, then those events
    encoded as one batch."""
    events, labels, _ = streamgen.read_stream(path)
    return vectorize_events(events.where([not label for label in labels]))


def calibration_scores(params, stats, path):
    """The validation scores of a stream file, the whole file at once: the
    rows of :func:`read_normal_rows`, standardized and scored as one batch."""
    return batch_scores(params, standardize(read_normal_rows(path), stats))


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


def score_one_at_a_time(params, stats, events, delta, truth_labels=None):
    """Score a stream event by event, each as a batch of one."""
    results = []
    for i, event in enumerate(events):
        event_id = event.event_id or f"event-{i}"
        try:
            row = vectorize_row(event)
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


def read_held_out_labels(path):
    """A labels file as ``{event_id: (label, anomaly_class)}``, one line at a
    time; a null label counts as absent."""

    def parse(record, line_no):
        event_id, label = str(record["event_id"]), record.get("label")
        if label is None:
            raise KeyError("label")
        if type(label) is not bool:
            raise ContractViolationError(f"field 'label' must be a boolean, got {label!r}")
        return event_id, (label, record.get("anomaly_class"))

    return dict(read_jsonl(path, parse))


def read_detections_jsonl(path):
    """Detection records, one line at a time."""

    def parse(record, line_no):
        event_id = record["event_id"]
        if type(event_id) is not str:
            raise ContractViolationError(f"field 'event_id' must be a string, got {event_id!r}")
        if "error" in record:
            error = record["error"]
            if type(error) is not str:
                raise ContractViolationError(f"field 'error' must be a string, got {error!r}")
            return StreamError(event_id, error)
        score = record["score"]
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


def sigmoid(z, out=None):
    """The sigmoid split by boolean masks: 1 / (1 + e^-z) where z >= 0 and
    e^z / (1 + e^z) elsewhere, NaN included."""
    if out is None:
        out = np.empty_like(z)
    pos = z >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[neg])  # z[neg] is unchanged even when out is z
    out[neg] = ez / (1.0 + ez)
    return out


def forward(params, x):
    """The latents and the reconstruction of x, each intermediate a fresh array."""
    x = np.asarray(x, dtype=np.float64)
    h = params.hidden_activation.apply(x @ params.w_e.T + params.b_e)
    return h, params.output_activation.apply(h @ params.w_d.T + params.b_d)


def row_losses(params, x):
    """Each row's squared reconstruction error and latent L1 norm, from one
    forward pass over all rows."""
    h, xhat = forward(params, x)
    diff = x - xhat
    return np.sum(diff * diff, axis=1), np.sum(np.abs(h), axis=1)


def batch_loss(params, x, l1_penalty):
    """The epoch loss over the whole batch at once, composed from the two
    loss terms above."""
    h, xhat = forward(params, x)
    return total_loss(reconstruction_loss(x, xhat), latent_l1(h, l1_penalty))


def gradients(params, x, l1_penalty):
    """The gradients of batch_loss for an (n, d) batch, each intermediate a
    fresh array: what the in-place kernel behind backprop must reproduce."""
    n = x.shape[0]
    z_h = x @ params.w_e.T + params.b_e
    h = params.hidden_activation.apply(z_h)
    z_o = h @ params.w_d.T + params.b_d
    xhat = params.output_activation.apply(z_o)
    d_zo = (2.0 / n) * (xhat - x) * params.output_activation.derivative(z_o, xhat)
    d_h = d_zo @ params.w_d + (l1_penalty / n) * np.sign(h)
    d_zh = d_h * params.hidden_activation.derivative(z_h, h)
    return Gradients(
        w_e=d_zh.T @ x, b_e=d_zh.sum(axis=0), w_d=d_zo.T @ h, b_d=d_zo.sum(axis=0)
    )


def sample_categorical(unit, weights):
    u = unit() * sum(weights)
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


def _draw_normal_event(cfg, unit, timestamp, event_id):
    lf = load_factor(cfg, timestamp)
    device = DEFAULT_DEVICE_TYPES[sample_categorical(unit, cfg.device_weights)]
    geo = DEFAULT_GEO_REGIONS[sample_categorical(unit, cfg.geo_weights)]
    records = int(
        _truncated(
            lambda: sample_poisson(unit, cfg.records_mean * lf),
            *records_band(cfg, timestamp),
        )
    )
    bands = numeric_bands(cfg, timestamp, records, device)
    log_mu = cfg.amount_log_mu + cfg.amount_device_offsets[DEFAULT_DEVICE_TYPES.index(device)]
    amount = _truncated(
        lambda: sample_lognormal(unit, log_mu, cfg.amount_log_sigma), *bands["amount"]
    )
    latency = _truncated(
        lambda: sample_gamma(unit, cfg.latency_shape, cfg.latency_scale * lf),
        *bands["latency_ms"],
    )
    duration_scale = cfg.duration_scale * max(records, 1) / cfg.records_mean
    duration = _truncated(
        lambda: sample_gamma(unit, cfg.duration_shape, duration_scale),
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


def _uniform(unit, lo, hi):
    value = lo + unit() * (hi - lo)
    return value if value < hi else math.nextafter(hi, lo)


def inject(event, anomaly_class, unit):
    """Apply one fault signature to a built event through ``dataclasses.replace``,
    which checks the faulted event as a new one. The factors are the ones
    the module docstring of ``streamgen`` states, written here as literals:
    a delay multiplies the latency by a factor in [5, 20), a spike the
    amount by one in [10, 50), and a duplicate doubles the records loaded
    and halves the duration."""
    if anomaly_class == "delay":
        factor = _uniform(unit, 5.0, 20.0)
        return replace(event, latency_ms=event.latency_ms * factor)
    if anomaly_class == "missing":
        n = float(len(MASKABLE_FIELDS))
        n_missing = 1 + int(_uniform(unit, 0.0, n))
        chosen = set()
        while len(chosen) < n_missing:
            chosen.add(int(_uniform(unit, 0.0, n)))
        mask = tuple(i in chosen for i in range(len(MASKABLE_FIELDS)))
        updates = {MASKABLE_FIELDS[i]: 0.0 for i in sorted(chosen)}
        return replace(event, missing_mask=mask, **updates)
    if anomaly_class == "duplicate":
        return replace(
            event,
            records_loaded=event.records_loaded * 2,
            task_duration_s=event.task_duration_s * 0.5,
        )
    if anomaly_class == "spike":
        factor = _uniform(unit, 10.0, 50.0)
        return replace(event, amount=event.amount * factor)
    raise ContractViolationError(f"unknown anomaly class {anomaly_class!r}")


def generate(cfg):
    """A labeled stream, each event's bands and draws worked out on their own,
    with one raw draw of the scalar oracle per fraction."""
    unit = ReferenceRng(cfg.seed).fractions()
    timestamp = cfg.start_timestamp
    out = []
    for i in range(cfg.n_events):
        timestamp += max(1, round(sample_exponential(unit, cfg.mean_gap_ms)))
        event = _draw_normal_event(cfg, unit, timestamp, event_id=f"evt-{i:06d}")
        if unit() < cfg.anomaly_rate:
            anomaly_class = ANOMALY_CLASSES[sample_categorical(unit, cfg.mix.weights())]
            out.append(LabeledEvent(inject(event, anomaly_class, unit), True, anomaly_class))
        else:
            out.append(LabeledEvent(event, False))
    return out


def make_bundle(items):
    """The 60/20/20 bundle of a list of labeled events as ``(x_train, x_val,
    x_test, y_test)``, its parts picked and encoded one event at a time."""
    n = len(items)
    n_train, n_val = int(n * 0.6), int(n * 0.2)
    train_part = [item.event for item in items[:n_train] if not item.label]
    val_part = [item.event for item in items[n_train : n_train + n_val] if not item.label]
    test_part = items[n_train + n_val :]

    def rows(events):
        return np.array([vectorize_row(event) for event in events])

    x_train = rows(train_part)
    stats = fit_stats(x_train)
    return (
        standardize(x_train, stats),
        standardize(rows(val_part), stats),
        standardize(rows([item.event for item in test_part]), stats),
        np.array([item.label for item in test_part], dtype=bool),
    )


def event_to_dict(event):
    """One event as the record a stream file holds for it."""
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


def write_labeled_events(items, path, holdout=False):
    """One ``json.dumps`` of a dict per labeled event, built from the event."""
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            record = event_to_dict(item.event)
            if not holdout:
                record["label"] = item.label
                record["anomaly_class"] = item.anomaly_class
            fh.write(json.dumps(record) + "\n")
    if holdout:
        with open(streamgen.labels_sibling_path(path), "w", encoding="utf-8") as fh:
            for item in items:
                fh.write(json.dumps({
                    "event_id": item.event.event_id,
                    "label": item.label,
                    "anomaly_class": item.anomaly_class,
                }) + "\n")


def next_u64(rng) -> int:
    """The next raw 64-bit output of a :class:`SeededRng` or a
    :class:`ReferenceRng`: one splitmix64 step of its state, the scalar form
    of one element of ``next_u64_block``."""
    rng._state = (rng._state + numerics._GOLDEN) & numerics._MASK64
    z = rng._state
    z = ((z ^ (z >> 30)) * numerics._MIX1) & numerics._MASK64
    z = ((z ^ (z >> 27)) * numerics._MIX2) & numerics._MASK64
    return z ^ (z >> 31)


def reference_uniform(rng, lo: float = 0.0, hi: float = 1.0) -> float:
    """A float in [lo, hi) from one :func:`next_u64`: the scalar form of one
    element of ``uniform_block``."""
    u = (next_u64(rng) >> 11) * 2.0**-53
    value = lo + u * (hi - lo)
    if value >= hi:
        value = np.nextafter(hi, lo)
    return value


def reference_shuffled_indices(rng, n: int) -> np.ndarray:
    """Scalar Fisher-Yates, one draw per swap: the oracle for the block-drawn shuffle."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(reference_uniform(rng, 0.0, float(i + 1)))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class ReferenceRng:
    """Scalar-only oracle for :class:`SeededRng`: every draw is one :func:`next_u64`.

    Its sequence is splitmix64 one output at a time. It has the public draw
    methods of ``SeededRng`` and can stand in for it, and it keeps the scalar
    ``uniform(lo, hi)`` and ``index(n)`` that tests draw their data with.
    Its :meth:`fractions` source makes one raw draw per call.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & numerics._MASK64

    def next_u64_block(self, n: int) -> np.ndarray:
        return np.array([next_u64(self) for _ in range(n)], dtype=np.uint64)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return reference_uniform(self, lo, hi)

    def uniform_block(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])

    def index(self, n: int) -> int:
        return int(self.uniform(0.0, float(n)))

    def shuffled_indices(self, n: int) -> np.ndarray:
        return reference_shuffled_indices(self, n)

    def fractions(self):
        return self.uniform


_LAYOUT = FeatureSchema().to_dict()
# Hand edits of a model document to a feature layout or sigma floor other
# than the one: each edit's top-level updates (a dict value updates that
# object), and the field the refusal must name.
EDITED_MODELS = {
    "numeric-field-foo": (
        {"schema": {"numeric_fields": [*_LAYOUT["numeric_fields"][:-1], "foo"]}},
        "schema.numeric_fields",
    ),
    "four-maskable-three-regions": (
        {"schema": {"maskable_fields": [*_LAYOUT["maskable_fields"], "records_loaded"],
                    "geo_regions": _LAYOUT["geo_regions"][:-1]}},
        "schema.geo_regions",
    ),
    "maskable-reordered": (
        {"schema": {"maskable_fields": _LAYOUT["maskable_fields"][::-1]}},
        "schema.maskable_fields",
    ),
    "devices-reordered": (
        {"schema": {"device_types": _LAYOUT["device_types"][::-1]}}, "schema.device_types"
    ),
    "epsilon-1e-10": ({"epsilon": 1e-10}, "epsilon"),
}


# Stands for a top-level field an edit deletes.
DELETED = object()
# Hand edits of a model document outside the layout and the floor, and the
# field the refusal must name.
CORRUPT_MODELS = {
    "hidden-tanh2": ({"activations": {"hidden": "tanh2"}}, "activations.hidden"),
    "no-w_d": ({"w_d": DELETED}, "w_d"),
    "b_e-string": ({"b_e": "x"}, "b_e"),
    "k-string": ({"k": "8"}, "k"),
    "d-fraction": ({"d": 16.5}, "d"),
    "d-infinity": ({"d": math.inf}, "d"),
}
MODEL_EDITS = EDITED_MODELS | CORRUPT_MODELS


def edit_model(source, target, edit):
    """Write to ``target`` the model document of ``source`` with ``edit`` applied."""
    with open(source, encoding="utf-8") as fh:
        document = json.load(fh)
    for key, value in edit.items():
        if value is DELETED:
            del document[key]
        elif isinstance(value, dict):
            document[key].update(value)
        else:
            document[key] = value
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
