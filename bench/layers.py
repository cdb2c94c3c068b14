"""Which etlwatch functions the traced run wraps, and the per-layer metrics.

Each target is wrapped under every name an etlwatch module binds it to,
because that is the name its caller looks up: ``train`` calls
``etlwatch.autoencoder.backprop``, ``score_stream`` calls
``etlwatch.detector.vectorize`` and ``detect`` calls
``etlwatch.cli.score_stream``. Nothing under ``src/`` is edited; the
wrappers are installed for one unit of work and removed after it.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager

import numpy as np
from etlwatch.detector import StreamError

from spans import Tracer


def _rows(args, kwargs, result):
    return {"detector.batch_scores_rows": np.atleast_2d(args[1]).shape[0]}


def _events(args, kwargs, result):
    return {"streamgen.events": len(result)}


def _stream(args, kwargs, result):
    errors = sum(1 for r in result if isinstance(r, StreamError))
    return {"detector.input_lines": len(result), "detector.error_records": errors}


def _sweep(args, kwargs, result):
    return {
        "evaluation.sweep_points": len(result.entries),
        "evaluation.diverged": sum(1 for e in result.entries if e.diverged),
    }


# (defining module, attribute, span name, counter function)
TARGETS = (
    ("numerics", "SeededRng.shuffled_indices", "numerics.shuffle", None),
    ("autoencoder", "train", "autoencoder.train", None),
    ("autoencoder", "init_params", "autoencoder.init_params", None),
    ("autoencoder", "backprop", "autoencoder.backprop", None),
    ("autoencoder", "sgd_step", "autoencoder.sgd_step", None),
    ("autoencoder", "batch_loss", "autoencoder.epoch_loss", None),
    ("autoencoder", "save_model", "autoencoder.save_model", None),
    ("autoencoder", "load_model", "autoencoder.load_model", None),
    ("streamgen", "generate", "streamgen.generate", _events),
    ("preprocess", "parse_event", "preprocess.parse_event", None),
    ("preprocess", "vectorize", "preprocess.vectorize", None),
    ("preprocess", "standardize", "preprocess.standardize", None),
    ("preprocess", "fit_stats", "preprocess.fit_stats", None),
    ("detector", "score_stream", "detector.score_stream", _stream),
    ("detector", "score", "detector.score", None),
    ("detector", "batch_scores", "detector.batch_scores", _rows),
    ("detector", "calibrate_threshold", "detector.calibrate", None),
    ("detector", "write_detections_jsonl", "detector.write", None),
    ("detector", "write_detections_csv", "detector.write", None),
    ("detector", "read_detections_jsonl", "detector.read_detections", None),
    ("evaluation", "make_bundle", "evaluation.make_bundle", None),
    ("evaluation", "auc", "evaluation.auc", None),
    ("evaluation", "metrics_at_threshold", "evaluation.metrics", None),
    ("evaluation", "evaluate_config", "evaluation.sweep_point", None),
    ("evaluation", "sweep_latent_dim", "evaluation.sweep", _sweep),
)


@contextmanager
def traced(tracer: Tracer):
    """Wrap every target in every etlwatch namespace for the ``with`` body."""
    undo = []
    try:
        for module_name, attr, span_name, count in TARGETS:
            owner = importlib.import_module(f"etlwatch.{module_name}")
            if "." in attr:  # a method: wrap it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                namespaces = [owner]
            else:
                namespaces = [
                    module for name, module in sorted(sys.modules.items())
                    if name == "etlwatch" or name.startswith("etlwatch.")
                ]
            original = getattr(owner, attr)
            wrapper = tracer.wrap(span_name, original, count)
            for namespace in namespaces:
                if vars(namespace).get(attr) is original:
                    setattr(namespace, attr, wrapper)
                    undo.append((namespace, attr, original))
        yield tracer
    finally:
        for namespace, attr, original in reversed(undo):
            setattr(namespace, attr, original)


# metric name -> unit
METRICS = {
    "numerics.shuffle_s": "s",
    "numerics.shuffle_calls": "count",
    "autoencoder.train_s": "s",
    "autoencoder.train_self_s": "s",
    "autoencoder.init_params_s": "s",
    "autoencoder.backprop_s": "s",
    "autoencoder.sgd_step_s": "s",
    "autoencoder.steps": "count",
    "autoencoder.step_us": "us",
    "autoencoder.epoch_loss_s": "s",
    "autoencoder.save_model_s": "s",
    "autoencoder.load_model_s": "s",
    "streamgen.generate_s": "s",
    "streamgen.events": "count",
    "preprocess.parse_event_s": "s",
    "preprocess.parse_event_calls": "count",
    "preprocess.vectorize_s": "s",
    "preprocess.vectorize_rows": "count",
    "preprocess.standardize_s": "s",
    "preprocess.fit_stats_s": "s",
    "detector.score_stream_s": "s",
    "detector.score_stream_self_s": "s",
    "detector.score_calls": "count",
    "detector.batch_scores_s": "s",
    "detector.batch_scores_rows": "count",
    "detector.calibrate_s": "s",
    "detector.write_s": "s",
    "detector.read_detections_s": "s",
    "detector.error_records": "count",
    "detector.error_frac": "frac",
    "evaluation.make_bundle_s": "s",
    "evaluation.make_bundle_self_s": "s",
    "evaluation.auc_s": "s",
    "evaluation.metrics_s": "s",
    "evaluation.sweep_points": "count",
    "evaluation.diverged_frac": "frac",
    "evaluation.sweep_overlap": "ratio",
    "cli.detect_s": "s",
    "cli.detect_self_s": "s",
    "cli.evaluate_s": "s",
    "cli.evaluate_self_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced unit; a layer that did not run reads 0."""
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = calls("autoencoder.sgd_step")
    step_s = secs("autoencoder.backprop") + secs("autoencoder.sgd_step")
    values = {
        "numerics.shuffle_s": secs("numerics.shuffle"),
        "numerics.shuffle_calls": calls("numerics.shuffle"),
        "autoencoder.train_s": secs("autoencoder.train"),
        "autoencoder.train_self_s": own("autoencoder.train"),
        "autoencoder.init_params_s": secs("autoencoder.init_params"),
        "autoencoder.backprop_s": secs("autoencoder.backprop"),
        "autoencoder.sgd_step_s": secs("autoencoder.sgd_step"),
        "autoencoder.steps": steps,
        "autoencoder.step_us": 1e6 * ratio(step_s, steps),
        "autoencoder.epoch_loss_s": secs("autoencoder.epoch_loss"),
        "autoencoder.save_model_s": secs("autoencoder.save_model"),
        "autoencoder.load_model_s": secs("autoencoder.load_model"),
        "streamgen.generate_s": secs("streamgen.generate"),
        "streamgen.events": counters["streamgen.events"],
        "preprocess.parse_event_s": secs("preprocess.parse_event"),
        "preprocess.parse_event_calls": calls("preprocess.parse_event"),
        "preprocess.vectorize_s": secs("preprocess.vectorize"),
        "preprocess.vectorize_rows": calls("preprocess.vectorize"),
        "preprocess.standardize_s": secs("preprocess.standardize"),
        "preprocess.fit_stats_s": secs("preprocess.fit_stats"),
        "detector.score_stream_s": secs("detector.score_stream"),
        "detector.score_stream_self_s": own("detector.score_stream"),
        "detector.score_calls": calls("detector.score"),
        "detector.batch_scores_s": secs("detector.batch_scores"),
        "detector.batch_scores_rows": counters["detector.batch_scores_rows"],
        "detector.calibrate_s": secs("detector.calibrate"),
        "detector.write_s": secs("detector.write"),
        "detector.read_detections_s": secs("detector.read_detections"),
        "detector.error_records": counters["detector.error_records"],
        "detector.error_frac": ratio(
            counters["detector.error_records"], counters["detector.input_lines"]
        ),
        "evaluation.make_bundle_s": secs("evaluation.make_bundle"),
        "evaluation.make_bundle_self_s": own("evaluation.make_bundle"),
        "evaluation.auc_s": secs("evaluation.auc"),
        "evaluation.metrics_s": secs("evaluation.metrics"),
        "evaluation.sweep_points": counters["evaluation.sweep_points"],
        "evaluation.diverged_frac": ratio(
            counters["evaluation.diverged"], counters["evaluation.sweep_points"]
        ),
        "evaluation.sweep_overlap": ratio(
            secs("evaluation.sweep_point"), secs("evaluation.sweep")
        ),
        "cli.detect_s": secs("cli.detect"),
        "cli.detect_self_s": own("cli.detect"),
        "cli.evaluate_s": secs("cli.evaluate"),
        "cli.evaluate_self_s": own("cli.evaluate"),
    }
    return values
