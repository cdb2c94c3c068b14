"""Command-line workflow: generate -> train -> detect -> evaluate / sweep.

Every subcommand writes a ``<output>.manifest.json`` next to its primary
output recording the resolved parameters, seed, inputs, outputs, tool
version, the kernel numpy's OpenBLAS runs (``blas_kernel``) and wall time.
``etlwatch replay <manifest>`` re-runs the recorded subcommand and
reproduces the primary outputs byte-identically.

Exit codes: 0 on success, 1 on runtime failure (IO, divergence, bad data),
2 on usage or flag-validation errors. A run from flags and a replayed one
take one path: :func:`_execute` checks the parameters against one table,
then the runner refuses an output, a manifest included, that would replace
a file the run reads (an input, or the labels file beside one) before it
opens any input. From :data:`_SPLIT_ROWS` records on, ``detect`` writes its
CSV file in a worker (:func:`~etlwatch.workers.run`) while it writes the
JSONL file.
"""

from __future__ import annotations

import csv
import json
import math
import time
from functools import partial
from pathlib import Path

import click

from . import __version__
from .autoencoder import TrainConfig, load_model, save_model, train
from .detector import (
    TRUTH_CODES,
    Detections,
    calibrate_threshold,
    calibration_scores,
    read_normal_rows,
    read_scores_and_truth,
    score_stream,
    write_detections_csv,
    write_detections_jsonl,
)
from .errors import EtlwatchError
from .evaluation import (
    DELTA_QUANTILE,
    blas_kernel,
    emit_report,
    make_bundle,
    metrics_at_threshold,
    report_filename,
    sweep,
    write_metrics_report,
)
from .preprocess import FeatureSchema, fit_stats, standardize
from .streamgen import (
    ANOMALY_CLASSES,
    AnomalyMix,
    LabeledStream,
    StreamConfig,
    generate as generate_stream,
    labels_sibling_path,
    read_stream,
    write_labeled_events,
)
from .workers import fork_ways, run


def _manifest_path(primary_output: str | Path) -> Path:
    return Path(str(primary_output) + ".manifest.json")


def _write_manifest(
    subcommand: str,
    params: dict,
    inputs: list[str],
    outputs: list[str],
    extras: dict,
    started: float,
) -> None:
    manifest = {
        "subcommand": subcommand,
        "params": params,
        "seed": params.get("seed"),
        "inputs": inputs,
        "outputs": outputs,
        "tool_version": __version__,
        "blas_kernel": blas_kernel(),
        "wall_time_s": time.perf_counter() - started,
    }
    manifest.update(extras)
    with open(_manifest_path(outputs[0]), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _must(holds, problem):
    return lambda value: None if holds(value) else problem


def _numbers(values) -> bool:
    """Whether every value is a JSON number, which a boolean is not."""
    return all(type(v) in (int, float) for v in values)


def _mix_problem(weights: object) -> str | None:
    if not isinstance(weights, dict):
        return "must map each anomaly class to its weight"
    unknown = [name for name in weights if name not in ANOMALY_CLASSES]
    if unknown:
        return f"unknown class {unknown[0]!r}"
    missing = set(ANOMALY_CLASSES) - set(weights)
    if missing:
        return f"mix is missing classes: {sorted(missing)}"
    if not _numbers(weights.values()):
        return "mix weights must be numbers"
    if any(w < 0 for w in weights.values()) or not abs(sum(weights.values()) - 1.0) <= 1e-9:
        return "mix weights must be non-negative and sum to 1"
    return None


_POSITIVE = _must(lambda v: 0 < v < math.inf, "must be finite and > 0")
_NON_NEGATIVE = _must(lambda v: 0 <= v < math.inf, "must be finite and >= 0")
# Each parameter with bounds of its own -> the problem of a value, or None
_PARAM_CHECKS = {
    "n": _POSITIVE,
    "anomaly_rate": _must(lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    "mix": _mix_problem,
    "grid": _must(lambda v: isinstance(v, list) and _numbers(v), "must be a list of numbers"),
    "lr": _POSITIVE,
    "k": _POSITIVE,
    "l1_penalty": _NON_NEGATIVE,
    "epochs": _POSITIVE,
    "batch": _POSITIVE,
    "delta": _NON_NEGATIVE,
    "quantile": _must(lambda v: 0 < v < 1, "must lie strictly inside (0, 1)"),
}


# The JSON types a manifest value may have, by the click type of its flag:
# those the flag gives, so a boolean is no number
_JSON_TYPES = {
    click.types.BoolParamType: {bool},
    click.types.IntParamType: {int},
    click.types.FloatParamType: {int, float},
    click.types.Path: {str},
    click.types.Choice: {str},
}


def _check_params(subcommand: str, params: dict) -> None:
    """The one check of a run's parameters, whether they came from flags or
    from a manifest: each value present, in the order the subcommand declares
    its flags, against its flag's :data:`_JSON_TYPES`, its choices and then
    :data:`_PARAM_CHECKS`, and last delta against calibrate. A null value
    passes only for a flag whose default is None."""
    for param in main.commands[subcommand].params:
        if param.name not in params:
            continue
        value = params[param.name]
        if value is None and param.default is None:
            continue
        if type(value) not in _JSON_TYPES.get(type(param.type), {type(value)}):
            raise click.BadParameter(f"{value!r} is not a valid {param.type.name}.", param=param)
        if isinstance(param.type, click.Choice):
            param.type.convert(value, param, None)  # raises click's message for another value
        check = _PARAM_CHECKS.get(param.name)
        problem = None if check is None else check(value)
        if problem:
            raise click.BadParameter(problem, param=param)
    if "calibrate" in params and (params.get("delta") is None) == (params["calibrate"] is None):
        raise click.UsageError("give exactly one of --delta or --calibrate")


def _execute(subcommand: str, params: dict) -> None:
    started = time.perf_counter()
    runner = _RUNNERS[subcommand]
    _check_params(subcommand, params)
    try:
        inputs, outputs, extras = runner(params)
    except (EtlwatchError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    _write_manifest(subcommand, params, inputs, outputs, extras, started)


def _refuse_overwrites(inputs: list[str], outputs: list[str]) -> None:
    """A usage error when an output or the manifest that goes with it names a
    file the run reads: an input, or the labels file beside one, which
    :func:`read_stream` reads. Each runner that reads a file calls it with
    every file it will read (evaluate's also include the detect manifest it
    takes delta from) before it opens any of them."""
    read = {}
    for name in inputs:
        for path in (Path(name), labels_sibling_path(name)):
            read.setdefault(path.resolve(), path)
    for name in [*outputs, _manifest_path(outputs[0])]:
        clash = read.get(Path(name).resolve())
        if clash is not None:
            raise click.UsageError(
                f"output {name} would overwrite {clash}, which this run reads; "
                "write the output elsewhere"
            )


# --- runners (shared by the flag-parsing commands and `replay`) -------------

def _run_generate(params: dict) -> tuple[list[str], list[str], dict]:
    mix = AnomalyMix(**params["mix"])
    cfg = StreamConfig(
        n_events=params["n"],
        anomaly_rate=params["anomaly_rate"],
        mix=mix,
        seed=params["seed"],
    )
    stream = generate_stream(cfg)
    write_labeled_events(stream, params["out"], holdout=params["holdout"])
    n_anomalies = sum(stream.labels)
    click.echo(f"wrote {len(stream)} events ({n_anomalies} anomalous) to {params['out']}")
    return [], [params["out"]], {"n_anomalies": n_anomalies}


def _train_config(params: dict) -> TrainConfig:
    return TrainConfig(
        learning_rate=params["lr"],
        l1_penalty=params["l1_penalty"],
        epochs=params["epochs"],
        batch_size=params["batch"],
        seed=params["seed"],
        latent_dim=params["k"],
    )


def _run_train(params: dict) -> tuple[list[str], list[str], dict]:
    history_path = Path(params["out"]).with_suffix(".history.csv")
    inputs, outputs = [params["stream"]], [params["out"], str(history_path)]
    _refuse_overwrites(inputs, outputs)
    schema = FeatureSchema()
    x = read_normal_rows(params["stream"], schema)
    stats = fit_stats(x)
    standardize(x, stats, out=x)
    n_rows = len(x)
    params_out, history = train(x, _train_config(params))
    del x  # train keeps its own copy until the history's losses are read
    save_model(params["out"], params_out, stats, schema)
    with open(history_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "l_rec", "l_reg", "l_total", "seconds"])
        for epoch, (loss, seconds) in enumerate(
            zip(history.losses, history.epoch_seconds)
        ):
            writer.writerow(
                [epoch, repr(loss.l_rec), repr(loss.l_reg), repr(loss.l_total),
                 f"{seconds:.6f}"]
            )
    final = history.losses[-1]
    click.echo(
        f"trained on {n_rows} events for {len(history)} epochs, "
        f"final loss {final.l_total:.6f}"
    )
    return inputs, outputs, {}


def _run_detect(params: dict) -> tuple[list[str], list[str], dict]:
    model_path = params["model"]
    out, csv_path = params["out"], Path(params["out"]).with_suffix(".csv")
    if csv_path == Path(out):
        raise click.UsageError(
            f"--out {out} is where the CSV detections go; give --out a suffix other than .csv"
        )
    delta = params["delta"]
    inputs, outputs = [params["stream"], model_path], [out, str(csv_path)]
    if delta is None:
        inputs.append(params["calibrate"])
    _refuse_overwrites(inputs, outputs)
    model, stats, schema = load_model(model_path)
    if delta is None:
        validation = calibration_scores(model, stats, params["calibrate"], schema)
        delta = calibrate_threshold(validation, params["quantile"])

    results = score_stream(model, stats, params["stream"], schema, delta)
    _write_detections(results, out, csv_path)
    click.echo(
        f"scored {len(results)} events at delta={delta!r}: "
        f"{int(results.flags.sum())} anomalies, {len(results.errors)} error records"
    )
    return inputs, outputs, {"delta": delta}


# Records from which detect writes its CSV file in a forked worker while it
# writes the JSONL file. On 2 vCPUs at 110 MB RSS a fork and its reap cost
# about 10 ms and each file 2-2.7 us per record: forking broke even at 5 000
# records, and saved 4 ms at 10 000 and 49 ms at 50 000 (best of 7).
_SPLIT_ROWS = 10_000


def _write_detections(results: Detections, out: str, csv_path: Path) -> None:
    """Write the JSONL and the CSV detections, from :data:`_SPLIT_ROWS`
    records on and with two usable processes as :func:`~etlwatch.workers.run`'s
    jobs: the CSV file first, so a worker writes it while the caller writes the
    JSONL file. Otherwise the JSONL file is written first, so where both
    fail, the JSONL file's error is the one raised either way."""
    if len(results) >= _SPLIT_ROWS and fork_ways(2) > 1:
        run([partial(write_detections_csv, results, csv_path),
             partial(write_detections_jsonl, results, out)],
            f"the writer process of {csv_path}", "result")
    else:
        write_detections_jsonl(results, out)
        write_detections_csv(results, csv_path)


def _run_evaluate(params: dict) -> tuple[list[str], list[str], dict]:
    delta = params.get("delta")
    manifest_path = _manifest_path(params["detections"])
    read = [params["detections"]] + ([str(manifest_path)] if delta is None else [])
    _refuse_overwrites(read, [params["out"]])
    scores, truth = read_scores_and_truth(params["detections"])
    if not len(scores):
        raise EtlwatchError(f"{params['detections']} holds no scored record to evaluate")
    if TRUTH_CODES[None] in truth:
        raise EtlwatchError(
            "evaluation needs ground truth: the detection file must carry "
            "truth_label on every scored record"
        )
    if delta is None:
        if not manifest_path.exists():
            raise EtlwatchError(f"no --delta given and no manifest found at {manifest_path}")
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise EtlwatchError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
        delta = manifest.get("delta") if isinstance(manifest, dict) else None
        if not _numbers([delta]) or _NON_NEGATIVE(delta):  # --delta's rule, which None fails
            raise EtlwatchError(
                f"manifest {manifest_path} records no finite delta >= 0 ({delta!r}); pass --delta"
            )
    report = metrics_at_threshold(scores, truth == TRUTH_CODES[True], delta)
    write_metrics_report(report, params["out"], params["format"])
    click.echo(
        f"n={report.n} auc={report.auc:.4f} acc={report.acc:.4f} "
        f"precision={_fmt(report.precision)} recall={_fmt(report.recall)}"
    )
    return [params["detections"]], [params["out"]], {"delta": delta}


def _run_sweep(params: dict) -> tuple[list[str], list[str], dict]:
    knob = params["knob"]
    grid = [float(v) for v in params["grid"]]
    if not grid:
        raise click.UsageError("--grid must list at least one value")
    if knob == "k":
        if not all(v.is_integer() and v >= 1 for v in grid):
            raise click.UsageError(f"every k in --grid must be an integer >= 1, got {grid}")
        grid = [int(v) for v in grid]
    elif not all(math.isfinite(v) and v > 0 for v in grid):
        raise click.UsageError(f"every lr in --grid must be finite and > 0, got {grid}")
    if not all(a < b for a, b in zip(grid, grid[1:])):
        raise click.UsageError(f"--grid must be strictly ascending, got {grid}")
    stream, seed = params["stream"], params["seed"]
    out_dir = Path(params["out_dir"])
    formats = ("csv", "json")
    outputs = [str(out_dir / report_filename(knob, seed, fmt)) for fmt in formats]
    _refuse_overwrites([stream], outputs)
    events, labels, classes = read_stream(stream)
    if None in labels:
        raise EtlwatchError(
            f"{stream} has unlabeled records and no labels file at {labels_sibling_path(stream)}"
        )
    bundle = make_bundle(LabeledStream(events, labels, classes))
    result = sweep(knob, _train_config(params), grid, bundle, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fmt, out_path in zip(formats, outputs):
        emit_report(result, out_path, fmt)
    d = bundle.x_train.shape[1]
    noted = set()
    for entry in result.entries:
        k = entry.knob_value if knob == "k" else params["k"]
        if entry.overcomplete and k not in noted:
            noted.add(k)
            click.echo(
                f"note: k={k} is overcomplete (latent dimension exceeds input dimension {d})"
            )
        if entry.diverged:
            click.echo(f"note: {result.knob}={entry.knob_value:g} diverged")
    click.echo(f"sweep reports written to {outputs[0]} and {outputs[1]}")
    return [params["stream"]], outputs, {}


_RUNNERS = {
    "generate": _run_generate,
    "train": _run_train,
    "detect": _run_detect,
    "evaluate": _run_evaluate,
    "sweep": _run_sweep,
}


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


# --- flag parsing -------------------------------------------------------------

def _parse_mix(ctx: object, param: object, value: str) -> dict:
    try:
        return {
            name.strip(): float(raw)
            for name, _, raw in (part.partition("=") for part in value.split(","))
        }
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def _parse_grid(ctx: object, param: object, value: str) -> list[float]:
    try:
        return [float(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise click.BadParameter(f"must be comma-separated numbers: {exc}") from exc


def _train_options(fn):
    for option in reversed([
        click.option("--lr", type=float, default=TrainConfig.learning_rate,
                     help="SGD learning rate."),
        click.option("--k", type=int, default=TrainConfig.latent_dim, help="Latent dimension."),
        click.option("--lambda", "l1_penalty", type=float, default=TrainConfig.l1_penalty,
                     help="L1 coefficient on the latent representation."),
        click.option("--epochs", type=int, default=TrainConfig.epochs),
        click.option("--batch", type=int, default=TrainConfig.batch_size),
        click.option("--seed", type=int, default=TrainConfig.seed),
    ]):
        fn = option(fn)
    return fn


def _execute_flags() -> None:
    """Run the invoked subcommand on its flags, in declaration order: the manifest's."""
    ctx = click.get_current_context()
    _execute(ctx.command.name, {p.name: ctx.params[p.name] for p in ctx.command.params})


@click.group(context_settings={"show_default": True})
@click.version_option(version=__version__)
def main() -> None:
    """Autoencoder-based anomaly detection for ETL event streams."""


@main.command("generate")
@click.option("--n", type=int, default=StreamConfig.n_events, help="Number of events.")
@click.option("--anomaly-rate", type=float, default=StreamConfig.anomaly_rate)
@click.option("--mix", callback=_parse_mix, help="Per-class anomaly weights.",
              default=",".join(f"{c}={getattr(StreamConfig.mix, c)}" for c in ANOMALY_CLASSES))
@click.option("--seed", type=int, default=StreamConfig.seed)
@click.option("--holdout", is_flag=True,
              help="Write labels to a sibling file instead of inline fields.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_generate(**_):
    """Generate a labeled synthetic event stream."""
    _execute_flags()


@main.command("train")
@click.argument("stream", type=click.Path(exists=True, dir_okay=False))
@_train_options
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="Model file; a .history.csv is written next to it.")
def cmd_train(**_):
    """Fit standardization stats and train the autoencoder.

    When the stream carries labels, only normal-labeled records are used.
    Unlabeled streams are trained on wholesale; anomaly contamination up to
    a few percent is tolerated because normal traffic dominates the fit.
    """
    _execute_flags()


@main.command("detect")
@click.argument("stream", type=click.Path(exists=True, dir_okay=False))
@click.option("--model", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--delta", type=float, default=None, help="Explicit threshold.")
@click.option("--calibrate", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Validation stream whose normal scores calibrate the threshold.")
@click.option("--quantile", type=float, default=DELTA_QUANTILE)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_detect(**_):
    """Score a stream against the threshold; one output record per event."""
    _execute_flags()


@main.command("evaluate")
@click.argument("detections", type=click.Path(exists=True, dir_okay=False))
@click.option("--delta", type=float, default=None,
              help="Threshold used; defaults to the detect run's manifest value.")
@click.option("--format", type=click.Choice(["csv", "json"]), default="json")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_evaluate(**_):
    """Compute AUC/ACC/precision/recall from a detection file with truth labels."""
    _execute_flags()


@main.command("sweep")
@click.argument("stream", type=click.Path(exists=True, dir_okay=False))
@click.option("--knob", type=click.Choice(["lr", "k"]), required=True)
@click.option("--grid", required=True, callback=_parse_grid,
              help="Comma-separated knob values, e.g. 0.0001,0.001,0.01")
@_train_options
@click.option("--out-dir", default=".", type=click.Path(file_okay=False))
def cmd_sweep(**_):
    """Retrain across a knob grid and emit sweep_<knob>_<seed>.{csv,json}."""
    _execute_flags()


class _RecordedParams(dict):
    """Params read back from a manifest; a key a runner needs but lacks is a usage error."""

    def __missing__(self, key: str) -> None:
        raise click.UsageError(f"manifest params lack {key!r}")


@main.command("replay")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
def cmd_replay(manifest):
    """Re-run the subcommand recorded in a manifest file."""
    try:
        with open(manifest, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise click.UsageError(f"manifest {manifest} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise click.UsageError(f"manifest {manifest} does not hold a JSON object")
    subcommand = payload.get("subcommand")
    if subcommand not in _RUNNERS:
        raise click.UsageError(f"manifest names unknown subcommand {subcommand!r}")
    params = payload.get("params")
    if not isinstance(params, dict):
        raise click.UsageError("manifest has no params mapping to replay")
    try:
        _execute(subcommand, _RecordedParams(params))
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"manifest params do not fit {subcommand!r}: {exc}") from exc


if __name__ == "__main__":
    main()
