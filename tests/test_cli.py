import json
import math
import multiprocessing
import os
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from etlwatch.autoencoder import TrainConfig, load_model, save_model, train
from etlwatch import cli, evaluation, preprocess
from etlwatch.cli import main
from etlwatch.detector import DetectionResult, StreamError, batch_scores
from etlwatch.errors import EtlwatchError
from etlwatch.preprocess import (
    FeatureSchema, fit_stats, parse_event, standardize, vectorize_events,
)
import reference


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def error_line(result, exit_code):
    """The one ``Error:`` line of a run that failed cleanly with ``exit_code``."""
    assert result.exit_code == exit_code, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    return errors[0]


def record(runner, monkeypatch, args, manifest):
    """Write to ``manifest`` what the flag parser hands a run of ``args``,
    without running it: the manifest ``replay`` reads for that run."""
    recorded = {}
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_execute", lambda name, params: recorded.update(
            subcommand=name, params=params))
        run_ok(runner, args)
    manifest.write_text(json.dumps(recorded))
    return recorded


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated stream + trained model shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    stream = root / "stream.jsonl"
    model = root / "model.json"
    run_ok(runner, [
        "generate", "--n", "1500", "--anomaly-rate", "0.05", "--seed", "7",
        "--out", str(stream),
    ])
    run_ok(runner, [
        "train", str(stream), "--epochs", "5", "--k", "8", "--seed", "7",
        "--out", str(model),
    ])
    return root, stream, model


class TestGenerate:
    def test_line_count_contract(self, runner, tmp_path):
        out = tmp_path / "s.jsonl"
        run_ok(runner, ["generate", "--n", "1000", "--anomaly-rate", "0.05",
                        "--seed", "7", "--out", str(out)])
        assert len(out.read_text().splitlines()) == 1000

    def test_same_flags_twice_identical_files(self, runner, tmp_path):
        args = ["generate", "--n", "200", "--seed", "3"]
        run_ok(runner, args + ["--out", str(tmp_path / "a.jsonl")])
        run_ok(runner, args + ["--out", str(tmp_path / "b.jsonl")])
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_bad_rate_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--n", "10", "--anomaly-rate", "1.5",
                                      "--out", str(tmp_path / "x.jsonl")])
        assert result.exit_code == 2

    def test_bad_mix_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--n", "10",
                                      "--mix", "delay=1.0,missing=1.0,duplicate=0,spike=0",
                                      "--out", str(tmp_path / "x.jsonl")])
        assert result.exit_code == 2

    def test_manifest_written(self, runner, tmp_path):
        out = tmp_path / "s.jsonl"
        run_ok(runner, ["generate", "--n", "50", "--out", str(out)])
        manifest = json.loads((tmp_path / "s.jsonl.manifest.json").read_text())
        assert manifest["subcommand"] == "generate"
        assert manifest["params"]["n"] == 50
        assert manifest["tool_version"]

    def test_manifest_names_the_blas_kernel(self, runner, tmp_path):
        out = tmp_path / "s.jsonl"
        run_ok(runner, ["generate", "--n", "50", "--out", str(out)])
        manifest = json.loads((tmp_path / "s.jsonl.manifest.json").read_text())
        kernel = evaluation.blas_kernel()
        assert manifest["blas_kernel"] == kernel
        assert kernel is None or (type(kernel) is str and kernel)


class TestTrain:
    def test_outputs_exist(self, workspace):
        root, stream, model = workspace
        assert model.exists()
        assert model.with_suffix(".history.csv").exists()

    def test_history_rows_equal_epochs(self, workspace):
        root, stream, model = workspace
        lines = model.with_suffix(".history.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 1 + 5  # header + one row per epoch

    def test_zero_lr_is_usage_error(self, runner, workspace, tmp_path):
        _, stream, _ = workspace
        result = runner.invoke(main, ["train", str(stream), "--lr", "0",
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 2

    def test_missing_input_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["train", str(tmp_path / "absent.jsonl"),
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 2  # click path validation

    @pytest.mark.parametrize("holdout", [False, True])
    def test_a_stream_read_in_two_ranges_trains_the_model_of_one_read(
        self, runner, tmp_path, monkeypatch, cpus, started, holdout
    ):
        stream = tmp_path / "s.jsonl"
        run_ok(runner, ["generate", "--n", "2500", "--seed", "4", "--out", str(stream)]
               + ["--holdout"] * holdout)
        monkeypatch.setattr(preprocess, "_SPLIT_BYTES", stream.stat().st_size // 2)
        cpus(2)
        run_ok(runner, ["train", str(stream), "--epochs", "2", "--k", "8", "--seed", "4",
                        "--out", str(tmp_path / "m.json")])
        assert len(started) == 1  # a worker read the second range
        # the model of the whole file read at once
        schema = FeatureSchema()
        x = reference.read_normal_rows(stream, schema)
        stats = fit_stats(x)
        params, _ = train(reference.standardize(x, stats),
                          TrainConfig(epochs=2, latent_dim=8, seed=4))
        save_model(tmp_path / "expected.json", params, stats, schema)
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
        assert not multiprocessing.active_children()

    def test_full_defaults_on_5000_events_under_60s(self, runner, tmp_path):
        import time

        stream = tmp_path / "s.jsonl"
        run_ok(runner, ["generate", "--n", "5000", "--seed", "7", "--out", str(stream)])
        started = time.perf_counter()
        run_ok(runner, ["train", str(stream), "--out", str(tmp_path / "m.json")])
        assert time.perf_counter() - started < 60.0


class TestDetect:
    def test_delta_zero_flags_everything(self, runner, workspace, tmp_path):
        _, stream, model = workspace
        out = tmp_path / "det.jsonl"
        run_ok(runner, ["detect", str(stream), "--model", str(model),
                        "--delta", "0", "--out", str(out)])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["is_anomaly"] for r in records if "score" in r)

    def test_line_count_conservation_and_input_untouched(self, runner, workspace, tmp_path):
        _, stream, model = workspace
        before = stream.read_bytes()
        out = tmp_path / "det.jsonl"
        run_ok(runner, ["detect", str(stream), "--model", str(model),
                        "--delta", "1", "--out", str(out)])
        assert len(out.read_text().splitlines()) == len(stream.read_text().splitlines())
        assert stream.read_bytes() == before

    def test_csv_mirror_written(self, runner, workspace, tmp_path):
        _, stream, model = workspace
        out = tmp_path / "det.jsonl"
        run_ok(runner, ["detect", str(stream), "--model", str(model),
                        "--delta", "1", "--out", str(out)])
        assert out.with_suffix(".csv").exists()

    def test_out_that_is_the_csv_file_is_usage_error(self, runner, workspace, tmp_path):
        # the CSV detections once overwrote the JSONL ones written to det.csv
        _, stream, model = workspace
        out = tmp_path / "det.csv"
        result = runner.invoke(main, ["detect", str(stream), "--model", str(model),
                                      "--delta", "1", "--out", str(out)])
        assert f"--out {out} is where the CSV detections go" in error_line(result, 2)
        assert list(tmp_path.iterdir()) == []

    def test_calibrated_run_flags_at_most_quantile_share(self, runner, workspace, tmp_path):
        # score the calibration normals themselves: at most 5% may exceed delta
        _, stream, model = workspace
        out = tmp_path / "det.jsonl"
        run_ok(runner, ["detect", str(stream), "--model", str(model),
                        "--calibrate", str(stream), "--quantile", "0.95",
                        "--out", str(out)])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        stream_rows = [json.loads(line) for line in stream.read_text().splitlines()]
        normal_ids = {r["event_id"] for r in stream_rows if not r["label"]}
        flagged_normals = sum(
            1 for r in records if r["event_id"] in normal_ids and r.get("is_anomaly")
        )
        assert flagged_normals <= 0.05 * len(normal_ids)

    def test_both_threshold_sources_is_usage_error(self, runner, workspace, tmp_path):
        _, stream, model = workspace
        result = runner.invoke(main, ["detect", str(stream), "--model", str(model),
                                      "--delta", "1", "--calibrate", str(stream),
                                      "--out", str(tmp_path / "d.jsonl")])
        assert result.exit_code == 2

    def test_neither_threshold_source_is_usage_error(self, runner, workspace, tmp_path):
        _, stream, model = workspace
        result = runner.invoke(main, ["detect", str(stream), "--model", str(model),
                                      "--out", str(tmp_path / "d.jsonl")])
        assert result.exit_code == 2

    def test_scores_equal_library_batch_scores_bit_for_bit(self, runner, workspace, tmp_path):
        _, stream, model = workspace
        out = tmp_path / "det.jsonl"
        run_ok(runner, ["detect", str(stream), "--model", str(model),
                        "--delta", "1", "--out", str(out)])
        params, stats, schema = load_model(model)
        events = [parse_event(json.loads(line)) for line in stream.read_text().splitlines()]
        expected = batch_scores(params, standardize(vectorize_events(events, schema), stats))
        scores = [json.loads(line)["score"] for line in out.read_text().splitlines()]
        assert scores == expected.tolist()

        # a delta equal to an event's score classifies that event as normal
        at = scores[len(scores) // 2]
        run_ok(runner, ["detect", str(stream), "--model", str(model),
                        "--delta", repr(at), "--out", str(out)])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[len(scores) // 2]["is_anomaly"] is False
        assert [r["is_anomaly"] for r in records] == [s > at for s in scores]

    @pytest.mark.parametrize("command", ["detect", "train", "sweep"])
    @pytest.mark.parametrize(
        "bad_line, reason",
        [(b"{not json", "Expecting property name"), (None, "'abc'"), (b"\xff\xfe", "utf-8")],
    )
    def test_bad_input_line_is_one_line_error(
        self, runner, workspace, tmp_path, command, bad_line, reason
    ):
        # None stands for a valid record whose amount is the string "abc"
        _, stream, model = workspace
        lines = stream.read_bytes().splitlines()[:30]
        record = json.loads(lines[2])
        record["amount"] = "abc"
        lines[2] = bad_line or json.dumps(record).encode()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        args = ["--out", str(tmp_path / "out.json")]
        if command == "detect":
            args += ["--model", str(model), "--delta", "1"]
        if command == "sweep":
            args = ["--knob", "k", "--grid", "4", "--epochs", "1", "--out-dir", str(tmp_path)]
        result = runner.invoke(main, [command, str(bad), *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        message = result.output.strip()
        assert message.startswith("Error:") and "\n" not in message
        assert "line 3" in message and reason in message


    @pytest.mark.parametrize("edit, field", reference.MODEL_EDITS.values(),
                             ids=reference.MODEL_EDITS)
    def test_a_model_of_another_layout_or_floor_is_one_line_error(
        self, runner, workspace, tmp_path, edit, field
    ):
        # and one with a field that is missing or will not read (CORRUPT_MODELS)
        _, stream, model = workspace
        edited = tmp_path / "edited.json"
        reference.edit_model(model, edited, edit)
        out = tmp_path / "det.jsonl"
        result = runner.invoke(main, ["detect", str(stream), "--model", str(edited),
                                      "--delta", "1", "--out", str(out)])
        message = error_line(result, 1)
        assert result.output.strip() == message
        assert message.startswith(f"Error: model file {edited}: field '{field}' must be")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.json"]


FORK = "fork" in multiprocessing.get_all_start_methods() and hasattr(os, "sched_getaffinity")


@pytest.mark.skipif(not FORK, reason="the forked writer needs fork and sched_getaffinity")
class TestDetectionWriters:
    """detect writes its CSV file in a forked worker from ``_SPLIT_ROWS``
    records on; a failure on either side ends the run with an error and
    leaves no process behind."""

    RECORDS = reference.detections(
        [DetectionResult("a", 0.5, False, True), StreamError("b", "unknown device")]
    )

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(cli, "_SPLIT_ROWS", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        yield
        assert not multiprocessing.active_children()

    def test_csv_file_is_written_in_a_worker_from_split_rows_on_two_cpus(
        self, monkeypatch, tmp_path
    ):
        def pid(results, path):
            Path(path).write_text(str(os.getpid()))

        monkeypatch.setattr(cli, "write_detections_jsonl", pid)
        monkeypatch.setattr(cli, "write_detections_csv", pid)
        caller = str(os.getpid())
        for records, cpus, csv_in_caller in (
            (self.RECORDS, 2, False),
            (reference.detections(self.RECORDS[:1]), 2, True),
            (self.RECORDS, 1, True),
        ):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            cli._write_detections(records, tmp_path / "d.jsonl", tmp_path / "d.csv")
            assert tmp_path.joinpath("d.jsonl").read_text() == caller
            assert (tmp_path.joinpath("d.csv").read_text() == caller) == csv_in_caller

    def test_csv_worker_that_dies_is_an_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "write_detections_csv", lambda results, path: os._exit(3))
        with pytest.raises(EtlwatchError, match="d.csv ended with exit code 3"):
            cli._write_detections(self.RECORDS, tmp_path / "d.jsonl", tmp_path / "d.csv")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_csv_path_that_is_a_directory(self, monkeypatch, runner, workspace, tmp_path, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        tmp_path.joinpath("d.csv").mkdir()
        with pytest.raises(IsADirectoryError, match="d.csv"):
            cli._write_detections(self.RECORDS, tmp_path / "d.jsonl", tmp_path / "d.csv")
        _, stream, model = workspace
        result = runner.invoke(main, ["detect", str(stream), "--model", str(model),
                                      "--delta", "1", "--out", str(tmp_path / "d.jsonl")])
        assert "Is a directory" in error_line(result, 1)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_when_both_files_fail_the_jsonl_error_is_raised(self, monkeypatch, tmp_path, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        missing = tmp_path / "missing"
        with pytest.raises(FileNotFoundError, match=r"missing/d\.jsonl"):
            cli._write_detections(self.RECORDS, missing / "d.jsonl", missing / "d.csv")

    def test_caller_failure_stops_the_worker(self, monkeypatch, tmp_path):
        def fails(results, path):
            raise EtlwatchError("failed in the caller")

        monkeypatch.setattr(cli, "write_detections_jsonl", fails)
        monkeypatch.setattr(cli, "write_detections_csv", lambda results, path: time.sleep(60))
        started = time.monotonic()
        with pytest.raises(EtlwatchError, match="failed in the caller"):
            cli._write_detections(self.RECORDS, tmp_path / "d.jsonl", tmp_path / "d.csv")
        assert time.monotonic() - started < 30


def stream_with_line(workspace, path, mask, **raw):
    """Write the first 100 lines of the shared stream to ``path``, line 3 edited.

    Line 3 gets ``mask`` as its missing_mask and each field of ``raw`` as
    that raw JSON text, so a value ``json.dumps`` cannot write (``1e999``)
    reaches the file as written.
    """
    _, stream, _ = workspace
    lines = stream.read_text().splitlines()[:100]
    record = json.loads(lines[2])
    record["missing_mask"] = mask
    record.update({field: f"<{field}>" for field in raw})
    text = json.dumps(record)
    for field, value in raw.items():
        text = text.replace(f'"<{field}>"', value)
    lines[2] = text
    path.write_text("\n".join(lines) + "\n")
    return path


def command_args(command, workspace, out):
    _, _, model = workspace
    if command == "detect":
        return ["--model", str(model), "--delta", "1", "--out", str(out)]
    return ["--epochs", "1", "--k", "4", "--out", str(out)]


class TestStreamFields:
    @pytest.mark.parametrize("command", ["detect", "train"])
    @pytest.mark.parametrize("masked", ["null", '"n/a"', "1e999"])
    def test_masked_value_is_never_read(self, runner, workspace, tmp_path, command, masked):
        outputs = []
        for name, value in (("zero", "0.0"), ("odd", masked)):
            stream = stream_with_line(
                workspace, tmp_path / f"{name}.jsonl", [True, False, False], amount=value
            )
            out = tmp_path / f"{name}.out.json"
            run_ok(runner, [command, str(stream), *command_args(command, workspace, out)])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["detect", "train"])
    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("amount", "null", "field 'amount' must be a number, got None"),
            ("latency_ms", '"abc"', "field 'latency_ms' must be a number, got 'abc'"),
            ("task_duration_s", "[]", "field 'task_duration_s' must be a number, got []"),
            ("timestamp", "null", "field 'timestamp' must be an integer, got None"),
            ("records_loaded", "1e999", "'records_loaded' must be an integer, got inf"),
            ("timestamp", "Infinity", "'timestamp' must be an integer, got inf"),
            ("records_loaded", "NaN", "'records_loaded' must be an integer, got nan"),
            ("records_loaded", "7.9", "'records_loaded' must be an integer, got 7.9"),
            pytest.param(
                "records_loaded", "1" + "0" * 400, "int too large to convert to float",
                id="records_loaded-400-digits",
            ),
            ("missing_mask", '"abc"', "field 'missing_mask' must be an array, got 'abc'"),
            (
                "missing_mask", '{"x": 1, "y": 0, "z": 0}',
                "field 'missing_mask' must be an array, got {'x': 1, 'y': 0, 'z': 0}",
            ),
            ("missing_mask", "null", "field 'missing_mask' must be an array, got None"),
            ("timestamp", "true", "field 'timestamp' must be an integer, got True"),
            ("records_loaded", "false", "field 'records_loaded' must be an integer, got False"),
            ("amount", "true", "field 'amount' must be a number, got True"),
            ("task_duration_s", "false", "field 'task_duration_s' must be a number, got False"),
            ("amount", '"5_0.0"', "field 'amount' must be a number, got '5_0.0'"),
            ("records_loaded", '" 8 "', "field 'records_loaded' must be an integer, got ' 8 '"),
            (
                "missing_mask", '["false", false, false]',
                "field 'missing_mask' must be an array of booleans, got ['false', False, False]",
            ),
            ("label", '"false"', "field 'label' must be a boolean, got 'false'"),
        ],
    )
    def test_unusable_field_is_one_line_error(
        self, runner, workspace, tmp_path, command, field, value, reason
    ):
        stream = stream_with_line(
            workspace, tmp_path / "bad.jsonl", [False, False, False], **{field: value}
        )
        out = tmp_path / "out.json"
        result = runner.invoke(main, [command, str(stream), *command_args(command, workspace, out)])
        message = error_line(result, 1)
        assert "line 3" in message and reason in message


    def test_a_timestamp_of_21_digits_scores_as_json_reads_it(self, runner, workspace, tmp_path):
        # orjson reads an integer this large as a float, whose hour of day differs
        timestamp = 123_456_789_012_345_678_901
        assert reference.hour_angle(timestamp) != reference.hour_angle(int(float(timestamp)))
        stream = stream_with_line(
            workspace, tmp_path / "wide.jsonl", [False, False, False], timestamp=str(timestamp)
        )
        out = tmp_path / "det.jsonl"
        run_ok(runner, ["detect", str(stream), *command_args("detect", workspace, out)])
        params, stats, schema = load_model(workspace[2])
        events = [parse_event(json.loads(line)) for line in stream.read_text().splitlines()]
        assert events[2].timestamp == timestamp
        expected = batch_scores(params, standardize(vectorize_events(events, schema), stats))
        assert [json.loads(line)["score"] for line in out.read_text().splitlines()] == (
            expected.tolist()
        )


def nested_line_args(workspace, tmp_path, command, **raw):
    """The arguments of ``command`` on a file whose line 3 holds each field of
    ``raw`` as that raw JSON text: a stream for detect and train, detections
    for evaluate."""
    if command != "evaluate":
        path = stream_with_line(workspace, tmp_path / "deep.jsonl", [False, False, False], **raw)
        return path, [command, str(path), *command_args(command, workspace, tmp_path / "out")]
    rows = [
        {"event_id": str(i), "score": float(i), "is_anomaly": i > 1, "truth_label": i > 1}
        for i in range(4)
    ]
    rows[2].update({field: f"<{field}>" for field in raw})
    text = "\n".join(map(json.dumps, rows))
    for field, value in raw.items():
        text = text.replace(f'"<{field}>"', value)
    path = tmp_path / "det.jsonl"
    path.write_text(text + "\n")
    return path, ["evaluate", str(path), "--delta", "1", "--out", str(tmp_path / "r.json")]


JSON_TOO_DEEP = (
    "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
)


@pytest.mark.parametrize("nan", [False, True], ids=["plain", "with-NaN"])
@pytest.mark.parametrize(
    "command, field",
    [("detect", "junk"), ("detect", "missing_mask"), ("train", "junk"),
     ("train", "missing_mask"), ("evaluate", "junk"), ("evaluate", "score")],
)
def test_a_line_nested_too_deeply_is_one_line_error(
    runner, workspace, tmp_path, command, field, nan
):
    # 3000 deep is too deep for json; the line is too long for orjson, which
    # would also reject a NaN on it
    raw = {field: "[" * 3000 + "]" * 3000} | ({"nan": "NaN"} if nan else {})
    path, args = nested_line_args(workspace, tmp_path, command, **raw)
    result = runner.invoke(main, args)
    message = error_line(result, 1)
    assert result.output.strip() == message
    assert message == f"Error: {path} line 3: {JSON_TOO_DEEP}"


@pytest.mark.parametrize("depth", [80, 300], ids=["orjson", "json"])
@pytest.mark.parametrize(
    "command, field, reason",
    [("detect", "missing_mask", "field 'missing_mask' must be an array of booleans, got [[["),
     ("evaluate", "score", "field 'score' must be a number, got [[[")],
)
def test_a_deeply_nested_value_is_shown_in_its_error(
    runner, workspace, tmp_path, command, field, reason, depth
):
    path, args = nested_line_args(workspace, tmp_path, command, **{field: "[" * depth + "]" * depth})
    # orjson decodes a block of lines only if each is shorter than _DEEP bytes
    assert (len(path.read_bytes().split(b"\n")[2]) < preprocess._DEEP) == (depth == 80)
    message = error_line(runner.invoke(main, args), 1)
    assert message.startswith(f"Error: {path} line 3: {reason}")


class TestEvaluate:
    @pytest.fixture
    def detections(self, runner, workspace, tmp_path):
        _, stream, model = workspace
        out = tmp_path / "det.jsonl"
        run_ok(runner, ["detect", str(stream), "--model", str(model),
                        "--calibrate", str(stream), "--out", str(out)])
        return out

    def test_report_written_with_manifest_delta(self, runner, detections, tmp_path):
        report = tmp_path / "report.json"
        run_ok(runner, ["evaluate", str(detections), "--out", str(report)])
        payload = json.loads(report.read_text())
        assert set(payload) >= {"auc", "acc", "precision", "recall", "confusion", "delta_used"}
        assert payload["n"] > 0

    def test_perfect_predictor_gives_acc_one(self, runner, tmp_path):
        detections = tmp_path / "det.jsonl"
        rows = [
            {"event_id": "a", "score": 9.0, "is_anomaly": True, "truth_label": True},
            {"event_id": "b", "score": 0.5, "is_anomaly": False, "truth_label": False},
            {"event_id": "c", "score": 0.25, "is_anomaly": False, "truth_label": False},
        ]
        detections.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report = tmp_path / "report.json"
        run_ok(runner, ["evaluate", str(detections), "--delta", "1.0",
                        "--out", str(report)])
        assert json.loads(report.read_text())["acc"] == 1.0

    def test_missing_labels_is_runtime_error(self, runner, tmp_path):
        detections = tmp_path / "det.jsonl"
        detections.write_text(json.dumps(
            {"event_id": "a", "score": 1.0, "is_anomaly": True}) + "\n")
        result = runner.invoke(main, ["evaluate", str(detections), "--delta", "1",
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 1
        assert "ground truth" in result.output

    def test_manifest_without_delta_is_one_line_error(self, runner, detections, tmp_path):
        manifest = detections.parent / (detections.name + ".manifest.json")
        payload = json.loads(manifest.read_text())
        del payload["delta"]
        manifest.write_text(json.dumps(payload))
        result = runner.invoke(main, ["evaluate", str(detections),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error:") and "--delta" in result.output

    @pytest.mark.parametrize(
        "bad_line",
        [b"{broken", b"[1, 2]", b'{"event_id": "x", "is_anomaly": true}', b"\xff\xfe"],
    )
    def test_malformed_detection_line_is_one_line_error(
        self, runner, detections, tmp_path, bad_line
    ):
        lines = detections.read_bytes().splitlines(keepends=True)
        lines.insert(4, bad_line + b"\n")
        detections.write_bytes(b"".join(lines))
        result = runner.invoke(main, ["evaluate", str(detections), "--delta", "1",
                                      "--out", str(tmp_path / "r.json")])
        message = error_line(result, 1)
        assert result.output.strip() == message
        assert detections.name in message and "line 5" in message

    @pytest.mark.parametrize(
        "field, value",
        [("truth_label", "false"), ("truth_label", 0), ("is_anomaly", "no"),
         ("is_anomaly", 1), ("score", "2.5"), ("score", True)],
    )
    def test_detection_field_of_another_type_is_one_line_error(
        self, runner, tmp_path, field, value
    ):
        # "truth_label": "false" once read as a positive: a missed anomaly, fn 1
        rows = [
            {"event_id": "a", "score": 0.5, "is_anomaly": False, "truth_label": False},
            {"event_id": "b", "score": 9.0, "is_anomaly": True, "truth_label": True},
            {"event_id": "c", "score": 0.25, "is_anomaly": False, "truth_label": False},
        ]
        rows[0][field] = value
        detections = tmp_path / "det.jsonl"
        detections.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        report = tmp_path / "r.json"
        result = runner.invoke(main, ["evaluate", str(detections), "--delta", "1",
                                      "--out", str(report)])
        message = error_line(result, 1)
        assert result.output.strip() == message
        assert f"{detections} line 1: field '{field}' must be" in message
        assert not report.exists()

    def test_nan_score_is_one_line_error_and_infinity_a_score(self, runner, tmp_path):
        # a NaN score once ranked above every number for the AUC (auc 1.0)
        # while the confusion counts had it below delta (fn 1)
        rows = [
            '{"event_id": "a", "score": NaN, "is_anomaly": false, "truth_label": true}',
            '{"event_id": "b", "score": 9.0, "is_anomaly": true, "truth_label": true}',
            '{"event_id": "c", "score": 0.25, "is_anomaly": false, "truth_label": false}',
            '{"event_id": "d", "score": 0.3, "is_anomaly": false, "truth_label": false}',
        ]
        detections, report = tmp_path / "det.jsonl", tmp_path / "r.json"
        detections.write_text("\n".join(rows) + "\n")
        args = ["evaluate", str(detections), "--delta", "1", "--out", str(report)]
        result = runner.invoke(main, args)
        assert result.output.strip() == error_line(result, 1)
        assert error_line(result, 1) == (
            f"Error: {detections} line 1: field 'score' must not be NaN"
        )
        assert not report.exists()
        detections.write_text("\n".join(rows).replace("NaN", "Infinity") + "\n")
        run_ok(runner, args)
        payload = json.loads(report.read_text())
        confusion = payload["confusion"]
        assert (payload["auc"], confusion["tp"], confusion["fn"]) == (1.0, 2, 0)

    @pytest.mark.parametrize(
        "manifest_text",
        ["not json", "[1, 2]", pytest.param("[" * 100_000 + "]" * 100_000, id="deep")],
    )
    def test_unreadable_manifest_is_one_line_error(
        self, runner, detections, tmp_path, manifest_text
    ):
        manifest = detections.parent / (detections.name + ".manifest.json")
        manifest.write_text(manifest_text)
        result = runner.invoke(main, ["evaluate", str(detections),
                                      "--out", str(tmp_path / "r.json")])
        message = error_line(result, 1)
        assert result.output.strip() == message and manifest.name in message

    @pytest.mark.parametrize("delta", ["abc", [1], math.nan, -5, True], ids=repr)
    def test_a_manifest_delta_that_delta_refuses_is_one_line_error(
        self, runner, detections, tmp_path, delta
    ):
        # evaluate once crashed on the first two and scored at the last three
        manifest = detections.parent / (detections.name + ".manifest.json")
        payload = json.loads(manifest.read_text())
        payload["delta"] = delta
        manifest.write_text(json.dumps(payload))
        report = tmp_path / "r.json"
        result = runner.invoke(main, ["evaluate", str(detections), "--out", str(report)])
        message = error_line(result, 1)
        assert result.output.strip() == message
        assert f"manifest {manifest} records no finite delta >= 0" in message
        assert not report.exists()

    def test_holdout_labels_give_the_inline_result(self, runner, tmp_path):
        # train skips the held-out anomalies, detect calibrates on normals
        # only and carries truth labels, so evaluate reads the same report,
        # and sweep bundles the same labeled events
        outputs = {}
        for layout in ("inline", "holdout"):
            d = tmp_path / layout
            d.mkdir()
            stream, model = d / "stream.jsonl", d / "model.json"
            run_ok(runner, ["generate", "--n", "400", "--seed", "7", "--out", str(stream)]
                   + (["--holdout"] if layout == "holdout" else []))
            trained = run_ok(runner, ["train", str(stream), "--epochs", "2", "--k", "4",
                                      "--out", str(model)])
            run_ok(runner, ["detect", str(stream), "--model", str(model),
                            "--calibrate", str(stream), "--out", str(d / "det.jsonl")])
            run_ok(runner, ["evaluate", str(d / "det.jsonl"), "--out", str(d / "r.json")])
            run_ok(runner, ["sweep", str(stream), "--knob", "k", "--grid", "4,8",
                            "--epochs", "1", "--out-dir", str(d / "sweep")])
            reports = [(d / "sweep" / f"sweep_k_7.{fmt}").read_bytes() for fmt in ("csv", "json")]
            outputs[layout] = (trained.output, (d / "r.json").read_bytes(), reports)
        assert (tmp_path / "holdout" / "stream.labels.jsonl").exists()
        assert outputs["holdout"] == outputs["inline"]

    def test_csv_format(self, runner, detections, tmp_path):
        report = tmp_path / "report.csv"
        run_ok(runner, ["evaluate", str(detections), "--format", "csv",
                        "--out", str(report)])
        header = report.read_text().splitlines()[0]
        assert header.startswith("auc,acc,precision,recall")


class TestSweep:
    def test_unlabeled_stream_without_labels_file_is_one_line_error(self, runner, tmp_path):
        stream = tmp_path / "stream.jsonl"
        run_ok(runner, ["generate", "--n", "400", "--seed", "7", "--holdout",
                        "--out", str(stream)])
        labels = tmp_path / "stream.labels.jsonl"
        labels.unlink()
        result = runner.invoke(main, ["sweep", str(stream), "--knob", "k", "--grid", "4",
                                      "--epochs", "1", "--out-dir", str(tmp_path / "out")])
        assert error_line(result, 1) == (
            f"Error: {stream} has unlabeled records and no labels file at {labels}"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("label, anomaly_class, message", [
        (True, "gremlins", "unknown anomaly class 'gremlins'"),
        (False, "delay", "anomaly_class must be present exactly when label is true"),
    ])
    def test_a_label_and_class_that_disagree_are_one_line_error(
        self, runner, workspace, tmp_path, label, anomaly_class, message
    ):
        _, stream, _ = workspace
        lines = stream.read_text().splitlines()
        record = json.loads(lines[2])
        record.update(label=label, anomaly_class=anomaly_class)
        lines[2] = json.dumps(record)
        edited = tmp_path / "stream.jsonl"
        edited.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["sweep", str(edited), "--knob", "k", "--grid", "4",
                                      "--epochs", "1", "--out-dir", str(tmp_path / "out")])
        assert error_line(result, 1) == f"Error: {message}"
        assert not (tmp_path / "out").exists()

    def test_lr_sweep_row_count(self, runner, workspace, tmp_path):
        _, stream, _ = workspace
        run_ok(runner, ["sweep", str(stream), "--knob", "lr",
                        "--grid", "0.0001,0.001,0.01", "--epochs", "2", "--k", "4",
                        "--seed", "7", "--out-dir", str(tmp_path)])
        csv_path = tmp_path / "sweep_lr_7.csv"
        assert len(csv_path.read_text().splitlines()) == 4  # header + 3 rows
        assert (tmp_path / "sweep_lr_7.json").exists()

    def test_k_sweep_flags_overcomplete(self, runner, workspace, tmp_path):
        _, stream, _ = workspace
        result = run_ok(runner, ["sweep", str(stream), "--knob", "k",
                                 "--grid", "4,32,128", "--epochs", "2",
                                 "--seed", "7", "--out-dir", str(tmp_path)])
        notes = [line for line in result.output.splitlines() if "overcomplete" in line]
        assert notes == [
            f"note: k={k} is overcomplete (latent dimension exceeds input dimension 16)"
            for k in (32, 128)
        ]
        payload = json.loads((tmp_path / "sweep_k_7.json").read_text())
        flags = {e["knob_value"]: e["overcomplete"] for e in payload["entries"]}
        assert flags == {4.0: False, 32.0: True, 128.0: True}
        # every point of an lr sweep shares one k, so its note is printed once
        result = run_ok(runner, ["sweep", str(stream), "--knob", "lr",
                                 "--grid", "0.0005,0.001", "--epochs", "2", "--k", "32",
                                 "--seed", "7", "--out-dir", str(tmp_path)])
        notes = [line for line in result.output.splitlines() if "overcomplete" in line]
        assert notes == [
            "note: k=32 is overcomplete (latent dimension exceeds input dimension 16)"
        ]

    def test_bad_grid_is_usage_error(self, runner, workspace, tmp_path):
        _, stream, _ = workspace
        result = runner.invoke(main, ["sweep", str(stream), "--knob", "lr",
                                      "--grid", "abc", "--out-dir", str(tmp_path)])
        assert result.exit_code == 2


BAD_VALUES = [
    (["sweep", "--knob", "k", "--grid", "4.5,8.9"], "integer >= 1"),
    (["sweep", "--knob", "k", "--grid", "0,4"], "integer >= 1"),
    (["sweep", "--knob", "lr", "--grid", "nan"], "finite and > 0"),
    (["sweep", "--knob", "lr", "--grid", "0.001,inf"], "finite and > 0"),
    (["sweep", "--knob", "lr", "--grid", "0.001", "--lambda", "nan"], "finite and >= 0"),
    (["train", "--lr", "inf"], "finite and > 0"),
    (["detect", "--delta", "nan"], "finite and >= 0"),
    (["sweep", "--knob", "k", "--grid", "4,4"], "strictly ascending"),
    (["sweep", "--knob", "k", "--grid", "8,4"], "strictly ascending"),
]


@pytest.mark.parametrize("args, reason", BAD_VALUES)
def test_bad_value_is_usage_error(runner, workspace, tmp_path, args, reason):
    _, stream, model = workspace
    command, *flags = args
    out = {
        "sweep": ["--epochs", "1", "--out-dir", str(tmp_path / "out")],
        "train": ["--out", str(tmp_path / "out")],
        "detect": ["--model", str(model), "--out", str(tmp_path / "out")],
    }[command]
    result = runner.invoke(main, [command, str(stream), *flags, *out])
    assert reason in error_line(result, 2)
    assert not (tmp_path / "out").exists()


STREAM = "<stream>"  # stands for the shared stream's path


@pytest.mark.parametrize(
    "args, reason, edit",
    [(*case, None) for case in BAD_VALUES + [
        (["generate", "--anomaly-rate", "1.5"], "must lie in [0, 1)"),
        (["generate", "--mix", "delay=1.0,missing=1.0,duplicate=0,spike=0"], "sum to 1"),
        (["generate", "--mix", "delay=0.5,missing=0.25,duplicate=0.25"], "missing classes"),
        (["generate", "--n", "0"], "finite and > 0"),
        (["train", "--lr", "0"], "finite and > 0"),
        (["detect", "--calibrate", STREAM, "--quantile", "1.5"], "strictly inside (0, 1)"),
        (["detect", "--delta", "1", "--calibrate", STREAM], "exactly one of --delta or --calibrate"),
        (["detect"], "exactly one of --delta or --calibrate"),
        (["sweep", "--knob", "k", "--grid", ","], "at least one value"),
    ]] + [
        # a recorded value of a type its flag never gives
        (["generate"], "Invalid value for '--holdout': 'no' is not a valid boolean.",
         {"holdout": "no"}),
        (["generate"], "Invalid value for '--n': True is not a valid integer.", {"n": True}),
        # null, which only a flag whose default is None takes: "seed": null once
        # failed inside generate, "epochs": null once read the stream first
        (["generate"], "Invalid value for '--seed': None is not a valid integer.",
         {"seed": None}),
        (["train"], "Invalid value for '--epochs': None is not a valid integer.",
         {"epochs": None}),
        (["train"], "Invalid value for '--lr': '0.1' is not a valid float.", {"lr": "0.1"}),
        (["detect", "--delta", "1"], "Invalid value for '--delta': False is not a valid float.",
         {"delta": False}),
        # and elements of a type the flag's parser never gives
        (["sweep", "--knob", "k", "--grid", "4,8"],
         "Invalid value for '--grid': must be a list of numbers", {"grid": [True, 2]}),
        (["sweep", "--knob", "k", "--grid", "4,8"],
         "Invalid value for '--grid': must be a list of numbers", {"grid": ["4", "8"]}),
        (["generate"], "Invalid value for '--mix': mix weights must be numbers",
         {"mix": {"delay": True, "missing": 0, "duplicate": 0, "spike": 0}}),
    ],
)
def test_replay_refuses_what_the_flags_refuse(
    runner, workspace, tmp_path, monkeypatch, args, reason, edit
):
    _, stream, model = workspace
    command, *flags = [str(stream) if arg == STREAM else arg for arg in args]
    out = str(tmp_path / "out")
    args = {
        "generate": [command, *flags, "--out", out],
        "sweep": [command, str(stream), *flags, "--epochs", "1", "--out-dir", out],
        "train": [command, str(stream), *flags, "--out", out],
        "detect": [command, str(stream), "--model", str(model), *flags, "--out", out],
    }[command]
    manifest = tmp_path / "recorded.json"
    if edit is None:
        message = error_line(runner.invoke(main, args), 2)
        assert reason in message
        record(runner, monkeypatch, args, manifest)
    else:  # the flags give no such value; a manifest edited by hand may
        recorded = record(runner, monkeypatch, args, manifest)
        recorded["params"].update(edit)
        manifest.write_text(json.dumps(recorded))
        message = f"Error: {reason}"
    result = runner.invoke(main, ["replay", str(manifest)])
    assert error_line(result, 2) == message
    assert [path.name for path in tmp_path.iterdir()] == [manifest.name]


@pytest.mark.parametrize(
    "subcommand, params, message",
    [
        ("detect", {"delta": None, "calibrate": None, "quantile": 0.95},
         "Error: give exactly one of --delta or --calibrate"),
        ("generate", {"n": 50, "anomaly_rate": 0.05, "seed": 7, "holdout": False,
                      "mix": {"delay": 0.5, "missing": 0.25, "duplicate": 0.25}},
         "Error: Invalid value for '--mix': mix is missing classes: ['spike']"),
    ],
)
def test_a_written_manifest_is_checked_as_its_flags_are(
    runner, workspace, tmp_path, subcommand, params, message
):
    # replay once ran these: detect failed on a None path, generate took
    # 0.25 for the missing class
    _, stream, model = workspace
    out = tmp_path / "out.jsonl"
    paths = {"stream": str(stream), "model": str(model)} if subcommand == "detect" else {}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        {"subcommand": subcommand, "params": {**paths, **params, "out": str(out)}}))
    result = runner.invoke(main, ["replay", str(manifest)])
    assert error_line(result, 2) == message
    assert [path.name for path in tmp_path.iterdir()] == [manifest.name]


@pytest.mark.parametrize(
    "args, edit, message",
    [
        (["generate"], {"out": 1}, "Invalid value for '--out': 1 is not a valid file."),
        (["detect", "--delta", "1"], {"stream": 0},
         "Invalid value for 'STREAM': 0 is not a valid file."),
        (["detect", "--delta", "1"], {"model": ["m.json"]},
         "Invalid value for '--model': ['m.json'] is not a valid file."),
        (["detect", "--calibrate", STREAM], {"calibrate": True},
         "Invalid value for '--calibrate': True is not a valid file."),
        (["evaluate", "--delta", "1"], {"detections": 1.5},
         "Invalid value for 'DETECTIONS': 1.5 is not a valid file."),
        (["evaluate", "--delta", "1"], {"format": "xml"},
         "Invalid value for '--format': 'xml' is not one of 'csv', 'json'."),
        (["evaluate", "--delta", "1"], {"format": 1},
         "Invalid value for '--format': 1 is not a valid choice."),
        (["detect", "--delta", "1"], {"out": None},
         "Invalid value for '--out': None is not a valid file."),
        (["evaluate", "--delta", "1"], {"format": None},
         "Invalid value for '--format': None is not a valid choice."),
        (["sweep", "--knob", "k", "--grid", "4"], {"knob": "K"},
         "Invalid value for '--knob': 'K' is not one of 'lr', 'k'."),
        (["sweep", "--knob", "k", "--grid", "4"], {"out_dir": 7},
         "Invalid value for '--out-dir': 7 is not a valid directory."),
    ],
)
def test_replay_refuses_a_path_or_choice_its_flag_never_gives(
    runner, workspace, tmp_path, monkeypatch, args, edit, message
):
    # a generate manifest with "out": 1 once wrote the stream to stdout
    _, stream, model = workspace
    command, *flags = [str(stream) if arg == STREAM else arg for arg in args]
    given = {
        "generate": [command, *flags, "--out", "s.jsonl"],
        "detect": [command, str(stream), "--model", str(model), *flags, "--out", "d.jsonl"],
        "evaluate": [command, str(stream), *flags, "--out", "r.json"],
        "sweep": [command, str(stream), *flags, "--out-dir", str(tmp_path / "out")],
    }[command]
    manifest = tmp_path / "recorded.json"
    recorded = record(runner, monkeypatch, given, manifest)
    recorded["params"].update(edit)
    manifest.write_text(json.dumps(recorded))
    result = runner.invoke(main, ["replay", str(manifest)])
    assert error_line(result, 2) == f"Error: {message}"
    assert "Usage:" in result.output and "{" not in result.output
    assert [path.name for path in tmp_path.iterdir()] == [manifest.name]


def test_default_flags_give_the_library_defaults(runner, workspace, tmp_path, monkeypatch):
    _, stream, _ = workspace
    manifest = tmp_path / "m.json"
    generate = record(runner, monkeypatch, ["generate", "--out", "s.jsonl"], manifest)
    assert generate["params"] == {
        "n": 10_000, "anomaly_rate": 0.05,
        "mix": {"delay": 0.25, "missing": 0.25, "duplicate": 0.25, "spike": 0.25},
        "seed": 7, "holdout": False, "out": "s.jsonl",
    }
    train = {"lr": 0.001, "k": 32, "l1_penalty": 0.0001, "epochs": 50, "batch": 64, "seed": 7}
    recorded = record(runner, monkeypatch, ["train", str(stream), "--out", "m.json"], manifest)
    assert recorded["params"] == {"stream": str(stream), **train, "out": "m.json"}
    recorded = record(runner, monkeypatch, ["sweep", str(stream), "--knob", "k", "--grid", "4"],
                      manifest)
    assert recorded["params"] == {
        "stream": str(stream), "knob": "k", "grid": [4.0], **train, "out_dir": "."
    }
    shown = {
        "generate": ["[default: 10000]", "[default: 0.05]", "[default: 7]",
                     "[default: delay=0.25,missing=0.25,duplicate=0.25,spike=0.25]"],
        "train": ["[default: 0.001]", "[default: 32]", "[default: 0.0001]", "[default: 50]",
                  "[default: 64]", "[default: 7]"],
        "sweep": ["[default: 0.001]", "[default: 32]", "[default: .]"],
        "detect": ["[default: 0.95]"],
        "evaluate": ["[default: json]"],
    }
    for command, defaults in shown.items():
        text = " ".join(run_ok(runner, [command, "--help"]).output.split())
        for default in defaults:
            assert default in text, (command, default)


def test_manifest_params_keep_their_keys_and_order(runner, workspace, tmp_path, monkeypatch):
    # each run gives its flags in an order other than the one declared
    root, stream, model = workspace
    runs = {
        "generate": (["--out", "s.jsonl", "--holdout", "--seed", "3", "--n", "5"],
                     ["n", "anomaly_rate", "mix", "seed", "holdout", "out"]),
        "train": ([str(stream), "--out", "m.json", "--batch", "8", "--lr", "0.01"],
                  ["stream", "lr", "k", "l1_penalty", "epochs", "batch", "seed", "out"]),
        "detect": ([str(stream), "--out", "d.jsonl", "--delta", "1", "--model", str(model)],
                   ["stream", "model", "delta", "calibrate", "quantile", "out"]),
        "evaluate": ([str(stream), "--out", "r.json", "--format", "csv"],
                     ["detections", "delta", "format", "out"]),
        "sweep": ([str(stream), "--out-dir", ".", "--grid", "4,8", "--knob", "k"],
                  ["stream", "knob", "grid", "lr", "k", "l1_penalty", "epochs", "batch",
                   "seed", "out_dir"]),
    }
    for subcommand, (flags, keys) in runs.items():
        recorded = record(runner, monkeypatch, [subcommand, *flags], tmp_path / "m.json")
        assert recorded["subcommand"] == subcommand
        assert list(recorded["params"]) == keys, subcommand
    assert recorded["params"]["grid"] == [4.0, 8.0]
    assert recorded["params"]["out_dir"] == "."
    # the manifests the workspace's real runs wrote
    for name, subcommand in (("stream.jsonl", "generate"), ("model.json", "train")):
        written = json.loads((root / f"{name}.manifest.json").read_text())
        assert list(written["params"]) == runs[subcommand][1]
    assert written["params"]["stream"] == str(stream)


@pytest.fixture(scope="module")
def own_inputs(workspace, tmp_path_factory):
    """Name -> bytes of the files each case below reads: copies of the shared
    stream under other names, the model, a holdout stream with its labels
    file, and detections with truth labels and their manifest."""
    _, stream, model = workspace
    root = tmp_path_factory.mktemp("own")
    runner = CliRunner()
    run_ok(runner, ["generate", "--n", "300", "--seed", "5", "--holdout",
                    "--out", str(root / "h.jsonl")])
    run_ok(runner, ["detect", str(stream), "--model", str(model), "--delta", "1",
                    "--out", str(root / "det.jsonl")])
    files = {name: stream.read_bytes() for name in (
        "s.jsonl", "t.csv", "x.history.csv", "o.jsonl.manifest.json", "sweep_k_7.csv"
    )}
    files["m.json"] = model.read_bytes()
    for name in ("h.jsonl", "h.labels.jsonl", "det.jsonl", "det.jsonl.manifest.json"):
        files[name] = (root / name).read_bytes()
    return files


# Commands whose output, or its manifest, names a file they read, and that file.
TRAIN = ["--epochs", "1", "--k", "2"]
OVERWRITES = {
    "train-out-is-the-stream": (
        "s.jsonl", ["train", "s.jsonl", *TRAIN, "--out", "s.jsonl"]),
    "train-history-is-the-stream": (
        "x.history.csv", ["train", "x.history.csv", *TRAIN, "--out", "x.json"]),
    "train-out-is-the-labels-file": (
        "h.labels.jsonl", ["train", "h.jsonl", *TRAIN, "--out", "h.labels.jsonl"]),
    "detect-out-is-the-stream": (
        "s.jsonl", ["detect", "s.jsonl", "--model", "m.json", "--delta", "1", "--out", "s.jsonl"]),
    "detect-out-is-the-model": (
        "m.json", ["detect", "s.jsonl", "--model", "m.json", "--delta", "1", "--out", "m.json"]),
    "detect-out-is-the-calibration-stream": (
        "s.jsonl",
        ["detect", "t.csv", "--model", "m.json", "--calibrate", "s.jsonl", "--out", "s.jsonl"]),
    "detect-csv-is-the-stream": (
        "t.csv", ["detect", "t.csv", "--model", "m.json", "--delta", "1", "--out", "t.jsonl"]),
    "detect-manifest-is-the-stream": (
        "o.jsonl.manifest.json",
        ["detect", "o.jsonl.manifest.json", "--model", "m.json", "--delta", "1",
         "--out", "o.jsonl"]),
    "evaluate-out-is-the-detections": (
        "det.jsonl", ["evaluate", "det.jsonl", "--delta", "1", "--out", "det.jsonl"]),
    "evaluate-out-is-the-detect-manifest": (
        "det.jsonl.manifest.json",
        ["evaluate", "det.jsonl", "--out", "det.jsonl.manifest.json"]),
    "sweep-report-is-the-stream": (
        "sweep_k_7.csv",
        ["sweep", "sweep_k_7.csv", "--knob", "k", "--grid", "4", *TRAIN, "--out-dir", "."]),
}


class TestOutputThatNamesAnInput:
    """An output that would replace a file its run reads ends the run with
    exit code 2 and one Error: line naming that file, and writes nothing."""

    @pytest.fixture
    def files(self, own_inputs, tmp_path, monkeypatch):
        for name, data in own_inputs.items():
            (tmp_path / name).write_bytes(data)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @staticmethod
    def contents(root):
        return {path.name: path.read_bytes() for path in root.iterdir()}

    @pytest.fixture
    def unread(self, monkeypatch):
        """Every input reader of the runners fails: the check comes first."""
        def opened(*args, **kwargs):
            raise AssertionError(f"{args[0]} was opened before the overwrite check")

        for name in ("read_stream", "read_normal_rows", "read_detections_jsonl", "load_model"):
            monkeypatch.setattr(cli, name, opened)

    @pytest.mark.parametrize("case", list(OVERWRITES))
    def test_on_the_flag_path(self, runner, files, unread, case):
        clash, args = OVERWRITES[case]
        before = self.contents(files)
        result = runner.invoke(main, args)
        assert f"would overwrite {clash}, which this run reads" in error_line(result, 2)
        assert self.contents(files) == before

    @pytest.mark.parametrize("case", list(OVERWRITES))
    def test_through_replay(self, runner, files, monkeypatch, unread, case):
        clash, args = OVERWRITES[case]
        manifest = files / "recorded.json"
        record(runner, monkeypatch, args, manifest)
        before = self.contents(files)
        result = runner.invoke(main, ["replay", str(manifest)])
        assert f"would overwrite {clash}, which this run reads" in error_line(result, 2)
        assert self.contents(files) == before

    def test_a_distinct_output_still_runs(self, runner, files):
        run_ok(runner, ["detect", "t.csv", "--model", "m.json", "--delta", "1",
                        "--out", "t.det.jsonl"])
        assert (files / "t.det.csv").exists()


class TestReplay:
    def test_replay_reproduces_stream_byte_identically(self, runner, tmp_path):
        out = tmp_path / "s.jsonl"
        run_ok(runner, ["generate", "--n", "120", "--seed", "9", "--out", str(out)])
        original = out.read_bytes()
        out.unlink()
        run_ok(runner, ["replay", str(tmp_path / "s.jsonl.manifest.json")])
        assert out.read_bytes() == original

    def test_replay_reproduces_model_byte_identically(self, runner, workspace, tmp_path):
        root, stream, model = workspace
        original = model.read_bytes()
        run_ok(runner, ["replay", str(root / "model.json.manifest.json")])
        assert model.read_bytes() == original

    def test_replay_of_detect_manifest_is_byte_identical(self, runner, workspace, tmp_path):
        _, stream, model = workspace
        out = tmp_path / "det.jsonl"
        run_ok(runner, ["detect", str(stream), "--model", str(model),
                        "--calibrate", str(stream), "--out", str(out)])
        original = out.read_bytes()
        out.unlink()
        run_ok(runner, ["replay", str(tmp_path / "det.jsonl.manifest.json")])
        assert out.read_bytes() == original

    def test_detect_manifest_whose_out_is_the_csv_file_is_usage_error(
        self, runner, workspace, tmp_path
    ):
        _, stream, model = workspace
        run_ok(runner, ["detect", str(stream), "--model", str(model),
                        "--delta", "1", "--out", str(tmp_path / "det.jsonl")])
        manifest = tmp_path / "det.jsonl.manifest.json"
        payload = json.loads(manifest.read_text())
        out = tmp_path / "det.csv"
        payload["params"]["out"] = str(out)
        manifest.write_text(json.dumps(payload))
        written = sorted(tmp_path.iterdir())
        result = runner.invoke(main, ["replay", str(manifest)])
        assert f"--out {out} is where the CSV detections go" in error_line(result, 2)
        assert sorted(tmp_path.iterdir()) == written

    def test_manifest_without_params_is_usage_error(self, runner, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"subcommand": "detect"}))
        result = runner.invoke(main, ["replay", str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "params" in result.output

    @pytest.mark.parametrize(
        "manifest_text, reason",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "JSON object"),
            ('{"subcommand": "detect", "params": {}}', "lack 'model'"),
            ('{"subcommand": "generate", "params": {"n": 5}}', "lack 'mix'"),
            ('{"subcommand": "sweep", "params": {"knob": "k", "grid": 5}}',
             "Invalid value for '--grid': must be a list of numbers"),
            ('{"subcommand": "sweep", "params": {"knob": "k", "grid": [4.5]}}', "integer >= 1"),
            ('{"subcommand": "sweep", "params": {"knob": "x", "grid": [1]}}',
             "Invalid value for '--knob': 'x' is not one of 'lr', 'k'."),
            pytest.param("[" * 100_000 + "]" * 100_000, "not valid JSON: maximum recursion depth",
                         id="deep"),
            ('{"subcommand": "sweep", "params": {"knob": "lr", "grid": [0.01, 0.01]}}',
             "strictly ascending"),
            (
                '{"subcommand": "generate", "params": {"n": "abc", "anomaly_rate": 0.05, '
                '"seed": 7, "mix": {"delay": 0.25, "missing": 0.25, "duplicate": 0.25, '
                '"spike": 0.25}}}',
                "Invalid value for '--n': 'abc' is not a valid integer.",
            ),
        ],
    )
    def test_bad_manifest_is_usage_error(self, runner, tmp_path, manifest_text, reason):
        bad = tmp_path / "m.json"
        bad.write_text(manifest_text)
        result = runner.invoke(main, ["replay", str(bad)])
        assert reason in error_line(result, 2)

    def test_unknown_subcommand_rejected(self, runner, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"subcommand": "frobnicate", "params": {}}))
        result = runner.invoke(main, ["replay", str(bad)])
        assert result.exit_code == 2
