"""README.md's Python examples run as written, so an API change that would
leave one stale fails here."""

import re
from pathlib import Path

import pytest

from etlwatch.autoencoder import TrainConfig, save_model, train
from etlwatch.evaluation import make_bundle
from etlwatch.preprocess import FeatureSchema
from etlwatch.streamgen import StreamConfig, generate

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# each ```python block: the line it starts on, and its code
BLOCKS = {
    TEXT.count("\n", 0, match.start()) + 1: match.group(1)
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
}


def test_every_python_example_is_collected():
    assert len(BLOCKS) == TEXT.count("```python") >= 3


@pytest.mark.parametrize("line", BLOCKS, ids=lambda line: f"line{line}")
def test_a_python_example_runs(line, tmp_path, monkeypatch):
    # an example that scores events finds a small generated events list and
    # a model.json trained on them in the working directory
    monkeypatch.chdir(tmp_path)
    stream = generate(StreamConfig(n_events=200, seed=7))
    bundle = make_bundle(stream)
    params, _ = train(bundle.x_train, TrainConfig(epochs=2))
    save_model("model.json", params, bundle.stats, FeatureSchema())
    names = {"events": list(stream.events)}
    exec(compile("\n" * line + BLOCKS[line], str(README), "exec"), names)
    if "scores" in names:
        assert len(names["scores"]) == len(names["x"]) == len(stream) - len(names["failed"])
