"""Artifact envelopes: unreadable, outdated or foreign files fail as configuration
errors, and loading one runs no code it names."""

import json
import pickle
import sys
import types
from collections import Counter

import numpy as np
import pytest

from stackga.cli import main
from stackga.dataset import write_csv
from stackga.errors import ConfigError
from stackga.learners import ALGORITHMS, LearnerSpec, predict_proba, train
from stackga.persist import ARTIFACT_VERSION, load_artifact, save_artifact
from stackga.rng import child_rng

from test_pipeline import light_config_dict


def test_truncated_artifact_is_a_config_error(tmp_path):
    path = tmp_path / "model.pkl"
    save_artifact(path, "learner", {"model": list(range(1000))})
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ConfigError, match="retrain") as exc:
        load_artifact(path, "learner")
    assert str(path) in str(exc.value)


def test_corrupt_bundle_loads_or_is_a_config_error(pima_like, tmp_path, monkeypatch):
    """200 seeded truncations and 200 one-bit flips of a small trained
    bundle, and one whose envelope lost its payload key: each load returns a
    payload or raises ConfigError, whatever the unpickler ran into."""
    # the bundle records the dataset path as the config gives it: a relative
    # one keeps its bytes, and so the damage below, the same in any directory
    monkeypatch.chdir(tmp_path)
    write_csv(pima_like.take(range(120)), "small.csv", header=True)
    d = light_config_dict("small.csv")
    d["ga"]["enabled"] = False
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path), "-q"]) == 0
    blob = (tmp_path / "model.pkl").read_bytes()
    rng = child_rng(20, "corrupt-artifact")
    copies = [blob[:n] for n in rng.integers(0, len(blob), 200)]
    for at, bit in zip(rng.integers(0, len(blob), 200), rng.integers(0, 8, 200)):
        flipped = bytearray(blob)
        flipped[at] ^= 1 << int(bit)
        copies.append(bytes(flipped))
    at = blob.index(b"payload")
    copies.append(blob[:at] + b"Payload" + blob[at + len(b"payload"):])
    path = tmp_path / "corrupt.pkl"
    causes = Counter()
    for data in copies:
        path.write_bytes(data)
        try:
            payload = load_artifact(path, "stack-bundle")
        except ConfigError as e:
            assert str(path) in str(e)
            causes[type(e.__cause__).__name__] += 1
        else:
            assert isinstance(payload, dict)
    # the unpickler raises each of these on some damaged bytes; `stackga eval`
    # must see every one as the refusal (exit 2), not as a model failure (exit 1)
    assert {"UnicodeDecodeError", "TypeError", "ValueError", "MemoryError"} <= set(causes), \
        causes


@pytest.mark.parametrize("envelope", [
    {"format": "stackga.learner", "version": ARTIFACT_VERSION},
    {"format": "stackga.learner", "version": ARTIFACT_VERSION, "payload": [1, 2]},
])
def test_envelope_without_a_payload_object_is_refused(tmp_path, envelope):
    path = tmp_path / "model.pkl"
    path.write_bytes(pickle.dumps(envelope))
    with pytest.raises(ConfigError, match="unreadable artifact.*retrain"):
        load_artifact(path, "learner")


@pytest.mark.parametrize("remove", ["class", "module"])
def test_artifact_of_a_class_that_no_longer_exists(tmp_path, monkeypatch, remove):
    module = types.ModuleType("stackga_retired_module")

    class _Node:  # stands in for a class a later version removed
        pass

    _Node.__module__ = module.__name__
    _Node.__qualname__ = "_Node"
    module._Node = _Node
    monkeypatch.setitem(sys.modules, module.__name__, module)
    path = tmp_path / "model.pkl"
    save_artifact(path, "learner", {"model": _Node()})
    if remove == "class":
        del module._Node  # AttributeError on load
    else:
        monkeypatch.delitem(sys.modules, module.__name__)  # ModuleNotFoundError
    with pytest.raises(ConfigError, match="retrain"):
        load_artifact(path, "learner")


def test_older_artifact_version_is_refused(tmp_path):
    path = tmp_path / "model.pkl"
    envelope = {"format": "stackga.learner", "version": ARTIFACT_VERSION - 1, "payload": {}}
    path.write_bytes(pickle.dumps(envelope))
    with pytest.raises(ConfigError, match="unsupported"):
        load_artifact(path, "learner")


class _RunsCode:
    """Unpickling this calls `exec`, which writes `path`."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return exec, (f"open({str(self.path)!r}, 'w').write('ran')",)


def test_artifact_code_never_runs(pima_csv, tmp_path, capsys):
    sentinel = tmp_path / "sentinel"
    pickle.loads(pickle.dumps(_RunsCode(sentinel)))  # a plain pickle.load runs it
    assert sentinel.exists()
    sentinel.unlink()
    path = tmp_path / "model.pkl"
    save_artifact(path, "stack-bundle", {"stack_model": _RunsCode(sentinel)})
    with pytest.raises(ConfigError, match="refused global builtins.exec") as exc:
        load_artifact(path, "stack-bundle")
    assert str(path) in str(exc.value)
    assert not sentinel.exists()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(light_config_dict(pima_csv)))
    code = main(["eval", "--config", str(cfg), "--model", str(path),
                 "--out", str(tmp_path / "out"), "-q"])
    assert code == 2
    assert "refused global builtins.exec" in capsys.readouterr().err
    assert not sentinel.exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module,name", [
    ("webbrowser", "open"),  # never imported by the refusal
    ("os", "system"),
    ("stackga.rng", "derive_seed"),  # a stackga function, not a class
    ("stackga.cli", "Path"),  # a class a stackga module imports from elsewhere
    ("stackga_lookalike", "Model"),
])
def test_foreign_globals_refused(tmp_path, module, name):
    path = tmp_path / "model.pkl"
    path.write_bytes(f"c{module}\n{name}\n)R.".encode())  # GLOBAL, empty tuple, REDUCE
    with pytest.raises(ConfigError) as exc:
        load_artifact(path, "learner")
    assert str(path) in str(exc.value) and f"{module}.{name}" in str(exc.value)
    assert "webbrowser" not in sys.modules


def test_models_and_arrays_round_trip(tmp_path, pima_split_clean):
    tr, te = pima_split_clean
    payload = {
        "models": [train(LearnerSpec(a, {}, 3), tr) for a in sorted(ALGORITHMS)],
        "arrays": [np.arange(5), np.eye(2), np.array([True, False]), np.float64(0.25)],
    }
    path = tmp_path / "model.pkl"
    save_artifact(path, "learner", payload)
    loaded = load_artifact(path, "learner")
    for ours, theirs in zip(payload["models"], loaded["models"]):
        assert predict_proba(ours, te.features).tobytes() == \
            predict_proba(theirs, te.features).tobytes()
    for ours, theirs in zip(payload["arrays"], loaded["arrays"]):
        assert type(ours) is type(theirs) and np.array_equal(ours, theirs)
