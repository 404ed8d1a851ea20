"""Artifact envelopes: unreadable, outdated or foreign files fail as configuration
errors, and loading one runs no code it names."""

import json
import pickle
import sys
import types

import numpy as np
import pytest

from stackga.cli import main
from stackga.errors import ConfigError
from stackga.learners import ALGORITHMS, LearnerSpec, predict_proba, train
from stackga.persist import ARTIFACT_VERSION, load_artifact, save_artifact

from test_pipeline import light_config_dict


def test_truncated_artifact_is_a_config_error(tmp_path):
    path = tmp_path / "model.pkl"
    save_artifact(path, "learner", {"model": list(range(1000))})
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ConfigError, match="retrain") as exc:
        load_artifact(path, "learner")
    assert str(path) in str(exc.value)


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
