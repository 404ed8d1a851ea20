"""Artifact envelopes: unreadable or outdated files fail as configuration errors."""

import pickle
import sys
import types

import pytest

from stackga.errors import ConfigError
from stackga.persist import ARTIFACT_VERSION, load_artifact, save_artifact


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
