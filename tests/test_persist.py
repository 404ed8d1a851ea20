"""Artifact files: unreadable, damaged, outdated or foreign files fail as
configuration errors, loading one runs no code it names, and a saved model
loads with the same bits and saves again to the same bytes."""

import hashlib
import json
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings

from stackga.cli import main
from stackga.dataset import Dataset, Schema, write_csv
from stackga.errors import ConfigError
from stackga.learners import ALGORITHMS, LearnerSpec, predict_proba, train
from stackga.persist import ARTIFACT_VERSION, load_artifact, save_artifact
from stackga.rng import child_rng
from stackga.stacking import StackSpec, predict_proba_stack, train_stack

from support import saved_bytes
from test_fit_kernels import same_bits, tables
from test_pipeline import light_config_dict


def write_artifact(path, kind, manifest, version=ARTIFACT_VERSION, data=b""):
    """A `kind` artifact whose manifest is the JSON `manifest`, followed by
    the array bytes `data`, with a header whose checksum matches."""
    rest = json.dumps(manifest).encode() + b"\n" + data
    path.write_bytes(f"stackga.{kind} {version} {hashlib.sha256(rest).hexdigest()}\n".encode()
                     + rest)


def bundle_naming(name):
    """A stack-bundle manifest whose `stack_model` is an instance of `name`."""
    return {"dict": [["stack_model", {"object": name, "attrs": [["path", "x"]]}]]}


def test_truncated_artifact_is_a_config_error(tmp_path):
    path = tmp_path / "model.pkl"
    save_artifact(path, "learner", {"model": list(range(1000))})
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ConfigError, match="retrain") as exc:
        load_artifact(path, "learner")
    assert str(path) in str(exc.value)


def test_every_damaged_bundle_is_refused(pima_like, tmp_path, monkeypatch):
    """200 seeded truncations and 200 one-bit flips of a small trained
    bundle each raise ConfigError naming the file, and `eval` on one exits
    2 and writes nothing."""
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
    path = tmp_path / "corrupt.pkl"
    for data in copies:
        path.write_bytes(data)
        with pytest.raises(ConfigError) as exc:
            load_artifact(path, "stack-bundle")
        assert str(path) in str(exc.value)
    assert main(["eval", "--config", str(cfg), "--model", str(path),
                 "--out", str(tmp_path / "eval"), "-q"]) == 2
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("manifest", [None, [1, 2], {"tuple": [{"dict": []}]}])
def test_manifest_without_a_payload_object_is_refused(tmp_path, manifest):
    path = tmp_path / "model.pkl"
    write_artifact(path, "learner", manifest)
    with pytest.raises(ConfigError, match="unreadable artifact.*retrain"):
        load_artifact(path, "learner")


@pytest.mark.parametrize("remove", ["class", "module"])
def test_artifact_of_a_class_that_no_longer_exists(tmp_path, monkeypatch, remove):
    module = types.ModuleType("stackga.retired_module")

    class _Node:  # stands in for a class a later version removed
        pass

    _Node.__module__ = module.__name__
    _Node.__qualname__ = "_Node"
    module._Node = _Node
    monkeypatch.setitem(sys.modules, module.__name__, module)
    path = tmp_path / "model.pkl"
    save_artifact(path, "learner", {"model": _Node()})
    if remove == "class":
        del module._Node
    else:
        monkeypatch.delitem(sys.modules, module.__name__)  # ModuleNotFoundError
    with pytest.raises(ConfigError, match="retrain"):
        load_artifact(path, "learner")


class _Local:
    pass


@pytest.mark.parametrize("value", [
    {1, 2},
    object(),
    _Local(),  # a class that stackga does not define
    ConfigError("x"),  # a stackga class that is not built by object.__new__
    np.array([{}], dtype=object),
    np.array(["a"]),
    np.ma.masked_array([1.0, 2.0], mask=[True, False]),  # an array subclass
    len,
], ids=["set", "object", "foreign class", "exception", "object array", "str array",
        "masked array", "builtin"])
def test_save_refuses_what_it_cannot_load(tmp_path, value):
    path = tmp_path / "model.pkl"
    with pytest.raises(TypeError, match="cannot hold"):
        save_artifact(path, "learner", {"model": [value]})
    assert not path.exists()


@pytest.mark.parametrize("kind,version,message", [
    ("learner", ARTIFACT_VERSION - 1, f"artifact version {ARTIFACT_VERSION - 1} unsupported"),
    ("stack-bundle", ARTIFACT_VERSION, "not a stackga.learner artifact"),
])
def test_other_versions_and_kinds_are_refused(tmp_path, kind, version, message):
    path = tmp_path / "model.pkl"
    write_artifact(path, kind, {"dict": []}, version=version)
    with pytest.raises(ConfigError, match=message) as exc:
        load_artifact(path, "learner")
    assert str(path) in str(exc.value)


def test_a_pickle_is_refused(tmp_path):
    import pickle

    path = tmp_path / "model.pkl"
    path.write_bytes(pickle.dumps({"format": "stackga.learner", "version": 5, "payload": {}}))
    with pytest.raises(ConfigError, match="not a stackga.learner artifact; retrain"):
        load_artifact(path, "learner")


#: calls of the `RunsCode` methods below that a loader must never make
RAN = []
_runs_code = types.ModuleType("stackga.runs_code")


class RunsCode:
    """A stackga-named class whose construction, state setting and attribute
    setting all run code."""

    def __new__(cls, *args):
        RAN.append("__new__")
        return super().__new__(cls)

    def __init__(self, *args):
        RAN.append("__init__")

    def __setstate__(self, state):
        RAN.append("__setstate__")

    def __setattr__(self, name, value):
        RAN.append("__setattr__")


RunsCode.__module__ = _runs_code.__name__
_runs_code.RunsCode = RunsCode


def test_artifact_code_never_runs(pima_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, _runs_code.__name__, _runs_code)
    RunsCode().path = "x"
    assert RAN == ["__new__", "__init__", "__setattr__"]
    RAN.clear()
    path = tmp_path / "model.pkl"
    write_artifact(path, "stack-bundle", bundle_naming("stackga.runs_code:RunsCode"))
    loaded = load_artifact(path, "stack-bundle")["stack_model"]
    assert type(loaded) is RunsCode and vars(loaded) == {"path": "x"}
    assert RAN == []

    write_artifact(path, "stack-bundle", bundle_naming("builtins:exec"))
    with pytest.raises(ConfigError, match="refused class builtins:exec") as exc:
        load_artifact(path, "stack-bundle")
    assert str(path) in str(exc.value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(light_config_dict(pima_csv)))
    code = main(["eval", "--config", str(cfg), "--model", str(path),
                 "--out", str(tmp_path / "out"), "-q"])
    assert code == 2
    assert "refused class builtins:exec" in capsys.readouterr().err
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
    write_artifact(path, "stack-bundle", bundle_naming(f"{module}:{name}"))
    with pytest.raises(ConfigError) as exc:
        load_artifact(path, "stack-bundle")
    assert str(path) in str(exc.value) and f"refused class {module}:{name}" in str(exc.value)
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


@settings(max_examples=15)
@given(data=tables())
def test_saved_models_load_with_their_bits_and_save_to_their_bytes(data, tmp_path_factory):
    """Every algorithm, as a base of a naive stack on a drawn table: the
    loaded models predict the same bits, and after predicting they save
    to the same bytes as the models that were saved."""
    X, y = data
    ds = Dataset(X, y, Schema(tuple(f"x{i}" for i in range(X.shape[1])) + ("y",),
                              X.shape[1]))
    bases = [LearnerSpec(a, {"n_neighbors": 3} if a == "knn" else {}, 5)
             for a in sorted(ALGORITHMS)]
    stack = train_stack(StackSpec(bases, LearnerSpec("logistic_regression", {}, 6), "naive"),
                        ds)
    path = tmp_path_factory.mktemp("round-trip") / "model.pkl"
    save_artifact(path, "stack-bundle", {"stack_model": stack})
    loaded = load_artifact(path, "stack-bundle")["stack_model"]
    for ours, theirs in zip(stack.base_models, loaded.base_models):
        assert same_bits(predict_proba(theirs, X), predict_proba(ours, X)), ours.spec.algorithm
    assert same_bits(predict_proba_stack(loaded, X), predict_proba_stack(stack, X))
    assert saved_bytes(loaded) == saved_bytes(stack) == saved_bytes(
        load_artifact(path, "stack-bundle")["stack_model"])
