"""Versioned artifact files (trained models, stack bundles).

Artifacts are pickles wrapped in a self-describing envelope so a loader can
refuse foreign or newer files with a clear message instead of unpickling
garbage. Loading resolves only classes that stackga defines and numpy's
array reconstructors, so a foreign file cannot make the loader call anything
else: any other global is refused, and a module outside stackga and numpy is
never imported.
"""

import pickle

from .errors import ConfigError

FORMAT_PREFIX = "stackga."
#: 5: every algorithm's model is an instance of its implementation class
#: (`KNeighbors`, `MlpClassifier` with `learning_rate_init` and `max_iter`,
#: `GradientBoosting`, `SmoSvm`), not of a subclass in `stackga.learners`
#: (4: the SVM standardizes its inputs; 3: a stack bundle also holds the
#: trained single learners; 2: trees are flat node arrays; version 1 pickled
#: node objects)
ARTIFACT_VERSION = 5
#: protocol 4 pickles arrays through `_reconstruct`, which the loader allows
#: (protocol 5 would name `numpy._core.numeric._frombuffer`)
PICKLE_PROTOCOL = 4
#: the numpy globals an artifact references, under numpy 2 and numpy 1 names
NUMPY_GLOBALS = frozenset(
    [(f"{core}.multiarray", name) for core in ("numpy._core", "numpy.core")
     for name in ("_reconstruct", "scalar")]
    + [("numpy", "ndarray"), ("numpy", "dtype")]
)


def _in_stackga(module: str) -> bool:
    return module == "stackga" or module.startswith("stackga.")


class _ArtifactUnpickler(pickle.Unpickler):
    def __init__(self, fh, path):
        super().__init__(fh)
        self.path = path

    def find_class(self, module, name):
        if (module, name) in NUMPY_GLOBALS:
            return super().find_class(module, name)
        if _in_stackga(module):
            found = super().find_class(module, name)
            if isinstance(found, type) and _in_stackga(found.__module__):
                return found
        raise ConfigError(
            f"{self.path}: refused global {module}.{name} (artifacts may reference "
            "only stackga classes and numpy arrays); retrain it with this version "
            "of stackga"
        )


def save_artifact(path, kind: str, payload: dict) -> None:
    envelope = {
        "format": FORMAT_PREFIX + kind,
        "version": ARTIFACT_VERSION,
        "payload": payload,
    }
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh, protocol=PICKLE_PROTOCOL)


def load_artifact(path, kind: str) -> dict:
    """The payload of the `kind` artifact at `path`. A file that does not
    unpickle, whatever the unpickler raises, or whose envelope is not one
    of this version's, raises ConfigError."""
    with open(path, "rb") as fh:
        try:
            envelope = _ArtifactUnpickler(fh, path).load()
        except ConfigError:
            raise  # a refused global
        except Exception as exc:
            # truncated or corrupt bytes make the unpickler raise almost any
            # type, as do pickled classes that no longer exist
            raise ConfigError(
                f"{path}: unreadable artifact ({type(exc).__name__}: {exc}); "
                "retrain it with this version of stackga"
            ) from exc
    expected = FORMAT_PREFIX + kind
    if not isinstance(envelope, dict) or envelope.get("format") != expected:
        raise ConfigError(f"{path}: not a {expected} artifact")
    if envelope.get("version") != ARTIFACT_VERSION:
        raise ConfigError(
            f"{path}: artifact version {envelope.get('version')!r} unsupported "
            f"(expected {ARTIFACT_VERSION}); retrain it with this version of stackga"
        )
    if not isinstance(envelope.get("payload"), dict):
        raise ConfigError(f"{path}: unreadable artifact (no payload); "
                          "retrain it with this version of stackga")
    return envelope["payload"]
