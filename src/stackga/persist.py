"""Versioned artifact files (trained models, stack bundles).

Artifacts are pickles wrapped in a self-describing envelope so a loader can
refuse foreign or newer files with a clear message instead of unpickling
garbage.
"""

import pickle

from .errors import ConfigError

FORMAT_PREFIX = "stackga."
#: 2: trees are flat node arrays (version 1 pickled node objects)
ARTIFACT_VERSION = 2


def save_artifact(path, kind: str, payload: dict) -> None:
    envelope = {
        "format": FORMAT_PREFIX + kind,
        "version": ARTIFACT_VERSION,
        "payload": payload,
    }
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh)


def load_artifact(path, kind: str) -> dict:
    with open(path, "rb") as fh:
        try:
            envelope = pickle.load(fh)
        except (pickle.UnpicklingError, EOFError, AttributeError, ModuleNotFoundError) as exc:
            # truncated or corrupt, or pickled classes that no longer exist
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
            f"(expected {ARTIFACT_VERSION})"
        )
    return envelope["payload"]
