"""Versioned artifact files (trained models, stack bundles) in one format: a header
line `stackga.<kind> <version> <sha256 of the rest>`, a JSON manifest line, then the
raw bytes of every array in manifest order (README, "Outputs"). Loading streams the
file once and runs no code the file names: it builds only classes stackga defines."""

import hashlib
import importlib
import json
import math
import os

import numpy as np

from .errors import ConfigError

#: 6: a checksummed manifest and raw arrays (versions 1-5 were pickles)
ARTIFACT_VERSION = 6
_ARRAY_KINDS = "biufc"  # bool, integer, float and complex dtypes
_json = json.JSONEncoder(separators=(",", ":")).encode


def _class(name: str):
    """`module:qualname`'s type if stackga defines it, else None; no other module is imported."""
    module, _, qualname = name.partition(":")
    obj = importlib.import_module(module) if module.split(".")[0] == "stackga" else None
    for part in qualname.split(".") if obj else ():
        obj = getattr(obj, part, None)
    return obj if isinstance(obj, type) and obj.__module__.split(".")[0] == "stackga" else None


def _encode(value, arrays: list) -> str:
    """`value` as manifest JSON text; its arrays are appended to `arrays`."""
    kind = type(value)
    if kind in (str, int, float, bool, type(None)):
        return _json(value)
    if kind is list:
        return "[" + ",".join([_encode(v, arrays) for v in value]) + "]"
    if kind is tuple:
        return '{"tuple":' + _encode(list(value), arrays) + "}"
    if kind is dict:
        return '{"dict":' + _encode([[k, v] for k, v in value.items()], arrays) + "}"
    if isinstance(value, np.generic) and value.dtype.kind in _ARRAY_KINDS:
        return _json({"scalar": [value.dtype.str, value.tobytes().hex()]})
    if kind is np.ndarray and value.dtype.kind in _ARRAY_KINDS:
        arrays.append(np.asarray(value, order="C"))
        return _json({"array": [value.dtype.str, list(value.shape)]})
    name = f"{kind.__module__}:{kind.__qualname__}"
    if _class(name) is not kind or kind.__new__ is not object.__new__:
        raise TypeError(f"an artifact cannot hold a {name}")
    attrs = [[k, v] for k, v in sorted(vars(value).items()) if not k.startswith("_")]
    return '{"object":' + _json(name) + ',"attrs":' + _encode(attrs, arrays) + "}"


def save_artifact(path, kind: str, payload: dict) -> None:
    """Write `payload`; a value of a type the format does not hold raises TypeError first."""
    if type(payload) is not dict:
        raise TypeError("an artifact's payload must be a dict")
    arrays = []
    manifest = _encode(payload, arrays).encode() + b"\n"
    digest = hashlib.sha256(manifest)
    for a in arrays:
        digest.update(a)
    with open(path, "wb") as fh:
        fh.write(f"stackga.{kind} {ARTIFACT_VERSION} {digest.hexdigest()}\n".encode())
        fh.write(manifest)
        fh.writelines(arrays)


def load_artifact(path, kind: str) -> dict:
    """The payload of the `kind` artifact at `path`; a file that is not a sound
    one of this version, or names a class stackga does not define, raises ConfigError."""
    with open(path, "rb") as fh:
        try:
            fmt, _, rest = fh.readline(256).decode("latin-1").rstrip("\n").partition(" ")
            version, _, checksum = rest.partition(" ")
            if fmt != f"stackga.{kind}":
                raise ConfigError(f"not a stackga.{kind} artifact")
            if version != str(ARTIFACT_VERSION):
                raise ConfigError(f"artifact version {version} unsupported")
            manifest = fh.readline()
            room, arrays = os.fstat(fh.fileno()).st_size - fh.tell(), []

            def decode(tag):  # each JSON object as it closes, after the values inside it
                nonlocal room
                if "array" in tag:
                    dtype, shape = np.dtype(tag["array"][0]), tuple(tag["array"][1])
                    room -= dtype.itemsize * math.prod(shape)
                    if room < 0 or dtype.kind not in _ARRAY_KINDS:
                        raise ConfigError("unreadable artifact (its arrays overrun the file)")
                    arrays.append(np.empty(shape, dtype))  # filled once the manifest is read
                    return arrays[-1]
                if "scalar" in tag:
                    return np.frombuffer(bytes.fromhex(tag["scalar"][1]), tag["scalar"][0])[0]
                if "tuple" in tag:
                    return tuple(tag["tuple"])
                if "dict" in tag:
                    return dict(tag["dict"])
                if (cls := _class(tag["object"])) is None:
                    raise ConfigError(f"refused class {tag['object']} "
                                      "(not one that stackga defines)")
                instance = object.__new__(cls)
                vars(instance).update(tag["attrs"])
                return instance

            payload = json.loads(manifest, object_hook=decode)
            digest = hashlib.sha256(manifest)
            for a in arrays:
                fh.readinto(a)
                digest.update(a)
            if room or digest.hexdigest() != checksum:
                raise ConfigError("damaged artifact (its sha256 or size does not match)")
            if type(payload) is not dict:
                raise ConfigError("unreadable artifact (no payload)")
            return payload
        except Exception as exc:  # damaged or crafted bytes raise almost any type
            reason = exc if isinstance(exc, ConfigError) else f"unreadable artifact ({exc!r})"
            raise ConfigError(f"{path}: {reason}; retrain it with this version of stackga") from exc
