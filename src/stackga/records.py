"""Plain JSON data to and from frozen dataclasses, derived from their fields.

`to_plain` walks a dataclass in field order: nested dataclasses become dicts
and tuples become lists. `from_plain`, its checked inverse, reads every
config and report: each key must be a field and each value of its field's
JSON type (a bool is no number; None only where the default is None). Lists
become tuples, objects the dataclass a field (or each item of a
`tuple[Row, ...]` field) is annotated with, and a `parse` metadata hook reads
its field's value (each item, for a tuple). A ConfigError names a bad value's
path, e.g. `report.rows[0].accuracy`.
"""

from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin

from .errors import ConfigError

#: the JSON values each field annotation accepts, and their description
_ACCEPTS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    tuple: ((list, tuple), "a list"),
    dict: ((dict,), "an object"),
}


def to_plain(value):
    if is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: to_plain(v) for k, v in value.items()}
    return value


def require_keys(d, allowed, where: str) -> None:
    """Raise a ConfigError unless `d` is an object whose keys are all `allowed`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}")


def from_plain(cls, d, where: str):
    """`cls` from the JSON object `d`, each value checked against its field;
    `where` is the object's path, empty at a config's top level. A `parse`
    hook is called as `parse(value, path, earlier fields)`."""
    require_keys(d, [f.name for f in fields(cls)], where or "config")
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            path = f"{where}.{f.name}" if where else f.name
            kwargs[f.name] = _read(f.type, d[f.name], path, f.default is None,
                                   f.metadata.get("parse"), kwargs)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where or 'config'}: missing required key {f.name!r}")
    return cls(**kwargs)


def _read(tp, value, path: str, nullable: bool, parse=None, section=None):
    """`value` read as annotation `tp`: None if `nullable`, then a dataclass,
    a `parse` hook's result, or a checked JSON value (lists become tuples)."""
    if value is None and nullable:
        return None
    if is_dataclass(tp):
        return from_plain(tp, value, path)
    origin = get_origin(tp) or tp
    if parse is not None and origin is not tuple:
        return parse(value, path, section)
    types, name = _ACCEPTS[origin]
    if isinstance(value, bool) != (origin is bool) or not isinstance(value, types):
        raise ConfigError(f"{path} must be {name}, got {value!r}")
    if origin is not tuple:
        return value
    item = (get_args(tp) or (None,))[0]
    return tuple(parse(v, f"{path}[{i}]", section) if parse
                 else v if item is None else _read(item, v, f"{path}[{i}]", False)
                 for i, v in enumerate(value))
