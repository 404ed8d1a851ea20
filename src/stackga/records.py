"""Plain JSON data to and from frozen dataclasses, derived from their fields.

`to_plain` walks a dataclass in field order: nested dataclasses become dicts
and tuples become lists. `from_plain`, its checked inverse, reads every
config, report and learner's hyperparameters; a field's annotation states
its allowed values, and `check_fields` holds a dataclass built in code to
the same annotations. Each key must be a field and each value of its JSON
type (a bool is no number, and a number is finite; None only where the
annotation allows it), one of a `Literal`'s values, inside an `Annotated`
number's bounds, or one of a union's alternatives. Lists become tuples,
objects the annotated dataclass (or a `dict[str, X]`), and a `parse`
metadata hook reads its field's value (each item, for a tuple). A
ConfigError names a bad value's path, e.g. `report.rows[0].accuracy`.
"""

import operator
import sys
from dataclasses import MISSING, fields, is_dataclass
from types import UnionType
from typing import Annotated, Literal, Union, get_args, get_origin

from .errors import ConfigError

#: the bounded numbers that settings and reports share
Count = Annotated[int, ("minimum", 1)]
Folds = Annotated[int, ("minimum", 2)]
Positive = Annotated[float, ("exclusiveMinimum", 0)]
NonNegative = Annotated[float, ("minimum", 0)]
Fraction = Annotated[float, ("minimum", 0), ("maximum", 1)]

#: the JSON values each field annotation accepts, and their description
_ACCEPTS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    tuple: ((list, tuple), "a list"),
    dict: ((dict,), "an object"),
}

#: the bounds an `Annotated[number, (keyword, limit), ...]` states: test, wording
_BOUNDS = {"minimum": (operator.ge, "at least"), "exclusiveMinimum": (operator.gt, "greater than"),
           "maximum": (operator.le, "at most"), "exclusiveMaximum": (operator.lt, "less than")}


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
            kwargs[f.name] = _read(f.type, d[f.name], path, f.metadata.get("parse"), kwargs)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where or 'config'}: missing required key {f.name!r}")
    return cls(**kwargs)


def check_fields(record) -> None:
    """Raise the reader's ConfigError, named by the field, for the first
    field of the built dataclass `record` whose annotation refuses its value."""
    for f in fields(record):
        _read(f.type, getattr(record, f.name), f.name)


def _read(tp, value, path: str, parse=None, section=None):
    """`value` read as annotation `tp`: None where allowed, a dataclass, a
    `parse` hook's result, or a checked JSON value (lists become tuples)."""
    origin, args = get_origin(tp) or tp, get_args(tp)
    if origin is Union or origin is UnionType:
        if value is None and type(None) in args:
            return None
        alternatives = [a for a in args if a is not type(None)]
        if len(alternatives) == 1:  # X | None
            return _read(alternatives[0], value, path, parse, section)
        for alternative in alternatives:
            try:
                return _read(alternative, value, path)
            except ConfigError:
                pass
        raise ConfigError(f"{path} must be {' or '.join(map(_describe, args))}, got {value!r}")
    if is_dataclass(tp):
        return value if isinstance(value, tp) else from_plain(tp, value, path)
    if parse is not None and origin is not tuple:
        return parse(value, path, section)
    if origin is Literal:
        if _read(type(args[0]), value, path) not in args:
            raise ConfigError(f"{path} must be {_describe(tp)}, got {value!r}")
        return value
    if origin is Annotated:
        value = _read(args[0], value, path)
        if not all(_BOUNDS[key][0](value, limit) for key, limit in args[1:]):
            raise ConfigError(f"{path} must be {_bounds_text(args[1:])}, got {value!r}")
        return value
    types, name = _ACCEPTS[origin]
    if isinstance(value, bool) != (origin is bool) or not isinstance(value, types):
        raise ConfigError(f"{path} must be {name}, got {value!r}")
    if origin in (int, float) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if origin is dict and args:
        return {k: _read(args[1], v, f"{path}[{k!r}]") for k, v in value.items()}
    if origin is not tuple:
        return value
    return tuple(parse(v, f"{path}[{i}]", section) if parse
                 else _read(args[0], v, f"{path}[{i}]") if args else v
                 for i, v in enumerate(value))


def _bounds_text(bounds) -> str:
    """E.g. "greater than 0 and at most 1"."""
    return " and ".join(f"{_BOUNDS[key][1]} {limit}" for key, limit in bounds)


def _describe(tp) -> str:
    """What annotation `tp` accepts, in words: e.g. "an integer of at least
    1", "a number greater than 0", "one of ['entropy', 'gini']", "None"."""
    origin, args = get_origin(tp) or tp, get_args(tp)
    if tp is type(None):
        return "None"
    if origin is Literal:
        return repr(args[0]) if len(args) == 1 else f"one of {sorted(args)}"
    if origin is Annotated:
        of = "of " if args[1][0] in ("minimum", "maximum") else ""
        return f"{_describe(args[0])} {of}{_bounds_text(args[1:])}"
    return _ACCEPTS[origin][1]
