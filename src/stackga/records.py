"""Plain JSON data to and from frozen dataclasses, derived from their fields.

`to_plain` walks a dataclass in field order: nested dataclasses become dicts
and tuples become lists. `from_plain` is its inverse: lists become tuples for
tuple fields, and dicts become the dataclass a field (or, for a
`tuple[Row, ...]` field, its items) is annotated with.
"""

from dataclasses import fields, is_dataclass
from typing import get_args, get_origin


def to_plain(value):
    if is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: to_plain(v) for k, v in value.items()}
    return value


def from_plain(cls, d):
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__}: expected an object, got {type(d).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    return cls(**{k: _typed(types.get(k), v) for k, v in d.items()})


def _typed(tp, value):
    if value is None:
        return None
    if is_dataclass(tp):
        return from_plain(tp, value)
    if tp is tuple or get_origin(tp) is tuple:
        item = (get_args(tp) or (None,))[0]
        return tuple(_typed(item, v) for v in value)
    return value
