#!/usr/bin/env python3
"""Write `docs/report.schema.json`, the JSON Schema of a `report.json`,
derived from the report dataclasses' annotations, the ones that
`records.from_plain` checks when `stackga report` reads a report.

    PYTHONPATH=src python3 scripts/report_schema.py

Every field maps onto its JSON type; `X | None` adds "null", a `Literal`
becomes an enum (a const for one value), an `Annotated` number copies its
bounds, whose keywords are JSON Schema's, a tuple's items and a
`dict[str, X]`'s values are described by their annotation, and a dataclass
is an object that allows no other key. Every field of a nested record is
required; the report requires the keys that the renderer writes, every one
but `timings`. `tests/test_report_schema.py` checks that the file is this
script's output.
"""

import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Annotated, Literal, get_args, get_origin

from stackga.report import Report, report_to_dict

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"

#: the JSON Schema type of each plain annotation
_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
          tuple: "array", dict: "object"}


def describe(tp) -> dict:
    """The JSON Schema of the values that annotation `tp` accepts."""
    origin, args = get_origin(tp) or tp, get_args(tp)
    if type(None) in args:  # X | None
        schema = describe(args[0])
        return {**schema, "type": [schema["type"], "null"]}
    if is_dataclass(tp):
        return {"type": "object", "required": [f.name for f in fields(tp)],
                "additionalProperties": False,
                "properties": {f.name: describe(f.type) for f in fields(tp)}}
    if origin is Literal:
        return {"const": args[0]} if len(args) == 1 else {"enum": list(args)}
    if origin is Annotated:
        return {**describe(args[0]), **dict(args[1:])}
    schema = {"type": _TYPES[origin]}
    if origin is tuple and args:
        schema["items"] = describe(args[0])
    if origin is dict and args:
        schema["additionalProperties"] = describe(args[1])
    return schema


def report_schema() -> dict:
    written = report_to_dict(Report(kind="holdout", protocol="clean", master_seed=0))
    return {"$schema": "http://json-schema.org/draft-07/schema#",
            "title": "stackga experiment report",
            **describe(Report), "required": list(written)}


def render() -> str:
    """The schema as JSON text: an object that holds an object has one key
    per line, and any other value sits on its key's line."""
    return _json(report_schema(), "") + "\n"


def _json(value, indent: str) -> str:
    if not (isinstance(value, dict) and any(isinstance(v, dict) for v in value.values())):
        return json.dumps(value)
    inner = indent + "  "
    lines = [f"{inner}{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items()]
    return "{\n" + ",\n".join(lines) + "\n" + indent + "}"


if __name__ == "__main__":
    SCHEMA_PATH.write_text(render(), encoding="utf-8")
