import importlib.util
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stackga.config import config_from_dict
from stackga.errors import ConfigError
from stackga.pipeline import run_kfold
from stackga.report import parse_report, render_report

from support import holdout_report, reports
from test_pipeline import light_config_dict

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def schema():
    with open("docs/report.schema.json") as fh:
        return json.load(fh)


def test_holdout_report_validates(pima_csv, schema, tmp_path):
    holdout_report(light_config_dict(pima_csv), tmp_path, "report.include_timings=true")
    doc = json.loads((tmp_path / "report.json").read_text())
    assert "timings" in doc
    jsonschema.validate(doc, schema)


def test_kfold_report_validates(pima_csv, schema):
    d = light_config_dict(pima_csv)
    d["split"] = {"mode": "kfold", "ks": [3], "stratified": True}
    doc = json.loads(render_report(run_kfold(config_from_dict(d)), "json"))
    jsonschema.validate(doc, schema)


def test_checked_in_schema_is_the_generated_one():
    spec = importlib.util.spec_from_file_location("report_schema",
                                                  ROOT / "scripts" / "report_schema.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    checked_in = (ROOT / "docs" / "report.schema.json").read_text(encoding="utf-8")
    assert checked_in == generator.render()


@given(st.data())
def test_every_drawn_report_validates(schema, data):
    text = render_report(data.draw(reports()), "json", include_timings=data.draw(st.booleans()))
    jsonschema.validate(json.loads(text), schema)


def _outside(*allowed):
    return st.text(max_size=8).filter(lambda s: s not in allowed)


_NEGATIVE = st.floats(max_value=-1e-9, allow_infinity=False)
_ABOVE_ONE = st.floats(min_value=1, exclude_min=True, allow_infinity=False)
#: one-field corruptions of a rendered report: a value's path, and values
#: its annotation refuses (outside a Literal, out of bounds, or of a wrong
#: JSON type). Integers stay integers: JSON Schema counts 1.0 an integer,
#: the reader does not.
CORRUPTIONS = [
    (("kind",), _outside("holdout", "kfold") | st.none()),
    (("protocol",), _outside("clean", "paper_faithful") | st.integers()),
    (("master_seed",), st.sampled_from(["s", True, 0.5, None, [1]])),
    (("version",), st.integers().filter(lambda v: v != 1)),
    (("surplus",), st.integers()),
    (("rows", 0, "name"), st.sampled_from([7, None, True])),
    (("rows", 0, "accuracy"), _NEGATIVE | _ABOVE_ONE | st.sampled_from(["x", True])),
    (("rows", 0, "status"), _outside("ok", "failed")),
    (("rows", 0, "error"), st.sampled_from([7, ["boom"]])),
    (("kfold_rows", 0, "k"), st.integers(max_value=1) | st.sampled_from([2.5, "3"])),
    (("kfold_rows", 0, "std"), _NEGATIVE),
    (("kfold_rows", 0, "fold_accuracies"),
     st.lists(_ABOVE_ONE | st.sampled_from(["x", True, {"a": 1}]), min_size=1, max_size=3)),
    (("kfold_rows", 0, "status"), _outside("ok", "partial", "failed")),
    (("ga", "mask"), st.lists(st.integers().filter(lambda b: b not in (0, 1))
                              | st.sampled_from(["1", True]), min_size=1, max_size=3)),
    (("ga", "feature_names"), st.sampled_from([[7], "abc", [None]])),
    (("ga", "best_fitness"), _NEGATIVE | _ABOVE_ONE),
    (("ga", "generations"), st.integers(max_value=-1)),
    (("ga", "evaluations"), st.integers(max_value=-1) | st.just(1.5)),
    (("feature_table", 0, "single_feature_cv_accuracy"), _NEGATIVE | _ABOVE_ONE),
    (("feature_table", 0, "ga_selection_frequency"), _ABOVE_ONE | st.none()),
    (("feature_table", 0, "in_best_mask"), st.sampled_from([1, "yes", None])),
    (("notes",), st.sampled_from(["abc", [1], [None]])),
    (("config_echo",), st.sampled_from([[], "x", None])),
    (("timings",), st.dictionaries(st.text(max_size=4), _NEGATIVE | st.just("x"), min_size=1)
     | st.none()),
]


def _reaches(doc, path) -> bool:
    """Whether the rendered report `doc` holds the container of `path`'s last key."""
    node = doc
    for key in path[:-1]:
        if node is None or (isinstance(key, int) and key >= len(node)):
            return False
        node = node[key]
    return node is not None


@given(st.data())
def test_a_corrupted_field_is_refused_by_the_reader_and_the_schema(schema, data):
    doc = json.loads(render_report(data.draw(reports()), "json"))
    path, values = data.draw(st.sampled_from([c for c in CORRUPTIONS if _reaches(doc, c[0])]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(values)
    with pytest.raises(ConfigError):
        parse_report(json.dumps(doc))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
