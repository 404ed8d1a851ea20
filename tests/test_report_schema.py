import json

import jsonschema
import pytest

from stackga.config import config_from_dict
from stackga.pipeline import run_kfold
from stackga.report import render_report

from support import holdout_report
from test_pipeline import light_config_dict


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
