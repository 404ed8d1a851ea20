import argparse
import sys

import pytest

import run
from stackga.report import STACK_ROW_GA, ModelRow, Report, render_report


def write_report(path, stack_acc=0.85, other_status="ok"):
    other = (ModelRow(name="Random Forest", accuracy=0.8, status="ok")
             if other_status == "ok" else
             ModelRow(name="Random Forest", status="failed", error="ValueError: boom"))
    rows = (other, ModelRow(name=STACK_ROW_GA, accuracy=stack_acc, status="ok"))
    report = Report(kind="holdout", protocol="clean", master_seed=1, rows=rows)
    path.write_text(render_report(report, "json"), encoding="utf-8")
    return path


def test_a_good_report_passes(tmp_path):
    o = run.check_report(write_report(tmp_path / "r.json"), "rows", 2, True, True)
    assert (o["attempted"], o["failed"], o["problems"]) == (2, 0, [])
    assert o["accuracy"] == pytest.approx(0.85)
    assert o["digest"][1] == run.sha256(tmp_path / "r.json")


def test_stack_row_below_the_acceptance_band_fails(tmp_path):
    o = run.check_report(write_report(tmp_path / "r.json", stack_acc=0.7), "rows", 2, True, True)
    assert o["failed"] == 1
    assert "0.75" in o["problems"][0]


def test_a_failed_row_fails(tmp_path):
    path = write_report(tmp_path / "r.json", other_status="failed")
    o = run.check_report(path, "rows", 2, True, True)
    assert o["failed"] == 1


@pytest.mark.parametrize("ok, expected_rows", [(False, 2), (True, 3)])
def test_nonzero_exit_or_missing_rows_fail_every_operation(tmp_path, ok, expected_rows):
    path = write_report(tmp_path / "r.json")
    o = run.check_report(path, "rows", expected_rows, ok, True)
    assert o["failed"] == o["attempted"] == expected_rows
    assert o["problems"]


def test_a_report_outside_the_schema_fails(tmp_path):
    path = write_report(tmp_path / "r.json")
    path.write_text(path.read_text().replace('"kind": "holdout"', '"kind": "other"'))
    o = run.check_report(path, "rows", 2, True, True)
    assert o["failed"] == 2
    assert "schema" in o["problems"][0]


class FailingSetup:
    """A job that passes its checks, with a set-up run that exits 1."""

    attempted = 1

    def __init__(self, out):
        self.out = out

    def setup_command(self, ctx):
        return [sys.executable, "-c", "raise SystemExit(1)"]

    def commands(self, ctx):
        return [[sys.executable, "-c", "pass"]]

    def check(self, ctx, ok):
        return {"attempted": 1, "failed": 0 if ok else 1, "problems": []}


def test_a_set_up_run_that_exits_non_zero_fails_the_run(tmp_path):
    ctx = run.Ctx(seed=1, traced=False, size="tiny", work=tmp_path)
    probes, reps, problems = run.measure(FailingSetup(tmp_path / "out"), ctx, 0)
    assert len(reps) == 1 and reps[0]["check"]["failed"] == 0
    # the warm-up and every timed set-up run are reported
    assert len(problems) == 1 + len(probes) == 1 + 2 * run.SIZES["tiny"]["setup_probes"]
    args = argparse.Namespace(workload="holdout", seed=1, trace=0, size="tiny")
    result = run.summarize(args, ctx, probes, reps, problems)
    assert result["correct"] is False
