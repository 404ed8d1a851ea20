"""Tiny-size runs of every workload through the benchmark's own checks."""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import spans

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.splitlines()[-1])


def digest(stdout):
    return re.search(r"sha256\s+([0-9a-f]{64})", stdout).group(1)


def test_benchmark_json_names_what_the_code_reports():
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [
        (n, spans.layer_unit(n)) for n in spans.layer_metric_names()
    ]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_passes_its_checks(workload):
    stdout, result = tiny(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert "error_rate" in stdout


def test_traced_run_reports_every_layer_and_keeps_report_bytes():
    plain, _ = tiny("holdout", 0)
    traced, result = tiny("holdout", 1)
    assert result["correct"] is True
    assert list(result["metrics"]) == spans.layer_metric_names()
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["genetic.evaluations"] > 0 and m["stacking.level1_fits"] > 0
    assert m["persist.save_s"] > 0 and m["persist.load_s"] > 0
    assert m["learners.logistic_regression.fit_calls"] > 0
    assert digest(plain) == digest(traced)


def test_traced_score_run_times_the_predict_path():
    _, result = tiny("score", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["stacking.predict_s"] > 0 and m["persist.load_s"] > 0
    assert m["dataset.rows_loaded"] == run.SIZES["tiny"]["score_rows"]
    assert m["genetic.evaluations"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "holdout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
