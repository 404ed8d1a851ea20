import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stackga import genetic, learners, parallel, pipeline, stacking
from stackga.cli import main
from stackga.config import config_from_dict
from stackga.dataset import PIMA_SCHEMA, load_csv, write_csv
from stackga.errors import DataError
from stackga.persist import load_artifact, save_artifact
from stackga.pipeline import holdout_partitions

from test_pipeline import light_config_dict

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def cfg_path(pima_csv, tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(light_config_dict(pima_csv)))
    return p


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestPrep:
    def test_writes_clean_csv_and_summary(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("prep", "--config", cfg_path, "--out", out) == 0
        text = capsys.readouterr().out
        assert "master_seed=" in text and "config_hash=" in text
        clean = load_csv(out / "pima_like_clean.csv", PIMA_SCHEMA, has_header=True)
        for fi in clean.schema.zero_missing_feature_indices:
            assert (clean.features[:, fi] != 0).all()
        summary = json.loads((out / "prep_summary.json").read_text())
        assert summary["rows"] == 768
        assert summary["imputed"]["insulin"] > 0

    def test_idempotent_output(self, cfg_path, pima_csv, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert run_cli("prep", "--config", cfg_path, "--out", out1, "-q") == 0
        # re-prep the cleaned file: nothing left to change
        cfg2 = tmp_path / "cfg2.json"
        d = light_config_dict(out1 / "pima_like_clean.csv")
        d["preprocessing"]["clip"] = False  # clipping is not idempotent by nature
        cfg2.write_text(json.dumps(d))
        assert run_cli("prep", "--config", cfg2, "--out", out2, "-q") == 0
        again = (out2 / "pima_like_clean_clean.csv").read_bytes()
        ref = (out1 / "pima_like_clean.csv").read_bytes()
        assert again == ref
        summary = json.loads((out2 / "prep_summary.json").read_text())
        assert summary["imputed"] == {}

    def test_missing_input_exits_3(self, pima_csv, tmp_path, capsys):
        d = light_config_dict(tmp_path / "nope.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        assert run_cli("prep", "--config", cfg, "--out", tmp_path) == 3
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("columns", ["pregnancies", "glucose", "blood_pressure", "skinfold", "insulin", "bmi",
                     "age", "age", "outcome"], "schema column names must be unique"),
        ("zero_as_missing", ["glucose", "outcome"],
         "label column cannot be a zero-as-missing column"),
    ])
    @pytest.mark.parametrize("command", ["prep", "train"])
    def test_bad_dataset_section_exits_2_before_any_file_is_read(self, tmp_path, capsys,
                                                                 command, key, value, message):
        d = light_config_dict(tmp_path / "nope.csv")
        d["dataset"][key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        assert run_cli(command, "--config", cfg, "--out", tmp_path) == 2
        assert capsys.readouterr().err == f"config error: dataset: {message}\n"


class TestSelect:
    def test_mask_and_history(self, cfg_path, tmp_path):
        out = tmp_path / "sel"
        assert run_cli("select", "--config", cfg_path, "--out", out, "-q") == 0
        mask = json.loads((out / "mask.json").read_text())
        assert 1 <= len(mask["selected"]) <= 8
        assert len(mask["mask"]) == 8
        history = (out / "ga_history.csv").read_text().splitlines()
        assert history[0] == "generation,subpop,best,mean"
        assert len(history) > 1

    def test_disabled_ga_exits_2(self, cfg_path, tmp_path, capsys):
        code = run_cli("select", "--config", cfg_path, "--out", tmp_path,
                       "--set", "ga.enabled=false")
        assert code == 2
        assert "disabled" in capsys.readouterr().err

    def test_fixed_seed_reproducible(self, cfg_path, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        run_cli("select", "--config", cfg_path, "--out", o1, "-q")
        run_cli("select", "--config", cfg_path, "--out", o2, "-q")
        assert (o1 / "mask.json").read_bytes() == (o2 / "mask.json").read_bytes()

    def test_closed_stdout_still_writes_every_file(self, cfg_path, tmp_path):
        """A reader that has gone (`stackga select -v | head -0`) costs the
        lines it would have read, not the command's files or exit code."""
        out = tmp_path / "sel"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "stackga.cli", "select", "--config", str(cfg_path),
                 "--out", str(out), "-v"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": str(SRC)})
        finally:
            os.close(write_end)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert {p.name for p in out.iterdir()} == {"mask.json", "ga_history.csv",
                                                   "feature_table.json"}

    def test_feature_table_written(self, cfg_path, tmp_path):
        out = tmp_path / "sel"
        run_cli("select", "--config", cfg_path, "--out", out, "-q")
        table = json.loads((out / "feature_table.json").read_text())
        assert len(table) == 8
        assert {"name", "single_feature_cv_accuracy", "ga_selection_frequency",
                "in_best_mask"} <= set(table[0])


def _ga_search_line(text):
    lines = [ln for ln in text.splitlines() if ln.startswith("ga search:")]
    assert len(lines) <= 1
    return dict(kv.split("=") for kv in lines[0].split(": ", 1)[1].split()) if lines else None


class TestGaSearchStatistics:
    def test_select_verbose_prints_the_search_statistics(self, cfg_path, tmp_path, capsys):
        quiet, loud = tmp_path / "q", tmp_path / "v"
        assert run_cli("select", "--config", cfg_path, "--out", quiet) == 0
        assert _ga_search_line(capsys.readouterr().out) is None
        assert run_cli("select", "--config", cfg_path, "--out", loud, "-v") == 0
        stats = _ga_search_line(capsys.readouterr().out)
        ga = json.loads(cfg_path.read_text())["ga"]
        mask = json.loads((loud / "mask.json").read_text())
        generations = int(stats["generations"])
        requests = ga["nind"] * ga["subpop"] * (1 + generations)
        assert generations == mask["generations"]
        assert int(stats["evaluations"]) == mask["evaluations"]
        assert int(stats["requests"]) == requests
        assert int(stats["cache_hits"]) == requests - mask["evaluations"]
        assert stats["stall_stop"] == ("yes" if generations < ga["maxgen"] else "no")
        for name in ("mask.json", "ga_history.csv", "feature_table.json"):
            assert (quiet / name).read_bytes() == (loud / name).read_bytes()

    @pytest.mark.parametrize("maxgen,stopped", [(1, "no"), (200, "yes")])
    def test_stall_stop_is_read_from_the_generation_count(self, cfg_path, tmp_path, capsys,
                                                         maxgen, stopped):
        assert run_cli("select", "--config", cfg_path, "--out", tmp_path, "-v",
                       "--set", f"ga.maxgen={maxgen}", "--set", "ga.stall_generations=2") == 0
        stats = _ga_search_line(capsys.readouterr().out)
        assert stats["stall_stop"] == stopped
        assert (int(stats["generations"]) == 1) == (maxgen == 1)

    @pytest.mark.parametrize("wrapper,table", [("logistic_regression", True),
                                               ("gaussian_nb", False)])
    def test_a_filled_mask_table_is_named_with_its_ties(self, cfg_path, tmp_path, capsys,
                                                        wrapper, table):
        """A logistic regression wrapper over 8 features fills the table of
        all 255 masks; the line then says how many tie at its best fitness
        and whether the GA's mask is its best. Another wrapper fills none."""
        assert run_cli("select", "--config", cfg_path, "--out", tmp_path, "-v",
                       "--set", f'ga.wrapper={{"algorithm": "{wrapper}"}}') == 0
        stats = _ga_search_line(capsys.readouterr().out)
        if not table:
            assert not {"table", "best_ties", "ga_is_best"} & set(stats)
            return
        assert stats["table"] == "255" and int(stats["best_ties"]) >= 1
        assert stats["ga_is_best"] in ("yes", "no")
        mask = json.loads((tmp_path / "mask.json").read_text())
        assert int(stats["evaluations"]) == mask["evaluations"] < 255

    def test_train_verbose_prints_the_search_statistics(self, cfg_path, tmp_path, capsys):
        assert run_cli("train", "--config", cfg_path, "--out", tmp_path / "a") == 0
        assert _ga_search_line(capsys.readouterr().out) is None
        assert run_cli("train", "--config", cfg_path, "--out", tmp_path / "b", "-v") == 0
        stats = _ga_search_line(capsys.readouterr().out)
        assert int(stats["requests"]) - int(stats["evaluations"]) == int(stats["cache_hits"])
        assert (tmp_path / "a" / "model.pkl").read_bytes() == \
            (tmp_path / "b" / "model.pkl").read_bytes()


class TestTrainEval:
    def test_train_then_eval(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q") == 0
        assert run_cli("eval", "--config", cfg_path, "--model", out / "model.pkl",
                       "--out", out, "-q") == 0
        report = json.loads((out / "report.json").read_text())
        names = [r["name"] for r in report["rows"]]
        assert "Suggest Method (ST-GA)" in names
        assert (out / "roc_suggest_method_st_ga.csv").exists()
        assert (out / "roc_knn.csv").exists()
        roc = (out / "roc_knn.csv").read_text().splitlines()
        assert roc[0] == "fpr,tpr"

    def test_verbose_eval_prints_row_times(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q") == 0
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg_path, "--model", out / "model.pkl",
                       "--out", out) == 0
        assert not re.search(r": \d+\.\d{3}s$", capsys.readouterr().out, re.M)
        assert run_cli("eval", "--config", cfg_path, "--model", out / "model.pkl",
                       "--out", out, "-v") == 0
        text = capsys.readouterr().out
        for row in json.loads((out / "report.json").read_text())["rows"]:
            assert re.search(rf"^{re.escape(row['name'])}: \d+\.\d{{3}}s$", text, re.M)

    def test_verbose_train_prints_step_times(self, cfg_path, pima_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out) == 0
        assert not re.search(r": \d+\.\d{3}s$", capsys.readouterr().out, re.M)
        assert run_cli("train", "--config", cfg_path, "--out", out, "-v") == 0
        text = capsys.readouterr().out
        assert re.findall(r"^(\w+): \d+\.\d{3}s$", text, re.M) == ["ga", "stack"]
        assert re.findall(r"^(.+) fit: \d+\.\d{3}s$", text, re.M) == \
            ["KNN", "D tree Classifier", "NB"]  # the singles, fitted beside the GA
        assert run_cli("train", "--config", cfg_path, "--out", out, "-v",
                       "--set", "ga.enabled=false") == 0
        text = capsys.readouterr().out
        assert re.findall(r"^(\w+): \d+\.\d{3}s$", text, re.M) == ["stack"]

    def test_verbose_train_says_when_an_svm_did_not_converge(self, pima_like, tmp_path,
                                                             capsys):
        csv = tmp_path / "small.csv"
        write_csv(pima_like.take(range(120)), csv, header=True)  # 84 fit rows
        d = light_config_dict(csv)
        # the linear kernel at a large c stops at its cap of 84 updates
        d["learners"] = [
            {"algorithm": "svm",
             "hyperparameters": {"kernel": "linear", "c": 100.0, "max_pass_factor": 1}},
            {"algorithm": "svm", "hyperparameters": {"kernel": "rbf"}},
        ]
        d["ga"]["enabled"] = False
        d["stack"]["base"] = ["gaussian_nb"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out, "-v") == 0
        lines = re.findall(r"^(.+) fit: \d+\.\d{3}s(.*)$", capsys.readouterr().out, re.M)
        (linear, _), (rbf, _) = load_artifact(out / "model.pkl", "stack-bundle")["singles"]
        assert not linear.impl.converged_ and linear.impl.n_iter_ == 84
        assert rbf.impl.converged_
        assert rbf.impl.convergence_note() == ""
        note = linear.impl.convergence_note()
        assert re.fullmatch(r"not converged: 84 iterations, optimality gap [0-9.e+-]+", note)
        assert lines == [("SVM", f" ({note})"), ("SVM (2)", "")]

    def test_eval_trains_nothing(self, cfg_path, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q") == 0
        fits = []

        def counted(fit):
            def spy(*args, **kwargs):
                fits.append(args[0])
                return fit(*args, **kwargs)
            return spy

        for module in (learners, pipeline, stacking):
            monkeypatch.setattr(module, "train", counted(learners.train))
        monkeypatch.setattr(genetic, "stack_labels", counted(learners.stack_labels))
        assert run_cli("eval", "--config", cfg_path, "--model", out / "model.pkl",
                       "--out", out, "-q") == 0
        assert fits == []
        report = json.loads((out / "report.json").read_text())
        assert len(report["rows"]) == 4 and all(r["status"] == "ok" for r in report["rows"])

    def test_single_failed_in_train_is_the_same_failed_row_in_eval(self, pima_csv,
                                                                   tmp_path, capsys):
        d = light_config_dict(pima_csv)
        d["learners"] = [{"algorithm": "knn", "hyperparameters": {"n_neighbors": 100000}},
                         "gaussian_nb"]
        d["stack"]["base"] = ["gaussian_nb", "decision_tree"]  # a stack that trains
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out, "-q") == 0
        assert run_cli("eval", "--config", cfg, "--model", out / "model.pkl",
                       "--out", out, "-q") == 1
        rows = {r["name"]: r for r in json.loads((out / "report.json").read_text())["rows"]}
        assert rows["KNN"]["status"] == "failed"
        fit_ds, _ = holdout_partitions(config_from_dict(d))
        assert rows["KNN"]["error"] == (f"ValueError: n_neighbors=100000 exceeds "
                                        f"{fit_ds.n_samples} training samples")
        assert rows["NB"]["status"] == "ok"

    def test_train_exits_with_the_failed_searchs_own_code(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q",
                       "--set", "ga.cv_folds=1000") == 3
        assert "cannot make 1000 folds" in capsys.readouterr().err
        assert not (out / "model.pkl").exists()

    def test_train_runs_a_failing_search_once(self, cfg_path, tmp_path, capsys, monkeypatch):
        calls = []

        def broken_ga(*args, **kwargs):
            calls.append(args)
            raise DataError("no GA today")

        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # the search runs here
        monkeypatch.setattr(pipeline, "run_ga", broken_ga)
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q") == 3
        assert len(calls) == 1
        assert "no GA today" in capsys.readouterr().err
        assert not (out / "model.pkl").exists()

    def test_train_exits_1_with_the_failed_stacks_error(self, pima_csv, tmp_path, capsys):
        d = light_config_dict(pima_csv)
        # more neighbours than a level-1 fold has rows, fewer than the fit set
        d["stack"]["base"] = [{"algorithm": "knn", "hyperparameters": {"n_neighbors": 500}}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out, "-q") == 1
        assert re.search(r"^runtime error: ValueError: n_neighbors=500 exceeds \d+ training",
                         capsys.readouterr().err, re.M)
        assert not (out / "model.pkl").exists()

    def test_eval_refuses_a_version_2_artifact(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q") == 0
        header, rest = (out / "model.pkl").read_bytes().split(b"\n", 1)
        fmt, _, digest = header.split(b" ")
        old = tmp_path / "old.pkl"
        old.write_bytes(b" ".join([fmt, b"2", digest]) + b"\n" + rest)
        assert run_cli("eval", "--config", cfg_path, "--model", old,
                       "--out", tmp_path / "eval", "-q") == 2
        err = capsys.readouterr().err
        assert "artifact version 2 unsupported" in err and "retrain" in err
        assert not (tmp_path / "eval").exists()

    def test_eval_mismatched_config_exits_2(self, cfg_path, pima_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q") == 0
        code = run_cli("eval", "--config", cfg_path, "--model", out / "model.pkl",
                       "--out", out, "--seed", "999", "-q")
        assert code == 2
        assert "different configuration" in capsys.readouterr().err

    def test_eval_with_wrong_artifact_kind_exits_2(self, cfg_path, tmp_path):
        bogus = tmp_path / "bogus.pkl"
        save_artifact(bogus, "other", {})
        assert run_cli("eval", "--config", cfg_path, "--model", bogus,
                       "--out", tmp_path, "-q") == 2

    def test_eval_truncated_artifact_exits_2(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q") == 0
        model = out / "model.pkl"
        model.write_bytes(model.read_bytes()[:1000])
        assert run_cli("eval", "--config", cfg_path, "--model", model,
                       "--out", out, "-q") == 2
        err = capsys.readouterr().err
        assert str(model) in err and "retrain" in err

    def test_eval_bundle_with_a_damaged_key_exits_2(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q") == 0
        model = out / "model.pkl"
        bundle = load_artifact(model, "stack-bundle")
        bundle["Fingerprint"] = bundle.pop("fingerprint")
        save_artifact(model, "stack-bundle", bundle)
        assert run_cli("eval", "--config", cfg_path, "--model", model,
                       "--out", out, "-q") == 2
        err = capsys.readouterr().err
        assert "missing keys ['fingerprint']" in err and "'Fingerprint'" in err
        assert not (out / "report.json").exists()

    def test_eval_schema_change_names_mismatch(self, cfg_path, pima_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q") == 0
        d = light_config_dict(pima_csv)
        d["dataset"]["columns"] = [c.upper() for c in d["dataset"]["columns"]]
        d["dataset"]["label_column"] = "OUTCOME"
        d["dataset"]["zero_as_missing"] = []
        cfg2 = tmp_path / "other_schema.json"
        cfg2.write_text(json.dumps(d))
        code = run_cli("eval", "--config", cfg2, "--model", out / "model.pkl",
                       "--out", out, "-q")
        assert code == 2
        assert "dataset" in capsys.readouterr().err


class TestXval:
    def test_byte_identical_reports(self, pima_csv, tmp_path):
        d = light_config_dict(pima_csv)
        d["split"] = {"mode": "kfold", "ks": [3], "stratified": True}
        cfg = tmp_path / "xval.json"
        cfg.write_text(json.dumps(d))
        o1, o2 = tmp_path / "x1", tmp_path / "x2"
        assert run_cli("xval", "--config", cfg, "--out", o1, "-q") == 0
        assert run_cli("xval", "--config", cfg, "--out", o2, "-q") == 0
        assert (o1 / "report.json").read_bytes() == (o2 / "report.json").read_bytes()

    def test_verbose_prints_row_times(self, pima_csv, tmp_path, capsys):
        d = light_config_dict(pima_csv)
        d["split"] = {"mode": "kfold", "ks": [3], "stratified": True}
        d["ga"]["enabled"] = False
        cfg = tmp_path / "xval.json"
        cfg.write_text(json.dumps(d))
        assert run_cli("xval", "--config", cfg, "--out", tmp_path, "-v") == 0
        text = capsys.readouterr().out
        rows = json.loads((tmp_path / "report.json").read_text())["kfold_rows"]
        assert len(rows) == 4
        for row in rows:
            name = f"{row['name']} (k={row['k']})"
            assert re.search(rf"^{re.escape(name)}: \d+\.\d{{3}}s$", text, re.M)

    def test_wrong_mode_exits_2(self, cfg_path, tmp_path):
        assert run_cli("xval", "--config", cfg_path, "--out", tmp_path, "-q") == 2


BAD_VALUES = [
    ("ga.nind=1", "ga.nind"),
    ("ga.migr=5", "ga.migr"),
    ("stack.level1_mode=bogus", "stack.level1_mode"),
    ("split.ks=[1]", "split.ks"),
    ("preprocessing.iqr_multiplier=-1", "preprocessing.iqr_multiplier"),
    ('master_seed="abc"', "master_seed"),
]


@pytest.mark.parametrize("k", [0, -2, 2.5, True])
def test_bad_knn_n_neighbors_exits_2_naming_it(pima_csv, tmp_path, capsys, k):
    d = light_config_dict(pima_csv)
    d["learners"] = [{"algorithm": "knn", "hyperparameters": {"n_neighbors": k}}]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "out", "-q") == 2
    assert "n_neighbors" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.pkl").exists()


@pytest.mark.parametrize("learner,key,value", [
    ("mlp", "batch_size", 0),
    ("mlp", "hidden_units", 0),
    ("mlp", "max_iter", -1),
    ("mlp", "learning_rate_init", 0),
    ("logistic_regression", "max_iter", 0),
    ("logistic_regression", "reg_strength", -1),
    ("logistic_regression", "tol", 0),
    ("svm", "kernel", "poly"),
    ("svm", "gamma", "auto"),
    ("decision_tree", "criterion", "mse"),
    ("decision_tree", "max_features", "log2"),
    ("random_forest", "n_estimators", 0),
    ("decision_tree", "max_depth", "3"),
    ("gradient_boosting", "n_estimators", 2.5),
    ("decision_tree", "max_depth", 0),
    ("extra_trees", "max_depth", -2),
    ("svm", "c", -1),
    ("svm", "tol", 0),
    ("svm", "max_pass_factor", 0),
    ("adaboost", "learning_rate", -1),
    ("gradient_boosting", "learning_rate", 0),
    ("gaussian_nb", "var_smoothing", -1),
    pytest.param("svm", "c", 10**400, id="svm-c-past-the-float-range"),
    pytest.param("random_forest", "n_estimators", 10**400,
                 id="random_forest-n_estimators-past-the-float-range"),
])
def test_bad_learner_value_exits_2_naming_it(pima_csv, tmp_path, capsys, learner, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(light_config_dict(pima_csv)))
    entry = json.dumps([{"algorithm": learner, "hyperparameters": {key: value}}])
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "out", "-q",
                   "--set", f"learners={entry}", "--set", "ga.enabled=false") == 2
    err = capsys.readouterr().err
    assert key in err and learner in err
    assert not (tmp_path / "out" / "model.pkl").exists()


def test_a_config_with_removed_keys_exits_2_naming_them(pima_csv, tmp_path, capsys):
    d = light_config_dict(pima_csv)
    d["report"] = {"path": "out/report.json", "format": "markdown"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "out", "-q") == 2
    assert "config error: report: unknown keys ['format', 'path']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "xval"])
@pytest.mark.parametrize("override,key", BAD_VALUES)
def test_bad_value_exits_2_naming_it_before_any_output(pima_csv, tmp_path, capsys,
                                                       command, override, key):
    d = light_config_dict(pima_csv)
    if command == "xval":
        d["split"] = {"mode": "kfold", "ks": [3], "stratified": True}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", out, "--set", override, "-q") == 2
    assert key in capsys.readouterr().err
    assert not (out / "model.pkl").exists() and not (out / "report.json").exists()


def test_a_disabled_stacks_bad_setting_exits_2_naming_it(pima_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(light_config_dict(pima_csv)))
    out = tmp_path / "out"
    assert run_cli("train", "--config", cfg, "--out", out, "--set", "stack.enabled=false",
                   "--set", "stack.level1_mode=bogus", "-q") == 2
    assert capsys.readouterr().err == ("config error: stack.level1_mode must be one of "
                                       "['naive', 'out_of_fold'], got 'bogus'\n")
    assert not out.exists()


class TestReportCommand:
    def test_rerender_markdown_and_csv(self, pima_csv, tmp_path):
        d = light_config_dict(pima_csv)
        d["split"] = {"mode": "kfold", "ks": [3], "stratified": True}
        d["ga"]["enabled"] = False
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / "r"
        assert run_cli("xval", "--config", cfg, "--out", out, "-q") == 0
        assert run_cli("report", "--report", out / "report.json",
                       "--format", "markdown", "--out", out) == 0
        md = (out / "report.md").read_text()
        assert "| Model | k=3 |" in md
        assert run_cli("report", "--report", out / "report.json",
                       "--format", "csv", "--out", out) == 0
        assert (out / "report.csv").read_text().startswith("name,k,mean_accuracy")

    def test_non_report_json_exits_2(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{\"hello\": 1}")
        assert run_cli("report", "--report", p, "--format", "csv", "--out", tmp_path) == 2

    @pytest.mark.parametrize("path,value,named", [
        (("rows", 0, "accuracy"), "x", "report.rows[0].accuracy must be a number, got 'x'"),
        (("notes",), "abc", "report.notes must be a list, got 'abc'"),
        (("master_seed",), "s", "report.master_seed must be an integer, got 's'"),
        (("kind",), None, "report.kind must be a string, got None"),
        (("version",), 99, "unsupported report version 99"),
        (("ga", "feature_names", 1), 7, "report.ga.feature_names[1] must be a string, got 7"),
        (("kfold_rows",), [{"name": "A", "k": 3, "fold_accuracies": ["x", {"a": 1}],
                            "status": "bogus"}],
         "report.kfold_rows[0].fold_accuracies[0] must be a number, got 'x'"),
        (("kfold_rows",), [{"name": "A", "k": 3, "fold_accuracies": [0.5, {"a": 1}]}],
         "report.kfold_rows[0].fold_accuracies[1] must be a number, got {'a': 1}"),
        (("kfold_rows",), [{"name": "A", "k": 3, "fold_accuracies": [0.5, None],
                            "status": "bogus"}],
         "report.kfold_rows[0].status must be one of ['failed', 'ok', 'partial'], got 'bogus'"),
        (("kind",), "nonsense", "report.kind must be one of ['holdout', 'kfold'], got 'nonsense'"),
        (("rows", 0, "status"), "bogus",
         "report.rows[0].status must be one of ['failed', 'ok'], got 'bogus'"),
        (("rows", 0, "accuracy"), 1.7,
         "report.rows[0].accuracy must be at least 0 and at most 1, got 1.7"),
        (("ga", "mask", 0), 7, "report.ga.mask[0] must be one of [0, 1], got 7"),
        (("protocol",), "leaky",
         "report.protocol must be one of ['clean', 'paper_faithful'], got 'leaky'"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_malformed_report_exits_2_naming_its_field(self, tmp_path, capsys, path, value,
                                                       named, fmt):
        shipped = Path(__file__).resolve().parents[1] / "out" / "holdout" / "report.json"
        d = json.loads(shipped.read_text(encoding="utf-8"))
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert run_cli("report", "--report", p, "--format", fmt, "--out", tmp_path) == 2
        assert capsys.readouterr().err == f"config error: {p}: not a report JSON ({named})\n"
        assert not (tmp_path / f"report.{'md' if fmt == 'markdown' else fmt}").exists()

    def test_invalid_json_report_exits_2(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        p.write_text("{\"kind\": ")
        assert run_cli("report", "--report", p, "--format", "csv", "--out", tmp_path) == 2
        assert f"{p}: not a report JSON (Expecting value" in capsys.readouterr().err


class TestArgumentHandling:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("explode")
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, cfg_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("prep", "--config", cfg_path, "--frobnicate")
        assert exc.value.code == 2

    def test_help_documents_flags(self, capsys):
        for command in ("prep", "select", "train", "eval", "xval", "report"):
            with pytest.raises(SystemExit) as exc:
                run_cli(command, "--help")
            assert exc.value.code == 0
            text = capsys.readouterr().out
            if command != "report":
                for flag in ("--config", "--seed", "--set", "--out"):
                    assert flag in text

    def test_bad_override_exits_2(self, cfg_path, tmp_path, capsys):
        assert run_cli("prep", "--config", cfg_path, "--out", tmp_path,
                       "--set", "ga.warp=9") == 2
        assert "no such config key" in capsys.readouterr().err

    def test_seed_flag_changes_hash(self, cfg_path, tmp_path, capsys):
        run_cli("prep", "--config", cfg_path, "--out", tmp_path / "a")
        first = capsys.readouterr().out.splitlines()[0]
        run_cli("prep", "--config", cfg_path, "--out", tmp_path / "b", "--seed", "123")
        second = capsys.readouterr().out.splitlines()[0]
        assert first != second
        assert "master_seed=123" in second
