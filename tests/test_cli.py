import json
import re

import pytest

from stackga.cli import main
from stackga.config import config_from_dict
from stackga.dataset import PIMA_SCHEMA, load_csv
from stackga.pipeline import run_holdout
from stackga.report import render_report

from test_pipeline import light_config_dict


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

    def test_feature_table_written(self, cfg_path, tmp_path):
        out = tmp_path / "sel"
        run_cli("select", "--config", cfg_path, "--out", out, "-q")
        table = json.loads((out / "feature_table.json").read_text())
        assert len(table) == 8
        assert {"name", "single_feature_cv_accuracy", "ga_selection_frequency",
                "in_best_mask"} <= set(table[0])


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

    @pytest.mark.parametrize("protocol", ["clean", "paper_faithful"])
    def test_train_eval_report_matches_run_holdout(self, pima_csv, tmp_path, protocol):
        d = light_config_dict(pima_csv, protocol=protocol)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--out", out, "-q") == 0
        assert run_cli("eval", "--config", cfg, "--model", out / "model.pkl",
                       "--out", out, "-q") == 0
        direct = render_report(run_holdout(config_from_dict(d)), "json")
        assert (out / "report.json").read_text(encoding="utf-8") == direct

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
        assert run_cli("train", "--config", cfg_path, "--out", out, "-v",
                       "--set", "ga.enabled=false") == 0
        text = capsys.readouterr().out
        assert re.findall(r"^(\w+): \d+\.\d{3}s$", text, re.M) == ["stack"]

    def test_eval_mismatched_config_exits_2(self, cfg_path, pima_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg_path, "--out", out, "-q") == 0
        code = run_cli("eval", "--config", cfg_path, "--model", out / "model.pkl",
                       "--out", out, "--seed", "999", "-q")
        assert code == 2
        assert "different configuration" in capsys.readouterr().err

    def test_eval_with_wrong_artifact_kind_exits_2(self, cfg_path, tmp_path):
        bogus = tmp_path / "bogus.pkl"
        import pickle

        bogus.write_bytes(pickle.dumps({"format": "other"}))
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
