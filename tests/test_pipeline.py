import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stackga import parallel, pipeline, stacking
from stackga.cli import main
from stackga.config import (
    PROTOCOLS,
    apply_overrides,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    stack_spec_from_config,
)
from stackga.dataset import load_csv, make_folds, write_csv
from stackga.errors import ConfigError
from stackga.genetic import GaConfig, run_ga
from stackga.learners import LearnerSpec
from stackga.pipeline import (
    error_text,
    evaluate_partition,
    experiment_report,
    feature_report,
    preprocess_pair,
    run_kfold,
    train_group,
    training_groups,
)
from stackga.report import (
    STACK_ROW_GA,
    FeatureRow,
    GaSummary,
    KfoldRow,
    ModelRow,
    Report,
    parse_report,
    render_report,
)
from stackga.rng import child_rng, derive_seed

from support import holdout_report, make_single_informative, reports


def light_config_dict(csv_path, **tweaks):
    d = {
        "version": 1,
        "dataset": {
            "path": str(csv_path),
            "has_header": True,
            "columns": ["pregnancies", "glucose", "blood_pressure", "skinfold",
                        "insulin", "bmi", "pedigree", "age", "outcome"],
            "label_column": "outcome",
            "zero_as_missing": ["glucose", "blood_pressure", "skinfold", "insulin", "bmi"],
        },
        "preprocessing": {"impute": True, "clip": True, "iqr_multiplier": 1.5},
        "split": {"mode": "holdout", "train_fraction": 0.7},
        "learners": ["knn", "decision_tree", "gaussian_nb"],
        "stack": {
            "enabled": True,
            "meta": {"algorithm": "logistic_regression"},
            "level1_mode": "out_of_fold",
            "level1_folds": 3,
        },
        "ga": {"enabled": True, "cv_folds": 3, "maxgen": 12, "stall_generations": 6,
               "subpop": 2, "nind": 10},
        "protocol": "clean",
        "master_seed": 11,
        "report": {},
    }
    d.update(tweaks)
    return d


@pytest.fixture(scope="module")
def light_config(pima_csv):
    return config_from_dict(light_config_dict(pima_csv))


@pytest.fixture(scope="module")
def light_report(pima_csv, tmp_path_factory):
    """The light config's holdout report from `stackga train` and `eval`,
    timings included."""
    return holdout_report(light_config_dict(pima_csv), tmp_path_factory.mktemp("light"),
                          "report.include_timings=true")


class TestConfigParsing:
    def test_unknown_top_key(self, pima_csv):
        d = light_config_dict(pima_csv)
        d["misc"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*misc"):
            config_from_dict(d)

    def test_unknown_nested_key(self, pima_csv):
        d = light_config_dict(pima_csv)
        d["ga"]["population"] = 4
        with pytest.raises(ConfigError, match="ga"):
            config_from_dict(d)

    def test_label_by_name_resolved(self, light_config):
        assert light_config.dataset.label_column == 8

    def test_bad_learner_algorithm(self, pima_csv):
        d = light_config_dict(pima_csv, learners=["quantum_forest"])
        with pytest.raises(ConfigError, match="quantum_forest"):
            config_from_dict(d)

    def test_bad_hyperparameter_caught_at_parse(self, pima_csv):
        d = light_config_dict(
            pima_csv, learners=[{"algorithm": "knn", "hyperparameters": {"k": 3}}]
        )
        with pytest.raises(ConfigError, match="unknown hyperparameters"):
            config_from_dict(d)

    @pytest.mark.parametrize("entry,message", [
        ({"algorithm": ["knn"]}, "unknown algorithm"),
        ({"algorithm": "knn", "hyperparameters": []}, "hyperparameters must be an object"),
        ({"algorithm": "knn", "hyperparameters": "ab"}, "hyperparameters must be an object"),
    ])
    def test_malformed_learner_entry_names_its_place(self, pima_csv, entry, message):
        d = light_config_dict(pima_csv, learners=[entry])
        with pytest.raises(ConfigError, match=re.escape("learners[0]") + ".*" + message):
            config_from_dict(d)

    def test_version_checked(self, pima_csv):
        d = light_config_dict(pima_csv, version=99)
        with pytest.raises(ConfigError, match="version"):
            config_from_dict(d)

    def test_nothing_enabled_rejected(self, pima_csv):
        d = light_config_dict(pima_csv, learners=[])
        d["stack"]["enabled"] = False
        with pytest.raises(ConfigError, match="nothing to run"):
            config_from_dict(d)

    @pytest.mark.parametrize("section,key,value", [
        ("split", "ks", []),
        ("split", "ks", [5, True]),
        ("split", "ks", [3, 3]),
        (None, "master_seed", True),
        (None, "master_seed", 1.5),
        ("preprocessing", "iqr_multiplier", 0),
        ("ga", "nind", "abc"),
        ("ga", "mutation_rate", 2.0),
        ("ga", "stall_generations", 0),
        ("stack", "level1_feature_kind", "margin"),
    ])
    def test_bad_value_names_its_key(self, pima_csv, section, key, value):
        d = light_config_dict(pima_csv)
        (d[section] if section else d)[key] = value
        where = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=re.escape(where)):
            config_from_dict(d)

    @pytest.mark.parametrize("section,key,value,message", [
        ("split", "mode", "loo", "split.mode must be one of ['holdout', 'kfold'], got 'loo'"),
        (None, "protocol", "leaky",
         "protocol must be one of ['clean', 'paper_faithful'], got 'leaky'"),
        ("split", "train_fraction", 1,
         "split.train_fraction must be greater than 0 and less than 1, got 1"),
        ("preprocessing", "iqr_multiplier", 0,
         "preprocessing.iqr_multiplier must be greater than 0, got 0"),
        ("split", "ks", [5, 1], "split.ks[1] must be at least 2, got 1"),
        ("ga", "cv_folds", 1, "ga.cv_folds must be at least 2, got 1"),
        ("dataset", "columns", ["a", 7], "dataset.columns[1] must be a string, got 7"),
    ])
    def test_annotated_value_is_refused_by_the_reader(self, pima_csv, section, key, value,
                                                      message):
        d = light_config_dict(pima_csv)
        (d[section] if section else d)[key] = value
        with pytest.raises(ConfigError) as caught:
            config_from_dict(d)
        assert str(caught.value) == message

    @pytest.mark.parametrize("key,value,message", [
        ("level1_mode", "bogus",
         "stack.level1_mode must be one of ['naive', 'out_of_fold'], got 'bogus'"),
        ("level1_feature_kind", "nope",
         "stack.level1_feature_kind must be one of ['label', 'probability'], got 'nope'"),
        ("level1_folds", -3, "stack.level1_folds must be at least 2 for out_of_fold stacking"),
    ])
    def test_a_disabled_stack_is_checked_too(self, pima_csv, key, value, message):
        d = light_config_dict(pima_csv)
        d["stack"].update({"enabled": False, key: value})
        with pytest.raises(ConfigError) as caught:
            config_from_dict(d)
        assert str(caught.value) == message

    @pytest.mark.parametrize("section,keys", [
        ("report", {"path": "out/report.json", "format": "json"}),
        ("ga", {"nvar": 9}),
        ("ga", {"preci": 20}),
    ])
    def test_removed_keys_are_unknown_in_their_section(self, pima_csv, section, keys):
        d = light_config_dict(pima_csv)
        d[section].update(keys)
        where = f"{section}: unknown keys {sorted(keys)}"
        with pytest.raises(ConfigError, match=re.escape(where)):
            config_from_dict(d)

    @pytest.mark.parametrize("algorithm,key,value", [
        ("svm", "kernel", "poly"), ("svm", "kernel", ["rbf"]), ("svm", "gamma", "auto"),
        ("svm", "gamma", 0), ("svm", "gamma", float("inf")), ("svm", "gamma", True),
        ("decision_tree", "criterion", "mse"), ("decision_tree", "criterion", ["gini"]),
        ("decision_tree", "max_features", "log2"), ("decision_tree", "max_features", 0),
        ("decision_tree", "max_features", 2.0),
        ("random_forest", "criterion", "mse"), ("random_forest", "max_features", "log2"),
        ("extra_trees", "max_features", True), ("adaboost", "criterion", "log_loss"),
        ("random_forest", "n_estimators", 0), ("random_forest", "n_estimators", True),
        ("gradient_boosting", "n_estimators", 2.5), ("extra_trees", "n_estimators", -1),
        ("adaboost", "n_estimators", "100"),
        ("decision_tree", "max_depth", "3"), ("decision_tree", "max_depth", 0),
        ("extra_trees", "max_depth", -2), ("random_forest", "max_depth", 2.0),
        ("adaboost", "learning_rate", -1), ("adaboost", "learning_rate", float("inf")),
        ("gradient_boosting", "learning_rate", 0),
        ("svm", "c", -1), ("svm", "c", float("nan")), ("svm", "tol", 0),
        ("svm", "coef0", float("inf")), ("svm", "coef0", "0"),
        ("svm", "max_pass_factor", 0), ("svm", "max_pass_factor", 1.5),
        ("gaussian_nb", "var_smoothing", -1), ("gaussian_nb", "var_smoothing", None),
    ])
    def test_bad_hyperparameter_value_names_its_learner_and_key(self, pima_csv, algorithm,
                                                                 key, value):
        d = light_config_dict(pima_csv)
        d["learners"].append({"algorithm": algorithm, "hyperparameters": {key: value}})
        with pytest.raises(ConfigError, match=rf"^learners\[3\]: {algorithm}: .*{key}"):
            config_from_dict(d)

    def test_ga_section_is_the_ga_config_knobs(self, light_config):
        knobs = [f.name for f in dataclasses.fields(GaConfig) if f.name not in ("n_bits", "seed")]
        assert list(config_to_dict(light_config)["ga"]) == ["enabled", "wrapper", "cv_folds"] + knobs
        assert light_config.ga_run_config == GaConfig(n_bits=8, nind=10, maxgen=12, subpop=2,
                                                      stall_generations=6)

    def test_load_config_round_trip(self, pima_csv, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(light_config_dict(pima_csv)))
        cfg = load_config(p)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_hash_stable_and_sensitive(self, light_config):
        h1 = config_hash(light_config)
        assert h1 == config_hash(light_config)
        other = config_from_dict({**config_to_dict(light_config), "master_seed": 99})
        assert config_hash(other) != h1


class TestOverrides:
    def test_simple_override(self, light_config):
        raw = config_to_dict(light_config)
        out = apply_overrides(raw, ["ga.enabled=false", "master_seed=5"])
        assert out["ga"]["enabled"] is False
        assert out["master_seed"] == 5

    def test_list_index_override(self, light_config):
        raw = config_to_dict(light_config)
        out = apply_overrides(raw, ["learners.0.algorithm=mlp"])
        assert out["learners"][0]["algorithm"] == "mlp"

    def test_unknown_key_rejected(self, light_config):
        raw = config_to_dict(light_config)
        with pytest.raises(ConfigError, match="no such config key"):
            apply_overrides(raw, ["ga.turbo=true"])

    def test_malformed_override(self, light_config):
        with pytest.raises(ConfigError, match="key.path=value"):
            apply_overrides(config_to_dict(light_config), ["justakey"])

    @pytest.mark.parametrize("override,message", [
        ("learners.x.algorithm=mlp", "override 'learners.x.algorithm': 'x' is not a list index"),
        ("learners.9=knn", "override 'learners.9': index 9 out of range"),
        ("ga.turbo.x=1", "override 'ga.turbo.x': no such config key 'turbo'"),
        ("master_seed.x=1", "override 'master_seed.x': cannot assign into a scalar"),
        ("master_seed.x.y=1", "override 'master_seed.x.y': 'x' is not a section"),
    ])
    def test_bad_override_path_names_its_part(self, light_config, override, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            apply_overrides(config_to_dict(light_config), [override])


class TestHoldout:
    def test_rows_and_stack_row(self, light_report):
        report = light_report
        names = [r.name for r in report.rows]
        assert names == ["KNN", "D tree Classifier", "NB", STACK_ROW_GA]
        assert all(r.status == "ok" for r in report.rows)
        for r in report.rows:
            for v in (r.accuracy, r.sensitivity, r.specificity, r.auc):
                assert v is None or 0 <= v <= 1
        assert report.ga is not None
        assert 1 <= sum(report.ga.mask) <= 8

    def test_failed_model_does_not_abort(self, pima_csv, tmp_path):
        # k larger than the training part: knn must fail, others survive
        d = light_config_dict(pima_csv)
        d["learners"] = [
            {"algorithm": "knn", "hyperparameters": {"n_neighbors": 100000}},
            "decision_tree",
        ]
        d["stack"]["base"] = ["decision_tree"]  # a stack that trains
        report = holdout_report(d, tmp_path)
        by_name = {r.name: r for r in report.rows}
        assert by_name["KNN"].status == "failed"
        assert "n_neighbors" in by_name["KNN"].error
        assert by_name["D tree Classifier"].status == "ok"

    def test_determinism_byte_identical(self, pima_csv, tmp_path):
        d = light_config_dict(pima_csv)
        a = render_report(holdout_report(d, tmp_path / "a"), "json")
        b = render_report(holdout_report(d, tmp_path / "b"), "json")
        assert a == b

    def test_timings_recorded_but_not_rendered(self, light_report):
        assert set(light_report.timings) == {r.name for r in light_report.rows}
        assert all(v >= 0 for v in light_report.timings.values())
        assert "timings" not in json.loads(render_report(light_report, "json"))
        assert "timings" in json.loads(render_report(light_report, "json", include_timings=True))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_training_groups_fit_and_evaluate_the_protocols_rows(pima_csv, protocol):
    """Clean: a group's fit and eval rows are disjoint, the holdout split
    covers every row once, and k-fold evaluates every row exactly once per k.
    paper_faithful: every evaluated row is a fit row, and the report says so."""
    for split in ({"mode": "holdout", "train_fraction": 0.7},
                  {"mode": "kfold", "ks": [2, 3], "stratified": True}):
        cfg = config_from_dict(light_config_dict(pima_csv, split=split, protocol=protocol))
        n = load_csv(cfg.dataset.path, cfg.dataset.schema(), cfg.dataset.has_header).n_samples
        evaluated = {}
        for group in training_groups(cfg):
            fit_rows = set(group.fit_ds.row_ids.tolist())
            for k, eval_ds in group.parts:
                rows = eval_ds.row_ids.tolist()
                evaluated.setdefault(k, []).extend(rows)
                if protocol == "clean":
                    assert fit_rows.isdisjoint(rows)
                    if k is None:
                        assert sorted(fit_rows | set(rows)) == list(range(n))
                else:
                    assert fit_rows.issuperset(rows)
        if protocol == "clean" and split["mode"] == "kfold":
            assert sorted(evaluated) == [2, 3]
            assert all(sorted(rows) == list(range(n)) for rows in evaluated.values())
    inflated = any("inflated" in note for note in experiment_report(cfg, {}).notes)
    assert inflated == (protocol == "paper_faithful")


class TestKfold:
    def test_table_shape(self, pima_csv):
        d = light_config_dict(pima_csv)
        d["split"] = {"mode": "kfold", "ks": [3, 4], "stratified": True}
        d["ga"]["enabled"] = False
        report = run_kfold(config_from_dict(d))
        ks = sorted({r.k for r in report.kfold_rows})
        assert ks == [3, 4]
        for r in report.kfold_rows:
            assert len(r.fold_accuracies) == r.k
            assert r.mean_accuracy == pytest.approx(np.mean(r.fold_accuracies))
            assert r.std == pytest.approx(np.std(r.fold_accuracies))

    def test_timings_per_row_and_k(self, pima_csv):
        for protocol, ga_keys in (("clean", {"ga (k=3)", "ga (k=4)"}),
                                  ("paper_faithful", {"ga"})):
            d = light_config_dict(pima_csv, protocol=protocol)
            d["split"] = {"mode": "kfold", "ks": [3, 4], "stratified": True}
            report = run_kfold(config_from_dict(d))
            expected = {f"{r.name} (k={r.k})" for r in report.kfold_rows} | ga_keys
            assert set(report.timings) == expected
            assert all(v >= 0 for v in report.timings.values())
            assert "timings" not in json.loads(render_report(report, "json"))

    def test_no_ga_runs_without_a_stack_to_read_its_mask(self, pima_csv, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_ga(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_ga", counted)
        d = light_config_dict(pima_csv)
        d["split"] = {"mode": "kfold", "ks": [3], "stratified": True}
        d["stack"]["enabled"] = False
        report = run_kfold(config_from_dict(d))
        assert calls == []
        assert not any(key.startswith("ga") for key in report.timings)
        assert report.notes == (pipeline.CLEAN_NOTE,)
        assert [r.name for r in report.kfold_rows] == ["KNN", "D tree Classifier", "NB"]

    def test_leave_one_out_small(self, tmp_path):
        ds = make_single_informative(n=10, n_features=2, seed=0)
        path = tmp_path / "ten.csv"
        write_csv(ds, path, header=True)
        d = {
            "version": 1,
            "dataset": {"path": str(path), "has_header": True,
                        "columns": ["f0", "f1", "label"], "label_column": "label",
                        "zero_as_missing": []},
            "preprocessing": {"impute": False, "clip": False},
            "split": {"mode": "kfold", "ks": [10], "stratified": False},
            "learners": [{"algorithm": "knn", "hyperparameters": {"n_neighbors": 3}}],
            "stack": {"enabled": False},
            "ga": {"enabled": False},
            "master_seed": 1,
        }
        report = run_kfold(config_from_dict(d))
        assert len(report.kfold_rows) == 1
        assert len(report.kfold_rows[0].fold_accuracies) == 10

    def test_determinism(self, pima_csv):
        d = light_config_dict(pima_csv)
        d["split"] = {"mode": "kfold", "ks": [3], "stratified": True}
        cfg = config_from_dict(d)
        assert render_report(run_kfold(cfg), "json") == render_report(run_kfold(cfg), "json")

    def test_holdout_kfold_consistency_band(self, pima_csv, tmp_path):
        # sanity band asserted as a warning, never a failure
        d = light_config_dict(pima_csv)
        d["ga"]["enabled"] = False
        hold = holdout_report(d, tmp_path)
        d["split"] = {"mode": "kfold", "ks": [5], "stratified": True}
        fold = run_kfold(config_from_dict(d))
        hold_acc = {r.name: r.accuracy for r in hold.rows}
        fold_acc = {r.name: r.mean_accuracy for r in fold.kfold_rows}
        for name in hold_acc:
            gap = abs(hold_acc[name] - fold_acc[name])
            if gap >= 0.15:
                warnings.warn(f"{name}: holdout/kfold gap {gap:.3f} exceeds 0.15")


def trained_group(cfg, ds):
    """The configured models trained on `ds` by `train_group`, with no GA run."""
    no_ga = dataclasses.replace(cfg, ga=dataclasses.replace(cfg.ga, enabled=False))
    return train_group(no_ga, ds, None)


def paper_faithful_kfold_dict(csv_path, ks):
    d = light_config_dict(csv_path, protocol="paper_faithful")
    d["split"] = {"mode": "kfold", "ks": ks, "stratified": True}
    return d


class TestSharedModels:
    """A paper_faithful run trains every model once and scores every split's
    test rows with it; a clean run trains per split."""

    @pytest.fixture
    def count_fits(self, monkeypatch):
        """Pins the run to one CPU and returns the list that collects every
        learner spec trained through `pipeline` and `stacking`."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        fits = []
        for module in (pipeline, stacking):
            def counted(spec, ds, _train=module.train):
                fits.append(spec)
                return _train(spec, ds)
            monkeypatch.setattr(module, "train", counted)
        return fits

    def test_paper_faithful_kfold_fits_each_distinct_model_once(self, pima_csv, count_fits):
        cfg = config_from_dict(paper_faithful_kfold_dict(pima_csv, [3, 4]))
        run_kfold(cfg)
        bases = stack_spec_from_config(cfg).base_specs
        assert len(count_fits) == len(cfg.learners) + len(bases) + 1
        assert len({repr(spec) for spec in count_fits}) == len(count_fits)

    def test_clean_kfold_fits_every_fold(self, pima_csv, count_fits):
        d = light_config_dict(pima_csv)
        d["split"] = {"mode": "kfold", "ks": [3, 4], "stratified": True}
        cfg = config_from_dict(d)
        run_kfold(cfg)
        n_bases = len(stack_spec_from_config(cfg).base_specs)
        # per fold: the singles, level-1 fits, base refits and the meta fit
        per_fold = len(cfg.learners) + cfg.stack.level1_folds * n_bases + n_bases + 1
        assert len(count_fits) == sum(cfg.split.ks) * per_fold

    def test_shipped_paper_faithful_xval_fits_19_models(self, pima_csv, count_fits):
        raw = config_to_dict(load_config("configs/pima_xval.json"))
        raw["dataset"]["path"] = str(pima_csv)
        raw["protocol"] = "paper_faithful"
        run_kfold(config_from_dict(raw))
        assert len(count_fits) == 19

    def test_rows_match_a_per_fold_reference(self, pima_csv):
        cfg = config_from_dict(paper_faithful_kfold_dict(pima_csv, [3, 4]))
        ds = load_csv(cfg.dataset.path, cfg.dataset.schema(), cfg.dataset.has_header)
        full, _, _ = preprocess_pair(ds, ds, cfg.preprocessing)
        expected = []
        for k in cfg.split.ks:
            plan = make_folds(ds, k, cfg.split.stratified,
                              seed=derive_seed(cfg.master_seed, "kfold", k))
            # the models retrained for every fold, each scoring one part
            per_fold = [evaluate_partition(cfg, train_group(cfg, full, ("global",)),
                                           [full.take(plan.test_indices(f))])[0][0]
                        for f in range(k)]
            for i, row in enumerate(per_fold[0]):
                accs = tuple(rows[i].accuracy for rows in per_fold)
                expected.append(KfoldRow(name=row.name, k=k, mean_accuracy=float(np.mean(accs)),
                                         std=float(np.std(accs)), fold_accuracies=accs))
        assert list(run_kfold(cfg).kfold_rows) == expected

    def test_failed_fit_fails_its_row_in_every_part(self, pima_csv):
        d = light_config_dict(pima_csv, learners=[
            {"algorithm": "knn", "hyperparameters": {"n_neighbors": 100000}}, "gaussian_nb"])
        d["stack"]["enabled"] = False
        cfg = config_from_dict(d)
        ds = load_csv(cfg.dataset.path, cfg.dataset.schema(), cfg.dataset.has_header)
        parts = evaluate_partition(cfg, trained_group(cfg, ds),
                                   [ds.take(range(10)), ds.take(range(10, 30))])
        for rows, _, timings in parts:
            assert [r.status for r in rows] == ["failed", "ok"]
            assert "n_neighbors" in rows[0].error
            assert set(timings) == {"KNN", "NB"}

    def test_failed_paper_faithful_ga_fails_only_the_stack_rows(self, pima_csv, tmp_path,
                                                                monkeypatch):
        def broken_ga(*args, **kwargs):
            raise RuntimeError("no GA today")

        monkeypatch.setattr(pipeline, "run_ga", broken_ga)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(paper_faithful_kfold_dict(pima_csv, [3, 4, 5])))
        assert main(["xval", "--config", str(cfg), "--out", str(tmp_path), "-q"]) == 1
        rows = json.loads((tmp_path / "report.json").read_text())["kfold_rows"]
        singles = [r for r in rows if r["name"] != STACK_ROW_GA]
        stacks = [r for r in rows if r["name"] == STACK_ROW_GA]
        assert len(singles) == 9 and all(r["status"] == "ok" for r in singles)
        assert [r["k"] for r in stacks] == [3, 4, 5]
        for r in stacks:
            assert r["status"] == "failed"
            assert r["error"] == "RuntimeError: no GA today"


class TestTrainGroup:
    def test_singles_first_and_the_ga_last_in_one_task_list(self, light_config, pima_csv,
                                                            monkeypatch):
        lists = []

        def recorded(fn, tasks):
            lists.append([t[0] for t in tasks])
            return parallel.run_tasks(fn, tasks)

        monkeypatch.setattr(pipeline, "run_tasks", recorded)
        d = light_config_dict(pima_csv)
        d["split"] = {"mode": "kfold", "ks": [3], "stratified": True}
        run_kfold(config_from_dict(d))
        n = len(light_config.learners)
        assert lists == [[pipeline.train] * n + [pipeline.ga_mask]] * 3  # one per fold

    def test_a_failed_ga_returns_its_error_beside_the_singles(self, light_config,
                                                              monkeypatch):
        def broken_ga(*args, **kwargs):
            raise RuntimeError("no GA today")

        monkeypatch.setattr(pipeline, "run_ga", broken_ga)
        fit_ds, _ = pipeline.holdout_partitions(light_config)
        fit = train_group(light_config, fit_ds, ("holdout",))
        ga_run, seconds, error = fit.ga
        assert ga_run is None and seconds >= 0 and error_text(error) == "RuntimeError: no GA today"
        assert [m.spec.algorithm for m, _, e in fit.singles if e is None] == \
            [e["algorithm"] for e in light_config.learners]
        assert fit.stack == (None, 0.0, error) and fit.mask is None


class TestFeatureReport:
    def test_informative_feature_tops_table(self):
        ds = make_single_informative(n=240, n_features=4, seed=2)
        wrapper = LearnerSpec("logistic_regression", {}, 5)
        cfg = GaConfig(n_bits=4, nind=8, subpop=2, maxgen=10, miggen=4,
                       stall_generations=5, seed=3)
        run = run_ga(cfg, ds, wrapper, cv_k=3)
        table = feature_report(ds, wrapper, run, cv_k=3, seed=3)
        assert table[0].name == "f0"
        best_single = max(table, key=lambda r: r.single_feature_cv_accuracy)
        best_freq = max(table, key=lambda r: r.ga_selection_frequency)
        assert best_single.name == "f0"
        assert best_freq.name == "f0"
        assert table[0].in_best_mask

    def test_noise_dataset_near_majority_rate(self):
        rng = child_rng(8, "noise")
        from stackga.dataset import Dataset, Schema

        X = rng.normal(size=(300, 3))
        y = (rng.random(300) < 0.6).astype(int)  # labels independent of X
        ds = Dataset(X, y, Schema(("a", "b", "c", "label"), 3))
        wrapper = LearnerSpec("logistic_regression", {}, 5)
        cfg = GaConfig(n_bits=3, nind=6, subpop=2, maxgen=5, stall_generations=3, seed=0)
        run = run_ga(cfg, ds, wrapper, cv_k=3)
        table = feature_report(ds, wrapper, run, cv_k=3, seed=0)
        majority = max(y.mean(), 1 - y.mean())
        for row in table:
            assert abs(row.single_feature_cv_accuracy - majority) < 0.08


class TestRendering:
    def test_json_round_trip(self, light_report):
        again = parse_report(render_report(light_report, "json", include_timings=True))
        assert again == Report(**{**light_report.__dict__})

    def test_json_round_trip_of_every_row_kind(self):
        report = Report(
            kind="kfold", protocol="clean", master_seed=3,
            rows=(ModelRow(name="A", accuracy=0.5, sensitivity=1.0, specificity=0.0,
                           fscore=None, f1=0.25, auc=0.75),
                  ModelRow(name="B", status="failed", error="ValueError: boom")),
            kfold_rows=(KfoldRow(name="A", k=3, mean_accuracy=0.5, std=0.125,
                                 fold_accuracies=(0.375, None, 0.625), status="partial",
                                 error="ValueError: fold 2"),
                        KfoldRow(name="B", k=3, status="failed", error="ValueError: boom")),
            ga=GaSummary(mask=(1, 0, 1), feature_names=("x", "z"), best_fitness=0.875,
                         generations=4, evaluations=31),
            feature_table=(FeatureRow("x", 0.75, 0.5, True), FeatureRow("y", 0.5, 0.0, False)),
            notes=("a note",), config_echo={"version": 1, "split": {"ks": [3]}},
            timings={"A (k=3)": 0.25, "ga": 1.5},
        )
        text = render_report(report, "json", include_timings=True)
        assert parse_report(text) == report
        assert "timings" not in json.loads(render_report(report, "json"))

    @given(st.data())
    def test_any_rendered_report_parses_back_equal(self, data):
        report = data.draw(reports())
        include_timings = data.draw(st.booleans())
        again = parse_report(render_report(report, "json", include_timings=include_timings))
        assert again == (report if include_timings else dataclasses.replace(report, timings=None))

    def test_empty_report_renders(self):
        empty = Report(kind="holdout", protocol="clean", master_seed=0)
        for fmt in ("json", "csv", "markdown"):
            text = render_report(empty, fmt)
            assert text.endswith("\n")

    def test_markdown_has_row_per_model(self, light_report):
        md = render_report(light_report, "markdown")
        assert "| Model |" in md
        for r in light_report.rows:
            assert f"| {r.name} |" in md

    def test_csv_na_for_undefined(self):
        report = Report(kind="holdout", protocol="clean", master_seed=0,
                        rows=(ModelRow(name="X", status="failed", error="boom"),))
        csv = render_report(report, "csv")
        assert "n/a" in csv

    def test_unknown_format_rejected(self, light_report):
        with pytest.raises(ConfigError, match="unknown report format"):
            render_report(light_report, "yaml")
