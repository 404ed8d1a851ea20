"""Acceptance suite: ten quantitative gates, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here, not tuned at runtime.
"""

import dataclasses
import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from stackga.config import config_from_dict, config_to_dict, load_config
from stackga.genetic import (
    GaConfig,
    apply_two_point,
    evolve,
    mutate_bit_inversion,
    rank_scale,
    roulette_select,
)
from stackga.learners import LearnerSpec, predict, train
from stackga.learners.mlp import MlpClassifier
from stackga.metrics import (
    ConfusionMatrix,
    accuracy,
    auc,
    confusion,
    fscore,
    roc_curve,
    sensitivity,
    specificity,
)
from stackga.pipeline import holdout_partitions
from stackga.report import STACK_ROW_GA, render_report
from stackga.rng import child_rng, derive_seed
from stackga.stacking import StackSpec, build_level1_dataset
from support import batched, benchmark_specs, fitness, holdout_report, make_separable_clouds
from test_metrics import brute_confusion, pair_count_auc


@contextmanager
def criterion(number, label, budget_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label} "
              f"[{time.perf_counter() - t0:.1f}s]")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number}: PASS - {label} [{elapsed:.1f}s]")
    assert elapsed < budget_seconds, f"runtime budget exceeded: {elapsed:.1f}s"


def shipped_config(name, csv_path, **extra_raw):
    cfg = load_config(f"configs/{name}.json")
    raw = config_to_dict(cfg)
    raw["dataset"]["path"] = str(csv_path)
    raw.update(extra_raw)
    return config_from_dict(raw)


@pytest.fixture(scope="module")
def holdout_run(pima_csv, tmp_path_factory):
    """The shipped holdout config run through `stackga train` and `eval`:
    (config, report, seconds)."""
    cfg = shipped_config("pima_holdout", pima_csv)
    t0 = time.perf_counter()
    report = holdout_report(config_to_dict(cfg), tmp_path_factory.mktemp("holdout"))
    return cfg, report, time.perf_counter() - t0


def test_criterion_1_metric_oracle():
    with criterion(1, "metric formulas match a brute-force tally", 1.0):
        rng = child_rng(101, "metric-oracle")
        for _ in range(1000):
            n = int(rng.integers(1, 300))
            y_true = rng.integers(0, 2, n)
            y_pred = rng.integers(0, 2, n)
            cm = confusion(y_true, y_pred)
            tp, tn, fp, fn = brute_confusion(y_true, y_pred)
            assert (cm.tp, cm.tn, cm.fp, cm.fn) == (tp, tn, fp, fn)
            ref = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
            for metric in (accuracy, sensitivity, specificity, fscore):
                mine, theirs = metric(cm), metric(ref)
                if mine is None or theirs is None:
                    assert mine is None and theirs is None
                else:
                    assert abs(mine - theirs) < 1e-12
            # explicit re-derivation of each formula
            assert abs(accuracy(cm) - (tp + tn) / n) < 1e-12
            if tp + fn:
                assert abs(sensitivity(cm) - tp / (tp + fn)) < 1e-12
            if tn + fp:
                assert abs(specificity(cm) - tn / (tn + fp)) < 1e-12


def test_criterion_2_auc_oracle():
    with criterion(2, "trapezoidal AUC equals pair counting with half ties", 5.0):
        rng = child_rng(102, "auc-oracle")
        for trial in range(500):
            n = int(rng.integers(4, 201))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            scores = rng.random(n)
            if trial % 2:
                scores = np.round(scores, 1)  # force ties half the time
            assert abs(auc(roc_curve(y, scores)) - pair_count_auc(y, scores)) < 1e-12


def test_criterion_3_ga_operator_suite():
    with criterion(3, "GA operators: crossover, mutation, roulette, ranking", 10.0):
        # exhaustive double-point locus check at length 6
        rng = child_rng(103, "locus")
        for _ in range(10):
            a = rng.integers(0, 2, 6).astype(np.uint8)
            b = rng.integers(0, 2, 6).astype(np.uint8)
            for p, q in itertools.combinations(range(7), 2):
                o1, o2 = apply_two_point(a, b, p, q)
                for i in range(6):
                    src1, src2 = (b, a) if p <= i < q else (a, b)
                    assert o1[i] == src1[i] and o2[i] == src2[i]

        # mutation flip count within 5 sigma of Binomial(trials*length, rate)
        rng = child_rng(103, "flips")
        ch = np.ones(1000, dtype=np.uint8)
        trials, rate = 1000, 0.1
        flips = sum(
            int((mutate_bit_inversion(ch, rate, rng) != ch).sum())
            for _ in range(trials)
        )
        mean = trials * 1000 * rate
        sigma = np.sqrt(trials * 1000 * rate * (1 - rate))
        assert abs(flips - mean) < 5 * sigma

        # roulette frequencies within 1% at 1e5 draws
        rng = child_rng(103, "roulette")
        picks = roulette_select([1.0, 1.0], 100_000, rng)
        assert abs((picks == 0).mean() - 0.5) < 0.01
        picks = roulette_select([1.0, 3.0], 100_000, rng)
        assert abs((picks == 1).mean() - 0.75) < 0.01

        # linear ranking closed form for N in {2, 3, 10}
        for n in (2, 3, 10):
            f = np.linspace(0.0, 1.0, n)
            for sp in (1.0, 1.5, 2.0):
                w = rank_scale(f, sp)
                expected = [2 - sp + 2 * (sp - 1) * r / (n - 1) for r in range(n)]
                np.testing.assert_allclose(w, expected, atol=1e-12)


def test_criterion_4_ga_onemax_oracle():
    with criterion(4, "OneMax reaches the optimum in >=95/100 seeded runs", 60.0):
        params = dict(n_bits=30, nind=20, subpop=5, maxgen=100, migr=0.2,
                      insr=0.95, miggen=20)
        wins = 0
        for seed in range(100):
            run = evolve(GaConfig(seed=seed, **params),
                         batched(lambda bits: bits.sum() / bits.size))
            wins += int(run.best_fitness == 1.0)
            hist = np.array(run.history)[:, :, 0]
            assert (np.diff(hist, axis=0) >= 0).all(), f"seed {seed}: non-monotone"
            assert len(run.history) <= 100
        assert wins >= 95, f"only {wins}/100 runs reached the optimum"


def test_criterion_5_learner_sanity():
    with criterion(5, "all ten learners >=95% on the separable synthetic", 120.0):
        tr, te = make_separable_clouds(500, 500, mean=3.0, sigma=0.5, seed=5)
        specs = benchmark_specs(3) + [LearnerSpec("logistic_regression", {}, 3)]
        for spec in specs:
            model = train(spec, tr)
            acc = (predict(model, te.features) == te.labels).mean()
            assert acc >= 0.95, f"{spec.algorithm}: {acc:.3f}"


def test_criterion_6_mlp_gradient_check():
    with criterion(6, "MLP analytic gradients match finite differences", 1.0):
        rng = child_rng(106, "grad")
        X = rng.normal(size=(5, 3))
        y = np.array([0, 1, 1, 0, 1])
        params = MlpClassifier(hidden_units=8)._init_params(3, rng)
        _, grads = MlpClassifier.loss_and_grads(params, X, y)
        eps = 1e-6
        worst = 0.0
        for key in params:
            flat = params[key].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _ = MlpClassifier.loss_and_grads(params, X, y)
                flat[idx] = orig - eps
                down, _ = MlpClassifier.loss_and_grads(params, X, y)
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                analytic = grads[key].reshape(-1)[idx]
                rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, rel)
        assert worst < 1e-4, f"worst relative error {worst:.2e}"


def test_criterion_7_stacking_shape_and_leakage(pima_csv, pima_split_clean):
    with criterion(7, "level-1 shape, out-of-fold purity, naive leakage demo", 60.0):
        tr, _ = pima_split_clean
        bases = (
            LearnerSpec("knn", {}, 1),
            LearnerSpec("decision_tree", {}, 2),
            LearnerSpec("gaussian_nb", {}, 3),
        )
        meta = LearnerSpec("logistic_regression", {}, 4)

        spec = StackSpec(bases, meta, "out_of_fold", level1_folds=5, seed=6)
        level1 = build_level1_dataset(spec, tr)
        d1, assignments, trained_on = level1.dataset, level1.assignments, level1.trained_on
        assert d1.features.shape == (tr.n_samples, len(bases))
        np.testing.assert_array_equal(d1.labels, tr.labels)
        for i in range(tr.n_samples):
            assert tr.row_ids[i] not in trained_on[assignments[i]], (
                f"row {tr.row_ids[i]} predicted by a model that saw it"
            )

        memorizer = (LearnerSpec("knn", {"n_neighbors": 1}, 7),)
        naive = StackSpec(memorizer, meta, "naive", level1_feature_kind="label")
        d1_naive = build_level1_dataset(naive, tr).dataset
        np.testing.assert_array_equal(d1_naive.features[:, 0], tr.labels.astype(float))


def test_criterion_8_end_to_end_holdout(pima_csv, holdout_run, tmp_path):
    with criterion(8, "end-to-end holdout: honest bands + leakage inflation", 420.0):
        cfg, report, elapsed = holdout_run
        # (a) completes inside the runtime budget
        assert elapsed < 300.0, f"clean holdout took {elapsed:.0f}s"
        # (d) full benchmark-table layout: nine singles + the stacked row
        names = [r.name for r in report.rows]
        assert names == ["RF", "KNN", "MLP", "Ada boost", "D tree Classifier",
                         "NB", "GBC", "SVM", "Extra Tree", STACK_ROW_GA]
        assert all(r.status == "ok" for r in report.rows)
        singles = {r.name: r.accuracy for r in report.rows if r.name != STACK_ROW_GA}
        st_ga = [r for r in report.rows if r.name == STACK_ROW_GA][0]
        # (b) honest accuracy floor
        assert st_ga.accuracy >= 0.75, f"ST-GA {st_ga.accuracy:.3f} < 0.75"
        # (c) competitive with the best single base learner
        best_single = max(singles.values())
        assert st_ga.accuracy >= best_single - 0.02, (
            f"ST-GA {st_ga.accuracy:.3f} vs best single {best_single:.3f}"
        )
        # the clean report records why 0.98-style numbers are not reproduced
        assert any("0.98" in n and "Leakage analysis" in n for n in report.notes)

        # paper-faithful mode must exceed 0.90, demonstrating the inflation
        raw = config_to_dict(cfg)
        raw["protocol"] = "paper_faithful"
        faithful_report = holdout_report(raw, tmp_path)
        st_leaky = [r for r in faithful_report.rows if r.name == STACK_ROW_GA][0]
        assert st_leaky.accuracy > 0.90, f"leaky ST-GA only {st_leaky.accuracy:.3f}"
        assert st_leaky.accuracy > st_ga.accuracy


def test_holdout_report_equals_committed_reference(holdout_run):
    """The shipped holdout config reproduces `out/holdout/report.json` byte for byte."""
    _, report, _ = holdout_run
    echo = report.config_echo
    echo = {**echo, "dataset": {**echo["dataset"], "path": "data/pima_like.csv"}}
    rendered = render_report(dataclasses.replace(report, config_echo=echo), "json")
    with open("out/holdout/report.json", "rb") as fh:
        assert rendered.encode("utf-8") == fh.read()


def test_sigmoid_svm_ranks_forwards_on_the_clean_holdout_split(holdout_run):
    """On raw-scale columns the sigmoid kernel saturated and the SVM row read
    0.370 accuracy and 0.156 AUC; on standardized inputs it ranks forwards."""
    _, report, _ = holdout_run
    (svm,) = [r for r in report.rows if r.name == "SVM"]
    assert svm.auc >= 0.85 and svm.accuracy >= 0.80, (svm.accuracy, svm.auc)


def test_criterion_9_feature_selection(pima_csv, holdout_run):
    with criterion(9, "GA mask beats or ties the full feature set", 180.0):
        cfg, report, _ = holdout_run
        assert report.ga is not None
        assert 1 <= len(report.ga.feature_names) <= 8
        # compare against the full mask under the identical fold plan
        fit_ds, _ = holdout_partitions(cfg)
        wrapper = LearnerSpec(
            cfg.ga.wrapper["algorithm"],
            dict(cfg.ga.wrapper["hyperparameters"]),
            derive_seed(cfg.master_seed, "ga-wrapper"),
        )
        ga_seed = derive_seed(cfg.master_seed, "ga", "holdout")
        full_fitness = fitness(np.ones(8, dtype=np.uint8), fit_ds, wrapper,
                               cv_k=cfg.ga.cv_folds, seed=ga_seed)
        assert report.ga.best_fitness >= full_fitness - 0.01, (
            f"mask CV {report.ga.best_fitness:.4f} vs full {full_fitness:.4f}"
        )
        # reference anecdote is cited, not asserted
        assert any("0.93" in n and "5 selected features" in n for n in report.notes)


def test_criterion_10_xval_determinism(pima_csv, tmp_path):
    with criterion(10, "xval reports byte-identical across invocations", 600.0):
        from stackga.cli import main

        cfg = shipped_config("pima_xval", pima_csv)
        assert tuple(cfg.split.ks) == (5, 10, 15)
        cfg_path = tmp_path / "xval.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg), indent=2))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["xval", "--config", str(cfg_path), "--out", str(out1), "-q"]) == 0
        assert main(["xval", "--config", str(cfg_path), "--out", str(out2), "-q"]) == 0
        b1 = (out1 / "report.json").read_bytes()
        b2 = (out2 / "report.json").read_bytes()
        assert b1 == b2
        rows = json.loads(b1)["kfold_rows"]
        ks = sorted({r["k"] for r in rows})
        names = {r["name"] for r in rows}
        assert ks == [5, 10, 15]
        assert STACK_ROW_GA in names and len(names) == 10
