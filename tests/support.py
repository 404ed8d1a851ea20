"""Helpers that only tests use: small synthetic tables, the nine benchmark
learner specs, a fitted tree's depth, a fitted SVM's optimality gap, the
GA's fitness of one mask, a per-mask fitness as `evolve`'s batch fitness,
a holdout run through `stackga train` and `stackga eval`, and drawn valid
reports."""

import json

import numpy as np
from hypothesis import strategies as st

from stackga import cli, genetic
from stackga.dataset import Dataset, Schema
from stackga.learners import LearnerSpec
from stackga.report import FeatureRow, GaSummary, KfoldRow, ModelRow, Report, parse_report
from stackga.rng import child_rng


def make_separable_clouds(n_train: int = 500, n_test: int = 500, mean: float = 3.0,
                          sigma: float = 0.5, seed: int = 0) -> tuple:
    """Two 2-d Gaussian clouds at +/-mean; returns (train, test) Datasets."""
    schema = Schema(("x0", "x1", "label"), 2)

    def one(n, tag):
        rng = child_rng(seed, "clouds", tag)
        n_pos = n // 2
        X = np.vstack([
            rng.normal(+mean, sigma, size=(n_pos, 2)),
            rng.normal(-mean, sigma, size=(n - n_pos, 2)),
        ])
        y = np.array([1] * n_pos + [0] * (n - n_pos), dtype=np.int64)
        perm = rng.permutation(n)
        return Dataset(X[perm], y[perm], schema)

    return one(n_train, "train"), one(n_test, "test")


def make_single_informative(n: int = 400, n_features: int = 5, seed: int = 0) -> Dataset:
    """Only feature 0 carries signal; the rest are independent noise."""
    rng = child_rng(seed, "single-informative")
    X = rng.normal(size=(n, n_features))
    flip = rng.random(n) < 0.08
    y = ((X[:, 0] > 0) ^ flip).astype(np.int64)
    schema = Schema(tuple(f"f{i}" for i in range(n_features)) + ("label",), n_features)
    return Dataset(X, y, schema)


def benchmark_specs(seed: int = 0) -> list:
    """The nine stock benchmark learners with their default hyperparameters."""
    names = ["random_forest", "knn", "mlp", "adaboost", "decision_tree", "gaussian_nb",
             "gradient_boosting", "svm", "extra_trees"]
    return [LearnerSpec(n, {}, seed) for n in names]


def tree_depth(tree) -> int:
    """The depth of a fitted tree's deepest leaf (0 for a lone root)."""
    depth = np.zeros(len(tree.feature), dtype=np.intp)
    for i in np.flatnonzero(tree.left >= 0):  # parents precede children
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return int(depth.max())


def svm_gap(svm, X, y) -> float:
    """A fitted `SmoSvm`'s maximal-violating-pair gap on its training rows
    (`X`, 0/1 `y`), from the fitted model alone: max v over the rows whose
    alpha*y may rise minus min v over those whose alpha*y may fall, where
    v = y - f and f is the decision value (the gap does not depend on the
    bias). Each support vector is matched to the first unmatched training
    row with its standardized values and label; rows that repeat with the
    same label have the same v, so which of them is matched does not matter."""
    X = np.asarray(X, dtype=np.float64)
    t = np.where(np.asarray(y) == 1, 1.0, -1.0)
    Z = (X - svm.mean_) / svm.scale_
    beta = np.zeros(len(t))
    p = 0
    for r in range(len(t)):
        if (p < len(svm.alpha_y_) and np.array_equal(Z[r], svm.support_vectors_[p])
                and np.sign(svm.alpha_y_[p]) == t[r]):
            beta[r] = svm.alpha_y_[p]
            p += 1
    assert p == len(svm.alpha_y_), "a support vector matches no training row"
    v = t - svm.decision_function(X)
    up = beta < np.maximum(0.0, svm.c * t)
    low = beta > np.minimum(0.0, svm.c * t)
    return float(v[up].max() - v[low].min())


def fitness(ch, ds: Dataset, wrapper: LearnerSpec, cv_k: int = 5, seed: int = 0) -> float:
    """The GA's fitness of one mask: the wrapper's CV accuracy on the masked
    columns, over the fold plan that `run_ga` with this seed scores on."""
    bits = np.asarray(ch).astype(np.uint8)
    if not bits.any():
        raise ValueError("fitness needs at least one selected feature")
    if bits.size != ds.n_features:
        raise ValueError(f"mask length {bits.size} != {ds.n_features} features")
    folds = genetic.wrapper_folds(ds, genetic.wrapper_plan(ds, cv_k, seed))
    (accuracy,) = genetic.mask_accuracies(folds, wrapper, [bits])
    return accuracy


def batched(fitness_of_one):
    """`evolve`'s batch fitness function from one that scores one mask."""
    return lambda masks: [fitness_of_one(bits) for bits in masks]


def holdout_report(config: dict, out_dir, *overrides) -> Report:
    """The report of `stackga train` then `stackga eval`, run in-process on
    the holdout config `config` with `--set` `overrides`, as read back from
    the `report.json` that eval writes under `out_dir`. Eval's timings, when
    `report.include_timings` is on, are scoring seconds only."""
    cfg = out_dir / "cfg.json"
    cfg.parent.mkdir(parents=True, exist_ok=True)
    cfg.write_text(json.dumps(config))
    common = ["--config", str(cfg), "--out", str(out_dir), "-q"]
    for item in overrides:
        common += ["--set", item]
    assert cli.main(["train", *common]) == cli.EXIT_OK
    code = cli.main(["eval", *common, "--model", str(out_dir / "model.pkl")])
    report = parse_report((out_dir / "report.json").read_text(encoding="utf-8"))
    assert code == (cli.EXIT_OK if all(r.status == "ok" for r in report.rows)
                    else cli.EXIT_MODEL_FAILURE)
    return report


def reports():
    """A hypothesis strategy of reports whose every value is one that its
    field's annotation allows: fractions in [0, 1], counts and seconds at
    least 0, k at least 2, each status and mask bit one of its values."""
    text = st.text(max_size=8)
    fraction = st.floats(0, 1)
    metric = st.none() | fraction
    seconds = st.floats(min_value=0, allow_infinity=False)
    model_row = st.builds(ModelRow, name=text, accuracy=metric, sensitivity=metric,
                          specificity=metric, fscore=metric, f1=metric, auc=metric,
                          status=st.sampled_from(["ok", "failed"]), error=st.none() | text)
    kfold_row = st.builds(KfoldRow, name=text, k=st.integers(2, 20), mean_accuracy=metric,
                          std=st.none() | seconds,
                          fold_accuracies=st.lists(metric, max_size=5).map(tuple),
                          status=st.sampled_from(["ok", "partial", "failed"]),
                          error=st.none() | text)
    ga = st.builds(GaSummary, mask=st.lists(st.integers(0, 1), max_size=8).map(tuple),
                   feature_names=st.lists(text, max_size=4).map(tuple),
                   best_fitness=fraction, generations=st.integers(0, 500),
                   evaluations=st.integers(0, 5000))
    feature_row = st.builds(FeatureRow, name=text, single_feature_cv_accuracy=fraction,
                            ga_selection_frequency=fraction, in_best_mask=st.booleans())
    return st.builds(
        Report, kind=st.sampled_from(["holdout", "kfold"]),
        protocol=st.sampled_from(["clean", "paper_faithful"]),
        master_seed=st.integers(0, 2**63), rows=st.lists(model_row, max_size=3).map(tuple),
        kfold_rows=st.lists(kfold_row, max_size=3).map(tuple), ga=st.none() | ga,
        feature_table=st.lists(feature_row, max_size=3).map(tuple),
        notes=st.lists(text, max_size=2).map(tuple),
        config_echo=st.dictionaries(text, st.integers() | text, max_size=3),
        timings=st.none() | st.dictionaries(text, seconds, max_size=3))
