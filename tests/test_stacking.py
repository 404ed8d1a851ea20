
import numpy as np
import pytest

from stackga import learners, parallel, stacking
from stackga.config import stack_spec_from_config
from stackga.dataset import Dataset, Schema
from stackga.errors import ConfigError
from stackga.learners import LearnerSpec, predict, train
from stackga.pipeline import holdout_partitions
from stackga.stacking import (
    StackSpec,
    build_level1_dataset,
    predict_proba_stack,
    predict_stack,
    train_stack,
)
from stackga.rng import child_rng

from support import make_separable_clouds, saved_bytes
from test_acceptance import shipped_config

KNN1 = LearnerSpec("knn", {"n_neighbors": 1}, 0)
TREE = LearnerSpec("decision_tree", {}, 1)
LOGIT = LearnerSpec("logistic_regression", {}, 2)
STUMP_META = LearnerSpec("decision_tree", {"max_depth": 1, "max_features": "all"}, 3)


def random_ds(n=100, d=3, seed=0):
    rng = child_rng(seed, "stack-data")
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.4 * rng.normal(size=n) > 0).astype(int)
    schema = Schema(tuple(f"f{i}" for i in range(d)) + ("label",), d)
    return Dataset(X, y, schema)


class TestSpec:
    def test_needs_base_learners(self):
        with pytest.raises(ConfigError):
            StackSpec((), LOGIT)

    def test_mode_validated(self):
        with pytest.raises(ConfigError):
            StackSpec((TREE,), LOGIT, level1_mode="bootstrap")
        with pytest.raises(ConfigError):
            StackSpec((TREE,), LOGIT, level1_mode="out_of_fold", level1_folds=1)
        with pytest.raises(ConfigError):
            StackSpec((TREE,), LOGIT, level1_feature_kind="margin")


class TestBuildLevel1:
    def test_shape_and_labels(self):
        ds = random_ds(100)
        spec = StackSpec((KNN1, TREE), LOGIT, "naive", level1_feature_kind="label")
        d1 = build_level1_dataset(spec, ds).dataset
        assert d1.features.shape == (100, 2)
        assert set(np.unique(d1.features)) <= {0.0, 1.0}
        np.testing.assert_array_equal(d1.labels, ds.labels)
        np.testing.assert_array_equal(d1.row_ids, ds.row_ids)

    def test_naive_memorizer_column_equals_labels(self):
        ds = random_ds(80, seed=4)
        spec = StackSpec((KNN1,), LOGIT, "naive", level1_feature_kind="label")
        d1 = build_level1_dataset(spec, ds).dataset
        np.testing.assert_array_equal(d1.features[:, 0], ds.labels.astype(float))

    def test_out_of_fold_purity(self, pima_split_clean):
        tr, _ = pima_split_clean
        spec = StackSpec((KNN1, TREE), LOGIT, "out_of_fold", level1_folds=5, seed=8)
        level1 = build_level1_dataset(spec, tr)
        d1, assignments, trained_on = level1.dataset, level1.assignments, level1.trained_on
        assert d1.features.shape == (tr.n_samples, 2)
        for i in range(tr.n_samples):
            fold = assignments[i]
            assert tr.row_ids[i] not in trained_on[fold]

    def test_out_of_fold_breaks_memorization(self):
        ds = random_ds(120, seed=5)
        spec = StackSpec((KNN1,), LOGIT, "out_of_fold", level1_folds=4,
                         level1_feature_kind="label", seed=1)
        d1 = build_level1_dataset(spec, ds).dataset
        # held-out knn predictions cannot reproduce every label
        assert (d1.features[:, 0] != ds.labels).any()

    def test_single_class_rejected(self):
        ds = random_ds(40)
        bad = Dataset(ds.features, np.ones_like(ds.labels), ds.schema)
        with pytest.raises(ConfigError):
            build_level1_dataset(StackSpec((TREE,), LOGIT), bad)

    def test_probability_kind_gives_reals(self):
        ds = random_ds(60, seed=2)
        spec = StackSpec((TREE,), LOGIT, "naive", level1_feature_kind="probability")
        d1 = build_level1_dataset(spec, ds).dataset
        assert np.all((d1.features >= 0) & (d1.features <= 1))

    def test_level1_dataset_exports_as_csv(self, tmp_path):
        from stackga.dataset import load_csv, write_csv

        ds = random_ds(30, seed=3)
        d1 = build_level1_dataset(StackSpec((TREE, KNN1), LOGIT, "naive"), ds).dataset
        path = tmp_path / "level1.csv"
        write_csv(d1, path, header=True)
        again = load_csv(path, d1.schema, has_header=True)
        np.testing.assert_allclose(again.features, d1.features)


class TestNaiveRefits:
    """Naive level 1 fits every base on the full training set, which is the
    prediction-time refit; the stack keeps those fits."""

    def test_naive_base_models_are_the_refits(self):
        ds = random_ds(80, seed=12)
        bases = (TREE, KNN1, LearnerSpec("random_forest", {"n_estimators": 5}, 4))
        model = train_stack(StackSpec(bases, LOGIT, "naive"), ds)
        for base, fitted in zip(bases, model.base_models):
            assert saved_bytes(fitted) == saved_bytes(train(base, ds))

    def test_paper_faithful_fit_trains_each_model_once(self, pima_csv, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # count in this process
        calls = []

        def counting_train(spec, ds):
            calls.append(spec.algorithm)
            return learners.train(spec, ds)

        monkeypatch.setattr(stacking, "train", counting_train)
        config = shipped_config("pima_paper_faithful", pima_csv)
        fit_ds, _ = holdout_partitions(config)
        spec = stack_spec_from_config(config)
        assert spec.level1_mode == "naive"
        model = train_stack(spec, fit_ds)
        assert sorted(calls) == sorted([b.algorithm for b in spec.base_specs]
                                       + [spec.meta_spec.algorithm])
        assert len(calls) == 10 and len(model.base_models) == 9


class TestTrainPredict:
    def test_perfect_base_naive_training_accuracy_one(self):
        ds = random_ds(90, seed=6)
        spec = StackSpec((KNN1,), LOGIT, "naive", level1_feature_kind="label")
        model = train_stack(spec, ds)
        assert (predict_stack(model, ds.features) == ds.labels).all()

    def test_boosting_family_metas_accepted(self):
        ds = random_ds(80, seed=7)
        for meta_alg in ("gradient_boosting", "adaboost"):
            meta = LearnerSpec(meta_alg, {}, 5)
            model = train_stack(StackSpec((TREE, KNN1), meta, "naive"), ds)
            assert predict_stack(model, ds.features).shape == (80,)

    def test_stack_at_least_as_good_as_lone_tree(self):
        tr, te = make_separable_clouds(150, 150, mean=2.0, sigma=0.9, seed=3)
        lone = train(TREE, tr)
        lone_acc = (predict(lone, te.features) == te.labels).mean()
        model = train_stack(StackSpec((TREE,), LOGIT, "out_of_fold", 5, seed=2), tr)
        stack_acc = (predict_stack(model, te.features) == te.labels).mean()
        assert stack_acc >= lone_acc

    def test_single_base_with_stump_meta_is_identity(self):
        ds = random_ds(100, seed=9)
        spec = StackSpec((TREE,), STUMP_META, "naive", level1_feature_kind="label")
        model = train_stack(spec, ds)
        base = model.base_models[0]
        pts = child_rng(10, "probe").normal(size=(200, 3))
        np.testing.assert_array_equal(predict_stack(model, pts), predict(base, pts))

    def test_identical_bases_match_single_base(self):
        ds = random_ds(100, seed=11)
        triple = StackSpec((TREE, TREE, TREE), STUMP_META, "naive",
                           level1_feature_kind="label")
        single = StackSpec((TREE,), STUMP_META, "naive", level1_feature_kind="label")
        pts = child_rng(12, "probe2").normal(size=(150, 3))
        np.testing.assert_array_equal(
            predict_stack(train_stack(triple, ds), pts),
            predict_stack(train_stack(single, ds), pts),
        )

    def test_base_order_permutation_with_logistic_meta(self):
        ds = random_ds(50, seed=13)
        fwd = StackSpec((KNN1, TREE), LOGIT, "out_of_fold", 5, seed=4)
        rev = StackSpec((TREE, KNN1), LOGIT, "out_of_fold", 5, seed=4)
        pts = child_rng(14, "probe3").normal(size=(80, 3))
        np.testing.assert_array_equal(
            predict_stack(train_stack(fwd, ds), pts),
            predict_stack(train_stack(rev, ds), pts),
        )

    def test_deterministic_end_to_end(self, pima_split_clean):
        tr, te = pima_split_clean
        spec = StackSpec((TREE, KNN1, LOGIT), LearnerSpec("gradient_boosting", {}, 6),
                         "out_of_fold", 5, seed=21)
        p1 = predict_proba_stack(train_stack(spec, tr), te.features)
        p2 = predict_proba_stack(train_stack(spec, tr), te.features)
        np.testing.assert_array_equal(p1, p2)

    def test_shape_mismatch_rejected(self):
        ds = random_ds(40, seed=15)
        model = train_stack(StackSpec((TREE,), LOGIT, "naive"), ds)
        with pytest.raises(ValueError):
            predict_stack(model, np.zeros((5, 9)))
