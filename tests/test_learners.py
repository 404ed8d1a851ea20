import numpy as np
import pytest

from stackga.dataset import Dataset, Schema
from stackga.errors import ConfigError
from stackga.learners import (
    LearnerSpec,
    benchmark_specs,
    both_classes,
    labels_from_proba,
    predict,
    predict_proba,
    train,
)
from stackga.learners.adaboost import AdaBoost
from stackga.learners.boosting import GradientBoosting
from stackga.learners.linear import LogisticRegression
from stackga.learners.mlp import MlpClassifier
from stackga.learners.tree import ClassificationTree
from stackga.persist import load_artifact, save_artifact
from stackga.rng import child_rng

SCHEMA2 = Schema(("a", "b", "label"), 2)


def tiny_ds(X, y, n_features=2):
    names = tuple(f"c{i}" for i in range(n_features)) + ("label",)
    return Dataset(np.asarray(X, float), np.asarray(y), Schema(names, n_features))


@pytest.fixture(scope="module")
def all_specs():
    return benchmark_specs(3) + [
        LearnerSpec("logistic_regression", {}, 3),
        LearnerSpec("bagging", {}, 3),
    ]


class TestSpecValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            LearnerSpec("perceptron_9000", {})

    def test_unknown_hyperparameter(self):
        with pytest.raises(ConfigError, match="unknown hyperparameters"):
            LearnerSpec("knn", {"n_neighbours": 3})

    @pytest.mark.parametrize("k", [0, -2, 2.5, True, "5", None])
    def test_knn_n_neighbors_must_be_a_positive_int(self, k):
        with pytest.raises(ConfigError, match="n_neighbors"):
            LearnerSpec("knn", {"n_neighbors": k})

    @pytest.mark.parametrize("key", ["hidden_units", "batch_size", "max_iter"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "8", None])
    def test_mlp_counts_must_be_positive_ints(self, key, value):
        with pytest.raises(ConfigError, match=key):
            LearnerSpec("mlp", {key: value})

    @pytest.mark.parametrize("value", [0, -1e-3, float("nan"), float("inf"), True, "0.1"])
    def test_mlp_learning_rate_init_must_be_positive(self, value):
        with pytest.raises(ConfigError, match="learning_rate_init"):
            LearnerSpec("mlp", {"learning_rate_init": value})

    @pytest.mark.parametrize("key,value", [
        ("max_iter", 0), ("max_iter", -5), ("max_iter", 10.0), ("max_iter", False),
        ("reg_strength", -0.5), ("reg_strength", float("nan")), ("reg_strength", "1"),
        ("tol", 0), ("tol", -1e-6), ("tol", float("inf")), ("tol", None),
    ])
    def test_logistic_regression_values_checked(self, key, value):
        with pytest.raises(ConfigError, match=key):
            LearnerSpec("logistic_regression", {key: value})

    def test_boundary_values_accepted(self):
        LearnerSpec("mlp", {"hidden_units": 1, "batch_size": 1, "max_iter": 1,
                            "learning_rate_init": 1e-9})
        LearnerSpec("logistic_regression", {"max_iter": 1, "reg_strength": 0, "tol": 1e-12})
        LearnerSpec("logistic_regression", {"reg_strength": 0.0})

    def test_fixed_value_knobs(self):
        with pytest.raises(ConfigError):
            LearnerSpec("mlp", {"solver": "sgd"})
        with pytest.raises(ConfigError):
            LearnerSpec("gradient_boosting", {"loss": "exponential"})
        with pytest.raises(ConfigError):
            LearnerSpec("decision_tree", {"splitter": "random"})


class TestTrainContract:
    def test_empty_dataset_rejected(self):
        ds = tiny_ds(np.zeros((0, 2)), np.zeros(0, dtype=int))
        # the same error whether or not the algorithm needs both classes
        for spec in (LearnerSpec("knn", {"n_neighbors": 1}), LearnerSpec("logistic_regression")):
            with pytest.raises(ValueError, match="^cannot train on an empty dataset$"):
                train(spec, ds)

    @pytest.mark.parametrize("labels,both", [([], False), ([0], False), ([1, 1], False),
                                             ([0, 1], True), ([1, 0, 0], True)])
    def test_both_classes(self, labels, both):
        assert both_classes(np.array(labels, dtype=np.int64)) is both

    def test_single_class_rejected_when_needed(self):
        ds = tiny_ds([[0, 0], [1, 1]], [1, 1])
        for alg in ("gaussian_nb", "logistic_regression", "svm", "adaboost",
                    "gradient_boosting", "mlp"):
            with pytest.raises(ValueError, match="both classes"):
                train(LearnerSpec(alg, {}, 0), ds)

    def test_knn_accepts_single_class(self):
        # five identical points of class 1 must still predict 1
        ds = tiny_ds(np.ones((5, 2)), [1] * 5)
        model = train(LearnerSpec("knn", {}, 0), ds)
        assert predict(model, np.zeros((3, 2))).tolist() == [1, 1, 1]

    def test_feature_count_mismatch(self, small_clouds):
        tr, _ = small_clouds
        model = train(LearnerSpec("decision_tree", {}, 0), tr)
        with pytest.raises(ValueError, match="features"):
            predict(model, np.zeros((2, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected_with_location(self, small_clouds, all_specs, bad):
        tr, te = small_clouds
        X = te.features[:5].copy()
        X[3, 1] = bad
        for spec in all_specs:
            model = train(spec, tr)
            with pytest.raises(ValueError, match=rf"{spec.algorithm} .*row 3, column 1"):
                predict_proba(model, X)
            with pytest.raises(ValueError, match="non-finite"):
                predict(model, X)

    def test_determinism_all_algorithms(self, small_clouds, all_specs):
        tr, te = small_clouds
        for spec in all_specs:
            p1 = predict_proba(train(spec, tr), te.features)
            p2 = predict_proba(train(spec, tr), te.features)
            np.testing.assert_array_equal(p1, p2, err_msg=spec.algorithm)

    def test_probability_rows_sum_to_one(self, small_clouds, all_specs):
        tr, te = small_clouds
        for spec in all_specs:
            p = predict_proba(train(spec, tr), te.features)
            assert np.all(p >= 0) and np.all(p <= 1), spec.algorithm
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9,
                                       err_msg=spec.algorithm)

    def test_predict_is_argmax_with_ties_to_zero(self, small_clouds, all_specs):
        tr, te = small_clouds
        for spec in all_specs:
            model = train(spec, tr)
            p = predict_proba(model, te.features)
            np.testing.assert_array_equal(
                predict(model, te.features), (p[:, 1] > 0.5).astype(int),
                err_msg=spec.algorithm,
            )

    def test_labels_from_proba_exact_half_goes_to_zero(self):
        proba = np.array([[0.5, 0.5], [0.4999, 0.5001], [1.0, 0.0], [0.0, 1.0]])
        labels = labels_from_proba(proba)
        np.testing.assert_array_equal(labels, [0, 1, 0, 1])
        assert labels.dtype == np.int64

    def test_memorizing_two_point_set(self):
        ds = tiny_ds([[-3, -3], [3, 3]], [0, 1])
        specs = [
            LearnerSpec("knn", {"n_neighbors": 1}, 1),
            LearnerSpec("decision_tree", {"max_features": "all"}, 1),
            LearnerSpec("gaussian_nb", {}, 1),
            LearnerSpec("logistic_regression", {}, 1),
        ]
        for spec in specs:
            model = train(spec, ds)
            assert predict(model, ds.features).tolist() == [0, 1], spec.algorithm

    def test_save_load_round_trip(self, small_clouds, tmp_path):
        tr, te = small_clouds
        model = train(LearnerSpec("random_forest", {"n_estimators": 10}, 2), tr)
        path = tmp_path / "model.pkl"
        save_artifact(path, "learner", {"model": model})
        loaded = load_artifact(path, "learner")["model"]
        np.testing.assert_array_equal(
            predict_proba(model, te.features), predict_proba(loaded, te.features)
        )


class TestTrees:
    def test_depth_bound_and_leaf_majority(self):
        rng = child_rng(0, "tree-test")
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(int)
        tree = ClassificationTree("entropy", max_depth=3, max_features=None)
        tree.fit(X, y, rng=child_rng(1))
        assert tree.depth() <= 3

        def check_leaves(node, idx):
            if tree.feature[node] < 0:
                labels = y[idx]
                majority = int(np.bincount(labels, minlength=2).argmax())
                predicted = int(tree.value[node][1] > 0.5)
                if tree.value[node][1] != 0.5:
                    assert predicted == majority
                return
            feature, threshold = tree.feature[node], tree.threshold[node]
            left = idx[X[idx, feature] <= threshold]
            right = idx[X[idx, feature] > threshold]
            check_leaves(tree.left[node], left)
            check_leaves(tree.right[node], right)

        check_leaves(0, np.arange(len(y)))

    def test_all_equal_features_single_leaf(self):
        X = np.ones((10, 3))
        y = np.array([0, 1, 1, 1, 0, 1, 1, 0, 1, 1])
        tree = ClassificationTree("gini", max_depth=5).fit(X, y, rng=child_rng(0))
        assert tree.depth() == 0
        assert predict_proba_one(tree, X)[0] == pytest.approx(y.mean())

    def test_tie_break_lowest_feature_then_threshold(self):
        # duplicated columns give identical gains; the split must use column 0
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        tree = ClassificationTree("entropy", max_depth=1).fit(X, y, rng=child_rng(0))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(1.5)

    def test_forest_honors_table_defaults(self, small_clouds):
        tr, _ = small_clouds
        model = train(LearnerSpec("random_forest", {}, 0), tr)
        assert len(model.impl.trees_) == 100
        assert all(t.depth() <= 10 for t in model.impl.trees_)

    def test_single_tree_depth_default(self, small_clouds):
        tr, _ = small_clouds
        model = train(LearnerSpec("decision_tree", {}, 0), tr)
        assert model.impl.depth() <= 3


def predict_proba_one(tree, X):
    return tree.predict_proba(X)[:, 1]


class TestKnn:
    def test_k1_memorizes_distinct_points(self):
        rng = child_rng(4, "knn")
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, 50)
        ds = tiny_ds(X, y, n_features=3)
        model = train(LearnerSpec("knn", {"n_neighbors": 1}, 0), ds)
        assert (predict(model, X) == y).all()

    def test_distance_ties_break_by_training_index(self):
        # two training points equidistant from the query; index 0 must win
        ds = tiny_ds([[1, 0], [-1, 0]], [1, 0])
        model = train(LearnerSpec("knn", {"n_neighbors": 1}, 0), ds)
        assert predict(model, np.array([[0.0, 0.0]]))[0] == 1

    def test_even_k_tie_goes_to_class_zero(self):
        ds = tiny_ds([[1, 0], [-1, 0]], [1, 0])
        model = train(LearnerSpec("knn", {"n_neighbors": 2}, 0), ds)
        p = predict_proba(model, np.array([[0.0, 0.0]]))
        assert p[0, 1] == pytest.approx(0.5)
        assert predict(model, np.array([[0.0, 0.0]]))[0] == 0

    def test_k_larger_than_train_rejected(self):
        ds = tiny_ds([[1, 0], [-1, 0]], [1, 0])
        with pytest.raises(ValueError):
            train(LearnerSpec("knn", {"n_neighbors": 5}, 0), ds)


class TestGaussianNb:
    def test_equidistant_point_is_half_half(self):
        ds = tiny_ds([[-1, 0], [-3, 0], [1, 0], [3, 0]], [0, 0, 1, 1])
        model = train(LearnerSpec("gaussian_nb", {}, 0), ds)
        p = predict_proba(model, np.array([[0.0, 0.0]]))
        assert p[0, 0] == pytest.approx(0.5, abs=1e-9)

    def test_well_separated_clouds(self):
        rng = child_rng(0, "nb")
        X = np.vstack([rng.normal(-3, 1, (1000, 2)), rng.normal(3, 1, (1000, 2))])
        y = np.array([0] * 1000 + [1] * 1000)
        model = train(LearnerSpec("gaussian_nb", {}, 0), tiny_ds(X, y))
        Xt = np.vstack([rng.normal(-3, 1, (500, 2)), rng.normal(3, 1, (500, 2))])
        yt = np.array([0] * 500 + [1] * 500)
        assert (predict(model, Xt) == yt).mean() >= 0.99


class TestLogistic:
    def test_zero_weights_give_half(self):
        lr = LogisticRegression()
        lr.mean_ = np.zeros(3)
        lr.scale_ = np.ones(3)
        lr.coef_ = np.zeros(3)
        lr.intercept_ = 0.0
        p = lr.predict_proba(np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_allclose(p, 0.5)

    def test_recovers_linear_signal(self):
        rng = child_rng(1, "lr")
        X = rng.normal(size=(400, 2))
        y = (X @ [2.0, -1.0] > 0).astype(int)
        model = train(LearnerSpec("logistic_regression", {}, 0), tiny_ds(X, y))
        assert (predict(model, X) == y).mean() >= 0.97


class TestMlp:
    def test_gradient_check_against_finite_differences(self):
        rng = child_rng(7, "mlp-grad")
        X = rng.normal(size=(5, 3))
        y = np.array([0, 1, 1, 0, 1])
        mlp = MlpClassifier(hidden_units=4)
        params = mlp._init_params(3, rng)
        _, grads = MlpClassifier.loss_and_grads(params, X, y)
        eps = 1e-6
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
                denom = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < 1e-4, (key, idx)


class TestAdaBoost:
    def test_zero_rounds_falls_back_to_prior(self):
        # constant features: the best stump is a single leaf with error 0.5
        X = np.ones((10, 2))
        y = np.array([0, 1] * 5)
        model = AdaBoost(n_estimators=10).fit(X, y, rng=child_rng(0))
        assert model.stumps_ == []
        p = model.predict_proba(np.ones((3, 2)))
        np.testing.assert_allclose(p[:, 1], 0.5)

    def test_perfect_stump_stops_early(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = AdaBoost(n_estimators=50).fit(X, y, rng=child_rng(0))
        assert len(model.stumps_) == 1

    def test_staged_training_error_non_increasing(self):
        rng = child_rng(2, "ada")
        X = rng.normal(size=(300, 3))
        y = ((X[:, 0] > 0.2) | (X[:, 1] > 0.8)).astype(int)
        model = AdaBoost(n_estimators=60).fit(X, y, rng=child_rng(3))
        staged = model.staged_decision(X)
        errors = [np.mean((s > 0).astype(int) != y) for s in staged]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


class TestGradientBoosting:
    def test_training_deviance_non_increasing(self, small_clouds):
        tr, _ = small_clouds
        model = GradientBoosting(n_estimators=40).fit(tr.features, tr.labels)
        dev = model.train_deviance_
        assert len(dev) == 41
        assert all(b <= a + 1e-12 for a, b in zip(dev, dev[1:]))

    def test_first_stages_strictly_decrease(self, small_clouds):
        tr, _ = small_clouds
        model = GradientBoosting(n_estimators=5).fit(tr.features, tr.labels)
        dev = model.train_deviance_
        assert dev[1] < dev[0] and dev[2] < dev[1]


class TestSvm:
    def test_converges_and_satisfies_kkt(self, clouds):
        tr, _ = clouds
        model = train(LearnerSpec("svm", {}, 0), tr)
        assert model.impl.converged_
        assert model.impl._train_kkt <= 1e-3 + 1e-12

    def test_learner_sanity_on_clouds(self, clouds, all_specs):
        tr, te = clouds
        for spec in all_specs:
            model = train(spec, tr)
            acc = (predict(model, te.features) == te.labels).mean()
            assert acc >= 0.95, f"{spec.algorithm}: {acc}"


class TestBagging:
    def test_nested_inner_spec(self, small_clouds):
        tr, te = small_clouds
        spec = LearnerSpec(
            "bagging",
            {"base": {"algorithm": "knn", "hyperparameters": {"n_neighbors": 3}},
             "n_estimators": 7},
            1,
        )
        model = train(spec, tr)
        assert len(model.impl.members_) == 7
        assert (predict(model, te.features) == te.labels).mean() >= 0.95
