"""Base classifiers behind one train/predict/predict_proba contract.

Every algorithm is specified by a `LearnerSpec` (name + hyperparameters +
seed) and trained into an immutable `TrainedModel`. Defaults follow the
benchmark configuration this toolkit reproduces; unknown hyperparameter keys
are rejected outright. Labels are argmax of the probability output with
exact 0.5 ties resolving to class 0, uniformly across algorithms.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..dataset import Dataset
from ..errors import ConfigError
from ..rng import child_rng
from .adaboost import AdaBoost
from .boosting import GradientBoosting
from .forest import Bagging, ExtraTrees, RandomForest
from .knn import KNeighbors
from .linear import LogisticRegression
from .mlp import MlpClassifier
from .naive_bayes import GaussianNB
from .svm import SmoSvm
from .tree import ClassificationTree

__all__ = [
    "LearnerSpec",
    "TrainedModel",
    "train",
    "check_labels",
    "both_classes",
    "predict",
    "predict_proba",
    "labels_from_proba",
    "benchmark_specs",
    "ALGORITHMS",
]


def _check_count(algorithm, key, value):
    """`value` must be an int of at least 1 (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{algorithm} {key} must be an integer of at least 1, "
                          f"got {value!r}")


def _check_number(algorithm, key, value, positive):
    """`value` must be a finite number, > 0 if `positive` else >= 0."""
    ok = (not isinstance(value, bool) and isinstance(value, (int, float))
          and math.isfinite(value) and (value > 0 if positive else value >= 0))
    if not ok:
        rule = "greater than 0" if positive else "of at least 0"
        raise ConfigError(f"{algorithm} {key} must be a finite number {rule}, got {value!r}")


class _DecisionTreeLearner(ClassificationTree):
    """Single CART tree with the library-shorthand `splitter` knob accepted."""

    def __init__(self, criterion="entropy", splitter="best", max_depth=3,
                 max_features="auto"):
        if splitter != "best":
            raise ConfigError(f"decision_tree splitter must be 'best', got {splitter!r}")
        super().__init__(criterion=criterion, max_depth=max_depth, max_features=max_features)


class _KnnLearner(KNeighbors):
    def __init__(self, n_neighbors=5, weights="uniform", algorithm="auto",
                 metric="minkowski"):
        if weights != "uniform":
            raise ConfigError("knn supports only uniform weights")
        if metric != "minkowski":
            raise ConfigError("knn supports only the minkowski (p=2) metric")
        if algorithm not in ("auto", "brute"):
            raise ConfigError(f"unknown knn algorithm {algorithm!r}")
        _check_count("knn", "n_neighbors", n_neighbors)
        super().__init__(n_neighbors=n_neighbors)


class _MlpLearner(MlpClassifier):
    def __init__(self, hidden_units=100, activation="relu", solver="adam",
                 batch_size=100, learning_rate="adaptive",
                 learning_rate_init=1e-3, max_iter=100):
        if activation != "relu":
            raise ConfigError("mlp supports only relu activation")
        if solver != "adam":
            raise ConfigError("mlp supports only the adam solver")
        if learning_rate not in ("adaptive", "constant"):
            raise ConfigError(f"unknown mlp learning_rate mode {learning_rate!r}")
        for key, value in (("hidden_units", hidden_units), ("batch_size", batch_size),
                           ("max_iter", max_iter)):
            _check_count("mlp", key, value)
        _check_number("mlp", "learning_rate_init", learning_rate_init, positive=True)
        super().__init__(
            hidden_units=hidden_units,
            batch_size=batch_size,
            max_epochs=max_iter,
            learning_rate=learning_rate_init,
            adaptive=(learning_rate == "adaptive"),
        )


class _GradientBoostingLearner(GradientBoosting):
    def __init__(self, loss="deviance", learning_rate=0.1, n_estimators=50,
                 criterion="friedman_mse", max_depth=3):
        if loss != "deviance":
            raise ConfigError("gradient_boosting supports only the deviance loss")
        if criterion != "friedman_mse":
            raise ConfigError("gradient_boosting supports only the friedman_mse criterion")
        super().__init__(n_estimators=n_estimators, learning_rate=learning_rate,
                         max_depth=max_depth)


class _SvmLearner(SmoSvm):
    def __init__(self, kernel="sigmoid", degree=3, gamma="scale", coef0=0.0,
                 c=1.0, tol=1e-3, max_pass_factor=10):
        # degree is accepted for interface parity; the sigmoid kernel ignores it
        del degree
        super().__init__(c=c, kernel=kernel, gamma=gamma, coef0=coef0, tol=tol,
                         max_pass_factor=max_pass_factor)


#: algorithm name -> (implementation class, needs both classes to fit)
ALGORITHMS = {
    "decision_tree": (_DecisionTreeLearner, False),
    "random_forest": (RandomForest, False),
    "extra_trees": (ExtraTrees, False),
    "knn": (_KnnLearner, False),
    "gaussian_nb": (GaussianNB, True),
    "mlp": (_MlpLearner, True),
    "adaboost": (AdaBoost, True),
    "gradient_boosting": (_GradientBoostingLearner, True),
    "svm": (_SvmLearner, True),
    "logistic_regression": (LogisticRegression, True),
    "bagging": (Bagging, False),
}


def _known_params(cls) -> tuple:
    code = cls.__init__.__code__
    return code.co_varnames[1:code.co_argcount]


def make_impl(algorithm: str, hyperparameters: dict):
    """Instantiate the implementation for `algorithm`, validating parameter keys."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        )
    cls, _ = ALGORITHMS[algorithm]
    known = _known_params(cls)
    unknown = sorted(set(hyperparameters) - set(known))
    if unknown:
        raise ConfigError(
            f"{algorithm}: unknown hyperparameters {unknown}; known: {sorted(known)}"
        )
    impl = cls(**hyperparameters)
    if algorithm == "logistic_regression":
        # no wrapper class here: one would change the class pickled in model.pkl
        _check_count(algorithm, "max_iter", impl.max_iter)
        _check_number(algorithm, "reg_strength", impl.reg_strength, positive=False)
        _check_number(algorithm, "tol", impl.tol, positive=True)
    return impl


@dataclass(frozen=True)
class LearnerSpec:
    """Algorithm identity + hyperparameter overrides + seed."""

    algorithm: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        make_impl(self.algorithm, self.hyperparameters)  # validate eagerly


@dataclass(frozen=True)
class TrainedModel:
    spec: LearnerSpec
    n_features_expected: int
    impl: object


def benchmark_specs(seed: int = 0) -> list:
    """The nine stock benchmark learners with their default hyperparameters."""
    names = [
        "random_forest",
        "knn",
        "mlp",
        "adaboost",
        "decision_tree",
        "gaussian_nb",
        "gradient_boosting",
        "svm",
        "extra_trees",
    ]
    return [LearnerSpec(n, {}, seed) for n in names]


def both_classes(labels) -> bool:
    """Whether the 0/1 `labels` hold both classes; none at all hold neither."""
    return labels.size > 0 and bool(labels.min() != labels.max())


def check_labels(spec: LearnerSpec, labels) -> None:
    """Raise what `train` raises for training labels it cannot fit `spec` on:
    none at all, or one class where the algorithm needs both."""
    if labels.size == 0:
        raise ValueError("cannot train on an empty dataset")
    _, needs_both = ALGORITHMS[spec.algorithm]
    if needs_both and not both_classes(labels):
        raise ValueError(f"{spec.algorithm} requires both classes in the training data")


def train(spec: LearnerSpec, ds: Dataset, checked: bool = False) -> TrainedModel:
    """Fit `spec` on `ds`; deterministic in (spec, data, seed). With
    `checked`, the caller has passed `ds.labels` through `check_labels`
    already, as one that fits many column subsets of the same rows does."""
    if not checked:
        check_labels(spec, ds.labels)
    impl = make_impl(spec.algorithm, spec.hyperparameters)
    impl.fit(ds.features, ds.labels, rng=child_rng(spec.seed, spec.algorithm))
    return TrainedModel(spec=spec, n_features_expected=ds.n_features, impl=impl)


def _check_width(model: TrainedModel, X: np.ndarray):
    if X.ndim != 2 or X.shape[1] != model.n_features_expected:
        raise ValueError(
            f"{model.spec.algorithm} expects {model.n_features_expected} features, "
            f"got matrix of shape {X.shape}"
        )


def _check_finite(model: TrainedModel, X: np.ndarray):
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(
            f"{model.spec.algorithm} cannot score non-finite input: "
            f"row {row}, column {col} is {X[row, col]}"
        )


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """Per-row class probabilities, columns (P(class 0), P(class 1))."""
    X = np.asarray(X, dtype=np.float64)
    _check_width(model, X)
    _check_finite(model, X)
    return model.impl.predict_proba(X)


def labels_from_proba(proba) -> np.ndarray:
    """Hard labels from (P(class 0), P(class 1)) rows: exact 0.5 goes to class 0."""
    return (np.asarray(proba)[:, 1] > 0.5).astype(np.int64)


def predict(model: TrainedModel, X) -> np.ndarray:
    """Hard labels: argmax of predict_proba, exact ties toward class 0."""
    return labels_from_proba(predict_proba(model, X))
