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
from .forest import ExtraTrees, RandomForest
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
    "both_classes",
    "predict",
    "predict_proba",
    "labels_from_proba",
    "ALGORITHMS",
]


#: every numeric hyperparameter's rule, checked when a spec is made:
#: "count" an int of at least 1 (a bool is not one), "depth" a count or None,
#: "positive" a finite number > 0, "nonnegative" one >= 0, "finite" any finite one
_RULES = {
    "decision_tree": {"max_depth": "depth"},
    "random_forest": {"n_estimators": "count", "max_depth": "depth"},
    "extra_trees": {"n_estimators": "count", "max_depth": "depth"},
    "knn": {"n_neighbors": "count"},
    "gaussian_nb": {"var_smoothing": "nonnegative"},
    "mlp": {"hidden_units": "count", "batch_size": "count", "max_iter": "count",
            "learning_rate_init": "positive"},
    "adaboost": {"n_estimators": "count", "max_depth": "depth", "learning_rate": "positive"},
    "gradient_boosting": {"n_estimators": "count", "max_depth": "depth",
                          "learning_rate": "positive"},
    "svm": {"c": "positive", "tol": "positive", "coef0": "finite", "max_pass_factor": "count"},
    "logistic_regression": {"max_iter": "count", "reg_strength": "nonnegative",
                            "tol": "positive"},
}

_RULE_TEXT = {
    "count": "an integer of at least 1",
    "depth": "an integer of at least 1 or null",
    "positive": "a finite number greater than 0",
    "nonnegative": "a finite number of at least 0",
    "finite": "a finite number",
}


def _obeys(rule, value) -> bool:
    if rule == "depth" and value is None:
        return True
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if rule in ("count", "depth"):
        return isinstance(value, int) and value >= 1
    return math.isfinite(value) and {"positive": value > 0, "nonnegative": value >= 0,
                                     "finite": True}[rule]


class _DecisionTreeLearner(ClassificationTree):
    """Single CART tree with the benchmark's defaults."""

    def __init__(self, criterion="entropy", max_depth=3, max_features="auto"):
        super().__init__(criterion=criterion, max_depth=max_depth, max_features=max_features)


class _KnnLearner(KNeighbors):
    """`KNeighbors` under the class name that `model.pkl` records."""


class _MlpLearner(MlpClassifier):
    def __init__(self, hidden_units=100, batch_size=100, learning_rate="adaptive",
                 learning_rate_init=1e-3, max_iter=100):
        if learning_rate not in ("adaptive", "constant"):
            raise ConfigError(f"unknown mlp learning_rate mode {learning_rate!r}")
        super().__init__(
            hidden_units=hidden_units,
            batch_size=batch_size,
            max_epochs=max_iter,
            learning_rate=learning_rate_init,
            adaptive=(learning_rate == "adaptive"),
        )


class _GradientBoostingLearner(GradientBoosting):
    """`GradientBoosting` under the class name that `model.pkl` records."""


class _SvmLearner(SmoSvm):
    """`SmoSvm` under the class name that `model.pkl` records."""


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
}


def _known_params(cls) -> tuple:
    code = cls.__init__.__code__
    return code.co_varnames[1:code.co_argcount]


def make_impl(algorithm: str, hyperparameters: dict):
    """Instantiate the implementation for `algorithm`, validating parameter
    keys and the numeric values `_RULES` names."""
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
    for key, rule in _RULES[algorithm].items():
        if key in hyperparameters and not _obeys(rule, hyperparameters[key]):
            raise ConfigError(f"{algorithm}: {key} must be {_RULE_TEXT[rule]}, "
                              f"got {hyperparameters[key]!r}")
    try:
        return cls(**hyperparameters)
    except ValueError as e:  # a choice the implementation refuses
        raise ConfigError(f"{algorithm}: {e}") from None


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


def both_classes(labels) -> bool:
    """Whether the 0/1 `labels` hold both classes; none at all hold neither."""
    return labels.size > 0 and bool(labels.min() != labels.max())


def train(spec: LearnerSpec, ds: Dataset) -> TrainedModel:
    """Fit `spec` on `ds`; deterministic in (spec, data, seed). Labels it
    cannot fit `spec` on, none at all or one class where the algorithm needs
    both, raise a ValueError."""
    if ds.labels.size == 0:
        raise ValueError("cannot train on an empty dataset")
    _, needs_both = ALGORITHMS[spec.algorithm]
    if needs_both and not both_classes(ds.labels):
        raise ValueError(f"{spec.algorithm} requires both classes in the training data")
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
