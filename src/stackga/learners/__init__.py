"""Base classifiers behind one train/predict/predict_proba contract.

Every algorithm is specified by a `LearnerSpec` (name + hyperparameters +
seed) and trained into an immutable `TrainedModel`. Defaults follow the
benchmark configuration this toolkit reproduces; unknown hyperparameter keys
are rejected outright. Labels are argmax of the probability output with
exact 0.5 ties resolving to class 0, uniformly across algorithms.
"""

import math
import sys
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
    "stack_labels",
    "check_labels",
    "check_finite",
    "both_classes",
    "predict",
    "predict_proba",
    "labels_from_proba",
    "ALGORITHMS",
]


#: the numeric kinds a rule may name, each with its test (on a number that is
#: not a bool and fits a float) and its text; no choice in `_RULES` is spelled
#: like one
_KINDS = {
    "count": (lambda v: isinstance(v, int) and v >= 1, "an integer of at least 1"),
    "positive": (lambda v: math.isfinite(v) and v > 0, "a finite number greater than 0"),
    "nonnegative": (lambda v: math.isfinite(v) and v >= 0, "a finite number of at least 0"),
    "finite": (math.isfinite, "a finite number"),
}
_DEPTH = ("count", None)
_CRITERION = ("entropy", "gini")
_MAX_FEATURES = ("count", None, "all", "sqrt", "auto")

#: every hyperparameter of every algorithm, with what it may be: a value of
#: one of the `_KINDS` named in its rule or one of the rule's other entries;
#: the keys are the parameters of the algorithm's class, checked when a spec
#: is made (an integer `max_features` larger than the table is found at fit)
_RULES = {
    "decision_tree": {"criterion": _CRITERION, "max_depth": _DEPTH,
                      "max_features": _MAX_FEATURES},
    "random_forest": {"n_estimators": ("count",), "criterion": _CRITERION,
                      "max_depth": _DEPTH, "max_features": _MAX_FEATURES},
    "extra_trees": {"n_estimators": ("count",), "criterion": _CRITERION,
                    "max_depth": _DEPTH, "max_features": _MAX_FEATURES},
    "knn": {"n_neighbors": ("count",)},
    "gaussian_nb": {"var_smoothing": ("nonnegative",)},
    "mlp": {"hidden_units": ("count",), "batch_size": ("count",),
            "learning_rate": ("adaptive", "constant"), "learning_rate_init": ("positive",),
            "max_iter": ("count",)},
    "adaboost": {"n_estimators": ("count",), "learning_rate": ("positive",),
                 "criterion": _CRITERION, "max_depth": _DEPTH},
    "gradient_boosting": {"n_estimators": ("count",), "learning_rate": ("positive",),
                          "max_depth": _DEPTH},
    "svm": {"c": ("positive",), "kernel": ("sigmoid", "rbf", "linear"),
            "gamma": ("positive", "scale"), "coef0": ("finite",), "tol": ("positive",),
            "max_pass_factor": ("count",)},
    "logistic_regression": {"reg_strength": ("nonnegative",), "max_iter": ("count",),
                            "tol": ("positive",)},
}


def _obeys(rule, value) -> bool:
    # an int too large for a float is no number here: `math.isfinite` overflows on it
    number = isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                          and abs(value) <= sys.float_info.max)
    return any(number and _KINDS[a][0](value) if a in _KINDS else value == a for a in rule)


def _rule_text(rule) -> str:
    """E.g. "an integer of at least 1 or None", "one of ['entropy', 'gini']"."""
    kinds = [_KINDS[a][1] for a in rule if a in _KINDS]
    choices = [a for a in rule if a not in _KINDS]
    named = [f"one of {choices}"] if len(choices) > 1 else [repr(c) for c in choices]
    return " or ".join(kinds + named)


class _DecisionTreeLearner(ClassificationTree):
    """Single CART tree with the benchmark's defaults."""

    def __init__(self, criterion="entropy", max_depth=3, max_features="auto"):
        super().__init__(criterion=criterion, max_depth=max_depth, max_features=max_features)


#: algorithm name -> (implementation class, needs both classes to fit)
ALGORITHMS = {
    "decision_tree": (_DecisionTreeLearner, False),
    "random_forest": (RandomForest, False),
    "extra_trees": (ExtraTrees, False),
    "knn": (KNeighbors, False),
    "gaussian_nb": (GaussianNB, True),
    "mlp": (MlpClassifier, True),
    "adaboost": (AdaBoost, True),
    "gradient_boosting": (GradientBoosting, True),
    "svm": (SmoSvm, True),
    "logistic_regression": (LogisticRegression, True),
}


@dataclass(frozen=True)
class LearnerSpec:
    """Algorithm identity + hyperparameter overrides + seed. The algorithm
    and every hyperparameter key and value are checked against `_RULES`
    when a spec is made; `train` passes them to the class unchecked."""

    algorithm: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.algorithm, str) or self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        rules = _RULES[self.algorithm]
        unknown = sorted(set(self.hyperparameters) - set(rules))
        if unknown:
            raise ConfigError(f"{self.algorithm}: unknown hyperparameters {unknown}; "
                              f"known: {sorted(rules)}")
        for key, value in self.hyperparameters.items():
            if not _obeys(rules[key], value):
                raise ConfigError(f"{self.algorithm}: {key} must be "
                                  f"{_rule_text(rules[key])}, got {value!r}")


@dataclass(frozen=True)
class TrainedModel:
    spec: LearnerSpec
    n_features_expected: int
    impl: object


def both_classes(labels) -> bool:
    """Whether the 0/1 `labels` hold both classes; none at all hold neither."""
    return labels.size > 0 and bool(labels.min() != labels.max())


def check_labels(algorithm: str, labels) -> None:
    """Raise a ValueError for labels `algorithm` cannot be fitted on: none
    at all, or one class where the algorithm needs both."""
    if labels.size == 0:
        raise ValueError("cannot train on an empty dataset")
    if ALGORITHMS[algorithm][1] and not both_classes(labels):
        raise ValueError(f"{algorithm} requires both classes in the training data")


def train(spec: LearnerSpec, ds: Dataset) -> TrainedModel:
    """Fit `spec` on `ds`; deterministic in (spec, data, seed). Labels it
    cannot fit `spec` on raise `check_labels`' ValueError."""
    check_labels(spec.algorithm, ds.labels)
    impl = ALGORITHMS[spec.algorithm][0](**spec.hyperparameters)
    impl.fit(ds.features, ds.labels, rng=child_rng(spec.seed, spec.algorithm))
    return TrainedModel(spec=spec, n_features_expected=ds.n_features, impl=impl)


def stack_labels(spec: LearnerSpec, X, y, X_held) -> np.ndarray:
    """Hard labels (B, m) on each table of `X_held` (B, m, d) of `spec`
    fitted on the same table of `X` (B, n, d) with labels `y` (n,): what
    `train` and then `predict` give on each pair, unchecked. A class with
    its own `stack_labels` fits the whole stack at once, any other one table
    at a time."""
    cls = ALGORITHMS[spec.algorithm][0]
    if hasattr(cls, "stack_labels"):
        return cls(**spec.hyperparameters).stack_labels(X, y, X_held)
    fitted = (cls(**spec.hyperparameters).fit(table, y, rng=child_rng(spec.seed, spec.algorithm))
              for table in X)
    return np.array([labels_from_proba(f.predict_proba(held)) for f, held in zip(fitted, X_held)])


def _check_width(model: TrainedModel, X: np.ndarray):
    if X.ndim != 2 or X.shape[1] != model.n_features_expected:
        raise ValueError(
            f"{model.spec.algorithm} expects {model.n_features_expected} features, "
            f"got matrix of shape {X.shape}"
        )


def check_finite(algorithm: str, X: np.ndarray):
    """Raise a ValueError naming the first non-finite cell of `X`, which
    `algorithm` cannot score."""
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"{algorithm} cannot score non-finite input: "
                         f"row {row}, column {col} is {X[row, col]}")


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """Per-row class probabilities, columns (P(class 0), P(class 1))."""
    X = np.asarray(X, dtype=np.float64)
    _check_width(model, X)
    check_finite(model.spec.algorithm, X)
    return model.impl.predict_proba(X)


def labels_from_proba(proba) -> np.ndarray:
    """Hard labels from (P(class 0), P(class 1)) rows: exact 0.5 goes to class 0."""
    return (np.asarray(proba)[:, 1] > 0.5).astype(np.int64)


def predict(model: TrainedModel, X) -> np.ndarray:
    """Hard labels: argmax of predict_proba, exact ties toward class 0."""
    return labels_from_proba(predict_proba(model, X))
