"""Stagewise gradient boosting on the binomial deviance (logistic) loss.

Each stage fits a small regression tree to the negative gradient, then
replaces the leaf means with one Newton step under the deviance, which is
what makes the per-stage training loss reliably non-increasing.
"""

import numpy as np

from ..records import Count, Positive
from .tree import BoosterGrower, Depth, RegressionTree, ScoredTrees


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -250, 250)))


def _deviance(y, raw):
    p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


class GradientBoosting(ScoredTrees):
    def __init__(self, n_estimators: Count = 50, learning_rate: Positive = 0.1,
                 max_depth: Depth = 3):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth

    def fit(self, X, y, rng=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        p0 = np.clip(y.mean(), 1e-12, 1 - 1e-12)
        self.base_score_ = float(np.log(p0 / (1 - p0)))
        raw = np.full(len(y), self.base_score_)
        self.stages_ = []
        self.train_deviance_ = [_deviance(y, raw)]
        grower = BoosterGrower(lambda: RegressionTree(max_depth=self.max_depth), X)
        for _ in range(self.n_estimators):
            p = _sigmoid(raw)
            residual = y - p
            tree, leaf_ids = grower.fit(residual)
            hess = np.maximum(p * (1 - p), 1e-12)
            num = np.bincount(leaf_ids, weights=residual, minlength=len(tree.value))
            den = np.bincount(leaf_ids, weights=hess, minlength=len(tree.value))
            gamma = num / np.maximum(den, 1e-12)
            raw = raw + self.learning_rate * gamma[leaf_ids]
            self.stages_.append((tree, gamma))
            self.train_deviance_.append(_deviance(y, raw))
        return self

    def decision_function(self, X):
        X = np.asarray(X, dtype=np.float64)
        raw = np.full(X.shape[0], self.base_score_)
        if self.stages_:
            trees, gammas = zip(*self.stages_)
            leaves = self.leaf_scorer(trees).apply(X)
            for step in self.learning_rate * np.concatenate(gammas).take(leaves.T):
                raw += step  # stage after stage
        return raw

    def predict_proba(self, X):
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])
