"""Tree ensembles: bootstrap forest and extremely-randomized trees. Both
vote; reported probabilities are vote shares, so argmax of the
probabilities IS the majority vote.
"""

import numpy as np

from ..records import Count
from .tree import (ClassificationTree, Criterion, Depth, MaxFeatures, ScoredTrees, fit_trees,
                   node_values)

_SEED_BOUND = 2**63


def _tree_vote_proba(model, X):
    """Vote shares of a model's trees: each votes with its leaf's P(class 1)."""
    p1 = node_values(model.trees_)[:, 1][model.leaf_scorer(model.trees_).apply(X)]
    votes1 = (p1 > 0.5).sum(axis=1) / p1.shape[1]
    return np.column_stack([1.0 - votes1, votes1])


def _tree_rngs(rng, n):
    return [np.random.default_rng(rng.integers(_SEED_BOUND)) for _ in range(n)]


class RandomForest(ScoredTrees):
    def __init__(self, n_estimators: Count = 100, criterion: Criterion = "entropy",
                 max_depth: Depth = 10, max_features: MaxFeatures = "all"):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features

    def fit(self, X, y, rng=None):
        rng = rng or np.random.default_rng(0)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = len(y)
        rngs = _tree_rngs(rng, self.n_estimators)
        # each bootstrap as the number of times it drew each row
        counts = [np.bincount(tree_rng.integers(0, n, n), minlength=n) for tree_rng in rngs]
        self.trees_ = [
            ClassificationTree(self.criterion, self.max_depth, self.max_features)
            for _ in range(self.n_estimators)
        ]
        fit_trees(self.trees_, X, y, counts=counts, rngs=rngs)
        return self

    def predict_proba(self, X):
        return _tree_vote_proba(self, X)


class ExtraTrees(ScoredTrees):
    """Like the forest but trained on the full sample with uniformly random
    split thresholds per candidate feature."""

    def __init__(self, n_estimators: Count = 50, criterion: Criterion = "gini",
                 max_depth: Depth = 3, max_features: MaxFeatures = "auto"):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features

    def fit(self, X, y, rng=None):
        rng = rng or np.random.default_rng(0)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        rngs = _tree_rngs(rng, self.n_estimators)
        self.trees_ = [
            ClassificationTree(self.criterion, self.max_depth, self.max_features,
                               random_threshold=True)
            for _ in range(self.n_estimators)
        ]
        fit_trees(self.trees_, X, y, rngs=rngs)
        return self

    def predict_proba(self, X):
        return _tree_vote_proba(self, X)
