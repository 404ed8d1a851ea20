"""Boosting with depth-1 stumps using real-valued class-probability updates.

Each round fits a weighted stump, turns its leaf class probabilities into
symmetric log-ratio scores, and reweights samples multiplicatively. Rounds
stop early when a stump's weighted error reaches 0 (accepted, then stop) or
0.5 or worse (rejected). With no accepted rounds, predictions fall back to
the training prior.
"""

import numpy as np

from .tree import BoosterGrower, ClassificationTree, ScoredTrees, node_values

_CLIP = 1e-12


def _scores(value):
    """Symmetric log-ratio score of each row of class probabilities (P(0), P(1))."""
    return 0.5 * (np.log(np.clip(value[:, 1], _CLIP, None))
                  - np.log(np.clip(value[:, 0], _CLIP, None)))


class AdaBoost(ScoredTrees):
    def __init__(self, n_estimators=100, learning_rate=1.0, criterion="gini",
                 max_depth=1):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.criterion = criterion
        self.max_depth = max_depth

    def fit(self, X, y, rng=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = len(y)
        self.prior1_ = float(y.mean())
        w = np.full(n, 1.0 / n)
        self.stumps_ = []
        y_sign = np.where(y == 1, 1.0, -1.0)
        grower = BoosterGrower(
            lambda: ClassificationTree(self.criterion, max_depth=self.max_depth), X)
        for _ in range(self.n_estimators):
            stump, leaf = grower.fit(y, w)
            hard = (stump.value[leaf, 1] > 0.5).astype(np.int64)
            err = float(w[hard != y].sum() / w.sum())
            if err >= 0.5:
                break
            self.stumps_.append(stump)
            if err == 0.0:
                break
            # scored once per node, then gathered at each row's leaf
            w = w * np.exp(-self.learning_rate * y_sign * _scores(stump.value)[leaf])
            w /= w.sum()
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        if not self.stumps_:
            return np.tile([1.0 - self.prior1_, self.prior1_], (X.shape[0], 1))
        # each round's symmetric score s, with class scores (-s, +s), is scored
        # once per node and gathered at each row's leaf
        leaves = self.leaf_scorer(self.stumps_).apply(X)
        first, *rest = _scores(node_values(self.stumps_)).take(leaves.T)
        # summed round after round: `sum(axis=0)` pairs the terms up when
        # there is one row
        s = first.copy()
        for scores in rest:
            s += scores
        # softmax over the symmetric class scores (-s, +s)
        p1 = 1.0 / (1.0 + np.exp(-2.0 * np.clip(s, -250, 250)))
        return np.column_stack([1.0 - p1, p1])
