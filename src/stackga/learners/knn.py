"""k-nearest neighbours by exhaustive Euclidean search.

Distance ties resolve to the lower training index, so predictions are
deterministic regardless of value ordering.
"""

import numpy as np


class KNeighbors:
    def __init__(self, n_neighbors=5):
        self.n_neighbors = n_neighbors

    def fit(self, X, y, rng=None):
        self.X_ = np.asarray(X, dtype=np.float64)
        self.y_ = np.asarray(y, dtype=np.int64)
        if self.n_neighbors > len(self.y_):
            raise ValueError(
                f"n_neighbors={self.n_neighbors} exceeds {len(self.y_)} training samples"
            )
        return self

    def _nearest(self, d2):
        """Indices of each row's k nearest training points: the k smallest
        distances, ties at the k-th resolved to the lower training index.

        A linear-time partial selection (introselect) finds k smallest
        distances. Its choice among points tied with the k-th is arbitrary,
        so only the rows with more than k points at or below the k-th
        distance are sorted stably, which keeps the lower index first.
        """
        k = self.n_neighbors
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(d2, nearest[:, k - 1:], axis=1)
        # exactly k points at or below the k-th distance: the set is unique
        # (with a NaN k-th distance the count is 0, so the row is sorted)
        tied = np.count_nonzero(d2 <= kth, axis=1) != k
        if tied.any():
            nearest[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
        return nearest

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        d2 = (
            (X**2).sum(axis=1)[:, None]
            + (self.X_**2).sum(axis=1)[None, :]
            - 2.0 * X @ self.X_.T
        )
        # a sum of 0/1 labels: the neighbours' order does not change it
        votes1 = self.y_[self._nearest(d2)].mean(axis=1)
        return np.column_stack([1.0 - votes1, votes1])
