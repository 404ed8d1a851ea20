"""k-nearest neighbours by exhaustive Euclidean search.

Distance ties resolve to the lower training index, so predictions are
deterministic regardless of value ordering.
"""

import numpy as np

# rows per block when adding the norms to the distance product: the block's
# norm sums stay in cache (550 KB against 538 training rows)
_ROW_BLOCK = 128


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

    def predict_proba(self, X):
        """Each row's P(class 1): the share of class 1 among its k nearest
        training points.

        The neighbours are picked in k passes, each taking every row's first
        minimum distance (`argmin`, so the lowest training index among equal
        distances, as a stable sort orders them) and then striking it out.
        The cost is k passes over the distance matrix: on tables without ties
        a partial selection is faster from between k = 20 and 40 (README,
        Scoring path), well above the k = 5 in use.
        """
        X = np.asarray(X, dtype=np.float64)
        # |x|^2 + |t|^2 - 2 x.t, rounded as one expression would round it;
        # the product is made whole, and the norms are added to it a block
        # of rows at a time, so no second (rows x training rows) array is made
        d2 = 2.0 * X @ self.X_.T
        sx = (X**2).sum(axis=1)[:, None]
        st = (self.X_**2).sum(axis=1)[None, :]
        for lo in range(0, len(X), _ROW_BLOCK):
            block = d2[lo:lo + _ROW_BLOCK]
            np.subtract(sx[lo:lo + _ROW_BLOCK] + st, block, out=block)
        rows = np.arange(len(X))
        ones = np.zeros(len(X), dtype=np.int64)
        for _ in range(self.n_neighbors):
            j = d2.argmin(axis=1)
            nearest = d2[rows, j]
            # argmin picks a NaN first and an inf again once the finite
            # distances are used up, so neither may be selected
            bad = ~np.isfinite(nearest)
            if bad.any():
                raise ValueError(
                    f"row {int(np.argmax(bad))}: distance to a training point is "
                    "not finite (a value of magnitude near 1e154 or more overflows)"
                )
            ones += self.y_[j]
            d2[rows, j] = np.inf
        # an exact count over k: the bits of the mean of the k 0/1 labels
        votes1 = ones / self.n_neighbors
        return np.column_stack([1.0 - votes1, votes1])
