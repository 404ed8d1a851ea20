"""L2-regularized logistic regression fit by damped Newton steps.

Features are standardized internally (train-time mean/std folded into the
fitted coefficients), which keeps the optimization well conditioned on raw
clinical scales without asking callers to preprocess.
"""

import numpy as np


def _sigmoid(z):
    """1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) elsewhere, both from
    e = exp(-|z|), which never overflows. `minimum(z, -z)` is -|z| that
    keeps a NaN's sign bit, so NaN in gives the same NaN out."""
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


class Standardizing:
    """Inputs scaled by the training mean and std: `fit` calls `_fit_scale`,
    prediction `_scale`. A constant column's std of 0 is taken as 1e-12."""

    def _fit_scale(self, X):
        self.mean_ = X.mean(axis=0)
        self.scale_ = np.maximum(X.std(axis=0), 1e-12)
        return self._scale(X)

    def _scale(self, X):
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.scale_


class LogisticRegression(Standardizing):
    def __init__(self, reg_strength=1.0, max_iter=1000, tol=1e-6):
        self.reg_strength = reg_strength
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X, y, rng=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        Z = self._fit_scale(X)
        n, d = Z.shape
        w = np.zeros(d)
        b = 0.0
        lam = self.reg_strength
        # the full (d+1) Newton system, the intercept last, and its ridge
        A = np.empty((d + 1, d + 1))
        g = np.empty(d + 1)
        ridge = 1e-10 * np.eye(d + 1)
        for _ in range(self.max_iter):
            p = _sigmoid(Z @ w + b)
            resid = p - y
            grad_w = Z.T @ resid + lam * w
            grad_b = np.sum(resid)
            if max(np.abs(grad_w).max(initial=0.0), abs(grad_b)) < self.tol * n:
                break
            r = np.maximum(p * (1.0 - p), 1e-10)
            H = (Z * r[:, None]).T @ Z
            H[np.diag_indices(d)] += lam
            hwb = Z.T @ r
            A[:d, :d] = H
            A[:d, d] = hwb
            A[d, :d] = hwb
            A[d, d] = float(r.sum())
            A += ridge
            g[:d] = grad_w
            g[d] = grad_b
            step = np.linalg.solve(A, g)
            w -= step[:d]
            b -= step[d]
        self.coef_ = w
        self.intercept_ = b
        return self

    def decision_function(self, X):
        return self._scale(X) @ self.coef_ + self.intercept_

    def predict_proba(self, X):
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])
