"""L2-regularized logistic regression fit by damped Newton steps.

Features are standardized internally (train-time mean/std folded into the
fitted coefficients), which keeps the optimization well conditioned on raw
clinical scales without asking callers to preprocess.

One Newton loop fits a stack of tables at once (`newton`): `fit` is a stack
of one, and `stack_labels` fits and scores many, as the GA's wrapper does.
"""

import numpy as np


def _sigmoid(z):
    """1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) elsewhere, both from
    e = exp(-|z|), which never overflows. `minimum(z, -z)` is -|z| that
    keeps a NaN's sign bit, so NaN in gives the same NaN out."""
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def newton(Z, y, reg_strength, max_iter, tol) -> tuple:
    """(W, b, steps): the weights (B, d), intercepts (B,) and Newton step
    counts (B,) of one logistic regression per table of the standardized
    stack `Z` (B, n, d), all on the 0/1 labels `y` (n,).

    Each system stops on its own, when its largest gradient entry falls
    below `tol * n` or after `max_iter` steps. Every product is numpy's
    per-table BLAS call on a C-ordered table, so each system's bits equal a
    fit of that table alone.
    """
    B, n, d = Z.shape
    y = np.asarray(y, dtype=np.float64)
    W = np.zeros((B, d))
    b = np.zeros(B)
    steps = np.zeros(B, dtype=np.int64)
    lam = reg_strength
    live = np.arange(B)  # the systems still stepping; Z and A hold only theirs
    # the full (d+1) Newton systems, the intercept last, and their ridge
    A = np.empty((B, d + 1, d + 1))
    g = np.empty((B, d + 1, 1))
    ridge = 1e-10 * np.eye(d + 1)
    diag = np.arange(d)
    ZT = Z.transpose(0, 2, 1)
    for _ in range(max_iter):
        w = W[live]
        p = _sigmoid(np.matmul(Z, w[:, :, None])[:, :, 0] + b[live, None])
        resid = p - y
        grad_w = np.matmul(ZT, resid[:, :, None])[:, :, 0] + lam * w
        grad_b = np.sum(resid, axis=1)
        top_w, top_b = np.abs(grad_w).max(axis=1, initial=0.0), np.abs(grad_b)
        done = np.where(top_b > top_w, top_b, top_w) < tol * n
        if done.any():
            go = ~done
            live, Z, p, grad_w, grad_b = live[go], Z[go], p[go], grad_w[go], grad_b[go]
            if not live.size:
                break
            ZT, A, g = Z.transpose(0, 2, 1), A[:live.size], g[:live.size]
        r = np.maximum(p * (1.0 - p), 1e-10)
        A[:, :d, :d] = np.matmul((Z * r[:, :, None]).transpose(0, 2, 1), Z)
        A[:, diag, diag] += lam
        hwb = np.matmul(ZT, r[:, :, None])[:, :, 0]
        A[:, :d, d] = hwb
        A[:, d, :d] = hwb
        A[:, d, d] = r.sum(axis=1)
        A += ridge
        g[:, :d, 0] = grad_w
        g[:, d, 0] = grad_b
        step = np.linalg.solve(A, g)[:, :, 0]
        W[live] -= step[:, :d]
        b[live] -= step[:, d]
        steps[live] += 1
    return W, b, steps


class Standardizing:
    """Inputs scaled by the training mean and std of their table, or of each
    table of a stack (B, n, d): `fit` calls `_fit_scale`, prediction
    `_scale`. A constant column's std of 0 is taken as 1e-12."""

    def _fit_scale(self, X):
        self.mean_ = X.mean(axis=-2)
        self.scale_ = np.maximum(X.std(axis=-2), 1e-12)
        return self._scale(X)

    def _scale(self, X):
        return (np.asarray(X, dtype=np.float64) - self.mean_[..., None, :]) \
            / self.scale_[..., None, :]


class LogisticRegression(Standardizing):
    def __init__(self, reg_strength=1.0, max_iter=1000, tol=1e-6):
        self.reg_strength = reg_strength
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X, y, rng=None):
        Z = self._fit_scale(np.asarray(X, dtype=np.float64))
        (self.coef_,), (b,), (steps,) = newton(Z[None], y, self.reg_strength, self.max_iter,
                                               self.tol)
        # a fit that takes no step keeps the float 0.0 it starts from
        self.intercept_ = b if steps else 0.0
        return self

    def stack_labels(self, X, y, X_held) -> np.ndarray:
        """`learners.stack_labels` for this learner, the whole stack fitted
        at once: bit for bit what `fit` and then `predict` on each pair of
        tables alone give. Both stacks must be C-ordered."""
        scaler = Standardizing()
        W, b, _ = newton(scaler._fit_scale(X), y, self.reg_strength, self.max_iter, self.tol)
        return _sigmoid(np.matmul(scaler._scale(X_held), W[:, :, None])[:, :, 0] + b[:, None]) > 0.5

    def decision_function(self, X):
        return self._scale(X) @ self.coef_ + self.intercept_

    def predict_proba(self, X):
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])
