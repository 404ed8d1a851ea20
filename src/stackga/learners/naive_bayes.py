"""Gaussian naive Bayes with variance smoothing."""

import numpy as np

from ..records import NonNegative


class GaussianNB:
    def __init__(self, var_smoothing: NonNegative = 1e-9):
        self.var_smoothing = var_smoothing

    def fit(self, X, y, rng=None):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_ = np.array([0, 1])
        self.priors_ = np.array([(y == c).mean() for c in self.classes_])
        self.means_ = np.array([X[y == c].mean(axis=0) for c in self.classes_])
        var = np.array([X[y == c].var(axis=0) for c in self.classes_])
        # epsilon tied to the largest feature variance keeps degenerate (constant)
        # columns from producing infinite densities; when every column is
        # constant, unit variance makes the fit predict its class prior
        largest = float(X.var(axis=0).max())
        self.eps_ = self.var_smoothing * largest if largest > 0 else 1.0
        self.vars_ = var + self.eps_
        return self

    def _joint_log_likelihood(self, X):
        jll = np.empty((X.shape[0], 2))
        for c in (0, 1):
            diff = X - self.means_[c]
            log_pdf = -0.5 * (np.log(2 * np.pi * self.vars_[c]) + diff**2 / self.vars_[c])
            jll[:, c] = np.log(self.priors_[c]) + log_pdf.sum(axis=1)
        return jll

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        p = np.exp(jll)
        return p / p.sum(axis=1, keepdims=True)
