"""Kernel SVM trained by sequential minimal optimization.

The solver is LIBSVM's (Fan, Chen & Lin 2005, "Working set selection using
second order information for training support vector machines", JMLR 6). It
works on beta = y * alpha and on v = -y * G, where G is the gradient of the
dual 1/2 a'Qa - e'a: v = y - K beta. Each step takes the maximal violating i
(the largest v among the rows whose beta may rise), then the j whose beta may
fall with the largest second-order gain b^2/a, and moves the pair along the
equality constraint sum(beta) = 0, clipped to the box. The default sigmoid
kernel tanh(g*<x,x'> + c) is not positive semi-definite, so a pair curvature
a <= 0 is replaced by 1e-12, LIBSVM's tau (Lin & Lin 2003, "A study on
sigmoid kernels for SVM and the training of non-PSD kernels by SMO-type
methods").

Inputs are standardized with the training mean and std, as in the logistic
regression and the MLP: on raw clinical scales the sigmoid kernel saturates
and its SVM ranks backwards.

Decision values are squashed through a logistic to give uncalibrated
pseudo-probabilities; they are only used as ranking scores and stacking
features.
"""

import numpy as np

from .linear import Standardizing


def sigmoid_kernel(A, B, gamma, coef0):
    return np.tanh(gamma * (A @ B.T) + coef0)


def rbf_kernel(A, B, gamma, coef0=0.0):
    aa = (A**2).sum(axis=1)[:, None]
    bb = (B**2).sum(axis=1)[None, :]
    return np.exp(-gamma * np.maximum(aa + bb - 2.0 * A @ B.T, 0.0))


def linear_kernel(A, B, gamma=None, coef0=0.0):
    return A @ B.T


_KERNELS = {"sigmoid": sigmoid_kernel, "rbf": rbf_kernel, "linear": linear_kernel}


class SmoSvm(Standardizing):
    def __init__(self, c=1.0, kernel="sigmoid", gamma="scale", coef0=0.0,
                 tol=1e-3, max_pass_factor=10):
        self.c = c
        self.kernel = kernel
        self.gamma = gamma
        self.coef0 = coef0
        self.tol = tol
        self.max_pass_factor = max_pass_factor

    def _gamma_value(self, Z):
        if self.gamma == "scale":
            var = float(Z.var())
            return 1.0 / (Z.shape[1] * var) if var > 0 else 1.0
        return float(self.gamma)

    def fit(self, X, y, rng=None):
        """Solve the dual to `tol` (the maximal violating pair's gap) or stop
        after `max_pass_factor * n` pair updates; draws no random numbers."""
        X = np.asarray(X, dtype=np.float64)
        y = np.where(np.asarray(y) == 1, 1.0, -1.0)
        n = len(y)
        Z = self._fit_scale(X)
        self.gamma_ = self._gamma_value(Z)
        K = _KERNELS[self.kernel](Z, Z, self.gamma_, self.coef0)
        diag = K.diagonal().copy()
        lo, hi = np.minimum(0.0, self.c * y), np.maximum(0.0, self.c * y)
        beta = np.zeros(n)
        v = y.copy()
        self.n_iter_ = 0
        while True:
            up = np.where(beta < hi, v, -np.inf)  # v where beta may rise
            low = np.where(beta > lo, v, np.inf)  # v where beta may fall
            i = int(up.argmax())
            m, M = up[i], low.min()
            self.gap_ = float(m - M)
            self.converged_ = self.gap_ < self.tol
            if self.converged_ or self.n_iter_ == self.max_pass_factor * n:
                break
            b = m - low
            a = diag[i] + diag - 2.0 * K[i]
            a = np.where(a > 0, a, 1e-12)
            j = int(np.where(b > 0, -b * b / a, np.inf).argmin())
            room_i, room_j = hi[i] - beta[i], beta[j] - lo[j]
            step = min(b[j] / a[j], room_i, room_j)
            beta[i] = hi[i] if step == room_i else beta[i] + step
            beta[j] = lo[j] if step == room_j else beta[j] - step
            v -= step * (K[i] - K[j])
            self.n_iter_ += 1
        free = (beta > lo) & (beta < hi)
        self.b_ = float(v[free].mean()) if free.any() else float(m + M) / 2
        support = beta != 0
        self.alpha_y_ = beta[support]
        self.support_vectors_ = Z[support]
        return self

    def convergence_note(self) -> str:
        """Why `fit` stopped, if it stopped unconverged (at its update cap):
        the updates it made and the maximal violating pair's gap left; ""
        when it converged."""
        if self.converged_:
            return ""
        return f"not converged: {self.n_iter_} iterations, optimality gap {self.gap_:.4g}"

    def decision_function(self, X):
        Z = self._scale(X)
        if self.support_vectors_.shape[0] == 0:
            return np.full(Z.shape[0], self.b_)
        Kx = _KERNELS[self.kernel](Z, self.support_vectors_, self.gamma_, self.coef0)
        return Kx @ self.alpha_y_ + self.b_

    def predict_proba(self, X):
        f = self.decision_function(X)
        p1 = 1.0 / (1.0 + np.exp(-np.clip(f, -250, 250)))
        return np.column_stack([1.0 - p1, p1])
