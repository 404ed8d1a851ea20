"""Kernel SVM trained by sequential minimal optimization.

Pairwise working-set optimization with an error cache and second-choice
heuristics. The default sigmoid kernel tanh(g*<x,x'> + c) is indefinite, so
when the pair curvature is non-positive the step evaluates the dual
objective at both clip bounds instead of using the analytic optimum.

Decision values are squashed through a logistic to give uncalibrated
pseudo-probabilities; they are only used as ranking scores and stacking
features.
"""

import math

import numpy as np

_EPS = 1e-8


def sigmoid_kernel(A, B, gamma, coef0):
    return np.tanh(gamma * (A @ B.T) + coef0)


def rbf_kernel(A, B, gamma, coef0=0.0):
    aa = (A**2).sum(axis=1)[:, None]
    bb = (B**2).sum(axis=1)[None, :]
    return np.exp(-gamma * np.maximum(aa + bb - 2.0 * A @ B.T, 0.0))


def linear_kernel(A, B, gamma=None, coef0=0.0):
    return A @ B.T


_KERNELS = {"sigmoid": sigmoid_kernel, "rbf": rbf_kernel, "linear": linear_kernel}


class SmoSvm:
    def __init__(self, c=1.0, kernel="sigmoid", gamma="scale", coef0=0.0,
                 tol=1e-3, max_pass_factor=10):
        if not (isinstance(kernel, str) and kernel in _KERNELS):
            raise ValueError(f"unknown kernel {kernel!r}")
        number = not isinstance(gamma, bool) and isinstance(gamma, (int, float))
        if gamma != "scale" and not (number and math.isfinite(gamma) and gamma > 0):
            raise ValueError(f"gamma must be 'scale' or a finite number greater than 0, "
                             f"got {gamma!r}")
        self.c = c
        self.kernel = kernel
        self.gamma = gamma
        self.coef0 = coef0
        self.tol = tol
        self.max_pass_factor = max_pass_factor

    def _gamma_value(self, X):
        if self.gamma == "scale":
            var = float(X.var())
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        return float(self.gamma)

    def fit(self, X, y, rng=None):
        rng = rng or np.random.default_rng(0)
        X = np.asarray(X, dtype=np.float64)
        t = np.where(np.asarray(y) == 1, 1.0, -1.0)
        n = len(t)
        self.gamma_ = self._gamma_value(X)
        K = _KERNELS[self.kernel](X, X, self.gamma_, self.coef0)
        alpha = np.zeros(n)
        b = 0.0
        E = -t.copy()  # f = 0 initially, so E = f - t
        C, tol = self.c, self.tol
        # the loop reads its scalars as Python floats, the same IEEE doubles
        # as numpy's scalars at a fraction of the cost; `al` and `tl` mirror
        # alpha and t, and `non_bound` is kept until a step changes alpha
        al, tl = alpha.tolist(), t.tolist()
        non_bound = None
        stepped = False

        def take_step(i1, i2):
            nonlocal b, non_bound, stepped
            if i1 == i2:
                return False
            a1o, a2o = al[i1], al[i2]
            y1, y2 = tl[i1], tl[i2]
            s = y1 * y2
            # L = max(0, lo) and H = min(C, hi), as conditionals
            if s < 0:
                lo, hi = a2o - a1o, C + a2o - a1o
            else:
                lo, hi = a2o + a1o - C, a2o + a1o
            L = lo if lo > 0.0 else 0.0
            H = hi if hi < C else C
            if L >= H:
                return False
            E1, E2 = E.item(i1), E.item(i2)
            k11, k12, k22 = K.item(i1, i1), K.item(i1, i2), K.item(i2, i2)
            eta = k11 + k22 - 2.0 * k12
            if eta > 0:
                a2 = a2o + y2 * (E1 - E2) / eta
                a2 = min(max(a2, L), H)
            else:
                # indefinite direction: compare the dual objective at L and H
                f1 = E1 + y1 - b
                f2 = E2 + y2 - b
                v1 = f1 - a1o * y1 * k11 - a2o * y2 * k12
                v2 = f2 - a1o * y1 * k12 - a2o * y2 * k22

                def dual(a2c):
                    a1c = a1o + s * (a2o - a2c)
                    return (
                        a1c + a2c
                        - 0.5 * k11 * a1c * a1c
                        - 0.5 * k22 * a2c * a2c
                        - s * k12 * a1c * a2c
                        - y1 * a1c * v1
                        - y2 * a2c * v2
                    )

                wl, wh = dual(L), dual(H)
                if wl > wh + _EPS:
                    a2 = L
                elif wh > wl + _EPS:
                    a2 = H
                else:
                    a2 = a2o
            if abs(a2 - a2o) < _EPS * (a2 + a2o + _EPS):
                return False
            a1 = a1o + s * (a2o - a2)
            d1, d2 = y1 * (a1 - a1o), y2 * (a2 - a2o)
            b1 = b - E1 - d1 * k11 - d2 * k12
            b2 = b - E2 - d1 * k12 - d2 * k22
            if _EPS < a1 < C - _EPS:
                b_new = b1
            elif _EPS < a2 < C - _EPS:
                b_new = b2
            else:
                b_new = 0.5 * (b1 + b2)
            E[:] += d1 * K[i1] + d2 * K[i2] + (b_new - b)
            alpha[i1], alpha[i2] = al[i1], al[i2] = a1, a2
            b = b_new
            non_bound, stepped = None, True
            return True

        def examine(i2):
            nonlocal non_bound
            r2 = E.item(i2) * tl[i2]
            a2 = al[i2]
            if not ((r2 < -tol and a2 < C) or (r2 > tol and a2 > 0)):
                return 0
            if non_bound is None:
                non_bound = np.flatnonzero((alpha > _EPS) & (alpha < C - _EPS)).tolist()
            size = len(non_bound)
            if size > 1:
                i1 = non_bound[np.argmax(np.abs(E[non_bound] - E.item(i2)))]
                if take_step(i1, i2):
                    return 1
            if size:
                start = rng.integers(size)
                for i1 in non_bound[start:] + non_bound[:start]:
                    if take_step(i1, i2):
                        return 1
            start = int(rng.integers(n))
            for i1 in range(start, n):
                if take_step(i1, i2):
                    return 1
            for i1 in range(start):
                if take_step(i1, i2):
                    return 1
            return 0

        max_passes = self.max_pass_factor * n
        examine_all = True
        passes = 0
        self.converged_ = False
        while passes < max_passes:
            changed = 0
            if examine_all:
                for i2 in range(n):
                    changed += examine(i2)
            else:
                for i2 in np.flatnonzero((alpha > _EPS) & (alpha < C - _EPS)).tolist():
                    changed += examine(i2)
            passes += 1
            if examine_all:
                if changed == 0:
                    self.converged_ = True
                    break
                examine_all = False
            elif changed == 0:
                examine_all = True

        support = alpha > _EPS
        self.alpha_y_ = (alpha * t)[support]
        self.support_vectors_ = X[support]
        # pickled with its type: an np.float64 once any step was accepted, as
        # when the loop read numpy scalars, so `model.pkl` keeps its bytes
        self.b_ = np.float64(b) if stepped else b
        self.n_passes_ = passes
        self._train_kkt = self._kkt_violations(alpha, t, E)
        return self

    def _kkt_violations(self, alpha, t, E):
        """Max violation of the first-order conditions, per the trained cache."""
        yf = t * (E + t)  # E = f - t, so f = E + t
        v_zero = np.where(alpha <= _EPS, np.maximum(0.0, 1.0 - yf), 0.0)
        v_c = np.where(alpha >= self.c - _EPS, np.maximum(0.0, yf - 1.0), 0.0)
        free = (alpha > _EPS) & (alpha < self.c - _EPS)
        v_free = np.where(free, np.abs(yf - 1.0), 0.0)
        return float(np.max(np.concatenate([v_zero, v_c, v_free])))

    def convergence_note(self) -> str:
        """Why `fit` stopped, if it stopped unconverged (at its pass limit):
        the passes it made and its largest violation of the optimality (KKT)
        conditions on the training rows; "" when it converged."""
        if self.converged_:
            return ""
        return f"not converged: {self.n_passes_} passes, KKT violation {self._train_kkt:.4g}"

    def decision_function(self, X):
        X = np.asarray(X, dtype=np.float64)
        if self.support_vectors_.shape[0] == 0:
            return np.full(X.shape[0], self.b_)
        Kx = _KERNELS[self.kernel](X, self.support_vectors_, self.gamma_, self.coef0)
        return Kx @ self.alpha_y_ + self.b_

    def predict_proba(self, X):
        f = self.decision_function(X)
        p1 = 1.0 / (1.0 + np.exp(-np.clip(f, -250, 250)))
        return np.column_stack([1.0 - p1, p1])
