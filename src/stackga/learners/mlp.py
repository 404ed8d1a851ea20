"""Single-hidden-layer perceptron: relu units, softmax output, Adam updates.

The step size adapts by halving whenever two consecutive epochs fail to
reduce the full-set training loss. The gradient has one implementation,
`_grads_into`, which `fit` runs on each batch; `loss_and_grads` calls it
(and `_loss`) on a dict of parameters, so a finite-difference check of
`loss_and_grads` checks the kernel that trains.

`fit` keeps W1, b1, W2 and b2 as views into one flat parameter vector and
writes each batch's gradients into views of one flat gradient vector, so
each Adam operation is one in-place call over every parameter. The
operations and their order are those of a per-parameter Adam step, so the
fitted weights are the same bits.
"""

from typing import Literal

import numpy as np

from ..records import Count, Positive
from .linear import Standardizing

_NAMES = ("W1", "b1", "W2", "b2")


def _softmax(z):
    """Row softmax of two-column logits; the row max and sum are taken
    column against column, the same bits as `max`/`sum` over axis 1."""
    e = np.exp(z - np.maximum(z[:, :1], z[:, 1:]))
    return e / (e[:, :1] + e[:, 1:])


def _views(flat, shapes):
    """Consecutive views of `flat` with the given shapes."""
    views, at = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views


def _grads_into(params, X, y, rows, grads):
    """The gradients of the batch's mean cross-entropy, written into
    `grads`; the loss itself is not computed.

    `params` and `grads` are (W1, b1, W2, b2); `rows` is `arange(len(X))`.
    """
    W1, b1, W2, b2 = params
    gW1, gb1, gW2, gb2 = grads
    a = X @ W1
    a += b1
    h = np.maximum(a, 0.0)
    dlogits = h @ W2
    dlogits += b2
    dlogits -= np.maximum(dlogits[:, :1], dlogits[:, 1:])  # softmax, in place
    np.exp(dlogits, out=dlogits)
    dlogits /= dlogits[:, :1] + dlogits[:, 1:]
    dlogits[rows, y] -= 1.0
    dlogits /= X.shape[0]
    np.matmul(h.T, dlogits, out=gW2)
    dlogits.sum(axis=0, out=gb2)
    dh = dlogits @ W2.T
    # The multiply leaves -0.0 where `dh[a <= 0] = 0.0` left +0.0, which can
    # only flip the sign of a gradient entry that is exactly zero. Such an
    # entry moves no weight: Adam's v adds its square, +0.0 either way, and
    # beta1 * m + (1 - beta1) * g is beta1 * m, because m is never -0.0 (it
    # starts at +0.0, and a sum is -0.0 only when both terms are).
    dh *= a > 0
    np.matmul(X.T, dh, out=gW1)
    dh.sum(axis=0, out=gb1)


def _forward(params, Z):
    """Class probabilities (n, 2) of the (W1, b1, W2, b2) network on the
    standardized rows `Z`."""
    W1, b1, W2, b2 = params
    h = np.maximum(Z @ W1 + b1, 0.0)
    return _softmax(h @ W2 + b2)


def _loss(params, X, y, rows):
    """The batch's mean cross-entropy: a forward pass, no gradients."""
    return -np.mean(np.log(_forward(params, X)[rows, y] + 1e-12))


class MlpClassifier(Standardizing):
    """`learning_rate` is the step-size schedule, "adaptive" (halving as
    above) or "constant", and `learning_rate_init` the first step size, as
    in scikit-learn's `MLPClassifier`; `max_iter` counts epochs."""

    def __init__(self, hidden_units: Count = 100, batch_size: Count = 100,
                 learning_rate: Literal["adaptive", "constant"] = "adaptive",
                 learning_rate_init: Positive = 1e-3, max_iter: Count = 100):
        self.hidden_units = hidden_units
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.learning_rate_init = learning_rate_init
        self.max_iter = max_iter

    def _init_params(self, d, rng):
        h = self.hidden_units
        lim1 = 1.0 / np.sqrt(d)
        lim2 = 1.0 / np.sqrt(h)
        return {
            "W1": rng.uniform(-lim1, lim1, size=(d, h)),
            "b1": np.zeros(h),
            "W2": rng.uniform(-lim2, lim2, size=(h, 2)),
            "b2": np.zeros(2),
        }

    @staticmethod
    def loss_and_grads(params, X, y):
        """Mean cross-entropy over the batch and its exact parameter
        gradients, from the kernels `fit` runs, on a dict of parameters."""
        values = [params[k] for k in _NAMES]
        grads = [np.empty_like(p) for p in values]
        rows = np.arange(X.shape[0])
        _grads_into(values, X, y, rows, grads)
        return _loss(values, X, y, rows), dict(zip(_NAMES, grads))

    def fit(self, X, y, rng=None):
        rng = rng or np.random.default_rng(0)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        Z = self._fit_scale(X)
        n = Z.shape[0]
        init = self._init_params(Z.shape[1], rng)
        shapes = [init[k].shape for k in _NAMES]
        theta = np.concatenate([init[k].ravel() for k in _NAMES])
        grad = np.empty_like(theta)
        params, grads = _views(theta, shapes), _views(grad, shapes)
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        mhat, denom = np.empty_like(theta), np.empty_like(theta)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = self.learning_rate_init
        step = 0
        prev_loss = np.inf
        bad_epochs = 0
        batch = min(self.batch_size, n)
        rows = np.arange(n)
        for _ in range(self.max_iter):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                _grads_into(params, Z[idx], y[idx], rows[:len(idx)], grads)
                step += 1
                # m = beta1*m + (1-beta1)*g; v = beta2*v + (1-beta2)*g**2
                np.multiply(m, beta1, out=m)
                np.multiply(grad, 1 - beta1, out=mhat)
                m += mhat
                np.multiply(v, beta2, out=v)
                np.square(grad, out=denom)
                denom *= 1 - beta2
                v += denom
                # theta -= lr*mhat / (sqrt(vhat)+eps)
                np.divide(m, 1 - beta1**step, out=mhat)
                np.divide(v, 1 - beta2**step, out=denom)
                np.sqrt(denom, out=denom)
                denom += eps
                mhat *= lr
                mhat /= denom
                theta -= mhat
            if self.learning_rate == "adaptive":
                epoch_loss = _loss(params, Z, y, rows)
                if epoch_loss >= prev_loss:
                    bad_epochs += 1
                    if bad_epochs >= 2:
                        lr *= 0.5
                        bad_epochs = 0
                else:
                    bad_epochs = 0
                prev_loss = epoch_loss
        self.params_ = {k: p.copy() for k, p in zip(_NAMES, params)}
        return self

    def predict_proba(self, X):
        return _forward([self.params_[k] for k in _NAMES], self._scale(X))
