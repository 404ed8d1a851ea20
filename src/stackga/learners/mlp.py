"""Single-hidden-layer perceptron: relu units, softmax output, Adam updates.

The step size adapts by halving whenever two consecutive epochs fail to
reduce the full-set training loss. `loss_and_grads` is the exact analytic
gradient used by the optimizer, kept as a standalone method so it can be
checked against finite differences.

`fit` keeps W1, b1, W2 and b2 as views into one flat parameter vector and
writes each batch's gradients into views of one flat gradient vector, so
each Adam operation is one in-place call over every parameter. The
operations and their order are those of a per-parameter Adam step, so the
fitted weights are the same bits.
"""

import numpy as np

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
    """`loss_and_grads`' gradients for one batch, written into `grads`.

    `params` and `grads` are (W1, b1, W2, b2); `rows` is `arange(len(X))`.
    The loss itself is not computed.
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


def _loss(params, X, y, rows):
    """`loss_and_grads`' loss alone: a forward pass, no gradients."""
    W1, b1, W2, b2 = params
    h = np.maximum(X @ W1 + b1, 0.0)
    probs = _softmax(h @ W2 + b2)
    return -np.mean(np.log(probs[rows, y] + 1e-12))


class MlpClassifier(Standardizing):
    """`learning_rate` is the step-size schedule, "adaptive" (halving as
    above) or "constant", and `learning_rate_init` the first step size, as
    in scikit-learn's `MLPClassifier`; `max_iter` counts epochs."""

    def __init__(self, hidden_units=100, batch_size=100, learning_rate="adaptive",
                 learning_rate_init=1e-3, max_iter=100):
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
        """Mean cross-entropy over the batch and its exact parameter gradients."""
        W1, b1, W2, b2 = params["W1"], params["b1"], params["W2"], params["b2"]
        n = X.shape[0]
        a = X @ W1 + b1
        h = np.maximum(a, 0.0)
        probs = _softmax(h @ W2 + b2)
        eps = 1e-12
        loss = -np.mean(np.log(probs[np.arange(n), y] + eps))
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        grads = {
            "W2": h.T @ dlogits,
            "b2": dlogits.sum(axis=0),
        }
        dh = dlogits @ W2.T
        dh *= a > 0
        grads["W1"] = X.T @ dh
        grads["b1"] = dh.sum(axis=0)
        return loss, grads

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
        h = np.maximum(self._scale(X) @ self.params_["W1"] + self.params_["b1"], 0.0)
        return _softmax(h @ self.params_["W2"] + self.params_["b2"])
