"""The fit kernels against the code they replaced, bit for bit.

The references below are that code: the MLP's per-parameter Adam loop over
`loss_and_grads` as it was written (softmax by axis reductions, relu
gradient zeroed by a mask), the split criteria's nested `np.where` masks, the
two-branch sigmoid and the logistic regression's Newton loop on one table
as it was written, the GA wrapper fitness that re-takes every fold from the
masked table for each mask and fits it alone, the random forest grown on duplicated bootstrap rows,
both boosters fitting each round's tree with `fit_trees`, and the split's
partition by a running count of left rows. Hypothesis properties compare them
with the fast kernels on small inputs. The SMO solver has no reference: its
property checks the optimality conditions of the dual it solves.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stackga import genetic
from stackga.dataset import Dataset, Schema, select_features
from stackga.genetic import (GaConfig, evolve, mask_accuracies, run_ga, wrapper_folds,
                             wrapper_plan)
from stackga.learners import LearnerSpec, predict, stack_labels, train
from stackga.learners import adaboost, boosting, linear, mlp
from stackga.learners import tree as tree_module
from stackga.learners.adaboost import AdaBoost
from stackga.learners.boosting import GradientBoosting
from stackga.learners.forest import RandomForest
from stackga.learners.linear import LogisticRegression
from stackga.learners.mlp import MlpClassifier
from stackga.learners.svm import SmoSvm
from stackga.learners.tree import ClassificationTree, RegressionTree

from support import batched, fitness, saved_bytes, svm_gap


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- reference kernels --------------------------------------------------------

def softmax_reference(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads_reference(params, X, y):
    W1, b1, W2, b2 = params["W1"], params["b1"], params["W2"], params["b2"]
    n = X.shape[0]
    a = X @ W1 + b1
    h = np.maximum(a, 0.0)
    probs = softmax_reference(h @ W2 + b2)
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
    dh[a <= 0] = 0.0
    grads["W1"] = X.T @ dh
    grads["b1"] = dh.sum(axis=0)
    return loss, grads


def mlp_fit_reference(clf, X, y, rng):
    """`MlpClassifier.fit` with Adam run per parameter over
    `loss_and_grads_reference` and the full-set loss taken from a full
    forward and backward pass."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    mean = X.mean(axis=0)
    scale = np.maximum(X.std(axis=0), 1e-12)
    Z = (X - mean) / scale
    n = Z.shape[0]
    params = clf._init_params(Z.shape[1], rng)
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = clf.learning_rate_init
    step = 0
    prev_loss = np.inf
    bad_epochs = 0
    batch = min(clf.batch_size, n)
    for _ in range(clf.max_iter):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            _, grads = loss_and_grads_reference(params, Z[idx], y[idx])
            step += 1
            for k in params:
                m[k] = beta1 * m[k] + (1 - beta1) * grads[k]
                v[k] = beta2 * v[k] + (1 - beta2) * grads[k] ** 2
                mhat = m[k] / (1 - beta1**step)
                vhat = v[k] / (1 - beta2**step)
                params[k] -= lr * mhat / (np.sqrt(vhat) + eps)
        epoch_loss, _ = loss_and_grads_reference(params, Z, y)
        if clf.learning_rate == "adaptive":
            if epoch_loss >= prev_loss:
                bad_epochs += 1
                if bad_epochs >= 2:
                    lr *= 0.5
                    bad_epochs = 0
            else:
                bad_epochs = 0
        prev_loss = epoch_loss
    return params


def entropy_sum_reference(w1, w):
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(w > 0, w1 / np.where(w > 0, w, 1.0), 0.0)
        q = 1.0 - p
        plog = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        qlog = np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0)
    return -w * (plog + qlog)


def gini_sum_reference(w1, w):
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(w > 0, w1 / np.where(w > 0, w, 1.0), 0.0)
    return w * 2.0 * p * (1.0 - p)


def sigmoid_reference(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_fit_reference(X, y, reg_strength=1.0, max_iter=1000, tol=1e-6):
    """(coef, intercept) of the Newton loop with per-step allocations."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Z = (X - X.mean(axis=0)) / np.maximum(X.std(axis=0), 1e-12)
    n, d = Z.shape
    w = np.zeros(d)
    b = 0.0
    lam = reg_strength
    for _ in range(max_iter):
        p = sigmoid_reference(Z @ w + b)
        grad_w = Z.T @ (p - y) + lam * w
        grad_b = np.sum(p - y)
        if max(np.abs(grad_w).max(initial=0.0), abs(grad_b)) < tol * n:
            break
        r = np.maximum(p * (1.0 - p), 1e-10)
        H = (Z * r[:, None]).T @ Z
        H[np.diag_indices(d)] += lam
        hb = float(r.sum())
        hwb = Z.T @ r
        A = np.empty((d + 1, d + 1))
        A[:d, :d] = H
        A[:d, d] = hwb
        A[d, :d] = hwb
        A[d, d] = hb
        g = np.append(grad_w, grad_b)
        step = np.linalg.solve(A + 1e-10 * np.eye(d + 1), g)
        w -= step[:d]
        b -= step[d]
    return w, b


def wrapper_cv_accuracy_reference(ds, wrapper, plan):
    correct = 0
    for fold in range(plan.k):
        fit_part = ds.take(plan.train_indices(fold))
        held = ds.take(plan.test_indices(fold))
        model = train(wrapper, fit_part)
        correct += int((predict(model, held.features) == held.labels).sum())
    return correct / ds.n_samples


def run_ga_reference(config, ds, wrapper, cv_k):
    plan = wrapper_plan(ds, cv_k, config.seed)
    return evolve(config, batched(lambda bits: wrapper_cv_accuracy_reference(
        select_features(ds, np.flatnonzero(bits)), wrapper, plan)))


def forest_tree_bytes_reference(forest, X, y, rng):
    """The saved bytes of the trees of `RandomForest.fit` as it grew each tree on its
    bootstrap sample's duplicated rows, presorted by its own argsort."""
    X = np.asarray(X, dtype=np.float64)
    n = len(y)
    rngs = [np.random.default_rng(rng.integers(2**63)) for _ in range(forest.n_estimators)]
    samples = [tree_rng.integers(0, n, n) for tree_rng in rngs]
    trees = []
    for sample, tree_rng in zip(samples, rngs):
        tree = ClassificationTree(forest.criterion, forest.max_depth, forest.max_features)
        tree_module.fit_trees([tree], X[sample], y[sample], rngs=[tree_rng])
        trees.append(saved_bytes(tree))
    return trees


def gradient_boosting_fit_reference(model, X, y):
    """`GradientBoosting.fit` with each stage's tree fitted on its own by
    `fit_trees`; fits `model` in place."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p0 = np.clip(y.mean(), 1e-12, 1 - 1e-12)
    model.base_score_ = float(np.log(p0 / (1 - p0)))
    raw = np.full(len(y), model.base_score_)
    model.stages_ = []
    model.train_deviance_ = [boosting._deviance(y, raw)]
    order = tree_module.presort(X)
    for _ in range(model.n_estimators):
        p = boosting._sigmoid(raw)
        residual = y - p
        tree = RegressionTree(max_depth=model.max_depth)
        (leaf_ids,) = tree_module.fit_trees([tree], X, residual, order=order)
        hess = np.maximum(p * (1 - p), 1e-12)
        num = np.bincount(leaf_ids, weights=residual, minlength=len(tree.value))
        den = np.bincount(leaf_ids, weights=hess, minlength=len(tree.value))
        gamma = num / np.maximum(den, 1e-12)
        raw = raw + model.learning_rate * gamma[leaf_ids]
        model.stages_.append((tree, gamma))
        model.train_deviance_.append(boosting._deviance(y, raw))
    return model


def adaboost_fit_reference(model, X, y):
    """`AdaBoost.fit` with each round's tree fitted on its own by
    `fit_trees`; fits `model` in place."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    model.prior1_ = float(y.mean())
    w = np.full(n, 1.0 / n)
    model.stumps_ = []
    y_sign = np.where(y == 1, 1.0, -1.0)
    order = tree_module.presort(X)
    for _ in range(model.n_estimators):
        stump = ClassificationTree(model.criterion, max_depth=model.max_depth)
        (leaf,) = tree_module.fit_trees([stump], X, y, w, order=order)
        hard = (stump.value[leaf, 1] > 0.5).astype(np.int64)
        err = float(w[hard != y].sum() / w.sum())
        if err >= 0.5:
            break
        model.stumps_.append(stump)
        if err == 0.0:
            break
        w = w * np.exp(-model.learning_rate * y_sign * adaboost._scores(stump.value)[leaf])
        w /= w.sum()
    return model


def partition_reference(ord_, pos, sub, go_left, offs, node_of, left_size, n_rows):
    """`_Grower._partition` as it was written: every position's new place
    from a running count of the left rows before it; partitions `ord_` in
    place."""
    row_offset = (np.arange(len(ord_)) * ord_.shape[1])[:, None]
    g = np.zeros(n_rows, dtype=bool)
    g[sub[0]] = go_left
    g = g.take(sub)
    lefts = g.cumsum(axis=1) - g
    lefts -= lefts[:, offs][:, node_of]
    new = np.where(g, offs[node_of] + lefts, np.arange(len(pos)) + left_size[node_of] - lefts)
    ord_[:len(sub)].ravel()[pos.take(new) + row_offset[:len(sub)]] = sub


# -- inputs ---------------------------------------------------------------------

@st.composite
def tables(draw, max_rows=40, max_features=8):
    """A small real table with both classes, columns on unlike scales."""
    n = draw(st.integers(4, max_rows))
    d = draw(st.integers(1, max_features))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 50, size=d) + rng.normal(0, 20, size=d)
    if draw(st.booleans()):
        X = np.round(X)  # ties and repeated rows
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    return X, y


# -- MLP ------------------------------------------------------------------------

@given(data=tables(), hidden=st.integers(1, 12), batch=st.integers(1, 50),
       epochs=st.integers(1, 6), adaptive=st.booleans(), seed=st.integers(0, 99))
def test_mlp_fit_equals_the_per_parameter_adam_loop(data, hidden, batch, epochs,
                                                    adaptive, seed):
    X, y = data  # batch ranges over sizes that divide n, do not, and exceed it
    clf = MlpClassifier(hidden_units=hidden, batch_size=batch, max_iter=epochs,
                        learning_rate="adaptive" if adaptive else "constant",
                        learning_rate_init=0.01)
    clf.fit(X, y, rng=np.random.default_rng(seed))
    want = mlp_fit_reference(clf, X, y, np.random.default_rng(seed))
    assert list(clf.params_) == list(want)
    for k in want:
        assert same_bits(clf.params_[k], want[k]), k
        assert clf.params_[k].flags.c_contiguous and clf.params_[k].base is None
    assert saved_bytes(clf.params_) == saved_bytes(want)
    Q = np.vstack([X, X * 1.5 + 0.25])
    h = np.maximum((Q - clf.mean_) / clf.scale_ @ want["W1"] + want["b1"], 0.0)
    assert same_bits(clf.predict_proba(Q), softmax_reference(h @ want["W2"] + want["b2"]))


@given(data=tables(), hidden=st.integers(1, 12), seed=st.integers(0, 99))
def test_loss_and_grads_equal_the_masked_reference_but_for_zero_signs(data, hidden, seed):
    """The multiply that zeroes the relu gradient may leave -0.0 where the
    mask left +0.0; only the sign of an exactly zero entry can differ."""
    X, y = data
    params = MlpClassifier(hidden_units=hidden)._init_params(X.shape[1],
                                                             np.random.default_rng(seed))
    loss, got = MlpClassifier.loss_and_grads(params, X, y)
    want_loss, want = loss_and_grads_reference(params, X, y)
    assert same_bits(loss, want_loss)
    for k in want:
        assert same_bits(got[k] + 0.0, want[k] + 0.0), k  # + 0.0 turns -0.0 into +0.0


_LOGITS = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


@given(z=st.lists(st.tuples(_LOGITS, _LOGITS), min_size=1, max_size=30))
@example(z=[(0.0, -0.0), (-0.0, 0.0), (745.0, -745.0), (1e300, 1e300), (5e-324, 0.0)])
def test_two_column_softmax_equals_the_axis_reductions(z):
    z = np.array(z, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(mlp._softmax(z), softmax_reference(z))


# -- split criteria ---------------------------------------------------------

_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 0.5, 1e-300, 7.25]),
    st.floats(-5, 1e6, allow_nan=False),
)


@st.composite
def criterion_cells(draw):
    """(w1, w) cells: zero and negative totals, shares of exactly 0 and 1,
    signed zeros, and shares anywhere in [0, 1] or beyond."""
    cells = draw(st.lists(st.tuples(_WEIGHTS, st.sampled_from(
        ["zero", "negzero", "all", "half", "third", "free"]), st.floats(-3, 3)),
        min_size=1, max_size=30))
    w1, w = [], []
    for total, kind, free in cells:
        w.append(total)
        w1.append({"zero": 0.0, "negzero": -0.0, "all": total, "half": total / 2,
                   "third": total / 3, "free": free}[kind])
    return np.array(w1), np.array(w)


@given(cells=criterion_cells())
def test_criteria_equal_the_masked_reference(cells):
    w1, w = cells
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        finite = np.isfinite(np.where(w > 0, w1 / np.where(w > 0, w, 1.0), 0.0))
    w1, w = w1[finite], w[finite]  # the documented domain: a finite share
    got = tree_module._entropy_sum(w1, w)
    want = entropy_sum_reference(w1, w)
    assert same_bits(got, want)
    assert (np.signbit(got) == np.signbit(want)).all()
    assert same_bits(tree_module._gini_sum(w1, w), gini_sum_reference(w1, w))


def test_criteria_on_the_edge_cells():
    w = np.array([0.0, -0.0, 4.0, 4.0, 4.0, 1.0, -2.0, 3.0])
    w1 = np.array([1.0, 0.0, 0.0, 4.0, -0.0, 0.5, 1.0, 3.5])
    for got, want in ((tree_module._entropy_sum(w1, w), entropy_sum_reference(w1, w)),
                      (tree_module._gini_sum(w1, w), gini_sum_reference(w1, w))):
        assert same_bits(got, want)


# -- logistic regression ---------------------------------------------------

def test_sigmoid_equals_the_two_branch_reference_at_the_extremes():
    z = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308,
                  5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8, np.inf, -np.inf])
    with np.errstate(over="ignore"):
        assert same_bits(linear._sigmoid(z), sigmoid_reference(z))
    nan = np.array([np.nan, -np.nan])
    assert same_bits(linear._sigmoid(nan), sigmoid_reference(nan))


@given(z=st.lists(st.floats(allow_nan=False), max_size=40))
def test_sigmoid_equals_the_two_branch_reference(z):
    z = np.array(z, dtype=np.float64)
    with np.errstate(over="ignore"):
        assert same_bits(linear._sigmoid(z), sigmoid_reference(z))


@given(data=tables(max_rows=60), reg=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
       max_iter=st.integers(1, 30))
def test_logistic_fit_equals_the_reference_newton_loop(data, reg, max_iter):
    X, y = data
    lr = LogisticRegression(reg_strength=reg, max_iter=max_iter).fit(X, y)
    w, b = logistic_fit_reference(X, y, reg_strength=reg, max_iter=max_iter)
    assert same_bits(lr.coef_, w)
    assert same_bits(np.float64(lr.intercept_), np.float64(b))
    assert type(lr.intercept_) is type(b)


@st.composite
def stacks(draw):
    """(X, y): a stack of 1-6 tables (B, n, d) on one set of labels, each
    table on its own scales; some with a constant column, some with labels
    one column separates (no reg_strength stops those short of max_iter)."""
    B, n, d = draw(st.integers(1, 6)), draw(st.integers(4, 50)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(B, n, d)) * rng.uniform(0.1, 50, size=(B, 1, d)) \
        + rng.normal(0, 20, size=(B, 1, d))
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    for i in range(B):
        kind = draw(st.sampled_from(["plain", "constant", "separable"]))
        if kind == "constant":
            X[i, :, draw(st.integers(0, d - 1))] = 7.0
        elif kind == "separable":
            X[i, :, 0] = np.where(y == 1, 1.0, -1.0) * rng.uniform(1, 2, n)
    return X, y


@given(data=stacks(), reg=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
       max_iter=st.integers(1, 12))
def test_stacked_fits_equal_the_per_table_reference(data, reg, max_iter):
    """Each system of a stacked Newton solve stops on its own test and keeps
    the bits of the reference loop on its table alone."""
    X, y = data
    scaler = linear.Standardizing()
    W, b, steps = linear.newton(scaler._fit_scale(X), y, reg, max_iter, 1e-6)
    assert (steps <= max_iter).all()  # none for a constant table on balanced labels
    for i in range(len(X)):
        w_ref, b_ref = logistic_fit_reference(X[i], y, reg_strength=reg, max_iter=max_iter)
        assert same_bits(scaler.mean_[i], X[i].mean(axis=0))
        assert same_bits(scaler.scale_[i], np.maximum(X[i].std(axis=0), 1e-12))
        assert same_bits(W[i], w_ref)
        assert same_bits(b[i], np.float64(b_ref))
    held = X[:, ::-1] * 1.5 + 0.25
    lr = LogisticRegression(reg_strength=reg, max_iter=max_iter)
    labels = lr.stack_labels(X, y, np.ascontiguousarray(held))
    for i in range(len(X)):
        alone = LogisticRegression(reg_strength=reg, max_iter=max_iter).fit(X[i], y)
        assert same_bits(labels[i], alone.predict_proba(held[i])[:, 1] > 0.5)


def test_stacked_systems_stop_at_their_own_iteration():
    """A stack whose systems stop after different step counts, one of them
    at max_iter, each equal to the reference."""
    rng = np.random.default_rng(5)
    y = np.arange(40) % 2
    X = rng.normal(size=(3, 40, 2)) * [[[1.0, 30.0]], [[5.0, 0.2]], [[1.0, 1.0]]]
    X[2, :, 0] = np.where(y == 1, 1.0, -1.0)  # separable: no stop before max_iter
    W, b, steps = linear.newton(linear.Standardizing()._fit_scale(X), y, 0.0, 9, 1e-6)
    assert len(set(steps.tolist())) > 1 and steps.max() == 9
    for i in range(3):
        w_ref, b_ref = logistic_fit_reference(X[i], y, reg_strength=0.0, max_iter=9)
        assert same_bits(W[i], w_ref) and same_bits(b[i], np.float64(b_ref))


# -- GA wrapper fitness ------------------------------------------------------

def _dataset(X, y):
    d = X.shape[1]
    schema = Schema(tuple(f"c{i}" for i in range(d)) + ("label",), d,
                    frozenset(range(0, d, 2)))
    return Dataset(X, y, schema)


# on a table this small the held rows sit on P = 0.5, so a fold fit that
# sees its columns in another memory layout (a mean summed in another order)
# changes the fitness
_TIE_TABLE = (np.array([[-45.0, -22, 23, 18], [-93, -14, 2, 2], [-91, -2, 10, 46],
                        [2, 10, -6, 66]]), np.zeros(4, dtype=np.int64))


@given(data=tables(max_rows=36), seed=st.integers(0, 50), cv_k=st.integers(2, 4),
       nind=st.integers(2, 5), subpop=st.integers(1, 3))
@example(data=_TIE_TABLE, seed=1, cv_k=2, nind=2, subpop=3)
def test_run_ga_equals_the_per_mask_fold_reference(data, seed, cv_k, nind, subpop):
    X, y = data
    y = np.arange(len(y)) % 2  # both classes in every fold's fit part
    ds = _dataset(X, y)
    config = GaConfig(n_bits=ds.n_features, nind=nind, subpop=subpop, maxgen=3, miggen=2,
                      stall_generations=2, seed=seed)
    wrapper = LearnerSpec("logistic_regression", {"max_iter": 20}, seed)
    got = run_ga(config, ds, wrapper, cv_k=cv_k)
    want = run_ga_reference(config, ds, wrapper, cv_k)
    assert same_bits(got.best_chromosome, want.best_chromosome)
    assert got.best_fitness == want.best_fitness
    assert got.history == want.history
    assert got.evaluations == want.evaluations
    assert same_bits(got.final_population, want.final_population)


@given(data=tables(max_rows=30), seed=st.integers(0, 50),
       algorithm=st.sampled_from(["logistic_regression", "gaussian_nb", "decision_tree"]))
def test_mask_accuracies_equal_the_reference(data, seed, algorithm):
    """Every lone column, as `feature_report` scores them, and all columns,
    in one batch, score as the reference does on the table masked first,
    whether the wrapper fits the stack at once or a table at a time (a
    decision tree draws its features from `train`'s generator)."""
    X, _ = data
    y = np.arange(len(X)) % 2
    ds = _dataset(X, y)
    plan = wrapper_plan(ds, 3, seed)
    wrapper = LearnerSpec(algorithm, {}, seed)
    folds = wrapper_folds(ds, plan)
    masks = np.vstack([np.eye(ds.n_features, dtype=np.uint8),
                       np.ones((1, ds.n_features), dtype=np.uint8)])
    assert mask_accuracies(folds, wrapper, masks) == [
        wrapper_cv_accuracy_reference(select_features(ds, np.flatnonzero(bits)), wrapper, plan)
        for bits in masks]


@pytest.mark.parametrize("algorithm", ["logistic_regression", "gaussian_nb"])
def test_fold_fits_and_predictions_see_the_reference_tables(pima_split_clean, algorithm):
    """Each fold fit and prediction, as one table of a stack
    (`learners.stack_labels`), gets the rows, columns, bytes and memory
    layout that masking the table first and then taking the fold gives."""
    ds, _ = pima_split_clean
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 1], dtype=np.uint8)
    wrapper = LearnerSpec(algorithm, {}, 4)
    fits, scored = [], []

    def stack_spy(spec, X, y, X_held):
        fits.extend(SimpleNamespace(features=a, labels=y) for a in X)
        scored.extend(X_held)
        return stack_labels(spec, X, y, X_held)

    with mock.patch.object(genetic, "stack_labels", stack_spy):
        got = fitness(bits, ds, wrapper, cv_k=5, seed=3)
    plan = wrapper_plan(ds, 5, 3)
    masked = select_features(ds, np.flatnonzero(bits))
    assert got == wrapper_cv_accuracy_reference(masked, wrapper, plan)
    assert len(fits) == len(scored) == 5
    for fold, (part, X) in enumerate(zip(fits, scored)):
        want = masked.take(plan.train_indices(fold))
        held = masked.take(plan.test_indices(fold))
        for a, b in [(part.features, want.features), (X, held.features),
                     (part.labels, want.labels)]:
            assert same_bits(a, b) and a.strides == b.strides


# -- tree ensembles and boosters -------------------------------------------------

@pytest.mark.parametrize("criterion", ["entropy", "gini"])
@given(data=tables(), seed=st.integers(0, 99), max_features=st.sampled_from(["all", "sqrt"]),
       depth=st.sampled_from([1, 3, 10, None]))
def test_counts_forest_equals_the_duplicated_row_reference(criterion, data, seed,
                                                          max_features, depth):
    X, y = data
    forest = RandomForest(n_estimators=6, criterion=criterion, max_depth=depth,
                          max_features=max_features)
    forest.fit(X, y, rng=np.random.default_rng(seed))
    want = forest_tree_bytes_reference(forest, X, y, np.random.default_rng(seed))
    assert [saved_bytes(tree) for tree in forest.trees_] == want


@given(data=tables(), depth=st.integers(1, 4), rounds=st.integers(1, 12))
def test_gradient_boosting_equals_one_fit_trees_call_a_stage(data, depth, rounds):
    X, y = data
    got = GradientBoosting(n_estimators=rounds, max_depth=depth).fit(X, y)
    want = gradient_boosting_fit_reference(
        GradientBoosting(n_estimators=rounds, max_depth=depth), X, y)
    assert saved_bytes(got) == saved_bytes(want)


@given(data=tables(), depth=st.integers(1, 3), criterion=st.sampled_from(["gini", "entropy"]),
       rounds=st.integers(1, 20))
def test_adaboost_equals_one_fit_trees_call_a_round(data, depth, criterion, rounds):
    X, y = data
    settings = dict(n_estimators=rounds, criterion=criterion, max_depth=depth)
    got = AdaBoost(**settings).fit(X, y, rng=np.random.default_rng(0))
    assert saved_bytes(got) == saved_bytes(adaboost_fit_reference(AdaBoost(**settings), X, y))


@given(seed=st.integers(0, 2**16), d=st.integers(1, 4), nodes=st.integers(1, 6),
       first_only=st.booleans())
def test_partition_equals_the_running_count_reference(seed, d, nodes, first_only):
    """Segments of a frontier scattered over the sorted orders, some nodes
    splitting and some not; every feature order keeps each node's rows."""
    rng = np.random.default_rng(seed)
    size = rng.integers(1, 9, nodes)
    n_rows = int(size.sum()) + int(rng.integers(0, 5))  # rows outside the frontier too
    rows = rng.permutation(n_rows)
    offs = size.cumsum() - size
    # disjoint segments, in order, anywhere in the orders
    start = np.sort(rng.choice(n_rows - int(size.sum()) + 1, nodes)) + offs
    node_of = np.arange(nodes).repeat(size)
    pos = start.repeat(size) + np.arange(size.sum()) - offs[node_of]
    ord_ = np.stack([rng.permutation(n_rows) for _ in range(d)])
    for f in range(d):  # each segment holds the same rows in every feature's order
        for j in range(nodes):
            seg = rows[offs[j]:offs[j] + size[j]]
            ord_[f, start[j]:start[j] + size[j]] = rng.permutation(seg)
    sub = ord_.take(pos, axis=1)
    ok = rng.random(nodes) < 0.7
    go_left = (rng.random(len(pos)) < 0.5) & ok[node_of]
    left_size = np.add.reduceat(go_left, offs, dtype=np.intp)
    grower = SimpleNamespace(XT=np.empty((d, n_rows)), ord=ord_.copy())
    if first_only:
        sub = sub[:1]
    tree_module._Grower._partition(grower, pos, sub, go_left, offs, size, left_size)
    want = ord_.copy()
    partition_reference(want, pos, sub, go_left, offs, node_of, left_size, n_rows)
    assert same_bits(grower.ord, want)


# -- SMO ------------------------------------------------------------------------------

@given(data=tables(max_rows=60), kernel=st.sampled_from(["sigmoid", "rbf", "linear"]),
       c=st.sampled_from([0.05, 1.0, 20.0]))
def test_smo_stops_at_a_kkt_point_of_its_dual(data, kernel, c):
    """For the rbf and linear kernels the dual is convex, so that point is
    its optimum; the sigmoid kernel's dual is not, so it is a local one."""
    X, y = data
    # a low-rank linear kernel at c=20 is slow: up to 1,144 n updates in
    # 6,000 drawn tables, far past the default cap of 10 n
    svm = SmoSvm(c=c, kernel=kernel, max_pass_factor=10**4).fit(X, y)
    assert svm.converged_ and svm.gap_ < svm.tol
    # recomputed from the decision values; the slack is their rounding
    assert svm_gap(svm, X, y) < svm.tol + 1e-9
    assert abs(svm.alpha_y_.sum()) <= 1e-9
    assert np.all((np.abs(svm.alpha_y_) > 0) & (np.abs(svm.alpha_y_) <= c))
