"""Flat-array trees: group growth, a brute-force split oracle, presorting."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stackga.learners import tree as tree_module
from stackga.learners.adaboost import AdaBoost
from stackga.learners.boosting import GradientBoosting
from stackga.learners.forest import ExtraTrees, RandomForest
from stackga.learners.tree import (BoosterGrower, ClassificationTree, RegressionTree,
                                   fit_trees, presort)
from stackga.rng import child_rng

from support import saved_bytes

NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


@st.composite
def tied_data(draw):
    """Small integer-valued tables with many ties and duplicated rows."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, levels - 1), min_size=n * d, max_size=n * d))
    X = np.array(cells, dtype=float).reshape(n, d)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    y = np.array(labels)
    dup = draw(st.integers(0, n))  # repeat the first rows, labels included
    return np.vstack([X, X[:dup]]), np.concatenate([y, y[:dup]])


def _fit_with_cap(make, X, y, seed, cap):
    with mock.patch.object(tree_module, "_MAX_CELLS", cap):
        return make().fit(X, y, rng=child_rng(seed, "trees"))


def _assert_same_trees(a, b, X):
    assert len(a.trees_) == len(b.trees_)
    for ta, tb in zip(a.trees_, b.trees_):
        for name in NODE_ARRAYS:
            np.testing.assert_array_equal(getattr(ta, name), getattr(tb, name), err_msg=name)
    np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))


FORESTS = {
    "random_forest": lambda: RandomForest(n_estimators=7, max_depth=4),
    "random_forest_sqrt": lambda: RandomForest(n_estimators=7, max_depth=4,
                                               max_features="sqrt"),
    "extra_trees": lambda: ExtraTrees(n_estimators=7, max_depth=3),
}


@pytest.mark.parametrize("kind", sorted(FORESTS))
@given(data=tied_data(), seed=st.integers(0, 5), trees_per_group=st.integers(2, 6))
def test_group_size_never_changes_a_forest(kind, data, seed, trees_per_group):
    X, y = data
    make = FORESTS[kind]
    cells = X.shape[0] * X.shape[1]
    together = _fit_with_cap(make, X, y, seed, 10**9)
    one_by_one = _fit_with_cap(make, X, y, seed, 1)
    grouped = _fit_with_cap(make, X, y, seed, trees_per_group * cells)
    _assert_same_trees(together, one_by_one, X)
    _assert_same_trees(together, grouped, X)


def _oracle_scores(X, y, impurity):
    """(score, feature, threshold) of every midpoint split, by direct counting."""

    def node_sum(labels):
        n, n1 = len(labels), int(np.sum(labels))
        if impurity == "gini":
            p = n1 / n
            return n * 2.0 * p * (1.0 - p)
        h = 0.0
        for c in (n1, n - n1):
            if c:
                h -= c / n * math.log2(c / n)
        return n * h

    out = []
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = 0.5 * (lo + hi)
            left = X[:, f] <= threshold
            out.append((node_sum(y[left]) + node_sum(y[~left]), f, threshold))
    return out


@pytest.mark.parametrize("criterion", ["entropy", "gini"])
@pytest.mark.parametrize("seed", range(6))
def test_root_split_matches_brute_force_oracle(criterion, seed):
    rng = child_rng(seed, "oracle")
    X = rng.integers(0, 6, size=(60, 4)).astype(float)
    X[:, 1] = rng.normal(size=60).round(2)
    y = ((X[:, 0] + X[:, 1] + rng.normal(size=60)) > 2.5).astype(int)
    tree = ClassificationTree(criterion, max_depth=1).fit(X, y, rng=child_rng(0))
    scores = _oracle_scores(X, y, criterion)
    best = min(s for s, _, _ in scores)
    near = [(f, t) for s, f, t in scores if s <= best + 1e-9]
    assert (tree.feature[0], tree.threshold[0]) in near
    if len(near) == 1:
        assert (tree.feature[0], tree.threshold[0]) == near[0]


def test_node_arrays_layout():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    tree = ClassificationTree("gini").fit(X, y)
    np.testing.assert_array_equal(tree.feature, [0, -1, -1])
    np.testing.assert_array_equal(tree.threshold, [1.5, 0.0, 0.0])
    np.testing.assert_array_equal(tree.left, [1, -1, -1])
    np.testing.assert_array_equal(tree.right, [2, -1, -1])
    np.testing.assert_array_equal(tree.value, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(tree.apply(X), [1, 1, 2, 2])


def test_a_node_whose_midpoint_collapses_stays_a_leaf_beside_a_split():
    """Between adjacent doubles a < b whose midpoint rounds to b, every row
    of a node holding only a and b goes left, so the node is a leaf; a node
    that splits in the same frontier still partitions only its own rows."""
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert 0.5 * (a + b) == b
    X = np.array([[a, 0.0], [b, 0.0], [5.0, 1.0], [6.0, 1.0], [a, 2.0], [b, 2.0]])
    y = np.array([0, 1, 0, 1, 0, 1])
    for rows in (np.arange(6), np.arange(6)[::-1]):
        tree = ClassificationTree("gini", max_depth=4)
        (leaf,) = fit_trees([tree], X[rows], y[rows])
        np.testing.assert_array_equal(tree.feature, [0, -1, 0, -1, -1])
        np.testing.assert_array_equal(tree.threshold, [b, 0.0, 5.5, 0.0, 0.0])
        np.testing.assert_array_equal(tree.value[1], [0.5, 0.5])
        np.testing.assert_array_equal(leaf, tree.apply(X[rows]))
        np.testing.assert_array_equal(leaf, np.where(X[rows, 0] < 2, 1, np.where(
            X[rows, 0] == 5.0, 3, 4)))


def test_presorted_order_gives_the_same_trees():
    rng = child_rng(3, "presort")
    X = rng.normal(size=(80, 3)).round(1)
    y = (X[:, 0] > 0).astype(int)
    w = rng.random(80) + 0.1
    r = rng.normal(size=80)
    for make, fit_args in (
        (lambda: ClassificationTree("gini", max_depth=3), (X, y, w)),
        (lambda: RegressionTree(max_depth=3), (X, r)),
    ):
        plain, sorted_once = make(), make()
        fit_trees([plain], *fit_args)
        fit_trees([sorted_once], *fit_args, order=presort(X))
        for name in NODE_ARRAYS:
            np.testing.assert_array_equal(getattr(plain, name), getattr(sorted_once, name))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_an_infinite_sample_weight_is_rejected_with_its_row(bad):
    rng = child_rng(5, "infinite")
    X = rng.normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(int)
    w = np.ones(30)
    w[7] = bad
    fits = (lambda: ClassificationTree("gini", max_depth=2).fit(X, y, sample_weight=w),
            lambda: RegressionTree(max_depth=2).fit(X, X[:, 1], sample_weight=w),
            lambda: BoosterGrower(lambda: ClassificationTree("gini", max_depth=1), X).fit(y, w),
            lambda: BoosterGrower(lambda: RegressionTree(max_depth=2), X).fit(X[:, 1], w))
    for fit in fits:
        with pytest.raises(ValueError, match="sample_weight of row 7 is"):
            fit()


_STUMP_WEIGHTS = st.sampled_from(["unit", "integers", "zeros", "tiny", "random", "nan"])


def _assert_same_tree(got, want, got_leaf, want_leaf, X):
    for name in NODE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert saved_bytes(got) == saved_bytes(want)
    assert got_leaf.dtype == want_leaf.dtype
    np.testing.assert_array_equal(got_leaf, want_leaf)
    np.testing.assert_array_equal(got_leaf, want.apply(X))


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@given(data=tied_data(), kind=_STUMP_WEIGHTS, seed=st.integers(0, 20))
def test_booster_grower_equals_the_general_tree(criterion, depth, data, kind, seed):
    X, y = data
    rng = child_rng(seed, "stump")
    w = {"unit": np.ones(len(y)), "integers": rng.integers(0, 3, len(y)).astype(float),
         "zeros": rng.random(len(y)) * (rng.random(len(y)) < 0.5),
         "tiny": rng.random(len(y)) * 1e-300, "random": rng.random(len(y)) / len(y),
         "nan": np.where(rng.random(len(y)) < 0.2, np.nan, 1.0 / len(y))}[kind]
    grower = BoosterGrower(lambda: ClassificationTree(criterion, max_depth=depth), X)
    for weights in (w, w[::-1].copy()):  # two rounds of one grower
        got, leaf = grower.fit(y, weights)
        want = ClassificationTree(criterion, max_depth=depth)
        (want_leaf,) = fit_trees([want], X, y, sample_weight=weights)
        _assert_same_tree(got, want, leaf, want_leaf, X)


@given(data=tied_data(), depth=st.integers(1, 4), seed=st.integers(0, 20),
       kind=st.sampled_from(["residual", "integral", "weighted", "tiny"]))
# a leaf of one -0.0 target: the reason integral targets take `fit_trees`
@example(data=(np.array([[0.0], [1.0]]), np.array([0, 0])), depth=1, seed=0, kind="integral")
def test_booster_grower_equals_the_general_tree_on_residuals(data, depth, seed, kind):
    """Gradient boosting's case: real-valued residual targets, a new tree a
    round, rows in ties; integral targets take the general path itself."""
    X, y = data
    rng = child_rng(seed, "residual")
    grower = BoosterGrower(lambda: RegressionTree(max_depth=depth), X)
    for _ in range(2):
        target = y - rng.random(len(y))
        w = None
        if kind == "integral":
            target = np.round(target * 3)
        elif kind == "weighted":
            w = rng.random(len(y)) + (rng.random(len(y)) < 0.3)
        elif kind == "tiny":
            target = target * 1e-300
        got, leaf = grower.fit(target, w)
        want = RegressionTree(max_depth=depth)
        (want_leaf,) = fit_trees([want], X, target, sample_weight=w)
        _assert_same_tree(got, want, leaf, want_leaf, X)


def test_boosters_predict_in_round_order():
    rng = child_rng(4, "boost")
    X = rng.normal(size=(120, 3))
    y = (X[:, 0] + 0.5 * rng.normal(size=120) > 0).astype(int)
    ada = AdaBoost(n_estimators=20).fit(X, y, rng=child_rng(0))
    expected = np.zeros(len(y))
    for stump in ada.stumps_:
        p = stump.predict_proba(X)
        expected += 0.5 * (np.log(np.clip(p[:, 1], 1e-12, None))
                           - np.log(np.clip(p[:, 0], 1e-12, None)))
    p1 = 1.0 / (1.0 + np.exp(-2.0 * np.clip(expected, -250, 250)))
    np.testing.assert_array_equal(ada.predict_proba(X), np.column_stack([1.0 - p1, p1]))
    gbc = GradientBoosting(n_estimators=10).fit(X, y)
    raw = np.full(len(y), gbc.base_score_)
    for tree, gamma in gbc.stages_:
        raw += gbc.learning_rate * gamma[tree.apply(X)]
    np.testing.assert_array_equal(gbc.decision_function(X), raw)
