"""The predict path against the algorithms it replaced, bit for bit.

The reference scorers below are those algorithms: KNN that sorts every
distance stably, a per-row walk down each tree, and AdaBoost scores computed
per (round, row) from the leaf probabilities. Hypothesis properties compare
them on small integer tables with duplicated rows and queries that hit split
thresholds exactly; a stack trained here scores 5,000 rows in batches as
the reference scorer does.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stackga.dataset import Dataset, Schema
from stackga.learners import LearnerSpec, predict_proba, train
from stackga.learners.adaboost import AdaBoost
from stackga.learners.boosting import GradientBoosting
from stackga.learners.forest import ExtraTrees, RandomForest
from stackga.learners.knn import KNeighbors
from stackga.learners import tree as tree_module
from stackga.learners.tree import ClassificationTree, LeafScorer, RegressionTree
from stackga.persist import load_artifact
from stackga.rng import child_rng
from stackga.stacking import StackSpec, predict_proba_stack, train_stack
from stackga.synth import make_pima_like

from support import saved_bytes
from test_trees import tied_data

_CLIP = 1e-12


# -- reference scorers ------------------------------------------------------

def knn_reference(knn, X):
    d2 = (
        (X**2).sum(axis=1)[:, None]
        + (knn.X_**2).sum(axis=1)[None, :]
        - 2.0 * X @ knn.X_.T
    )
    nearest = np.argsort(d2, axis=1, kind="stable")[:, : knn.n_neighbors]
    votes1 = knn.y_[nearest].mean(axis=1)
    return np.column_stack([1.0 - votes1, votes1])


def walk(tree, x):
    """The leaf `x` reaches in `tree`, one node at a time."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return node


def apply_reference(trees, X):
    """Leaves as `LeafScorer.apply` numbers them: (rows, trees), node arrays
    concatenated in tree order."""
    counts = [len(t.feature) for t in trees]
    roots = np.cumsum(counts) - counts
    return np.array([[root + walk(t, x) for t, root in zip(trees, roots)] for x in X],
                    dtype=np.intp).reshape(len(X), len(trees))


def leaf_value_reference(trees, X):
    """Each tree's leaf `value` per row: (rows, trees, ...)."""
    return np.stack([t.value[[walk(t, x) for x in X]] for t in trees], axis=1)


def adaboost_scores_reference(ada, X):
    """(rounds, rows) scores from the reached leaves' probabilities."""
    p0, p1 = np.ascontiguousarray(leaf_value_reference(ada.stumps_, X).transpose(2, 1, 0))
    return 0.5 * (np.log(np.clip(p1, _CLIP, None)) - np.log(np.clip(p0, _CLIP, None)))


def adaboost_proba_reference(ada, X):
    if not ada.stumps_:
        return np.tile([1.0 - ada.prior1_, ada.prior1_], (X.shape[0], 1))
    s = adaboost_scores_reference(ada, X).sum(axis=0)
    p1 = 1.0 / (1.0 + np.exp(-2.0 * np.clip(s, -250, 250)))
    return np.column_stack([1.0 - p1, p1])


def adaboost_fit_reference(X, y, n_estimators, rng):
    """AdaBoost's stumps fitted with per-row probabilities and scores."""
    w = np.full(len(y), 1.0 / len(y))
    y_sign = np.where(y == 1, 1.0, -1.0)
    stumps = []
    for _ in range(n_estimators):
        stump = ClassificationTree("gini", max_depth=1).fit(X, y, sample_weight=w, rng=rng)
        proba = stump.value[[walk(stump, x) for x in X]]
        hard = (proba[:, 1] > 0.5).astype(np.int64)
        err = float(w[hard != y].sum() / w.sum())
        if err >= 0.5:
            break
        stumps.append(stump)
        if err == 0.0:
            break
        logratio = 0.5 * (np.log(np.clip(proba[:, 1], _CLIP, None))
                          - np.log(np.clip(proba[:, 0], _CLIP, None)))
        w = w * np.exp(-y_sign * logratio)
        w /= w.sum()
    return stumps


def forest_proba_reference(forest, X):
    p1 = leaf_value_reference(forest.trees_, X)[:, :, 1]
    votes1 = (p1 > 0.5).sum(axis=1) / p1.shape[1]
    return np.column_stack([1.0 - votes1, votes1])


def boosting_proba_reference(gb, X):
    raw = np.full(X.shape[0], gb.base_score_)
    for tree, gamma in gb.stages_:
        raw += gb.learning_rate * gamma[[walk(tree, x) for x in X]]
    p1 = 1.0 / (1.0 + np.exp(-np.clip(raw, -250, 250)))
    return np.column_stack([1.0 - p1, p1])


def reference_proba(model, X):
    """`predict_proba` of a trained model by the reference scorers; the
    learners they do not cover score with their own code."""
    impl = model.impl
    if isinstance(impl, KNeighbors):
        return knn_reference(impl, X)
    if isinstance(impl, (RandomForest, ExtraTrees)):
        return forest_proba_reference(impl, X)
    if isinstance(impl, AdaBoost):
        return adaboost_proba_reference(impl, X)
    if isinstance(impl, GradientBoosting):
        return boosting_proba_reference(impl, X)
    if hasattr(impl, "feature"):  # a single classification tree
        return impl.value[[walk(impl, x) for x in X]]
    return predict_proba(model, X)


def reference_stack_proba(stack, X):
    Z = np.column_stack([reference_proba(b, X)[:, 1] for b in stack.base_models])
    return predict_proba(stack.meta_model, Z)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- oracle properties ------------------------------------------------------

def _queries(X, trees=(), extra=None):
    """The table's rows, then rows that hit every split threshold exactly
    (a copy of row 0 with the node's feature set to its threshold)."""
    hits = []
    for t in trees:
        for f, thr in zip(t.feature, t.threshold):
            if f >= 0:
                row = X[0].copy()
                row[f] = thr
                hits.append(row)
    parts = [X] + ([np.array(hits)] if hits else []) + ([extra] if extra is not None else [])
    return np.vstack(parts)


@given(data=tied_data(), seed=st.integers(0, 3), scale=st.sampled_from([1.0, 0.1, 0.3, 0.7]))
def test_knn_equals_the_stable_argsort_reference_for_every_k(data, seed, scale):
    # scaled tables are float-valued: a query equal to a training row can
    # then be a tiny positive or negative distance from it, not exactly 0
    X, y = data
    X = X * scale
    grid = child_rng(seed, "knn-queries").integers(-1, 5, size=(12, X.shape[1])) * scale
    Q = np.vstack([X, grid, X[::-1]])
    for k in range(1, len(y) + 1):
        knn = KNeighbors(k).fit(X, y)
        assert same_bits(knn.predict_proba(Q), knn_reference(knn, Q)), k


ENSEMBLES = {
    "random_forest": lambda n: RandomForest(n_estimators=n, max_depth=4),
    "random_forest_sqrt": lambda n: RandomForest(n_estimators=n, max_depth=None,
                                                 max_features="sqrt"),
    "extra_trees": lambda n: ExtraTrees(n_estimators=n, max_depth=3),
    "adaboost": lambda n: AdaBoost(n_estimators=n),
}


def _trees_of(model):
    return model.trees_ if hasattr(model, "trees_") else model.stumps_


@pytest.mark.parametrize("n_trees", [1, 7])
@pytest.mark.parametrize("kind", sorted(ENSEMBLES))
@given(data=tied_data(), seed=st.integers(0, 5))
def test_apply_trees_equals_a_per_row_walk(kind, n_trees, data, seed):
    X, y = data
    if kind == "adaboost" and len(np.unique(y)) < 2:
        y = np.arange(len(y)) % 2
    trees = _trees_of(ENSEMBLES[kind](n_trees).fit(X, y, rng=child_rng(seed, "oracle")))
    if not trees:  # a booster whose first stump was rejected
        return
    infinite = np.array([[np.inf], [-np.inf]]).repeat(X.shape[1], axis=1)
    Q = _queries(X, trees, extra=np.vstack([X + 0.5, infinite]))
    want = apply_reference(trees, Q)
    assert same_bits(LeafScorer(trees).apply(Q), want)
    with mock.patch.object(tree_module, "_MAX_CELLS", 2 * n_trees):  # 2-row chunks
        assert same_bits(LeafScorer(trees).apply(Q), want)
    for t in trees:
        assert same_bits(t.apply(Q), apply_reference([t], Q)[:, 0])


def _edge_trees():
    """Trees that the small tables above do not make: more than 64 and more
    than 128 leaves (several mask words), a root that is a leaf, a tree
    split on one feature only, and a feature that no tree splits on."""
    rng = child_rng(0, "edge-trees")
    X = rng.normal(size=(600, 4)).round(2)
    X[:, 3] = 1.0
    y = rng.integers(0, 2, len(X))
    only_0 = np.zeros_like(X)
    only_0[:, 0] = X[:, 0]
    trees = {
        "leaves_over_128": ClassificationTree(max_depth=None).fit(X, y),
        "leaves_over_64": ClassificationTree(max_depth=None).fit(X[:300], y[:300]),
        "root_leaf": ClassificationTree().fit(X, np.zeros(len(X), dtype=int)),
        "one_feature": ClassificationTree(max_depth=3).fit(only_0, y),
        "depth_2": ClassificationTree(max_depth=2).fit(X, y),
    }
    n_leaves = {name: int((t.feature < 0).sum()) for name, t in trees.items()}
    assert n_leaves["leaves_over_128"] > 128 and 64 < n_leaves["leaves_over_64"] <= 128
    assert n_leaves["root_leaf"] == 1
    assert set(trees["one_feature"].feature[trees["one_feature"].feature >= 0]) == {0}
    assert not any((t.feature == 3).any() for t in trees.values())
    return X, trees


_EDGE_ENSEMBLES = {
    "over_128": ["leaves_over_128"],
    "over_64": ["leaves_over_64"],
    "root_leaf": ["root_leaf"],
    "mixed": ["depth_2", "root_leaf", "leaves_over_64", "one_feature", "leaves_over_128"],
    "small_mixed": ["one_feature", "root_leaf", "depth_2"],
}


@pytest.mark.parametrize("names", sorted(_EDGE_ENSEMBLES))
def test_apply_trees_equals_a_per_row_walk_on_edge_cases(names):
    X, by_name = _edge_trees()
    trees = [by_name[name] for name in _EDGE_ENSEMBLES[names]]
    special = np.array([[np.inf, -np.inf, np.nan, np.inf], [-np.inf, np.inf, 0.0, -np.inf],
                        [np.nan, np.nan, np.nan, np.nan]])
    Q = _queries(X, trees, extra=np.vstack([X + 0.005, special]))
    want = apply_reference(trees, Q)
    assert same_bits(LeafScorer(trees).apply(Q), want)
    with mock.patch.object(tree_module, "_MAX_CELLS", 3 * len(trees)):  # chunks of 1 to 3 rows
        assert same_bits(LeafScorer(trees).apply(Q), want)
    for t in trees:
        assert same_bits(t.apply(Q), apply_reference([t], Q)[:, 0])


@pytest.mark.parametrize("n_trees", [1, 6])
@given(data=tied_data(), depth=st.integers(1, 4))
def test_regression_trees_route_like_a_per_row_walk(n_trees, data, depth):
    X, y = data
    targets = [y * (i + 1) - X[:, 0] * 0.25 * i for i in range(n_trees)]
    trees = [RegressionTree(max_depth=depth).fit(X, r) for r in targets]
    Q = _queries(X, trees)
    assert same_bits(LeafScorer(trees).apply(Q), apply_reference(trees, Q))


@given(data=tied_data(), seed=st.integers(0, 5), rounds=st.integers(1, 12))
def test_adaboost_fit_and_scores_equal_the_per_row_formula(data, seed, rounds):
    X, y = data
    if len(np.unique(y)) < 2:
        y = np.arange(len(y)) % 2
    ada = AdaBoost(n_estimators=rounds).fit(X, y, rng=child_rng(seed, "ada"))
    want = adaboost_fit_reference(X, y, rounds, child_rng(seed, "ada"))
    assert len(ada.stumps_) == len(want)
    for got, ref in zip(ada.stumps_, want):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert same_bits(getattr(got, name), getattr(ref, name)), name
    Q = _queries(X, ada.stumps_)
    assert same_bits(ada.predict_proba(Q), adaboost_proba_reference(ada, Q))


# -- the stack's scoring path -----------------------------------------------

LIGHT_BASES = (
    LearnerSpec("random_forest", {"n_estimators": 12, "max_depth": 6}, 1),
    LearnerSpec("knn", {}, 2),
    LearnerSpec("adaboost", {"n_estimators": 30}, 3),
    LearnerSpec("decision_tree", {}, 4),
    LearnerSpec("gaussian_nb", {}, 5),
    LearnerSpec("gradient_boosting", {"n_estimators": 12}, 6),
    LearnerSpec("extra_trees", {"n_estimators": 12}, 7),
)


def test_stack_scores_5000_rows_like_the_reference_scorer(pima_split_clean):
    train_ds, _ = pima_split_clean
    spec = StackSpec(LIGHT_BASES, LearnerSpec("logistic_regression", {}, 8),
                     level1_folds=3, seed=9)
    stack = train_stack(spec, train_ds)
    X = make_pima_like(n=5000, seed=23).features
    got = np.vstack([predict_proba_stack(stack, X[a:a + 1000]) for a in range(0, 5000, 1000)])
    want = np.vstack([reference_stack_proba(stack, X[a:a + 1000])
                      for a in range(0, 5000, 1000)])
    assert same_bits(got, want)


TREE_LEARNERS = (
    LearnerSpec("decision_tree", {}, 1),
    LearnerSpec("decision_tree", {"max_depth": None}, 2),
    LearnerSpec("random_forest", {"n_estimators": 10}, 3),
    LearnerSpec("extra_trees", {"n_estimators": 10}, 4),
    LearnerSpec("adaboost", {"n_estimators": 30}, 5),
    LearnerSpec("gradient_boosting", {"n_estimators": 12}, 6),
)


@pytest.fixture(scope="module")
def tree_models(pima_split_clean):
    train_ds, test_ds = pima_split_clean
    return [train(spec, train_ds) for spec in TREE_LEARNERS], test_ds.features


@pytest.mark.parametrize("i", range(len(TREE_LEARNERS)),
                         ids=[spec.algorithm for spec in TREE_LEARNERS])
def test_tree_learners_score_a_row_alike_in_any_batch(tree_models, i):
    models, X = tree_models
    model = models[i]
    whole = predict_proba(model, X)
    for size in (1, 7):
        parts = [predict_proba(model, X[a:a + size]) for a in range(0, len(X), size)]
        assert same_bits(np.vstack(parts), whole), size


def test_predicting_leaves_the_saved_artifact_bytes_alone(tree_models, pima_split_clean,
                                                          tmp_path):
    train_ds, test_ds = pima_split_clean
    stack = train_stack(StackSpec(LIGHT_BASES, LearnerSpec("logistic_regression", {}, 8),
                                  level1_folds=3, seed=9), train_ds)
    models, X = tree_models
    for model, score in [(m, predict_proba) for m in models] + [(stack, predict_proba_stack)]:
        before = saved_bytes(model)
        want = score(model, X)
        assert saved_bytes(model) == before
        path = tmp_path / "model.pkl"
        path.write_bytes(before)
        assert same_bits(score(load_artifact(path, "learner")["model"], X), want)


def test_knn_ties_beyond_k_keep_the_lower_training_index():
    # four training points at the same distance from the query, k=2: the
    # first two by index vote
    X = np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0], [5.0, 5.0]])
    for labels, p1 in (([1, 1, 0, 0, 0], 1.0), ([0, 0, 1, 1, 1], 0.0), ([0, 1, 1, 1, 0], 0.5)):
        y = np.array(labels)
        schema = Schema(("a", "b", "label"), 2)
        model = train(LearnerSpec("knn", {"n_neighbors": 2}, 0), Dataset(X, y, schema))
        assert predict_proba(model, np.zeros((3, 2)))[:, 1].tolist() == [p1] * 3


@pytest.mark.parametrize("query", [[1e200, 1e200], [1e154, 1e154], [-1e300, 0.0]])
def test_knn_refuses_a_row_whose_distances_overflow(query):
    # the norm expansion overflows to inf or nan for every training point;
    # a silent answer would vote with training rows 0..k-1
    X = np.array([[0.0, 0], [1, 1], [2, 2], [3, 3], [100, 100]])
    knn = KNeighbors(2).fit(X, np.array([0, 0, 0, 1, 1]))
    assert knn.predict_proba(np.array([[1.0, 1.0]]))[:, 1].tolist() == [0.0]
    with pytest.raises(ValueError, match="row 1: distance"):
        knn.predict_proba(np.array([[1.0, 1.0], query]))
