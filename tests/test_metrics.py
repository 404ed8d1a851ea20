import numpy as np
import pytest
from hypothesis import given, strategies as st

from stackga.metrics import (
    ConfusionMatrix,
    accuracy,
    auc,
    confusion,
    f1,
    fscore,
    precision,
    roc_curve,
    sensitivity,
    specificity,
)


def brute_confusion(y_true, y_pred):
    """Independent elementwise tally."""
    tp = tn = fp = fn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 0:
            tn += 1
        elif t == 0 and p == 1:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def pair_count_auc(y_true, scores):
    """Fraction of (positive, negative) pairs ranked correctly, ties 1/2."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores)
    pos = scores[y_true == 1]
    neg = scores[y_true == 0]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (len(pos) * len(neg))


class TestConfusion:
    def test_hand_tally(self):
        cm = confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 1, 1)

    def test_perfect_classifier(self):
        cm = confusion([1, 0, 1], [1, 0, 1])
        assert cm.fp == 0 and cm.fn == 0

    def test_empty_vectors(self):
        cm = confusion([], [])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (0, 0, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            confusion([1, 2], [1, 0])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, tn=0, fp=0, fn=0)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1))
    def test_matches_brute_force(self, pairs):
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        cm = confusion(y_true, y_pred)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == brute_confusion(y_true, y_pred)


class TestScalarMetrics:
    def test_benchmark_like_row(self):
        # a 97-sensitivity / 100-specificity row like the headline benchmark
        cm = ConfusionMatrix(tp=97, fn=3, tn=100, fp=0)
        assert sensitivity(cm) == pytest.approx(0.97)
        assert specificity(cm) == pytest.approx(1.0)
        assert fscore(cm) == pytest.approx(2 * 1.0 * 0.97 / 1.97)

    def test_perfect(self):
        cm = ConfusionMatrix(tp=50, tn=50, fp=0, fn=0)
        assert accuracy(cm) == 1.0
        assert sensitivity(cm) == 1.0
        assert specificity(cm) == 1.0
        assert fscore(cm) == 1.0

    def test_undefined_metrics_are_none(self):
        no_pos = ConfusionMatrix(tp=0, fn=0, tn=3, fp=1)
        assert sensitivity(no_pos) is None
        assert fscore(no_pos) is None
        no_neg = ConfusionMatrix(tp=2, fn=1, tn=0, fp=0)
        assert specificity(no_neg) is None
        empty = ConfusionMatrix(0, 0, 0, 0)
        assert accuracy(empty) is None
        assert precision(ConfusionMatrix(tp=0, fn=2, tn=3, fp=0)) is None

    def test_fscore_symmetric_in_sn_sp(self):
        cm = ConfusionMatrix(tp=30, fn=10, tn=45, fp=15)
        swapped = ConfusionMatrix(tp=45, fn=15, tn=30, fp=10)
        assert fscore(cm) == pytest.approx(fscore(swapped))

    def test_f1_differs_from_fscore_in_general(self):
        cm = ConfusionMatrix(tp=30, fn=10, tn=45, fp=15)
        assert f1(cm) != pytest.approx(fscore(cm))

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    def test_bounds(self, tp, tn, fp, fn):
        cm = ConfusionMatrix(tp, tn, fp, fn)
        for metric in (accuracy, sensitivity, specificity, fscore, f1):
            v = metric(cm)
            assert v is None or 0.0 <= v <= 1.0

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1))
    def test_label_swap_symmetry(self, pairs):
        y_true = np.array([t for t, _ in pairs])
        y_pred = np.array([p for _, p in pairs])
        cm = confusion(y_true, y_pred)
        sw = confusion(1 - y_true, 1 - y_pred)
        assert (sw.tp, sw.tn) == (cm.tn, cm.tp)
        assert (sw.fp, sw.fn) == (cm.fn, cm.fp)
        assert accuracy(sw) == accuracy(cm)


class TestRoc:
    def test_two_point_hand_case(self):
        curve = roc_curve([1, 0], [0.9, 0.1])
        assert curve.points == ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        assert curve.thresholds[0] == float("inf")
        assert auc(curve) == 1.0

    def test_all_scores_equal(self):
        curve = roc_curve([1, 0, 1, 0], [0.5] * 4)
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))
        assert auc(curve) == pytest.approx(0.5)

    def test_perfect_separation_passes_through_0_1(self):
        y = [1] * 5 + [0] * 5
        s = list(np.linspace(0.9, 0.8, 5)) + list(np.linspace(0.3, 0.1, 5))
        curve = roc_curve(y, s)
        assert (0.0, 1.0) in curve.points
        assert auc(curve) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_curve([1, 1], [0.5, 0.2])

    def test_csv_two_columns(self):
        text = roc_curve([1, 0], [0.9, 0.1]).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "fpr,tpr"
        assert len(lines) == 4

    @given(st.data())
    def test_curve_invariants(self, data):
        n = data.draw(st.integers(4, 60))
        y = data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
                lambda v: 0 < sum(v) < len(v)
            )
        )
        scores = data.draw(
            st.lists(st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n)
        )
        curve = roc_curve(y, scores)
        fprs = [p[0] for p in curve.points]
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))


class TestAuc:
    def test_diagonal(self):
        from stackga.metrics import RocCurve

        diag = RocCurve(points=((0.0, 0.0), (1.0, 1.0)), thresholds=(float("inf"), 0.0))
        assert auc(diag) == pytest.approx(0.5)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(12)
        n = 10000
        y = rng.integers(0, 2, n)
        s = rng.random(n)
        assert abs(auc(roc_curve(y, s)) - 0.5) < 0.05

    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(3)
        for trial in range(60):
            n = int(rng.integers(4, 200))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            s = np.round(rng.random(n), 1)  # coarse grid forces ties
            assert auc(roc_curve(y, s)) == pytest.approx(pair_count_auc(y, s), abs=1e-12)
