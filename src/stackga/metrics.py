"""Confusion-matrix statistics and ROC/AUC for binary classifiers.

Undefined metrics (zero denominators) are returned as None, never 0, so a
report renders them as "n/a" instead of corrupting comparisons.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            v = getattr(self, name)
            if v < 0 or v != int(v):
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class RocCurve:
    """Operating points (fpr, tpr) for descending score thresholds.

    `thresholds[i]` is the cutoff producing `points[i]` under the rule
    "positive iff score >= threshold"; the leading (0, 0) anchor carries an
    infinite threshold. Points begin at (0, 0) and end at (1, 1).
    """

    points: tuple
    thresholds: tuple

    def to_csv(self) -> str:
        lines = ["fpr,tpr"]
        lines += [f"{fpr!r},{tpr!r}" for fpr, tpr in self.points]
        return "\n".join(lines) + "\n"


def _as_binary(y, name: str) -> np.ndarray:
    arr = np.asarray(y)
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0/1 labels")
    return arr.astype(np.int64)


def confusion(y_true, y_pred) -> ConfusionMatrix:
    """Tally TP/TN/FP/FN with class 1 as the positive class."""
    t = _as_binary(y_true, "y_true")
    p = _as_binary(y_pred, "y_pred")
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape[0]} true vs {p.shape[0]} predicted")
    return ConfusionMatrix(
        tp=int(((t == 1) & (p == 1)).sum()),
        tn=int(((t == 0) & (p == 0)).sum()),
        fp=int(((t == 0) & (p == 1)).sum()),
        fn=int(((t == 1) & (p == 0)).sum()),
    )


def accuracy(cm: ConfusionMatrix):
    """(TP + TN) / total, or None on an empty matrix."""
    return (cm.tp + cm.tn) / cm.total if cm.total else None


def sensitivity(cm: ConfusionMatrix):
    """True positive rate TP / (TP + FN), or None when no positives."""
    denom = cm.tp + cm.fn
    return cm.tp / denom if denom else None


def specificity(cm: ConfusionMatrix):
    """True negative rate TN / (TN + FP), or None when no negatives."""
    denom = cm.tn + cm.fp
    return cm.tn / denom if denom else None


def fscore(cm: ConfusionMatrix):
    """Harmonic mean of sensitivity and specificity: 2*Sp*Sn / (Sp + Sn).

    This is the combined-performance score this toolkit reports alongside the
    conventional precision/recall F1 (see `f1`); the two disagree in general.
    """
    sn, sp = sensitivity(cm), specificity(cm)
    if sn is None or sp is None or sn + sp == 0:
        return None
    return 2 * sp * sn / (sp + sn)


def precision(cm: ConfusionMatrix):
    """TP / (TP + FP), or None when nothing was predicted positive."""
    denom = cm.tp + cm.fp
    return cm.tp / denom if denom else None


def f1(cm: ConfusionMatrix):
    """Conventional F1: harmonic mean of precision and recall."""
    pr, re = precision(cm), sensitivity(cm)
    if pr is None or re is None or pr + re == 0:
        return None
    return 2 * pr * re / (pr + re)


def roc_curve(y_true, scores) -> RocCurve:
    """ROC operating points, one per distinct score, descending.

    A sample is predicted positive when its score is >= the threshold, so
    ties collapse onto a single point. Requires both classes present.
    """
    t = _as_binary(y_true, "y_true")
    s = np.asarray(scores, dtype=np.float64)
    if t.shape != s.shape:
        raise ValueError(f"length mismatch: {t.shape[0]} labels vs {s.shape[0]} scores")
    n_pos = int((t == 1).sum())
    n_neg = int((t == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_curve needs both classes present")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    tp_cum = np.cumsum(t_sorted == 1)
    fp_cum = np.cumsum(t_sorted == 0)
    # last index of each distinct score = the operating point for that cutoff
    distinct_last = np.flatnonzero(np.diff(s_sorted) != 0)
    distinct_last = np.append(distinct_last, s_sorted.size - 1)
    points = [(0.0, 0.0)]
    thresholds = [float("inf")]
    for i in distinct_last:
        points.append((fp_cum[i] / n_neg, tp_cum[i] / n_pos))
        thresholds.append(float(s_sorted[i]))
    return RocCurve(points=tuple(points), thresholds=tuple(thresholds))


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the curve over the fpr axis."""
    fpr = np.array([p[0] for p in curve.points])
    tpr = np.array([p[1] for p in curve.points])
    return float(np.trapezoid(tpr, fpr))
