"""CART-style binary trees stored as flat node arrays and grown by one split kernel.

A fitted tree is five arrays indexed by node, root first:

- `feature`: the split feature, -1 at a leaf;
- `threshold`: rows with `x[feature] <= threshold` go left;
- `left`, `right`: child node indices, -1 at a leaf;
- `value`: at a leaf, the class probabilities `(P(0), P(1))` of a
  classification tree or the weighted mean target of a regression tree
  (zero at inner nodes).

Growth presorts each feature once per fit (SLIQ). Every open node owns one
contiguous segment of each feature's sorted order, and a split partitions
those segments stably, so tied values stay in row order. One kernel scores
every node of a *frontier* in one vectorised pass: prefix sums of `w` and
`w*y` along each segment give the left and right sums at every boundary
between distinct sorted values, and the candidate thresholds are the
midpoints of those boundaries (or one uniform draw per candidate feature
for extremely randomized trees). Trees that draw no randomness per node grow
level by level, with every open node of a group of trees in one frontier.
Trees that draw per node (feature subsampling, random thresholds) take the
next depth-first node of each tree as the frontier, so each tree's rng sees
the draws of depth-first growth. Ties on split quality resolve to the lowest
threshold, then the lowest feature index.

The split scores are exactly those of a per-node search: a segment's prefix
sum is the global cumulative sum minus the segment's offset when every
weight and weighted target is integer-valued (then any summation order is
exact); otherwise each segment is summed on its own, in sorted order, in a
zero-padded block. A fit also returns each training row's leaf.

A booster fits one tree per round on the same table, so `BoosterGrower`
keeps the presort, the transposed table and the root's candidate boundaries
across rounds and grows each round's tree one node at a time, with the bits
of `fit_trees`.

Prediction finds every row's leaf in every tree of a model at once from
threshold ranks and leaf bitmasks (`LeafScorer`), built at the model's first
prediction and kept on it (`ScoredTrees`).
"""

import operator
from typing import Literal

import numpy as np

from ..records import Count

_INF = np.inf

#: cap on the cells one pass holds, which bounds the size of its
#: temporaries: rows x features for the split kernel (forests are grown in
#: groups of trees under it), rows x trees x mask words for a chunk of rows
#: in `LeafScorer.apply`
_MAX_CELLS = 1 << 16


def _share(w1, w):
    """w1/w elementwise, 0 where w is not positive."""
    return np.divide(w1, w, out=np.zeros(np.shape(w)), where=w > 0)


def _xlog2x(p):
    """p * log2(p) elementwise where p > 0, and p * 0 (a signed zero) elsewhere."""
    out = np.zeros(p.shape)
    np.log2(p, out=out, where=p > 0)
    out *= p
    return out


def _entropy_sum(w1, w):
    """w * H(w1/w) elementwise, with 0 log 0 = 0.

    Wherever p = w1/w is finite (in a split 0 <= w1 <= w) these are the
    bits of the masked form `where(p > 0, p * log2(p), 0) + where(q > 0,
    q * log2(q), 0)` with q = 1 - p: a term is -0 only where its share is
    negative or -0, and then the other share exceeds 1 or is 1, so the other
    term is nonzero or +0 and the sum is unchanged.
    """
    p = _share(w1, w)
    h = _xlog2x(p)
    h += _xlog2x(1.0 - p)
    return np.multiply(np.negative(w), h, out=h)


def _gini_sum(w1, w):
    """w * gini(w1/w) elementwise; binary gini is 2p(1-p)."""
    p = _share(w1, w)
    return w * 2.0 * p * (1.0 - p)


_CRITERIA = {"entropy": _entropy_sum, "gini": _gini_sum}

#: a tree learner's split criterion, depth limit (None: none) and candidate
#: features per split (an integer past the table's width is refused at fit)
Criterion = Literal["entropy", "gini"]
Depth = Count | None
MaxFeatures = Count | Literal["all", "sqrt", "auto"] | None


def _resolve_max_features(mode, d):
    if mode in (None, "all"):
        return d
    if mode in ("sqrt", "auto"):
        return max(1, int(np.sqrt(d)))
    k = int(mode)
    if not 1 <= k <= d:
        raise ValueError(f"max_features {mode!r} out of range for {d} features")
    return k


def _candidate_features(rng, d, k):
    if k >= d:
        return np.arange(d)
    return np.sort(rng.choice(d, size=k, replace=False))


def presort(X):
    """Row order of every feature of X, ties in row order: shape (features, rows)."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _is_integral(a):
    return bool(np.all(a == np.floor(a)))


def _weights(sample_weight, n):
    """`sample_weight` as floats (None: all 1), refusing an infinite weight by
    its row; nan passes, as AdaBoost's weights turn nan when they overflow."""
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if np.isinf(w).any():
        row = int(np.isinf(w).argmax())
        raise ValueError(f"sample_weight of row {row} is {w[row]}; weights must be finite")
    return w


def _split_scores(impurity, wl, w1l, wr, w1r):
    """Score of each candidate split, lower is better, from its left and
    right weight sums (wl, wr) and weighted target sums (w1l, w1r)."""
    if impurity is not None:  # one call scores both sides
        both = impurity(np.concatenate((w1l, w1r)), np.concatenate((wl, wr)))
        return both[:len(wl)] + both[len(wl):]
    # maximize the weighted mean separation wl*wr/(wl+wr)*(ml-mr)^2
    diff = w1l / wl - w1r / wr
    return -(wl * wr / (wl + wr) * diff * diff)


class _Grower:
    """The shared state of a group of trees grown together.

    Tree t trains on the rows of X with a nonzero `counts[t]` (None: every
    row once), each weighted by its count; its rows take a block of the
    group's sample index space, in row order, and `ord[f]` lists sample
    indices by feature f with every open node's samples in one contiguous
    segment. A tree's presort is `order` filtered to its rows.
    """

    def __init__(self, tree, X, y, w, counts, rngs, order):
        n, self.d = X.shape
        self.impurity = tree._impurity
        self.max_depth = tree.max_depth
        self.k = _resolve_max_features(tree.max_features, self.d)
        self.random_threshold = tree.random_threshold
        self.rngs = rngs
        self.per_node = self.random_threshold or self.k < self.d
        blocks = [np.arange(n) if c is None else np.flatnonzero(c) for c in counts]
        self.sizes = np.array([len(b) for b in blocks])
        self.starts = np.cumsum(self.sizes) - self.sizes
        rows = np.concatenate(blocks)
        self.XT = np.ascontiguousarray(X[rows].T)
        self.row_offset = (np.arange(self.d) * len(rows))[:, None]  # flat index of (f, 0)
        self.y = y[rows]
        self.w = np.concatenate([w[b] if c is None else w[b] * c[b]
                                 for b, c in zip(blocks, counts)])
        self.wy = self.w * self.y
        ords = []
        for c, start in zip(counts, self.starts):
            if c is None:
                ords.append(order + start)
            else:
                keep = c > 0
                position = np.cumsum(keep) - 1  # of each kept row in its block
                ords.append(position[order[keep[order]].reshape(self.d, -1)] + start)
        self.ord = np.concatenate(ords, axis=1)
        self.unit = bool(np.all(self.w == 1.0))
        self.integral = _is_integral(self.w) and _is_integral(self.wy)

    def step(self, tree, start, size, depth):
        """Settle one frontier: a split or a leaf value for every node.

        Returns (feature, threshold, value, left_size); feature is -1 at a
        leaf and left_size counts the rows sent to the left child.
        """
        offs, s0 = self._rows(start, size)
        if self.impurity is not None:
            n1 = np.add.reduceat(self.y[s0], offs)
            stop = (n1 == 0) | (n1 == size)
        else:
            stop = size < 2
        if self.max_depth is not None:
            stop |= depth >= self.max_depth
        feature = -np.ones(len(size), dtype=np.intp)
        threshold = np.zeros(len(size))
        left_size = np.zeros(len(size), dtype=np.intp)
        grow = (~stop).nonzero()[0]
        if len(grow):
            cand, thr = self._draws(tree[grow], start[grow], size[grow])
            # children at the depth limit are leaves: their rows need no feature order
            deeper = self.max_depth is None or (depth[grow] + 1 < self.max_depth).any()
            f, t, ok, nl = self._split(start[grow], size[grow], cand, thr, deeper)
            split = grow[ok]
            feature[split], threshold[split], left_size[grow] = f[ok], t[ok], nl
        return feature, threshold, self._leaf_values(s0, offs, size, feature < 0), left_size

    def _rows(self, start, size):
        """Segment offsets of the given nodes and their rows, node after node."""
        offs = size.cumsum() - size
        return offs, self.ord[0, (start - offs).repeat(size) + np.arange(offs[-1] + size[-1])]

    def leaves(self, start, size):
        """`value` of nodes that are leaves whatever their rows (depth limit)."""
        offs, s0 = self._rows(start, size)
        return self._leaf_values(s0, offs, size, np.ones(len(size), dtype=bool))

    def _draws(self, tree, start, size):
        """Per-node rng draws in each tree's order: candidate features, then
        one uniform threshold per candidate feature that is not constant."""
        if not self.per_node:
            return None, None
        cand = np.zeros((self.d, len(tree)), dtype=bool)
        thr = np.full((self.d, len(tree)), np.nan) if self.random_threshold else None
        for j, t in enumerate(tree):
            rng = self.rngs[t]
            feats = _candidate_features(rng, self.d, self.k)
            cand[feats, j] = True
            if thr is not None:
                lo = self.XT[feats, self.ord[feats, start[j]]]
                hi = self.XT[feats, self.ord[feats, start[j] + size[j] - 1]]
                for f, a, b in zip(feats, lo, hi):
                    if a != b:
                        thr[f, j] = float(rng.uniform(a, b))
        return cand, thr

    def _segment_cumsum(self, v, offs, size, node_of, rank):
        """Cumulative sums of v (features, rows) along every segment, as
        (sums, base): the sum through a position is sums - base[segment]."""
        if self.integral or len(size) == 1:
            c = v.cumsum(axis=1)
            return c, c[:, offs] - v[:, offs]
        block = np.zeros((self.d, len(size), size.max()))
        block[:, node_of, rank] = v
        return block.cumsum(axis=2)[:, node_of, rank], np.zeros((self.d, len(size)))

    def _split(self, start, size, cand, thr, deeper):
        """The split kernel: best (feature, threshold) of every given node,
        whether one exists, and the stable partition of its segments."""
        d, n_s = self.d, len(size)
        M = int(size.sum())
        offs = size.cumsum() - size
        last = offs + size - 1
        nodes = np.arange(n_s)
        node_of = nodes.repeat(size)
        rank = np.arange(M) - offs[node_of]
        pos = start.repeat(size) + rank
        sub = self.ord.take(pos, axis=1)
        xs = self.XT.take(sub + self.row_offset)

        # candidate boundaries: between sorted positions q and q + 1 of a segment
        valid = np.zeros((d, M), dtype=bool)
        if thr is None:
            np.greater(xs[:, 1:], xs[:, :-1], out=valid[:, :-1])
        else:
            t = thr[:, node_of[:-1]]
            valid[:, :-1] = (xs[:, :-1] <= t) & (xs[:, 1:] > t)
        valid[:, last] = False
        if cand is not None:
            valid &= cand[:, node_of]
        flat = valid.ravel().nonzero()[0]
        cuts = np.searchsorted(flat, np.arange(d + 1) * M)
        f = np.arange(d).repeat(cuts[1:] - cuts[:-1])
        q = flat - f * M
        j = node_of[q]
        seg = f * n_s + j
        del valid, f

        f0 = 0 if cand is None else np.argmax(cand, axis=0)  # first candidate feature
        cw1, base1 = self._segment_cumsum(self.wy.take(sub), offs, size, node_of, rank)
        W1 = cw1[f0, last] - base1[f0, nodes]
        w1l = cw1.ravel()[flat] - base1.ravel()[seg]
        if self.unit:
            W = size.astype(np.float64)
            wl = (rank[q] + 1).astype(np.float64)
        else:
            cw, base = self._segment_cumsum(self.w.take(sub), offs, size, node_of, rank)
            W = cw[f0, last] - base[f0, nodes]
            wl = cw.ravel()[flat] - base.ravel()[seg]
            del cw
        del cw1, q
        wr, w1r = W[j] - wl, W1[j] - w1l
        keep = (wl > 0) & (wr > 0)
        if not keep.all():
            seg, flat, wl, w1l, wr, w1r = (a[keep] for a in (seg, flat, wl, w1l, wr, w1r))
        score = _split_scores(self.impurity, wl, w1l, wr, w1r)

        # first minimum of every (feature, node) segment, then of every node
        best = np.full(d * n_s, _INF)
        at = np.zeros(d * n_s, dtype=np.intp)
        if len(seg):
            b = np.concatenate(([True], seg[1:] != seg[:-1])).nonzero()[0]
            m = np.minimum.reduceat(score, b)
            hit = (score == m.repeat(np.append(b[1:], len(seg)) - b)).nonzero()[0]
            first = hit[np.concatenate(([True], seg[hit[1:]] != seg[hit[:-1]]))]
            best[seg[b]] = m
            at[seg[first]] = flat[first]
        best = best.reshape(d, n_s)
        feature = np.argmin(best, axis=0)
        score = best[feature, nodes]
        # no boundary, or (regression) zero gain: targets constant across every boundary
        ok = np.isfinite(score) if self.impurity is not None else score < 0
        if thr is None:
            q = at[feature * n_s + nodes]
            threshold = 0.5 * (xs.ravel()[q] + xs.ravel()[q + 1])
        else:
            threshold = thr[feature, nodes]

        x = self.XT.take(self.row_offset[feature[node_of], 0] + sub[0])
        go_left = (x <= threshold[node_of]) & ok[node_of]
        left_size = np.add.reduceat(go_left, offs, dtype=np.intp)
        ok &= (left_size > 0) & (left_size < size)  # midpoint collapsed onto a data value
        if ok.any():  # a node that does not split sends no row left and keeps its order
            self._partition(pos, sub if deeper else sub[:1], go_left & ok[node_of],
                            offs, size, left_size * ok)
        return feature, threshold, ok, left_size

    def _partition(self, pos, sub, go_left, offs, size, left_size):
        """Stable partition of every segment of the given feature orders: its
        left rows first, then its right rows, each side in order."""
        g = np.zeros(self.XT.shape[1], dtype=bool)
        g[sub[0]] = go_left
        g = g.take(sub)
        # every feature order sends the same number of rows left from a segment,
        # so one list of destinations serves all of them
        right_size = size - left_size
        to_left = np.arange(left_size.sum()) + \
            (offs - (left_size.cumsum() - left_size)).repeat(left_size)
        to_right = np.arange(right_size.sum()) + \
            (offs + left_size - (right_size.cumsum() - right_size)).repeat(right_size)
        parted = np.empty_like(sub)
        parted[:, to_left] = sub[g].reshape(len(sub), -1)
        parted[:, to_right] = sub[~g].reshape(len(sub), -1)
        self.ord[:len(sub), pos] = parted

    def _leaf_values(self, s0, offs, size, leaf):
        """`value` of every node (zero at inner nodes) from the weighted sums
        of its rows in row order; s0 lists the nodes' rows one after another."""
        if self.integral:
            w1 = np.add.reduceat(self.wy[s0], offs)
            total = size if self.unit else np.add.reduceat(self.w[s0], offs)
        else:  # sums in row order, as a node-by-node search adds them
            w1, total = np.zeros(len(size)), np.zeros(len(size))
            for i in leaf.nonzero()[0]:
                rows = np.sort(s0[offs[i]:offs[i] + size[i]])
                w1[i], total[i] = np.sum(self.wy[rows]), np.sum(self.w[rows])
        mean = np.divide(w1, total, out=np.zeros(len(size)), where=leaf & (total > 0))
        if self.impurity is None:
            return mean
        return np.stack((np.where(leaf, 1.0 - mean, 0.0), mean), axis=1)


def _grow_group(tree, X, y, w, counts, rngs, order):
    """Grow one tree per entry of `counts`; returns (feature, threshold,
    left, right, value, leaf of each of its rows) per tree, nodes numbered in
    the order they were created."""
    g = _Grower(tree, X, y, w, counts, rngs, order)
    T = len(counts)
    links, thresholds, values = [], [], []  # one entry per settled frontier
    segments = []  # (id, start, size) of the leaves: no split moves their rows again
    next_id = T

    def settle(frontier):
        """Settle a frontier, rows (id, tree, start, size, depth) by node;
        return its children, left children first."""
        nonlocal next_id
        ids, trees, start, size, depth = frontier
        feature, threshold, value, left_size = g.step(trees, start, size, depth)
        split = (feature >= 0).nonzero()[0]
        n = len(split)
        left = np.full(len(ids), -1)
        left[split] = np.arange(next_id, next_id + n)
        right = np.where(left >= 0, left + n, -1)
        links.append(np.stack((ids, trees, feature, left, right)))
        thresholds.append(threshold)
        values.append(value)
        leaf = feature < 0
        segments.append(np.stack((ids[leaf], start[leaf], size[leaf])))
        next_id += 2 * n
        kids = frontier[:, np.concatenate((split, split))]
        kids[0] = np.arange(next_id - 2 * n, next_id)
        nl = left_size[split]
        kids[2, n:] += nl
        kids[3] = np.concatenate((nl, kids[3, n:] - nl))
        kids[4] += 1
        done = kids[4] >= (np.inf if g.max_depth is None else g.max_depth)
        if done.any():  # children at the depth limit are leaves that draw nothing
            kid_ids, kid_trees, kid_start, kid_size, _ = kids[:, done]
            none = np.full(len(kid_ids), -1)
            links.append(np.stack((kid_ids, kid_trees, none, none, none)))
            thresholds.append(np.zeros(len(kid_ids)))
            values.append(g.leaves(kid_start, kid_size))
            segments.append(np.stack((kid_ids, kid_start, kid_size)))
            kids = kids[:, ~done]
        return kids

    frontier = np.stack((np.arange(T), np.arange(T), g.starts, g.sizes, np.zeros(T, dtype=int)))
    if not g.per_node:
        while frontier.shape[1]:
            frontier = settle(frontier)
    else:
        # depth-first per tree: each step takes the next preorder node of every tree
        stacks = [[node] for node in frontier.T]
        while True:
            top = [s.pop() for s in stacks if s]
            if not top:
                break
            kids = settle(np.stack(top, axis=1)).T
            n = len(kids) // 2
            for left_kid, right_kid in zip(kids[:n], kids[n:]):
                stacks[left_kid[1]] += [right_kid, left_kid]  # left on top

    ids, trees, feature, left, right = np.concatenate(links, axis=1)
    order_ = np.lexsort((ids, trees))
    n_nodes = np.bincount(trees, minlength=T)
    ends = n_nodes.cumsum()
    local = np.empty(next_id, dtype=np.int32)
    local[ids[order_]] = np.arange(len(ids)) - (ends - n_nodes).repeat(n_nodes)
    left = np.where(left >= 0, local[left], -1)
    right = np.where(right >= 0, local[right], -1)
    arrays = [a[order_] for a in (feature.astype(np.int32), np.concatenate(thresholds),
                                  left.astype(np.int32), right.astype(np.int32),
                                  np.concatenate(values))]
    # a leaf's rows are its segment of ord[0]
    leaf_ids, start, size = np.concatenate(segments, axis=1)
    offs = size.cumsum() - size
    rows = g.ord[0, (start - offs).repeat(size) + np.arange(len(g.y))]
    leaf_of = np.empty(len(g.y), dtype=np.intp)
    leaf_of[rows] = local[leaf_ids].repeat(size)
    return [(*(a[hi - c:hi] for a in arrays), leaf_of[s:s + n])
            for c, hi, s, n in zip(n_nodes, ends, g.starts, g.sizes)]


def fit_trees(trees, X, y, sample_weight=None, counts=None, rngs=None, order=None):
    """Fit `trees` (one settings for all) together.

    Tree t trains on the rows of X whose `counts[t]` is nonzero, each
    weighted by its count times its sample weight; a count array of None
    means every row once. A bootstrap given as counts grows the trees its
    duplicated rows would: a split never separates equal rows, so the
    candidate boundaries are the same, and the integer sums at them are too.
    `rngs[t]` serves tree t's per-node draws; `order` is `presort(X)`,
    computed when not given. Trees are grown in groups whose rows (each
    counted as often as its count) x features stay under `_MAX_CELLS`.
    Returns, per tree, the leaf (node index) of each of its rows in row
    order, the leaf `apply` gives that row.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    w = _weights(sample_weight, n)
    counts = [None] * len(trees) if counts is None else counts
    rngs = [np.random.default_rng(0) for _ in trees] if rngs is None else rngs
    if order is None:
        order = presort(X)
    # a bootstrap tree counts its draws: as many candidate boundaries as its
    # duplicated rows had, which size the split kernel's largest temporaries
    rows = [n if c is None else int(c.sum()) for c in counts]
    leaves = []
    i = 0
    while i < len(trees):
        j = i + 1
        while j < len(trees) and sum(rows[i:j + 1]) * d <= _MAX_CELLS:
            j += 1
        arrays = _grow_group(trees[i], X, y, w, counts[i:j], rngs[i:j], order)
        for tree, (*nodes, leaf) in zip(trees[i:j], arrays):
            tree.feature, tree.threshold, tree.left, tree.right, tree.value = nodes
            tree.n_features_ = d
            leaves.append(leaf)
        i = j
    return leaves


def _boundaries(xs):
    """Flat (feature, position) index of every position of the sorted rows
    xs (features, rows) whose value is below the next one's."""
    valid = np.zeros(xs.shape, dtype=bool)
    np.greater(xs[:, 1:], xs[:, :-1], out=valid[:, :-1])
    return valid.ravel().nonzero()[0]


class BoosterGrower:
    """One tree a round on one table under changing targets or weights, as
    a booster fits them: gradient boosting's regression trees on each round's
    residuals, AdaBoost's classification trees under each round's weights.

    The presorted order, the transposed table and the root's candidate
    boundaries do not depend on targets or weights, so they are found once
    per fit. `fit` grows one node at a time, level by level, to any depth,
    and returns the tree and the leaf of every training row. Its bits are
    those of `fit_trees` on the same rows and a tree from `new_tree`:

    - a node's rows are one segment of the presort, filtered to them, and
      that segment's own cumulative sums are the zero-padded block sums;
    - a node's totals are feature 0's segment sums;
    - the split is the first minimum of the node's (feature, position)
      scores, which is the lowest feature's lowest threshold;
    - a level numbers its left children first, then its right children;
    - leaf values are sums over the leaf's rows in row order.

    Integer-valued targets and weights take `fit_trees` itself. Its sums
    are exact in any order, but not its signed zeros: its leaf sums keep a
    leaf of -0.0 targets at -0.0, where `sum` gives +0.0.
    """

    def __init__(self, new_tree, X):
        self.new_tree = new_tree
        self.X = np.asarray(X, dtype=np.float64)
        n, d = self.X.shape
        self.order = presort(self.X)
        self.XT = np.ascontiguousarray(self.X.T)
        self.row_offset = (np.arange(d) * n)[:, None]  # flat index of (f, 0)
        self.root_xs = self.XT.take(self.order + self.row_offset)
        self.root_flat = _boundaries(self.root_xs)
        self.all_rows = np.arange(n)
        self.go_left = np.zeros(n, dtype=bool)  # scratch, read only where written

    def fit(self, y, w=None) -> tuple:
        """(tree, leaf node of every row) for targets `y` under sample
        weights `w` (None: every weight 1)."""
        tree = self.new_tree()
        y = np.asarray(y, dtype=np.float64)
        n, d = self.X.shape
        weight = _weights(w, n)
        wy = weight * y
        if _is_integral(weight) and _is_integral(wy):  # fit_trees' integral path
            (leaf,) = fit_trees([tree], self.X, y, w, order=self.order)
            return tree, leaf
        max_depth = np.inf if tree.max_depth is None else tree.max_depth
        # only a split below the root's children partitions the presort
        ord_ = self.order.copy() if max_depth > 1 else self.order
        leaf_of = np.empty(n, dtype=np.intp)
        # per node: its segment (start, size) of `ord_`, or, for a child at
        # the depth limit, its rows in row order
        parts = [(0, n)]
        inner = 0.0 if tree._impurity is None else (0.0, 0.0)  # value of an inner node
        feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [inner]
        level, depth = [0], 0
        while level:
            split = []  # (node, left child's part, right child's part)
            for node in level:
                part = parts[node]
                found = None
                if depth < max_depth:
                    found = self._split(tree, ord_, *part, y, weight, wy, unit=w is None,
                                        last=depth + 1 >= max_depth)
                if found is None:
                    rows = part if isinstance(part, np.ndarray) else \
                        np.sort(ord_[0, part[0]:part[0] + part[1]])
                    leaf_of[rows] = node
                    w1, total = wy[rows].sum(), weight[rows].sum()
                    mean = w1 / total if total > 0 else 0.0
                    value[node] = mean if tree._impurity is None else (1.0 - mean, mean)
                else:
                    feature[node], threshold[node], *children = found
                    split.append((node, *children))
            first = len(parts)
            for j, (node, _, _) in enumerate(split):
                left[node], right[node] = first + j, first + len(split) + j
            parts += [lo for _, lo, _ in split] + [hi for _, _, hi in split]
            for array, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1),
                                 (value, inner)):
                array += [blank] * (2 * len(split))
            level, depth = range(first, len(parts)), depth + 1
        tree.feature, tree.left, tree.right = (np.array(a, np.int32) for a in (feature, left, right))
        tree.threshold, tree.value, tree.n_features_ = np.array(threshold), np.array(value), d
        return tree, leaf_of

    def _split(self, tree, ord_, start, size, y, w, wy, unit, last):
        """(feature, threshold, left part, right part) of the best split of
        the node on segment (start, size) of `ord_`, or None for a leaf.

        A child's part is its segment, the node's segments partitioned
        stably, or with `last` (the children are at the depth limit) its
        rows in row order.
        """
        sub = ord_[:, start:start + size]
        rows = sub[0]
        root = size == len(self.all_rows)
        if tree._impurity is not None:
            n1 = (y if root else y.take(rows)).sum()
            if n1 == 0 or n1 == size:
                return None
        elif size < 2:
            return None
        if root:
            xs, flat = self.root_xs, self.root_flat
        else:
            xs = self.XT.take(sub + self.row_offset)
            flat = _boundaries(xs)
        if not len(flat):
            return None
        cw1 = wy.take(sub).cumsum(axis=1)
        W1, w1l = cw1[0, -1], cw1.ravel().take(flat)
        if unit:  # weights of 1 sum to the row counts
            W, wl = float(size), (flat % size + 1).astype(np.float64)
        else:
            cw = w.take(sub).cumsum(axis=1)
            W, wl = cw[0, -1], cw.ravel().take(flat)
        wr, w1r = W - wl, W1 - w1l
        keep = (wl > 0) & (wr > 0)
        if not keep.all():
            flat, wl, w1l, wr, w1r = (a[keep] for a in (flat, wl, w1l, wr, w1r))
            if not len(flat):
                return None
        score = _split_scores(tree._impurity, wl, w1l, wr, w1r)
        best = np.argmin(score)  # the first minimum: lowest feature, then threshold
        # no boundary, or (regression) zero gain: targets constant across every boundary
        if not (np.isfinite(score[best]) if tree._impurity is not None else score[best] < 0):
            return None
        q = flat[best]
        f = int(q // size)
        t = 0.5 * (xs.ravel()[q] + xs.ravel()[q + 1])
        if last:  # children at the depth limit are leaves: they need their rows only
            rows = self.all_rows if root else np.sort(rows)
        go_left = (self.XT[f] if last and root else self.XT[f].take(rows)) <= t
        nl = int(np.count_nonzero(go_left))
        if not 0 < nl < size:  # midpoint collapsed onto a data value
            return None
        if last:
            return f, t, rows[go_left], rows[~go_left]
        self.go_left[rows] = go_left
        g = self.go_left.take(sub)
        sides = sub[g].reshape(len(sub), nl), sub[~g].reshape(len(sub), size - nl)
        sub[:, :nl], sub[:, nl:] = sides
        return f, t, (start, nl), (start + nl, size - nl)


#: `_LOW[k]` has the k lowest bits of a 64-bit word set, k in 0..64
_LOW = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)


class LeafScorer:
    """The leaf every row reaches in each of a list of trees, found from
    threshold ranks and leaf bitmasks (QuickScorer: Lucchese et al., SIGIR
    2015) instead of a walk from the root.

    Number each tree's leaves left to right. A row goes right at inner node n
    exactly when `x[feature[n]] > threshold[n]`, and then it cannot reach a
    leaf of n's left subtree: n's *mask* has those leaves' bits clear. The
    leaf a row reaches is the lowest set bit of the AND of the masks of every
    node it goes right at: that leaf lies in the left subtree of none of them,
    and each leaf to its left is cleared by the two leaves' lowest common
    ancestor, where the row went right.

    On one feature, the nodes of one tree that a row goes right at are those
    with a threshold below its value, a prefix of the tree's nodes on that
    feature in threshold order. So the scorer keeps, per feature, the sorted
    distinct thresholds of all trees and a (thresholds + 1) x trees table
    that maps a row's rank among them to an index into one flat array of
    per-tree prefix ANDs (entry 0, every leaf, for a tree with no node on the
    feature). A row's rank is one `searchsorted`;
    NaN ranks last, so it goes right everywhere, as `x <= threshold` is false
    (no split has a NaN threshold: it would send every row right, so growth
    never makes one). A tree with more than 64 leaves takes several 64-bit
    words per mask. A tree whose splits are all on one feature (a stump, for
    one) has its leaf fixed by that feature's rank, so its table holds the
    leaf itself, and a tree whose root is a leaf needs no table.
    """

    def __init__(self, trees):
        self.n_trees = T = len(trees)
        counts = np.array([len(t.feature) for t in trees])
        roots = counts.cumsum() - counts
        shift = roots.repeat(counts)
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        threshold = np.concatenate([t.threshold for t in trees])
        left = np.concatenate([t.left for t in trees]) + shift
        right = np.concatenate([t.right for t in trees]) + shift
        tree_of = np.arange(T).repeat(counts)
        inner = feature >= 0

        # leaves under each node and the left-to-right rank of its first leaf
        levels, level = [], roots
        while len(level):
            levels.append(level[inner[level]])
            level = np.concatenate((left[levels[-1]], right[levels[-1]]))
        size = np.ones(len(feature), dtype=np.intp)
        for level in reversed(levels):
            size[level] = size[left[level]] + size[right[level]]
        first = np.zeros(len(feature), dtype=np.intp)
        for level in levels:
            first[left[level]] = first[level]
            first[right[level]] = first[level] + size[left[level]]
        width = size[roots]
        self.words = W = int(-(-width.max() // 64))
        # the narrowest word that holds every tree's leaves
        word_type = np.min_scalar_type((1 << int(width.max())) - 1) if W == 1 else np.uint64
        leaf_start = width.cumsum() - width
        leaves = (~inner).nonzero()[0]
        self.leaf_node = np.empty(width.sum(), dtype=np.intp)
        self.leaf_node[leaf_start[tree_of[leaves]] + first[leaves]] = leaves

        # masks of the inner nodes by (feature, tree, threshold), ANDed along
        # each (feature, tree) run; entry 0 of `self.masks` keeps every leaf
        nodes = inner.nonzero()[0]
        nodes = nodes[np.lexsort((threshold[nodes], tree_of[nodes], feature[nodes]))]
        a = first[nodes][:, None] - 64 * np.arange(W)
        b = a + size[left[nodes]][:, None]
        masks = ~_LOW[b.clip(0, 64)] | _LOW[a.clip(0, 64)]
        run = feature[nodes] * T + tree_of[nodes]
        step = 1
        while step < len(run) and (same := run[step:] == run[:-step]).any():
            masks[step:] = np.where(same[:, None], masks[step:] & masks[:-step], masks[step:])
            step *= 2
        self.masks = np.concatenate((np.full((1, W), ~np.uint64(0)), masks)).astype(word_type)

        features_of = np.bincount(np.unique(run) % T, minlength=T)
        multi = features_of > 1
        constant = features_of == 0
        self.constant = constant.nonzero()[0], roots[constant]
        self.multi = slice(None) if multi.all() else multi.nonzero()[0]
        self.multi_base = leaf_start[multi] - 1023  # see `_exit_leaves`
        column = np.cumsum(multi) - 1  # a tree's column in the multi-feature tables
        index_type = np.min_scalar_type(len(self.masks) - 1)
        leaf_type = np.min_scalar_type(len(feature) - 1)
        self.features = []  # (feature, thresholds, table, single-feature trees, their leaves)
        bounds = np.searchsorted(feature[nodes], np.arange(feature.max(initial=-1) + 2))
        for f in (bounds[1:] > bounds[:-1]).nonzero()[0]:  # the features some tree splits on
            at = np.arange(bounds[f], bounds[f + 1])  # positions in `nodes`
            thresholds = np.unique(threshold[nodes[at]])
            rank = np.searchsorted(thresholds, threshold[nodes[at]])
            trees_at = tree_of[nodes[at]]
            m = multi[trees_at]
            table = None
            if m.any():
                table = _prefix_table(len(thresholds), rank[m], column[trees_at[m]],
                                      column[-1] + 1, at[m] + 1).astype(index_type)
            single = np.unique(trees_at[~m])
            leaf = self._exit_leaves(
                self.masks[_prefix_table(len(thresholds), rank[~m],
                                         np.searchsorted(single, trees_at[~m]), len(single),
                                         at[~m] + 1)],
                leaf_start[single] - 1023)
            self.features.append((f, thresholds, table, single, leaf.astype(leaf_type)))

    def _exit_leaves(self, acc, base):
        """Leaf node of each (row, tree) from the AND of its masks, shape
        (rows, trees, words); `base` is each tree's first entry of
        `leaf_node`, minus 1023."""
        if self.words == 1:
            word = acc[..., 0]
        else:  # the first nonzero word holds the lowest set bit
            w = (acc != 0).argmax(axis=2)
            word = np.take_along_axis(acc, w[..., None], axis=2)[..., 0]
            base = base + 64 * w
        low = np.negative(word)
        low &= word  # the lowest set bit alone
        # a power of two converts to float64 exactly, its exponent field 1023 + the bit
        bit = low.astype(np.float64).view(np.int64)
        bit >>= 52
        bit += base
        return self.leaf_node.take(bit)

    def apply(self, X):
        """Leaf of every row of X in every tree, (rows, trees), as indices
        into the trees' node arrays concatenated in order."""
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        XT = np.ascontiguousarray(X.T)
        out = np.empty((n, self.n_trees), dtype=np.intp)
        if len(self.constant[0]):
            out[:, self.constant[0]] = self.constant[1]
        chunk = max(1, _MAX_CELLS // (self.n_trees * self.words))
        for a in range(0, n, chunk):
            rows = slice(a, min(n, a + chunk))
            acc = None
            for f, thresholds, table, single, leaf in self.features:
                rank = np.searchsorted(thresholds, XT[f, rows])
                if len(single):
                    out[rows, single] = leaf.take(rank, axis=0)
                if table is not None:
                    masks = self.masks.take(table.take(rank, axis=0).astype(np.intp), axis=0)
                    acc = masks if acc is None else np.bitwise_and(acc, masks, out=acc)
            if acc is not None:
                out[rows, self.multi] = self._exit_leaves(acc, self.multi_base)
        return out


def _prefix_table(n_thresholds, rank, column, n_columns, entry):
    """The (n_thresholds + 1) x n_columns table whose cell (r, c) is the
    largest `entry` of column c's nodes with a threshold rank below r, or 0:
    a row of rank r goes right at exactly those nodes."""
    table = np.zeros((n_thresholds + 1, n_columns), dtype=np.intp)
    np.maximum.at(table, (rank + 1, column), entry)
    return np.maximum.accumulate(table, axis=0)


def node_values(trees):
    """The trees' `value` arrays concatenated in order, indexed like
    `LeafScorer.apply`'s leaves."""
    return np.concatenate([t.value for t in trees])


class ScoredTrees:
    """Base of fitted models that score rows through their trees' leaves.

    `leaf_scorer(trees)` is the `LeafScorer` of the model's trees, built at
    its first prediction and kept as `_scorer`, a cache that artifacts leave
    out, until the trees change (a fit gives every tree new node arrays).
    """

    def leaf_scorer(self, trees):
        key = [t.feature for t in trees]
        cached = self.__dict__.get("_scorer")
        if (cached is None or len(cached[0]) != len(key)
                or any(map(operator.is_not, cached[0], key))):
            cached = self._scorer = key, LeafScorer(trees)
        return cached[1]


class _Tree(ScoredTrees):
    feature = threshold = left = right = value = None

    def apply(self, X):
        """Leaf node index of every row."""
        return self.leaf_scorer([self]).apply(X)[:, 0]


class ClassificationTree(_Tree):
    """Greedy binary tree for 0/1 labels with optional sample weights.

    criterion: "entropy" or "gini". max_features: None/"all", "sqrt"/"auto"
    (= sqrt), or an int; subsampled per split from the provided rng.
    """

    def __init__(self, criterion="entropy", max_depth=None, max_features=None,
                 random_threshold=False):
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        self.random_threshold = random_threshold  # extremely-randomized variant
        self.n_features_ = None

    @property
    def _impurity(self):
        return _CRITERIA[self.criterion]

    def fit(self, X, y, sample_weight=None, rng=None):
        fit_trees([self], X, y, sample_weight, rngs=[rng or np.random.default_rng(0)])
        return self

    def predict_proba(self, X):
        return self.value[self.apply(X)]


class RegressionTree(_Tree):
    """Least-squares tree on real targets, split by weighted mean separation.

    `apply` routes samples to leaf node indices so a booster can refit leaf
    values under its own loss.
    """

    _impurity = None
    max_features = None
    random_threshold = False

    def __init__(self, max_depth=3):
        self.max_depth = max_depth

    def fit(self, X, y, sample_weight=None):
        fit_trees([self], X, y, sample_weight)
        return self
