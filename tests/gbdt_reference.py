"""Recursive per-node GBDT grower: the oracle for `hafcp.gbdt`'s level-wise search.

`_best_split` and `_grow_tree` are the straightforward exact greedy search:
one stable argsort and two cumsums per node and feature, children grown
depth-first. `hafcp.gbdt` must produce the same ensemble, bit for bit. The
only addition to the search is the optional `counts` list, whose first entry
tallies the cut positions scanned (the `split_candidates` counter).
`train_reference` is `gbdt.train` with this grower and with margins updated
through `Tree.predict_margin`.
"""

import math

import numpy as np

from hafcp.gbdt import (BoostedModel, BoostParams, Tree, _log_loss, _sigmoid)


def _best_split(X, g, h, rows, lam, min_child_weight, counts=None):
    """Exact greedy search over all features and cut positions for one node.

    Returns (gain, feature, threshold, left_rows, right_rows) or None. The
    winning gain must be strictly positive; scanning features in index order
    and taking the first maximum within a feature realizes the documented
    tie-breaks.
    """
    g_rows = g[rows]
    h_rows = h[rows]
    g_total = g_rows.sum()
    h_total = h_rows.sum()
    parent_score = g_total * g_total / (h_total + lam)

    best_gain = 0.0
    best = None
    for f in range(X.shape[1]):
        x = X[rows, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        cg = np.cumsum(g_rows[order])
        ch = np.cumsum(h_rows[order])
        cuts = np.nonzero(xs[:-1] < xs[1:])[0]
        if counts is not None:
            counts[0] += len(cuts)
        gl = cg[cuts]
        hl = ch[cuts]
        gr = g_total - gl
        hr = h_total - hl
        valid = (hl >= min_child_weight) & (hr >= min_child_weight)
        if not valid.any():
            continue
        gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score)
        gains = np.where(valid, gains, -np.inf)
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            c = int(cuts[i])
            thr = xs[c] / 2.0 + xs[c + 1] / 2.0
            if not thr > xs[c]:  # adjacent floats: keep the partition honest
                thr = float(xs[c + 1])
            best_gain = float(gains[i])
            best = (best_gain, f, float(thr), rows[order[: c + 1]], rows[order[c + 1:]])
    return best


def _grow_tree(X, g, h, params: BoostParams, counts=None) -> Tree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    weight: list[float] = []
    gain: list[float] = []
    cover: list[int] = []

    lam = params.lambda_l2
    lr = params.learning_rate

    def build(rows: np.ndarray, depth: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        weight.append(0.0)
        gain.append(0.0)
        cover.append(len(rows))

        split = None
        if depth < params.max_depth and len(rows) >= 2:
            split = _best_split(X, g, h, rows, lam, params.min_child_weight,
                                counts)
        if split is None:
            weight[node] = -lr * g[rows].sum() / (h[rows].sum() + lam)
            return node
        node_gain, f, thr, rows_l, rows_r = split
        feature[node] = f
        threshold[node] = thr
        gain[node] = node_gain
        left[node] = build(rows_l, depth + 1)
        right[node] = build(rows_r, depth + 1)
        return node

    build(np.arange(len(X), dtype=np.int64), 0)
    return Tree(feature, threshold, left, right, weight, gain, cover)


def train_reference(X: np.ndarray, y: np.ndarray, names: list[str],
                    params: BoostParams, counts=None) -> BoostedModel:
    """The ensemble `gbdt.train` must reproduce for this X, y and params."""
    y = y.astype(np.float64)
    n = len(y)
    prior = int(y.sum()) / n
    base_score = math.log(prior / (1.0 - prior))
    margin = np.full(n, base_score, dtype=np.float64)
    losses = [_log_loss(y, _sigmoid(margin))]
    trees = []
    for _ in range(params.n_estimators):
        p = _sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        tree = _grow_tree(X, g, h, params, counts)
        trees.append(tree)
        margin += tree.predict_margin(X)
        losses.append(_log_loss(y, _sigmoid(margin)))
    return BoostedModel(trees, base_score, names, params, losses)
