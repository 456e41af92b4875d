"""Gradient-boosted regression trees for binary churn classification.

Second-order (Newton) boosting on logistic loss: per round, gradients
g = p - y and hessians h = p(1-p) are computed from the current margins and a
regression tree is grown by exact greedy search maximizing the regularized
gain

    G = 1/2 [ GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam) ]

with leaf weight -learning_rate * G_leaf/(H_leaf+lam). No binning, no
subsampling, no column sampling: given one dataset and one parameter set the
ensemble is bit-identical on every platform. Ties in the split search break
toward the lowest feature index, then the lowest threshold.

Trees grow level by level: one argsort per feature orders every node of a
level at once, over x ranks computed once per train(). The floating-point
arithmetic is that of a per-node search, so the bits do not depend on the
batching: within a node, equal x values keep the node's row order (a
child's row order is its parent's order by the winning feature); cumsums
run left to right per node and feature; node totals and leaf weights use
numpy's pairwise sum over the node's rows in that order.

A fit can start from a model fitted with the same params on the leading
columns (train's `prefix`, the baseline before pattern columns were
appended). While the appended columns change nothing, a round replays the
prefix's tree, searching only the appended columns, and takes it; the
ensemble is the cold fit's, bit for bit.

Feature importance comes in two flavors: "gain" (per-feature sum of split
gains) and "path_attribution" (mean absolute Saabas contribution over the
training rows, a deterministic stand-in for mean |SHAP|).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._util import (atomic_write_text, canonical_json, json_field,
                    json_floats, jsonable)
from .dataset import ColumnarDataset
from .errors import (
    ConfigError,
    DegenerateAUC,
    EmptyModel,
    EmptyTrainingSet,
    LengthMismatch,
    NegativeScore,
    ParseError,
    PrefixMismatch,
    SchemaMismatch,
    SingleClassTraining,
)

MODEL_FORMAT = "hafcp-gbdt"
MODEL_VERSION = 1
LINEAGE_COMMENT = "# lineage "


@dataclass(frozen=True)
class BoostParams:
    max_depth: int = 6
    learning_rate: float = 0.3
    n_estimators: int = 100
    min_child_weight: float = 1.0
    lambda_l2: float = 1.0

    def validate(self) -> "BoostParams":
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError(
                f"learning_rate must be in (0,1], got {self.learning_rate}")
        if self.n_estimators < 1:
            raise ConfigError(
                f"n_estimators must be >= 1, got {self.n_estimators}")
        # written so that NaN fails too
        if not 0.0 <= self.min_child_weight < math.inf:
            raise ConfigError(f"min_child_weight must be finite and >= 0, "
                              f"got {self.min_child_weight}")
        if not 0.0 <= self.lambda_l2 < math.inf:
            raise ConfigError(
                f"lambda_l2 must be finite and >= 0, got {self.lambda_l2}")
        return self


@dataclass(frozen=True)
class Metrics:
    auc: float
    accuracy: float
    recall: float
    precision: float
    f1: float

    def as_dict(self) -> dict:
        return {"auc": self.auc, "accuracy": self.accuracy,
                "recall": self.recall, "precision": self.precision,
                "f1": self.f1}

    @classmethod
    def from_dict(cls, d: dict) -> "Metrics":
        """as_dict's output back; ParseError unless every metric is a number."""
        return cls(**{f.name: json_field(d, f.name, float, "metrics")
                      for f in fields(cls)})


@dataclass(frozen=True)
class ImportanceTable:
    method: str  # gain | path_attribution | external
    scores: dict[str, float]
    lineage: dict | None = None  # read back from write_importance's comment


# A Tree's parallel arrays, in to_dict's order, with their JSON value types.
TREE_ARRAYS = {"feature": int, "threshold": float, "left": int, "right": int,
               "weight": float, "gain": float, "cover": int}


class Tree:
    """One regression tree as flat parallel arrays.

    feature[i] == -1 marks a leaf; for leaves, weight[i] is the (already
    learning-rate-scaled) output. value[i] is the node's expected output:
    leaf weight at leaves, cover-weighted mean of child values at internal
    nodes — the quantity Saabas attribution differences are taken over.
    """

    def __init__(self, feature, threshold, left, right, weight, gain, cover):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.gain = np.asarray(gain, dtype=np.float64)
        self.cover = np.asarray(cover, dtype=np.int64)
        self.value = self._expected_values()

    def _expected_values(self) -> np.ndarray:
        value = np.zeros(len(self.feature), dtype=np.float64)
        # children always have larger ids than their parent
        for i in range(len(self.feature) - 1, -1, -1):
            if self.feature[i] < 0:
                value[i] = self.weight[i]
            else:
                l, r = self.left[i], self.right[i]
                total = self.cover[l] + self.cover[r]
                value[i] = (value[l] * self.cover[l] + value[r] * self.cover[r]) / total
        return value

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        cur = np.zeros(len(X), dtype=np.int64)
        while True:
            feat = self.feature[cur]
            active = np.nonzero(feat >= 0)[0]
            if active.size == 0:
                break
            nodes = cur[active]
            go_left = X[active, self.feature[nodes]] < self.threshold[nodes]
            cur[active] = np.where(go_left, self.left[nodes], self.right[nodes])
        return self.weight[cur]

    def path_contributions(self, X: np.ndarray, n_features: int) -> np.ndarray:
        """Per-row, per-feature Saabas attributions for this tree.

        Each split on a row's root-to-leaf path adds (child expected value -
        parent expected value) to the split feature. Row total = leaf weight
        - root expected value.
        """
        contribs = np.zeros((len(X), n_features), dtype=np.float64)
        cur = np.zeros(len(X), dtype=np.int64)
        while True:
            feat = self.feature[cur]
            active = np.nonzero(feat >= 0)[0]
            if active.size == 0:
                break
            nodes = cur[active]
            split_feat = self.feature[nodes]
            go_left = X[active, split_feat] < self.threshold[nodes]
            child = np.where(go_left, self.left[nodes], self.right[nodes])
            contribs[active, split_feat] += self.value[child] - self.value[nodes]
            cur[active] = child
        return contribs

    def gain_by_feature(self, n_features: int) -> np.ndarray:
        out = np.zeros(n_features, dtype=np.float64)
        for i in range(self.n_nodes):
            if self.feature[i] >= 0:
                out[self.feature[i]] += self.gain[i]
        return out

    def to_dict(self) -> dict:
        return {key: getattr(self, key).tolist() for key in TREE_ARRAYS}

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        """to_dict's output back; ParseError unless the arrays make a tree.

        The arrays must share one nonzero length; a split node's children
        must come after it (so a walk from the root ends) and a leaf has none.
        """
        arrays = []
        for key, kind in TREE_ARRAYS.items():
            values = json_field(d, key, list, "tree")
            if not all(type(v) is kind or (kind is float and type(v) is int)
                       for v in values):
                raise ParseError(f"tree array {key!r} must hold only "
                                 f"{kind.__name__} values")
            arrays.append(values)
        lengths = {len(a) for a in arrays}
        if len(lengths) != 1 or not arrays[0]:
            raise ParseError(f"tree arrays must share one nonzero length, got "
                             f"lengths {[len(a) for a in arrays]}")
        feature, _, left, right = arrays[:4]
        n = len(feature)
        for i, (f, l, r) in enumerate(zip(feature, left, right)):
            if f < -1 or not (i < l < n and i < r < n if f >= 0
                              else l == r == -1):
                raise ParseError(f"tree node {i} has feature {f} and children "
                                 f"{l}, {r}")
        try:
            return cls(*arrays)
        except OverflowError as e:  # an int beyond int64 or float64
            raise ParseError(f"tree arrays: {e}") from None


class BoostedModel:
    def __init__(self, trees: list[Tree], base_score: float,
                 feature_names: list[str], params: BoostParams,
                 train_loss: list[float]):
        self.trees = trees
        self.base_score = base_score
        self.feature_names = list(feature_names)
        self.params = params
        self.train_loss = list(train_loss)

    def predict_margin_matrix(self, X: np.ndarray) -> np.ndarray:
        margin = np.full(len(X), self.base_score, dtype=np.float64)
        for tree in self.trees:
            margin += tree.predict_margin(X)
        return margin

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "params": asdict(self.params),
            "base_score": self.base_score,
            "feature_names": self.feature_names,
            "train_loss": self.train_loss,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoostedModel":
        """to_dict's output back; ParseError on a missing or mistyped key."""
        if not isinstance(d, dict) or d.get("format") != MODEL_FORMAT:
            raise ParseError(f"not a {MODEL_FORMAT} document")
        raw = json_field(d, "params", dict, "model")
        unknown = sorted(set(raw) - {f.name for f in fields(BoostParams)})
        if unknown:
            raise ParseError(f"unknown model params: {unknown}")
        # every field has a default, whose type is the field's
        params = BoostParams(**{
            f.name: json_field(raw, f.name, type(f.default), "model params")
            for f in fields(BoostParams)})
        names = json_field(d, "feature_names", list, "model")
        if not all(isinstance(name, str) for name in names):
            raise ParseError("model feature_names must all be strings")
        trees = [Tree.from_dict(t)
                 for t in json_field(d, "trees", list, "model")]
        if any(t.feature.max() >= len(names) for t in trees):
            raise ParseError(f"a model tree splits on a feature beyond its "
                             f"{len(names)} feature_names")
        return cls(trees, json_field(d, "base_score", float, "model"), names,
                   params, json_floats(d, "train_loss", "model"))


def _sigmoid(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m, dtype=np.float64)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    e = np.exp(m[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-15
    p = np.clip(p, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


# Sort keys pack (node, x rank, position) into one int64; they stay below
# n**3, which must be < 2**63.
MAX_TRAIN_ROWS = 2_097_151


@dataclass
class TrainStats:
    """Work counts of one train(); deterministic for fixed inputs.

    trees, nodes: size of the fitted ensemble. split_candidates: (node,
    feature, cut) positions whose gain was evaluated, a cut being a boundary
    between two distinct adjacent x values of a node the search visited.
    """

    trees: int = 0
    nodes: int = 0
    split_candidates: int = 0
    # trees a warm-started fit took from its prefix model; printed by the
    # report, not part of to_dict
    reused_trees: int = 0

    def to_dict(self) -> dict:
        return {"trees": self.trees, "nodes": self.nodes,
                "split_candidates": self.split_candidates}


def _node_order(node: np.ndarray, rank: np.ndarray, n_rank) -> np.ndarray:
    """Level positions node by node, each node's by (x rank, position).

    node holds each position's node index, in ascending order; rank the x
    rank at each position, one row per feature or a single row; n_rank
    exceeds every rank in its row. This is the order in which a node's
    children receive its rows, so it defines how equal x values tie.
    """
    N = node.shape[-1]
    # the keys are unique, so any sort gives this stable order
    return np.argsort((node * n_rank + rank) * N + np.arange(N), axis=-1)


def _search_level(Xt, ranks, n_ranks, gh_rows, parts, lam, min_child_weight,
                  stats: TrainStats):
    """Exact greedy split search for all nodes of one level at once.

    parts holds each node's rows in node-position order. Returns, per node,
    (G, H, split) with G and H the node's gradient and hessian sums and split
    either None or (gain, feature, threshold, left rows, right rows).

    The arithmetic is that of a per-node search (one stable argsort and two
    cumsums per feature): within a node, equal x values keep node-position
    order, cumsums run left to right per node and feature, and G, H are
    pairwise sums in node-position order. The winner is the first maximum
    in (feature, cut) order and must be strictly positive.
    """
    F, n = Xt.shape
    k = len(parts)
    sizes = np.array([len(p) for p in parts], dtype=np.int64)
    start = np.cumsum(sizes) - sizes
    rows = np.concatenate(parts)
    N = len(rows)
    node = np.repeat(np.arange(k), sizes)
    sorted_rows = rows[_node_order(node, ranks[:, rows], n_ranks[:, None])]
    xs = np.take(Xt, sorted_rows + (np.arange(F) * n)[:, None])
    gh = np.take(gh_rows, sorted_rows, axis=1)
    # C order matters: a sum along the contiguous axis is numpy's pairwise
    # sum, the same bits as g[rows].sum(); gh_rows[:, rows] would be strided
    gh_pos = np.take(gh_rows, rows, axis=1)

    cum = np.empty_like(gh)
    totals = np.empty((2, k))
    for j in range(k):
        a, b = start[j], start[j] + sizes[j]
        np.cumsum(gh[:, :, a:b], axis=2, out=cum[:, :, a:b])
        totals[:, j] = gh_pos[:, a:b].sum(axis=1)

    # cut f*N + p: x rises from sorted slot p to p+1 of the same node
    rises = np.zeros((F, N), dtype=bool)
    np.less(xs[:, :-1], xs[:, 1:], out=rises[:, :-1])
    rises[:, start + sizes - 1] = False
    cut = np.flatnonzero(rises)
    stats.split_candidates += len(cut)
    left = np.take(cum.reshape(2, -1), cut, axis=1)
    node_totals = np.take(totals, node[cut % N], axis=1)
    right = node_totals - left
    gl, hl = left
    gr, hr = right
    g_sum, h_sum = node_totals
    gains = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam)
                   - g_sum * g_sum / (h_sum + lam))
    gains[~((hl >= min_child_weight) & (hr >= min_child_weight))] = -np.inf
    score = np.full(F * N, -np.inf)
    score[cut] = gains

    # first maximum per node in (feature, cut) order; a NaN gain takes its
    # whole (feature, node) row out of the race
    row_best = np.maximum.reduceat(score.reshape(F, N), start, axis=1)
    row_best[np.isnan(row_best)] = -np.inf
    best = row_best.max(axis=0)
    f_best = np.argmax(row_best == best, axis=0)
    hits = np.flatnonzero(score[f_best[node] * N + np.arange(N)] == best[node])
    p_best = hits[np.searchsorted(hits, start)]
    out = []
    for j in range(k):
        split = None
        if best[j] > 0:
            f, p = f_best[j], p_best[j]
            lo, hi = xs[f, p], xs[f, p + 1]
            thr = (lo + hi) / 2.0
            if not thr > lo:  # adjacent floats: keep the partition honest
                thr = hi
            split = (float(best[j]), int(f), float(thr),
                     sorted_rows[f, start[j]:p + 1],
                     sorted_rows[f, p + 1:start[j] + sizes[j]])
        out.append((totals[0, j], totals[1, j], split))
    return out


def _grow_tree(Xt, ranks, n_ranks, g, h, params: BoostParams,
               stats: TrainStats) -> Tree:
    """Grow one tree level by level.

    Node ids come out in preorder (node, left subtree, right subtree).
    """
    n = len(g)
    lam = params.lambda_l2
    lr = params.learning_rate
    feature: list[int] = []
    threshold: list[float] = []
    weight: list[float] = []
    gain: list[float] = []
    cover: list[int] = []
    kids: list[tuple[int, int] | None] = []
    gh = np.stack((g, h))

    parts = [np.arange(n, dtype=np.int64)]
    depth = 0
    while parts:
        search = ([j for j, p in enumerate(parts) if len(p) >= 2]
                  if depth < params.max_depth and len(Xt) else [])
        found = dict(zip(search, _search_level(
            Xt, ranks, n_ranks, gh, [parts[j] for j in search], lam,
            params.min_child_weight, stats))) if search else {}
        children: list[np.ndarray] = []
        for j, rows in enumerate(parts):
            node = len(feature)
            g_sum, h_sum, split = found.get(j) or (g[rows].sum(),
                                                   h[rows].sum(), None)
            cover.append(len(rows))
            if split is None:
                feature.append(-1)
                threshold.append(0.0)
                gain.append(0.0)
                weight.append(-lr * g_sum / (h_sum + lam))
                kids.append(None)
                continue
            node_gain, f, thr, rows_l, rows_r = split
            feature.append(f)
            threshold.append(thr)
            gain.append(node_gain)
            weight.append(0.0)
            # ids run level by level: the next level starts right after
            # this one, in the order children are appended
            first_child = node - j + len(parts) + len(children)
            kids.append((first_child, first_child + 1))
            children += [rows_l, rows_r]
        parts = children
        depth += 1

    preorder = []
    stack = [0]
    while stack:
        i = stack.pop()
        preorder.append(i)
        if kids[i] is not None:
            stack += [kids[i][1], kids[i][0]]
    new_id = np.empty(len(preorder), dtype=np.int64)
    new_id[preorder] = np.arange(len(preorder))
    return Tree([feature[i] for i in preorder],
                [threshold[i] for i in preorder],
                [new_id[kids[i][0]] if kids[i] else -1 for i in preorder],
                [new_id[kids[i][1]] if kids[i] else -1 for i in preorder],
                [weight[i] for i in preorder],
                [gain[i] for i in preorder],
                [cover[i] for i in preorder])


def _same(a, b) -> bool:
    """Whether two floats serialize alike: -0.0 is not 0.0, NaN is NaN."""
    return repr(float(a)) == repr(float(b))


def _replay_tree(tree: Tree, Xt, ranks, n_ranks, n_prefix: int, g, h,
                 params: BoostParams, stats: TrainStats) -> bool:
    """Whether _grow_tree, given these gradients, would grow `tree` again.

    `tree` is a prefix model's tree over Xt's first n_prefix features, and
    g, h are the gradients it was grown from. It is replayed level by level
    with each node's rows in node-position order, as _grow_tree holds them:
    a split node's rows go to its children in the _node_order of its
    feature, cut at the left child's cover. Only the appended features
    Xt[n_prefix:] are searched. A searched node takes an appended feature
    when that feature's best gain beats the prefix's: the node's gain at a
    split, 0 at a leaf. A tie goes to the prefix feature, the lower index.
    Every replayed node must agree with `tree` (depth, cover, the cut's
    threshold and gain, the leaf weight), or PrefixMismatch is raised.
    """
    lam, lr = params.lambda_l2, params.learning_rate
    appended = slice(n_prefix, None)
    gh = np.stack((g, h))
    ids = [0]
    parts = [np.arange(len(g), dtype=np.int64)]
    seen: set[int] = set()
    depth = 0
    while ids:
        seen.update(ids)
        search = ([j for j, p in enumerate(parts) if len(p) >= 2]
                  if depth < params.max_depth and len(Xt) > n_prefix else [])
        found = dict(zip(search, _search_level(
            Xt[appended], ranks[appended], n_ranks[appended], gh,
            [parts[j] for j in search], lam, params.min_child_weight,
            stats))) if search else {}
        splits = []  # (node id, rows, G, H) of this level's split nodes
        for j, (i, rows) in enumerate(zip(ids, parts)):
            if tree.cover[i] != len(rows):
                raise PrefixMismatch(f"tree node {i} covers {tree.cover[i]} "
                                     f"rows, its replay {len(rows)}")
            g_sum, h_sum, split = found.get(j) or (g[rows].sum(),
                                                   h[rows].sum(), None)
            if tree.feature[i] < 0:
                if split is not None:
                    return False
                weight = -lr * g_sum / (h_sum + lam)
                if not _same(tree.weight[i], weight):
                    raise PrefixMismatch(
                        f"tree node {i} has leaf weight {tree.weight[i]!r}, "
                        f"its replay {weight!r}")
                continue
            if not (depth < params.max_depth and len(rows) >= 2
                    and tree.feature[i] < n_prefix):
                raise PrefixMismatch(f"tree node {i} splits where the fit "
                                     f"cannot split")
            if split is not None and split[0] > tree.gain[i]:
                return False
            splits.append((i, rows, g_sum, h_sum))

        ids, parts = [], []
        if splits:
            feats = tree.feature[[i for i, *_ in splits]]
            sizes = [len(rows) for _, rows, *_ in splits]
            rows = np.concatenate([rows for _, rows, *_ in splits])
            feat = np.repeat(feats, sizes)
            sorted_rows = rows[_node_order(np.repeat(np.arange(len(splits)),
                                                     sizes),
                                           ranks[feat, rows],
                                           n_ranks[feats].max())]
            xs = Xt[feat, sorted_rows]
            gh_sorted = gh[:, sorted_rows]
            a = 0
            for (i, _, g_sum, h_sum), size in zip(splits, sizes):
                c = a + tree.cover[tree.left[i]]  # the right child's first
                if not a < c < a + size:
                    raise PrefixMismatch(f"tree node {i}'s left child covers "
                                         f"{c - a} of its {size} rows")
                lo, hi = xs[c - 1], xs[c]
                thr = (lo + hi) / 2.0
                if not thr > lo:
                    thr = hi
                gl, hl = np.cumsum(gh_sorted[:, a:c], axis=1)[:, -1]
                gr, hr = g_sum - gl, h_sum - hl
                gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam)
                              - g_sum * g_sum / (h_sum + lam))
                if not (lo < hi and _same(thr, tree.threshold[i])
                        and _same(gain, tree.gain[i])):
                    raise PrefixMismatch(
                        f"tree node {i} has threshold {tree.threshold[i]!r} "
                        f"and gain {tree.gain[i]!r}, the cut at its left "
                        f"child's cover {thr!r} and {gain!r}")
                ids += [int(tree.left[i]), int(tree.right[i])]
                parts += [sorted_rows[a:c], sorted_rows[c:a + size]]
                a += size
        depth += 1
    if len(seen) != tree.n_nodes:
        raise PrefixMismatch(f"tree has {tree.n_nodes} nodes, {len(seen)} "
                             f"reachable from its root")
    return True


def _check_prefix(prefix: BoostedModel, names: list[str], params: BoostParams,
                  base_score: float) -> None:
    """PrefixMismatch unless prefix was fitted with params on names' head."""
    for what, have, want in (
            ("params", asdict(prefix.params), asdict(params)),
            ("feature names", prefix.feature_names,
             names[:len(prefix.feature_names)]),
            ("tree count", len(prefix.trees), params.n_estimators),
            ("base score", repr(prefix.base_score), repr(base_score))):
        if have != want:
            raise PrefixMismatch(f"model {what} {have} != this fit's {want}")


def train(train_ds: ColumnarDataset, params: BoostParams,
          stats: TrainStats | None = None,
          prefix: BoostedModel | None = None) -> BoostedModel:
    """Fit the boosted ensemble on the train split.

    base_score is the log-odds of the training churn rate; train_loss records
    the training log-loss before boosting and after each round. Work counts
    are added to stats when one is given.

    `prefix` warm-starts the fit from a model fitted with the same params on
    the same rows and the leading columns of train_ds (a baseline before
    columns were appended). While every earlier round took prefix's tree,
    a round replays prefix's tree (_replay_tree) and takes it if it is the
    tree the round would grow; from the first round where it is not, trees
    are grown. The model equals the cold fit's bit for bit. A prefix that
    does not fit these inputs raises PrefixMismatch.
    """
    params.validate()
    X, names = train_ds.feature_matrix()
    y = train_ds.label.astype(np.float64)
    n = len(y)
    if n == 0:
        raise EmptyTrainingSet("training set has 0 rows")
    if n > MAX_TRAIN_ROWS:
        raise ConfigError(
            f"training split has {n} rows; the split search supports at most "
            f"{MAX_TRAIN_ROWS}")
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == n:
        raise SingleClassTraining(
            f"training labels contain a single class ({n_pos}/{n} positive)")
    if stats is None:
        stats = TrainStats()

    # dense x ranks per column, computed once for every tree
    Xt = np.ascontiguousarray(X.T)
    ranks = np.empty(Xt.shape, dtype=np.int64)
    n_ranks = np.empty(len(Xt), dtype=np.int64)
    for f, column in enumerate(Xt):
        distinct, ranks[f] = np.unique(column, return_inverse=True)
        n_ranks[f] = len(distinct)

    prior = n_pos / n
    base_score = math.log(prior / (1.0 - prior))
    if prefix is not None:
        _check_prefix(prefix, names, params, base_score)
    margin = np.full(n, base_score, dtype=np.float64)
    losses = [_log_loss(y, _sigmoid(margin))]

    trees: list[Tree] = []
    reusing = prefix is not None
    for t in range(params.n_estimators):
        p = _sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        reusing = reusing and _replay_tree(
            prefix.trees[t], Xt, ranks, n_ranks, len(prefix.feature_names),
            g, h, params, stats)
        if reusing:
            tree = prefix.trees[t]
            stats.reused_trees += 1
        else:
            tree = _grow_tree(Xt, ranks, n_ranks, g, h, params, stats)
        trees.append(tree)
        stats.trees += 1
        stats.nodes += tree.n_nodes
        margin += tree.predict_margin(X)
        losses.append(_log_loss(y, _sigmoid(margin)))

    return BoostedModel(trees, base_score, names, params, losses)


def _check_schema(model: BoostedModel, ds: ColumnarDataset) -> np.ndarray:
    names = ds.feature_names()
    if names != model.feature_names:
        raise SchemaMismatch(
            f"dataset features {names} != model features {model.feature_names}")
    X, _ = ds.feature_matrix()
    return X


def predict_margin(model: BoostedModel, ds: ColumnarDataset) -> np.ndarray:
    return model.predict_margin_matrix(_check_schema(model, ds))


def predict_proba(model: BoostedModel, ds: ColumnarDataset) -> np.ndarray:
    """sigmoid(base_score + sum of tree outputs), one probability per row."""
    return _sigmoid(predict_margin(model, ds))


def predict_contributions(model: BoostedModel, ds: ColumnarDataset) -> tuple[float, np.ndarray]:
    """Saabas path attributions: (bias, contribs) with margin = bias + row sums.

    bias is base_score plus each tree's root expected value — the model's
    average output — so that per-feature contributions measure movement away
    from that average and the completeness identity holds exactly.
    """
    X = _check_schema(model, ds)
    d = len(model.feature_names)
    contribs = np.zeros((len(X), d), dtype=np.float64)
    bias = model.base_score
    for tree in model.trees:
        contribs += tree.path_contributions(X, d)
        bias += float(tree.value[0])
    return bias, contribs


def evaluate(y_true, y_prob, threshold: float = 0.5) -> Metrics:
    """Confusion-matrix metrics at `threshold` plus rank-based AUC.

    AUC uses the Mann-Whitney statistic with midranks for tied
    probabilities. precision and F1 are 0 when their denominators are 0;
    a single-class y_true raises DegenerateAUC rather than returning NaN.
    """
    y = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_prob, dtype=np.float64)
    if len(y) != len(p):
        raise LengthMismatch(f"y_true has {len(y)} rows, y_prob has {len(p)}")
    if len(y) == 0:
        raise LengthMismatch("empty inputs")
    n = len(y)
    n_pos = int((y == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateAUC(f"only one class present ({n_pos}/{n} positive)")

    order = np.argsort(p, kind="mergesort")
    sp = p[order]
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sp[j + 1] == sp[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[y == 1].sum())
    auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    pred = p >= threshold
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    tn = int(np.sum(~pred & (y == 0)))
    accuracy = (tp + tn) / n
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if (precision + recall) > 0 else 0.0)
    return Metrics(auc=auc, accuracy=accuracy, recall=recall,
                   precision=precision, f1=f1)


def importance(model: BoostedModel, train_ds: ColumnarDataset, method: str) -> ImportanceTable:
    """Per-feature importance: summed split gains or mean |path attribution|.

    Scores are reported unnormalized. A model that never split anywhere has
    no attribution source and is rejected.
    """
    if not model.trees:
        raise EmptyModel("model has no trees")
    d = len(model.feature_names)
    if method == "gain":
        scores = np.zeros(d, dtype=np.float64)
        for tree in model.trees:
            scores += tree.gain_by_feature(d)
    elif method == "path_attribution":
        _, contribs = predict_contributions(model, train_ds)
        scores = np.abs(contribs).mean(axis=0)
    else:
        raise ConfigError(f"unknown importance method {method!r}")
    if not np.any(scores > 0):
        raise EmptyModel("model contains no splits; importance is all zero")
    return ImportanceTable(method=method,
                           scores={name: float(s) for name, s in
                                   zip(model.feature_names, scores)})


def load_importance(path: str) -> ImportanceTable:
    """Read a two-column CSV (feature,score) as an external importance table.

    A first row of exactly feature,score is treated as a header; lines
    starting with '#' are ignored, except that the JSON of a lineage comment
    as write_importance appends it becomes the table's lineage.
    """
    with open(path, newline="", encoding="utf-8") as f:
        lines = list(f)
    lineage = None
    for line in lines:
        if line.startswith(LINEAGE_COMMENT):
            try:
                lineage = json.loads(line[len(LINEAGE_COMMENT):])
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}: lineage comment: {e}") from None
    rows = [r for r in csv.reader(lines)
            if r and not r[0].lstrip().startswith("#")]
    if rows and [c.strip().lower() for c in rows[0]] == ["feature", "score"]:
        rows = rows[1:]
    if not rows:
        raise ParseError(f"{path}: no importance rows")
    scores: dict[str, float] = {}
    for r in rows:
        if len(r) != 2:
            raise ParseError(f"{path}: expected 2 columns, got {r!r}")
        name, raw = r[0], r[1]
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(f"{path}: score {raw!r} is not a number") from None
        if not math.isfinite(value):
            raise ParseError(f"{path}: score {raw!r} is not finite")
        if value < 0:
            raise NegativeScore(f"{path}: negative score {value} for {name!r}")
        scores[name] = value
    if not any(v > 0 for v in scores.values()):
        raise ParseError(f"{path}: all importance scores are zero")
    return ImportanceTable(method="external", scores=scores, lineage=lineage)


def write_importance(table: ImportanceTable, path: str, lineage: dict | None = None) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["feature", "score"])
    for name, score in table.scores.items():
        w.writerow([name, repr(float(score))])
    text = buf.getvalue()
    if lineage is not None:
        text += LINEAGE_COMMENT + canonical_json(jsonable(lineage)) + "\n"
    atomic_write_text(path, text)


def save_model(model: BoostedModel, path: str, lineage: dict | None = None) -> None:
    doc = model.to_dict()
    if lineage is not None:
        doc["lineage"] = jsonable(lineage)
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def load_model(path: str) -> BoostedModel:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: {e}") from None
    return BoostedModel.from_dict(doc)
