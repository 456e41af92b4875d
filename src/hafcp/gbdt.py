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
level at once, over x ranks computed once per train(). While the keys
node·n_rank + rank fit 16 bits, that is a stable radix sort of uint16 keys;
otherwise an int64 sort of keys that also pack the position. A sorted slot
is a cut where the x rank rises to the next slot of its node. A level whose
cuts are under SPARSE_LEVELS of its (feature, slot) grid, as on tables of
low-cardinality columns, scores its cuts only; a level where cuts dominate
scores the whole grid, and the slots that are no cut score -inf. The x
values are read only for the winners' thresholds. The floating-point
arithmetic is that of a per-node search, so the bits do not depend on the
batching or the path: within a node, equal x values keep the node's row
order (a child's row order is its parent's order by the winning feature);
cumsums run left to right per node and feature; node totals and leaf
weights use numpy's pairwise sum over the node's rows in that order. The
margins move by each row's leaf weight in the fit's own partition. A
threshold is the midpoint lo/2 + hi/2 of its cut's two x values, which
cannot overflow, so prediction routes every row as the fit did.

A fit can start from a model fitted with the same params on the leading
columns (train's `prefix`, the baseline before pattern columns were
appended). While the appended columns have changed no tree, the level walk
replays the prefix's tree: each node searches only the prefix's split
feature there and the appended columns. The changed tree keeps its replayed
levels down to the one where an appended column first wins; every level
below is searched over every column, and later trees grow from scratch. The
ensemble is the cold fit's, bit for bit.

Feature importance comes in two flavors: "gain" (per-feature sum of split
gains) and "path_attribution" (mean absolute Saabas contribution over the
training rows, a deterministic stand-in for mean |SHAP|).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._util import atomic_write_text, json_field, json_floats, text_file
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


@dataclass(frozen=True)
class BoostParams:
    max_depth: int = 6
    learning_rate: float = 0.3
    n_estimators: int = 100
    min_child_weight: float = 1.0
    lambda_l2: float = 1.0

    def __post_init__(self) -> None:
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

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Each row's leaf: a split node sends x < threshold left."""
        cur = np.zeros(len(X), dtype=np.int64)
        while True:
            active = np.flatnonzero(self.feature[cur] >= 0)
            if active.size == 0:
                return cur
            nodes = cur[active]
            go_left = X[active, self.feature[nodes]] < self.threshold[nodes]
            cur[active] = np.where(go_left, self.left[nodes], self.right[nodes])

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        return self.weight[self.leaves(X)]

    def path_contributions(self, X: np.ndarray, n_features: int) -> np.ndarray:
        """Per-row, per-feature Saabas attributions for this tree.

        Each split on a row's root-to-leaf path adds (child expected value -
        parent expected value) to the split feature. Row total = leaf weight
        - root expected value. The sums are taken per node, root first, and
        each row takes its leaf's.
        """
        path = np.zeros((self.n_nodes, n_features), dtype=np.float64)
        # children always have larger ids than their parent
        for i in np.flatnonzero(self.feature >= 0):
            for child in (self.left[i], self.right[i]):
                path[child] = path[i]
                path[child, self.feature[i]] += self.value[child] - self.value[i]
        return path[self.leaves(X)]

    def gain_by_feature(self, n_features: int) -> np.ndarray:
        split = self.feature >= 0
        return np.bincount(self.feature[split], self.gain[split], n_features)

    def to_dict(self) -> dict:
        return {key: getattr(self, key).tolist() for key in TREE_ARRAYS}

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        """to_dict's output back; ParseError unless the arrays make a tree.

        The arrays hold integers, or finite numbers where to_dict writes
        floats, and share one nonzero length; a split node's children
        must come after it (so a walk from the root ends), a leaf has none,
        and every node but the root is the child of exactly one split node.
        """
        arrays = []
        for key, kind in TREE_ARRAYS.items():
            values = json_field(d, key, list, "tree")
            if not all(type(v) is int or (type(v) is kind and math.isfinite(v))
                       for v in values):
                what = "finite numbers" if kind is float else "integers"
                raise ParseError(f"tree array {key!r} must hold only {what}")
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
        parents = np.bincount([c for f, l, r in zip(feature, left, right)
                               if f >= 0 for c in (l, r)], minlength=n)
        for i in range(1, n):
            if parents[i] != 1:
                raise ParseError(f"tree node {i} is the child of {parents[i]} "
                                 f"split nodes")
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
        try:
            params = BoostParams(**{
                f.name: json_field(raw, f.name, type(f.default), "model params")
                for f in fields(BoostParams)})
        except ConfigError as e:
            raise ParseError(f"model params: {e}") from None
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
    # 1/(1+e^-m) where m >= 0, e^m/(1+e^m) below (NaN too): exp never
    # overflows
    e = np.exp(np.minimum(m, -m))
    return np.where(m >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-15
    p = np.clip(p, eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


# A level whose keys exceed 16 bits (see _node_order) is ordered by int64
# keys that pack (node, x rank, position); they stay below n**3, which must
# be < 2**63.
MAX_TRAIN_ROWS = 2_097_151
# x ranks are stored as uint16 while no column has more distinct values
# than this, and a level is ordered by a radix sort of 16-bit keys while
# its nodes times its largest rank count stay within it.
RADIX_KEYS = 1 << 16
# A level whose cuts are fewer than this share of its (feature, slot) grid
# scores its cuts only, and the whole grid otherwise. A cut scored alone
# costs about 1.5 grid slots (its gathers), so on 16,000-row levels the two
# break even near 0.4; a fixed ~20 µs per level moves that lower on small
# levels, such as the two-column replay levels of a 2,000-row table.
SPARSE_LEVELS = 0.3


@dataclass
class TrainStats:
    """Work counts of one train(); deterministic for fixed inputs.

    trees, nodes: size of the fitted ensemble. split_candidates: (node,
    feature, cut) positions whose gain was evaluated, a cut being a boundary
    between two distinct adjacent x values of a node the search visited; a
    warm-started fit counts its replay searches (the prefix's split feature
    and the appended features at each replayed node).
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


def _node_order(node: np.ndarray, rank: np.ndarray,
                n_rank: np.ndarray) -> np.ndarray:
    """Level positions node by node, each node's by (x rank, position).

    node holds each position's node index, in ascending order; rank the x
    rank at each position, one row per feature; n_rank, one per row,
    exceeds every rank in its row. This is the order in which a node's
    children receive its rows, so it defines how equal x values tie.

    A stable sort of the keys node·n_rank + rank over the positions in
    order gives it; while the keys fit 16 bits, numpy sorts them by radix.
    Otherwise the position is packed into a unique int64 key, which every
    sort orders alike.
    """
    N = node.shape[-1]
    n_nodes = int(node[-1]) + 1
    if rank.dtype == np.uint16 and n_nodes * n_rank.max() <= RADIX_KEYS:
        if n_nodes > 1:  # node 0 alone needs no key
            rank = (node.astype(np.uint16)
                    * n_rank.astype(np.uint16)[:, None] + rank)
        return rank.argsort(axis=-1, kind="stable")
    key = (node * n_rank[:, None] + rank) * N + np.arange(N)
    return key.argsort(axis=-1)


def _sort_level(ranks, n_ranks, rows, sizes):
    """One level's rows in _node_order per feature, and where they cut.

    rows holds the level's rows node by node, each node's in node-position
    order, and sizes each node's row count. Returns the sorted rows and the
    cuts, each one row per feature: slot p is a cut where the x rank, and so
    x, rises from sorted slot p to p+1 of one node.
    """
    F, n = ranks.shape
    node = np.arange(len(sizes)).repeat(sizes)
    sorted_rows = rows.take(_node_order(node, ranks.take(rows, axis=1),
                                        n_ranks))
    sorted_ranks = ranks.take(sorted_rows + (np.arange(F) * n)[:, None])
    cuts = np.empty(sorted_rows.shape, dtype=bool)
    np.less(sorted_ranks[:, :-1], sorted_ranks[:, 1:], out=cuts[:, :-1])
    cuts[:, sizes.cumsum() - 1] = False
    return sorted_rows, cuts


def _gains(gl, hl, g_node, h_node, parent, lam, min_child_weight,
           cuts=None):
    """Split gains from left sums gl, hl, computed in place over them.

    g_node, h_node and parent (G*G/(H+lam)) are the node's, per element or
    broadcast. The operations are those of a per-node search; an element
    where a child's hessian is under min_child_weight, or that is no cut,
    scores -inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        gr = g_node - gl
        hr = h_node - hl
        valid = hl >= min_child_weight
        valid &= hr >= min_child_weight
        if cuts is not None:
            valid &= cuts
        # 0.5 * (gl*gl/(hl+lam) + gr*gr/(hr+lam) - parent), in place
        score = np.multiply(gl, gl, out=gl)
        hl += lam
        score /= hl
        gr *= gr
        hr += lam
        gr /= hr
        score += gr
        score -= parent
        score *= 0.5
    np.copyto(score, -np.inf, where=~valid)
    return score


def _search_level(ranks, n_ranks, gh, rows, sizes, totals, lam,
                  min_child_weight, stats: TrainStats, sorted_level=None):
    """Exact greedy split search for all nodes of one level at once.

    rows holds the level's rows node by node, each node's in node-position
    order; sizes holds each node's row count and totals its gradient and
    hessian sums; sorted_level, if given, is _sort_level's result for them.
    Returns, per node, the best gain (-inf if no cut is admissible), its
    feature and, where the gain is positive, its number of left rows; and
    the level's rows with each node's in the order of its best feature,
    left rows first.

    The arithmetic is that of a per-node search (one stable argsort and two
    cumsums per feature): within a node, equal x values keep node-position
    order and cumsums run left to right per node and feature. A level whose
    cuts are under SPARSE_LEVELS of its (feature, slot) grid scores its
    cuts only; otherwise it scores the whole grid, where the slots that are
    no cut score -inf. The winner is the first maximum in (feature, cut)
    order and must be strictly positive; a NaN gain takes its (feature,
    node) out of the race.
    """
    N = len(rows)
    k = len(sizes)
    sorted_rows, cuts = sorted_level or _sort_level(ranks, n_ranks, rows,
                                                    sizes)
    stop = sizes.cumsum()
    start = stop - sizes
    cum = gh.take(sorted_rows, axis=1)
    for a, b in zip(start.tolist(), stop.tolist()):
        if b - a > 1:
            np.add.accumulate(cum[:, :, a:b], axis=2, out=cum[:, :, a:b])

    n_cuts = int(np.count_nonzero(cuts))
    stats.split_candidates += n_cuts
    g_sum, h_sum = totals
    parent = g_sum * g_sum / (h_sum + lam)
    sparse = n_cuts < SPARSE_LEVELS * cuts.size
    if sparse:
        # the cuts in (feature, slot) order; the counts[q] cuts of
        # (feature, node) group q = feature * k + node start at bounds[q]
        flat = np.flatnonzero(cuts)
        bounds = flat.searchsorted(
            (np.arange(0, cuts.size, N)[:, None] + start).ravel())
        counts = np.diff(bounds, append=len(flat))
        node_at = (np.arange(len(counts)) % k).repeat(counts)
        score = _gains(*cum.reshape(2, -1).take(flat, axis=1),
                       *totals.take(node_at, axis=1), parent.take(node_at),
                       lam, min_child_weight)
        row_best = np.full(len(counts), -np.inf)
        some = counts > 0
        row_best[some] = np.maximum.reduceat(score, bounds[some])
        row_best = row_best.reshape(-1, k)
    else:
        score = _gains(*cum, *totals.repeat(sizes, axis=1),
                       parent.repeat(sizes), lam, min_child_weight, cuts)
        row_best = np.maximum.reduceat(score, start, axis=1)

    # first maximum per node in (feature, cut) order
    row_best[np.isnan(row_best)] = -np.inf
    best = row_best.max(axis=0)
    f_best = (row_best == best).argmax(axis=0)
    at = (f_best * N).repeat(sizes) + np.arange(N)
    if sparse:
        # a node that splits has cuts in its winning (feature, node) group
        split = (best > 0).nonzero()[0]
        won = f_best.take(split)
        hits = (score == best.take(node_at)).nonzero()[0]
        hits = flat.take(hits.take(hits.searchsorted(
            bounds.take(won * k + split))))
        p_best = start - 1
        p_best[split] = hits - won * N
    else:
        hits = (score.take(at) == best.repeat(sizes)).nonzero()[0]
        p_best = hits.take(hits.searchsorted(start))
    return best, f_best, p_best + 1 - start, sorted_rows.take(at)


def _same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where two float arrays serialize alike: -0.0 is not 0.0, NaN is NaN."""
    return ((a.view(np.int64) == b.view(np.int64))
            | (np.isnan(a) & np.isnan(b)))


def _check_replay(old: Tree, reused: bool, olds, cover, split, col0,
                  weight, threshold, gain, n_left) -> None:
    """PrefixMismatch unless a tree's replayed nodes agree with `old`.

    The arrays hold the grown tree's nodes in level order: each node's node
    in `old` (-1 where fresh), cover, whether it splits and whether column 0
    won there, leaf weight, threshold, gain and left child's cover. A
    replayed node must cover old's rows and split where old splits; a leaf
    must have old's weight, and where column 0 won, threshold, gain and
    left cover must be old's. The first node that fails is named. A tree
    that replays `old` must reach every node of it.
    """
    r = (olds >= 0).nonzero()[0]
    i = olds[r]
    is_leaf = ~split[r]
    col0 = col0[r]
    checks = (
        (old.cover[i] != cover[r], lambda j:
         f" covers {old.cover[i[j]]} rows, its replay {cover[r[j]]}"),
        (is_leaf & (old.feature[i] >= 0), lambda j:
         " splits where the fit cannot split"),
        (is_leaf & ~_same(old.weight[i], weight[r]), lambda j:
         f" has leaf weight {old.weight[i[j]]!r}, its replay "
         f"{weight[r[j]]!r}"),
        (col0 & ~(_same(old.threshold[i], threshold[r])
                  & _same(old.gain[i], gain[r])), lambda j:
         f" has threshold {old.threshold[i[j]]!r} and gain "
         f"{old.gain[i[j]]!r}, its replay {float(threshold[r[j]])!r} and "
         f"{float(gain[r[j]])!r}"),
        (col0 & (old.cover[old.left[i]] != n_left[r]), lambda j:
         f"'s left child covers {old.cover[old.left[i[j]]]} rows, its "
         f"replay {n_left[r[j]]}"))
    failed = np.any([bad for bad, _ in checks], axis=0)
    if failed.any():
        j = int(failed.argmax())
        raise PrefixMismatch(f"tree node {i[j]}" + next(
            what(j) for bad, what in checks if bad[j]))
    seen = np.zeros(old.n_nodes, dtype=bool)
    seen[i] = True
    if reused and not seen.all():
        raise PrefixMismatch(f"tree node {int(seen.argmin())} is not "
                             f"reachable from its root")


def _grow_tree(Xt, ranks, n_ranks, root, gh, params: BoostParams,
               stats: TrainStats, old: Tree | None = None, n_old: int = 0
               ) -> tuple[Tree, bool, np.ndarray]:
    """Grow one tree level by level from the gradients and hessians gh.

    root() returns _sort_level's result for all rows, the same for every
    tree. Returns the tree, whether it replays `old`, and each row's leaf
    weight by the fit's own partition of the rows. Node ids come out in
    preorder (node, left subtree, right subtree).

    `old` is a prefix model's tree over Xt's first n_old features, given the
    gradients it was grown from. The tree replays `old` level by level while
    no appended column has won a split: each node carries its node in `old`
    and is searched over column 0, which holds the x ranks of old's split
    feature at that node (one constant at a leaf of old), then the appended
    features Xt[n_old:]. Old's split was the first maximum over the prefix
    features, so it is column 0's too, and a tie goes to it, the lower
    index, as in a cold fit. The changed tree keeps its replayed levels
    down to the one where an appended column first wins; every level below
    is searched over every column, as in a cold fit, and its nodes carry -1.
    Once the tree is grown, _check_replay holds every replayed node to
    `old`.
    """
    n = gh.shape[1]
    lam = params.lambda_l2
    lr = params.learning_rate
    if old is not None:
        ranks_r = np.concatenate((np.zeros((1, n), dtype=ranks.dtype),
                                  ranks[n_old:]))
        # column 0's ranks come from any prefix feature
        n_ranks_r = np.concatenate(([n_ranks[:n_old].max(initial=1)],
                                    n_ranks[n_old:]))

    # one entry per level, nodes in level order: feature, leaf weight,
    # gain, cover, whether the node splits, its node in `old` and its left
    # child's cover; then, per split node, the two rows on either side of
    # its winning cut
    levels = []
    step = np.empty(n)
    rows = np.arange(n)
    sizes = np.array([n])
    olds = np.array([-1 if old is None else 0])
    reused = old is not None
    depth = 0
    while True:
        k = len(sizes)
        # C order matters: a sum along the contiguous axis is numpy's
        # pairwise sum, the same bits as g[rows].sum() in node-position order
        gh_pos = gh.take(rows, axis=1)
        totals = np.empty((2, k))
        a = 0
        for j, b in enumerate(sizes.cumsum().tolist()):
            np.add.reduce(gh_pos[:, a:b], axis=1, out=totals[:, j])
            a = b

        gain = np.full(k, -np.inf)
        feature = np.zeros(k, dtype=np.int64)
        n_left = np.zeros(k, dtype=np.int64)
        order = rows
        if depth < params.max_depth and len(Xt):
            if reused:
                # a leaf of old (feature -1) gives column 0 one value
                feat = old.feature[olds].repeat(sizes)
                ranks_r[0, rows] = np.where(feat >= 0,
                                            ranks.take(feat * n + rows), 0)
                gain, feature, n_left, order = _search_level(
                    ranks_r, n_ranks_r, gh, rows, sizes, totals, lam,
                    params.min_child_weight, stats)
            else:
                gain, feature, n_left, order = _search_level(
                    ranks, n_ranks, gh, rows, sizes, totals, lam,
                    params.min_child_weight, stats,
                    root() if depth == 0 else None)

        split = gain > 0
        leaf = ~split
        weight = np.zeros(k)
        weight[leaf] = -lr * totals[0, leaf] / (totals[1, leaf] + lam)
        # a split node's rows are overwritten by its leaves further down
        step[rows] = weight.repeat(sizes)
        gain[leaf] = 0.0
        if reused:
            # column 0 is old's feature at each node; the appended features
            # follow it
            reused = not (feature[split] > 0).any()
            feature = np.where(feature > 0, feature + n_old - 1,
                               old.feature[olds])
        feature[leaf] = -1
        last_left = (sizes.cumsum() - sizes + n_left - 1)[split]
        levels.append((feature, weight, gain, sizes, split, olds, n_left,
                       order.take(last_left[:, None] + (0, 1))))
        if not split.any():
            break
        # the next level: each split node's left child, then its right
        rows = order[split.repeat(sizes)]
        n_left = n_left[split]
        sizes = np.ravel((n_left, sizes[split] - n_left), order="F")
        if reused:
            olds = np.ravel((old.left[olds[split]], old.right[olds[split]]),
                            order="F")
        else:
            olds = np.full(len(sizes), -1)
        depth += 1

    (feature, weight, gain, cover, split, olds, n_left, cut_rows) = (
        np.concatenate(arrays) for arrays in zip(*levels))
    # a split's threshold is the midpoint of its winning cut's two x values,
    # halved first so that it cannot overflow
    lo, hi = Xt.take(cut_rows + feature[split, None] * n).T
    thr = lo / 2.0 + hi / 2.0
    threshold = np.zeros(len(split))
    # adjacent floats: keep the partition honest
    threshold[split] = np.where(thr > lo, thr, hi)
    if old is not None:
        # a replayed node that splits on a prefix feature won by column 0
        _check_replay(old, reused, olds, cover, split,
                      split & (feature < n_old), weight, threshold, gain,
                      n_left)
    # level order: the children of the s-th split node are nodes 2s+1, 2s+2
    first_child = np.full(len(split), -1)
    first_child[split] = np.arange(1, 2 * np.count_nonzero(split), 2)
    children = first_child.tolist()
    preorder = []
    stack = [0]
    while stack:
        i = stack.pop()
        preorder.append(i)
        if children[i] > 0:
            stack += [children[i] + 1, children[i]]
    preorder = np.array(preorder)
    new_id = np.empty(len(preorder), dtype=np.int64)
    new_id[preorder] = np.arange(len(preorder))
    left = np.where(split, new_id[first_child], -1)[preorder]
    right = np.where(split, new_id[first_child + 1], -1)[preorder]
    return Tree(feature[preorder], threshold[preorder], left, right,
                weight[preorder], gain[preorder], cover[preorder]), reused, step


def _check_prefix(prefix: BoostedModel, names: list[str], params: BoostParams,
                  base_score: float) -> None:
    """PrefixMismatch unless prefix was fitted with params on names' head
    and splits on its own features only."""
    n_old = len(prefix.feature_names)
    for what, have, want in (
            ("params", asdict(prefix.params), asdict(params)),
            ("feature names", prefix.feature_names, names[:n_old]),
            ("tree count", len(prefix.trees), params.n_estimators),
            ("base score", repr(prefix.base_score), repr(base_score))):
        if have != want:
            raise PrefixMismatch(f"model {what} {have} != this fit's {want}")
    for t, tree in enumerate(prefix.trees):
        beyond = tree.feature >= n_old
        if beyond.any():
            i = int(beyond.argmax())
            raise PrefixMismatch(
                f"model tree {t} node {i} splits on feature "
                f"{tree.feature[i]}, beyond its {n_old} feature names")


def train(train_ds: ColumnarDataset, params: BoostParams,
          stats: TrainStats | None = None,
          prefix: BoostedModel | None = None) -> BoostedModel:
    """Fit the boosted ensemble on the train split.

    base_score is the log-odds of the training churn rate; train_loss records
    the training log-loss before boosting and after each round. Work counts
    are added to stats when one is given.

    `prefix` warm-starts the fit from a model fitted with the same params on
    the same rows and the leading columns of train_ds (a baseline before
    columns were appended). While every earlier round replayed prefix's
    tree whole, a round's walk replays prefix's tree (_grow_tree's `old`);
    from the round after the first tree it changes, trees are grown from
    scratch. The model equals the cold fit's bit for bit. A prefix that
    does not fit these inputs raises PrefixMismatch.
    """
    names = train_ds.feature_names()
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

    # x and its dense ranks, one row per feature, computed once for every
    # tree; a cut is where the rank rises, which NaN (one rank, but unequal
    # to itself) would break
    Xt = np.empty((len(names), n))
    ranks = np.empty(Xt.shape, dtype=np.int64)
    n_ranks = np.empty(len(names), dtype=np.int64)
    for f, name in enumerate(names):
        Xt[f] = train_ds.columns[name]
        distinct, ranks[f] = np.unique(Xt[f], return_inverse=True)
        if np.isnan(distinct[-1]):
            raise ValueError(f"feature {name!r} holds NaN")
        n_ranks[f] = len(distinct)
    if n_ranks.max(initial=0) <= RADIX_KEYS:
        ranks = ranks.astype(np.uint16)

    prior = n_pos / n
    base_score = math.log(prior / (1.0 - prior))
    if prefix is not None:
        _check_prefix(prefix, names, params, base_score)
    margin = np.full(n, base_score, dtype=np.float64)
    p = _sigmoid(margin)
    losses = [_log_loss(y, p)]

    trees: list[Tree] = []
    reusing = prefix is not None
    n_old = len(prefix.feature_names) if reusing else 0
    # the root's order, sorted once the first tree grows a fresh root
    root = functools.cache(lambda: _sort_level(ranks, n_ranks, np.arange(n),
                                               np.array([n])))
    gh = np.empty((2, n))
    for t in range(params.n_estimators):
        np.subtract(p, y, out=gh[0])
        np.multiply(p, 1.0 - p, out=gh[1])
        tree, reusing, step = _grow_tree(
            Xt, ranks, n_ranks, root, gh, params, stats,
            prefix.trees[t] if reusing else None, n_old)
        stats.reused_trees += reusing
        trees.append(tree)
        stats.trees += 1
        stats.nodes += tree.n_nodes
        margin += step
        p = _sigmoid(margin)
        losses.append(_log_loss(y, p))

    return BoostedModel(trees, base_score, names, params, losses)


def _check_schema(model: BoostedModel, ds: ColumnarDataset) -> np.ndarray:
    names = ds.feature_names()
    if names != model.feature_names:
        raise SchemaMismatch(
            f"dataset features {names} != model features {model.feature_names}")
    X, _ = ds.feature_matrix()
    return X


def predict_margin(model: BoostedModel, ds: ColumnarDataset) -> np.ndarray:
    X = _check_schema(model, ds)
    margin = np.full(len(X), model.base_score, dtype=np.float64)
    for tree in model.trees:
        margin += tree.predict_margin(X)
    return margin


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
    # tie groups of the sorted probabilities, [start, end) each
    start = np.flatnonzero(np.r_[True, sp[1:] != sp[:-1]])
    end = np.r_[start[1:], n]
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end - 1) + 1.0, end - start)
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


def parse_importance(text: str, path: str) -> ImportanceTable:
    """A two-column CSV text (feature,score) as an importance table; errors
    name `path`.

    A first row of exactly feature,score is treated as a header; lines
    starting with '#' are ignored.
    """
    rows = [r for r in csv.reader(io.StringIO(text, newline=""))
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
        if name in scores:
            raise ParseError(f"{path}: feature {name!r} is listed twice")
        scores[name] = value
    if not any(v > 0 for v in scores.values()):
        raise ParseError(f"{path}: all importance scores are zero")
    return ImportanceTable(method="external", scores=scores)


def load_importance(path: str) -> ImportanceTable:
    """An external importance file, read by parse_importance."""
    with text_file(path) as f:
        return parse_importance(f.read(), path)


def write_importance(table: ImportanceTable, path: str) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["feature", "score"])
    for name, score in table.scores.items():
        w.writerow([name, repr(float(score))])
    atomic_write_text(path, buf.getvalue())


def save_model(model: BoostedModel, path: str) -> None:
    atomic_write_text(path, json.dumps(model.to_dict(), separators=(",", ":"))
                      + "\n")
