"""Checks the outputs of one ``hafcp pipeline`` run against the benchmark's
own computations.

Nothing here imports ``hafcp``. From the input CSV and the config the checker
re-derives, by its own code:

- the seeded train/test split (``splitmix.shuffled_indices``);
- the baseline model's test AUC, by walking the trees in ``model.json`` and
  ranking with the Mann-Whitney statistic;
- each churned train row's L/M/H item per fuzzified column, as the argmax of
  the memberships in ``membership_specs.json`` with ties resolved L < M < H;
- the transaction database (profits from ``importance.csv``) and its exact
  top-k itemsets: by exhaustive enumeration over numpy tidset bitmaps where
  the item count allows, else by a depth-first search of its own (items in
  ascending transaction-weighted-utility order, remaining-utility bound).

Utilities are folded in the order the program documents (profits in sorted
item-name order per transaction, transactions in database order), so ties
between equal utilities order the same way as in the program.
``check_outputs`` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from splitmix import shuffled_indices

TERMS = ("L", "M", "H")
METRICS = ("auc", "accuracy", "recall", "precision", "f1")
# Largest item count the exhaustive enumeration takes on; above it the
# checker's own depth-first search is used.
EXHAUSTIVE_MAX_ITEMS = 16
REL_TOL = 1e-9


@dataclass
class Table:
    """The input CSV as the program should see it, after drop_columns."""

    features: list[str]
    numeric: dict[str, np.ndarray]
    categories: dict[str, list[str]]   # categorical column -> values in first-appearance order
    codes: dict[str, np.ndarray]
    label: np.ndarray

    def column(self, name: str) -> np.ndarray:
        if name in self.numeric:
            return self.numeric[name]
        return self.codes[name].astype(np.float64)


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def read_table(path: str, label_column: str, positive_label: str,
               drop: list[str]) -> Table:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    label = np.array([row[header.index(label_column)] == positive_label
                      for row in rows], dtype=np.int64)
    features, numeric, categories, codes = [], {}, {}, {}
    for j, name in enumerate(header):
        if name == label_column or name in drop:
            continue
        features.append(name)
        cells = [row[j] for row in rows]
        if all(_finite(c) for c in cells):
            numeric[name] = np.array([float(c) for c in cells], dtype=np.float64)
        else:
            seen: dict[str, int] = {}
            for c in cells:
                seen.setdefault(c, len(seen))
            categories[name] = list(seen)
            codes[name] = np.array([seen[c] for c in cells], dtype=np.int64)
    return Table(features, numeric, categories, codes, label)


def train_test_rows(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    perm = np.array(shuffled_indices(n, seed), dtype=np.int64)
    n_train = int(fraction * n)
    return perm[:n_train], perm[n_train:]


# --- model and AUC --------------------------------------------------------

def model_margins(model: dict, X: np.ndarray) -> np.ndarray:
    """base_score plus each tree's leaf weight, trees added in file order."""
    margin = np.full(len(X), float(model["base_score"]), dtype=np.float64)
    rows = np.arange(len(X))
    for tree in model["trees"]:
        feature = np.array(tree["feature"], dtype=np.int64)
        threshold = np.array(tree["threshold"], dtype=np.float64)
        left = np.array(tree["left"], dtype=np.int64)
        right = np.array(tree["right"], dtype=np.int64)
        node = np.zeros(len(X), dtype=np.int64)
        for _ in range(len(feature)):
            f = feature[node]
            inner = f >= 0
            if not inner.any():
                break
            x = X[rows, np.where(inner, f, 0)]
            nxt = np.where(x < threshold[node], left[node], right[node])
            node = np.where(inner, nxt, node)
        margin += np.array(tree["weight"], dtype=np.float64)[node]
    return margin


def logistic(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    e = np.exp(m[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def mann_whitney_auc(y: np.ndarray, score: np.ndarray) -> float:
    """P(score of a positive > score of a negative), ties counting one half."""
    _, inverse, counts = np.unique(score, return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    midrank = ends - (counts - 1) / 2.0
    ranks = midrank[inverse]
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    return (float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# --- fuzzy terms and the transaction database -----------------------------

def memberships(spec: dict, x: np.ndarray) -> np.ndarray:
    """(len(x), 3) membership degrees for L, M, H under one fitted spec."""
    out = np.empty((len(x), 3), dtype=np.float64)
    for t, key in enumerate(("low", "medium", "high")):
        params = [float(v) for v in spec[key]]
        if spec["family"] == "gaussian":
            center, width = params
            out[:, t] = [_gauss(v, center, width) for v in x.tolist()]
        else:
            a, b, c = params
            with np.errstate(divide="ignore", invalid="ignore"):
                rising = (x - a) / (b - a)
                falling = (c - x) / (c - b)
            out[:, t] = np.select(
                [(a == b) & (x <= b), (b == c) & (x >= b), (x <= a) | (x >= c),
                 x <= b],
                [1.0, 1.0, 0.0, rising], falling)
    return out


def _gauss(v: float, center: float, width: float) -> float:
    z = (v - center) / width
    return math.exp(-0.5 * z * z)


def assign_terms(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax over L, M, H; a later term wins only when strictly greater."""
    best = np.zeros(len(mu), dtype=np.int64)
    best_mu = mu[:, 0].copy()
    for t in (1, 2):
        better = mu[:, t] > best_mu
        best = np.where(better, t, best)
        best_mu = np.where(better, mu[:, t], best_mu)
    return best, best_mu


@dataclass
class MiningData:
    items: list[str]
    has: np.ndarray      # (transactions, items) bool
    qty: np.ndarray      # (transactions, items) quantity: 1 or membership degree
    profit: np.ndarray   # (items,)
    binary: bool


def build_database(table: Table, train: np.ndarray, specs: list[dict],
                   scores: dict[str, float], binary: bool) -> MiningData:
    churned = train[table.label[train] == 1]
    names, cols, qtys, profits = [], [], [], []
    for name in table.features:
        if name in table.categories:
            codes = table.codes[name][churned]
            for code, value in enumerate(table.categories[name]):
                hit = codes == code
                names.append(f"{name}={value}")
                cols.append(hit)
                qtys.append(hit.astype(np.float64))
                profits.append(scores[name])
    for spec in specs:
        x = table.numeric[spec["column"]][churned]
        term, degree = assign_terms(memberships(spec, x))
        for t, suffix in enumerate(TERMS):
            hit = term == t
            names.append(f"{spec['column']}_{suffix}")
            cols.append(hit)
            qtys.append(np.where(hit, degree, 0.0))
            profits.append(scores[spec["column"]])
    has = np.column_stack(cols)
    qty = np.column_stack(qtys)
    profit = np.array(profits, dtype=np.float64)
    keep = (has.sum(axis=0) > 0) & (profit > 0)
    has, qty, profit = has[:, keep], qty[:, keep], profit[keep]
    items = [n for n, k in zip(names, keep) if k]
    nonempty = has.any(axis=1)
    has, qty = has[nonempty], qty[nonempty]
    if binary:
        qty = has.astype(np.float64)
    return MiningData(items, has, qty, profit, binary)


# --- top-k search ---------------------------------------------------------

def canonical_utility(data: MiningData, idx, tids: np.ndarray) -> float:
    """Profits folded in sorted item-name order, transactions in database order."""
    ordered = sorted(idx, key=lambda i: data.items[i])
    if data.binary:
        total = 0.0
        for i in ordered:
            total += float(data.profit[i])
        return len(tids) * total
    per = np.zeros(len(tids), dtype=np.float64)
    for i in ordered:
        per = per + data.qty[tids, i] * data.profit[i]
    return float(np.cumsum(per)[-1])


def _pattern(data: MiningData, idx, tids: np.ndarray) -> tuple:
    names = tuple(sorted(data.items[i] for i in idx))
    return (names, canonical_utility(data, idx, tids), len(tids))


def _key(p: tuple) -> tuple:
    return (-p[1], len(p[0]), p[0])


def exhaustive_topk(data: MiningData, k: int, min_len: int,
                    max_len: int | None) -> list[tuple]:
    """Every itemset with a nonempty tidset, enumerated level by level."""
    n = len(data.items)
    max_len = min(max_len or n, n)
    bits = np.packbits(data.has, axis=0)          # (bytes, items)
    found = []
    level = [((i,), bits[:, i]) for i in range(n)]
    size = 1
    while level and size <= max_len:
        for idx, mask in level:
            if size >= min_len:
                tids = np.nonzero(np.unpackbits(mask)[:len(data.has)])[0]
                found.append(_pattern(data, idx, tids))
        nxt = []
        for idx, mask in level:
            for j in range(idx[-1] + 1, n):
                both = mask & bits[:, j]
                if both.any():
                    nxt.append((idx + (j,), both))
        level = nxt
        size += 1
    found.sort(key=_key)
    return found[:k]


def search_topk(data: MiningData, k: int, min_len: int,
                max_len: int | None) -> list[tuple]:
    """Exact depth-first search with items in ascending TWU order.

    A prefix's bound is the sum, over its transactions, of the prefix's
    utility there plus the utility of the transaction's items later in the
    order; no extension of the prefix can exceed it.
    """
    n = len(data.items)
    max_len = min(max_len or n, n)
    unit = data.qty * data.profit                 # (transactions, items)
    twu = (data.has * unit.sum(axis=1, keepdims=True)).sum(axis=0)
    order = np.lexsort((np.arange(n), twu))
    has = data.has[:, order]
    unit = unit[:, order]
    rest = np.cumsum(unit[:, ::-1], axis=1)[:, ::-1] - unit  # after each rank
    pool: list[tuple] = []

    def theta() -> float:
        return pool[k - 1][1] if len(pool) >= k else -math.inf

    def offer(p: tuple) -> None:
        pool.append(p)
        pool.sort(key=_key)
        del pool[k:]

    def extend(prefix: tuple, tids: np.ndarray, u_t: np.ndarray, last: int) -> None:
        sub = has[np.ix_(tids, np.arange(last + 1, n))]
        if sub.size == 0:
            return
        gain = u_t[:, None] + unit[np.ix_(tids, np.arange(last + 1, n))]
        utils = (sub * gain).sum(axis=0)
        bounds = utils + (sub * rest[np.ix_(tids, np.arange(last + 1, n))]).sum(axis=0)
        for c in np.nonzero(sub.any(axis=0))[0]:
            r = last + 1 + int(c)
            new_prefix = prefix + (r,)
            floor = theta()
            slack = REL_TOL * max(1.0, abs(floor)) if floor > -math.inf else 0.0
            in_rows = sub[:, c]
            if len(new_prefix) >= min_len and utils[c] >= floor - slack:
                offer(_pattern(data, [int(order[i]) for i in new_prefix],
                               tids[in_rows]))
                floor = theta()
                slack = REL_TOL * max(1.0, abs(floor)) if floor > -math.inf else 0.0
            if len(new_prefix) < max_len and bounds[c] >= floor - slack:
                extend(new_prefix, tids[in_rows], gain[in_rows, c], r)

    extend((), np.arange(len(has)), np.zeros(len(has)), -1)
    return pool


def expected_topk(data: MiningData, k: int, min_len: int,
                  max_len: int | None) -> list[tuple]:
    if len(data.items) <= EXHAUSTIVE_MAX_ITEMS:
        return exhaustive_topk(data, k, min_len, max_len)
    return search_topk(data, k, min_len, max_len)


# --- artifacts ------------------------------------------------------------

def _json(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def read_importance(path: str) -> dict[str, float]:
    scores = {}
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.reader(f):
            if not row or row[0].startswith("#") or row == ["feature", "score"]:
                continue
            scores[row[0]] = float(row[1])
    return scores


def read_patterns(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as f:
        docs = [json.loads(line) for line in f if line.strip()]
    return [(tuple(d["items"]), float(d["utility"]), int(d["support"]))
            for d in docs]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def compare_patterns(got: list[tuple], want: list[tuple]) -> list[str]:
    problems = []
    if len(got) != len(want):
        problems.append(f"{len(got)} patterns reported, {len(want)} expected")
    for rank, (g, w) in enumerate(zip(got, want), start=1):
        if g[0] != w[0] or g[2] != w[2] or not _close(g[1], w[1]):
            problems.append(f"top-{rank}: reported {g}, expected {w}")
    return problems


def check_report(report: dict, baseline: dict, patterns: list[tuple]) -> list[str]:
    problems = []
    ranks = sorted(int(i) for i in report["per_pattern"])
    if ranks != list(range(1, len(patterns) + 1)):
        problems.append(f"report rows {ranks} do not match {len(patterns)} patterns")
    for name in METRICS:
        rows = [float(report["per_pattern"][str(i)][name]) for i in ranks]
        mean = sum(rows) / len(rows) if rows else math.nan
        if not _close(float(report["average"][name]), mean):
            problems.append(f"AVG {name} {report['average'][name]} is not the "
                            f"mean {mean} of the Top-i rows")
        if float(report["baseline"][name]) != float(baseline[name]):
            problems.append(f"report baseline {name} differs from "
                            f"metrics_baseline.json")
    listed = [(tuple(p["items"]), float(p["utility"]), int(p["support"]))
              for p in report.get("patterns", [])]
    if listed != patterns:
        problems.append("report patterns differ from patterns.jsonl")
    return problems


def check_outputs(work_dir: str, rule_items: tuple[str, ...] = (),
                  rule_needs_all: bool = True) -> list[str]:
    """Problems found in ``work_dir``'s outputs; empty when they are correct."""
    cfg = _json(os.path.join(work_dir, "config.json"))
    out = os.path.join(work_dir, cfg["output_dir"])
    split = cfg.get("split", {})
    mining = {"k": 5, "min_length": 2, "max_length": None, "mode": "binary"}
    mining.update(cfg.get("mining", {}))
    problems: list[str] = []

    table = read_table(os.path.join(work_dir, cfg["input"]), cfg["label_column"],
                       cfg["positive_label"], cfg.get("drop_columns", []))
    train, test = train_test_rows(len(table.label), split.get("fraction", 0.8),
                                  split.get("seed", 0))

    model = _json(os.path.join(out, "model.json"))
    baseline = _json(os.path.join(out, "metrics_baseline.json"))["metrics"]
    if model["feature_names"] != table.features:
        problems.append(f"model features {model['feature_names']} != "
                        f"input features {table.features}")
    else:
        X = np.column_stack([table.column(n)[test] for n in table.features])
        auc = mann_whitney_auc(table.label[test],
                               logistic(model_margins(model, X)))
        if not _close(auc, float(baseline["auc"])):
            problems.append(f"baseline AUC {baseline['auc']} != {auc} "
                            f"recomputed from model.json")

    scores = read_importance(os.path.join(out, "importance.csv"))
    spec_doc = _json(os.path.join(out, "membership_specs.json"))
    specs = spec_doc["specs"]
    skipped = [n for n in table.features
               if n in table.numeric and scores.get(n, 0.0) == 0.0]
    if spec_doc["skipped_zero_importance"] != skipped:
        problems.append(f"skipped columns {spec_doc['skipped_zero_importance']} "
                        f"!= zero-importance numerics {skipped}")
    fuzzified = [n for n in table.features if n in table.numeric and n not in skipped]
    if [s["column"] for s in specs] != fuzzified:
        problems.append(f"specs cover {[s['column'] for s in specs]}, "
                        f"expected {fuzzified}")
        return problems

    binary = mining["mode"] == "binary"
    data = build_database(table, train, specs, scores, binary)
    patterns = read_patterns(os.path.join(out, "patterns.jsonl"))
    want = expected_topk(data, int(mining["k"]), int(mining["min_length"]),
                         mining["max_length"])
    problems += compare_patterns(patterns, want)

    meta = _json(os.path.join(out, "patterns.meta.json"))
    counts = {"n_items": len(data.items), "n_transactions": len(data.has),
              "n_patterns": len(want), "k": int(mining["k"]),
              "mode": mining["mode"]}
    for key, value in counts.items():
        if meta.get(key) != value:
            problems.append(f"patterns.meta.json {key} = {meta.get(key)}, "
                            f"expected {value}")

    report = _json(os.path.join(out, "report.json"))
    problems += check_report(report, baseline, patterns)

    if rule_items and patterns:
        top1 = set(patterns[0][0])
        hit = (all(i in top1 for i in rule_items) if rule_needs_all
               else any(i in top1 for i in rule_items))
        if not hit:
            problems.append(f"top-1 pattern {sorted(top1)} misses the planted "
                            f"rule items {list(rule_items)}")
    return problems
