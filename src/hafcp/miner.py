"""Top-k high-utility itemset mining over churn-filtered transactions.

A transaction is a churned row's set of items (one-hot categorical values and
fuzzy L/M/H terms). Each item carries a unit profit — its source column's
feature importance — and a quantity: 1 in binary mode, the membership degree
in membership mode. The utility of an itemset P is

    u(P) = sum over transactions containing P of
           sum over items of P of quantity * profit

and the miner returns the exact k itemsets of highest utility (ties broken by
smaller cardinality, then lexicographic item names).

The database is vertical: a transactions × items presence matrix and a
quantity matrix, taken straight from the frame's churned rows. The exact
search is depth-first over prefixes in ascending transaction-weighted-utility
(TWU) item order, ties by item index (EFIM, Zida et al. 2015). It works on
one stack of three transactions × items tables in search order: presence,
contribution (quantity * profit) and reach (the contribution plus the utility
of the transaction's later items). Each search node holds its transaction
ids, the prefix's utility in each of them, and the scores of its extensions
by every later item: support, utility, and the remaining-utility upper bound

    bound(P+j) = sum over t in T(P+j) of [u(P+j, t) + utility of t's items
                 after j in the search order].

Supersets of P+j only lose transactions and can only add items from that
remainder, so no extension can exceed the bound and the subtree is skipped
when the bound falls below the current k-th utility. Before the search that
threshold is floored at the k-th best utility among the pairs whenever pairs
are admissible (TKO, Tseng et al. 2016), so pruning bites from the first
node; call the floored threshold the level.

A node that keeps some children gathers its transactions' rows of the stack
once and scores every child's own extensions in two matrix products: the
children's transaction masks times the stack, and the children's prefix
utilities times presence. It then walks the children in order. A child none
of whose extensions can be offered or grown at the current level is a dead
end and is not visited: it counts as one expanded node, and its extensions
with support count as bound prunes when it could grow, as a visit would have
counted them. The level only rises, so a dead end stays dead. A beam variant
(top-k frontier expansion, approximate) is available behind algorithm="beam".

Recorded utilities are always recomputed in a canonical order (item names
sorted, transactions in database order) so every search and the brute-force
oracle in the tests agree bit-for-bit and output is independent of item
insertion order. The batched scores only decide what is offered and
what is pruned, so their summation order does not reach the output.
"""

from __future__ import annotations

import io
import json
from bisect import insort
from dataclasses import dataclass

import numpy as np

from ._util import json_field
from .errors import (
    ConfigError,
    EmptyDatabase,
    MissingImportance,
    NoChurnRows,
    ParseError,
    UnknownItem,
)
from .fuzzify import BinaryFrame
from .gbdt import ImportanceTable

BINARY = "binary"
MEMBERSHIP = "membership"


@dataclass(frozen=True)
class Pattern:
    items: tuple[str, ...]  # sorted item names
    utility: float
    support: int

    def sort_key(self):
        return (-self.utility, len(self.items), self.items)

    def to_dict(self) -> dict:
        return {"items": list(self.items), "utility": self.utility,
                "support": self.support}

    @classmethod
    def from_dict(cls, d, what: str = "pattern") -> "Pattern":
        """The pattern of a parsed JSON object, else ParseError naming what.

        items must be a non-empty list of strings, utility a finite number
        and support an integer >= 1.
        """
        items = json_field(d, "items", list, what)
        if not items or not all(isinstance(i, str) for i in items):
            raise ParseError(f"{what} key 'items' must be a non-empty list "
                             f"of strings, got {json.dumps(items)}")
        support = json_field(d, "support", int, what)
        if support < 1:
            raise ParseError(f"{what} key 'support' must be >= 1, "
                             f"got {support}")
        return cls(items=tuple(items),
                   utility=json_field(d, "utility", float, what),
                   support=support)


@dataclass(eq=False)
class TransactionDB:
    """Churn-only transactions in a vertical layout.

    present[t, i] says transaction t holds item i; quantity[t, i] is its
    quantity there (1.0 in binary mode, the membership degree in membership
    mode). Both matrices have one row per transaction and one column per
    item, in the order of items.
    """

    items: list[str]
    present: np.ndarray
    quantity: np.ndarray
    mode: str

    def __post_init__(self):
        self.present = np.asarray(self.present, dtype=bool)
        self.quantity = np.asarray(self.quantity, dtype=np.float64)
        if (self.present.ndim != 2 or self.present.shape[1] != len(self.items)
                or self.quantity.shape != self.present.shape):
            raise ValueError(
                f"presence {self.present.shape} and quantity "
                f"{self.quantity.shape} must both be transactions x "
                f"{len(self.items)} items")

    @property
    def transactions(self) -> np.ndarray:
        """`present`, kept only for bench/trace_pipeline._build_counts until
        ROADMAP item 2 deletes that; the library reads `present`."""
        return self.present


@dataclass(frozen=True)
class MiningConfig:
    k: int = 5
    min_length: int = 2
    max_length: int | None = None
    mode: str = BINARY
    algorithm: str = "exact"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"mining k must be >= 1, got {self.k}")
        if self.min_length < 1:
            raise ConfigError(
                f"min_length must be >= 1, got {self.min_length}")
        if self.max_length is not None and self.max_length < self.min_length:
            raise ConfigError("max_length must be >= min_length")
        if self.mode not in (BINARY, MEMBERSHIP):
            raise ConfigError(f"unknown mining mode {self.mode!r}")
        if self.algorithm not in ("exact", "beam"):
            raise ConfigError(f"unknown mining algorithm {self.algorithm!r}")


@dataclass
class SearchStats:
    """Work counts of one search; deterministic for fixed inputs.

    nodes_expanded: prefixes whose extensions were scored. bound_prunes:
    extensions with support whose subtree the bound ruled out. pool_offers:
    itemsets offered to the top-k pool with their canonical utility.
    """

    nodes_expanded: int = 0
    bound_prunes: int = 0
    pool_offers: int = 0

    def to_dict(self) -> dict:
        return {"nodes_expanded": self.nodes_expanded,
                "bound_prunes": self.bound_prunes,
                "pool_offers": self.pool_offers}


def build_transactions(frame: BinaryFrame, labels, profits_src: ImportanceTable,
                       mode: str = BINARY
                       ) -> tuple[TransactionDB, dict[str, float]]:
    """Filter churned rows and assemble the transaction database + profits.

    Each item inherits its parent column's importance score as unit profit.
    Items with zero support among churned rows are dropped, as are items
    whose profit is zero; rows left with no items are dropped too.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != frame.n_rows:
        raise ValueError("labels do not align with frame rows")
    for src in frame.item_sources:
        if src not in profits_src.scores:
            raise MissingImportance(src)
    churned = labels == 1
    if not churned.any():
        raise NoChurnRows("no churned rows to mine")

    present = frame.rows[churned] != 0
    item_profit = np.array([profits_src.scores[src] for src in frame.item_sources],
                           dtype=np.float64)
    keep = np.nonzero(present.any(axis=0) & (item_profit > 0))[0]
    present = present[:, keep]
    nonempty = present.any(axis=1)
    present = present[nonempty]
    if mode == MEMBERSHIP:
        mems = frame.memberships[churned][nonempty][:, keep]
        quantity = np.where(present, mems, 0.0)
    else:
        quantity = present.astype(np.float64)

    items = [frame.item_names[j] for j in keep]
    profits = {frame.item_names[j]: float(item_profit[j]) for j in keep}
    db = TransactionDB(items=items, present=present, quantity=quantity,
                       mode=mode)
    return db, profits


def _canonical_utility(db: TransactionDB, pt: dict[str, float],
                       names_sorted: list[str], idxs: list[int],
                       tids) -> float:
    """The one utility computation every code path shares.

    Folds profits in sorted-item-name order, transactions in database order,
    so equal itemsets get bit-equal utilities everywhere.
    """
    if db.mode == BINARY:
        total = 0.0
        for name in names_sorted:
            total += pt[name]
        return len(tids) * total
    if len(tids) == 0:
        return 0.0
    tids = np.asarray(tids)
    per = db.quantity[tids, idxs[0]] * pt[names_sorted[0]]
    for name, idx in zip(names_sorted[1:], idxs[1:]):
        per = per + db.quantity[tids, idx] * pt[name]
    # add.accumulate is a strict left-to-right fold, unlike the pairwise sum
    return float(np.add.accumulate(per)[-1])


def _itemset_utility(db: TransactionDB, pt: dict[str, float], idxs,
                     tids) -> Pattern:
    """The canonical Pattern of the itemset with item indices idxs."""
    idxs = sorted(idxs, key=db.items.__getitem__)
    names = [db.items[i] for i in idxs]
    u = _canonical_utility(db, pt, names, idxs, tids)
    return Pattern(items=tuple(names), utility=u, support=len(tids))


class _TopK:
    """Sorted candidate pool trimmed to k; tracks the k-th utility threshold."""

    def __init__(self, k: int, stats: SearchStats):
        self.k = k
        self.stats = stats
        self.entries: list[tuple[tuple, Pattern]] = []

    def offer(self, pattern: Pattern) -> None:
        self.stats.pool_offers += 1
        insort(self.entries, (pattern.sort_key(), pattern))
        if len(self.entries) > self.k:
            self.entries.pop()

    def threshold(self) -> float:
        if len(self.entries) < self.k:
            return float("-inf")
        return self.entries[self.k - 1][1].utility

    def result(self) -> list[Pattern]:
        return [p for _, p in self.entries]


def _prune_below(theta: float) -> float:
    """Values below this cannot reach theta, with slack for summation order."""
    if theta == float("-inf"):
        return theta
    return theta - 1e-9 * max(1.0, abs(theta))


def _contributions(db: TransactionDB, pt: dict[str, float]) -> np.ndarray:
    """quantity * profit per transaction and item; 0 where the item is absent."""
    profit = np.empty(len(db.items))
    for i, name in enumerate(db.items):
        if name not in pt:
            raise UnknownItem(f"item {name!r} has no profit entry")
        profit[i] = pt[name]
    return np.where(db.present, db.quantity * profit, 0.0)


def _twu_order(present: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Item indices by ascending transaction-weighted utility, ties by index."""
    twu = contrib.sum(axis=1) @ present
    return np.argsort(twu, kind="stable")


def _stack(present: np.ndarray, contrib: np.ndarray,
           order: np.ndarray) -> np.ndarray:
    """The search's one per-(transaction, item) table, items in search order.

    stack[t, 0, p] is 1.0 where transaction t holds the item at search
    position p, else 0.0; stack[t, 1, p] is its contribution and
    stack[t, 2, p] its reach: the contribution plus the utility of t's items
    after p, 0 where t lacks the item. A transaction's three tables lie side
    by side, so one gather of its row serves all three.
    """
    stack = np.empty((len(present), 3, len(order)))
    stack[:, 0] = present[:, order]
    stack[:, 1] = contrib[:, order]
    reach = stack[:, 2]
    np.cumsum(stack[:, 1, :0:-1], axis=1, out=reach[:, -2::-1])
    reach[:, -1] = 0.0
    reach += stack[:, 1]
    reach *= stack[:, 0]
    return stack


def _score_children(stack: np.ndarray, tids: np.ndarray,
                    tid_utils: np.ndarray, start: int, kids: np.ndarray):
    """Score the extensions of a node's children in two matrix products.

    The node holds transactions tids, with the prefix's utility tid_utils in
    each; kids are its children's offsets from search position start. Child
    masks times the node's rows of the stack give each child's support,
    summed contribution and summed reach per item; child prefix utilities
    times presence give the prefix part of its utilities and bounds. Returns
    each child's transaction mask over tids and its support, utility and
    bound for every item from start on.
    """
    block = stack if len(tids) == len(stack) else stack.take(tids, axis=0)
    later = block[:, :, start:]
    masks = later[:, 0][:, kids]
    kid_utils = later[:, 1][:, kids]
    kid_utils += tid_utils[:, None]
    kid_utils *= masks
    sums = masks.T @ later.transpose(1, 0, 2)
    base = kid_utils.T @ later[:, 0]
    return masks.T > 0, sums[0], base + sums[1], base + sums[2]


def _pair_floor(db: TransactionDB, pt: dict[str, float], contrib: np.ndarray,
                k: int) -> float:
    """A utility that at least k pairs reach, or -inf with fewer than k pairs.

    Scores every pair in one product, then takes the canonical utility of the
    k best, so the floor never exceeds the true k-th best pair utility.
    """
    n_items = len(db.items)
    upper = np.triu_indices(n_items, 1)
    present = db.present.astype(np.float64)
    support = (present.T @ present)[upper]
    scored = present.T @ contrib
    scored = (scored + scored.T)[upper]
    candidates = np.nonzero(support > 0)[0]
    if len(candidates) < k:
        return float("-inf")
    best = candidates[np.argsort(-scored[candidates], kind="stable")[:k]]
    floor = float("inf")
    for a, b in zip(upper[0][best], upper[1][best]):
        tids = np.nonzero(db.present[:, a] & db.present[:, b])[0]
        floor = min(floor, _itemset_utility(db, pt, (a, b), tids).utility)
    return floor


def mine_topk(db: TransactionDB, pt: dict[str, float], cfg: MiningConfig,
              stats: SearchStats | None = None) -> list[Pattern]:
    """Exact top-k patterns (or the beam approximation when configured).

    When given, stats receives the search's work counts.
    """
    if cfg.mode != db.mode:
        raise ConfigError(
            f"config mode {cfg.mode!r} != database mode {db.mode!r}")
    if len(db.present) == 0 or not db.items:
        raise EmptyDatabase("transaction database is empty")
    if stats is None:
        stats = SearchStats()
    if cfg.algorithm == "beam":
        return _beam_topk(db, pt, cfg, stats)

    n_items = len(db.items)
    max_len = min(cfg.max_length or n_items, n_items)
    if cfg.min_length > n_items:
        return []
    contrib = _contributions(db, pt)
    floor = (_pair_floor(db, pt, contrib, cfg.k)
             if cfg.min_length <= 2 <= max_len else float("-inf"))
    order = _twu_order(db.present, contrib)
    stack = _stack(db.present, contrib, order)
    del contrib
    pool = _TopK(cfg.k, stats)
    level = _prune_below(floor)  # rises with the pool's k-th utility

    def offer(pattern: Pattern) -> None:
        nonlocal level
        pool.offer(pattern)
        level = _prune_below(max(pool.threshold(), floor))

    def expand(prefix: tuple[int, ...], tids: np.ndarray,
               tid_utils: np.ndarray, support: np.ndarray,
               utils: np.ndarray, bounds: np.ndarray) -> None:
        """Offer prefix's extensions, then score the children and recurse.

        support, utils and bounds score the extension of prefix by each
        item from search position prefix[-1] + 1 on.
        """
        stats.nodes_expanded += 1
        start = prefix[-1] + 1 if prefix else 0
        length = len(prefix) + 1
        if length >= cfg.min_length:
            for off in np.nonzero((support > 0) & (utils >= level))[0]:
                if utils[off] >= level:  # the pool may have risen since
                    items = order[list(prefix) + [start + off]]
                    child_tids = tids[stack[tids, 0, start + off] > 0]
                    offer(_itemset_utility(db, pt, items, child_tids))
        if length >= max_len:
            return
        growable = support > 0
        kids = np.nonzero(growable & (bounds >= level))[0]
        stats.bound_prunes += int(growable.sum()) - len(kids)
        if not len(kids):
            return

        members, kid_support, kid_scores, kid_bounds = _score_children(
            stack, tids, tid_utils, start, kids)

        # A child is a dead end when no later item with support gives it an
        # extension whose utility (if offerable) or bound (if growable)
        # reaches the level. A visit would only count it and its growable
        # extensions, so the walk counts them instead.
        offers = length + 1 >= cfg.min_length
        grows = length + 1 < max_len
        open_ = ((np.arange(len(support)) > kids[:, None])
                 & (kid_support > 0))
        if offers and grows:
            score = np.maximum(kid_scores, kid_bounds)
        else:
            score = kid_bounds if grows else kid_scores
        best = np.where(open_, score, -np.inf).max(axis=1).tolist()
        prunes = (np.count_nonzero(open_, axis=1).tolist() if grows
                  else [0] * len(kids))

        for i, (off, bound) in enumerate(zip(kids.tolist(),
                                             bounds[kids].tolist())):
            if bound < level:
                stats.bound_prunes += 1
            elif best[i] < level:
                stats.nodes_expanded += 1
                stats.bound_prunes += prunes[i]
            else:
                child = tids[members[i]]
                rest = slice(off + 1, None)
                expand(prefix + (start + off,), child,
                       tid_utils[members[i]] + stack[child, 1, start + off],
                       kid_support[i, rest], kid_scores[i, rest],
                       kid_bounds[i, rest])

    n_txn = len(stack)
    totals = stack.sum(axis=0)
    expand((), np.arange(n_txn), np.zeros(n_txn), totals[0], totals[1],
           totals[2])
    # expand's closure holds expand; left alone, that cycle would keep stack
    # and db alive until the next garbage collection
    del expand
    return pool.result()


def _beam_topk(db: TransactionDB, pt: dict[str, float], cfg: MiningConfig,
               stats: SearchStats) -> list[Pattern]:
    """Appendix-style approximate search: keep only the top-k prefixes per level."""
    n_items = len(db.items)
    max_len = min(cfg.max_length or n_items, n_items)
    pool = _TopK(cfg.k, stats)
    _contributions(db, pt)  # every item needs a profit

    frontier: list[tuple[tuple, tuple[int, ...], np.ndarray]] = []
    for j in range(n_items):
        tids = np.nonzero(db.present[:, j])[0]
        if not len(tids):
            continue
        p = _itemset_utility(db, pt, (j,), tids)
        if cfg.min_length <= 1:
            pool.offer(p)
        frontier.append((p.sort_key(), (j,), tids))

    depth = 1
    while frontier and depth < max_len:
        frontier.sort(key=lambda e: e[0])
        frontier = frontier[:cfg.k]
        nxt: list[tuple[tuple, tuple[int, ...], np.ndarray]] = []
        for _, prefix, tids in frontier:
            stats.nodes_expanded += 1
            for j in range(prefix[-1] + 1, n_items):
                new_tids = tids[db.present[tids, j]]
                if not len(new_tids):
                    continue
                new_prefix = prefix + (j,)
                p = _itemset_utility(db, pt, new_prefix, new_tids)
                if len(new_prefix) >= cfg.min_length:
                    pool.offer(p)
                nxt.append((p.sort_key(), new_prefix, new_tids))
        frontier = nxt
        depth += 1
    return pool.result()


def patterns_text(patterns: list[Pattern]) -> str:
    """JSON lines, one pattern per line: {"items": [...], "utility": u,
    "support": s}."""
    lines = [json.dumps(p.to_dict(), ensure_ascii=False) for p in patterns]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_patterns(text: str, path: str) -> list[Pattern]:
    """The patterns of a patterns_text text; a ParseError names path:line."""
    patterns = []
    for lineno, line in enumerate(io.StringIO(text, newline="")):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno + 1}:"
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{where} {e}") from None
        patterns.append(Pattern.from_dict(doc, where))
    return patterns


def render_patterns_table(patterns: list[Pattern]) -> str:
    """Fixed-width text table of the top-k patterns by utility."""
    header = f"Top-{len(patterns)} patterns by utility"
    rows = [["Rank", "Pattern", "Utility", "Support"]]
    for rank, p in enumerate(patterns, start=1):
        rows.append([str(rank), "{" + ", ".join(p.items) + "}",
                     f"{p.utility:.4f}", str(p.support)])
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    lines = [header, ""]
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(4)).rstrip())
    return "\n".join(lines) + "\n"
