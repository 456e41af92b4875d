"""Test oracles for `hafcp.miner`.

`mine_topk_reference` is the per-node exact top-k search: the depth-first
search in which every expanded node gathers its own transactions and scores
its own extensions. It visits every admitted child, dead ends included.
`hafcp.miner.mine_topk` scores all of a node's children in two matrix
products and skips the dead-end ones; it must return the same patterns and
the same `SearchStats`.

`brute_force_topk` enumerates every itemset, `utility` scores one itemset by
a full scan of the database, and `search_order` is the item order the exact
search extends prefixes in.
"""

from itertools import combinations

import numpy as np

from hafcp.errors import ConfigError, EmptyDatabase, HafcpError, UnknownItem
from hafcp.miner import (
    _canonical_utility,
    _contributions,
    _itemset_utility,
    _pair_floor,
    _prune_below,
    _TopK,
    _twu_order,
    MiningConfig,
    Pattern,
    SearchStats,
    TransactionDB,
)


class TooManyItemsForOracle(HafcpError):
    pass


def brute_force_topk(db: TransactionDB, pt: dict[str, float],
                     cfg: MiningConfig) -> list[Pattern]:
    """Exhaustive enumeration oracle with the same sort and tie rules."""
    if len(db.items) > 20:
        raise TooManyItemsForOracle(
            f"{len(db.items)} items; the oracle enumerates at most 2^20 itemsets")
    if cfg.mode != db.mode:
        raise ConfigError(
            f"config mode {cfg.mode!r} != database mode {db.mode!r}")
    if len(db.transactions) == 0 or not db.items:
        raise EmptyDatabase("transaction database is empty")

    n_items = len(db.items)
    tidsets = [set(np.nonzero(db.present[:, i])[0].tolist())
               for i in range(n_items)]

    found: list[tuple[tuple, Pattern]] = []
    max_len = min(cfg.max_length or n_items, n_items)
    for size in range(cfg.min_length, max_len + 1):
        for combo in combinations(range(n_items), size):
            tids = set(tidsets[combo[0]])
            for i in combo[1:]:
                tids &= tidsets[i]
                if not tids:
                    break
            if not tids:
                continue
            p = _itemset_utility(db, pt, combo, sorted(tids))
            found.append((p.sort_key(), p))
    found.sort(key=lambda e: e[0])
    return [p for _, p in found[:cfg.k]]


def index_of(db: TransactionDB, name: str) -> int:
    """The column of item `name` in db."""
    try:
        return db.items.index(name)
    except ValueError:
        raise UnknownItem(f"item {name!r} not in database") from None


def utility(db: TransactionDB, pt: dict[str, float],
            items) -> tuple[float, int]:
    """Utility and support of an itemset, by definition (full database scan)."""
    names_sorted = sorted(set(items))
    if not names_sorted:
        raise UnknownItem("empty itemset")
    idxs = [index_of(db, n) for n in names_sorted]
    for n in names_sorted:
        if n not in pt:
            raise UnknownItem(f"item {n!r} has no profit entry")
    tids = np.nonzero(db.present[:, idxs].all(axis=1))[0]
    return _canonical_utility(db, pt, names_sorted, idxs, tids), len(tids)


def search_order(db: TransactionDB, pt: dict[str, float]) -> list[int]:
    """The item indices in the order the exact search extends prefixes."""
    return _twu_order(db.present, _contributions(db, pt)).tolist()


def _remaining(contrib: np.ndarray) -> np.ndarray:
    """rest[t, p]: utility of transaction t's items after position p."""
    rest = np.zeros_like(contrib)
    rest[:, :-1] = np.cumsum(contrib[:, :0:-1], axis=1)[:, ::-1]
    return rest


def mine_topk_reference(db: TransactionDB, pt: dict[str, float],
                        cfg: MiningConfig, stats: SearchStats):
    """Exact top-k patterns with one batch of array operations per node."""
    n_items = len(db.items)
    max_len = min(cfg.max_length or n_items, n_items)
    if cfg.min_length > n_items:
        return []
    contrib = _contributions(db, pt)
    floor = (_pair_floor(db, pt, contrib, cfg.k)
             if cfg.min_length <= 2 <= max_len else float("-inf"))
    order = _twu_order(db.present, contrib)
    presence = db.present[:, order].astype(np.float64)
    contrib = contrib[:, order]
    reach = np.where(presence > 0, contrib + _remaining(contrib), 0.0)
    pool = _TopK(cfg.k, stats)

    def level() -> float:
        return _prune_below(max(pool.threshold(), floor))

    def expand(prefix: tuple[int, ...], tids: np.ndarray,
               tid_utils: np.ndarray) -> None:
        """Score every extension of prefix by a later item, then recurse."""
        stats.nodes_expanded += 1
        start = prefix[-1] + 1 if prefix else 0
        pres = presence[tids, start:]
        util = contrib[tids, start:]
        base = tid_utils @ pres
        support = pres.sum(axis=0)
        utils = base + util.sum(axis=0)
        bounds = base + reach[tids, start:].sum(axis=0)
        length = len(prefix) + 1

        if length >= cfg.min_length:
            for off in np.nonzero((support > 0) & (utils >= level()))[0]:
                if utils[off] >= level():  # the pool may have risen since
                    items = order[list(prefix) + [start + off]]
                    child_tids = tids[pres[:, off] > 0]
                    pool.offer(_itemset_utility(db, pt, items, child_tids))
        if length >= max_len:
            return
        growable = support > 0
        candidates = np.nonzero(growable & (bounds >= level()))[0]
        stats.bound_prunes += int(growable.sum()) - len(candidates)
        for off in candidates:
            if bounds[off] < level():
                stats.bound_prunes += 1
                continue
            mask = pres[:, off] > 0
            expand(prefix + (start + off,), tids[mask],
                   tid_utils[mask] + util[mask, off])

    n_txn = len(db.transactions)
    expand((), np.arange(n_txn), np.zeros(n_txn))
    return pool.result()
