import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hafcp import miner
from hafcp.errors import (
    ConfigError,
    EmptyDatabase,
    MissingImportance,
    NoChurnRows,
    ParseError,
    UnknownItem,
)
from hafcp.fuzzify import BinaryFrame
from hafcp.gbdt import ImportanceTable
from hafcp.miner import (
    BINARY,
    MEMBERSHIP,
    MiningConfig,
    Pattern,
    SearchStats,
    build_transactions,
    mine_topk,
    parse_patterns,
    render_patterns_table,
    write_patterns,
)

from conftest import TINY_PROFITS, build_tiny_frame
from miner_reference import (
    TooManyItemsForOracle,
    _remaining,
    brute_force_topk,
    index_of,
    mine_topk_reference,
    search_order,
    utility,
)
from synthdata import db_from_dicts, random_db, structured_db

# Expected top-5 for the ten-row fixture (binary mode, k=5, min_length=2),
# worked out by enumerating the six churned rows by hand and folding profits
# in sorted-item-name order. The two utility-2.0 triples tie and order
# lexicographically ("Age_H" < "Age_L").
TINY_TOP5 = [
    (("Age_L", "Spend_M"), 2.4000000000000004, 3),
    (("Age_H", "SL_N", "Spend_L"), 2.0, 2),
    (("Age_L", "SL_N", "Spend_M"), 2.0, 2),
    (("Age_H", "Spend_L"), 1.6, 2),
    (("SL_N", "Spend_M"), 1.5, 3),
]


def tiny_db(mode=BINARY):
    frame, labels = build_tiny_frame()
    table = ImportanceTable(method="external", scores=dict(TINY_PROFITS))
    return build_transactions(frame, labels, table, mode=mode)


class TestBuildTransactions:
    def test_unsupported_items_dropped(self):
        db, pt = tiny_db()
        # SL_C and Spend_H never occur in a churned row
        assert set(db.items) == {"SL_N", "SL_S", "Age_L", "Age_M", "Age_H",
                                 "Spend_L", "Spend_M"}
        assert "SL_C" not in pt and "Spend_H" not in pt

    def test_six_churned_transactions(self):
        db, _ = tiny_db()
        assert len(db.transactions) == 6
        assert (db.quantity[db.present] == 1.0).all()
        assert (db.quantity[~db.present] == 0.0).all()

    def test_profits_inherited_from_source_column(self):
        _, pt = tiny_db()
        assert pt["Age_H"] == 0.5
        assert pt["SL_N"] == 0.2
        assert pt["Spend_M"] == 0.3

    def test_membership_mode_keeps_degrees(self):
        db, _ = tiny_db(mode=MEMBERSHIP)
        assert db.mode == MEMBERSHIP
        assert db.quantity[db.present].min() < 1.0  # fuzzy degrees survive
        first = db.quantity[0][db.present[0]]  # row A: SL_N 1.0, Age_L .97, Spend_M .97
        assert sorted(first.tolist()) == [0.97, 0.97, 1.0]
        assert (db.quantity[~db.present] == 0.0).all()

    def test_zero_profit_items_dropped(self):
        frame, labels = build_tiny_frame()
        table = ImportanceTable("external",
                                {"SL": 0.0, "Age": 0.5, "Spend": 0.3})
        db, pt = build_transactions(frame, labels, table)
        assert all(not name.startswith("SL") for name in db.items)

    def test_no_churn_rows(self):
        frame, labels = build_tiny_frame()
        table = ImportanceTable("external", dict(TINY_PROFITS))
        with pytest.raises(NoChurnRows):
            build_transactions(frame, labels * 0, table)

    def test_missing_importance_for_source(self):
        frame, labels = build_tiny_frame()
        table = ImportanceTable("external", {"SL": 0.2, "Age": 0.5})
        with pytest.raises(MissingImportance) as exc:
            build_transactions(frame, labels, table)
        assert "Spend" in str(exc.value)

    def test_label_alignment_checked(self):
        frame, labels = build_tiny_frame()
        table = ImportanceTable("external", dict(TINY_PROFITS))
        with pytest.raises(ValueError):
            build_transactions(frame, labels[:-1], table)

    @pytest.mark.parametrize("present, quantity", [
        (np.zeros((2, 2), bool), np.zeros((2, 2))),  # one column short
        (np.zeros((2, 3), bool), np.zeros((3, 3))),  # row counts differ
    ])
    def test_layout_shapes_checked(self, present, quantity):
        with pytest.raises(ValueError):
            miner.TransactionDB(items=["a", "b", "c"], present=present,
                                quantity=quantity, mode=BINARY)


class TestUtility:
    def test_pair_by_hand(self):
        db, pt = tiny_db()
        # rows A, C, I contain both; (0.5 + 0.3) * 3
        assert utility(db, pt, ["Age_L", "Spend_M"]) == (2.4000000000000004, 3)

    def test_triple_by_hand(self):
        db, pt = tiny_db()
        assert utility(db, pt, ["SL_N", "Age_H", "Spend_L"]) == (2.0, 2)

    def test_item_order_irrelevant(self):
        db, pt = tiny_db()
        a = utility(db, pt, ["Spend_M", "Age_L"])
        b = utility(db, pt, ["Age_L", "Spend_M"])
        assert a == b

    def test_duplicates_collapse(self):
        db, pt = tiny_db()
        assert utility(db, pt, ["Age_L", "Age_L", "Spend_M"]) == \
            utility(db, pt, ["Age_L", "Spend_M"])

    def test_zero_support_is_zero_utility(self):
        db, pt = tiny_db()
        # Age_M occurs only with Spend_M, never Spend_L
        assert utility(db, pt, ["Age_M", "Spend_L"]) == (0.0, 0)

    def test_unknown_item(self):
        db, pt = tiny_db()
        with pytest.raises(UnknownItem):
            utility(db, pt, ["Age_L", "Tenure_H"])

    def test_membership_mode_sums_degrees(self):
        db, pt = tiny_db(mode=MEMBERSHIP)
        # A: .97*.5 + .97*.3, C: .99*.5 + 1.0*.3, I: .93*.5 + 1.0*.3
        expected = 0.0
        for age_mu, sp_mu in ((0.97, 0.97), (0.99, 1.0), (0.93, 1.0)):
            per = age_mu * 0.5 + sp_mu * 0.3
            expected += per
        u, sup = utility(db, pt, ["Age_L", "Spend_M"])
        assert sup == 3
        assert u == pytest.approx(expected, abs=1e-12)


class TestMineTopK:
    def test_tiny_top5_frozen(self):
        db, pt = tiny_db()
        got = mine_topk(db, pt, MiningConfig(k=5))
        assert [(p.items, p.utility, p.support) for p in got] == TINY_TOP5

    def test_tiny_matches_oracle_binary(self):
        db, pt = tiny_db()
        cfg = MiningConfig(k=5)
        assert mine_topk(db, pt, cfg) == brute_force_topk(db, pt, cfg)

    def test_tiny_matches_oracle_membership(self):
        db, pt = tiny_db(mode=MEMBERSHIP)
        cfg = MiningConfig(k=5, mode=MEMBERSHIP)
        assert mine_topk(db, pt, cfg) == brute_force_topk(db, pt, cfg)

    def test_single_transaction(self):
        db = db_from_dicts(["a", "b"], [{0: 1.0, 1: 1.0}], BINARY)
        pt = {"a": 1.0, "b": 2.0}
        got = mine_topk(db, pt, MiningConfig(k=1))
        assert got == [Pattern(items=("a", "b"), utility=3.0, support=1)]

    def test_k_larger_than_qualifying_itemsets(self):
        db, pt = tiny_db()
        cfg = MiningConfig(k=10_000)
        got = mine_topk(db, pt, cfg)
        assert got == brute_force_topk(db, pt, cfg)
        assert 5 < len(got) < 10_000
        # results arrive sorted by the documented order
        assert [p.sort_key() for p in got] == sorted(p.sort_key() for p in got)

    def test_membership_never_exceeds_binary(self):
        bdb, bpt = tiny_db()
        mdb, mpt = tiny_db(mode=MEMBERSHIP)
        for p in mine_topk(mdb, mpt, MiningConfig(k=20, mode=MEMBERSHIP)):
            ub, _ = utility(bdb, bpt, p.items)
            assert p.utility <= ub + 1e-12

    def test_min_and_max_length_honored(self):
        db, pt = tiny_db()
        only_pairs = mine_topk(db, pt, MiningConfig(k=50, max_length=2))
        assert all(len(p.items) == 2 for p in only_pairs)
        singles = mine_topk(db, pt, MiningConfig(k=50, min_length=1,
                                                 max_length=1))
        assert all(len(p.items) == 1 for p in singles)
        # top single is Age_L/Spend? compute: SL_N sup5*0.2=1.0, Age_L 3*0.5=1.5,
        # Spend_M 4*0.3=1.2 -> Age_L first
        assert singles[0].items == ("Age_L",)
        assert singles[0].utility == 1.5

    def test_min_length_above_item_count_yields_nothing(self):
        db, pt = tiny_db()
        assert mine_topk(db, pt, MiningConfig(k=5, min_length=50)) == []

    def test_mode_mismatch_rejected(self):
        db, pt = tiny_db()
        with pytest.raises(ConfigError):
            mine_topk(db, pt, MiningConfig(k=5, mode=MEMBERSHIP))

    def test_empty_database(self):
        db = db_from_dicts([], [], BINARY)
        with pytest.raises(EmptyDatabase):
            mine_topk(db, {}, MiningConfig(k=1))

    def test_deterministic(self):
        db, pt = random_db(5)
        cfg = MiningConfig(k=8, mode=db.mode)
        assert mine_topk(db, pt, cfg) == mine_topk(db, pt, cfg)

    @pytest.mark.parametrize("bad", [
        {"k": 0},
        {"k": 1, "min_length": 0},
        {"k": 1, "min_length": 3, "max_length": 2},
        {"k": 1, "mode": "ternary"},
        {"k": 1, "algorithm": "genetic"},
    ])
    def test_config_validation(self, bad):
        with pytest.raises(ConfigError):
            MiningConfig(**bad)


class TestOracleAgreement:
    """The DFS miner must reproduce exhaustive enumeration exactly."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances(self, seed):
        db, pt = random_db(seed)
        for k in (1, 3, 10):
            cfg = MiningConfig(k=k, mode=db.mode)
            assert mine_topk(db, pt, cfg) == brute_force_topk(db, pt, cfg), \
                f"instance seed={seed} k={k}"

    @pytest.mark.parametrize("seed", range(30, 40))
    def test_random_instances_with_length_caps(self, seed):
        db, pt = random_db(seed)
        cfg = MiningConfig(k=5, min_length=1, max_length=3, mode=db.mode)
        assert mine_topk(db, pt, cfg) == brute_force_topk(db, pt, cfg)

    def test_oracle_item_limit(self):
        items = [chr(ord("a") + i) for i in range(21)]
        db = db_from_dicts(items, [{i: 1.0 for i in range(21)}], BINARY)
        pt = {n: 1.0 for n in items}
        with pytest.raises(TooManyItemsForOracle):
            brute_force_topk(db, pt, MiningConfig(k=1))


def prefix_bound(db, pt, prefix_items) -> float:
    """The remaining-utility upper bound of a prefix.

    Upper-bounds the utility of every extension of the prefix by items that
    follow all of its items in search_order().
    """
    contrib = miner._contributions(db, pt)
    order = miner._twu_order(db.present, contrib)
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    idxs = [index_of(db, n) for n in prefix_items]
    last = max(position[i] for i in idxs)
    tids = np.nonzero(db.present[:, idxs].all(axis=1))[0]
    rest = _remaining(contrib[:, order])[tids, last]
    return float(contrib[np.ix_(tids, idxs)].sum() + rest.sum())


class TestPruningSoundness:
    @staticmethod
    def twu_by_definition(db, pt):
        """Each item's summed utility of the transactions that hold it."""
        tu = [sum(db.quantity[t, i] * pt[name]
                  for i, name in enumerate(db.items) if db.present[t, i])
              for t in range(len(db.transactions))]
        return [sum(tu[t] for t in range(len(tu)) if db.present[t, i])
                for i in range(len(db.items))]

    def test_search_order_is_ascending_twu_ties_by_index(self):
        for seed in range(8):
            db, pt = random_db(seed + 100)
            twu = self.twu_by_definition(db, pt)
            order = search_order(db, pt)
            assert sorted(order) == list(range(len(db.items)))
            for a, b in zip(order, order[1:]):
                assert twu[a] <= twu[b] + 1e-12
                if abs(twu[a] - twu[b]) <= 1e-12:
                    assert a < b

    def test_bound_dominates_every_extension(self):
        # the prefix bound must be >= the utility of any superset formed by
        # appending items later in the search order, otherwise pruning could
        # drop answers
        for seed in range(8):
            db, pt = random_db(seed + 100, max_items=8)
            names = [db.items[i] for i in search_order(db, pt)]
            for first in range(len(names)):
                prefix = [names[first]]
                bound = prefix_bound(db, pt, prefix)
                for second in range(first + 1, len(names)):
                    pair = prefix + [names[second]]
                    u, _ = utility(db, pt, pair)
                    assert u <= bound + 1e-9
                    pair_bound = prefix_bound(db, pt, pair)
                    assert pair_bound <= bound + 1e-9
                    for third in range(second + 1, len(names)):
                        u3, _ = utility(db, pt, pair + [names[third]])
                        assert u3 <= bound + 1e-9
                        assert u3 <= pair_bound + 1e-9

    def test_support_antitone_under_extension(self):
        db, pt = tiny_db()
        _, sup_pair = utility(db, pt, ["Age_L", "Spend_M"])
        _, sup_triple = utility(db, pt, ["Age_L", "Spend_M", "SL_N"])
        assert sup_triple <= sup_pair

    def test_profit_scaling_scales_utilities(self):
        db, pt = random_db(222)
        scaled = {n: 2.5 * v for n, v in pt.items()}
        cfg = MiningConfig(k=6, mode=db.mode)
        base = mine_topk(db, pt, cfg)
        big = mine_topk(db, scaled, cfg)
        assert [p.items for p in base] == [p.items for p in big]
        for a, b in zip(base, big):
            assert b.utility == pytest.approx(2.5 * a.utility, rel=1e-12)


class TestItemOrderIndependence:
    def test_permuting_item_indices_changes_nothing(self):
        db, pt = random_db(77)
        n = len(db.items)
        perm = list(reversed(range(n)))  # new index of old item i is perm[i]
        items2 = [None] * n
        for old, new in enumerate(perm):
            items2[new] = db.items[old]
        old_of_new = [perm.index(new) for new in range(n)]
        db2 = miner.TransactionDB(items=items2,
                                  present=db.present[:, old_of_new],
                                  quantity=db.quantity[:, old_of_new],
                                  mode=db.mode)
        cfg = MiningConfig(k=10, mode=db.mode)
        a = mine_topk(db, pt, cfg)
        b = mine_topk(db2, pt, cfg)
        assert [(p.items, p.utility, p.support) for p in a] == \
            [(p.items, p.utility, p.support) for p in b]


class TestBeam:
    def test_beam_is_deterministic(self):
        db, pt = random_db(9)
        cfg = MiningConfig(k=5, mode=db.mode, algorithm="beam")
        assert mine_topk(db, pt, cfg) == mine_topk(db, pt, cfg)

    def test_beam_reports_true_utilities(self):
        db, pt = random_db(10)
        cfg = MiningConfig(k=5, mode=db.mode, algorithm="beam")
        for p in mine_topk(db, pt, cfg):
            u, sup = utility(db, pt, p.items)
            assert (p.utility, p.support) == (u, sup)

    def test_beam_never_beats_exact(self):
        # approximate search can miss patterns but cannot invent utility
        for seed in range(41, 51):
            db, pt = random_db(seed)
            cfg_b = MiningConfig(k=4, mode=db.mode, algorithm="beam")
            cfg_e = MiningConfig(k=4, mode=db.mode)
            exact = mine_topk(db, pt, cfg_e)
            beam = mine_topk(db, pt, cfg_b)
            assert beam[0].utility <= exact[0].utility + 1e-12

    def test_beam_finds_tiny_top5(self):
        # wide enough beam on a small instance recovers the exact answer
        db, pt = tiny_db()
        beam = mine_topk(db, pt, MiningConfig(k=5, algorithm="beam"))
        assert [(p.items, p.utility, p.support) for p in beam] == TINY_TOP5


def read_back(path: str) -> list[Pattern]:
    with open(path, encoding="utf-8", newline="") as f:
        return parse_patterns(f.read(), path)


class TestPatternIo:
    def test_jsonl_roundtrip(self, tmp_path):
        db, pt = tiny_db()
        patterns = mine_topk(db, pt, MiningConfig(k=5))
        path = str(tmp_path / "patterns.jsonl")
        write_patterns(patterns, path)
        assert read_back(path) == patterns
        lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 5
        assert json.loads(lines[0])["items"] == ["Age_L", "Spend_M"]

    def test_empty_roundtrip(self, tmp_path):
        path = str(tmp_path / "patterns.jsonl")
        write_patterns([], path)
        assert read_back(path) == []

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "patterns.jsonl"
        p.write_text('{"items": ["a"], "utility": 1.0, "support": 1}\nnot json\n')
        with pytest.raises(ParseError) as exc:
            read_back(str(p))
        assert ":2:" in str(exc.value)

    @pytest.mark.parametrize("line", [
        '{"items": "X01_L", "utility": 1.0, "support": 1}',
        '{"items": [], "utility": 1.0, "support": 1}',
        '{"items": ["a", 2], "utility": 1.0, "support": 1}',
        '{"items": ["a"], "utility": "x", "support": 1}',
        '{"items": ["a"], "utility": true, "support": 1}',
        '{"items": ["a"], "utility": NaN, "support": 1}',
        '{"items": ["a"], "utility": Infinity, "support": 1}',
        '{"items": ["a"], "utility": 1.0, "support": 0}',
        '{"items": ["a"], "utility": 1.0, "support": 1.5}',
        '{"items": ["a"], "utility": 1.0, "support": "3"}',
        '{"items": ["a"], "utility": 1.0, "support": true}',
        '{"items": ["a"], "utility": 1.0}',
        '["a"]',
    ])
    def test_bad_line_rejected(self, tmp_path, line):
        p = tmp_path / "patterns.jsonl"
        p.write_text('{"items": ["a"], "utility": 1.0, "support": 1}\n'
                     + line + "\n")
        with pytest.raises(ParseError) as exc:
            read_back(str(p))
        assert f"{p}:2:" in str(exc.value)

    def test_integral_utility_read_as_float(self, tmp_path):
        p = tmp_path / "patterns.jsonl"
        p.write_text('{"items": ["b", "a"], "utility": 2, "support": 2}\n')
        got = read_back(str(p))
        assert got == [Pattern(items=("b", "a"), utility=2.0, support=2)]
        assert type(got[0].utility) is float

    def test_render_table(self):
        db, pt = tiny_db()
        patterns = mine_topk(db, pt, MiningConfig(k=5))
        text = render_patterns_table(patterns)
        assert text.startswith("Top-5 patterns by utility")
        assert "{Age_L, Spend_M}" in text
        assert "2.4000" in text
        body = text.strip().split("\n")
        assert body[2].split()[:2] == ["Rank", "Pattern"]
        assert len(body) == 3 + 5


# One L/M/H-style item per source column per row, as real frames have.
TERMS = ("L", "M", "H", "X")


@st.composite
def structured_frames(draw, max_columns=5, max_rows=30):
    n_cols = draw(st.integers(1, max_columns))
    n_terms = [draw(st.integers(2, 4)) for _ in range(n_cols)]
    n_rows = draw(st.integers(1, max_rows))
    names, sources = [], []
    for c, m in enumerate(n_terms):
        names += [f"c{c}_{TERMS[t]}" for t in range(m)]
        sources += [f"c{c}"] * m
    rows = np.zeros((n_rows, len(names)), dtype=np.uint8)
    mems = np.zeros((n_rows, len(names)))
    degree = st.sampled_from([0.25, 0.5, 0.75, 1.0]) | st.floats(0.01, 1.0)
    for r in range(n_rows):
        first = 0
        for m in n_terms:
            j = first + draw(st.integers(0, m - 1))
            rows[r, j] = 1
            mems[r, j] = draw(degree)
            first += m
    labels = np.array([draw(st.integers(0, 1)) for _ in range(n_rows)])
    labels[0] = 1
    # few distinct profits, so equal utilities and their tie order are common
    profit = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.01, 3.0)
    scores = {f"c{c}": draw(profit) for c in range(n_cols)}
    frame = BinaryFrame(item_names=names, item_sources=sources, rows=rows,
                        memberships=mems)
    return frame, labels, ImportanceTable("external", scores)


class TestStructuredOracle:
    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(structured_frames(), st.sampled_from([BINARY, MEMBERSHIP]),
           st.integers(1, 8), st.integers(1, 3),
           st.none() | st.integers(0, 2))
    def test_search_equals_enumeration(self, data, mode, k, min_length,
                                       extra_length):
        frame, labels, table = data
        try:
            db, pt = build_transactions(frame, labels, table, mode=mode)
        except NoChurnRows:
            return
        if not db.items:
            return
        max_length = None if extra_length is None else min_length + extra_length
        cfg = MiningConfig(k=k, min_length=min_length, max_length=max_length,
                           mode=mode)
        assert mine_topk(db, pt, cfg) == brute_force_topk(db, pt, cfg)


class TestSearchStats:
    def test_tiny_fixture_counts_pinned(self):
        db, pt = tiny_db()
        stats = SearchStats()
        mine_topk(db, pt, MiningConfig(k=5), stats)
        assert stats.nodes_expanded == 11
        assert stats.to_dict() == {"nodes_expanded": 11, "bound_prunes": 4,
                                   "pool_offers": 7}

    def test_beam_counts_expansions_and_offers(self):
        db, pt = tiny_db()
        stats = SearchStats()
        got = mine_topk(db, pt, MiningConfig(k=5, algorithm="beam"), stats)
        assert stats.nodes_expanded > 0
        assert stats.pool_offers >= len(got)
        assert stats.bound_prunes == 0


class TestChildScoring:
    """Batched child scoring and the dead-end rule change no decision."""

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(structured_frames(max_columns=7, max_rows=40),
           st.sampled_from([BINARY, MEMBERSHIP]), st.integers(1, 8),
           st.integers(1, 3), st.none() | st.integers(0, 2))
    def test_equals_per_node_search(self, data, mode, k, min_length,
                                    extra_length):
        frame, labels, table = data
        try:
            db, pt = build_transactions(frame, labels, table, mode=mode)
        except NoChurnRows:
            return
        if not db.items:
            return
        max_length = None if extra_length is None else min_length + extra_length
        cfg = MiningConfig(k=k, min_length=min_length, max_length=max_length,
                           mode=mode)
        got, want = SearchStats(), SearchStats()
        assert mine_topk(db, pt, cfg, got) == \
            mine_topk_reference(db, pt, cfg, want)
        assert got == want

    def test_random_instances_equal_per_node_search(self):
        for seed in range(20):
            db, pt = random_db(seed)
            for cfg in (MiningConfig(k=5, mode=db.mode),
                        MiningConfig(k=3, min_length=1, max_length=3,
                                     mode=db.mode)):
                got, want = SearchStats(), SearchStats()
                assert mine_topk(db, pt, cfg, got) == \
                    mine_topk_reference(db, pt, cfg, want)
                assert got == want, f"seed={seed} {cfg}"


    def test_dead_ends_are_not_visited(self):
        db, pt = structured_db(10, n_transactions=500, seed=1)
        visits = []

        def count_visits(frame, event, arg):
            if event == "call" and frame.f_code is expand_code:
                visits.append(1)

        expand_code = next(c for c in miner.mine_topk.__code__.co_consts
                           if getattr(c, "co_name", None) == "expand")
        stats = SearchStats()
        sys.setprofile(count_visits)
        try:
            mine_topk(db, pt, MiningConfig(k=5), stats)
        finally:
            sys.setprofile(None)
        # the per-node search visits every expanded node; here most of them
        # are dead ends, counted but never entered
        assert 0 < len(visits) < stats.nodes_expanded / 4


# The exact top-10 of structured_db(30, seed=0) (2000 transactions, 90
# items, random profits) and its search counters, pinned from the per-node
# search.
THIRTY_COLUMNS_TOP10 = [
    (("c01_L", "c12_H"), 666.7015246030873, 241),
    (("c01_L", "c02_M"), 663.104182315138, 248),
    (("c01_H", "c02_L"), 655.0827607548742, 245),
    (("c01_L", "c05_L"), 652.6967717377067, 239),
    (("c04_H", "c12_M"), 650.1367133081552, 252),
    (("c02_L", "c05_L"), 649.0933211080754, 249),
    (("c01_H", "c05_L"), 644.5039252305389, 236),
    (("c12_M", "c29_L"), 641.4311065956352, 246),
    (("c01_L", "c29_L"), 641.2776539611671, 243),
    (("c05_L", "c12_M"), 639.7553511432008, 237),
]
THIRTY_COLUMNS_STATS = {"nodes_expanded": 56687, "bound_prunes": 1921155,
                        "pool_offers": 10}


class TestThirtyColumns:
    def test_top10_and_counters_pinned(self):
        db, pt = structured_db(30, seed=0)
        stats = SearchStats()
        got = mine_topk(db, pt, MiningConfig(k=10), stats)
        assert [(p.items, p.utility, p.support) for p in got] == \
            THIRTY_COLUMNS_TOP10
        assert stats.to_dict() == THIRTY_COLUMNS_STATS
