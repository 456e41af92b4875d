import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hafcp import augment, cli, dataset, fuzzify, gbdt
from hafcp.augment import (
    build_report,
    match_rows,
    report_to_markdown,
    run_comparison,
)
from hafcp.dataset import (CATEGORICAL, LABEL, NUMERIC, ColumnarDataset,
                           ColumnSchema, SplitSpec, load_csv)
from hafcp.errors import SingleClassTraining, UnparseableCell, UnresolvableItem
from hafcp.gbdt import BoostParams, Metrics
from hafcp.miner import Pattern

from conftest import build_tiny_frame
from fuzzify_reference import assign_term
from synthdata import planted_csv_text
from test_cli import RETRAINED_CONFIG, _src_env, make_project
from test_gbdt import continued

IDENTITY = Metrics(auc=0.8, accuracy=0.8, recall=0.8, precision=0.8, f1=0.8)


def tiny_splits(tiny_csv, fraction=0.8):
    ds = load_csv(tiny_csv, "Churn", "1")
    ds = dataset.drop_columns(ds, ["ID"])
    return dataset.split(ds, SplitSpec(fraction, 0))


def encoded_splits(train_ds, test_ds, skip=()):
    """Both splits encoded as the report encodes them: train-fitted specs."""
    specs, _ = fuzzify.fit_all_memberships(train_ds, skip=set(skip))
    return [cli._encode(ds, specs, list(skip)) for ds in (train_ds, test_ds)]


def pattern_columns(train_ds, test_ds, patterns):
    frames = encoded_splits(train_ds, test_ds)
    return [tuple(match_rows(f, p.items) for f in frames) for p in patterns]


class TestMatchRows:
    def test_matches_fixture_rows(self):
        frame, _ = build_tiny_frame()
        hits = match_rows(frame, ("Age_L", "Spend_M"))
        # rows A, C, I carry Age_L and Spend_M; so does nobody else
        assert list(np.nonzero(hits)[0]) == [0, 2, 8]

    def test_empty_itemset_matches_everything(self):
        frame, _ = build_tiny_frame()
        assert match_rows(frame, ()).sum() == frame.n_rows

    def test_unknown_item(self):
        frame, _ = build_tiny_frame()
        with pytest.raises(UnresolvableItem):
            match_rows(frame, ("Age_L", "Tenure_H"))


@st.composite
def encoded_tables(draw):
    """A small table of numeric and categorical columns, its specs, and an
    itemset drawn from its frame's items."""
    n = draw(st.integers(1, 12))
    schema, columns, specs = [], {}, []
    for c in range(draw(st.integers(1, 3))):
        name = f"c{c}"
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(["a", "b", "c"]),
                                   min_size=n, max_size=n))
            cats = tuple(dict.fromkeys(values))
            schema.append(ColumnSchema(name, CATEGORICAL, cats))
            columns[name] = np.array([cats.index(v) for v in values])
            continue
        values = draw(st.lists(st.sampled_from([0.0, 2.5, 5.0, 7.5, 10.0])
                               | st.floats(-5.0, 15.0), min_size=n,
                               max_size=n))
        schema.append(ColumnSchema(name, NUMERIC))
        columns[name] = np.array(values)
        if draw(st.booleans()):
            terms = ((0.0, 0.0, 5.0), (0.0, 5.0, 10.0), (5.0, 10.0, 10.0))
            family = "triangular"
        else:
            terms = ((0.0, 2.5), (5.0, 2.5), (10.0, 2.5))
            family = "gaussian"
        specs.append(fuzzify.MembershipSpec(name, family, *terms, stats={},
                                            alpha=0.05,
                                            source_fingerprint="src"))
    label = np.array(draw(st.lists(st.integers(0, 1), min_size=n,
                                   max_size=n)))
    schema.append(ColumnSchema("y", LABEL, ("0", "1")))
    columns["y"] = label
    ds = ColumnarDataset(schema, columns, label)
    names, _ = fuzzify.frame_items(ds.schema, specs)
    items = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    return ds, specs, items


class TestMatchRowsRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(encoded_tables())
    def test_matches_the_rows_whose_values_give_every_item(self, case):
        """A row matches iff the items read back from its values (the
        category, or the term assign_term gives) include every item."""
        ds, specs, items = case
        spec_of = {s.column: s for s in specs}
        want = []
        for r in range(ds.n_rows):
            row_items = set()
            for col in ds.feature_schema():
                value = ds.columns[col.name][r]
                if col.kind == CATEGORICAL:
                    row_items.add(f"{col.name}={col.decode(int(value))}")
                else:
                    term = assign_term(float(value), spec_of[col.name]).term
                    row_items.add(f"{col.name}_{term}")
            want.append(int(set(items) <= row_items))
        frame = fuzzify.to_binary_frame(ds, specs)
        assert match_rows(frame, items).tolist() == want


class TestPatternFeature:
    """A pattern's column over the test split, encoded with train specs."""

    @pytest.fixture()
    def held_out(self, tiny_csv):
        # five test rows, so that items match some rows and miss others
        train_ds, test_ds = tiny_splits(tiny_csv, fraction=0.5)
        return train_ds, test_ds, encoded_splits(train_ds, test_ds)[1]

    def test_fuzzy_items_resolved_through_specs(self, held_out):
        train_ds, test_ds, frame = held_out
        specs, _ = fuzzify.fit_all_memberships(train_ds)
        age, spending = specs
        want = [assign_term(float(a), age).term == "L"
                and assign_term(float(s), spending).term == "M"
                for a, s in zip(test_ds.columns["Age"],
                                test_ds.columns["Spending"])]
        hits = match_rows(frame, ("Age_L", "Spending_M"))
        assert hits.tolist() == [int(w) for w in want]
        assert 0 < hits.sum() < test_ds.n_rows

    def test_categorical_item_matches_codes(self, held_out):
        _, test_ds, frame = held_out
        expected = (test_ds.columns["Shop Location"] == 0).astype(np.uint8)
        assert np.array_equal(match_rows(frame, ("Shop Location=N",)),
                              expected)
        assert 0 < expected.sum() < test_ds.n_rows

    def test_conjunction_can_be_empty(self, held_out):
        _, _, frame = held_out
        hits = match_rows(frame, ("Shop Location=C", "Shop Location=N"))
        assert hits.sum() == 0

    def test_unresolvable_item(self, held_out):
        _, _, frame = held_out
        with pytest.raises(UnresolvableItem):
            match_rows(frame, ("Tenure_H",))

    def test_fuzzy_suffix_without_spec_is_unresolvable(self, tiny_csv):
        train_ds, test_ds = tiny_splits(tiny_csv, fraction=0.5)
        frame = encoded_splits(train_ds, test_ds, skip=["Age"])[1]
        with pytest.raises(UnresolvableItem) as exc:
            match_rows(frame, ("Age_L",))
        assert "'Age_L'" in str(exc.value)


class TestEvaluateWithPatterns:
    def test_all_zero_pattern_reproduces_baseline_exactly(self, tiny_csv):
        train_ds, test_ds = tiny_splits(tiny_csv)
        params = BoostParams(n_estimators=5, min_child_weight=0.0)
        model = gbdt.train(train_ds, params)
        baseline = gbdt.evaluate(test_ds.label,
                                 gbdt.predict_proba(model, test_ds))
        # a pattern matching no row anywhere adds a constant zero column,
        # which can never host a split: metrics must be bit-identical
        pat = Pattern(items=("Shop Location=C", "Shop Location=N"),
                      utility=0.0, support=0)
        columns = pattern_columns(train_ds, test_ds, [pat])
        assert [c.sum() for c in columns[0]] == [0, 0]
        report = run_comparison(train_ds, test_ds, [pat], columns, params,
                                baseline, prefix=model)
        assert report.per_pattern[1] == baseline

    def test_engineered_column_appended_after_features(self, tiny_csv):
        train_ds, test_ds = tiny_splits(tiny_csv)
        pat = Pattern(items=("Age_L",), utility=1.0, support=3)
        (train_col, _), = pattern_columns(train_ds, test_ds, [pat])
        aug = dataset.append_numeric_column(train_ds, "HAFCP_1", train_col)
        assert aug.feature_names() == ["Shop Location", "Age", "Spending",
                                       "HAFCP_1"]


class TestBuildReport:
    def test_identity_average(self):
        report = build_report(IDENTITY, [(1, IDENTITY), (2, IDENTITY)])
        assert report.average == IDENTITY
        assert all(f == "equal" for f in report.average_flags.values())
        assert all(f == "equal"
                   for flags in report.flags.values() for f in flags.values())

    def test_hand_computed_average_and_flags(self):
        lo = Metrics(auc=0.70, accuracy=0.70, recall=0.70, precision=0.70,
                     f1=0.70)
        hi = Metrics(auc=0.80, accuracy=0.80, recall=0.80, precision=0.80,
                     f1=0.80)
        base = Metrics(auc=0.75, accuracy=0.72, recall=0.80, precision=0.75,
                       f1=0.75)
        report = build_report(base, [(1, lo), (2, hi)])
        assert report.average.auc == pytest.approx(0.75)
        assert report.flags[1]["auc"] == "worse"
        assert report.flags[2]["auc"] == "improved"
        assert report.average_flags["auc"] == "equal"      # 0.75 vs 0.75
        assert report.average_flags["accuracy"] == "improved"  # 0.75 vs 0.72
        assert report.average_flags["recall"] == "worse"   # 0.75 vs 0.80

    def test_flag_granularity_is_four_decimals(self):
        nearly = Metrics(auc=0.8 + 1e-12, accuracy=0.8, recall=0.8,
                         precision=0.8, f1=0.8)
        report = build_report(IDENTITY, [(1, nearly)])
        assert report.flags[1]["auc"] == "equal"
        visibly = Metrics(auc=0.8002, accuracy=0.8, recall=0.8,
                          precision=0.8, f1=0.8)
        assert build_report(IDENTITY, [(1, visibly)]).flags[1]["auc"] == \
            "improved"

    def test_empty_augmented_rejected(self):
        with pytest.raises(ValueError):
            build_report(IDENTITY, [])

    def test_dict_keys_are_strings(self):
        report = build_report(IDENTITY, [(1, IDENTITY)], config_fingerprint="c")
        doc = report.to_dict()
        assert set(doc["per_pattern"]) == {"1"}
        assert doc["config_fingerprint"] == "c"


@pytest.fixture()
def setup(tiny_csv):
    """run_comparison's leading arguments over three tiny-table patterns."""
    train_ds, test_ds = tiny_splits(tiny_csv)
    params = BoostParams(n_estimators=4, min_child_weight=0.0)
    model = gbdt.train(train_ds, params)
    baseline = gbdt.evaluate(test_ds.label,
                             gbdt.predict_proba(model, test_ds))
    patterns = [Pattern(("Age_L", "Spending_M"), 2.4, 3),
                Pattern(("Shop Location=N", "Spending_M"), 1.5, 3),
                Pattern(("Age_H",), 1.0, 2)]
    columns = pattern_columns(train_ds, test_ds, patterns)
    return train_ds, test_ds, patterns, columns, params, baseline


class TestRunComparison:
    def test_one_row_per_pattern(self, setup):
        train_ds, test_ds, patterns, columns, params, baseline = setup
        report = run_comparison(train_ds, test_ds, patterns, columns, params,
                                baseline)
        assert sorted(report.per_pattern) == [1, 2, 3]
        assert report.patterns == tuple(patterns)

    def test_cumulative_differs_from_independent(self, setup):
        train_ds, test_ds, patterns, columns, params, baseline = setup
        indep = run_comparison(train_ds, test_ds, patterns, columns, params,
                               baseline, cumulative=False)
        cumul = run_comparison(train_ds, test_ds, patterns, columns, params,
                               baseline, cumulative=True)
        # top-1 rows agree by construction (same single column)
        assert cumul.per_pattern[1] == indep.per_pattern[1]

    @pytest.mark.parametrize("cumulative", [False, True])
    def test_baseline_prefix_does_not_change_the_report(self, setup,
                                                        cumulative):
        train_ds, _, _, _, params, _ = setup
        cold = run_comparison(*setup, cumulative=cumulative)
        warm = run_comparison(*setup, cumulative=cumulative,
                              prefix=gbdt.train(train_ds, params))
        assert warm.to_dict() == cold.to_dict()
        assert cold.reused_trees == (0, 0, 0)
        assert len(warm.reused_trees) == 3
        assert all(0 <= r <= params.n_estimators for r in warm.reused_trees)

    def test_markdown_layout(self, setup):
        train_ds, test_ds, patterns, columns, params, baseline = setup
        report = run_comparison(train_ds, test_ds, patterns, columns, params,
                                baseline, config_fingerprint="deadbeef")
        text = report_to_markdown(report)
        header = [l for l in text.split("\n") if l.startswith("| Metric")][0]
        assert header == "| Metric | Baseline | Top-1 | Top-2 | Top-3 | AVG |"
        assert "| AUC |" in text
        assert "| Recall |" in text
        assert "Top-1: {Age_L, Spending_M}" in text
        assert "`deadbeef`" in text

    def test_markdown_bolds_improvements(self):
        better = Metrics(auc=0.9, accuracy=0.9, recall=0.9, precision=0.9,
                         f1=0.9)
        report = build_report(IDENTITY, [(1, better)])
        text = report_to_markdown(report)
        assert "**0.9000**" in text


class NoPool:
    """Stands in for ProcessPoolExecutor where the serial path is expected."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


def usable_cpus(monkeypatch, n):
    """Make run_comparison see n usable CPUs, so it forks min(k, n) workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestRetrainPool:
    @pytest.mark.parametrize("cumulative", [False, True])
    def test_worker_count_does_not_change_the_report(self, setup, cumulative,
                                                     monkeypatch):
        docs = []
        for cpus in (1, 2, len(setup[2])):
            usable_cpus(monkeypatch, cpus)
            docs.append(run_comparison(*setup,
                                       cumulative=cumulative).to_dict())
        assert docs[1] == docs[0]
        assert docs[2] == docs[0]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retrain_error_keeps_its_type(self, setup, workers, monkeypatch):
        train_ds, test_ds, patterns, columns, params, baseline = setup
        one_class = ColumnarDataset(train_ds.schema, train_ds.columns,
                                    np.zeros(train_ds.n_rows))
        usable_cpus(monkeypatch, workers)
        with pytest.raises(SingleClassTraining):
            run_comparison(one_class, test_ds, patterns, columns, params,
                           baseline)
        assert multiprocessing.active_children() == []
        assert augment._JOB is None

    def test_error_with_its_own_constructor_keeps_its_type(self, setup,
                                                           monkeypatch):
        def failing_train(ds, params, stats=None, prefix=None):
            raise UnparseableCell(7, "Age", "not a number")

        monkeypatch.setattr(augment, "train", failing_train)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(UnparseableCell) as exc:
            run_comparison(*setup)
        assert "column 'Age'" in str(exc.value)
        assert (exc.value.row, exc.value.column) == (7, "Age")
        assert multiprocessing.active_children() == []

    def test_one_cpu_runs_serially(self, setup, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        usable_cpus(monkeypatch, 1)
        run_comparison(*setup)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(AssertionError, match="pool was started"):
            run_comparison(*setup)

    def test_no_fork_runs_serially(self, setup, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        usable_cpus(monkeypatch, 2)
        run_comparison(*setup)


def numeric_ds(columns: dict, label) -> ColumnarDataset:
    """A dataset of numeric columns (name -> values) and a 0/1 label."""
    label = np.asarray(label, dtype=np.int64)
    schema = [ColumnSchema(name, NUMERIC) for name in columns]
    schema.append(ColumnSchema("y", LABEL, ("0", "1")))
    arrays = {name: np.asarray(v, dtype=np.float64)
              for name, v in columns.items()}
    return ColumnarDataset(schema, {**arrays, "y": label}, label)


def replay_verdict(train_ds, test_ds, columns, params, cumulative):
    """Whether every rank keeps the baseline, the trees that gbdt.replay
    over all k appended columns finds each rank to keep, and the baseline.

    Each rank's fit continuing its kept trees must be its cold fit, bit for
    bit. A rank keeps the trees before its cold fit's first new one or,
    where the replay stopped first, the trees replayed, which it does only
    once most ranks changed an earlier tree. run_comparison's report must
    be the one the cold fits give."""
    prefix = gbdt.train(train_ds, params)
    baseline = gbdt.evaluate(test_ds.label,
                             gbdt.predict_proba(prefix, test_ds))
    k = len(columns)
    all_train, _ = augment._appended(train_ds, test_ds, columns,
                                     range(1, k + 1))
    kept = gbdt.replay(all_train, params, prefix,
                       [range(i) if cumulative else [i - 1]
                        for i in range(1, k + 1)])
    firsts, rows = [], []
    for i, n in enumerate(kept, start=1):
        tr, te = augment._appended(train_ds, test_ds, columns,
                                   range(1, i + 1) if cumulative else [i])
        cold = gbdt.train(tr, params)
        assert (json.dumps(continued(tr, params, prefix, n).to_dict())
                == json.dumps(cold.to_dict()))
        same = [a.to_dict() == b.to_dict()
                for a, b in zip(cold.trees, prefix.trees)] + [False]
        firsts.append(same.index(False))
        rows.append((i, gbdt.evaluate(te.label,
                                      gbdt.predict_proba(cold, te))))
    patterns = [Pattern((f"p{i}",), 1.0, 1) for i in range(1, k + 1)]
    want = build_report(baseline, rows, patterns=patterns,
                        reused_trees=tuple(kept))
    with pytest.MonkeyPatch.context() as mp:
        usable_cpus(mp, 1)
        got = run_comparison(train_ds, test_ds, patterns, columns, params,
                             baseline, cumulative=cumulative, prefix=prefix)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got.reused_trees == want.reused_trees
    for n, first in zip(kept, firsts):
        assert n == first or n < first and 2 * sum(f < n for f in firsts) > k
    return all(n == params.n_estimators for n in kept), kept, prefix


# a binary column x, the label, and z: 1 only on rows where x = 0 and the
# label is 1. x wins the root; its x = 0 child is a leaf of the baseline,
# which z splits
X_COL = [0.0] * 8 + [1.0] * 8
Y_COL = [0, 1] * 4 + [1] * 8
Z_COL = [0.0, 1.0] * 4 + [0.0] * 8
TEST_X = [0.0, 0.0, 1.0, 1.0]
TEST_Y = [0, 1, 1, 0]
TEST_Z = [0.0, 1.0, 0.0, 0.0]
LEAF_PARAMS = BoostParams(n_estimators=3, max_depth=2, min_child_weight=0.0)


def const(n, value=0.0):
    return [value] * n


@st.composite
def replay_cases(draw):
    """Small tables of 1-3 base columns, 1-3 appended 0/1 columns (random,
    a copy of a binary base column, or constant), params and a mode."""
    n = draw(st.integers(8, 30))
    m = draw(st.integers(4, 8))
    base = {}
    for j in range(draw(st.integers(1, 3))):
        values = draw(st.sampled_from([(0.0, 1.0), (0.0, 1.0, 2.0, 3.0)]))
        base[f"x{j}"] = draw(st.lists(st.sampled_from(values),
                                      min_size=n + m, max_size=n + m))
    label = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2,
                                   max_size=n - 2))
    label += [0, 1] + draw(st.lists(st.integers(0, 1), min_size=m - 2,
                                    max_size=m - 2))
    binary = [v for v in base.values() if set(v) <= {0.0, 1.0}]
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "copy", "constant"]))
        if kind == "copy" and binary:
            col = draw(st.sampled_from(binary))
        elif kind == "constant":
            col = const(n + m, draw(st.sampled_from([0.0, 1.0])))
        else:
            col = draw(st.lists(st.sampled_from([0.0, 1.0]),
                                min_size=n + m, max_size=n + m))
        columns.append((np.array(col[:n]), np.array(col[n:])))
    train_ds = numeric_ds({c: v[:n] for c, v in base.items()}, label[:n])
    test_ds = numeric_ds({c: v[n:] for c, v in base.items()}, label[n:])
    params = BoostParams(n_estimators=draw(st.integers(1, 4)),
                         max_depth=draw(st.integers(1, 3)),
                         learning_rate=draw(st.sampled_from([0.3, 1.0])),
                         min_child_weight=draw(st.sampled_from([0.0, 0.5])))
    return train_ds, test_ds, columns, params, draw(st.booleans())


@st.composite
def undecided_cases(draw):
    """replay_cases with 1-3 copies of the label among the appended
    columns. A label column wins a split wherever it can, so the replay
    often stops before it has decided every rank."""
    train_ds, test_ds, columns, params, cumulative = draw(replay_cases())
    label = (train_ds.label.astype(np.float64),
             test_ds.label.astype(np.float64))
    for _ in range(draw(st.integers(1, 3))):
        columns.insert(draw(st.integers(0, len(columns))), label)
    return train_ds, test_ds, columns, params, cumulative


class TestReplayCheck:
    """run_comparison's one replay over every rank's columns finds the
    baseline trees that every rank's own fit keeps."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(replay_cases())
    def test_verdict_matches_every_ranks_own_fit(self, case):
        replay_verdict(*case)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(undecided_cases())
    def test_an_undecided_rank_resumes_to_its_cold_fit(self, case):
        replay_verdict(*case)

    @pytest.mark.parametrize("cumulative", [False, True])
    def test_an_undecided_rank_that_changes_a_later_tree(self, cumulative):
        # w first wins a split in tree 1, and two copies of the label win in
        # tree 0: the replay stops after tree 0 with w's rank undecided
        x = [2.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 0.0, 1.0, 2.0, 3.0, 1.0, 0.0]
        y = [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1]
        w = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0,
                      1.0, 0.0])
        train_ds = numeric_ds({"x": x[:9]}, y[:9])
        test_ds = numeric_ds({"x": x[9:]}, y[9:])
        label = (train_ds.label.astype(np.float64),
                 test_ds.label.astype(np.float64))
        columns = [(w[:9], w[9:]), label, label]
        params = BoostParams(n_estimators=3, max_depth=1, learning_rate=1.0,
                             min_child_weight=0.0)
        _, kept, prefix = replay_verdict(train_ds, test_ds, columns, params,
                                         cumulative)
        tr, _ = augment._appended(train_ds, test_ds, columns, [1])
        cold = gbdt.train(tr, params)
        assert kept == [1, 0, 0]
        assert cold.trees[0].to_dict() == prefix.trees[0].to_dict()
        assert cold.trees[1].to_dict() != prefix.trees[1].to_dict()

    @pytest.mark.parametrize("cumulative", [False, True])
    def test_a_tie_keeps_the_baseline_feature(self, cumulative):
        # a copy of x scores x's gains bit for bit at every node
        train_ds = numeric_ds({"x": X_COL}, Y_COL)
        test_ds = numeric_ds({"x": TEST_X}, TEST_Y)
        columns = [(np.array(X_COL), np.array(TEST_X))]
        whole, kept, prefix = replay_verdict(train_ds, test_ds, columns,
                                             LEAF_PARAMS, cumulative)
        copy = gbdt.train(numeric_ds({"copy": X_COL}, Y_COL), LEAF_PARAMS)
        assert copy.trees[0].gain.tobytes() == prefix.trees[0].gain.tobytes()
        assert whole and kept == [3]

    @pytest.mark.parametrize("cumulative", [False, True])
    def test_a_split_at_a_baseline_leaf_changes_the_tree(self, cumulative):
        train_ds = numeric_ds({"x": X_COL}, Y_COL)
        test_ds = numeric_ds({"x": TEST_X}, TEST_Y)
        columns = [(np.array(const(16)), np.array(const(4))),
                   (np.array(Z_COL), np.array(TEST_Z)),
                   (np.array(X_COL), np.array(TEST_X))]
        whole, kept, prefix = replay_verdict(train_ds, test_ds, columns,
                                             LEAF_PARAMS, cumulative)
        root = prefix.trees[0]
        assert root.feature[0] == 0 and root.feature[root.left[0]] == -1
        assert not whole
        # in cumulative mode two of three ranks change tree 0, and the
        # replay stops with top-1 undecided
        assert kept == ([1, 0, 0] if cumulative else [3, 0, 3])

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_a_constant_column_keeps_the_baseline(self, value):
        train_ds = numeric_ds({"x": X_COL}, Y_COL)
        test_ds = numeric_ds({"x": TEST_X}, TEST_Y)
        columns = [(np.array(const(16, value)), np.array(const(4, value)))]
        whole, kept, _ = replay_verdict(train_ds, test_ds, columns,
                                        LEAF_PARAMS, False)
        assert whole and kept == [3]

    def test_only_ranks_that_change_a_tree_are_retrained(self, monkeypatch):
        train_ds = numeric_ds({"x": X_COL}, Y_COL)
        test_ds = numeric_ds({"x": TEST_X}, TEST_Y)
        columns = [(np.array(const(16)), np.array(const(4))),
                   (np.array(Z_COL), np.array(TEST_Z)),
                   (np.array(X_COL), np.array(TEST_X))]
        prefix = gbdt.train(train_ds, LEAF_PARAMS)
        retrained = []

        def counted(ds, *args):
            retrained.append(ds.feature_names()[1:])
            return gbdt.train(ds, *args)

        monkeypatch.setattr(augment, "train", counted)
        # one retrain runs in this process, whatever the CPU count
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        usable_cpus(monkeypatch, 2)
        patterns = [Pattern((f"p{i}",), 1.0, 1) for i in (1, 2, 3)]
        report = run_comparison(train_ds, test_ds, patterns, columns,
                                LEAF_PARAMS, IDENTITY, prefix=prefix)
        assert retrained == [["HAFCP_2"]]
        assert report.reused_trees == (3, 0, 3)

    @pytest.mark.parametrize("names, firsts, trees", [
        (["zero", "z", "x"], [3, 0, 3], 3),
        # two of three groups change tree 0: the third keeps the one tree
        # replayed
        (["z", "z", "zero"], [0, 0, 1], 1)])
    def test_replay_stops_once_most_groups_changed_a_tree(
            self, monkeypatch, names, firsts, trees):
        train_ds = numeric_ds({"x": X_COL}, Y_COL)
        prefix = gbdt.train(train_ds, LEAF_PARAMS)
        grown = []
        grow = gbdt._grow_tree
        monkeypatch.setattr(gbdt, "_grow_tree",
                            lambda *a: grown.append(1) or grow(*a))
        values = {"zero": const(16), "z": Z_COL, "x": X_COL}
        all_train = train_ds
        for j, name in enumerate(names):
            all_train = augment.append_numeric_column(
                all_train, f"c{j}", np.array(values[name]))
        assert gbdt.replay(all_train, LEAF_PARAMS, prefix,
                           [[0], [1], [2]]) == firsts
        assert len(grown) == trees

    def test_kept_baseline_starts_no_retrain(self, setup, monkeypatch):
        train_ds, test_ds, patterns, columns, params, baseline = setup
        zero = (np.zeros(train_ds.n_rows), np.zeros(test_ds.n_rows))
        monkeypatch.setattr(augment, "train", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        usable_cpus(monkeypatch, 2)
        report = run_comparison(train_ds, test_ds, patterns, [zero] * 3,
                                params, baseline,
                                prefix=gbdt.train(train_ds, params))
        assert report.reused_trees == (params.n_estimators,) * 3

    @pytest.mark.parametrize("table, pool", [("tiny", False),
                                             ("planted", True)])
    def test_pool_module_is_loaded_only_for_retrains(self, tmp_path, table,
                                                     pool):
        # every rank of the tiny table keeps the baseline; every rank of
        # the planted one is retrained
        if table == "tiny":
            cfg_path, _ = make_project(tmp_path)
        else:
            cfg_path, _ = make_project(tmp_path, RETRAINED_CONFIG,
                                       csv_text=planted_csv_text(200))
        code = ("import json, os, sys; import hafcp.cli as cli; "
                "os.sched_getaffinity = lambda pid: {0, 1}; "
                "rc = cli.main(['pipeline', '--config', sys.argv[1]]); "
                "print(json.dumps([rc, 'concurrent.futures.process' "
                "in sys.modules]))")
        proc = subprocess.run([sys.executable, "-c", code, cfg_path],
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, pool]
