import concurrent.futures
import multiprocessing
import os

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
