import numpy as np
import pytest

from hafcp import augment, dataset, fuzzify, gbdt
from hafcp.augment import (
    build_report,
    evaluate_with_pattern,
    match_rows,
    pattern_feature,
    report_to_markdown,
    run_comparison,
)
from hafcp.dataset import SplitSpec, load_csv
from hafcp.errors import LineageError, UnresolvableItem
from hafcp.gbdt import BoostParams, Metrics
from hafcp.miner import Pattern

from conftest import build_tiny_frame

IDENTITY = Metrics(auc=0.8, accuracy=0.8, recall=0.8, precision=0.8, f1=0.8)


def tiny_splits(tiny_csv):
    ds = load_csv(tiny_csv, "Churn", "1")
    ds = dataset.drop_columns(ds, ["ID"])
    return dataset.split(ds, SplitSpec(0.8, 0))


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


class TestPatternFeature:
    def test_fuzzy_items_resolved_through_specs(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fuzzify.fit_all_memberships(ds)
        frame = fuzzify.to_binary_frame(ds, specs)
        pat = Pattern(items=("Age_L", "Spending_M"), utility=1.0, support=3)
        feat = pattern_feature(pat, ds, specs, "HAFCP_1")
        # must agree with the frame's own one-hot view
        assert np.array_equal(feat.values,
                              match_rows(frame, ("Age_L", "Spending_M")))
        assert feat.column_name == "HAFCP_1"

    def test_categorical_item_matches_codes(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fuzzify.fit_all_memberships(ds)
        pat = Pattern(items=("Shop Location=N",), utility=1.0, support=6)
        feat = pattern_feature(pat, ds, specs)
        expected = (ds.columns["Shop Location"] == 0).astype(np.uint8)
        assert np.array_equal(feat.values, expected)

    def test_conjunction_can_be_empty(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fuzzify.fit_all_memberships(ds)
        pat = Pattern(items=("Shop Location=C", "Shop Location=N"),
                      utility=0.0, support=0)
        feat = pattern_feature(pat, ds, specs)
        assert feat.values.sum() == 0

    def test_unresolvable_item(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fuzzify.fit_all_memberships(ds)
        with pytest.raises(UnresolvableItem):
            pattern_feature(Pattern(("Tenure_H",), 0.0, 0), ds, specs)

    def test_fuzzy_suffix_without_spec_is_unresolvable(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fuzzify.fit_all_memberships(ds, skip={"Age"})
        with pytest.raises(UnresolvableItem):
            pattern_feature(Pattern(("Age_L",), 0.0, 0), ds, specs)


class TestEvaluateWithPatterns:
    def test_all_zero_pattern_reproduces_baseline_exactly(self, tiny_csv):
        train_ds, test_ds = tiny_splits(tiny_csv)
        specs, _ = fuzzify.fit_all_memberships(train_ds)
        params = BoostParams(n_estimators=5, min_child_weight=0.0)
        model = gbdt.train(train_ds, params)
        baseline = gbdt.evaluate(test_ds.label,
                                 gbdt.predict_proba(model, test_ds))
        # a pattern matching no row anywhere adds a constant zero column,
        # which can never host a split: metrics must be bit-identical
        pat = Pattern(items=("Shop Location=C", "Shop Location=N"),
                      utility=0.0, support=0)
        with_pat = evaluate_with_pattern(train_ds, test_ds, specs, pat, params)
        assert with_pat == baseline

    def test_foreign_specs_rejected(self, tiny_csv):
        train_ds, test_ds = tiny_splits(tiny_csv)
        full = dataset.drop_columns(load_csv(tiny_csv, "Churn", "1"), ["ID"])
        specs, _ = fuzzify.fit_all_memberships(full)  # not the train split
        pat = Pattern(items=("Age_L",), utility=1.0, support=3)
        with pytest.raises(LineageError):
            evaluate_with_pattern(train_ds, test_ds, specs, pat,
                                  BoostParams(n_estimators=2))

    def test_engineered_column_appended_after_features(self, tiny_csv):
        train_ds, test_ds = tiny_splits(tiny_csv)
        specs, _ = fuzzify.fit_all_memberships(train_ds)
        pat = Pattern(items=("Age_L",), utility=1.0, support=3)
        feat = pattern_feature(pat, train_ds, specs, "HAFCP_1")
        aug = dataset.append_numeric_column(train_ds, "HAFCP_1", feat.values)
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


class TestRunComparison:
    @pytest.fixture()
    def setup(self, tiny_csv):
        train_ds, test_ds = tiny_splits(tiny_csv)
        specs, _ = fuzzify.fit_all_memberships(train_ds)
        params = BoostParams(n_estimators=4, min_child_weight=0.0)
        model = gbdt.train(train_ds, params)
        baseline = gbdt.evaluate(test_ds.label,
                                 gbdt.predict_proba(model, test_ds))
        patterns = [Pattern(("Age_L", "Spending_M"), 2.4, 3),
                    Pattern(("Shop Location=N", "Spending_M"), 1.5, 3),
                    Pattern(("Age_H",), 1.0, 2)]
        return train_ds, test_ds, specs, params, baseline, patterns

    def test_one_row_per_pattern(self, setup):
        train_ds, test_ds, specs, params, baseline, patterns = setup
        report = run_comparison(train_ds, test_ds, specs, patterns, params,
                                baseline)
        assert sorted(report.per_pattern) == [1, 2, 3]
        assert report.patterns == tuple(patterns)

    def test_cumulative_differs_from_independent(self, setup):
        train_ds, test_ds, specs, params, baseline, patterns = setup
        indep = run_comparison(train_ds, test_ds, specs, patterns, params,
                               baseline, cumulative=False)
        cumul = run_comparison(train_ds, test_ds, specs, patterns, params,
                               baseline, cumulative=True)
        # top-1 rows agree by construction (same single column)
        assert cumul.per_pattern[1] == indep.per_pattern[1]

    def test_markdown_layout(self, setup):
        train_ds, test_ds, specs, params, baseline, patterns = setup
        report = run_comparison(train_ds, test_ds, specs, patterns, params,
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
