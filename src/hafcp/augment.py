"""Turn mined patterns into engineered features and compare model metrics.

A Pattern matches a row when every one of its items is present in the row's
one-hot/fuzzified representation (computed with train-fitted membership
specs, the same specs for train and test rows). Each top-i pattern becomes a
binary indicator column appended after all original features; the model is
retrained with identical parameters and evaluated on the test split, giving
the Baseline / Top-1..Top-k / AVG comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, ColumnarDataset, append_numeric_column
from .errors import LineageError, UnresolvableItem
from .fuzzify import TERMS, BinaryFrame, MembershipSpec, assign_term
from .gbdt import BoostParams, Metrics, evaluate, predict_proba, train
from .miner import Pattern

METRIC_NAMES = ("auc", "accuracy", "recall", "precision", "f1")


@dataclass(frozen=True)
class PatternFeature:
    pattern: Pattern
    column_name: str
    values: np.ndarray  # 0/1 per row


def match_rows(frame: BinaryFrame, items) -> np.ndarray:
    """Indicator over frame rows: 1 iff every item's column is 1."""
    out = np.ones(frame.n_rows, dtype=np.uint8)
    for item in items:
        try:
            j = frame.item_names.index(item)
        except ValueError:
            raise UnresolvableItem(f"item {item!r} not in frame") from None
        out &= frame.rows[:, j].astype(np.uint8)
    return out


def _resolve_item(item: str, ds: ColumnarDataset,
                  spec_by_col: dict[str, MembershipSpec]):
    for term in TERMS:
        suffix = f"_{term}"
        if item.endswith(suffix):
            col = item[: -len(suffix)]
            if col in spec_by_col and col in ds.numeric_columns():
                return ("fuzzy", col, term)
    for col in ds.categorical_columns():
        prefix = col + "="
        if item.startswith(prefix):
            value = item[len(prefix):]
            cmap = ds.schema_of(col).category_map or ()
            if value in cmap:
                return ("categorical", col, cmap.index(value))
    raise UnresolvableItem(
        f"item {item!r} matches no fuzzified numeric or categorical column")


def pattern_feature(pattern: Pattern, ds: ColumnarDataset,
                    specs: list[MembershipSpec],
                    column_name: str = "HAFCP_1") -> PatternFeature:
    """Binary indicator column: row is 1 iff it exhibits every pattern item."""
    spec_by_col = {s.column: s for s in specs}
    values = np.ones(ds.n_rows, dtype=np.uint8)
    for item in pattern.items:
        kind, col, which = _resolve_item(item, ds, spec_by_col)
        if kind == "fuzzy":
            spec = spec_by_col[col]
            hits = np.fromiter(
                (1 if assign_term(float(x), spec).term == which else 0
                 for x in ds.columns[col]),
                dtype=np.uint8, count=ds.n_rows)
        else:
            hits = (ds.columns[col] == which).astype(np.uint8)
        values &= hits
    return PatternFeature(pattern=pattern, column_name=column_name,
                          values=values)


def _check_spec_lineage(train_ds: ColumnarDataset,
                        specs: list[MembershipSpec]) -> None:
    fp = train_ds.fingerprint()
    for spec in specs:
        if spec.source_fingerprint and spec.source_fingerprint != fp:
            raise LineageError(
                f"membership spec for {spec.column!r} was fitted on a "
                f"different split than the given train data")


def evaluate_with_patterns(train_ds: ColumnarDataset, test_ds: ColumnarDataset,
                           specs: list[MembershipSpec],
                           patterns: list[Pattern], params: BoostParams,
                           threshold: float = 0.5,
                           name_offset: int = 1) -> Metrics:
    """Append one column per pattern to both splits, retrain, evaluate on test."""
    _check_spec_lineage(train_ds, specs)
    aug_train, aug_test = train_ds, test_ds
    for i, pattern in enumerate(patterns):
        name = f"HAFCP_{name_offset + i}"
        f_train = pattern_feature(pattern, train_ds, specs, name)
        f_test = pattern_feature(pattern, test_ds, specs, name)
        aug_train = append_numeric_column(aug_train, name, f_train.values)
        aug_test = append_numeric_column(aug_test, name, f_test.values)
    model = train(aug_train, params)
    probs = predict_proba(model, aug_test)
    return evaluate(aug_test.label, probs, threshold=threshold)


def evaluate_with_pattern(train_ds: ColumnarDataset, test_ds: ColumnarDataset,
                          specs: list[MembershipSpec], pattern: Pattern,
                          params: BoostParams,
                          threshold: float = 0.5) -> Metrics:
    return evaluate_with_patterns(train_ds, test_ds, specs, [pattern], params,
                                  threshold=threshold)


@dataclass(frozen=True)
class ComparisonReport:
    baseline: Metrics
    per_pattern: dict[int, Metrics]
    average: Metrics
    flags: dict[int, dict[str, str]]
    average_flags: dict[str, str]
    config_fingerprint: str
    patterns: tuple[Pattern, ...] = ()

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.as_dict(),
            "per_pattern": {str(i): m.as_dict()
                            for i, m in sorted(self.per_pattern.items())},
            "average": self.average.as_dict(),
            "flags": {str(i): dict(f) for i, f in sorted(self.flags.items())},
            "average_flags": dict(self.average_flags),
            "config_fingerprint": self.config_fingerprint,
            "patterns": [p.to_dict() for p in self.patterns],
        }


def _flag(value: float, base: float) -> str:
    # 4-decimal rounding mirrors the report's display granularity
    v, b = round(value, 4), round(base, 4)
    if v > b:
        return "improved"
    if v < b:
        return "worse"
    return "equal"


def build_report(baseline: Metrics, augmented: list[tuple[int, Metrics]],
                 patterns: list[Pattern] | None = None,
                 config_fingerprint: str = "") -> ComparisonReport:
    """Assemble the comparison: per-pattern rows, AVG row, improvement flags."""
    if not augmented:
        raise ValueError("need at least one augmented evaluation")
    per_pattern = {i: m for i, m in augmented}
    means = {}
    for name in METRIC_NAMES:
        values = [getattr(m, name) for _, m in augmented]
        means[name] = sum(values) / len(values)
    average = Metrics(**means)
    flags = {i: {name: _flag(getattr(m, name), getattr(baseline, name))
                 for name in METRIC_NAMES}
             for i, m in augmented}
    average_flags = {name: _flag(getattr(average, name), getattr(baseline, name))
                     for name in METRIC_NAMES}
    return ComparisonReport(baseline=baseline, per_pattern=per_pattern,
                            average=average, flags=flags,
                            average_flags=average_flags,
                            config_fingerprint=config_fingerprint,
                            patterns=tuple(patterns or ()))


def run_comparison(train_ds: ColumnarDataset, test_ds: ColumnarDataset,
                   specs: list[MembershipSpec], patterns: list[Pattern],
                   params: BoostParams, baseline: Metrics,
                   cumulative: bool = False, threshold: float = 0.5,
                   config_fingerprint: str = "") -> ComparisonReport:
    """Retrain once per top-i pattern, in rank order, and build the report.

    Default is one engineered column per evaluation (top-i alone); cumulative
    mode stacks columns for patterns 1..i instead.
    """
    augmented = []
    for i in range(1, len(patterns) + 1):
        chosen = patterns[:i] if cumulative else [patterns[i - 1]]
        augmented.append((i, evaluate_with_patterns(
            train_ds, test_ds, specs, chosen, params, threshold=threshold,
            name_offset=1 if cumulative else i)))
    return build_report(baseline, augmented, patterns=patterns,
                        config_fingerprint=config_fingerprint)


def report_to_markdown(report: ComparisonReport) -> str:
    """Markdown table: metrics as rows; Baseline, Top-1..Top-k, AVG as columns.

    Cells that beat the baseline (at 4-decimal rounding) are bold.
    """
    indices = sorted(report.per_pattern)
    header = ["Metric", "Baseline"] + [f"Top-{i}" for i in indices] + ["AVG"]
    lines = ["# Baseline vs pattern-augmented metrics", ""]
    if report.patterns:
        lines.append("Patterns:")
        for rank, p in enumerate(report.patterns, start=1):
            lines.append(
                f"- Top-{rank}: {{{', '.join(p.items)}}} "
                f"(utility {p.utility:.4f}, support {p.support})")
        lines.append("")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join([" --- "] * len(header)) + "|")
    for name in METRIC_NAMES:
        row = [name.upper() if name in ("auc", "f1") else name.capitalize(),
               f"{getattr(report.baseline, name):.4f}"]
        for i in indices:
            cell = f"{getattr(report.per_pattern[i], name):.4f}"
            if report.flags[i][name] == "improved":
                cell = f"**{cell}**"
            row.append(cell)
        avg_cell = f"{getattr(report.average, name):.4f}"
        if report.average_flags[name] == "improved":
            avg_cell = f"**{avg_cell}**"
        row.append(avg_cell)
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append(f"Config fingerprint: `{report.config_fingerprint}`")
    return "\n".join(lines) + "\n"
