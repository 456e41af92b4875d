"""Turn mined patterns into engineered features and compare model metrics.

A pattern's feature is a 0/1 indicator column: a row has it when the row's
encoded frame (`fuzzify.to_binary_frame`, with the train-fitted membership
specs for train and test rows alike) carries every item of the pattern.
`match_rows` builds that column from a frame. Each top-i pattern's train and
test columns are appended after all original features; the model is
retrained with identical parameters and evaluated on the test split, giving
the Baseline / Top-1..Top-k / AVG comparison table.

The k retrains are independent. `run_comparison` runs them in a fork-based
process pool of min(k, usable CPUs) workers, or serially when that is one
or the platform cannot fork; results are gathered in rank order, so the
report's bytes do not depend on the worker count, and a worker's error
reaches the caller with its type, message and attributes.

Given the baseline model, one replay of it runs first, with every rank's
columns appended (`gbdt.replay`). A column's gains do not depend on which
other columns share the fit, so one replay finds, for every rank, how many
leading baseline trees its retrain keeps. A rank that keeps every tree is
not retrained: it gets the metrics of the baseline's test predictions,
computed once. Every other rank continues its kept trees (`gbdt.train`'s
`prefix`) and grows the rest, forked only when more than one rank is
retrained; its model is bit-identical to a cold fit. The replay stops once
more than half of the ranks change a tree, since the retrains then take
most of the report's time; a rank it has not decided keeps the trees
replayed so far.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dataset import ColumnarDataset, append_numeric_column
from .errors import UnresolvableItem
from .fuzzify import BinaryFrame
from .gbdt import (BoostedModel, BoostParams, Metrics, evaluate,
                   predict_proba, replay, train)
from .miner import Pattern

METRIC_NAMES = ("auc", "accuracy", "recall", "precision", "f1")

# A pattern's indicator columns over the (train, test) splits.
ColumnPair = tuple[np.ndarray, np.ndarray]


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


@dataclass(frozen=True)
class ComparisonReport:
    baseline: Metrics
    per_pattern: dict[int, Metrics]
    average: Metrics
    flags: dict[int, dict[str, str]]
    average_flags: dict[str, str]
    config_fingerprint: str
    patterns: tuple[Pattern, ...] = ()
    # baseline trees each rank's model kept, in rank order; a work count,
    # so not part of to_dict
    reused_trees: tuple[int, ...] = ()

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
                 config_fingerprint: str = "",
                 reused_trees: tuple[int, ...] = ()) -> ComparisonReport:
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
                            patterns=tuple(patterns or ()),
                            reused_trees=tuple(reused_trees))


# The retrains' inputs while run_comparison runs: (train_ds, test_ds,
# columns, params, cumulative, threshold, prefix). Pool workers inherit them
# through fork instead of receiving pickled copies of the datasets.
_JOB: tuple | None = None


def _appended(train_ds: ColumnarDataset, test_ds: ColumnarDataset,
              columns: list[ColumnPair], ranks
              ) -> tuple[ColumnarDataset, ColumnarDataset]:
    """Both splits with column HAFCP_j appended for each rank j in ranks."""
    for j in ranks:
        train_col, test_col = columns[j - 1]
        train_ds = append_numeric_column(train_ds, f"HAFCP_{j}", train_col)
        test_ds = append_numeric_column(test_ds, f"HAFCP_{j}", test_col)
    return train_ds, test_ds


def _retrain(i: int, kept: int) -> Metrics:
    """The top-i evaluation of the current job, with columns
    HAFCP_1..HAFCP_i (cumulative mode) or HAFCP_i appended, continuing the
    first `kept` trees of its prefix."""
    train_ds, test_ds, columns, params, cumulative, threshold, prefix = _JOB
    train_ds, test_ds = _appended(train_ds, test_ds, columns,
                                  range(1, i + 1) if cumulative else [i])
    if prefix is not None:
        prefix = BoostedModel(prefix.trees[:kept], prefix.base_score,
                              prefix.feature_names, prefix.params,
                              prefix.train_loss[:kept + 1])
    model = train(train_ds, params, None, prefix)
    probs = predict_proba(model, test_ds)
    return evaluate(test_ds.label, probs, threshold=threshold)


def _retrain_all(ranks: list[int], kept: list[int], workers: int
                 ) -> list[Metrics]:
    """_retrain for each of ranks in order, forked when workers > 1."""
    if workers > 1:
        # imported here: the CLI imports this module, and set-up time counts
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            # unlike multiprocessing.Pool, this raises BrokenProcessPool
            # when a worker dies instead of waiting for it forever
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(workers,
                                       multiprocessing.get_context("fork"))
            try:
                return list(pool.map(_retrain, ranks, kept))
            finally:
                # joins every worker; after a failure, drops unstarted ranks
                pool.shutdown(cancel_futures=True)
    return [_retrain(i, n) for i, n in zip(ranks, kept)]


def run_comparison(train_ds: ColumnarDataset, test_ds: ColumnarDataset,
                   patterns: list[Pattern], columns: list[ColumnPair],
                   params: BoostParams, baseline: Metrics,
                   cumulative: bool = False, threshold: float = 0.5,
                   config_fingerprint: str = "",
                   prefix: BoostedModel | None = None) -> ComparisonReport:
    """Retrain once per top-i pattern and build the report.

    `columns[i]` holds pattern i's indicator columns over the train and test
    splits, as `match_rows` builds them. Default is one engineered column per
    evaluation (top-i alone); cumulative mode stacks columns for patterns
    1..i instead. The retrains run in min(retrains, usable CPUs) forked
    workers, or serially where that is one or the platform cannot fork. A
    worker's error reaches the caller with its type, message and
    attributes.

    Given `prefix`, the baseline model of train_ds, one replay with every
    rank's columns appended comes first (`gbdt.replay`); it raises
    PrefixMismatch where prefix is not the baseline fit. A rank that keeps
    every tree of prefix is not retrained: its model would be prefix's, so
    it gets the metrics of prefix's test predictions. Every other rank's
    retrain continues the trees it keeps.
    """
    global _JOB
    ranks = list(range(1, len(patterns) + 1))
    kept = [0] * len(ranks)
    if prefix is not None:
        kept = replay(_appended(train_ds, test_ds, columns, ranks)[0], params,
                      prefix,
                      [range(i) if cumulative else [i - 1] for i in ranks])
    results: dict[int, Metrics] = {}
    if params.n_estimators in kept:
        metrics = evaluate(test_ds.label, predict_proba(prefix, test_ds),
                           threshold=threshold)
        results = {i: metrics for i, n in zip(ranks, kept)
                   if n == params.n_estimators}
    retrained = [i for i in ranks if i not in results]
    workers = (min(len(retrained), len(os.sched_getaffinity(0)))
               if hasattr(os, "sched_getaffinity") else 1)
    _JOB = (train_ds, test_ds, columns, params, cumulative, threshold, prefix)
    try:
        results.update(zip(retrained, _retrain_all(
            retrained, [kept[i - 1] for i in retrained], workers)))
    finally:
        _JOB = None
    return build_report(baseline, [(i, results[i]) for i in ranks],
                        patterns=patterns,
                        config_fingerprint=config_fingerprint,
                        reused_trees=tuple(kept))


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
