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
reaches the caller with its type, message and attributes. Given the
baseline model, each retrain is warm-started from it (`gbdt.train`'s
`prefix`): it takes the baseline's trees for as long as the appended columns
would not change them, and its model stays bit-identical to a cold fit.

Before any retrain, one warm replay of the baseline runs with every rank's
columns appended (`gbdt.replay`); it finds the ranks whose columns change
no tree. A column's gains do not depend on which other columns share the
fit, so one replay serves every rank. Only the other ranks are retrained,
forked only when more than one is; a rank that keeps every tree gets the
metrics of the baseline's test predictions, computed once. The replay stops
once more than half of the ranks change a tree: the retrains then take
most of the report's time, and its ranks still unknown are retrained.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dataset import ColumnarDataset, append_numeric_column
from .errors import UnresolvableItem
from .fuzzify import BinaryFrame
from .gbdt import (BoostedModel, BoostParams, Metrics, TrainStats, evaluate,
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
    # baseline trees each rank's retrain reused, in rank order; a work
    # count, so not part of to_dict
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


def _retrain(i: int) -> tuple[Metrics, int]:
    """The top-i evaluation of the current job, and the trees it reused,
    with columns HAFCP_1..HAFCP_i (cumulative mode) or HAFCP_i appended."""
    train_ds, test_ds, columns, params, cumulative, threshold, prefix = _JOB
    train_ds, test_ds = _appended(train_ds, test_ds, columns,
                                  range(1, i + 1) if cumulative else [i])
    stats = TrainStats()
    model = train(train_ds, params, stats, prefix)
    probs = predict_proba(model, test_ds)
    return (evaluate(test_ds.label, probs, threshold=threshold),
            stats.reused_trees)


def _retrain_all(ranks: list[int], workers: int
                 ) -> list[tuple[Metrics, int]]:
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
                return list(pool.map(_retrain, ranks))
            finally:
                # joins every worker; after a failure, drops unstarted ranks
                pool.shutdown(cancel_futures=True)
    return [_retrain(i) for i in ranks]


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
    1..i instead. `prefix`, the baseline model of train_ds, warm-starts
    every retrain. The retrains run in min(retrains, usable CPUs) forked
    workers, or serially where that is one or the platform cannot fork. A
    worker's error reaches the caller with its type, message and
    attributes.

    Given `prefix`, one replay with every rank's columns appended comes
    first (`gbdt.replay`). A rank that it finds to change no tree of prefix
    is not retrained: its model would be prefix's, so it gets the metrics
    of prefix's test predictions.
    """
    global _JOB
    k = len(patterns)
    ranks = list(range(1, k + 1))
    results: dict[int, tuple[Metrics, int]] = {}
    if prefix is not None:
        all_train, _ = _appended(train_ds, test_ds, columns, ranks)
        firsts = replay(all_train, params, prefix,
                        [range(i) if cumulative else [i - 1] for i in ranks])
        kept = [i for i in ranks if firsts[i - 1] == params.n_estimators]
        if kept:
            metrics = evaluate(test_ds.label, predict_proba(prefix, test_ds),
                               threshold=threshold)
            results = {i: (metrics, params.n_estimators) for i in kept}
        ranks = [i for i in ranks if i not in results]
    workers = (min(len(ranks), len(os.sched_getaffinity(0)))
               if hasattr(os, "sched_getaffinity") else 1)
    _JOB = (train_ds, test_ds, columns, params, cumulative, threshold, prefix)
    try:
        results.update(zip(ranks, _retrain_all(ranks, workers)))
    finally:
        _JOB = None
    results = [results[i] for i in range(1, k + 1)]
    return build_report(baseline,
                        [(i, m) for i, (m, _) in enumerate(results, start=1)],
                        patterns=patterns,
                        config_fingerprint=config_fingerprint,
                        reused_trees=tuple(r for _, r in results))


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
