"""Fuzzy churn pattern mining.

Pipeline: train a gradient-boosted tree classifier on labeled churn data,
fuzzify numeric features into Low/Medium/High linguistic items, mine the
top-k highest-utility itemsets over the churned rows (feature importance as
unit profit), and feed the mined patterns back in as engineered features
with a before/after metrics report.

The names below load their submodule on first use (PEP 562), so
``import hafcp`` imports no numpy. The CLI relies on that: under
``python -m hafcp.cli`` this file runs first, and ``hafcp.cli`` must be the
first to load numpy to choose its BLAS threads.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOMES = {name: module for module, names in {
    "errors": ["HafcpError"],
    "dataset": ["ColumnSchema", "ColumnarDataset", "SplitSpec", "load_csv",
                "split", "drop_columns", "append_numeric_column"],
    "gbdt": ["BoostParams", "BoostedModel", "ImportanceTable", "Metrics",
             "TrainStats", "train", "predict_proba", "evaluate", "importance",
             "load_importance"],
    "fuzzify": ["NormalityResult", "MembershipSpec", "BinaryFrame",
                "shapiro_wilk", "fit_membership", "fit_all_memberships",
                "to_binary_frame"],
    "miner": ["Pattern", "TransactionDB", "MiningConfig", "SearchStats",
              "build_transactions", "mine_topk"],
    "augment": ["ComparisonReport", "build_report", "run_comparison"],
}.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
