"""Fuzzy churn pattern mining.

Pipeline: train a gradient-boosted tree classifier on labeled churn data,
fuzzify numeric features into Low/Medium/High linguistic items, mine the
top-k highest-utility itemsets over the churned rows (feature importance as
unit profit), and feed the mined patterns back in as engineered features
with a before/after metrics report.
"""

from .dataset import (ColumnSchema, ColumnarDataset, SplitSpec,
                      append_numeric_column, drop_columns, load_csv, split)
from .errors import HafcpError
from .fuzzify import (BinaryFrame, FuzzyAssignment, MembershipSpec,
                      NormalityResult, assign_term, fit_all_memberships,
                      fit_membership, gaussian_mu, shapiro_wilk,
                      to_binary_frame, triangular_mu)
from .gbdt import (BoostParams, BoostedModel, ImportanceTable, Metrics,
                   TrainStats, evaluate, importance, load_importance,
                   predict_proba, train)
from .miner import (MiningConfig, Pattern, ProfitTable, SearchStats,
                    TransactionDB, brute_force_topk, build_transactions,
                    mine_topk, utility)
from .augment import (ComparisonReport, PatternFeature, build_report,
                      evaluate_with_pattern, pattern_feature, run_comparison)

__version__ = "0.1.0"

__all__ = [
    "HafcpError",
    "ColumnSchema", "ColumnarDataset", "SplitSpec", "load_csv", "split",
    "drop_columns", "append_numeric_column",
    "BoostParams", "BoostedModel", "ImportanceTable", "Metrics", "TrainStats",
    "train",
    "predict_proba", "evaluate", "importance", "load_importance",
    "NormalityResult", "MembershipSpec", "FuzzyAssignment", "BinaryFrame",
    "shapiro_wilk", "fit_membership", "fit_all_memberships", "triangular_mu",
    "gaussian_mu", "assign_term", "to_binary_frame",
    "Pattern", "ProfitTable", "TransactionDB", "MiningConfig", "SearchStats",
    "build_transactions", "utility", "mine_topk", "brute_force_topk",
    "PatternFeature", "ComparisonReport", "pattern_feature",
    "evaluate_with_pattern", "build_report", "run_comparison",
    "__version__",
]
