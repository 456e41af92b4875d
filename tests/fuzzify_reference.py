"""Test oracle for `hafcp.fuzzify`'s per-column normality decision.

`fit_all_memberships` draws `normality_rows` once per split and tests every
column on those rows; `normality_decision` tests one column on its own.
"""

import numpy as np

from hafcp.fuzzify import NormalityResult, normality_rows, shapiro_wilk


def normality_decision(values, alpha: float = 0.05, seed: int = 0) -> NormalityResult:
    """shapiro_wilk on the `normality_rows` of one column."""
    values = np.asarray(values, dtype=np.float64)
    return shapiro_wilk(values[normality_rows(len(values), seed)], alpha=alpha)
