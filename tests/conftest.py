"""Shared fixtures: the ten-customer worked example and synthetic generators."""

import numpy as np
import pytest

from hafcp.fuzzify import BinaryFrame
from hafcp.gbdt import ImportanceTable

# Ten-customer churn table used across the suite. Columns: shop location
# (N/S/C), age, spending, churn flag. Rows A..J.
TINY_ROWS = [
    ("A", "N", 25, 5000, 1),
    ("B", "S", 30, 3000, 0),
    ("C", "N", 28, 4500, 1),
    ("D", "C", 55, 7000, 0),
    ("E", "N", 60, 1000, 1),
    ("F", "S", 35, 6500, 0),
    ("G", "N", 40, 5500, 1),
    ("H", "C", 65, 3500, 0),
    ("I", "S", 23, 4500, 1),
    ("J", "N", 50, 3000, 1),
]

TINY_CSV = "ID,Shop Location,Age,Spending,Churn\n" + "\n".join(
    f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]}" for r in TINY_ROWS) + "\n"

# Hand-assigned fuzzy labels for the same ten rows: (age term, membership),
# (spending term, membership). These are given labels, not fitted ones — the
# fixture pins the downstream mining/feature math, not the fitting.
TINY_FUZZY = {
    "A": (("L", 0.97), ("M", 0.97)),
    "B": (("L", 0.99), ("L", 0.99)),
    "C": (("L", 0.99), ("M", 1.0)),
    "D": (("M", 0.99), ("H", 0.66)),
    "E": (("H", 0.92), ("L", 0.49)),
    "F": (("M", 0.98), ("H", 0.82)),
    "G": (("M", 0.98), ("M", 0.99)),
    "H": (("H", 0.76), ("L", 0.97)),
    "I": (("L", 0.93), ("M", 1.0)),
    "J": (("H", 0.97), ("L", 0.99)),
}

TINY_ITEMS = ["SL_C", "SL_N", "SL_S",
              "Age_L", "Age_M", "Age_H",
              "Spend_L", "Spend_M", "Spend_H"]
TINY_SOURCES = ["SL"] * 3 + ["Age"] * 3 + ["Spend"] * 3
TINY_PROFITS = {"SL": 0.2, "Age": 0.5, "Spend": 0.3}


def build_tiny_frame() -> tuple[BinaryFrame, np.ndarray]:
    """One-hot frame over all ten rows using the given fuzzy labels."""
    n = len(TINY_ROWS)
    rows = np.zeros((n, len(TINY_ITEMS)), dtype=np.uint8)
    mems = np.zeros((n, len(TINY_ITEMS)), dtype=np.float64)
    labels = np.zeros(n, dtype=np.int64)
    sl_index = {"C": 0, "N": 1, "S": 2}
    term_index = {"L": 0, "M": 1, "H": 2}
    for r, (rid, sl, _age, _spend, churn) in enumerate(TINY_ROWS):
        labels[r] = churn
        j = sl_index[sl]
        rows[r, j] = 1
        mems[r, j] = 1.0
        (age_term, age_mu), (sp_term, sp_mu) = TINY_FUZZY[rid]
        j = 3 + term_index[age_term]
        rows[r, j] = 1
        mems[r, j] = age_mu
        j = 6 + term_index[sp_term]
        rows[r, j] = 1
        mems[r, j] = sp_mu
    frame = BinaryFrame(item_names=list(TINY_ITEMS),
                        item_sources=list(TINY_SOURCES),
                        rows=rows, memberships=mems)
    return frame, labels


@pytest.fixture
def tiny_frame():
    return build_tiny_frame()


@pytest.fixture
def tiny_importance():
    return ImportanceTable(method="external", scores=dict(TINY_PROFITS))


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY_CSV, encoding="utf-8")
    return str(path)
