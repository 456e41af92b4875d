"""Deterministic synthetic data built on the package's own PRNG.

Everything here derives from SplitMix64 so the generated bytes are identical
on every platform and numpy version — the suite freezes expected values
against these exact streams.
"""

import math

import numpy as np

from hafcp.dataset import (CATEGORICAL, LABEL, NUMERIC, ColumnSchema,
                           ColumnarDataset)
from hafcp.miner import BINARY, MEMBERSHIP, TransactionDB
from hafcp.rng import SplitMix64


def sm_uniform(r: SplitMix64) -> float:
    """Uniform in [0,1) with 53 random mantissa bits."""
    return (r.next_u64() >> 11) * 2.0 ** -53


def sm_normal(r: SplitMix64) -> float:
    """Standard normal via Box-Muller (one draw per call)."""
    u1 = sm_uniform(r)
    u2 = sm_uniform(r)
    return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


def make_sample(dist: str, n: int, seed: int) -> list[float]:
    r = SplitMix64(seed)
    if dist == "normal":
        return [sm_normal(r) for _ in range(n)]
    if dist == "uniform":
        return [sm_uniform(r) for _ in range(n)]
    if dist == "exponential":
        return [-math.log(1.0 - sm_uniform(r)) for _ in range(n)]
    if dist == "lognormal":
        return [math.exp(0.5 * sm_normal(r)) for _ in range(n)]
    if dist == "bimodal":
        return [sm_normal(r) + (3.0 if sm_uniform(r) < 0.5 else -3.0)
                for _ in range(n)]
    raise ValueError(dist)


def db_from_dicts(items: list[str], transactions: list[dict[int, float]],
                  mode: str) -> TransactionDB:
    """A TransactionDB from one {item index: quantity} map per transaction."""
    present = np.zeros((len(transactions), len(items)), dtype=bool)
    quantity = np.zeros(present.shape)
    for t, txn in enumerate(transactions):
        for i, q in txn.items():
            present[t, i] = True
            quantity[t, i] = q
    return TransactionDB(items=items, present=present, quantity=quantity,
                         mode=mode)


def random_db(seed: int, max_items: int = 12, max_transactions: int = 50
              ) -> tuple[TransactionDB, dict[str, float]]:
    """Random mining instance: items a..l, random profits in [0,1]."""
    r = SplitMix64(seed)
    n_items = 2 + r.below(max_items - 1)  # 2..max_items
    n_trans = 1 + r.below(max_transactions)
    items = [chr(ord("a") + i) for i in range(n_items)]
    profits = {name: sm_uniform(r) for name in items}
    mode = BINARY if r.below(2) == 0 else MEMBERSHIP
    transactions = []
    for _ in range(n_trans):
        txn = {}
        for i in range(n_items):
            if sm_uniform(r) < 0.4:
                txn[i] = sm_uniform(r) if mode == MEMBERSHIP else 1.0
        if not txn:
            txn[r.below(n_items)] = 1.0 if mode == BINARY else sm_uniform(r)
        transactions.append(txn)
    return db_from_dicts(items, transactions, mode), profits


def structured_db(n_columns: int, n_transactions: int = 2000, seed: int = 0,
                  equal_profits: bool = False
                  ) -> tuple[TransactionDB, dict[str, float]]:
    """One of three terms per column in every transaction, as real frames have.

    Items are c00_L, c00_M, c00_H, c01_L, ...; each transaction takes one term
    per column uniformly at random. A column's terms share its profit: 1.0
    with equal_profits, else uniform in [0.5, 1.5).
    """
    r = SplitMix64(seed)
    items = [f"c{c:02d}_{t}" for c in range(n_columns) for t in "LMH"]
    present = np.zeros((n_transactions, len(items)), dtype=bool)
    for t in range(n_transactions):
        for c in range(n_columns):
            present[t, 3 * c + r.below(3)] = True
    profits = {}
    for c in range(n_columns):
        p = 1.0 if equal_profits else 0.5 + sm_uniform(r)
        profits.update({f"c{c:02d}_{t}": p for t in "LMH"})
    return (TransactionDB(items=items, present=present,
                          quantity=present.astype(np.float64), mode=BINARY),
            profits)


def planted_dataset(n: int = 2000, seed: int = 424243) -> ColumnarDataset:
    """Churn rule planted in two numeric features, 5% label noise.

    UsageA and SpendB are uniform on [0,100); churn is (A < 25) and
    (25 < B < 75), XOR a 5% random flip. NoiseC (gaussian) and Region
    (4 categories) are distractors.
    """
    r = SplitMix64(seed)
    usage = np.array([sm_uniform(r) * 100.0 for _ in range(n)])
    spend = np.array([sm_uniform(r) * 100.0 for _ in range(n)])
    noise = np.array([50.0 + 10.0 * sm_normal(r) for _ in range(n)])
    region = np.array([r.below(4) for _ in range(n)], dtype=np.int64)
    rule = (usage < 25.0) & (spend > 25.0) & (spend < 75.0)
    flip = np.array([sm_uniform(r) < 0.05 for _ in range(n)])
    labels = (rule ^ flip).astype(np.int64)
    schema = [
        ColumnSchema("Region", CATEGORICAL, ("north", "south", "east", "west")),
        ColumnSchema("UsageA", NUMERIC),
        ColumnSchema("SpendB", NUMERIC),
        ColumnSchema("NoiseC", NUMERIC),
        ColumnSchema("Churn", LABEL, ("no", "yes")),
    ]
    columns = {"Region": region, "UsageA": usage, "SpendB": spend,
               "NoiseC": noise, "Churn": labels}
    return ColumnarDataset(schema, columns, labels)


def planted_csv_text(n: int = 2000, seed: int = 424243) -> str:
    """The planted dataset rendered as CSV (labels yes/no, regions named)."""
    ds = planted_dataset(n=n, seed=seed)
    region_names = ("north", "south", "east", "west")
    lines = ["Region,UsageA,SpendB,NoiseC,Churn"]
    for i in range(ds.n_rows):
        lines.append(",".join([
            region_names[int(ds.columns["Region"][i])],
            repr(float(ds.columns["UsageA"][i])),
            repr(float(ds.columns["SpendB"][i])),
            repr(float(ds.columns["NoiseC"][i])),
            "yes" if ds.label[i] else "no",
        ]))
    return "\n".join(lines) + "\n"


def toy_separable(n: int = 50, seed: int = 99) -> ColumnarDataset:
    """One informative feature: label = (x >= 0), plus a constant-ish tail."""
    r = SplitMix64(seed)
    x = np.array([(sm_uniform(r) - 0.5) * 10.0 for _ in range(n)])
    y = (x >= 0).astype(np.int64)
    schema = [ColumnSchema("x", NUMERIC),
              ColumnSchema("noise", NUMERIC),
              ColumnSchema("y", LABEL, ("0", "1"))]
    noise = np.array([sm_uniform(r) for _ in range(n)])
    return ColumnarDataset(schema, {"x": x, "noise": noise, "y": y}, y)


def random_labeled(n: int, d: int, seed: int) -> ColumnarDataset:
    """Noisy linear-ish binary problem for loss-curve and determinism checks."""
    r = SplitMix64(seed)
    cols = {}
    schema = []
    X = np.empty((n, d))
    for j in range(d):
        X[:, j] = [sm_normal(r) for _ in range(n)]
        schema.append(ColumnSchema(f"f{j}", NUMERIC))
    w = np.array([sm_normal(r) for _ in range(d)])
    margin = X @ w
    y = np.array([1 if m + 0.5 * sm_normal(r) > 0 else 0 for m in margin],
                 dtype=np.int64)
    if y.min() == y.max():  # keep both classes present
        y[0] = 1 - y[0]
    for j in range(d):
        cols[f"f{j}"] = X[:, j]
    schema.append(ColumnSchema("y", LABEL, ("0", "1")))
    cols["y"] = y
    return ColumnarDataset(schema, cols, y)


def bank_churn_dataset(n: int = 3000, seed: int = 9001
                       ) -> tuple[ColumnarDataset, np.ndarray]:
    """A bank-churn-shaped table and one 0/1 column to append to it.

    Eight integer columns of 2-53 values (CreditScore in tens, Age,
    Tenure, NumOfProducts, HasCrCard, IsActive, SupportCalls, Geography
    as codes) and two continuous ones (Balance, 35% zero, and
    EstimatedSalary). Churn rises with age among inactive members, with
    three or more products and with many support calls, XOR a 5% flip. The
    second value is the pattern column "Age >= 60 and SupportCalls >= 8".
    """
    r = SplitMix64(seed)

    def ints(lo, hi):
        return np.array([lo + r.below(hi - lo + 1) for _ in range(n)],
                        dtype=np.float64)

    credit = ints(35, 85) * 10.0
    age = ints(18, 70)
    tenure = ints(0, 10)
    products = ints(1, 4)
    card = ints(0, 1)
    active = ints(0, 1)
    calls = ints(0, 10)
    geography = ints(0, 2)
    balance = np.array([0.0 if sm_uniform(r) < 0.35
                        else round(sm_uniform(r) * 200000.0, 2)
                        for _ in range(n)])
    salary = np.array([round(sm_uniform(r) * 200000.0, 2) for _ in range(n)])
    rate = (0.05 + 0.45 * ((age >= 55) & (active == 0))
            + 0.25 * (products >= 3)
            + 0.02 * calls + 0.05 * (balance > 150000.0))
    churn = np.array([sm_uniform(r) < p for p in rate])
    flip = np.array([sm_uniform(r) < 0.05 for _ in range(n)])
    labels = (churn ^ flip).astype(np.int64)
    pattern = ((age >= 60) & (calls >= 8)).astype(np.float64)
    columns = {"CreditScore": credit, "Age": age, "Tenure": tenure,
               "NumOfProducts": products, "HasCrCard": card,
               "IsActive": active, "SupportCalls": calls,
               "Geography": geography, "Balance": balance,
               "EstimatedSalary": salary}
    schema = [ColumnSchema(name, NUMERIC) for name in columns]
    schema.append(ColumnSchema("Exited", LABEL, ("0", "1")))
    columns["Exited"] = labels
    return ColumnarDataset(schema, columns, labels), pattern
