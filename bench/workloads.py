"""The benchmark's three workloads: seeded input tables plus pipeline configs.

Every input comes from one SplitMix64 stream seeded with the benchmark's
``--seed``; the program receives only the CSV and the config. Each workload
loads a different layer of the pipeline (see README.md).

Regenerate the inputs of one workload without running anything:

    python3 bench/workloads.py --workload mine-wide --seed 3 --out /tmp/mw
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from splitmix import Draws

INPUT = "input.csv"
OUTPUT_DIR = "out"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_csv: Callable[[int], str]
    config: dict
    # "nproc" runs the report's thread pool at the core count; "1" is serial.
    threads: str
    # Items the top-1 pattern must hold: all of them, or at least one.
    rule_items: tuple[str, ...] = ()
    rule_needs_all: bool = True
    # Further input files: name -> function returning the file's text.
    extra_files: dict = field(default_factory=dict)

    def full_config(self) -> dict:
        cfg = {"input": INPUT, "output_dir": OUTPUT_DIR}
        cfg.update(self.config)
        return cfg


def planted_csv(seed: int, n: int = 2000) -> str:
    """The acceptance suite's planted table (tests/synthdata.planted_csv_text).

    UsageA and SpendB uniform on [0, 100); churn = (UsageA < 25 and
    25 < SpendB < 75) XOR a 5% flip; NoiseC gaussian and Region (4 values)
    are distractors. Draw order matches the suite's generator exactly.
    """
    d = Draws(seed)
    usage = d.uniform(n) * 100.0
    spend = d.uniform(n) * 100.0
    noise = 50.0 + 10.0 * d.normal(n)
    region = d.below(n, 4)
    flip = d.uniform(n) < 0.05
    churn = ((usage < 25.0) & (spend > 25.0) & (spend < 75.0)) ^ flip
    names = ("north", "south", "east", "west")
    lines = ["Region,UsageA,SpendB,NoiseC,Churn"]
    for r, u, s, z, c in zip(region.tolist(), usage.tolist(), spend.tolist(),
                             noise.tolist(), churn.tolist()):
        lines.append(f"{names[r]},{u!r},{s!r},{z!r},{'yes' if c else 'no'}")
    return "\n".join(lines) + "\n"


MINE_WIDE_COLUMNS = 20
PROFITS = "profits.csv"


def mine_wide_csv(seed: int, n: int = 2000) -> str:
    """n rows of MINE_WIDE_COLUMNS uniform numeric columns X01..X20 on [0, 100).

    Churn is planted on X01..X08: at least 4 of them below 35, XOR a 5% flip.
    Every column is numeric, so each row yields exactly one L/M/H item per
    column.
    """
    d = Draws(seed)
    m = MINE_WIDE_COLUMNS
    X = (d.uniform(n * m) * 100.0).reshape(n, m)
    flip = d.uniform(n) < 0.05
    churn = ((X[:, :8] < 35.0).sum(axis=1) >= 4) ^ flip
    lines = [",".join([f"X{j + 1:02d}" for j in range(m)] + ["Churn"])]
    for row, c in zip(np.round(X, 3).tolist(), churn.tolist()):
        lines.append(",".join(repr(v) for v in row) + ("," + ("1" if c else "0")))
    return "\n".join(lines) + "\n"


def mine_wide_profits() -> str:
    """Equal external importance for every column.

    Gain importance from a 10-tree model ranks the columns differently for
    every seed, and the search's work swings by 2x with that ranking; fixed
    profits keep the miner's work comparable across seeds.
    """
    return _profits_csv({f"X{j + 1:02d}": 1.0 for j in range(MINE_WIDE_COLUMNS)})


def _profits_csv(scores: dict[str, float]) -> str:
    return "feature,score\n" + "".join(f"{k},{v!r}\n" for k, v in scores.items())


def encode_tall_csv(seed: int, n: int = 20000) -> str:
    """A bank-churn-shaped table: id, 2 categorical and 8 numeric columns.

    Churn is planted on activity and age: ActiveDays < 3, or Age >= 60 and
    ActiveDays < 12, XOR a 2% flip; products, credit score, support calls and
    balance shift the base rate.
    CustomerId is unique and dropped by the config. The clips and the odd
    number of integer levels pin each numeric column's min, median and max
    across seeds, so the fitted memberships, and with them the encoding work
    and the artifact bytes, stay comparable between seeds.
    """
    d = Draws(seed)
    credit = np.clip(np.round(65.0 + 9.5 * d.normal(n)) * 10.0, 350, 850)
    geo = d.below(n, 4)  # France twice as likely as Germany or Spain
    gender = d.below(n, 2)
    age = np.clip(np.round(38.0 + 10.0 * d.normal(n)), 18, 70)
    tenure = d.below(n, 11)
    has_balance = d.uniform(n) >= 0.35
    balance = np.where(has_balance,
                       np.round(np.clip(120000.0 + 30000.0 * d.normal(n),
                                        0.0, 200000.0), 2),
                       0.0)
    products = 1 + np.searchsorted([0.45, 0.9, 0.98], d.uniform(n), side="right")
    salary = np.round(d.uniform(n) * 200000.0, 2)
    active = d.below(n, 31)
    calls = d.below(n, 11)
    base = (0.04 + 0.10 * (products >= 3) + 0.03 * (credit < 500)
            + 0.02 * (calls >= 7) + 0.02 * (balance > 150000.0))
    rule = (active < 3) | ((age >= 60) & (active < 12))
    churn = (rule | (d.uniform(n) < base)) ^ (d.uniform(n) < 0.02)
    geo_names = ("France", "France", "Germany", "Spain")
    gender_names = ("Male", "Female")
    lines = ["CustomerId,CreditScore,Geography,Gender,Age,Tenure,Balance,"
             "NumOfProducts,EstimatedSalary,ActiveDays,SupportCalls,Exited"]
    cols = zip(credit.astype(np.int64).tolist(), geo.tolist(), gender.tolist(),
               age.astype(np.int64).tolist(), tenure.tolist(), balance.tolist(),
               products.tolist(), salary.tolist(), active.tolist(),
               calls.tolist(), churn.tolist())
    for i, (cs, g, s, a, t, b, p, sal, act, cl, c) in enumerate(cols):
        lines.append(f"{15600000 + i},{cs},{geo_names[g]},{gender_names[s]},"
                     f"{a},{t},{b!r},{p},{sal!r},{act},{cl},{1 if c else 0}")
    return "\n".join(lines) + "\n"


ENCODE_TALL_PROFITS = {
    "CreditScore": 0.5, "Geography": 0.3, "Gender": 0.2, "Age": 2.0,
    "Tenure": 0.3, "Balance": 0.8, "NumOfProducts": 1.0,
    "EstimatedSalary": 0.2, "ActiveDays": 3.0, "SupportCalls": 0.5}


def encode_tall_profits() -> str:
    """Fixed external importance, nonzero for every column.

    With gain importance, which of the weak columns a 5-tree model splits on
    (and so which columns get fuzzified at all) changes with the seed; fixed
    profits encode all eight numeric columns on every seed.
    """
    return _profits_csv(ENCODE_TALL_PROFITS)


WORKLOADS = {
    "planted-2k": Workload(
        name="planted-2k",
        why="acceptance planted table, default config: GBDT fits (baseline "
            "plus 5 report retrains on the shipped thread pool) dominate",
        make_csv=planted_csv,
        config={"label_column": "Churn", "positive_label": "yes"},
        threads="nproc",
        rule_items=("SpendB_M", "UsageA_L"),
        rule_needs_all=True),
    "mine-wide": Workload(
        name="mine-wide",
        why="20 numeric columns, one L/M/H item each per row, equal profits, "
            "small boosting: exact top-k search dominates",
        make_csv=mine_wide_csv,
        config={"label_column": "Churn", "positive_label": "1",
                "boost": {"n_estimators": 10, "max_depth": 4},
                "importance": {"method": "external", "path": PROFITS},
                "mining": {"k": 5, "mode": "binary"}},
        threads="1",
        extra_files={PROFITS: mine_wide_profits}),
    "encode-tall": Workload(
        name="encode-tall",
        why="20k-row bank-churn table, membership mining: CSV parsing, "
            "fuzzy encoding and frame serialization dominate",
        make_csv=encode_tall_csv,
        config={"label_column": "Exited", "positive_label": "1",
                "drop_columns": ["CustomerId"],
                "boost": {"n_estimators": 5, "max_depth": 3},
                "importance": {"method": "external", "path": PROFITS},
                "mining": {"k": 2, "mode": "membership", "max_length": 3}},
        threads="1",
        extra_files={PROFITS: encode_tall_profits},
        rule_items=("ActiveDays_L", "Age_H"),
        rule_needs_all=False),
}


def write_inputs(workload: Workload, seed: int, directory: str) -> str:
    """Write input.csv, the extra input files and config.json; return the config path."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, INPUT), "w", encoding="utf-8",
              newline="\n") as f:
        f.write(workload.make_csv(seed))
    for name, make in workload.extra_files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8",
                  newline="\n") as f:
            f.write(make())
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(workload.full_config(), f, indent=1, sort_keys=True)
        f.write("\n")
    return config_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="directory to write input.csv and config.json")
    args = parser.parse_args()
    path = write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    print(f"wrote {os.path.join(args.out, INPUT)} and {path}")


if __name__ == "__main__":
    main()
