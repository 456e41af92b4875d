"""The benchmark's output checker: reference cases and perturbed outputs.

The checker must agree with known answers it did not compute (the suite's
ten-row top-5, the program's PRNG) and must reject outputs that are wrong in
the ways a broken pipeline could be wrong.
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "tests"))

import checker  # noqa: E402
import splitmix  # noqa: E402
import workloads  # noqa: E402
from conftest import TINY_FUZZY, TINY_PROFITS, TINY_ROWS  # noqa: E402
from test_miner import TINY_TOP5  # noqa: E402

from hafcp import cli, rng  # noqa: E402


def test_stream_and_shuffle_match_the_program():
    for seed in (0, 7, 2**63 + 5):
        ours, theirs = splitmix.SplitMix64(seed), rng.SplitMix64(seed)
        draws = [theirs.next_u64() for _ in range(50)]
        assert [ours.next_u64() for _ in range(50)] == draws
        assert splitmix.Draws(seed).u64(50).tolist() == draws
    assert splitmix.shuffled_indices(1000, 3) == rng.shuffled_indices(1000, 3)
    assert splitmix.ALGORITHM == rng.ALGORITHM


def test_planted_workload_is_the_suites_planted_table():
    from synthdata import planted_csv_text
    assert workloads.planted_csv(424243) == planted_csv_text()


def tiny_database(binary: bool) -> checker.MiningData:
    """The ten-row fixture's churned rows, items named as the suite names them."""
    shops = ["SL_C", "SL_N", "SL_S"]
    items = shops + [f"{c}_{t}" for c in ("Age", "Spend") for t in "LMH"]
    source = {n: n.split("_")[0] for n in items}
    rows = [r for r in TINY_ROWS if r[4] == 1]
    has = np.zeros((len(rows), len(items)), dtype=bool)
    qty = np.zeros(has.shape)
    for i, (rid, shop, *_rest) in enumerate(rows):
        (age_t, age_mu), (sp_t, sp_mu) = TINY_FUZZY[rid]
        for name, q in ((f"SL_{shop}", 1.0), (f"Age_{age_t}", age_mu),
                        (f"Spend_{sp_t}", sp_mu)):
            has[i, items.index(name)] = True
            qty[i, items.index(name)] = 1.0 if binary else q
    keep = has.any(axis=0)
    return checker.MiningData(
        items=[n for n, k in zip(items, keep) if k], has=has[:, keep],
        qty=qty[:, keep], binary=binary,
        profit=np.array([TINY_PROFITS[source[n]] for n, k in zip(items, keep) if k]))


def test_tiny_fixture_top5_by_enumeration_and_by_search():
    data = tiny_database(binary=True)
    assert checker.exhaustive_topk(data, 5, 2, None) == TINY_TOP5
    assert checker.search_topk(data, 5, 2, None) == TINY_TOP5


def test_equal_utilities_order_by_length_then_names():
    # u({a,b}) = 2 * (1 + 1) = u({a,b,c}) = 1 * (1 + 1 + 2) = 4
    has = np.array([[1, 1, 1], [1, 1, 0]], dtype=bool)
    data = checker.MiningData(items=["c", "b", "a"], has=has[:, ::-1].copy(),
                              qty=has[:, ::-1].astype(float), binary=True,
                              profit=np.array([2.0, 1.0, 1.0]))
    want = [(("a", "b"), 4.0, 2), (("a", "b", "c"), 4.0, 1),
            (("a", "c"), 3.0, 1), (("b", "c"), 3.0, 1)]
    assert checker.exhaustive_topk(data, 4, 2, None) == want
    assert checker.search_topk(data, 4, 2, None) == want


@pytest.mark.parametrize("spec", [
    {"family": "triangular", "low": [0.0, 0.0, 10.0], "medium": [0.0, 10.0, 20.0],
     "high": [10.0, 20.0, 20.0]},
    {"family": "gaussian", "low": [40.0, 5.0], "medium": [50.0, 5.0],
     "high": [60.0, 5.0]},
])
def test_term_assignment_matches_the_program_including_ties(spec):
    from hafcp.fuzzify import MembershipSpec, assign_term
    program = MembershipSpec(column="x", stats={}, alpha=0.05,
                             source_fingerprint="", **spec)
    x = np.array([-1.0, 0.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0, 21.0, 35.0,
                  45.0, 47.5, 55.0, 62.0, 80.0])
    term, degree = checker.assign_terms(checker.memberships(spec, x))
    got = [(checker.TERMS[t], d) for t, d in zip(term.tolist(), degree.tolist())]
    want = [(a.term, a.membership) for a in (assign_term(v, program) for v in x)]
    assert got == want


@pytest.mark.parametrize("binary", [True, False])
def test_search_equals_enumeration_on_random_databases(binary):
    d = splitmix.Draws(11 if binary else 12)
    for _ in range(25):
        n_txn, n_items = 30, 9
        has = d.uniform(n_txn * n_items).reshape(n_txn, n_items) < 0.45
        has[:, 0] |= ~has.any(axis=1)
        qty = np.where(has, d.uniform(n_txn * n_items).reshape(n_txn, n_items), 0.0)
        data = checker.MiningData(
            items=[f"i{j}" for j in range(n_items)], has=has,
            qty=has.astype(float) if binary else qty, binary=binary,
            profit=np.round(d.uniform(n_items) * 4, 1) + 0.1)
        for k, lo, hi in ((1, 1, None), (7, 2, None), (4, 2, 3)):
            assert (checker.search_topk(data, k, lo, hi)
                    == checker.exhaustive_topk(data, k, lo, hi))


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A small planted-table pipeline run, produced by the program's CLI."""
    work = str(tmp_path_factory.mktemp("bench-check"))
    small = workloads.Workload(
        name="small", why="", make_csv=lambda s: workloads.planted_csv(s, n=400),
        config={"label_column": "Churn", "positive_label": "yes",
                "boost": {"n_estimators": 5, "max_depth": 3},
                "mining": {"k": 4}},
        threads="1")
    workloads.write_inputs(small, 5, work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        assert cli.main(["pipeline", "--config", "config.json"]) == 0
    finally:
        os.chdir(cwd)
    return work


@pytest.fixture
def outputs(pipeline_dir, tmp_path):
    copy = str(tmp_path / "copy")
    shutil.copytree(pipeline_dir, copy)
    return copy


def _edit_patterns(work, edit):
    path = os.path.join(work, "out", "patterns.jsonl")
    with open(path) as f:
        docs = [json.loads(line) for line in f]
    with open(path, "w") as f:
        f.writelines(json.dumps(d) + "\n" for d in edit(docs))


def test_accepts_the_programs_outputs(outputs):
    assert checker.check_outputs(outputs) == []


def test_rejects_a_changed_utility(outputs):
    def bump(docs):
        docs[1]["utility"] *= 1.001
        return docs
    _edit_patterns(outputs, bump)
    assert any("top-2" in p for p in checker.check_outputs(outputs))


def test_rejects_a_dropped_pattern(outputs):
    _edit_patterns(outputs, lambda docs: docs[:-1])
    assert checker.check_outputs(outputs)


def test_rejects_reordered_patterns(outputs):
    _edit_patterns(outputs, lambda docs: [docs[1], docs[0]] + docs[2:])
    assert any("top-1" in p for p in checker.check_outputs(outputs))


def test_rejects_an_avg_row_that_is_not_the_mean(outputs):
    path = os.path.join(outputs, "out", "report.json")
    with open(path) as f:
        report = json.load(f)
    report["average"]["recall"] += 0.01
    with open(path, "w") as f:
        json.dump(report, f)
    assert any("AVG recall" in p for p in checker.check_outputs(outputs))
