"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "criterion NN: PASS/FAIL" line (visible with -s;
pytest's own PASSED/FAILED per test mirrors it otherwise). Fixtures,
tolerances, and runtime budgets are stated inline.
"""

import hashlib
import json
import os
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hafcp import augment, cli, gbdt
from hafcp.fuzzify import TERMS, MembershipSpec, _triangular_mus, assign_terms
from hafcp.gbdt import BoostParams, BoostedModel
from hafcp.miner import MiningConfig, mine_topk
from hafcp.rng import SplitMix64

from conftest import build_tiny_frame
from fuzzify_reference import membership
from miner_reference import brute_force_topk
from synthdata import planted_csv_text, random_db, random_labeled, sm_uniform
from test_gbdt import make_ds
from test_miner import TINY_TOP5, tiny_db
from test_shapiro import FROZEN, P_TOL, W_TOL


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}",
          flush=True)


@contextmanager
def criterion(num: int, detail: str):
    try:
        yield
    except BaseException:
        _report(num, False, detail)
        raise
    _report(num, True, detail)


def test_criterion_01_fixture_mining_end_to_end():
    with criterion(1, "ten-row fixture: exact top-5 with tie order, < 1 s"):
        t0 = time.perf_counter()
        db, pt = tiny_db()
        cfg = MiningConfig(k=5, min_length=2)
        mined = mine_topk(db, pt, cfg)
        oracle = brute_force_topk(db, pt, cfg)
        elapsed = time.perf_counter() - t0

        assert mined == oracle
        assert len(mined) == 5
        for got, (items, utility, support) in zip(mined, TINY_TOP5):
            assert got.items == items
            assert abs(got.utility - utility) <= 1e-12
            assert got.support == support
        # the two documented landmarks: top-1 and the utility-2.0 tie
        assert mined[0].items == ("Age_L", "Spend_M")
        assert abs(mined[0].utility - 2.4) <= 1e-12
        tied = [p.items for p in mined if abs(p.utility - 2.0) <= 1e-12]
        assert tied == [("Age_H", "SL_N", "Spend_L"),
                        ("Age_L", "SL_N", "Spend_M")]
        assert elapsed < 1.0


def test_criterion_02_miner_matches_oracle_on_200_instances():
    with criterion(2, "mine_topk ≡ brute force on 200 random instances, < 30 s"):
        t0 = time.perf_counter()
        for seed in range(200):
            db, pt = random_db(seed)
            cfg = MiningConfig(k=5, min_length=1, mode=db.mode)
            assert mine_topk(db, pt, cfg) == brute_force_topk(db, pt, cfg), \
                f"divergence at instance seed={seed}"
        assert time.perf_counter() - t0 < 30.0


def test_criterion_03_pattern_marks_rows_a_c_i():
    with criterion(3, "{Age_L, Spend_M} marks exactly rows A, C, I"):
        frame, _ = build_tiny_frame()
        hits = augment.match_rows(frame, ("Age_L", "Spend_M"))
        assert list(np.nonzero(hits)[0]) == [0, 2, 8]
        assert hits.sum() == 3


def test_criterion_04_triangular_membership_grid():
    with criterion(4, "triangular membership: vertex/midpoint/linearity grid "
                      "on 100 random triples, 1e-12"):
        r = SplitMix64(4040)
        for _ in range(100):
            vals = sorted(sm_uniform(r) * 200.0 - 100.0 for _ in range(3))
            a, b, c = vals
            if not (a < b < c):  # degenerate draws are vanishingly unlikely
                continue
            at_a, at_b, mid, below, above = _triangular_mus(
                np.array([a, b, (a + b) / 2, a - 1.0, c + 1.0]), a, b, c)
            assert at_a == 0.0
            assert at_b == 1.0
            assert abs(mid - 0.5) <= 1e-12
            assert below == 0.0
            assert above == 0.0
            xs = np.linspace(a - 5.0, c + 5.0, 1000)
            for x, mu in zip(xs.tolist(),
                             _triangular_mus(xs, a, b, c).tolist()):
                if x <= a or x >= c:
                    expected = 0.0
                elif x <= b:
                    expected = (x - a) / (b - a)
                else:
                    expected = (c - x) / (c - b)
                assert abs(mu - expected) <= 1e-12
                assert 0.0 <= mu <= 1.0


def test_criterion_05_term_assignment_totality():
    with criterion(5, "assign_terms total and argmax-consistent on 1e5 pairs"):
        r = SplitMix64(5050)
        specs = []
        for i in range(100):
            if i % 2 == 0:
                a, b, c = sorted(sm_uniform(r) * 100.0 for _ in range(3))
                specs.append(MembershipSpec(
                    column="t", family="triangular",
                    low=(a, a, b), medium=(a, b, c), high=(b, c, c),
                    stats={}, alpha=0.05, source_fingerprint=""))
            else:
                center = sm_uniform(r) * 100.0
                width = 0.5 + sm_uniform(r) * 10.0
                specs.append(MembershipSpec(
                    column="g", family="gaussian",
                    low=(center - width * 2, width),
                    medium=(center, width),
                    high=(center + width * 2, width),
                    stats={}, alpha=0.05, source_fingerprint=""))
        for spec in specs:
            xs = [sm_uniform(r) * 160.0 - 30.0 for _ in range(1000)]
            term, mu = assign_terms(xs, spec)
            for x, t, got in zip(xs, term.tolist(), mu.tolist()):
                memberships = [membership(spec, x, name) for name in TERMS]
                assert 0 <= t < len(TERMS)
                assert got == max(memberships)
                # ties resolve to the earliest term in L < M < H order
                first_max = memberships.index(max(memberships))
                assert t == first_max


def test_criterion_06_shapiro_reference_and_power():
    from hafcp.fuzzify import shapiro_wilk
    from synthdata import make_sample
    with criterion(6, "W/p within 1e-3/5e-3 of reference on 20 vectors; "
                      "≥ 95/100 normal samples accepted"):
        for dist, n, seed, ref_w, ref_p in FROZEN:
            got = shapiro_wilk(make_sample(dist, n, seed))
            assert abs(got.w_statistic - ref_w) <= W_TOL, (dist, n)
            assert abs(got.p_value - ref_p) <= P_TOL, (dist, n)
        accepted = sum(
            shapiro_wilk(make_sample("normal", 500, t)).p_value > 0.05
            for t in range(100))
        assert accepted >= 95


def test_criterion_07_metrics_hand_case_and_rank_invariance():
    with criterion(7, "five-point confusion case exact; AUC rank-invariant "
                      "on 100 random cases"):
        y = [1, 1, 1, 0, 0]
        p = [0.9, 0.8, 0.3, 0.6, 0.2]
        m = gbdt.evaluate(y, p, threshold=0.5)
        assert m.auc == 5 / 6
        assert m.precision == 2 / 3
        assert m.recall == 2 / 3
        assert m.f1 == 2.0 * (2 / 3) * (2 / 3) / ((2 / 3) + (2 / 3))
        assert m.accuracy == 3 / 5

        r = SplitMix64(7070)
        for _ in range(100):
            n = 10 + r.below(40)
            labels = [r.below(2) for _ in range(n)]
            labels[0], labels[1] = 0, 1
            probs = np.array([sm_uniform(r) for _ in range(n)])
            base = gbdt.evaluate(labels, probs).auc
            for f in (lambda v: 2.0 * v + 1.0,
                      lambda v: v ** 3,
                      lambda v: v / (1.0 + v)):
                assert gbdt.evaluate(labels, f(probs)).auc == base


def test_criterion_08_gbdt_soundness():
    with criterion(8, "loss monotone on 20 datasets; attribution completeness "
                      "1e-9 relative; constant feature bit-neutral"):
        params = BoostParams(n_estimators=8)
        for seed in range(20):
            ds = random_labeled(150, 3, seed=seed)
            model = gbdt.train(ds, params)
            losses = np.array(model.train_loss)
            assert np.all(np.diff(losses) <= 1e-12), f"seed {seed}"

            bias, contribs = gbdt.predict_contributions(model, ds)
            margin = gbdt.predict_margin(model, ds)
            err = np.abs(bias + contribs.sum(axis=1) - margin)
            assert np.all(err <= 1e-9 * np.maximum(1.0, np.abs(margin))), \
                f"seed {seed}"

        for seed in range(5):
            base = random_labeled(120, 2, seed=1000 + seed)
            X, names = base.feature_matrix()
            widened = make_ds(np.column_stack([X, np.full(120, 7.5)]),
                              base.label, names=names + ["pad"])
            p_base = gbdt.predict_proba(gbdt.train(base, params), base)
            p_wide = gbdt.predict_proba(gbdt.train(widened, params), widened)
            assert np.array_equal(p_base, p_wide), f"seed {seed}"


# --- planted-rule pipeline, shared by criteria 9 and 10 -------------------

@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    # relative paths keep the config fingerprint, and so every artifact's
    # bytes, independent of where the suite runs
    tmp = tmp_path_factory.mktemp("planted")
    (tmp / "planted.csv").write_text(planted_csv_text(), encoding="utf-8")
    out = tmp / "out"
    config = {
        "input": "planted.csv",
        "label_column": "Churn",
        "positive_label": "yes",
        "output_dir": "out",
    }
    (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")

    def snapshot():
        return {name: (out / fname).read_bytes()
                for name, fname in cli.ARTIFACTS.items()}

    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        t0 = time.perf_counter()
        rc_first = cli.main(["pipeline", "--config", "config.json"])
        elapsed = time.perf_counter() - t0
        first = snapshot()

        rc_second = cli.main(["pipeline", "--config", "config.json"])
        second = snapshot()

        # a fresh mine+report over the first run's upstream artifacts
        for name in ("patterns", "patterns_txt", "patterns_meta", "report",
                     "report_md"):
            (out / cli.ARTIFACTS[name]).unlink()
        rc_mine = cli.main(["mine", "--config", "config.json"])
        rc_report = cli.main(["report", "--config", "config.json"])
        fresh = snapshot()
    finally:
        os.chdir(cwd)

    assert rc_first == rc_second == rc_mine == rc_report == 0
    return {"out": out, "elapsed": elapsed, "first": first, "second": second,
            "fresh": fresh}


def test_criterion_09_planted_rule_recovery(planted_run):
    with criterion(9, "planted rule recovered as top-1; augmented recall ≥ "
                      "baseline; pipeline < 60 s"):
        out = planted_run["out"]
        patterns = [json.loads(line) for line in
                    (out / "patterns.jsonl").read_text().splitlines()]
        top1 = set(patterns[0]["items"])
        assert "UsageA_L" in top1
        assert "SpendB_M" in top1

        report = json.loads((out / "report.json").read_text())
        baseline_recall = report["baseline"]["recall"]
        top1_recall = report["per_pattern"]["1"]["recall"]
        assert top1_recall >= baseline_recall
        assert planted_run["elapsed"] < 60.0


def test_criterion_10_determinism(planted_run):
    with criterion(10, "pipeline rerun byte-identical; fresh mine+report "
                       "reproduces the first run"):
        first = planted_run["first"]
        for name in cli.ARTIFACTS:
            assert planted_run["second"][name] == first[name], \
                f"artifact {name} changed"
            assert planted_run["fresh"][name] == first[name], \
                f"artifact {name} differs after a fresh mine+report"


# sha256 of the planted pipeline's artifacts; their trees are those of the
# recursive per-node grower that tests/gbdt_reference.py keeps as the oracle
PLANTED_SHA256 = {
    "model": "3184d0ffaf37cad79ea0f32187486b8ed7b3275931b6aa2afbef6b980dad8b00",
    "report": "bafdf2c89d7ccccd8c52dbe8aa7fa36e75dc5be9725d48028832c7061319f0ee",
}


def test_planted_pipeline_characterization(planted_run):
    for name, digest in PLANTED_SHA256.items():
        got = hashlib.sha256(planted_run["first"][name]).hexdigest()
        assert got == digest, f"{name} bytes changed"
