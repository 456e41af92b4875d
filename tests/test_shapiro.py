"""Normality test checks.

The W/p reference values below were computed once with scipy.stats.shapiro
(which implements the same AS R94 approximation) on samples regenerated
deterministically by synthdata.make_sample, then frozen. The implementation
under test must reproduce them without scipy.
"""

import numpy as np
import pytest

from hafcp import fuzzify
from hafcp.errors import SampleTooLarge, SampleTooSmall, ZeroVariance
from hafcp.fuzzify import shapiro_wilk

from fuzzify_reference import normality_decision
from synthdata import make_sample

W_TOL = 1e-3
P_TOL = 5e-3

# (distribution, n, seed, scipy W, scipy p)
FROZEN = [
    ("normal", 10, 101, 0.896397177685814, 0.1999290971970955),
    ("uniform", 10, 102, 0.9228812150935455, 0.38161335808005437),
    ("exponential", 10, 103, 0.7672111403086582, 0.005783188310844889),
    ("lognormal", 10, 104, 0.8917589304062946, 0.17747472948889242),
    ("bimodal", 10, 105, 0.8654985818252496, 0.08855808228605692),
    ("normal", 50, 106, 0.9680130629064277, 0.1919183191435756),
    ("uniform", 50, 107, 0.9471880002593948, 0.02617931872984263),
    ("exponential", 50, 108, 0.8633962502437935, 3.640514512050829e-05),
    ("lognormal", 50, 109, 0.9469851486221768, 0.02568660701718072),
    ("bimodal", 50, 110, 0.8670565522338214, 4.634195071082808e-05),
    ("normal", 500, 111, 0.9980055110052245, 0.8313089087659895),
    ("uniform", 500, 112, 0.954369768934218, 2.5996274032964125e-11),
    ("exponential", 500, 113, 0.8083419207647327, 6.549946630625863e-24),
    ("lognormal", 500, 114, 0.8822399004321569, 4.6114561483582765e-19),
    ("bimodal", 500, 115, 0.8839677238970134, 6.334976949820028e-19),
    ("normal", 4999, 116, 0.9997165717907275, 0.7559155977660419),
    ("uniform", 4999, 117, 0.9576044478697318, 7.29682716178019e-36),
    ("exponential", 4999, 118, 0.8241025519978532, 3.4918838368319198e-59),
    ("lognormal", 4999, 119, 0.878323234278964, 1.4500312650234091e-52),
    ("bimodal", 4999, 120, 0.8851390908204098, 1.445573539960553e-51),
]


@pytest.mark.parametrize("dist,n,seed,ref_w,ref_p", FROZEN,
                         ids=[f"{d}-{n}" for d, n, *_ in FROZEN])
def test_frozen_reference_values(dist, n, seed, ref_w, ref_p):
    sample = make_sample(dist, n, seed)
    r = shapiro_wilk(sample)
    assert abs(r.w_statistic - ref_w) <= W_TOL
    assert abs(r.p_value - ref_p) <= P_TOL


def test_worked_small_sample():
    # classic 11-point sample; published W = 0.7888, p = 0.0067 (reject)
    x = [148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236]
    r = shapiro_wilk(x)
    assert r.w_statistic == pytest.approx(0.7888, abs=1e-3)
    assert r.p_value == pytest.approx(0.0067, abs=5e-3)
    assert not r.is_gaussian


def test_monte_carlo_acceptance_rate():
    # at alpha=0.05 roughly 5% of true-normal samples are rejected;
    # require at least 95 of these 100 fixed draws to be accepted
    accepted = sum(
        shapiro_wilk(make_sample("normal", 500, t)).is_gaussian
        for t in range(100)
    )
    assert accepted >= 95


def test_skewed_samples_rejected():
    for seed in range(5):
        r = shapiro_wilk(make_sample("exponential", 500, 7000 + seed))
        assert not r.is_gaussian


def test_w_in_unit_interval():
    for dist, n, seed, *_ in FROZEN:
        r = shapiro_wilk(make_sample(dist, n, seed))
        assert 0.0 < r.w_statistic <= 1.0
        assert 0.0 <= r.p_value <= 1.0


def test_order_invariance():
    sample = make_sample("lognormal", 80, 33)
    shuffled = list(reversed(sample))
    a = shapiro_wilk(sample)
    b = shapiro_wilk(shuffled)
    assert a.w_statistic == b.w_statistic
    assert a.p_value == b.p_value


def test_scale_and_shift_invariance():
    sample = np.array(make_sample("normal", 100, 44))
    a = shapiro_wilk(sample)
    b = shapiro_wilk(sample * 3.5 - 12.0)
    assert b.w_statistic == pytest.approx(a.w_statistic, abs=1e-12)


def test_n3_exact_branch():
    r = shapiro_wilk([1.0, 2.0, 10.0])
    assert 0.0 < r.w_statistic <= 1.0
    assert 0.0 <= r.p_value <= 1.0
    # symmetric 3-point sample maximizes W at exactly 1
    assert shapiro_wilk([1.0, 2.0, 3.0]).w_statistic == pytest.approx(1.0)


def test_alpha_threshold_drives_decision():
    sample = make_sample("uniform", 50, 107)  # frozen p ~ 0.026
    assert not shapiro_wilk(sample, alpha=0.05).is_gaussian
    assert shapiro_wilk(sample, alpha=0.01).is_gaussian


def test_sample_too_small():
    with pytest.raises(SampleTooSmall):
        shapiro_wilk([1.0, 2.0])


def test_sample_too_large():
    with pytest.raises(SampleTooLarge):
        shapiro_wilk(np.arange(5001, dtype=float))


def test_zero_variance():
    with pytest.raises(ZeroVariance):
        shapiro_wilk([4.0] * 10)


class TestCoefficientCache:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 11, 12, 5000])
    def test_cached_equals_uncached(self, n, monkeypatch):
        calls = []
        ndtri = fuzzify._ndtri
        monkeypatch.setattr(fuzzify, "_ndtri",
                            lambda q: calls.append(len(q)) or ndtri(q))
        samples = [make_sample(dist, n, 300 + i) for i, dist in
                   enumerate(("normal", "uniform", "exponential"))]
        fresh = []
        for x in samples:
            fuzzify._coefficients.cache_clear()
            fresh.append(shapiro_wilk(x))
        assert calls == [n] * len(samples)
        cached = [shapiro_wilk(x) for x in samples]
        assert calls == [n] * len(samples)  # one computation served them all
        for a, b in zip(fresh, cached):
            assert (a.w_statistic.hex(), a.p_value.hex()) == \
                (b.w_statistic.hex(), b.p_value.hex())
        a = fuzzify._coefficients(n)
        assert a.tobytes() == fuzzify._coefficients.__wrapped__(n).tobytes()
        assert not a.flags.writeable


class TestNormalityDecision:
    def test_small_column_passthrough(self):
        sample = make_sample("normal", 200, 55)
        assert normality_decision(sample) == shapiro_wilk(sample)

    def test_large_column_subsampled(self):
        values = np.array(make_sample("normal", 8000, 66))
        r = normality_decision(values, seed=0)
        assert r.is_gaussian
        # deterministic given the seed
        assert normality_decision(values, seed=0) == r

    def test_large_skewed_column_still_rejected(self):
        values = np.array(make_sample("exponential", 8000, 77))
        assert not normality_decision(values, seed=0).is_gaussian
