"""Classification metric checks against hand-computed confusion tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from hafcp.errors import DegenerateAUC, LengthMismatch
from hafcp.gbdt import Metrics, evaluate


def test_hand_worked_example():
    # probs rank the 3rd positive below one negative:
    # pos scores {0.9, 0.8, 0.4}, neg {0.6, 0.3, 0.1}
    # pairs won = 3 + 3 + 2 = 8 of 9 -> AUC = 8/9
    y = [1, 0, 1, 0, 1, 0]
    p = [0.9, 0.6, 0.8, 0.3, 0.4, 0.1]
    m = evaluate(y, p, threshold=0.5)
    assert m.auc == pytest.approx(8 / 9)
    # at 0.5: predictions 1,1,1,0,0,0 -> tp=2 fp=1 fn=1 tn=2
    assert m.accuracy == pytest.approx(4 / 6)
    assert m.recall == pytest.approx(2 / 3)
    assert m.precision == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)


def test_perfect_separation():
    m = evaluate([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
    assert m.auc == 1.0
    assert m.accuracy == 1.0
    assert m.f1 == 1.0


def test_reversed_ranking():
    m = evaluate([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1])
    assert m.auc == 0.0


def test_all_tied_probs_auc_half():
    # midranks: every pos/neg pair counts 1/2
    m = evaluate([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5])
    assert m.auc == pytest.approx(0.5)


def test_partial_ties_use_midranks():
    # pos {0.7, 0.5}, neg {0.5, 0.2}: wins 2 + 1(half for the tie at 0.5) + ...
    # pairwise: (0.7 vs 0.5)=1, (0.7 vs 0.2)=1, (0.5 vs 0.5)=0.5, (0.5 vs 0.2)=1
    # AUC = 3.5 / 4
    m = evaluate([1, 1, 0, 0], [0.7, 0.5, 0.5, 0.2])
    assert m.auc == pytest.approx(3.5 / 4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 1),
                          st.sampled_from([0.0, -0.0, 0.1, 0.5, 0.9, 1.0])
                          | st.floats(0.0, 1.0)),
                min_size=2, max_size=60))
def test_auc_is_mann_whitney_on_midranks(rows):
    y = np.array([label for label, _ in rows])
    y[0], y[1] = 0, 1
    p = np.array([prob for _, prob in rows])
    n_pos, n_neg = int(y.sum()), int((1 - y).sum())
    ranks = rankdata(p)  # midranks for ties
    want = (ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert evaluate(y, p).auc == want


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=200)
    y[0], y[1] = 0, 1  # guarantee both classes
    p = rng.random(200)
    base = evaluate(y, p).auc
    for f in (lambda v: v * 10, lambda v: v**3 + 2, np.tanh):
        assert evaluate(y, f(p)).auc == pytest.approx(base)


def test_threshold_moves_confusion_counts():
    y = [1, 0, 1, 0]
    p = [0.9, 0.6, 0.55, 0.1]
    low = evaluate(y, p, threshold=0.5)
    high = evaluate(y, p, threshold=0.7)
    assert low.recall == 1.0 and low.precision == pytest.approx(2 / 3)
    assert high.recall == pytest.approx(0.5) and high.precision == 1.0
    # AUC ignores the threshold entirely
    assert low.auc == high.auc


def test_zero_predicted_positives():
    m = evaluate([1, 0], [0.1, 0.2], threshold=0.5)
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.f1 == 0.0


def test_single_class_raises():
    with pytest.raises(DegenerateAUC):
        evaluate([1, 1, 1], [0.2, 0.5, 0.9])
    with pytest.raises(DegenerateAUC):
        evaluate([0, 0], [0.2, 0.5])


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate([1, 0], [0.5])
    with pytest.raises(LengthMismatch):
        evaluate([], [])


def test_metrics_dict_roundtrip():
    m = evaluate([0, 1], [0.3, 0.8])
    assert Metrics.from_dict(m.as_dict()) == m
    assert set(m.as_dict()) == {"auc", "accuracy", "recall", "precision", "f1"}
