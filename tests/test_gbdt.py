import hashlib
import json
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hafcp import gbdt
from hafcp.dataset import (LABEL, NUMERIC, ColumnSchema, ColumnarDataset,
                           drop_columns, load_csv)
from hafcp.errors import (
    ConfigError,
    EmptyModel,
    EmptyTrainingSet,
    NegativeScore,
    ParseError,
    PrefixMismatch,
    SchemaMismatch,
    SingleClassTraining,
)
from hafcp.gbdt import BoostParams, BoostedModel, ImportanceTable, Tree

from gbdt_reference import train_reference
from synthdata import (bank_churn_dataset, planted_dataset, random_labeled,
                       toy_separable)


def make_ds(X, y, names=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    names = names or [f"f{j}" for j in range(X.shape[1])]
    schema = [ColumnSchema(n, NUMERIC) for n in names]
    schema.append(ColumnSchema("y", LABEL, ("0", "1")))
    cols = {n: X[:, j] for j, n in enumerate(names)}
    cols["y"] = y
    return ColumnarDataset(schema, cols, y)


STUMP = BoostParams(max_depth=1, learning_rate=1.0, n_estimators=1,
                    min_child_weight=0.0, lambda_l2=1.0)


class TestSingleRoundByHand:
    """One Newton round on 4 rows, worked out by hand.

    y = [0,0,1,1], x = [1,2,3,4]. Prior is 0.5 so base_score=0 and every
    g_i = +-0.5, h_i = 0.25. Best cut is between 2 and 3:
    GL=1, HL=0.5 -> gain = 1/2*(1/1.5 + 1/1.5) = 2/3, leaves -+ 2/3.
    """

    def setup_method(self):
        self.ds = make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
        self.model = gbdt.train(self.ds, STUMP)

    def test_base_score_is_prior_log_odds(self):
        assert self.model.base_score == 0.0

    def test_tree_shape_and_split(self):
        t = self.model.trees[0]
        assert t.n_nodes == 3
        assert t.feature[0] == 0
        assert t.threshold[0] == 2.5
        assert t.gain[0] == pytest.approx(2 / 3)

    def test_leaf_weights(self):
        t = self.model.trees[0]
        leaves = sorted(float(w) for i, w in enumerate(t.weight) if t.feature[i] < 0)
        assert leaves == pytest.approx([-2 / 3, 2 / 3])

    def test_predictions(self):
        p = gbdt.predict_proba(self.model, self.ds)
        lo = 1.0 / (1.0 + np.exp(2 / 3))
        assert p == pytest.approx([lo, lo, 1 - lo, 1 - lo])

    def test_loss_recorded_per_round(self):
        assert len(self.model.train_loss) == 2
        assert self.model.train_loss[0] == pytest.approx(np.log(2))
        assert self.model.train_loss[1] < self.model.train_loss[0]

    def test_min_child_weight_blocks_split(self):
        # every candidate child has H = 0.5 or less; weight 1.0 forbids all
        blocked = gbdt.train(self.ds, BoostParams(
            max_depth=1, learning_rate=1.0, n_estimators=1,
            min_child_weight=1.0, lambda_l2=1.0))
        t = blocked.trees[0]
        assert t.n_nodes == 1 and t.feature[0] == -1
        assert t.weight[0] == 0.0  # g sums to zero at the prior


class TestTraining:
    def test_separable_reaches_perfect_training_accuracy(self):
        ds = toy_separable(60)
        model = gbdt.train(ds, BoostParams(n_estimators=20))
        p = gbdt.predict_proba(model, ds)
        m = gbdt.evaluate(ds.label, p)
        assert m.accuracy == 1.0
        assert m.auc == 1.0

    def test_loss_never_increases(self):
        ds = random_labeled(300, 4, seed=21)
        model = gbdt.train(ds, BoostParams(n_estimators=30))
        losses = np.array(model.train_loss)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_deterministic_retrain(self):
        ds = random_labeled(200, 3, seed=7)
        a = gbdt.train(ds, BoostParams(n_estimators=10))
        b = gbdt.train(ds, BoostParams(n_estimators=10))
        assert a.to_dict() == b.to_dict()

    def test_single_class_rejected(self):
        ds = make_ds([[1.0], [2.0]], [1, 1])
        with pytest.raises(SingleClassTraining):
            gbdt.train(ds, STUMP)

    def test_nan_feature_rejected(self):
        # x ranks tell cuts apart, and NaN is unequal to its own rank's x
        ds = make_ds([[1.0], [np.nan], [3.0], [4.0]], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="'f0' holds NaN"):
            gbdt.train(ds, STUMP)

    def test_empty_training_set(self):
        ds = make_ds(np.empty((0, 1)), np.empty(0, dtype=np.int64))
        with pytest.raises(EmptyTrainingSet):
            gbdt.train(ds, STUMP)

    def test_label_only_table_fits_leaf_only_trees(self):
        ds = make_ds(np.empty((4, 0)), [0, 1, 1, 1])
        model = gbdt.train(ds, BoostParams(n_estimators=2))
        assert model.feature_names == []
        assert [t.n_nodes for t in model.trees] == [1, 1]
        assert gbdt.predict_proba(model, ds) == pytest.approx([0.75] * 4)

    def test_constant_features_give_constant_model(self):
        ds = make_ds([[5.0], [5.0], [5.0], [5.0]], [0, 1, 0, 1])
        model = gbdt.train(ds, BoostParams(n_estimators=3))
        p = gbdt.predict_proba(model, ds)
        assert np.all(p == p[0])

    @pytest.mark.parametrize("bad", [
        {"max_depth": 0},
        {"learning_rate": 0.0},
        {"learning_rate": 1.5},
        {"n_estimators": 0},
        {"min_child_weight": -1.0},
        {"lambda_l2": -0.1},
        {"min_child_weight": float("nan")},
        {"min_child_weight": float("inf")},
        {"lambda_l2": float("nan")},
        {"lambda_l2": float("inf")},
    ])
    def test_param_validation(self, bad):
        with pytest.raises(ConfigError):
            BoostParams(**bad)


class TestPrediction:
    def test_empty_ensemble_predicts_the_base(self):
        model = BoostedModel([], 0.0, ["f0"], BoostParams(), [])
        ds = make_ds([[1.0], [2.0]], [0, 1])
        assert list(gbdt.predict_proba(model, ds)) == [0.5, 0.5]

    def test_schema_mismatch_on_renamed_feature(self):
        ds = make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
        model = gbdt.train(ds, STUMP)
        other = make_ds([[1.0], [2.0]], [0, 1], names=["g0"])
        with pytest.raises(SchemaMismatch):
            gbdt.predict_proba(model, other)

    def test_schema_mismatch_on_reordered_features(self):
        ds = make_ds(np.arange(8, dtype=float).reshape(4, 2), [0, 0, 1, 1],
                     names=["a", "b"])
        model = gbdt.train(ds, BoostParams(n_estimators=2))
        flipped = make_ds(np.arange(8, dtype=float).reshape(4, 2), [0, 0, 1, 1],
                          names=["b", "a"])
        with pytest.raises(SchemaMismatch):
            gbdt.predict_margin(model, flipped)

    def test_margin_is_base_plus_tree_sum(self):
        ds = random_labeled(100, 3, seed=3)
        model = gbdt.train(ds, BoostParams(n_estimators=5))
        X, _ = ds.feature_matrix()
        manual = np.full(100, model.base_score)
        for t in model.trees:
            manual += t.predict_margin(X)
        assert np.array_equal(gbdt.predict_margin(model, ds), manual)


class TestAttributions:
    def test_completeness_identity(self):
        ds = random_labeled(250, 4, seed=31)
        model = gbdt.train(ds, BoostParams(n_estimators=15))
        bias, contribs = gbdt.predict_contributions(model, ds)
        reconstructed = bias + contribs.sum(axis=1)
        margin = gbdt.predict_margin(model, ds)
        assert np.allclose(reconstructed, margin, rtol=1e-10, atol=1e-10)

    def test_stump_attribution_by_hand(self):
        # single stump: contribution of the split feature is leaf - root value,
        # root expected value is cover-weighted: (2*(-2/3) + 2*(2/3))/4 = 0
        ds = make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
        model = gbdt.train(ds, STUMP)
        bias, contribs = gbdt.predict_contributions(model, ds)
        assert bias == pytest.approx(0.0)
        assert contribs[:, 0] == pytest.approx([-2 / 3, -2 / 3, 2 / 3, 2 / 3])

    def test_unused_feature_gets_zero_attribution(self):
        ds = make_ds([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0], [4.0, 7.0]],
                     [0, 0, 1, 1], names=["x", "const"])
        model = gbdt.train(ds, BoostParams(n_estimators=4,
                                           min_child_weight=0.0))
        _, contribs = gbdt.predict_contributions(model, ds)
        assert np.all(contribs[:, 1] == 0.0)

    def test_constant_column_never_changes_predictions(self):
        base = random_labeled(150, 2, seed=17)
        X, names = base.feature_matrix()
        widened = make_ds(np.column_stack([X, np.full(150, 3.25)]),
                          base.label, names=names + ["pad"])
        params = BoostParams(n_estimators=8)
        p0 = gbdt.predict_proba(gbdt.train(base, params), base)
        p1 = gbdt.predict_proba(gbdt.train(widened, params), widened)
        assert np.array_equal(p0, p1)

    def test_planted_attributions_characterization(self):
        # bits of the planted table's bias, contributions and path
        # attribution scores under the default params
        ds = planted_dataset()
        model = gbdt.train(ds, BoostParams())
        bias, contribs = gbdt.predict_contributions(model, ds)
        assert repr(bias) == "-3.896001942125744"
        assert hashlib.sha256(contribs.tobytes()).hexdigest() == (
            "7f307274c2f1a98fa2c53b771a8256ef9c744bf7894bdef41acb8e327a37bf1a")
        table = gbdt.importance(model, ds, "path_attribution")
        assert {k: repr(v) for k, v in table.scores.items()} == {
            "Region": "0.2980635016728999", "UsageA": "2.1063718504283817",
            "SpendB": "1.7539555405997553", "NoiseC": "0.7400152295600078"}


class TestImportance:
    def test_gain_importance_sums_split_gains(self):
        ds = random_labeled(200, 3, seed=5)
        model = gbdt.train(ds, BoostParams(n_estimators=6))
        table = gbdt.importance(model, ds, "gain")
        manual = np.zeros(3)
        for t in model.trees:
            manual += t.gain_by_feature(3)
        for j, name in enumerate(model.feature_names):
            assert table.scores[name] == pytest.approx(manual[j])
        assert table.method == "gain"

    def test_gain_by_feature_adds_in_node_order(self):
        model = gbdt.train(random_labeled(200, 3, seed=5),
                           BoostParams(n_estimators=6))
        for t in model.trees:
            want = [0.0] * 4
            for f, g in zip(t.feature.tolist(), t.gain.tolist()):
                if f >= 0:
                    want[f] += g
            assert t.gain_by_feature(4).tolist() == want

    def test_path_attribution_importance_matches_mean_abs(self):
        ds = random_labeled(200, 3, seed=6)
        model = gbdt.train(ds, BoostParams(n_estimators=6))
        table = gbdt.importance(model, ds, "path_attribution")
        _, contribs = gbdt.predict_contributions(model, ds)
        for j, name in enumerate(model.feature_names):
            assert table.scores[name] == pytest.approx(np.abs(contribs[:, j]).mean())

    def test_informative_feature_dominates(self):
        ds = toy_separable(80)
        model = gbdt.train(ds, BoostParams(n_estimators=10))
        for method in ("gain", "path_attribution"):
            t = gbdt.importance(model, ds, method)
            assert t.scores["x"] > t.scores["noise"]

    def test_no_trees_rejected(self):
        model = BoostedModel([], 0.0, ["f0"], BoostParams(), [])
        ds = make_ds([[1.0]], [1])
        with pytest.raises(EmptyModel):
            gbdt.importance(model, ds, "gain")

    def test_splitless_model_rejected(self):
        ds = make_ds([[5.0], [5.0]], [0, 1])  # constant feature: no splits
        model = gbdt.train(ds, BoostParams(n_estimators=2))
        with pytest.raises(EmptyModel):
            gbdt.importance(model, ds, "gain")

    def test_unknown_method(self):
        ds = make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
        model = gbdt.train(ds, STUMP)
        with pytest.raises(ConfigError):
            gbdt.importance(model, ds, "shap")


class TestImportanceCsv:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "imp.csv")
        table = ImportanceTable("gain", {"Age": 0.5, "Spending": 0.3})
        gbdt.write_importance(table, path)
        loaded = gbdt.load_importance(path)
        assert loaded.scores == table.scores
        assert loaded.method == "external"

    def test_header_optional(self, tmp_path):
        p = tmp_path / "imp.csv"
        p.write_text("Age,0.5\nSpending,0.3\n")
        assert gbdt.load_importance(str(p)).scores == {"Age": 0.5, "Spending": 0.3}

    def test_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "imp.csv"
        p.write_text("# a comment, with commas\nfeature,score\nAge,1.0\n")
        assert gbdt.load_importance(str(p)).scores == {"Age": 1.0}

    def test_negative_score(self, tmp_path):
        p = tmp_path / "imp.csv"
        p.write_text("feature,score\nAge,-0.1\n")
        with pytest.raises(NegativeScore):
            gbdt.load_importance(str(p))

    def test_duplicate_feature(self, tmp_path):
        p = tmp_path / "imp.csv"
        p.write_text("feature,score\nAge,0.5\nSpending,0.3\nAge,0.1\n")
        with pytest.raises(ParseError, match="'Age'") as exc:
            gbdt.load_importance(str(p))
        assert str(p) in str(exc.value)

    @pytest.mark.parametrize("body", [
        "feature,score\nAge,abc\n",       # non-numeric
        "feature,score\nAge,inf\n",       # non-finite
        "feature,score\nAge,0.0\n",       # all-zero table
        "feature,score\n",                # empty
        "feature,score\nAge,0.5,extra\n",  # wrong arity
    ])
    def test_parse_errors(self, tmp_path, body):
        p = tmp_path / "imp.csv"
        p.write_text(body)
        with pytest.raises(ParseError):
            gbdt.load_importance(str(p))


class TestModelIo:
    def test_roundtrip_preserves_predictions_exactly(self, tmp_path):
        ds = random_labeled(120, 3, seed=9)
        model = gbdt.train(ds, BoostParams(n_estimators=7))
        path = str(tmp_path / "model.json")
        gbdt.save_model(model, path)
        with open(path, encoding="utf-8") as f:
            loaded = BoostedModel.from_dict(json.load(f))
        assert np.array_equal(gbdt.predict_margin(model, ds),
                              gbdt.predict_margin(loaded, ds))
        assert loaded.to_dict() == model.to_dict()
        assert loaded.params == model.params

    def test_wrong_format_rejected(self):
        with pytest.raises(ParseError):
            BoostedModel.from_dict({"format": "other"})

    def test_params_of_an_older_version_rejected(self):
        # model.json written while BoostParams still had a seed field
        model = gbdt.train(make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1]),
                           STUMP)
        doc = model.to_dict()
        doc["params"]["seed"] = 0
        with pytest.raises(ParseError, match="seed"):
            BoostedModel.from_dict(doc)


def model_doc():
    ds = make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    return gbdt.train(ds, BoostParams(max_depth=2, n_estimators=2,
                                      min_child_weight=0.0)).to_dict()


def edited(doc, path, value):
    """doc with the entry at a key path replaced, or deleted if value is ...."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is ...:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


class TestModelFromDict:
    """A corrupt model document raises ParseError naming what is wrong."""

    @pytest.mark.parametrize("path, value, words", [
        (("trees",), ..., "'trees'"),
        (("params",), ..., "'params'"),
        (("params", "max_depth"), ..., "'max_depth'"),
        (("params", "max_depth"), "6", "'max_depth'"),
        (("params", "learning_rate"), True, "'learning_rate'"),
        (("base_score",), None, "'base_score'"),
        (("feature_names",), [1], "feature_names"),
        (("train_loss",), ["x"], "'train_loss'"),
        (("trees", 0, "weight"), [0.5], "length"),
        (("trees", 0, "cover"), [4, 2, 2.0], "'cover'"),
        (("trees", 0, "cover"), [4, 2, 2 ** 63], "too large"),
        (("trees", 0, "threshold"), [10 ** 400, 0.0, 0.0], "too large"),
        (("trees", 0, "feature"), [0, -1, True], "'feature'"),
        (("trees", 0, "gain"), ..., "'gain'"),
        (("trees", 0, "left"), [0, -1, -1], "node 0"),
        (("trees", 0, "right"), [2, 1, -1], "node 1"),
        (("trees", 0, "feature"), [1, -1, -1], "beyond"),
        (("trees", 0), [], "object"),
        (("trees", 0, "right"), [1, -1, -1], "node 1 is the child of 2"),
        (("trees", 0, "left"), [2, -1, -1], "node 1 is the child of 0"),
        (("params", "max_depth"), 0, "max_depth must be >= 1"),
    ])
    def test_corrupt_model_rejected(self, path, value, words):
        with pytest.raises(ParseError, match=words):
            BoostedModel.from_dict(edited(model_doc(), path, value))

    def test_empty_tree_rejected(self):
        empty = {key: [] for key in gbdt.TREE_ARRAYS}
        with pytest.raises(ParseError, match="nonzero length"):
            Tree.from_dict(empty)

    def test_whole_document_round_trips(self):
        doc = model_doc()
        assert BoostedModel.from_dict(doc).to_dict() == doc


class TestMetricsFromDict:
    GOOD = {"auc": 0.5, "accuracy": 1, "recall": 0.0, "precision": 0.25,
            "f1": 0.1}

    def test_round_trip(self):
        m = gbdt.Metrics.from_dict(self.GOOD)
        assert gbdt.Metrics.from_dict(m.as_dict()) == m
        assert type(m.accuracy) is float

    @pytest.mark.parametrize("value", ["x", None, True, float("nan"),
                                       [0.5], 10 ** 400])
    def test_a_metric_that_is_no_number_is_rejected(self, value):
        with pytest.raises(ParseError, match="'auc'"):
            gbdt.Metrics.from_dict({**self.GOOD, "auc": value})

    def test_missing_metric_rejected(self):
        with pytest.raises(ParseError, match="'f1'"):
            gbdt.Metrics.from_dict({k: v for k, v in self.GOOD.items()
                                    if k != "f1"})


@st.composite
def tie_heavy_problems(draw):
    """Small tables whose columns are mostly ties: integer-valued, 0/1,
    constant, copies of an earlier column, and a few float columns."""
    n = draw(st.integers(2, 40))
    kinds = draw(st.lists(st.sampled_from(["int", "binary", "const", "copy",
                                           "float"]), min_size=1, max_size=5))
    cols = []
    for kind in kinds:
        if kind == "copy" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))].copy())
        elif kind == "binary":
            cols.append(draw(st.lists(st.integers(0, 1), min_size=n,
                                      max_size=n)))
        elif kind == "const":
            cols.append([draw(st.sampled_from([0.0, 2.5, -1.0]))] * n)
        elif kind == "float":
            cols.append(draw(st.lists(st.floats(-5.0, 5.0), min_size=n,
                                      max_size=n)))
        else:
            cols.append(draw(st.lists(st.integers(0, 4), min_size=n,
                                      max_size=n)))
    X = np.array(cols, dtype=np.float64).T
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[0], y[-1] = 0, 1
    params = BoostParams(
        max_depth=draw(st.integers(1, 7)),
        learning_rate=draw(st.sampled_from([0.3, 1.0])),
        n_estimators=draw(st.integers(1, 4)),
        min_child_weight=draw(st.sampled_from([0.0, 1.0, 5.0])),
        lambda_l2=draw(st.sampled_from([0.0, 1.0])))
    return X, y, params


class TestReferenceOracle:
    """gbdt.train must equal the recursive per-node grower, byte for byte."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(tie_heavy_problems())
    def test_ensemble_equals_reference(self, problem):
        X, y, params = problem
        ds = make_ds(X, y)
        stats = gbdt.TrainStats()
        got = gbdt.train(ds, params, stats)
        counts = [0]
        want = train_reference(X, y, ds.feature_names(), params, counts)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert stats.split_candidates == counts[0]
        # a column identical to an earlier one never wins a split
        used = {int(f) for t in got.trees for f in t.feature if f >= 0}
        for j in range(X.shape[1]):
            if any(np.array_equal(X[:, i], X[:, j]) for i in range(j)):
                assert j not in used

    def test_planted_table_equals_reference(self):
        ds = planted_dataset(n=600)
        params = BoostParams(n_estimators=5)
        X, names = ds.feature_matrix()
        got = gbdt.train(ds, params)
        want = train_reference(X, ds.label, names, params)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    def test_overflowing_threshold_matches_reference(self):
        # 1.5e308 + 1.6e308 overflows, their halves' sum does not; the
        # reference's margins come from prediction, the fit's from its
        # partition, so both must route the rows alike
        X = np.array([[1.0e308], [1.5e308], [1.6e308], [1.7e308]])
        y = np.array([0, 0, 1, 1])
        params = BoostParams(max_depth=1, n_estimators=3, min_child_weight=0.0)
        ds = make_ds(X, y)
        got = gbdt.train(ds, params)
        assert got.trees[0].threshold[0] == 1.55e308
        json.dumps(got.to_dict(), allow_nan=False)
        p = gbdt.predict_proba(got, ds)
        assert gbdt._log_loss(y, p) == got.train_loss[-1]
        want = train_reference(X, y, ["f0"], params)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_saturated_hessians_match_reference(self):
        # with lam = 0, a hundred pure-leaf rounds drive p to exactly 0 or 1,
        # h to 0 and some cut gains to 0/0 = NaN; such a (node, feature) row
        # drops out of the split race, as in the per-node search
        X = np.arange(6, dtype=np.float64).reshape(6, 1)
        y = np.array([0, 0, 1, 0, 1, 1])
        params = BoostParams(max_depth=2, learning_rate=1.0, n_estimators=100,
                             min_child_weight=0.0, lambda_l2=0.0)
        got = gbdt.train(make_ds(X, y), params)
        want = train_reference(X, y, ["f0"], params)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


@st.composite
def warm_start_problems(draw):
    """A tie_heavy_problems table with 1-3 appended columns, each a random
    0/1 column, a copy of a table column (never wins a split) or the label
    (wins where it splits)."""
    X, y, params = draw(tie_heavy_problems())
    appended = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["binary", "copy", "label"]))
        if kind == "binary":
            appended.append(draw(st.lists(st.integers(0, 1), min_size=len(y),
                                          max_size=len(y))))
        elif kind == "copy":
            appended.append(X[:, draw(st.integers(0, X.shape[1] - 1))])
        else:
            appended.append(y)
    return X, np.array(appended, dtype=np.float64).T, y, params


def corrupted_first_tree(model: BoostedModel, what: str) -> BoostedModel:
    """A copy of model whose first tree has one wrong leaf weight or cover.

    The last node in preorder is a leaf: the rightmost, or the root.
    """
    copy = BoostedModel.from_dict(model.to_dict())
    tree = copy.trees[0]
    w = tree.weight[-1]
    if what == "weight":
        tree.weight[-1] = np.nextafter(w, np.inf) if np.isfinite(w) else 0.0
    else:
        tree.cover[-1] += 1
    return copy


UNIT = BoostParams(max_depth=2, learning_rate=1.0, n_estimators=3,
                   min_child_weight=0.0, lambda_l2=1.0)


class TestWarmStart:
    """train(prefix=baseline) must equal the cold fit, byte for byte."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(warm_start_problems())
    # the appended label splits a root the table leaves as a leaf
    @example((np.full((6, 1), 2.5), np.array([[0, 1, 0, 1, 1, 0]]).T,
              np.array([0, 1, 0, 1, 1, 0]), UNIT))
    # the root's x values sum beyond the largest float; its threshold, taken
    # from their halves, is finite and routes rows as the partition does
    @example((np.array([[1.0e308], [1.5e308], [1.6e308], [1.7e308]]),
              np.array([[1.0e308, 1.5e308, 1.6e308, 1.7e308]]).T,
              np.array([0, 0, 1, 1]), UNIT))
    # lam = 0 saturates p to 0 or 1, so hessians reach 0 and gains 0/0 = NaN
    @example((np.arange(6, dtype=np.float64).reshape(6, 1),
              np.array([[1, 0, 1, 1, 0, 0]]).T, np.array([0, 0, 1, 0, 1, 1]),
              BoostParams(max_depth=2, learning_rate=1.0, n_estimators=100,
                          min_child_weight=0.0, lambda_l2=0.0)))
    # cumulative mode: three pattern columns at once
    @example((np.array([[0, 3], [1, 3], [2, 1], [0, 0], [1, 4], [2, 2]],
                       dtype=np.float64),
              np.array([[0, 1, 1, 0, 1, 0], [1, 1, 1, 0, 0, 0],
                        [0, 1, 2, 0, 1, 2]], dtype=np.float64).T,
              np.array([0, 1, 1, 0, 1, 0]), UNIT))
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:divide by zero encountered")
    def test_warm_equals_cold(self, problem):
        X, appended, y, params = problem
        prefix = gbdt.train(make_ds(X, y), params)
        ds = make_ds(np.column_stack([X, appended]), y)
        stats = gbdt.TrainStats()
        warm = gbdt.train(ds, params, stats, prefix=prefix)
        cold_stats = gbdt.TrainStats()
        cold = gbdt.train(ds, params, cold_stats)
        assert json.dumps(warm.to_dict()) == json.dumps(cold.to_dict())
        # a replayed node searches its prefix feature and the appended ones
        assert stats.split_candidates <= cold_stats.split_candidates
        # every tree the cold fit grows again, up to its first new one, is
        # reused; a tied appended column leaves the tree to the prefix
        same = [a.to_dict() == b.to_dict()
                for a, b in zip(cold.trees, prefix.trees)] + [False]
        assert stats.reused_trees == same.index(False)
        assert stats.trees == params.n_estimators
        # a reused tree is checked node by node before it is taken
        if stats.reused_trees:
            for what in ("weight", "cover"):
                with pytest.raises(PrefixMismatch, match="tree node"):
                    gbdt.train(ds, params,
                               prefix=corrupted_first_tree(prefix, what))

    def test_overflowing_threshold_tree_is_reused(self):
        X = np.array([[1.0e308], [1.5e308], [1.6e308], [1.7e308]])
        y = np.array([0, 0, 1, 1])
        ds = make_ds(X, y)
        prefix = gbdt.train(ds, UNIT)
        stats = gbdt.TrainStats()
        gbdt.train(make_ds(np.column_stack([X, X]), y), UNIT, stats,
                   prefix=prefix)
        assert prefix.trees[0].threshold[0] == 1.55e308
        json.dumps(prefix.to_dict(), allow_nan=False)
        p = gbdt.predict_proba(prefix, ds)
        assert gbdt._log_loss(y, p) == prefix.train_loss[-1]
        assert prefix.trees[0].n_nodes == 3
        assert stats.reused_trees == UNIT.n_estimators

    @pytest.mark.parametrize("change", [{"lambda_l2": 2.0},
                                        {"n_estimators": 2}])
    def test_other_params_rejected(self, change):
        ds = random_labeled(40, 2, seed=1)
        prefix = gbdt.train(ds, UNIT)
        with pytest.raises(PrefixMismatch, match="params"):
            gbdt.train(ds, replace(UNIT, **change), prefix=prefix)

    def test_other_features_rejected(self):
        ds = random_labeled(40, 2, seed=1)
        prefix = gbdt.train(drop_columns(ds, ["f0"]), UNIT)
        with pytest.raises(PrefixMismatch, match="feature names"):
            gbdt.train(ds, UNIT, prefix=prefix)

    def test_other_rows_rejected(self):
        ds = random_labeled(40, 2, seed=1)
        prefix = gbdt.train(random_labeled(40, 2, seed=2), UNIT)
        with pytest.raises(PrefixMismatch):
            gbdt.train(ds, UNIT, prefix=prefix)

    @pytest.mark.parametrize("beyond", [0, 3])
    def test_split_beyond_prefix_features_rejected(self, beyond):
        # an in-memory prefix whose root splits on the appended column, or
        # on no column of the fit at all
        base = random_labeled(60, 2, seed=3)
        X, _ = base.feature_matrix()
        prefix = gbdt.train(base, UNIT)
        prefix.trees[0].feature[0] = 2 + beyond
        ds = make_ds(np.column_stack([X, X[:, 0]]), base.label)
        with pytest.raises(PrefixMismatch, match="node 0"):
            gbdt.train(ds, UNIT, prefix=prefix)

    def test_edited_gain_or_threshold_rejected(self):
        ds = random_labeled(60, 2, seed=3)
        prefix = gbdt.train(ds, UNIT)
        for key in ("gain", "threshold"):
            copy = BoostedModel.from_dict(prefix.to_dict())
            getattr(copy.trees[0], key)[0] *= 2.0
            with pytest.raises(PrefixMismatch, match="node 0"):
                gbdt.train(ds, UNIT, prefix=copy)


def split_below_max_depth(model: BoostedModel):
    """model relabelled max_depth 1, whose first tree splits at depth 1."""
    tree = model.trees[0]
    node = next(c for c in (tree.left[0], tree.right[0])
                if tree.feature[c] >= 0)
    return BoostedModel(model.trees, model.base_score, model.feature_names,
                        replace(model.params, max_depth=1),
                        model.train_loss), node


def left_cover_of_the_whole_root(model: BoostedModel):
    """A copy of model whose first root's left child covers every row."""
    copy = BoostedModel.from_dict(model.to_dict())
    tree = copy.trees[0]
    tree.cover[tree.left[0]] = tree.cover[0]
    return copy, 0


def unreachable_leaf(model: BoostedModel):
    """model with a leaf no split links to appended to its first tree."""
    tree = model.trees[0].to_dict()
    orphan = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1,
              "weight": 0.0, "gain": 0.0, "cover": 1}
    first = Tree(*(tree[key] + [orphan[key]] for key in gbdt.TREE_ARRAYS))
    return BoostedModel([first] + model.trees[1:], model.base_score,
                        model.feature_names, model.params,
                        model.train_loss), first.n_nodes - 1


class TestReplayChecks:
    """A prefix tree that the fit could not grow is rejected, naming the
    node."""

    @pytest.mark.parametrize("corrupt", [split_below_max_depth,
                                         left_cover_of_the_whole_root,
                                         unreachable_leaf])
    def test_corrupt_tree_rejected(self, corrupt):
        ds = random_labeled(60, 2, seed=3)
        prefix, node = corrupt(gbdt.train(ds, UNIT))
        with pytest.raises(PrefixMismatch, match=rf"tree node {node}\b"):
            gbdt.train(ds, prefix.params, prefix=prefix)


class TestTrainStats:
    def test_counts_pinned_and_equal_to_reference(self, tiny_csv):
        ds = drop_columns(load_csv(tiny_csv, "Churn", "1"), ["ID"])
        params = BoostParams(max_depth=2, n_estimators=3, min_child_weight=0.0)
        stats = gbdt.TrainStats()
        model = gbdt.train(ds, params, stats)
        counts = [0]
        X, names = ds.feature_matrix()
        train_reference(X, ds.label, names, params, counts)
        assert stats.to_dict() == {"trees": 3, "nodes": 15,
                                   "split_candidates": 105}
        assert stats.nodes == sum(t.n_nodes for t in model.trees)
        assert stats.split_candidates == counts[0]

    def test_stump_by_hand(self):
        # one node searched, one feature, 4 distinct values: 3 cuts
        stats = gbdt.TrainStats()
        gbdt.train(make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1]), STUMP,
                   stats)
        assert stats.to_dict() == {"trees": 1, "nodes": 3,
                                   "split_candidates": 3}

    def test_counts_accumulate_across_fits(self):
        ds = random_labeled(60, 2, seed=4)
        params = BoostParams(n_estimators=2)
        once = gbdt.TrainStats()
        gbdt.train(ds, params, once)
        twice = gbdt.TrainStats()
        gbdt.train(ds, params, twice)
        gbdt.train(ds, params, twice)
        assert twice.split_candidates == 2 * once.split_candidates
        assert twice.nodes == 2 * once.nodes


def test_bank_churn_characterization():
    # bits of a fit whose levels are mostly ties, cold and warm-started from
    # it with one pattern column appended (which diverges at tree 4)
    ds, pattern = bank_churn_dataset()
    X, names = ds.feature_matrix()
    params = BoostParams(n_estimators=10)
    wide = make_ds(np.column_stack([X, pattern]), ds.label,
                   names + ["Pattern"])
    got = []
    prefix = None
    for data in (ds, wide):
        stats = gbdt.TrainStats()
        prefix = gbdt.train(data, params, stats, prefix=prefix)
        got.append((hashlib.sha256(json.dumps(prefix.to_dict()).encode())
                    .hexdigest(), stats.to_dict(), stats.reused_trees))
    assert got == [
        ("c13f3d2bc8351f1f8dfe636220472ea7bd16b2cdd4919735eceb89c85a47eee9",
         {"trees": 10, "nodes": 912, "split_candidates": 335903}, 0),
        ("a436799371b06da7549207fd0e5d992e407e99eb86203593a8b609ae85afb1b7",
         {"trees": 10, "nodes": 892, "split_candidates": 182423}, 4)]


class TestRowLimit:
    def test_limit_is_the_largest_packable_row_count(self):
        assert gbdt.MAX_TRAIN_ROWS ** 3 < 2 ** 63 <= (gbdt.MAX_TRAIN_ROWS + 1) ** 3

    def test_over_the_limit_fails_naming_the_row_count(self, monkeypatch):
        monkeypatch.setattr(gbdt, "MAX_TRAIN_ROWS", 3)
        ds = make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
        with pytest.raises(ConfigError, match="4 rows"):
            gbdt.train(ds, STUMP)


@pytest.mark.parametrize("constants", [
    {"RADIX_KEYS": 0}, {"RADIX_KEYS": 12},
    {"SPARSE_LEVELS": 0.0}, {"SPARSE_LEVELS": 1.0}],
    ids=["int64-keys", "mixed-keys", "dense-scores", "sparse-scores"])
class TestSortPaths:
    """Both ways of ordering a level, and both ways of scoring it, give the
    ensemble of TestReferenceOracle and TestWarmStart.

    With RADIX_KEYS patched to 0, ranks are stored as int64 and every level
    is ordered by int64 keys. At 12, a column with at most 12 distinct
    values keeps uint16 ranks, and a level switches to int64 keys once its
    nodes times its largest rank count pass 12. With SPARSE_LEVELS patched
    to 0, every level scores its whole (feature, slot) grid; at 1, every
    level scores its cuts only.
    """

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(problem=tie_heavy_problems())
    @pytest.mark.filterwarnings("ignore:divide by zero encountered")
    def test_ensemble_equals_reference(self, constants, problem):
        X, y, params = problem
        counts = [0]
        want = train_reference(X, y, [f"f{j}" for j in range(X.shape[1])],
                               params, counts)
        stats = gbdt.TrainStats()
        with patch.multiple(gbdt, **constants):
            got = gbdt.train(make_ds(X, y), params, stats)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert stats.split_candidates == counts[0]

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(problem=warm_start_problems())
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:divide by zero encountered")
    def test_warm_equals_cold(self, constants, problem):
        X, appended, y, params = problem
        ds = make_ds(np.column_stack([X, appended]), y)
        cold = gbdt.train(ds, params)
        with patch.multiple(gbdt, **constants):
            prefix = gbdt.train(make_ds(X, y), params)
            warm = gbdt.train(ds, params, prefix=prefix)
        assert json.dumps(warm.to_dict()) == json.dumps(cold.to_dict())

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_gains_match_reference(self, constants):
        # TestReferenceOracle's saturated hessians: some cut gains are
        # 0/0 = NaN, and their (feature, node) drops out on either path
        X = np.arange(6, dtype=np.float64).reshape(6, 1)
        y = np.array([0, 0, 1, 0, 1, 1])
        params = BoostParams(max_depth=2, learning_rate=1.0, n_estimators=100,
                             min_child_weight=0.0, lambda_l2=0.0)
        want = train_reference(X, y, ["f0"], params)
        with patch.multiple(gbdt, **constants):
            got = gbdt.train(make_ds(X, y), params)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_replay_column_zero_carries_uint16_ranks(monkeypatch):
    # a replayed node's column 0 takes the ranks of the prefix's split
    # feature there, uint16 like the prefix's, and is ordered by radix keys
    # at the root and by int64 keys once 2 nodes times 40 ranks pass 64
    orders = []
    node_order = gbdt._node_order

    def spy(node, rank, n_rank):
        radix = (int(node[-1]) + 1) * int(n_rank.max()) <= gbdt.RADIX_KEYS
        orders.append((len(rank), rank.dtype, radix))
        return node_order(node, rank, n_rank)

    monkeypatch.setattr(gbdt, "_node_order", spy)
    monkeypatch.setattr(gbdt, "RADIX_KEYS", 64)
    base = random_labeled(40, 2, seed=1)  # 40 distinct values per column
    X, _ = base.feature_matrix()
    prefix = gbdt.train(base, UNIT)
    # a copy of f0 never wins a split, so every tree is replayed
    ds = make_ds(np.column_stack([X, X[:, 0]]), base.label)
    orders.clear()
    stats = gbdt.TrainStats()
    warm = gbdt.train(ds, UNIT, stats, prefix=prefix)
    assert stats.reused_trees == UNIT.n_estimators
    # replay searches order column 0 and the one appended column; no tree
    # grows a fresh root, so the three columns are never sorted
    assert {rows for rows, _, _ in orders} == {2}
    replays = {(dtype, radix) for rows, dtype, radix in orders}
    assert replays == {(np.dtype(np.uint16), True),
                       (np.dtype(np.uint16), False)}
    assert (json.dumps(warm.to_dict())
            == json.dumps(gbdt.train(ds, UNIT).to_dict()))


def test_replay_ends_at_the_level_an_appended_column_wins(monkeypatch):
    # the appended column wins at the root's left child, a leaf of the
    # prefix; that level keeps its replay search, and the next level is
    # searched fresh over all three columns in one call
    X = np.array([[3, 0], [3, 3], [0, 0], [0, 1], [1, 0], [3, 1], [3, 3],
                  [0, 2], [3, 0], [0, 1], [0, 1]], dtype=np.float64)
    appended = np.array([0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0])
    y = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1])
    params = BoostParams(max_depth=3, learning_rate=1.0, n_estimators=1,
                         min_child_weight=0.0, lambda_l2=1.0)
    prefix = gbdt.train(make_ds(X, y), params)
    ds = make_ds(np.column_stack([X, appended]), y)
    cold_stats = gbdt.TrainStats()
    cold = gbdt.train(ds, params, cold_stats)
    orders = []
    node_order = gbdt._node_order

    def spy(node, rank, n_rank):
        orders.append((int(node[-1]) + 1, len(rank)))
        return node_order(node, rank, n_rank)

    monkeypatch.setattr(gbdt, "_node_order", spy)
    stats = gbdt.TrainStats()
    warm = gbdt.train(ds, params, stats, prefix=prefix)
    assert json.dumps(warm.to_dict()) == json.dumps(cold.to_dict())
    # (nodes, feature rows) per searched level
    assert orders == [(1, 2), (2, 2), (4, 3)]
    assert stats.reused_trees == 0
    assert (stats.split_candidates, cold_stats.split_candidates) == (10, 16)


def test_lambda_zero_scores_the_grid_without_warnings():
    # with lam = 0, the last slot of a node of fewer than 8 rows, which is
    # no cut, divides 0 by 0; it scores -inf, and no warning escapes
    X = np.arange(6, dtype=np.float64).reshape(6, 1)
    y = np.array([0, 0, 1, 0, 1, 1])
    params = BoostParams(max_depth=2, learning_rate=1.0, n_estimators=3,
                         min_child_weight=0.0, lambda_l2=0.0)
    want = train_reference(X, y, ["f0"], params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gbdt.train(make_ds(X, y), params)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
