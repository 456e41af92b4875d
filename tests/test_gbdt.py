import json

import numpy as np
import pytest
from hypothesis import given, settings
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
    SchemaMismatch,
    SingleClassTraining,
)
from hafcp.gbdt import BoostParams, BoostedModel, ImportanceTable

from gbdt_reference import train_reference
from synthdata import planted_dataset, random_labeled, toy_separable


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

    def test_empty_training_set(self):
        ds = make_ds(np.empty((0, 1)), np.empty(0, dtype=np.int64))
        with pytest.raises(EmptyTrainingSet):
            gbdt.train(ds, STUMP)

    def test_constant_features_give_constant_model(self):
        ds = make_ds([[5.0], [5.0], [5.0], [5.0]], [0, 1, 0, 1])
        model = gbdt.train(ds, BoostParams(n_estimators=3))
        p = gbdt.predict_proba(model, ds)
        assert np.all(p == p[0])

    @pytest.mark.parametrize("bad", [
        BoostParams(max_depth=0),
        BoostParams(learning_rate=0.0),
        BoostParams(learning_rate=1.5),
        BoostParams(n_estimators=0),
        BoostParams(min_child_weight=-1.0),
        BoostParams(lambda_l2=-0.1),
        BoostParams(min_child_weight=float("nan")),
        BoostParams(min_child_weight=float("inf")),
        BoostParams(lambda_l2=float("nan")),
        BoostParams(lambda_l2=float("inf")),
    ])
    def test_param_validation(self, bad):
        with pytest.raises(ConfigError):
            bad.validate()


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
        gbdt.write_importance(table, path, lineage={"config": "abc"})
        loaded = gbdt.load_importance(path)
        assert loaded.scores == table.scores
        assert loaded.method == "external"
        assert loaded.lineage == {"config": "abc"}

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

    @pytest.mark.parametrize("body", [
        "feature,score\nAge,abc\n",       # non-numeric
        "feature,score\nAge,inf\n",       # non-finite
        "feature,score\nAge,0.0\n",       # all-zero table
        "feature,score\n",                # empty
        "feature,score\nAge,0.5,extra\n",  # wrong arity
        "feature,score\nAge,0.5\n# lineage {\"config\n",  # corrupt lineage
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
        gbdt.save_model(model, path, lineage={"dataset": "fp"})
        loaded = gbdt.load_model(path)
        assert np.array_equal(gbdt.predict_margin(model, ds),
                              gbdt.predict_margin(loaded, ds))
        assert loaded.to_dict() == model.to_dict()
        assert loaded.params == model.params

    def test_lineage_embedded(self, tmp_path):
        ds = make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
        model = gbdt.train(ds, STUMP)
        path = str(tmp_path / "model.json")
        gbdt.save_model(model, path, lineage={"dataset": "fp123"})
        doc = json.loads(open(path).read())
        assert doc["lineage"] == {"dataset": "fp123"}

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text('{"format": "other"}')
        with pytest.raises(ParseError):
            gbdt.load_model(str(p))

    def test_params_of_an_older_version_rejected(self, tmp_path):
        # model.json written while BoostParams still had a seed field
        model = gbdt.train(make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1]),
                           STUMP)
        doc = model.to_dict()
        doc["params"]["seed"] = 0
        p = tmp_path / "model.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="seed"):
            gbdt.load_model(str(p))

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text("not json")
        with pytest.raises(ParseError):
            gbdt.load_model(str(p))


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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_threshold_matches_reference(self):
        # the midpoint of 1.5e308 and 1.6e308 overflows to inf, so prediction
        # routes the right child's rows left; margins must follow prediction
        X = np.array([[1.0e308], [1.5e308], [1.6e308], [1.7e308]])
        y = np.array([0, 0, 1, 1])
        params = BoostParams(max_depth=1, n_estimators=3, min_child_weight=0.0)
        got = gbdt.train(make_ds(X, y), params)
        assert got.trees[0].threshold[0] == np.inf
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


class TestRowLimit:
    def test_limit_is_the_largest_packable_row_count(self):
        assert gbdt.MAX_TRAIN_ROWS ** 3 < 2 ** 63 <= (gbdt.MAX_TRAIN_ROWS + 1) ** 3

    def test_over_the_limit_fails_naming_the_row_count(self, monkeypatch):
        monkeypatch.setattr(gbdt, "MAX_TRAIN_ROWS", 3)
        ds = make_ds([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
        with pytest.raises(ConfigError, match="4 rows"):
            gbdt.train(ds, STUMP)

