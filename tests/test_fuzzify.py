import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hafcp import fuzzify, rng
from hafcp.dataset import (CATEGORICAL, LABEL, NUMERIC, ColumnSchema,
                           ColumnarDataset, load_csv)
from hafcp.errors import (
    DegenerateColumn,
    DuplicateItemName,
    InvalidVertices,
    MissingSpec,
    NonpositiveWidth,
    ParseError,
    TooManyCategories,
)
from hafcp.fuzzify import (
    TERMS,
    MembershipSpec,
    NormalityResult,
    assign_term,
    assign_terms,
    fit_all_memberships,
    fit_membership,
    to_binary_frame,
)

import fuzzify_reference as reference
from fuzzify_reference import gaussian_mu, normality_decision, triangular_mu
from synthdata import make_sample

NORMAL = NormalityResult(w_statistic=0.99, p_value=0.5, is_gaussian=True)
SKEWED = NormalityResult(w_statistic=0.80, p_value=0.001, is_gaussian=False)

TRI = MembershipSpec(column="v", family="triangular",
                     low=(0.0, 0.0, 5.0), medium=(0.0, 5.0, 10.0),
                     high=(5.0, 10.0, 10.0), stats={}, alpha=0.05,
                     source_fingerprint="fp")


class TestTriangularMu:
    def test_interior_values(self):
        assert triangular_mu(2.5, 0, 5, 10) == 0.5
        assert triangular_mu(5.0, 0, 5, 10) == 1.0
        assert triangular_mu(7.0, 0, 5, 10) == pytest.approx(0.6)

    def test_outside_support(self):
        assert triangular_mu(-1.0, 0, 5, 10) == 0.0
        assert triangular_mu(0.0, 0, 5, 10) == 0.0
        assert triangular_mu(10.0, 0, 5, 10) == 0.0
        assert triangular_mu(11.0, 0, 5, 10) == 0.0

    def test_left_shoulder(self):
        # a == b: full membership for everything at or below the peak
        assert triangular_mu(-100.0, 0, 0, 5) == 1.0
        assert triangular_mu(0.0, 0, 0, 5) == 1.0
        assert triangular_mu(2.5, 0, 0, 5) == 0.5
        assert triangular_mu(5.0, 0, 0, 5) == 0.0

    def test_right_shoulder(self):
        assert triangular_mu(100.0, 5, 10, 10) == 1.0
        assert triangular_mu(10.0, 5, 10, 10) == 1.0
        assert triangular_mu(7.5, 5, 10, 10) == 0.5
        assert triangular_mu(5.0, 5, 10, 10) == 0.0

    def test_invalid_vertices(self):
        with pytest.raises(InvalidVertices):
            triangular_mu(1.0, 5, 0, 10)
        with pytest.raises(InvalidVertices):
            triangular_mu(1.0, 0, 10, 5)


class TestGaussianMu:
    def test_peak_and_inflection(self):
        assert gaussian_mu(3.0, 3.0, 1.5) == 1.0
        assert gaussian_mu(4.5, 3.0, 1.5) == pytest.approx(math.exp(-0.5))
        assert gaussian_mu(1.5, 3.0, 1.5) == pytest.approx(math.exp(-0.5))
        assert gaussian_mu(6.0, 3.0, 1.5) == pytest.approx(math.exp(-2.0))

    def test_symmetry(self):
        for dx in (0.1, 1.0, 2.7):
            assert gaussian_mu(5 + dx, 5, 2) == gaussian_mu(5 - dx, 5, 2)

    def test_nonpositive_width(self):
        with pytest.raises(NonpositiveWidth):
            gaussian_mu(1.0, 0.0, 0.0)
        with pytest.raises(NonpositiveWidth):
            gaussian_mu(1.0, 0.0, -2.0)


class TestFitMembership:
    def test_triangular_vertices_from_min_median_max(self):
        spec = fit_membership([0.0, 5.0, 10.0], SKEWED, column="v")
        assert spec.family == "triangular"
        assert spec.low == (0.0, 0.0, 5.0)
        assert spec.medium == (0.0, 5.0, 10.0)
        assert spec.high == (5.0, 10.0, 10.0)
        assert spec.stats["median"] == 5.0

    def test_gaussian_centers_and_width(self):
        values = np.array([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        spec = fit_membership(values, NORMAL, column="v")
        mu = values.mean()
        sigma = values.std()  # population std
        assert spec.family == "gaussian"
        assert spec.low == pytest.approx((mu - sigma, sigma / 2))
        assert spec.medium == pytest.approx((mu, sigma / 2))
        assert spec.high == pytest.approx((mu + sigma, sigma / 2))

    def test_routing_follows_decision_not_data(self):
        values = make_sample("normal", 100, 3)
        assert fit_membership(values, NORMAL).family == "gaussian"
        assert fit_membership(values, SKEWED).family == "triangular"

    def test_degenerate_column(self):
        with pytest.raises(DegenerateColumn) as exc:
            fit_membership([3.0, 3.0, 3.0], SKEWED, column="Spend")
        assert "Spend" in str(exc.value)

    def test_metadata_carried(self):
        spec = fit_membership([1.0, 2.0, 9.0], SKEWED, column="Age",
                              source_fingerprint="abc123", alpha=0.01)
        assert spec.column == "Age"
        assert spec.source_fingerprint == "abc123"
        assert spec.alpha == 0.01

    def test_dict_roundtrip(self):
        spec = fit_membership([1.0, 2.0, 9.0], NORMAL, column="Age",
                              source_fingerprint="abc")
        assert MembershipSpec.from_dict(spec.to_dict()) == spec


class TestAssignTerm:
    def test_worked_triangular_examples(self):
        assert assign_term(7.0, TRI) == fuzzify.FuzzyAssignment("M", 0.6)
        assert assign_term(9.0, TRI).term == "H"
        assert assign_term(0.5, TRI).term == "L"

    def test_tie_breaks_low_before_medium(self):
        # at x=2.5 both L and M have membership 0.5
        a = assign_term(2.5, TRI)
        assert (a.term, a.membership) == ("L", 0.5)

    def test_tie_breaks_medium_before_high(self):
        a = assign_term(7.5, TRI)
        assert (a.term, a.membership) == ("M", 0.5)

    def test_shoulders_cover_the_tails(self):
        assert assign_term(-50.0, TRI) == fuzzify.FuzzyAssignment("L", 1.0)
        assert assign_term(50.0, TRI) == fuzzify.FuzzyAssignment("H", 1.0)

    def test_gaussian_assignment(self):
        spec = fit_membership(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), NORMAL,
                              column="v")
        mean, sigma = spec.stats["mean"], spec.stats["std"]
        assert assign_term(mean, spec).membership == 1.0
        assert assign_term(mean, spec).term == "M"
        assert assign_term(mean - 2 * sigma, spec).term == "L"
        assert assign_term(mean + 2 * sigma, spec).term == "H"

    def test_gaussian_deep_tail_ties_to_low(self):
        # far outside the data all three memberships underflow to exactly 0,
        # and the L < M < H tie rule applies
        spec = fit_membership(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), NORMAL,
                              column="v")
        a = assign_term(1e6, spec)
        assert (a.term, a.membership) == ("L", 0.0)

    @pytest.mark.parametrize("family,normality", [("triangular", SKEWED),
                                                  ("gaussian", NORMAL)])
    def test_sweep_is_exhaustive_and_ordered(self, family, normality):
        values = np.array(make_sample("uniform", 200, 10)) * 40 + 5
        spec = fit_membership(values, normality, column="v")
        assert spec.family == family
        term, mu = assign_terms(
            np.linspace(values.min() - 5, values.max() + 5, 400), spec)
        assert set(term.tolist()) <= {0, 1, 2}
        assert np.all((0.0 <= mu) & (mu <= 1.0))
        # assigned term index never decreases left to right
        assert np.all(np.diff(term) >= 0)
        assert term[-1] == 2


# Few distinct levels, so equal vertices (shoulders, degenerate triangles)
# and values exactly on a vertex are common.
LEVEL = st.sampled_from([-1e6, -3.0, 0.0, 1.0, 2.5, 4.0, 1e6]) | \
    st.floats(-1e6, 1e6)


@st.composite
def specs_and_values(draw):
    if draw(st.booleans()):
        a, b, c = sorted(draw(LEVEL) for _ in range(3))
        # the fitted shape (shoulders at min and max), or any three triples
        if draw(st.booleans()):
            terms = [(a, a, b), (a, b, c), (b, c, c)]
        else:
            terms = [tuple(sorted(draw(LEVEL) for _ in range(3)))
                     for _ in range(3)]
        family = "triangular"
        marks = [v for t in terms for v in t]
        marks += [(t[0] + t[1]) / 2 for t in terms]  # exact L/M, M/H ties
        marks += [(t[1] + t[2]) / 2 for t in terms]
    else:
        center = draw(st.floats(-1e3, 1e3))
        spread = draw(st.sampled_from([1e-3, 0.5, 1.0]) | st.floats(1e-3, 1e3))
        width = draw(st.sampled_from([spread / 2, spread]))
        terms = [(center - spread, width), (center, width),
                 (center + spread, width)]
        family = "gaussian"
        # midpoints tie two terms; far values underflow all three to 0.0
        marks = [center - spread, center - spread / 2, center,
                 center + spread / 2, center + spread]
    spec = MembershipSpec(column="v", family=family, low=terms[0],
                          medium=terms[1], high=terms[2], stats={},
                          alpha=0.05, source_fingerprint="")
    values = draw(st.lists(st.sampled_from(marks) | LEVEL, min_size=1,
                           max_size=40))
    return spec, np.array(values, dtype=np.float64)


class TestAssignTerms:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(specs_and_values())
    def test_equals_assign_term_bit_for_bit(self, case):
        spec, values = case
        term, mu = assign_terms(values, spec)
        want = [reference.assign_term(float(x), spec) for x in values]
        assert [TERMS[t] for t in term] == [a.term for a in want]
        assert mu.tobytes() == \
            np.array([a.membership for a in want]).tobytes()

    def test_ties_and_underflow(self):
        term, mu = assign_terms([2.5, 7.5, -50.0, 50.0], TRI)
        assert term.tolist() == [0, 1, 0, 2]
        assert mu.tolist() == [0.5, 0.5, 1.0, 1.0]
        spec = fit_membership(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), NORMAL,
                              column="v")
        term, mu = assign_terms([1e6, -1e6], spec)
        assert term.tolist() == [0, 0]
        assert mu.tolist() == [0.0, 0.0]

    def test_invalid_parameters_rejected(self):
        # the same class whether a spec is built or read back, naming the
        # column and the term
        tri = [(0.0, 0.0, 5.0), (5.0, 0.0, 10.0), (5.0, 10.0, 10.0)]
        gauss = [(0.0, 1.0), (1.0, 0.0), (2.0, 1.0)]
        for family, terms, error, where in (
                ("triangular", tri, InvalidVertices, " term 'medium'"),
                ("gaussian", gauss, NonpositiveWidth, " term 'medium'"),
                ("gaussian", [(0.0, 1.0), (1.0, -2.0), (2.0, 1.0)],
                 NonpositiveWidth, " term 'medium'"),
                ("gaussian", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0, 3.0)],
                 ParseError, " term 'high': must hold 2 numbers"),
                ("cubic", gauss, ParseError, ": family must be one of")):
            fields = dict(column="v", family=family, low=terms[0],
                          medium=terms[1], high=terms[2], stats={},
                          alpha=0.05, source_fingerprint="")
            with pytest.raises(error, match=f"column 'v'{where}"):
                MembershipSpec(**fields)
            doc = {**fields, **{key: list(fields[key])
                                for key in ("low", "medium", "high")}}
            with pytest.raises(error, match=f"column 'v'{where}"):
                MembershipSpec.from_dict(doc)


class TestBinaryFrame:
    def test_tiny_frame_layout(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fit_all_memberships(ds)
        frame = to_binary_frame(ds, specs)
        # ID (10 categories) + Shop Location (3) + Age L/M/H + Spending L/M/H
        assert frame.n_items == 10 + 3 + 3 + 3
        assert frame.item_names[10:13] == [
            "Shop Location=N", "Shop Location=S", "Shop Location=C"]
        assert frame.item_names[13:16] == ["Age_L", "Age_M", "Age_H"]
        assert frame.item_sources[13:16] == ["Age"] * 3
        assert frame.rows.dtype == np.uint8
        assert fuzzify.frame_items(ds.schema, specs) == \
            (frame.item_names, frame.item_sources)

    def test_exactly_one_item_per_column_per_row(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fit_all_memberships(ds)
        frame = to_binary_frame(ds, specs)
        for column in ("ID", "Shop Location", "Age", "Spending"):
            idx = [j for j, s in enumerate(frame.item_sources) if s == column]
            assert np.all(frame.rows[:, idx].sum(axis=1) == 1)

    def test_memberships_align_with_indicators(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fit_all_memberships(ds)
        frame = to_binary_frame(ds, specs)
        assert np.all((frame.rows == 0) == (frame.memberships == 0.0))
        assert np.all(frame.memberships <= 1.0)
        # categorical indicators carry full weight
        cat = [j for j, n in enumerate(frame.item_names) if "=" in n]
        assert set(np.unique(frame.memberships[:, cat])) <= {0.0, 1.0}

    def test_duplicate_item_names_rejected(self, tmp_path):
        # categorical a with value b=c and categorical a=b with value c
        # would both become item a=b=c
        path = tmp_path / "dup.csv"
        path.write_text("a,a=b,Churn\nb=c,c,1\nx,y,0\n", encoding="utf-8")
        ds = load_csv(str(path), "Churn", "1")
        with pytest.raises(DuplicateItemName) as exc:
            to_binary_frame(ds, [])
        assert "'a=b=c'" in str(exc.value)
        assert "'a'" in str(exc.value) and "'a=b'" in str(exc.value)
        # the names alone are checked, with no rows encoded
        with pytest.raises(DuplicateItemName):
            fuzzify.frame_items(ds.schema, [])

    def test_categorical_column_over_the_limit_rejected(self):
        # an ID-like column would make n x n frames; the items are refused
        # before any row is encoded
        limit = fuzzify.MAX_CATEGORIES

        def schema(n):
            return [ColumnSchema("ID", CATEGORICAL,
                                 tuple(str(v) for v in range(n)))]

        names, _ = fuzzify.frame_items(schema(limit), [])
        assert len(names) == limit
        with pytest.raises(TooManyCategories,
                           match=f"'ID' has {limit + 1} distinct values.*"
                                 f"drop_columns") as exc:
            fuzzify.frame_items(schema(limit + 1), [])
        assert exc.value.column == "ID"

    def test_missing_spec(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fit_all_memberships(ds)
        without_age = [s for s in specs if s.column != "Age"]
        with pytest.raises(MissingSpec) as exc:
            to_binary_frame(ds, without_age)
        assert "Age" in str(exc.value)

    def test_no_numeric_columns(self):
        y = np.array([0, 1])
        ds = ColumnarDataset(
            [ColumnSchema("c", "categorical", ("a", "b")),
             ColumnSchema("y", LABEL, ("0", "1"))],
            {"c": np.array([0, 1]), "y": y}, y)
        frame = to_binary_frame(ds, [])
        assert frame.item_names == ["c=a", "c=b"]


class TestFitAllMemberships:
    def test_fits_each_numeric_column(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, log = fit_all_memberships(ds)
        assert [s.column for s in specs] == ["Age", "Spending"]
        assert [e["column"] for e in log] == ["Age", "Spending"]
        for entry, spec in zip(log, specs):
            assert entry["family"] == spec.family
            assert entry["n"] == 10
        assert all(s.source_fingerprint == ds.fingerprint() for s in specs)

    def test_one_normality_shuffle_per_split(self, monkeypatch):
        # every column of a split has the same length and seed, so one
        # subsample serves them all
        n = 6000
        columns = {name: np.array(make_sample(dist, n, seed))
                   for name, dist, seed in (("a", "normal", 1),
                                            ("b", "exponential", 2),
                                            ("c", "uniform", 3))}
        y = np.arange(n) % 2
        ds = ColumnarDataset(
            [ColumnSchema(name, NUMERIC) for name in columns]
            + [ColumnSchema("y", LABEL, ("0", "1"))],
            {**columns, "y": y}, y)
        calls = []
        real = rng.shuffled_indices

        def counting(n, seed):
            calls.append((n, seed))
            return real(n, seed)

        monkeypatch.setattr(rng, "shuffled_indices", counting)
        _, log = fit_all_memberships(ds, seed=7)
        assert calls == [(n, 7)]
        for entry, (name, values) in zip(log, columns.items()):
            one = normality_decision(values, seed=7)
            assert (entry["column"], entry["w_statistic"], entry["p_value"]) \
                == (name, one.w_statistic, one.p_value)

    def test_skip_set_respected(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fit_all_memberships(ds, skip={"Age"})
        assert [s.column for s in specs] == ["Spending"]

    def test_constant_column_raises(self):
        y = np.array([0, 1, 0])
        ds = ColumnarDataset(
            [ColumnSchema("flat", NUMERIC), ColumnSchema("y", LABEL, ("0", "1"))],
            {"flat": np.array([2.0, 2.0, 2.0]), "y": y}, y)
        with pytest.raises(DegenerateColumn) as exc:
            fit_all_memberships(ds)
        assert "flat" in str(exc.value)

    def test_gaussian_route_on_normal_column(self):
        values = np.array(make_sample("normal", 400, 12)) * 4 + 30
        y = np.arange(400) % 2
        ds = ColumnarDataset(
            [ColumnSchema("v", NUMERIC), ColumnSchema("y", LABEL, ("0", "1"))],
            {"v": values, "y": y}, y)
        specs, log = fit_all_memberships(ds)
        assert specs[0].family == "gaussian"
        assert log[0]["p_value"] > 0.05

    def test_skewed_route_on_exponential_column(self):
        values = np.array(make_sample("exponential", 400, 13))
        y = np.arange(400) % 2
        ds = ColumnarDataset(
            [ColumnSchema("v", NUMERIC), ColumnSchema("y", LABEL, ("0", "1"))],
            {"v": values, "y": y}, y)
        specs, _ = fit_all_memberships(ds)
        assert specs[0].family == "triangular"
