import math

import numpy as np
import pytest

from hafcp import fuzzify
from hafcp.dataset import LABEL, NUMERIC, ColumnSchema, ColumnarDataset, load_csv
from hafcp.errors import (
    DegenerateColumn,
    DuplicateItemName,
    InvalidVertices,
    LineageError,
    MissingSpec,
    NonpositiveWidth,
)
from hafcp.fuzzify import (
    MembershipSpec,
    NormalityResult,
    assign_term,
    fit_all_memberships,
    fit_membership,
    gaussian_mu,
    to_binary_frame,
    triangular_mu,
)

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
        order = {"L": 0, "M": 1, "H": 2}
        last = 0
        for x in np.linspace(values.min() - 5, values.max() + 5, 400):
            a = assign_term(float(x), spec)
            assert a.term in ("L", "M", "H")
            assert 0.0 <= a.membership <= 1.0
            # assigned term index never decreases left to right
            assert order[a.term] >= last
            last = order[a.term]
        assert last == 2


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
        assert frame.dataset_fingerprint == ds.fingerprint()

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

    def test_missing_spec(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fit_all_memberships(ds)
        without_age = [s for s in specs if s.column != "Age"]
        with pytest.raises(MissingSpec) as exc:
            to_binary_frame(ds, without_age)
        assert "Age" in str(exc.value)

    def test_mixed_spec_lineage_rejected(self, tiny_csv):
        ds = load_csv(tiny_csv, "Churn", "1")
        specs, _ = fit_all_memberships(ds)
        forged = [specs[0],
                  MembershipSpec.from_dict({**specs[1].to_dict(),
                                            "source_fingerprint": "other"})]
        with pytest.raises(LineageError):
            to_binary_frame(ds, forged)

    def test_no_numeric_columns(self):
        y = np.array([0, 1])
        ds = ColumnarDataset(
            [ColumnSchema("c", "categorical", ("a", "b")),
             ColumnSchema("y", LABEL, ("0", "1"))],
            {"c": np.array([0, 1]), "y": y}, y)
        frame = to_binary_frame(ds, [])
        assert frame.item_names == ["c=a", "c=b"]
        assert frame.specs_source == ""


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
