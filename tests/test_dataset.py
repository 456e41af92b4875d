import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hafcp import dataset
from hafcp.dataset import ColumnSchema, SplitSpec
from hafcp.errors import (
    CannotDropLabel,
    ConfigError,
    DatasetTooSmall,
    EmptyDataset,
    MissingLabelColumn,
    ParseError,
    UnknownColumn,
    UnparseableCell,
)

from conftest import TINY_CSV


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestLoadCsv:
    def test_tiny_schema_kinds(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        kinds = {c.name: c.kind for c in ds.schema}
        assert kinds == {
            "ID": dataset.CATEGORICAL,
            "Shop Location": dataset.CATEGORICAL,
            "Age": dataset.NUMERIC,
            "Spending": dataset.NUMERIC,
            "Churn": dataset.LABEL,
        }

    def test_category_codes_first_appearance(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        loc = ds.schema_of("Shop Location")
        # first appearance order down the file: N, S, C
        assert loc.category_map == ("N", "S", "C")
        assert list(ds.columns["Shop Location"][:4]) == [0, 1, 0, 2]
        assert loc.decode(2) == "C"

    def test_label_binary(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        assert list(ds.label) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 1]

    def test_positive_label_case_sensitive(self, tmp_path):
        path = write_csv(tmp_path, "x,y\n1,Yes\n2,yes\n")
        ds = dataset.load_csv(path, "y", "yes")
        assert list(ds.label) == [0, 1]

    def test_numeric_column_values(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        assert ds.columns["Age"].dtype == np.float64
        assert list(ds.columns["Age"]) == [25, 30, 28, 55, 60, 35, 40, 65, 23, 50]

    def test_missing_label_column(self, tiny_csv):
        with pytest.raises(MissingLabelColumn):
            dataset.load_csv(tiny_csv, "Exited", "1")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(EmptyDataset):
            dataset.load_csv(path, "Churn", "1")

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path, "a,b,Churn\n")
        with pytest.raises(EmptyDataset):
            dataset.load_csv(path, "Churn", "1")

    def test_missing_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,Age,Churn\nx,1,0\ny,2,1\nz,,0\nw,4,1\n")
        with pytest.raises(UnparseableCell) as exc:
            dataset.load_csv(path, "Churn", "1")
        assert exc.value.row == 2
        assert exc.value.column == "Age"

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b,Churn\n1,2,0\n1,2\n")
        with pytest.raises(ParseError):
            dataset.load_csv(path, "Churn", "1")

    def test_duplicate_header_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,a,Churn\n1,2,0\n")
        with pytest.raises(ParseError):
            dataset.load_csv(path, "Churn", "1")

    def test_mixed_column_is_categorical(self, tmp_path):
        # half the cells are numbers, which is not "mostly": the column is
        # categorical (a mostly numeric one is rejected, see below)
        path = write_csv(tmp_path, "v,Churn\n1,0\ntwo,1\n3,0\nfour,1\n")
        ds = dataset.load_csv(path, "Churn", "1")
        assert ds.schema_of("v").kind == dataset.CATEGORICAL
        assert ds.schema_of("v").category_map == ("1", "two", "3", "four")

    def test_nan_literal_rejected(self, tmp_path):
        # float("nan") parses, so the column is numeric with a non-finite cell
        path = write_csv(tmp_path, "v,Churn\n1.5,0\nnan,1\n")
        with pytest.raises(UnparseableCell) as exc:
            dataset.load_csv(path, "Churn", "1")
        assert (exc.value.row, exc.value.column) == (1, "v")

    def test_inf_in_last_row_rejected(self, tmp_path):
        # one inf must not turn 100 numbers into 100 categories
        lines = ["a,Churn"] + [f"{i}.5,{i % 2}" for i in range(99)] + ["inf,1"]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(UnparseableCell) as exc:
            dataset.load_csv(path, "Churn", "1")
        assert (exc.value.row, exc.value.column) == (99, "a")
        assert "inf" in str(exc.value)

    def test_text_in_last_row_of_numbers_rejected(self, tmp_path):
        # one stray word must not turn 100 numbers into 100 categories;
        # two numbers out of three cells are enough
        lines = ["a,Churn"] + [f"{i}.5,{i % 2}" for i in range(99)] + ["abc,1"]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(UnparseableCell) as exc:
            dataset.load_csv(path, "Churn", "1")
        assert (exc.value.row, exc.value.column) == (99, "a")
        assert "abc" in str(exc.value)
        path = write_csv(tmp_path, "v,Churn\n1,0\ntwo,1\n3,0\n")
        with pytest.raises(UnparseableCell) as exc:
            dataset.load_csv(path, "Churn", "1")
        assert (exc.value.row, exc.value.column) == (1, "v")


def _rejected_by_float(cell):
    try:
        float(cell)
    except ValueError:
        return True
    return False


# text cells: non-empty, rejected by float(), and with the characters that
# make csv.writer quote (comma, quote, newline)
TEXT = st.text(alphabet='abcinfINF ,"\n-.e', min_size=1,
               max_size=6).filter(_rejected_by_float)


@st.composite
def csv_tables(draw):
    """(CSV text, columns, label name, positive label): every cell present.

    columns is a list of (name, kind, cells); numeric cells are Python floats
    written as repr(float), the rest are strings.
    """
    n = draw(st.integers(1, 25))
    kinds = draw(st.lists(st.sampled_from([dataset.NUMERIC,
                                           dataset.CATEGORICAL]),
                          max_size=5))
    label_at = draw(st.integers(0, len(kinds)))
    kinds.insert(label_at, dataset.LABEL)
    columns = []
    for j, kind in enumerate(kinds):
        if kind == dataset.NUMERIC:
            cells = draw(st.lists(st.floats(allow_nan=False,
                                            allow_infinity=False),
                                  min_size=n, max_size=n))
        elif kind == dataset.CATEGORICAL:
            pool = draw(st.lists(TEXT, min_size=1, max_size=4))
            cells = draw(st.lists(st.sampled_from(pool), min_size=n,
                                  max_size=n))
        else:
            cells = draw(st.lists(st.sampled_from(["0", "1", "Yes", "no",
                                                   "1.5"]),
                                  min_size=n, max_size=n))
        columns.append((f"c{j}", kind, cells))
    positive = draw(st.sampled_from(["1", "Yes", "absent"]))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([name for name, _, _ in columns])
    for i in range(n):
        writer.writerow([repr(cells[i]) if kind == dataset.NUMERIC
                         else cells[i] for _, kind, cells in columns])
    return out.getvalue(), columns, f"c{label_at}", positive


def first_appearance(cells):
    book = list(dict.fromkeys(cells))
    return tuple(book), [book.index(c) for c in cells]


class TestLoadCsvRoundTrip:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(csv_tables())
    def test_values_written_by_csv_writer_come_back(self, tmp_path_factory,
                                                    table):
        text, columns, label_name, positive = table
        path = tmp_path_factory.mktemp("roundtrip") / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        ds = dataset.load_csv(str(path), label_name, positive)
        assert [(c.name, c.kind) for c in ds.schema] == \
            [(name, kind) for name, kind, _ in columns]
        for name, kind, cells in columns:
            got = ds.columns[name]
            if kind == dataset.NUMERIC:
                assert ds.schema_of(name).category_map is None
                assert got.dtype == np.float64
                assert got.tobytes() == np.array(cells, np.float64).tobytes()
                continue
            book, codes = first_appearance(cells)
            assert ds.schema_of(name).category_map == book
            assert got.dtype == np.int64 and got.tolist() == codes
            if kind == dataset.LABEL:
                assert ds.label.tolist() == [int(c == positive)
                                             for c in cells]


class TestLoadCsvErrorPrecedence:
    def load_error(self, tmp_path, text):
        with pytest.raises(UnparseableCell) as exc:
            dataset.load_csv(write_csv(tmp_path, text), "Churn", "1")
        return exc.value

    def test_missing_cell_beats_an_earlier_inf(self, tmp_path):
        err = self.load_error(tmp_path, "v,Churn\n1,0\ninf,1\n2,0\n,1\n")
        assert (err.row, err.column) == (3, "v")
        assert str(err) == ("cell at data row 3, column 'v' cannot be parsed: "
                            "missing value")

    def test_missing_cell_beats_a_later_inf(self, tmp_path):
        err = self.load_error(tmp_path, "v,Churn\n1,0\n,1\n2,0\n-inf,1\n")
        assert (err.row, err.column) == (1, "v")
        assert "missing value" in str(err)

    def test_all_empty_column_fails_at_row_0(self, tmp_path):
        err = self.load_error(tmp_path, "v,Churn\n,0\n,1\n,0\n")
        assert (err.row, err.column) == (0, "v")
        assert "missing value" in str(err)

    def test_missing_label_cell(self, tmp_path):
        err = self.load_error(tmp_path, "v,Churn\n1,0\n2,1\n3,\n4,\n")
        assert (err.row, err.column) == (2, "Churn")
        assert "missing value" in str(err)

    def test_columns_fail_in_header_order(self, tmp_path):
        # the label's missing cell in row 2 is reported before the later
        # column's missing cell in row 0
        err = self.load_error(tmp_path, "Churn,v\n1,\n0,2\n,3\n")
        assert (err.row, err.column) == (2, "Churn")

    def test_mostly_numeric_names_the_first_text_row(self, tmp_path):
        err = self.load_error(
            tmp_path, "v,Churn\n1,0\n,1\n2,0\nabc,1\n3,0\nxyz,1\n4,0\n")
        assert (err.row, err.column) == (3, "v")
        assert str(err) == ("cell at data row 3, column 'v' cannot be parsed: "
                            "'abc' is not a number, but 4 of the column's 6 "
                            "cells are")

    def test_half_numeric_with_a_missing_cell_is_missing(self, tmp_path):
        err = self.load_error(tmp_path, "v,Churn\n1,0\nab,1\n,0\n")
        assert (err.row, err.column) == (2, "v")
        assert "missing value" in str(err)


def test_each_numeric_cell_is_parsed_once(tmp_path, monkeypatch):
    n = 50
    lines = ["a,b,Churn"] + [f"{i}.25,{-i}e3,{'yes' if i % 3 else 'no'}"
                             for i in range(n)]
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    calls = []

    def counting_float(value):
        calls.append(value)
        return float(value)

    monkeypatch.setattr(dataset, "float", counting_float, raising=False)
    ds = dataset.load_csv(path, "Churn", "yes")
    assert ds.numeric_columns() == ["a", "b"]
    assert len(calls) == 2 * n


class TestFingerprint:
    def test_stable_and_sensitive(self, tiny_csv, tmp_path):
        ds1 = dataset.load_csv(tiny_csv, "Churn", "1")
        ds2 = dataset.load_csv(tiny_csv, "Churn", "1")
        assert ds1.fingerprint() == ds2.fingerprint()
        altered = TINY_CSV.replace("A,N,25,5000,1", "A,N,26,5000,1")
        ds3 = dataset.load_csv(write_csv(tmp_path, altered), "Churn", "1")
        assert ds3.fingerprint() != ds1.fingerprint()

    def test_row_order_changes_fingerprint(self, tiny_csv, tmp_path):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        lines = TINY_CSV.strip().splitlines()
        swapped = "\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n"
        ds2 = dataset.load_csv(write_csv(tmp_path, swapped), "Churn", "1")
        assert ds.fingerprint() != ds2.fingerprint()


class TestSplit:
    def test_tiny_sizes(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        train, test = dataset.split(ds, SplitSpec(0.8, 0))
        assert (train.n_rows, test.n_rows) == (8, 2)

    def test_partition_is_exhaustive_and_disjoint(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        train, test = dataset.split(ds, SplitSpec(0.8, 5))
        ids = ds.schema_of("ID")
        got = sorted(ids.decode(int(c)) for c in
                     list(train.columns["ID"]) + list(test.columns["ID"]))
        assert got == sorted("ABCDEFGHIJ")

    def test_large_split_sizes(self):
        n = 5000
        label = np.arange(n) % 2
        cols = {"x": np.arange(n, dtype=np.float64), "y": label.copy()}
        schema = [ColumnSchema("x", dataset.NUMERIC),
                  ColumnSchema("y", dataset.LABEL, ("0", "1"))]
        ds = dataset.ColumnarDataset(schema, cols, label)
        train, test = dataset.split(ds, SplitSpec(0.8, 1))
        assert (train.n_rows, test.n_rows) == (4000, 1000)
        merged = np.sort(np.concatenate([train.columns["x"], test.columns["x"]]))
        assert np.array_equal(merged, np.arange(n, dtype=np.float64))

    def test_deterministic_given_seed(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        a_train, a_test = dataset.split(ds, SplitSpec(0.8, 9))
        b_train, b_test = dataset.split(ds, SplitSpec(0.8, 9))
        assert np.array_equal(a_train.columns["Age"], b_train.columns["Age"])
        assert np.array_equal(a_test.columns["Age"], b_test.columns["Age"])

    def test_seed_changes_partition(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        a, _ = dataset.split(ds, SplitSpec(0.8, 0))
        b, _ = dataset.split(ds, SplitSpec(0.8, 1))
        assert not np.array_equal(a.columns["Age"], b.columns["Age"])

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.2, 1.5])
    def test_bad_fraction(self, frac):
        with pytest.raises(ConfigError, match="split.fraction"):
            SplitSpec(fraction=frac)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="split.seed"):
            SplitSpec(seed=-1)

    def test_too_small(self, tmp_path):
        path = write_csv(tmp_path, "a,Churn\n1,0\n")
        ds = dataset.load_csv(path, "Churn", "1")
        with pytest.raises(DatasetTooSmall):
            dataset.split(ds, SplitSpec(0.8, 0))


class TestDropAndAppend:
    def test_drop_column(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        out = dataset.drop_columns(ds, ["ID"])
        assert out.feature_names() == ["Shop Location", "Age", "Spending"]
        assert "ID" not in out.columns
        assert np.array_equal(out.label, ds.label)

    def test_drop_nothing_is_identity(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        out = dataset.drop_columns(ds, [])
        assert out.fingerprint() == ds.fingerprint()

    def test_drop_unknown(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        with pytest.raises(UnknownColumn):
            dataset.drop_columns(ds, ["Tenure"])

    def test_drop_label_rejected(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        with pytest.raises(CannotDropLabel):
            dataset.drop_columns(ds, ["Churn"])

    def test_append_goes_last(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        out = dataset.append_numeric_column(ds, "HAFCP_1", np.ones(10))
        assert out.schema[-1].name == "HAFCP_1"
        assert out.feature_names()[-1] == "HAFCP_1"
        X, names = out.feature_matrix()
        assert names[-1] == "HAFCP_1"
        assert np.array_equal(X[:, -1], np.ones(10))

    def test_append_collision(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        with pytest.raises(ValueError):
            dataset.append_numeric_column(ds, "Age", np.ones(10))

    def test_append_length_mismatch(self, tiny_csv):
        ds = dataset.load_csv(tiny_csv, "Churn", "1")
        with pytest.raises(ValueError):
            dataset.append_numeric_column(ds, "Z", np.ones(4))


def test_feature_matrix_schema_order(tiny_csv):
    ds = dataset.load_csv(tiny_csv, "Churn", "1")
    X, names = ds.feature_matrix()
    assert names == ["ID", "Shop Location", "Age", "Spending"]
    assert X.shape == (10, 4)
    # categorical columns surface as their integer codes
    assert list(X[:, 1][:4]) == [0.0, 1.0, 0.0, 2.0]
