"""Columnar dataset loading, schema inference, and seeded train/test split.

Each CSV column is converted once. It is numeric when float() takes every
cell (non-finite ones such as inf or nan are rejected); otherwise it is
categorical, encoded as integer codes in first-appearance order by the one
code book the label column goes through too. A column where most cells are
numbers but some are text is rejected rather than read as categorical.
Missing values are rejected at load time — the mining pipeline assumes
complete data and silently imputing would change every downstream statistic.
"""

from __future__ import annotations

import csv
import hashlib
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

import numpy as np

from . import rng
from ._util import canonical_json, text_file
from .errors import (
    CannotDropLabel,
    ConfigError,
    DatasetTooSmall,
    EmptyDataset,
    MissingLabelColumn,
    ParseError,
    UnknownColumn,
    UnparseableCell,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
LABEL = "label"

# A column where more than this share of the non-missing cells parse as real
# numbers, but not all of them, is a numeric column with stray text in it.
MOSTLY_NUMERIC = 0.5


@dataclass(frozen=True)
class ColumnSchema:
    """One column's name, kind, and (for categorical/label) its code book.

    category_map is the ordered tuple of raw string values; a value's code is
    its position, assigned in first-appearance order over the file.
    """

    name: str
    kind: str
    category_map: tuple[str, ...] | None = None

    def decode(self, code: int) -> str:
        if self.category_map is None:
            raise ValueError(f"column {self.name!r} has no category map")
        return self.category_map[code]


@dataclass(frozen=True)
class SplitSpec:
    """The train share of the rows, in (0, 1), and the shuffle seed, >= 0."""

    fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ConfigError(
                f"split.fraction must be in (0,1), got {self.fraction}")
        if self.seed < 0:
            raise ConfigError(f"split.seed must be >= 0, got {self.seed}")


class ColumnarDataset:
    """Immutable columns + schema + binary churn label.

    columns maps every schema column (including the label column, stored as
    raw category codes) to a numpy array; label is the derived 0/1 array
    where 1 means the raw cell equalled the configured positive label.
    """

    def __init__(self, schema: list[ColumnSchema], columns: dict[str, np.ndarray],
                 label: np.ndarray):
        self.schema = list(schema)
        self.columns = {k: np.asarray(v) for k, v in columns.items()}
        self.label = np.asarray(label, dtype=np.int64)
        self._fingerprint: str | None = None
        n = len(self.label)
        for col in self.schema:
            if len(self.columns[col.name]) != n:
                raise ValueError(f"column {col.name!r} length mismatch")
        if not np.all((self.label == 0) | (self.label == 1)):
            raise ValueError("label values must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return len(self.label)

    @property
    def label_column(self) -> str:
        for col in self.schema:
            if col.kind == LABEL:
                return col.name
        raise ValueError("dataset has no label column")

    def feature_schema(self) -> list[ColumnSchema]:
        return [c for c in self.schema if c.kind != LABEL]

    def feature_names(self) -> list[str]:
        return [c.name for c in self.feature_schema()]

    def numeric_columns(self) -> list[str]:
        return [c.name for c in self.schema if c.kind == NUMERIC]

    def schema_of(self, name: str) -> ColumnSchema:
        for col in self.schema:
            if col.name == name:
                return col
        raise UnknownColumn(f"no column named {name!r}")

    def feature_matrix(self) -> tuple[np.ndarray, list[str]]:
        """Dense float matrix over non-label columns, in schema order."""
        names = self.feature_names()
        if not names:
            return np.empty((self.n_rows, 0), dtype=np.float64), names
        X = np.column_stack([self.columns[n].astype(np.float64) for n in names])
        return X, names

    def fingerprint(self) -> str:
        """Content hash: schema + column bytes + label bytes.

        Lineage downstream is content-addressed: two datasets with identical
        rows, schema, and label are interchangeable by construction.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            schema_desc = [
                {"name": c.name, "kind": c.kind,
                 "categories": list(c.category_map) if c.category_map else None}
                for c in self.schema
            ]
            h.update(canonical_json(schema_desc).encode("utf-8"))
            for col in self.schema:
                arr = self.columns[col.name]
                if col.kind == NUMERIC:
                    arr = arr.astype(np.float64)
                else:
                    arr = arr.astype(np.int64)
                h.update(col.name.encode("utf-8"))
                h.update(arr.tobytes())
            h.update(b"label")
            h.update(self.label.astype(np.int64).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def take(self, indices: Iterable[int]) -> "ColumnarDataset":
        idx = np.asarray(list(indices), dtype=np.int64)
        cols = {name: arr[idx] for name, arr in self.columns.items()}
        return ColumnarDataset(self.schema, cols, self.label[idx])


def _code_book(name: str, cells: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of cells in first-appearance order, and the values they code.

    The first missing cell raises UnparseableCell.
    """
    seen: dict[str, int] = {}
    codes = np.fromiter((seen.setdefault(c, len(seen)) for c in cells),
                        np.int64, len(cells))
    if "" in seen:
        raise UnparseableCell(cells.index(""), name, "missing value")
    return codes, tuple(seen)


def _text_column(name: str, cells: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """_code_book of a column that float() rejects somewhere.

    Each distinct cell is parsed once; text columns repeat few values. More
    than MOSTLY_NUMERIC of the non-missing cells being numbers fails at the
    first text cell.
    """
    counts = Counter(cells)
    non_missing = len(cells) - counts.pop("", 0)
    text = set()
    for cell in counts:
        try:
            float(cell)
        except ValueError:
            text.add(cell)
    n_real = non_missing - sum(counts[c] for c in text)
    if text and n_real > MOSTLY_NUMERIC * non_missing:
        i = next(i for i, c in enumerate(cells) if c in text)
        raise UnparseableCell(
            i, name, f"{cells[i]!r} is not a number, but {n_real} "
                     f"of the column's {non_missing} cells are")
    return _code_book(name, cells)


def load_csv(path: str, label_column: str, positive_label: str) -> ColumnarDataset:
    """Load an RFC-4180-style CSV with a header row into a ColumnarDataset.

    Each column is converted once: numeric when float() takes every cell,
    else categorical through the code book the label column goes through
    too. The label cell maps to 1 when it equals positive_label
    (case-sensitive), else 0. Columns are checked in header order, and a
    column fails with UnparseableCell: at its first text cell when more than
    MOSTLY_NUMERIC of its non-missing cells are numbers but some are not;
    else at its first missing cell (no imputation happens here); else, when
    numeric, at its first non-finite number (inf, nan).
    """
    with text_file(path) as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path}: no header row") from None
        rows = list(reader)

    if not rows:
        raise EmptyDataset(f"{path}: 0 data rows")
    if label_column not in header:
        raise MissingLabelColumn(
            f"label column {label_column!r} not in header {header}")
    if len(set(header)) != len(header):
        raise ParseError(f"{path}: duplicate column names in header")
    # before the columns are cut out: a short row would fail unnamed, a long one
    # would lose its extra fields
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: data row {i} has {len(row)} fields, expected {len(header)}")

    n = len(rows)
    schema: list[ColumnSchema] = []
    columns: dict[str, np.ndarray] = {}
    label = np.zeros(n, dtype=np.int64)
    for j, name in enumerate(header):
        cells = list(map(itemgetter(j), rows))
        kind, cats = NUMERIC, None
        if name == label_column:
            kind, (values, cats) = LABEL, _code_book(name, cells)
            if positive_label in cats:
                label = values == cats.index(positive_label)
        else:
            try:
                values = np.fromiter(map(float, cells), np.float64, n)
            except ValueError:
                kind, (values, cats) = CATEGORICAL, _text_column(name, cells)
        if kind == NUMERIC:
            non_finite = np.flatnonzero(~np.isfinite(values))
            if non_finite.size:
                i = int(non_finite[0])
                raise UnparseableCell(i, name, f"non-finite number {cells[i]!r}")
        schema.append(ColumnSchema(name, kind, cats))
        columns[name] = values
    return ColumnarDataset(schema, columns, label)


def split(ds: ColumnarDataset, spec: SplitSpec) -> tuple[ColumnarDataset, ColumnarDataset]:
    """Seeded Fisher-Yates shuffle, then the first floor(fraction*n) rows train.

    The shuffle PRNG (rng.ALGORITHM) is pinned so the same (dataset, spec)
    produces the same partition on every platform. No stratification.
    """
    n = ds.n_rows
    if n < 2:
        raise DatasetTooSmall(f"need at least 2 rows to split, have {n}")
    perm = rng.shuffled_indices(n, spec.seed)
    n_train = int(spec.fraction * n)
    return ds.take(perm[:n_train]), ds.take(perm[n_train:])


def drop_columns(ds: ColumnarDataset, names: list[str]) -> ColumnarDataset:
    present = {c.name for c in ds.schema}
    for name in names:
        if name not in present:
            raise UnknownColumn(f"cannot drop unknown column {name!r}")
        if name == ds.label_column:
            raise CannotDropLabel(f"cannot drop label column {name!r}")
    doomed = set(names)
    schema = [c for c in ds.schema if c.name not in doomed]
    columns = {c.name: ds.columns[c.name] for c in schema}
    return ColumnarDataset(schema, columns, ds.label)


def append_numeric_column(ds: ColumnarDataset, name: str, values: np.ndarray) -> ColumnarDataset:
    """New dataset with `values` appended as the last schema column.

    Feature order is part of the determinism contract (split tie-breaks depend
    on feature index), so engineered columns always go last.
    """
    if any(c.name == name for c in ds.schema):
        raise ValueError(f"column {name!r} already exists")
    values = np.asarray(values, dtype=np.float64)
    if len(values) != ds.n_rows:
        raise ValueError("appended column length mismatch")
    schema = ds.schema + [ColumnSchema(name, NUMERIC, None)]
    columns = dict(ds.columns)
    columns[name] = values
    return ColumnarDataset(schema, columns, ds.label)
