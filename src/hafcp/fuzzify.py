"""Normality-routed fuzzification of numeric columns into L/M/H items.

Each numeric column is tested for normality (Shapiro-Wilk, Royston's AS R94
approximation). Gaussian columns get three gaussian membership functions
centered at mu-sigma, mu, mu+sigma with common width sigma/2; everything else
gets triangular functions parameterized by train min/median/max:

    Low    = (min, min, median)      left shoulder
    Medium = (min, median, max)
    High   = (median, max, max)      right shoulder

A triangle (a, b, c) rises from 0 at a to 1 at b and falls to 0 at c; a side
of zero length is a shoulder, membership 1 for every x <= b when a == b and
for every x >= b when b == c. Cells are assigned the term with maximal
membership (ties resolve L < M < H), then one-hot encoded next to the
categorical columns.

All statistics are fitted on the train split only; a MembershipSpec records a
fingerprint of the split it was fitted on, which the CLI checks against the
train split when it reads the specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from . import rng
from ._util import json_field, json_floats
from .dataset import CATEGORICAL, NUMERIC, ColumnarDataset, ColumnSchema
from .errors import (
    DegenerateColumn,
    DuplicateItemName,
    InvalidVertices,
    MissingSpec,
    NonpositiveWidth,
    ParseError,
    SampleTooLarge,
    SampleTooSmall,
    TooManyCategories,
    ZeroVariance,
)

TERMS = ("L", "M", "H")

# parameters per term: (center, width) or vertices (a, b, c)
FAMILY_ARITY = {"gaussian": 2, "triangular": 3}

# Most values a categorical column may turn into items: one frame column
# each, so an n-row ID column would make n x n frames.
MAX_CATEGORIES = 1000

_STD_NORMAL = NormalDist()

# AS R94 polynomial coefficients (Royston 1995), numpy polyval order
# (highest degree first).
_C1 = [-2.706056, 4.434685, -2.07119, -0.147981, 0.221157, 0.0]
_C2 = [-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0]
_C3 = [-0.0006714, 0.025054, -0.39978, 0.544]
_C4 = [-0.0020322, 0.062767, -0.77857, 1.3822]
_C5 = [0.0038915, -0.083751, -0.31082, -1.5861]
_C6 = [0.0030302, -0.082676, -0.4803]
_G = [0.459, -2.273]

_PI6 = 1.909859  # 6/pi
_STQR = 1.047198  # asin(sqrt(3/4))


@dataclass(frozen=True)
class NormalityResult:
    w_statistic: float
    p_value: float
    is_gaussian: bool


@dataclass(frozen=True)
class FuzzyAssignment:
    term: str
    membership: float


def _ndtri(q: np.ndarray) -> np.ndarray:
    return np.array([_STD_NORMAL.inv_cdf(v) for v in q], dtype=np.float64)


@lru_cache(maxsize=8)
def _coefficients(n: int) -> np.ndarray:
    """AS R94 coefficients of an n-sample: once per n, shared read-only.

    Every column of a split has the same n, so a split pays for one set.
    """
    m = _ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    m2 = float((m * m).sum())
    u = 1.0 / math.sqrt(n)
    a = np.empty(n, dtype=np.float64)
    if n == 3:
        a[0], a[1], a[2] = -math.sqrt(0.5), 0.0, math.sqrt(0.5)
    else:
        a_n = float(np.polyval(_C1, u)) + m[-1] / math.sqrt(m2)
        if n > 5:
            a_n1 = float(np.polyval(_C2, u)) + m[-2] / math.sqrt(m2)
            phi = (m2 - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / \
                  (1.0 - 2.0 * a_n ** 2 - 2.0 * a_n1 ** 2)
            a[2:n - 2] = m[2:n - 2] / math.sqrt(phi)
            a[-2], a[1] = a_n1, -a_n1
        else:
            phi = (m2 - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n ** 2)
            a[1:n - 1] = m[1:n - 1] / math.sqrt(phi)
        a[-1], a[0] = a_n, -a_n
    a.flags.writeable = False
    return a


def shapiro_wilk(x, alpha: float = 0.05) -> NormalityResult:
    """Shapiro-Wilk W and p via Royston's AS R94 approximation.

    Valid for 3 <= n <= 5000. p-values use Royston's normalizing
    transformations: the exact beta form at n=3, a -log(gamma - log(1-W))
    transform for n <= 11, and a log-n polynomial normalization above that.
    """
    xs = np.sort(np.asarray(x, dtype=np.float64))
    n = len(xs)
    if n < 3:
        raise SampleTooSmall(f"Shapiro-Wilk needs n >= 3, got {n}")
    if n > 5000:
        raise SampleTooLarge(f"AS R94 is valid up to n = 5000, got {n}")
    if xs[0] == xs[-1]:
        raise ZeroVariance("all sample values identical")

    a = _coefficients(n)
    mean = xs.mean()
    ss = float(((xs - mean) ** 2).sum())
    w = float(np.dot(a, xs)) ** 2 / ss
    if w > 1.0:
        w = 1.0

    if n == 3:
        p = _PI6 * (math.asin(math.sqrt(w)) - _STQR)
        p = min(max(p, 0.0), 1.0)
    else:
        y = math.log(1.0 - w)
        if n <= 11:
            gamma = float(np.polyval(_G, n))
            if y >= gamma:
                p = 1e-19
            else:
                y = -math.log(gamma - y)
                mu = float(np.polyval(_C3, n))
                sigma = math.exp(float(np.polyval(_C4, n)))
                p = 1.0 - _STD_NORMAL.cdf((y - mu) / sigma)
        else:
            ln_n = math.log(n)
            mu = float(np.polyval(_C5, ln_n))
            sigma = math.exp(float(np.polyval(_C6, ln_n)))
            p = 1.0 - _STD_NORMAL.cdf((y - mu) / sigma)

    return NormalityResult(w_statistic=w, p_value=p, is_gaussian=p > alpha)


def normality_rows(n: int, seed: int = 0) -> np.ndarray:
    """Rows of an n-row column that the normality test sees.

    AS R94 is only valid to n = 5000, so a bigger column is decided on the
    first 5000 rows of a seeded shuffle; a smaller one on all its rows. The
    rows depend on n and the seed alone, so one draw serves every column of
    a split.
    """
    if n <= 5000:
        return np.arange(n)
    return np.asarray(rng.shuffled_indices(n, seed)[:5000], dtype=np.int64)


@dataclass(frozen=True)
class MembershipSpec:
    """Fitted L/M/H membership functions for one numeric column.

    For family "gaussian", low/medium/high are (center, width) pairs with a
    shared width; for "triangular" they are (a, b, c) vertex triples.
    The constructor rejects parameters no membership function takes,
    naming the column and the term.
    """

    column: str
    family: str  # gaussian | triangular
    low: tuple[float, ...]
    medium: tuple[float, ...]
    high: tuple[float, ...]
    stats: dict
    alpha: float
    source_fingerprint: str

    def __post_init__(self) -> None:
        arity = FAMILY_ARITY.get(self.family)
        if arity is None:
            raise ParseError(f"column {self.column!r}: family must be one of "
                             f"{sorted(FAMILY_ARITY)}, got {self.family!r}")
        for key in ("low", "medium", "high"):
            p = tuple(getattr(self, key))
            where = f"column {self.column!r} term {key!r}"
            if len(p) != arity:
                raise ParseError(f"{where}: must hold {arity} numbers for "
                                 f"family {self.family!r}, got {p}")
            if self.family == "triangular" and not p[0] <= p[1] <= p[2]:
                raise InvalidVertices(f"{where}: need a <= b <= c, got {p}")
            if self.family == "gaussian" and not p[1] > 0:
                raise NonpositiveWidth(f"{where}: width must be positive, "
                                       f"got {p[1]}")

    def to_dict(self) -> dict:
        return {
            "column": self.column,
            "family": self.family,
            "low": list(self.low),
            "medium": list(self.medium),
            "high": list(self.high),
            "stats": dict(self.stats),
            "alpha": self.alpha,
            "source_fingerprint": self.source_fingerprint,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MembershipSpec":
        """to_dict's output back; ParseError on a bad key or parameter."""
        what = "membership spec"
        return cls(column=json_field(d, "column", str, what),
                   family=json_field(d, "family", str, what),
                   **{key: tuple(json_floats(d, key, what))
                      for key in ("low", "medium", "high")},
                   stats=json_field(d, "stats", dict, what),
                   alpha=json_field(d, "alpha", float, what),
                   source_fingerprint=json_field(d, "source_fingerprint",
                                                 str, what))


def fit_membership(column_values, normality: NormalityResult, *,
                   column: str = "", source_fingerprint: str = "",
                   alpha: float = 0.05) -> MembershipSpec:
    """Fit the L/M/H membership family routed by the normality decision.

    Gaussian route: centers (mu-sigma, mu, mu+sigma), common width sigma/2
    (sigma is the population standard deviation). Triangular route:
    min/median/max vertices with shoulders at the extremes.
    """
    values = np.asarray(column_values, dtype=np.float64)
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        raise DegenerateColumn(column or "<unnamed>")
    mu = float(values.mean())
    sigma = float(values.std())  # ddof=0
    med = float(np.median(values))
    stats = {"mean": mu, "std": sigma, "min": lo, "median": med, "max": hi}

    if normality.is_gaussian:
        width = sigma / 2.0
        return MembershipSpec(column=column, family="gaussian",
                              low=(mu - sigma, width), medium=(mu, width),
                              high=(mu + sigma, width), stats=stats,
                              alpha=alpha, source_fingerprint=source_fingerprint)
    return MembershipSpec(column=column, family="triangular",
                          low=(lo, lo, med), medium=(lo, med, hi),
                          high=(med, hi, hi), stats=stats, alpha=alpha,
                          source_fingerprint=source_fingerprint)


def _triangular_mus(x: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """Triangle (a, b, c) memberships: 0 for x <= a or x >= c, (x-a)/(b-a)
    up to b, (c-x)/(c-b) after it. A shoulder, applied last, overrides:
    b == c gives 1 for every x >= b, a == b gives 1 for every x <= b."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(x <= b, (x - a) / (b - a), (c - x) / (c - b))
    mu = np.where((x <= a) | (x >= c), 0.0, mu)
    if b == c:
        mu = np.where(x >= b, 1.0, mu)
    if a == b:
        mu = np.where(x <= b, 1.0, mu)
    return mu


def _gaussian_mus(x: np.ndarray, center: float, width: float) -> np.ndarray:
    """Gaussian memberships exp(-z*z/2), z = (x - center) / width.

    The exponent is computed in numpy; the exponential is `math.exp` per
    value, because `np.exp` is not always bit-identical to it.
    """
    z = (x - center) / width
    return np.fromiter(map(math.exp, (-0.5 * z * z).tolist()),
                       dtype=np.float64, count=len(x))


def assign_terms(values, spec: MembershipSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each value's term of maximal membership: (index into TERMS, membership).

    Ties go to the earliest of L, M, H (the first maximum).
    """
    x = np.asarray(values, dtype=np.float64)
    mus = _gaussian_mus if spec.family == "gaussian" else _triangular_mus
    mu = np.stack([mus(x, *params)
                   for params in (spec.low, spec.medium, spec.high)])
    term = np.argmax(mu, axis=0)
    return term, mu[term, np.arange(len(x))]


def assign_term(x: float, spec: MembershipSpec) -> FuzzyAssignment:
    """`assign_terms` of the one value x."""
    term, mu = assign_terms([x], spec)
    return FuzzyAssignment(term=TERMS[term[0]], membership=float(mu[0]))


@dataclass
class BinaryFrame:
    """One-hot view of a dataset: categorical items plus fuzzy L/M/H items.

    rows is 0/1; memberships carries the assigned membership degree where the
    indicator is 1 (1.0 for categorical items), 0 elsewhere. item_sources
    maps each item back to its source column for profit lookup.
    """

    item_names: list[str]
    item_sources: list[str]
    rows: np.ndarray
    memberships: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_items(self) -> int:
        return self.rows.shape[1]


def fuzzy_item_name(column: str, term: str) -> str:
    return f"{column}_{term}"


def categorical_item_name(column: str, value: str) -> str:
    return f"{column}={value}"


def check_categories(schema: list[ColumnSchema]) -> None:
    """TooManyCategories for the first categorical column of schema with
    more than MAX_CATEGORIES values."""
    for col in schema:
        if (col.kind == CATEGORICAL
                and len(col.category_map or ()) > MAX_CATEGORIES):
            raise TooManyCategories(col.name, len(col.category_map),
                                    MAX_CATEGORIES)


def frame_items(schema: list[ColumnSchema], specs: list[MembershipSpec]
                ) -> tuple[list[str], list[str]]:
    """Item names and source columns of the frame `to_binary_frame` builds.

    Item order: categorical columns in schema order (each column's categories
    in code order), then numeric columns in schema order with terms L, M, H.
    Every numeric column must have a spec, and no categorical column may
    have more than MAX_CATEGORIES values (check_categories). Item names must
    be unique: categorical "a" with value "b=c" next to categorical "a=b"
    with value "c" is rejected. Needs no rows, so a caller can validate the
    items before it encodes anything.
    """
    check_categories(schema)
    fitted = {s.column for s in specs}
    names: list[str] = []
    srcs: list[str] = []
    for col in schema:
        if col.kind == CATEGORICAL:
            for value in col.category_map or ():
                names.append(categorical_item_name(col.name, value))
                srcs.append(col.name)
    for col in schema:
        if col.kind != NUMERIC:
            continue
        if col.name not in fitted:
            raise MissingSpec(col.name)
        for term in TERMS:
            names.append(fuzzy_item_name(col.name, term))
            srcs.append(col.name)

    source_of: dict[str, str] = {}
    for name, src in zip(names, srcs):
        if name in source_of:
            raise DuplicateItemName(name, source_of[name], src)
        source_of[name] = src
    return names, srcs


def to_binary_frame(ds: ColumnarDataset, specs: list[MembershipSpec]) -> BinaryFrame:
    """One-hot encode categoricals and fuzzify numerics into a BinaryFrame.

    Items are those of `frame_items`, in its order.
    """
    names, srcs = frame_items(ds.schema, specs)
    spec_by_col = {s.column: s for s in specs}

    n = ds.n_rows
    rows = np.zeros((n, len(names)), dtype=np.uint8)
    memberships = np.zeros((n, len(names)), dtype=np.float64)
    j = 0
    for col in ds.schema:
        if col.kind == CATEGORICAL:
            width = len(col.category_map or ())
            hit = ds.columns[col.name][:, None] == np.arange(width)
            rows[:, j:j + width] = hit
            memberships[:, j:j + width] = hit
            j += width
    for col in ds.schema:
        if col.kind == NUMERIC:
            term, mu = assign_terms(ds.columns[col.name], spec_by_col[col.name])
            hit = term[:, None] == np.arange(len(TERMS))
            rows[:, j:j + len(TERMS)] = hit
            memberships[:, j:j + len(TERMS)] = np.where(hit, mu[:, None], 0.0)
            j += len(TERMS)

    return BinaryFrame(item_names=names, item_sources=srcs, rows=rows,
                       memberships=memberships)


def fit_all_memberships(train_ds: ColumnarDataset, alpha: float = 0.05,
                        seed: int = 0,
                        skip: set[str] | None = None
                        ) -> tuple[list[MembershipSpec], list[dict]]:
    """Fit specs for every numeric column of the train split (minus `skip`).

    Returns the specs plus a per-column normality log (column, n, W, p,
    family) for the CLI to persist. Degenerate (constant) columns raise
    DegenerateColumn naming the offender.
    """
    skip = skip or set()
    fp = train_ds.fingerprint()
    fitted = [name for name in train_ds.numeric_columns() if name not in skip]
    sample = normality_rows(train_ds.n_rows, seed) if fitted else None
    specs: list[MembershipSpec] = []
    log: list[dict] = []
    for name in fitted:
        values = train_ds.columns[name]
        if len(values) and float(values.min()) == float(values.max()):
            raise DegenerateColumn(name)
        result = shapiro_wilk(values[sample], alpha=alpha)
        spec = fit_membership(values, result, column=name,
                              source_fingerprint=fp, alpha=alpha)
        specs.append(spec)
        log.append({"column": name, "n": int(len(values)),
                    "w_statistic": result.w_statistic,
                    "p_value": result.p_value,
                    "family": spec.family})
    return specs, log
