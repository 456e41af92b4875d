"""Normality-routed fuzzification of numeric columns into L/M/H items.

Each numeric column is tested for normality (Shapiro-Wilk, Royston's AS R94
approximation). Gaussian columns get three gaussian membership functions
centered at mu-sigma, mu, mu+sigma with common width sigma/2; everything else
gets triangular functions parameterized by train min/median/max:

    Low    = (min, min, median)      left shoulder
    Medium = (min, median, max)
    High   = (median, max, max)      right shoulder

Cells are assigned the term with maximal membership (ties resolve L < M < H),
then one-hot encoded next to the categorical columns.

All statistics are fitted on the train split only; a MembershipSpec records a
fingerprint of the split it was fitted on so downstream steps can refuse
mixed lineages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import rng
from .dataset import CATEGORICAL, LABEL, NUMERIC, ColumnarDataset
from .errors import (
    DegenerateColumn,
    DuplicateItemName,
    InvalidVertices,
    LineageError,
    MissingSpec,
    NonpositiveWidth,
    SampleTooLarge,
    SampleTooSmall,
    ZeroVariance,
)

TERMS = ("L", "M", "H")

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


def normality_decision(values, alpha: float = 0.05, seed: int = 0) -> NormalityResult:
    """shapiro_wilk, subsampling to 5000 values (seeded) when the column is larger.

    AS R94 is only valid to n = 5000; bigger columns are decided on a
    reproducible random subsample.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) > 5000:
        perm = rng.shuffled_indices(len(values), seed)
        values = values[np.asarray(perm[:5000], dtype=np.int64)]
    return shapiro_wilk(values, alpha=alpha)


@dataclass(frozen=True)
class MembershipSpec:
    """Fitted L/M/H membership functions for one numeric column.

    For family "gaussian", low/medium/high are (center, width) pairs with a
    shared width; for "triangular" they are (a, b, c) vertex triples.
    """

    column: str
    family: str  # gaussian | triangular
    low: tuple[float, ...]
    medium: tuple[float, ...]
    high: tuple[float, ...]
    stats: dict
    alpha: float
    source_fingerprint: str

    def membership(self, x: float, term: str) -> float:
        params = {"L": self.low, "M": self.medium, "H": self.high}[term]
        if self.family == "gaussian":
            return gaussian_mu(x, params[0], params[1])
        return triangular_mu(x, params[0], params[1], params[2])

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
        return cls(column=d["column"], family=d["family"],
                   low=tuple(d["low"]), medium=tuple(d["medium"]),
                   high=tuple(d["high"]), stats=dict(d["stats"]),
                   alpha=float(d["alpha"]),
                   source_fingerprint=d["source_fingerprint"])


def triangular_mu(x: float, a: float, b: float, c: float) -> float:
    """Triangular membership with vertices a <= b <= c.

    0 for x <= a, rises linearly to 1 at b, falls to 0 at c. Degenerate
    sides are shoulders: a == b means membership 1 for every x <= b, b == c
    means membership 1 for every x >= b.
    """
    if not a <= b <= c:
        raise InvalidVertices(f"need a <= b <= c, got ({a}, {b}, {c})")
    if a == b and x <= b:
        return 1.0
    if b == c and x >= b:
        return 1.0
    if x <= a or x >= c:
        return 0.0
    if x <= b:
        return (x - a) / (b - a)
    return (c - x) / (c - b)


def gaussian_mu(x: float, center: float, width: float) -> float:
    if width <= 0:
        raise NonpositiveWidth(f"width must be positive, got {width}")
    z = (x - center) / width
    return math.exp(-0.5 * z * z)


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


def assign_term(x: float, spec: MembershipSpec) -> FuzzyAssignment:
    """Max-cardinality (argmax membership) term, ties broken L < M < H."""
    best_term = "L"
    best_mu = spec.membership(x, "L")
    for term in ("M", "H"):
        m = spec.membership(x, term)
        if m > best_mu:
            best_term, best_mu = term, m
    return FuzzyAssignment(term=best_term, membership=best_mu)


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
    dataset_fingerprint: str
    specs_source: str

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


def to_binary_frame(ds: ColumnarDataset, specs: list[MembershipSpec]) -> BinaryFrame:
    """One-hot encode categoricals and fuzzify numerics into a BinaryFrame.

    Item order: categorical columns in schema order (each column's categories
    in code order), then numeric columns in schema order with terms L, M, H.
    Every numeric column must have a spec, and all specs must come from the
    same source split. Item names must be unique: categorical "a" with value
    "b=c" next to categorical "a=b" with value "c" is rejected.
    """
    spec_by_col = {s.column: s for s in specs}
    sources = {s.source_fingerprint for s in specs}
    if len(sources) > 1:
        raise LineageError(
            f"membership specs fitted on {len(sources)} different splits")
    specs_source = next(iter(sources)) if sources else ""

    names: list[str] = []
    srcs: list[str] = []
    cols: list[np.ndarray] = []
    mems: list[np.ndarray] = []
    n = ds.n_rows

    for col in ds.schema:
        if col.kind == LABEL:
            continue
        if col.kind == CATEGORICAL:
            codes = ds.columns[col.name]
            for code, value in enumerate(col.category_map or ()):
                hit = (codes == code).astype(np.uint8)
                names.append(categorical_item_name(col.name, value))
                srcs.append(col.name)
                cols.append(hit)
                mems.append(hit.astype(np.float64))

    for col in ds.schema:
        if col.kind != NUMERIC:
            continue
        if col.name not in spec_by_col:
            raise MissingSpec(col.name)
        spec = spec_by_col[col.name]
        values = ds.columns[col.name]
        assigned = [assign_term(float(v), spec) for v in values]
        for term in TERMS:
            hit = np.fromiter((1 if a.term == term else 0 for a in assigned),
                              dtype=np.uint8, count=n)
            mem = np.fromiter(
                (a.membership if a.term == term else 0.0 for a in assigned),
                dtype=np.float64, count=n)
            names.append(fuzzy_item_name(col.name, term))
            srcs.append(col.name)
            cols.append(hit)
            mems.append(mem)

    source_of: dict[str, str] = {}
    for name, src in zip(names, srcs):
        if name in source_of:
            raise DuplicateItemName(name, source_of[name], src)
        source_of[name] = src

    rows = np.column_stack(cols) if cols else np.zeros((n, 0), dtype=np.uint8)
    memberships = (np.column_stack(mems) if mems
                   else np.zeros((n, 0), dtype=np.float64))
    return BinaryFrame(item_names=names, item_sources=srcs, rows=rows,
                       memberships=memberships,
                       dataset_fingerprint=ds.fingerprint(),
                       specs_source=specs_source)


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
    specs: list[MembershipSpec] = []
    log: list[dict] = []
    for name in train_ds.numeric_columns():
        if name in skip:
            continue
        values = train_ds.columns[name]
        if len(values) and float(values.min()) == float(values.max()):
            raise DegenerateColumn(name)
        result = normality_decision(values, alpha=alpha, seed=seed)
        spec = fit_membership(values, result, column=name,
                              source_fingerprint=fp, alpha=alpha)
        specs.append(spec)
        log.append({"column": name, "n": int(len(values)),
                    "w_statistic": result.w_statistic,
                    "p_value": result.p_value,
                    "family": spec.family})
    return specs, log
