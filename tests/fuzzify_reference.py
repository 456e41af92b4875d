"""Test oracles for `hafcp.fuzzify`.

`fit_all_memberships` draws `normality_rows` once per split and tests every
column on those rows; `normality_decision` tests one column on its own.

`triangular_mu`, `gaussian_mu`, `membership` and `assign_term` are the
scalar membership functions and the argmax over L, M, H, one value at a
time; `assign_terms` must equal them bit for bit.
"""

import math

import numpy as np

from hafcp.errors import InvalidVertices, NonpositiveWidth
from hafcp.fuzzify import (
    FuzzyAssignment,
    MembershipSpec,
    NormalityResult,
    normality_rows,
    shapiro_wilk,
)


def normality_decision(values, alpha: float = 0.05, seed: int = 0) -> NormalityResult:
    """shapiro_wilk on the `normality_rows` of one column."""
    values = np.asarray(values, dtype=np.float64)
    return shapiro_wilk(values[normality_rows(len(values), seed)], alpha=alpha)


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


def membership(spec: MembershipSpec, x: float, term: str) -> float:
    params = {"L": spec.low, "M": spec.medium, "H": spec.high}[term]
    if spec.family == "gaussian":
        return gaussian_mu(x, params[0], params[1])
    return triangular_mu(x, params[0], params[1], params[2])


def assign_term(x: float, spec: MembershipSpec) -> FuzzyAssignment:
    """Max-cardinality (argmax membership) term, ties broken L < M < H."""
    best_term = "L"
    best_mu = membership(spec, x, "L")
    for term in ("M", "H"):
        m = membership(spec, x, term)
        if m > best_mu:
            best_term, best_mu = term, m
    return FuzzyAssignment(term=best_term, membership=best_mu)
