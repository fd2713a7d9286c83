"""Recovering compositional structure: B = C o D with both degrees > 1.

* inner_factor_general: for any divisor k of the degree, a degree-k inner
  factor D (normalized D(0) = 0, leading constant 1) takes one value on
  every (n/k)-th point of a level set of B on the circle: the orbits of
  the (n/k)-th power of the next-preimage map are the residue classes of
  the level set's points mod n/k.  One such class of the one level set
  through 1 and its psi' rates fix D in closed form: D/(D - c) is the
  Clark sum z sum_j m_j / (z - a_j) over the class, with weights m_j
  proportional to 1/psi'_B there, so the zeros of D are the zeros of that
  sum, with no candidate search.  Success is certified by re-expansion,
  and failure is reported with its reason, never guessed.

* factor_any_order: the one route to a chain whose factor degrees follow
  a factorization of n, the paper's chain of quadratic maps for a degree-2^k
  product among them.  It peels inner factors with inner_factor_general
  from the innermost entry outward, continuing with each outer factor,
  certifies the chain by re-expansion, and raises when either step fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BlaschkeProduct,
    CompositionChain,
    _MATCH_POINTS,
    _MATCH_TOL,
    _integer,
    _kept,
    _origin_dropped,
    _proper_divisors,
    _rotation,
)
from .circle import _level_sets_through
from .critical import _cluster_values, _secular_roots, _secular_zeros
from .errors import DegenerateInput, InputError, VerificationFailure
from .shiftop import RangeVerdict, is_elliptical_range, shift_matrix

__all__ = [
    "factor_any_order",
    "InnerFactorResult",
    "inner_factor_general",
    "EllipticalDecomposableReport",
    "elliptical_implies_decomposable_check",
]


def _chain_error(chain, B: BlaschkeProduct) -> float:
    """Sup distance between chain and B on the 100 _MATCH_POINTS, each side
    evaluated on all the points as one array: factor_any_order's
    certificate, and the verification error that cli decompose prints."""
    z = _MATCH_POINTS
    return float(np.abs(chain(z) - B.evaluate(z)).max())


# the identity factor z, for a 1 in a degree ordering
_IDENTITY = BlaschkeProduct(1.0, (0j,))


def factor_any_order(
    B: BlaschkeProduct,
    ordering: tuple[int, ...] | list[int],
) -> CompositionChain:
    """Factor B along the degree ordering (p_1, ..., p_m), outermost first.

    The chain is peeled from the innermost entry p outward: a p equal to
    the pending degree takes the pending product whole (and leaves z
    pending), a 1 is the factor z, and any other p takes the inner factor
    inner_factor_general(pending, p) and goes on with its outer factor.  It
    is certified by re-expansion to _MATCH_TOL on the circle, or
    VerificationFailure.  Raises DegenerateInput, before any solve, for an
    entry that is not an integer or is below 1 or a product of entries
    other than the degree, and for a level without an inner factor, naming
    the level, the pending degree, the failed search and its error.
    """
    ordering = tuple(
        _integer(p, "ordering entries must be integers", DegenerateInput)
        for p in ordering
    )
    if not ordering or any(p < 1 for p in ordering):
        raise DegenerateInput("ordering must be nonempty with positive entries")
    if math.prod(ordering) != B.degree:
        raise DegenerateInput(
            f"ordering product {math.prod(ordering)} does not match degree {B.degree}"
        )
    factors: list[BlaschkeProduct] = []
    pending = B
    for level, p in enumerate(reversed(ordering)):
        if p == pending.degree:
            factors.insert(0, pending)
            pending = _IDENTITY
        elif p == 1:
            factors.insert(0, _IDENTITY)
        else:
            res = inner_factor_general(pending, p)
            if not res.found:
                raise DegenerateInput(
                    f"no degree-{p} inner factor at level {level} (pending degree "
                    f"{pending.degree}): search {res.reason}, error {res.error:.3e}"
                )
            factors.insert(0, res.inner)
            pending = res.outer
    chain = CompositionChain(tuple(factors))
    err = _chain_error(chain, B)
    if not err <= _MATCH_TOL:
        raise VerificationFailure(f"ordering {ordering}: re-expansion error {err:.3e}")
    return chain


@dataclass(frozen=True)
class InnerFactorResult:
    """Outcome of the degree-k inner factor search, k first as in
    monodromy.CrossRow; _divisor_rows holds one per proper divisor.

    reason is "ok" when found; otherwise "not-found" (the class and its
    rates fix no inner factor of degree k, or the collapsed zero multiset
    had the wrong counts, error inf) or "verification-failed" (a candidate
    D was built but C o D missed B on the circle by a finite error above
    _MATCH_TOL).
    """

    k: int
    found: bool
    outer: BlaschkeProduct | None
    inner: BlaschkeProduct | None
    reason: str
    error: float

    def __bool__(self) -> bool:
        return self.found


def _collapse_zeros(
    B: BlaschkeProduct, D: BlaschkeProduct, k: int
) -> tuple[complex, ...] | None:
    """Zeros of the outer factor: cluster D(zeros of B), divide counts by k."""
    images = D.evaluate(np.array(B.zeros)).tolist()
    clusters, _ = _cluster_values(images, 1e-5)
    if any(count % k != 0 for _, count in clusters):
        return None
    # clusters come sorted by mean, so the zeros are too
    return tuple(mean for mean, count in clusters for _ in range(count // k))


def _inner_from_class(
    points: np.ndarray, rates: np.ndarray, k: int
) -> BlaschkeProduct | None:
    """The degree-k D with D(0) = 0 and leading constant 1 that is constant
    on the k circle points of one class, read off their psi' rates.

    If D(0) = 0 and D = c at the points a_j, the Clark measure of D at c
    gives D/(D - c) = z sum_j m_j / (z - a_j) with m_j = 1/|D'(a_j)| (Clark
    1972; in this partial-fraction form, Daepp, Gorkin and Mortini 2002).
    On a class of B = C o D, psi'_B = psi'_C(c) |D'| with one psi'_C(c), so
    the weights 1/psi'_B are the m_j up to one positive factor, and the
    zeros of D other than 0 are the zeros of that sum, solved as
    eigenvalues with the shift 2 (away from the class on the circle and
    from roots in the disk).  None when the roots are not k-1 points inside
    the disk.
    """
    weights = 1.0 / rates
    roots = _secular_roots(points, weights, _secular_zeros(points, weights, 2.0))
    zeros = [b for b, m in roots for _ in range(m)]
    if len(zeros) != k - 1 or not all(abs(b) < 1.0 for b in zeros):
        return None
    return BlaschkeProduct(1.0, (0j, *zeros))


def inner_factor_general(B: BlaschkeProduct, k: int) -> InnerFactorResult:
    """Search for B = C o D with deg D = k, for a proper divisor k of deg B.

    D is normalized to D(0) = 0 with leading constant 1; the rotation freedom
    this leaves is absorbed by C.  If B = C o D, then D is constant on every
    (n/k)-th point of a level set of B on the circle, and one such class
    fixes D with its rates (_inner_from_class).  C takes the collapsed zero
    multiset, and one core._rotation match on the circle gives its constant
    and the error sup |B - C o D|, finite and at most _MATCH_TOL for a
    factor.  A negative answer carries its reason; the theory certifies
    existence for genuine factors but gives no numerical certificate of
    absence.  A k that is not an integer proper divisor raises InputError
    before the kept results are read.  The result is kept on the product
    object per k (core._kept), so searching the same product again costs
    nothing.  Every caller reaches the search through this module global,
    so a wrapper bound in its place sees every call.
    """
    n = B.degree
    k = _integer(k, f"k must be a proper divisor of {n}")
    if not (1 < k < n) or n % k != 0:
        raise InputError(f"k must be a proper divisor of {n}, got {k}")
    return _inner_factor(B, k)


@_kept
def _inner_factor(B: BlaschkeProduct, k: int) -> InnerFactorResult:
    """inner_factor_general's search for a checked k, kept on B per k.

    Every residue class mod hop = n/k of the points of the level set
    through 1 is an orbit of g^hop, so class 0 of the sorted row serves:
    its points and rates are read off the one solve that circle keeps on B
    for every divisor's search.
    """
    level, hop = _level_sets_through(B, (1.0 + 0j,)), B.degree // k
    D = _inner_from_class(level.points[0, ::hop], level.rates[0, ::hop], k)
    outer_zeros = None if D is None else _collapse_zeros(B, D, k)
    if outer_zeros is None:
        return InnerFactorResult(k, False, None, None, "not-found", math.inf)
    z = _MATCH_POINTS
    base = BlaschkeProduct(1.0, outer_zeros).evaluate(D.evaluate(z))
    gamma, err = _rotation(B.evaluate(z), base)
    if err <= _MATCH_TOL:
        C = BlaschkeProduct(gamma, outer_zeros)
        return InnerFactorResult(k, True, C, D, "ok", err)
    return InnerFactorResult(k, False, None, None, "verification-failed", err)


def _divisor_rows(B: BlaschkeProduct) -> tuple[InnerFactorResult, ...]:
    """inner_factor_general(B, k) for every proper divisor k of the degree,
    ascending: the one divisor table that the elliptical check,
    monodromy.cross_validate and the CLI's decompose read.  The search is
    looked up through this module global at each call, so a wrapper bound
    in its place sees every search."""
    return tuple(inner_factor_general(B, k) for k in _proper_divisors(B.degree))


@dataclass(frozen=True)
class EllipticalDecomposableReport:
    """Ellipticity of W (for the product divided by its zero at 0) against
    inner-factor existence for every proper divisor: rows is the divisor
    table, one InnerFactorResult per proper divisor k, ascending."""

    verdict: RangeVerdict
    rows: tuple[InnerFactorResult, ...]

    @property
    def consistent(self) -> bool:
        return (not self.verdict.is_ellipse) or all(r.found for r in self.rows)


def elliptical_implies_decomposable_check(
    B: BlaschkeProduct,
) -> EllipticalDecomposableReport:
    """Elliptical numerical range should come with every divisor shape.

    The matrix model is built from the zeros of B with one zero within
    core._IDENTITY_TOL of the origin removed (core._origin_dropped, the
    compressed shift of B/z); if its numerical range is an ellipse, a
    factorization must exist for every proper divisor of the degree, and
    each is searched for directly with inner_factor_general; the rows are
    the search results, _divisor_rows.  Raises DegenerateInput, before any
    search or sweep, when B/z has no model space: no zero lies within
    core._IDENTITY_TOL of the origin, or the degree is 1.
    """
    rest = _origin_dropped(B.zeros)
    if not rest:
        raise DegenerateInput(
            "B(z)/z has no model space: a zero at the origin (the z factor) "
            "and degree at least 2 are required"
        )
    rows = _divisor_rows(B)
    verdict = is_elliptical_range(shift_matrix(rest))
    return EllipticalDecomposableReport(verdict, rows)
