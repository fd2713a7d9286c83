"""Recovering compositional structure: B = C o D with both degrees > 1.

* inner_factor_general: for any divisor k of the degree, a degree-k inner
  factor D (normalized D(0) = 0, leading constant 1) takes one value on
  every (n/k)-th point of a level set of B on the circle: the orbits of
  the (n/k)-th power of the next-preimage map are the residue classes of
  the level set's points mod n/k.  Two such classes of the one level set
  through 1 fix D in closed form: writing D = z P / Q, the monic
  polynomials vanishing on them differ by a multiple of Q, and P follows,
  with no candidate search.  Success is certified by re-expansion, and
  failure is reported with its reason, never guessed.

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
    _CLUSTER_TOL,
    _MATCH_POINTS,
    _MATCH_TOL,
    _integer,
    _kept,
    _origin_dropped,
    _proper_divisors,
    _rotation,
)
from .circle import invariant_orbit
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

    reason is "ok" when found; otherwise "not-found" (the two orbits fix no
    inner factor of degree k, or the collapsed zero multiset had the wrong
    counts, error inf) or "verification-failed" (a candidate D was built
    but C o D missed B on the circle by a finite error above _MATCH_TOL).
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


def _newton_step(b: complex, c0: complex, c1: complex, a0, a1) -> complex:
    """One Newton step on c1 R_0 - c0 R_1 evaluated as products over the
    orbits, which sidesteps the cancellation among its coefficients."""
    d0, d1 = b - a0, b - a1
    t0, t1 = c1 * np.prod(d0), c0 * np.prod(d1)
    return complex(b - (t0 - t1) / (t0 * np.sum(1.0 / d0) - t1 * np.sum(1.0 / d1)))


def _inner_from_orbits(
    orbits: tuple[tuple[complex, ...], tuple[complex, ...]], k: int
) -> BlaschkeProduct | None:
    """The degree-k D with D(0) = 0 and leading constant 1 that is constant
    on each of the two orbits, read off their vanishing polynomials.

    Write D = z P / Q with P monic of degree k-1 and Q = prod (1 - conj(b) z).
    D = c on the k points of an orbit makes z P - c Q the monic polynomial
    R_c vanishing there, with c = -R_c(0), so z P is a multiple of
    c_1 R_0 - c_0 R_1.  In partial fractions over the orbit-0 points,
    R_1/R_0 = 1 + sum_j rho_j / (z - a_j) with rho_j = R_1(a_j) / R_0'(a_j),
    and the roots of P are the zeros of sum_j (rho_j / a_j) / (z - a_j),
    solved as eigenvalues with the shift 2 (away from the orbits on the
    circle and from roots in the disk).  Simple roots of P get one Newton
    step in product form, except within _CLUSTER_TOL of 0: there z P has a
    double root, and the step would return only rounding.  None when the
    two values coincide or the roots are not k-1 points inside the disk.
    """
    a0, a1 = (np.array(orbit) for orbit in orbits)
    c0, c1 = -np.prod(-a0), -np.prod(-a1)
    if abs(c1 - c0) <= _CLUSTER_TOL:
        return None
    gaps = a0[:, None] - a0[None, :]
    np.fill_diagonal(gaps, 1.0)
    rho = np.prod(a0[:, None] - a1[None, :], axis=1) / np.prod(gaps, axis=1)
    weights = rho / a0
    roots = _secular_roots(a0, weights, _secular_zeros(a0, weights, 2.0))
    zeros = [
        _newton_step(b, c0, c1, a0, a1) if m == 1 and abs(b) > _CLUSTER_TOL else b
        for b, m in roots
        for _ in range(m)
    ]
    if len(zeros) != k - 1 or not all(abs(b) < 1.0 for b in zeros):
        return None
    return BlaschkeProduct(1.0, (0j, *zeros))


def inner_factor_general(B: BlaschkeProduct, k: int) -> InnerFactorResult:
    """Search for B = C o D with deg D = k, for a proper divisor k of deg B.

    D is normalized to D(0) = 0 with leading constant 1; the rotation freedom
    this leaves is absorbed by C.  If B = C o D, then D is constant on every
    (n/k)-th point of a level set of B on the circle, and two such orbits
    determine D (see _inner_from_orbits).  C takes the collapsed zero
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

    The two orbits are the residue classes 0 and hop // 2 mod hop = n/k
    of the points of the level set through 1, the second halfway round
    from the first, both read off the one solve that circle keeps on B
    for every divisor's search.
    """
    full, hop = invariant_orbit(B, 1.0 + 0j, B.degree), B.degree // k
    D = _inner_from_orbits((full[0::hop], full[hop // 2 :: hop]), k)
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
