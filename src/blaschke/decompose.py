"""Recovering compositional structure: B = C o D with both degrees > 1.

* inner_factor_general: for any divisor k of the degree, a degree-k inner
  factor D (normalized D(0) = 0, leading constant 1) takes one value on
  every (n/k)-th point of a level set of B on the circle.  Two interlaced
  such orbits fix D in closed form: writing D = z P / Q, the monic
  polynomials vanishing on the orbits differ by a multiple of Q, and P
  follows, with no candidate search.  Success is certified by
  re-expansion, and failure is reported with its reason, never guessed.

* factor_any_order: the one route to a chain whose factor degrees follow
  a factorization of n.  It peels inner factors with inner_factor_general
  from the innermost entry outward, continuing with each outer factor, and
  certifies the chain by re-expansion.  chain_2n is its (2, ..., 2) case,
  a degree-2^k product as a chain of k quadratic maps, reported rather
  than raised.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BlaschkeProduct,
    CompositionChain,
    ToleranceConfig,
    circle_samples,
    unit,
    _tol,
)
from .circle import invariant_orbit
from .critical import _cluster_values, _secular_roots, _secular_zeros
from .errors import DegenerateInput, InputError, VerificationFailure
from .shiftop import RangeVerdict, is_elliptical_range, shift_matrix

__all__ = [
    "ChainRecord",
    "ShapeFailure",
    "DecompositionReport",
    "chain_2n",
    "factor_any_order",
    "InnerFactorResult",
    "inner_factor_general",
    "DivisorRow",
    "EllipticalDecomposableReport",
    "elliptical_implies_decomposable_check",
]


def _chain_error(
    chain, B: BlaschkeProduct, tol: ToleranceConfig, count: int = 100
) -> float:
    return max(
        abs(chain(z, tol) - B.evaluate(z, tol)) for z in circle_samples(count, 0.05)
    )


def _pin_outer(
    B: BlaschkeProduct,
    outer_zeros: tuple[complex, ...],
    inner: BlaschkeProduct,
    tol: ToleranceConfig,
) -> BlaschkeProduct | None:
    """The outer factor with these zeros whose composition with inner matches
    B at z0 = e^{0.37i}; None if the constant is not unimodular to 1e-6.

    inner maps the circle to the circle and so does the outer base product,
    so the denominator at z0 has modulus 1 and z0 always serves."""
    z0 = cmath.exp(0.37j)
    base = BlaschkeProduct(1.0, outer_zeros)
    gamma = B.evaluate(z0, tol) / base.evaluate(inner.evaluate(z0, tol), tol)
    if abs(abs(gamma) - 1.0) > 1e-6:
        return None
    return BlaschkeProduct(unit(gamma), outer_zeros)


@dataclass(frozen=True)
class ChainRecord:
    chain: CompositionChain
    factor_degrees: tuple[int, ...]
    verification_error: float


@dataclass(frozen=True)
class ShapeFailure:
    shape: tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class DecompositionReport:
    input_degree: int
    chains: tuple[ChainRecord, ...]
    failures: tuple[ShapeFailure, ...]

    @property
    def found(self) -> bool:
        return bool(self.chains)


# the identity factor z, for a 1 in a degree ordering
_IDENTITY = BlaschkeProduct(1.0, (0j,))


def _peel(
    B: BlaschkeProduct, ordering: tuple[int, ...], tol: ToleranceConfig
) -> tuple[CompositionChain | None, str, InnerFactorResult | None]:
    """(chain, "", None) with the factor degrees of ordering, outermost
    first, peeled from the innermost entry p outward; (None, why, result)
    at the first level whose inner factor search fails.

    A p equal to the pending degree takes the pending product whole (and
    leaves z pending), a 1 is the factor z, and any other p takes the inner
    factor inner_factor_general(pending, p) and goes on with its outer
    factor.  The chain is not checked against B here.
    """
    factors: list[BlaschkeProduct] = []
    pending = B
    for level, p in enumerate(reversed(ordering)):
        if p == pending.degree:
            factors.insert(0, pending)
            pending = _IDENTITY
        elif p == 1:
            factors.insert(0, _IDENTITY)
        else:
            res = inner_factor_general(pending, p, tol)
            if not res.found:
                why = f"no degree-{p} inner factor at level {level}"
                return None, f"{why} (pending degree {pending.degree})", res
            factors.insert(0, res.inner)
            pending = res.outer
    return CompositionChain(tuple(factors)), "", None


def chain_2n(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> DecompositionReport:
    """Write a degree-2^k product as a chain of k degree-2 factors.

    The (2, ..., 2) case of factor_any_order, with a failure reported
    rather than raised: every inner factor is z (z - b) / (1 - conj(b) z),
    and the factors run outermost first, matching CompositionChain.
    """
    tol = _tol(tol)
    n = B.degree
    k = n.bit_length() - 1
    if n != 2**k or n < 2:
        raise InputError(f"degree {n} is not a power of two")
    shape = (2,) * k

    chain, why, _ = _peel(B, shape, tol)
    err = math.inf if chain is None else _chain_error(chain, B, tol)
    if err > 1e-8:
        why = why or f"re-expansion error {err:.3e}"
        return DecompositionReport(n, (), (ShapeFailure(shape, why),))
    return DecompositionReport(
        n, (ChainRecord(chain, tuple(f.degree for f in chain.factors), err),), ()
    )


def factor_any_order(
    B: BlaschkeProduct,
    ordering: tuple[int, ...] | list[int],
    tol: ToleranceConfig | None = None,
) -> CompositionChain:
    """Factor B along the degree ordering (p_1, ..., p_m), outermost first.

    The chain is peeled from the inside (see _peel) and certified by
    re-expansion to 1e-8 on the circle, or VerificationFailure.  Raises
    DegenerateInput, before any solve, for an entry below 1 or a product of
    entries other than the degree, and for a level without an inner factor,
    naming the level and the failed search.
    """
    tol = _tol(tol)
    ordering = tuple(int(p) for p in ordering)
    if not ordering or any(p < 1 for p in ordering):
        raise DegenerateInput("ordering must be nonempty with positive entries")
    if math.prod(ordering) != B.degree:
        raise DegenerateInput(
            f"ordering product {math.prod(ordering)} does not match degree {B.degree}"
        )
    chain, why, res = _peel(B, ordering, tol)
    if chain is None:
        raise DegenerateInput(f"{why}: search {res.reason}, error {res.error:.3e}")
    err = _chain_error(chain, B, tol)
    if err > 1e-8:
        raise VerificationFailure(f"ordering {ordering}: re-expansion error {err:.3e}")
    return chain


@dataclass(frozen=True)
class InnerFactorResult:
    """Outcome of the degree-k inner factor search.

    reason is "ok" when found; otherwise "not-found" (the two orbits fix no
    inner factor of degree k, or the collapsed zero multiset had the wrong
    counts) or "verification-failed" (a candidate D was built but C o D
    missed B on the circle).
    """

    found: bool
    outer: BlaschkeProduct | None
    inner: BlaschkeProduct | None
    reason: str
    error: float

    def __bool__(self) -> bool:
        return self.found


def _orbit_pair(
    B: BlaschkeProduct, hop: int, k: int, tol: ToleranceConfig
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Two interlaced orbits of the hop-fold next-preimage power."""
    n = B.degree
    w0 = 1.0 + 0j
    full0 = invariant_orbit(B, w0, n, tol)
    orbit0 = tuple(full0[(j * hop) % n] for j in range(k))
    t0 = 0.0
    t1 = cmath.phase(full0[hop % n]) % (2.0 * math.pi)
    w1 = cmath.exp(1j * (t0 + 0.5 * t1))
    full1 = invariant_orbit(B, w1, n, tol)
    orbit1 = tuple(full1[(j * hop) % n] for j in range(k))
    return orbit0, orbit1


def _collapse_zeros(
    B: BlaschkeProduct, D: BlaschkeProduct, k: int, tol: ToleranceConfig
) -> tuple[complex, ...] | None:
    """Zeros of the outer factor: cluster D(zeros of B), divide counts by k."""
    clusters, _ = _cluster_values([D.evaluate(b, tol) for b in B.zeros], 1e-5)
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
    orbits: tuple[tuple[complex, ...], tuple[complex, ...]],
    k: int,
    tol: ToleranceConfig,
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
    step in product form, except within cluster_tol of 0: there z P has a
    double root, and the step would return only rounding.  None when the
    two values coincide or the roots are not k-1 points inside the disk.
    """
    a0, a1 = (np.array(orbit) for orbit in orbits)
    c0, c1 = -np.prod(-a0), -np.prod(-a1)
    if abs(c1 - c0) <= tol.cluster_tol:
        return None
    gaps = a0[:, None] - a0[None, :]
    np.fill_diagonal(gaps, 1.0)
    rho = np.prod(a0[:, None] - a1[None, :], axis=1) / np.prod(gaps, axis=1)
    weights = rho / a0
    roots = _secular_roots(a0, weights, _secular_zeros(a0, weights, 2.0))
    zeros = [
        _newton_step(b, c0, c1, a0, a1) if m == 1 and abs(b) > tol.cluster_tol else b
        for b, m in roots
        for _ in range(m)
    ]
    if len(zeros) != k - 1 or not all(abs(b) < 1.0 for b in zeros):
        return None
    return BlaschkeProduct(1.0, (0j, *zeros))


def inner_factor_general(
    B: BlaschkeProduct, k: int, tol: ToleranceConfig | None = None
) -> InnerFactorResult:
    """Search for B = C o D with deg D = k, for a proper divisor k of deg B.

    D is normalized to D(0) = 0 with leading constant 1; the rotation freedom
    this leaves is absorbed by C.  If B = C o D, then D is constant on every
    (n/k)-th point of a level set of B on the circle, and two such orbits
    determine D (see _inner_from_orbits).  C is then reconstructed from the
    collapsed zero multiset and the pair is verified on the circle.  A
    negative answer carries its reason; the theory certifies existence for
    genuine factors but gives no numerical certificate of absence.  The
    result is kept per (product, k, tolerances), so searching again costs
    nothing.
    """
    n = B.degree
    if not (1 < k < n) or n % k != 0:
        raise InputError(f"k must be a proper divisor of {n}, got {k}")
    return _inner_factor(B, k, _tol(tol))


@lru_cache(maxsize=64)
def _inner_factor(
    B: BlaschkeProduct, k: int, tol: ToleranceConfig
) -> InnerFactorResult:
    n = B.degree
    D = _inner_from_orbits(_orbit_pair(B, n // k, k, tol), k, tol)
    outer_zeros = None if D is None else _collapse_zeros(B, D, k, tol)
    if outer_zeros is None:
        return InnerFactorResult(False, None, None, "not-found", math.inf)
    C = _pin_outer(B, outer_zeros, D, tol)
    err = math.inf if C is None else _chain_error(CompositionChain((C, D)), B, tol)
    if err <= 1e-8:
        return InnerFactorResult(True, C, D, "ok", err)
    return InnerFactorResult(False, None, None, "verification-failed", err)


@dataclass(frozen=True)
class DivisorRow:
    k: int
    result: InnerFactorResult

    @property
    def found(self) -> bool:
        return self.result.found

    @property
    def reason(self) -> str:
        return self.result.reason


@dataclass(frozen=True)
class EllipticalDecomposableReport:
    """Ellipticity of W (for the product divided by its zero at 0) against
    inner-factor existence for every proper divisor."""

    verdict: RangeVerdict
    rows: tuple[DivisorRow, ...]

    @property
    def consistent(self) -> bool:
        return (not self.verdict.is_ellipse) or all(r.found for r in self.rows)


def elliptical_implies_decomposable_check(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> EllipticalDecomposableReport:
    """Elliptical numerical range should come with every divisor shape.

    The matrix model is built from the zeros of B with one zero at the origin
    removed (the compressed shift of B/z); if its numerical range is an
    ellipse, a factorization must exist for every proper divisor of the
    degree, and each is searched for directly with inner_factor_general; every
    row keeps its search result.
    """
    tol = _tol(tol)
    idx = min(range(B.degree), key=lambda i: abs(B.zeros[i]))
    if abs(B.zeros[idx]) > tol.identity_tol:
        raise DegenerateInput("expected a zero at the origin (the z factor)")
    n = B.degree
    rows = tuple(
        DivisorRow(k, inner_factor_general(B, k, tol))
        for k in range(2, n)
        if n % k == 0
    )
    rest = tuple(b for i, b in enumerate(B.zeros) if i != idx)
    verdict = is_elliptical_range(shift_matrix(rest), tol=tol)
    return EllipticalDecomposableReport(verdict, rows)
