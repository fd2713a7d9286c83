"""Recovering compositional structure: B = C o D with both degrees > 1.

Three attack routes, ordered by specificity:

* inner_degree2: for B vanishing at 0, a degree-2 inner factor must have the
  shape z*phi_a with a a zero of B, and it exists exactly when the zero
  multiset and the boundary values of B are invariant under phi_a.  Direct
  candidate testing, no iteration.

* chain_2n: peel degree-2 inner factors repeatedly to write a degree-2^k
  product as a chain of k quadratic maps, carrying a disk-automorphism
  correction outward at each level so the peeling lemma applies again.

* inner_factor_general: for any divisor k of the degree, a degree-k inner
  factor D (normalized D(0) = 0, leading constant 1) must identify the orbits
  of the n/k-th power of the next-preimage map on the circle, and its zero
  set must sit inside the fiber of B over B(0).  Subsets of that fiber give
  globally complete candidate starts; two interlaced orbits give 2(k-1)
  complex conditions on the k-1 free zeros of D, polished by damped
  Gauss-Newton.  Success is certified by re-expansion; failure is reported
  with its reason, never guessed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BlaschkeProduct,
    CompositionChain,
    DiskAutomorphism,
    ToleranceConfig,
    circle_samples,
    compose,
    unit,
    _tol,
)
from .circle import invariant_orbit, solve_on_circle
from .critical import fiber
from .errors import DegenerateInput, InputError, SolverFailure
from .shiftop import RangeVerdict, is_elliptical_range, shift_matrix

__all__ = [
    "Degree2Split",
    "inner_degree2",
    "ChainRecord",
    "ShapeFailure",
    "DecompositionReport",
    "chain_2n",
    "InnerFactorResult",
    "inner_factor_general",
    "DivisorRow",
    "EllipticalDecomposableReport",
    "elliptical_implies_decomposable_check",
]


def _phi(a: complex) -> DiskAutomorphism:
    return DiskAutomorphism(1.0, a)


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
    offset: float,
    tol: ToleranceConfig,
) -> BlaschkeProduct | None:
    """The outer factor with these zeros whose composition with inner matches
    B at the first of 8 circle points (from offset) where the zeros leave a
    usable denominator; None if no point is usable or the constant is not
    unimodular to 1e-6."""
    base = BlaschkeProduct(1.0, outer_zeros)
    for z0 in circle_samples(8, offset):
        denom = base.evaluate(inner.evaluate(z0, tol), tol)
        if abs(denom) > 1e-6:
            gamma = B.evaluate(z0, tol) / denom
            if abs(abs(gamma) - 1.0) > 1e-6:
                return None
            return BlaschkeProduct(unit(gamma), outer_zeros)
    return None


@dataclass(frozen=True)
class Degree2Split:
    """B = outer o inner with inner = z * phi_point of degree 2."""

    outer: BlaschkeProduct
    inner: BlaschkeProduct
    point: complex


def _match_zero_multiset(
    zeros: tuple[complex, ...], phi: DiskAutomorphism, match_tol: float
) -> list[tuple[complex, complex]] | None:
    """Pair each zero b with a distinct-slot zero near phi(b); None if stuck."""
    remaining = list(range(len(zeros)))
    pairs: list[tuple[complex, complex]] = []
    while remaining:
        i = remaining.pop(0)
        image = phi(zeros[i])
        best = None
        for pos, j in enumerate(remaining):
            d = abs(zeros[j] - image)
            if d <= match_tol and (best is None or d < best[0]):
                best = (d, pos)
        if best is None:
            return None
        j = remaining.pop(best[1])
        pairs.append((zeros[i], zeros[j]))
    return pairs


def inner_degree2(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> Degree2Split | None:
    """Degree-2 inner factor of a product vanishing at the origin, if any.

    Candidates for the defining point a are exactly the zeros of B (the
    inner factor z*phi_a kills both 0 and a, and B(0) = 0 forces a into the
    zero set).  A candidate survives only if phi_a permutes the zero multiset
    and leaves the boundary values of B unchanged; the outer factor is then
    read off the paired zeros and the whole split is verified by evaluation.
    """
    tol = _tol(tol)
    n = B.degree
    if n % 2 != 0:
        return None
    origin = min(abs(b) for b in B.zeros)
    if origin > tol.identity_tol:
        raise InputError(
            "inner_degree2 expects a product vanishing at 0; normalize first"
        )

    seen: list[complex] = []
    boundary = tuple(circle_samples(4 * n, 0.11))
    reference = [B.evaluate(z, tol) for z in boundary]

    for a in B.zeros:
        if any(abs(a - s) <= tol.cluster_tol for s in seen):
            continue
        seen.append(a)
        phi = _phi(a)
        pairs = _match_zero_multiset(B.zeros, phi, 10.0 * tol.cluster_tol)
        if pairs is None:
            continue
        if any(
            abs(B.evaluate(phi(z), tol) - w) > tol.identity_tol
            for z, w in zip(boundary, reference)
        ):
            continue

        inner = BlaschkeProduct(-1.0, (0j, a))  # z * phi_a
        outer_zeros = tuple(inner.evaluate(b, tol) for b, _ in pairs)
        outer = _pin_outer(B, outer_zeros, inner, 0.83, tol)
        if outer is None:
            continue

        err = max(
            abs(outer.evaluate(inner.evaluate(z, tol), tol) - w)
            for z, w in zip(boundary, reference)
        )
        if err <= 1e-8:
            return Degree2Split(outer, inner, a)
    return None


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


def chain_2n(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> DecompositionReport:
    """Write a degree-2^k product as a chain of k degree-2 factors.

    Each level normalizes the pending outer part to vanish at 0 (composing
    with phi of its value there), peels a degree-2 inner factor, and undoes
    the normalization on the next pending part.  The extracted factor order
    is outermost first, matching CompositionChain.
    """
    tol = _tol(tol)
    n = B.degree
    k = n.bit_length() - 1
    if n != 2**k or n < 2:
        raise InputError(f"degree {n} is not a power of two")
    shape = (2,) * k

    tail: list[BlaschkeProduct] = []
    pending = B
    while pending.degree > 2:
        c0 = pending.evaluate(0j, tol)
        shifted = compose(_phi(c0).as_blaschke(), pending, tol)
        split = inner_degree2(shifted, tol)
        if split is None:
            level = len(tail)
            return DecompositionReport(
                n,
                (),
                (
                    ShapeFailure(
                        shape,
                        f"no degree-2 inner factor at level {level} "
                        f"(pending degree {pending.degree})",
                    ),
                ),
            )
        pending = compose(_phi(c0).inverse().as_blaschke(), split.outer, tol)
        tail.insert(0, split.inner)

    chain = CompositionChain((pending, *tail))
    err = _chain_error(chain, B, tol)
    if err > 1e-8:
        return DecompositionReport(
            n, (), (ShapeFailure(shape, f"re-expansion error {err:.3e}"),)
        )
    return DecompositionReport(
        n, (ChainRecord(chain, tuple(f.degree for f in chain.factors), err),), ()
    )


@dataclass(frozen=True)
class InnerFactorResult:
    """Outcome of the degree-k inner factor search.

    reason is "ok" when found; otherwise "newton-stalled" (no start
    converged), "verification-failed" (a candidate D identified the orbits
    but C o D missed B), or "not-found" (structural obstruction, e.g. the
    collapsed zero multiset had the wrong counts).
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


def _candidate_inner(b: np.ndarray) -> BlaschkeProduct:
    return BlaschkeProduct(1.0, (0j, *(complex(v) for v in b)))


def _orbit_residual(
    b: np.ndarray, orbits: tuple[tuple[complex, ...], ...], tol: ToleranceConfig
) -> np.ndarray:
    D = _candidate_inner(b)
    res = []
    for orbit in orbits:
        base = D.evaluate(orbit[0], tol)
        for w in orbit[1:]:
            res.append(D.evaluate(w, tol) - base)
    return np.array(res, dtype=complex)


def _gauss_newton_inner(
    orbits, k: int, start: np.ndarray, tol: ToleranceConfig
) -> np.ndarray | None:
    """Damped Gauss-Newton for the k-1 free zeros of D; None on stall."""
    b = start.astype(complex)
    r = _orbit_residual(b, orbits, tol)
    cost = float(np.linalg.norm(r))
    h = 1e-7
    for _ in range(200):
        if cost <= 1e-12:
            return b
        m = len(b)
        J = np.zeros((len(r), 2 * m), dtype=complex)
        for i in range(m):
            for part, delta in ((0, h), (1, 1j * h)):
                bp = b.copy()
                bp[i] += delta
                J[:, 2 * i + part] = (_orbit_residual(bp, orbits, tol) - r) / h
        Jr = np.vstack([J.real, J.imag])
        rr = np.concatenate([r.real, r.imag])
        step, *_ = np.linalg.lstsq(Jr, -rr, rcond=None)
        move = step[0::2] + 1j * step[1::2]
        scale = 1.0
        for _damp in range(12):
            trial = b + scale * move
            over = np.abs(trial) > 0.98
            trial[over] = 0.98 * trial[over] / np.abs(trial[over])
            r_trial = _orbit_residual(trial, orbits, tol)
            cost_trial = float(np.linalg.norm(r_trial))
            if cost_trial < cost:
                b, r, cost = trial, r_trial, cost_trial
                break
            scale *= 0.5
        else:
            return b if cost <= 1e-12 else None
        if float(np.linalg.norm(scale * move)) < 1e-14:
            return b if cost <= 1e-12 else None
    return b if cost <= 1e-12 else None


def _collapse_zeros(
    B: BlaschkeProduct, D: BlaschkeProduct, k: int, tol: ToleranceConfig
) -> tuple[complex, ...] | None:
    """Zeros of the outer factor: cluster D(zeros of B), divide counts by k."""
    values = [D.evaluate(b, tol) for b in B.zeros]
    clusters: list[list[complex]] = []
    for v in values:
        for cl in clusters:
            if abs(v - cl[0]) <= 1e-5:
                cl.append(v)
                break
        else:
            clusters.append([v])
    out: list[complex] = []
    for cl in clusters:
        if len(cl) % k != 0:
            return None
        mean = sum(cl) / len(cl)
        out.extend([mean] * (len(cl) // k))
    return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


def _zero_fiber_starts(
    B: BlaschkeProduct, k: int, tol: ToleranceConfig
) -> list[np.ndarray]:
    """Candidate zero sets for the inner factor, from the fiber over B(0).

    D(0) = 0 makes the zero set of D exactly the D-fiber of the origin, and
    B is constant on that fiber, so the zeros of D sit among the n solutions
    of B(z) = B(0), one of which is 0 itself.  Enumerating the (k-1)-subsets
    of the remaining solutions turns the search global: the true zero set is
    always in the list, up to root-finding noise.
    """
    try:
        zero_fiber = fiber(B, B.evaluate(0.0, tol), tol)
    except SolverFailure:
        return []
    if len(zero_fiber) != B.degree:
        return []
    i0 = min(range(len(zero_fiber)), key=lambda i: abs(zero_fiber[i]))
    if abs(zero_fiber[i0]) > 1e-6:
        return []
    rest = [z for i, z in enumerate(zero_fiber) if i != i0]
    seen: set[tuple[tuple[float, float], ...]] = set()
    out: list[np.ndarray] = []
    for combo in itertools.combinations(rest, k - 1):
        if any(abs(z) >= 1.0 for z in combo):
            continue
        ordered = sorted(combo, key=lambda z: (z.real, z.imag))
        key = tuple((round(z.real, 9), round(z.imag, 9)) for z in ordered)
        if key in seen:
            continue
        seen.add(key)
        out.append(np.array(ordered, dtype=complex))
    return out


def inner_factor_general(
    B: BlaschkeProduct, k: int, tol: ToleranceConfig | None = None
) -> InnerFactorResult:
    """Search for B = C o D with deg D = k, for a proper divisor k of deg B.

    D is normalized to D(0) = 0 with leading constant 1; the rotation freedom
    this leaves is absorbed by C.  The search asks for D constant on two
    interlaced orbits of the (n/k)-th power of the next-preimage map.
    Candidate zero sets come from the fiber of B over B(0), which must
    contain the zero set of D; each candidate is polished by damped
    Gauss-Newton on the orbit residual, then C is reconstructed from the
    collapsed zero multiset and the pair is verified on the circle.  A
    negative answer carries its reason; the theory certifies existence for
    genuine factors but gives no numerical certificate of absence.
    """
    tol = _tol(tol)
    n = B.degree
    if not (1 < k < n) or n % k != 0:
        raise InputError(f"k must be a proper divisor of {n}, got {k}")
    hop = n // k

    orbits = _orbit_pair(B, hop, k, tol)
    candidates = _zero_fiber_starts(B, k, tol)
    candidates.sort(
        key=lambda b: float(np.linalg.norm(_orbit_residual(b, orbits, tol)))
    )
    starts: list[np.ndarray] = candidates[:24]
    # deterministic fallbacks, for fibers too noisy to enumerate
    starts.append(np.zeros(k - 1, dtype=complex))
    for s in range(7):
        radius = 0.25 + 0.08 * (s % 3)
        phase = 2.0 * math.pi * (0.137 + 0.41 * s)
        starts.append(
            radius
            * np.exp(
                1j * (phase + 2.0 * math.pi * np.arange(k - 1) / max(k - 1, 1))
            )
        )

    stalled = True
    last_reason = "newton-stalled"
    best_error = math.inf
    for start in starts:
        b = _gauss_newton_inner(orbits, k, start, tol)
        if b is None:
            continue
        stalled = False
        D = _candidate_inner(b)
        outer_zeros = _collapse_zeros(B, D, k, tol)
        if outer_zeros is None:
            last_reason = "not-found"
            continue
        C = _pin_outer(B, outer_zeros, D, 0.37, tol)
        if C is None:
            last_reason = "verification-failed"
            continue
        err = _chain_error(CompositionChain((C, D)), B, tol)
        if err <= 1e-8:
            return InnerFactorResult(True, C, D, "ok", err)
        last_reason = "verification-failed"
        best_error = min(best_error, err)

    reason = "newton-stalled" if stalled else last_reason
    return InnerFactorResult(False, None, None, reason, best_error)


@dataclass(frozen=True)
class DivisorRow:
    k: int
    found: bool
    reason: str


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
    degree, and each is searched for directly.
    """
    tol = _tol(tol)
    idx = min(range(B.degree), key=lambda i: abs(B.zeros[i]))
    if abs(B.zeros[idx]) > tol.identity_tol:
        raise DegenerateInput("expected a zero at the origin (the z factor)")
    rest = tuple(b for i, b in enumerate(B.zeros) if i != idx)
    verdict = is_elliptical_range(shift_matrix(rest), tol=tol)

    rows = []
    n = B.degree
    for k in range(2, n):
        if n % k == 0:
            res = inner_factor_general(B, k, tol)
            rows.append(DivisorRow(k, res.found, res.reason))
    return EllipticalDecomposableReport(verdict, tuple(rows))
