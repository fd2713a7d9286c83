"""Boundary behavior: solving B(z) = lambda on the unit circle.

A finite product of degree n wraps the circle around itself n times with
strictly increasing argument, so B(z) = lambda has exactly n circle solutions
for every unimodular lambda.  Everything here rides on one object, a lifted
(continuous, increasing) argument psi with B(e^{it}) = e^{i psi(t)}, built
once per product on a grid fine enough that consecutive samples differ by at
most 0.5 radians.  That bound makes the unwrap provably correct and gives
every solver below a guaranteed bracket.

The next-preimage map g (send a circle point to the next solution of the same
level set, counterclockwise) generates the full set of continuous circle maps
commuting with B in the sense B o u = B, a cyclic group of order n.  Orbits
of g come from a single level-set solve: the iterates are just successive
entries of one CircleSolutionSet.
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
    DiskAutomorphism,
    ToleranceConfig,
    circle_samples,
    unit,
    _tol,
)
from .errors import InputError, SolverFailure

__all__ = [
    "lifted_argument",
    "argument_derivative",
    "CircleSolutionSet",
    "solve_on_circle",
    "next_preimage",
    "invariant_orbit",
    "InvariantMapSample",
    "invariant_generator",
    "GeneratorPowerCheck",
    "verify_generator_power",
    "chord_second_intersection",
]

TAU = 2.0 * math.pi


@lru_cache(maxsize=64)
def _lift_grid(
    B: BlaschkeProduct, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ts, values, psi) on a uniform grid over [0, 2pi], endpoints included.

    Grid density: the argument rate of a single factor with zero a is at most
    (1+|a|)/(1-|a|) on the circle, so the sum L of those bounds caps psi'.
    Using ceil(2 pi L / 0.5) cells keeps each increment of psi inside half a
    radian, which is what makes the unwrap exact rather than heuristic.
    """
    rate_bound = sum((1.0 + abs(a)) / (1.0 - abs(a)) for a in B.zeros)
    cells = max(tol.circle_samples, int(math.ceil(TAU * rate_bound / 0.5)))
    ts = np.linspace(0.0, TAU, cells + 1)
    values = B.evaluate(np.exp(1j * ts), tol)
    psi = np.unwrap(np.angle(values))
    psi0 = math.atan2(values[0].imag, values[0].real) % TAU
    psi = psi - psi[0] + psi0
    winding = psi[-1] - psi[0]
    if abs(winding - TAU * B.degree) > 1e-9:
        raise SolverFailure(
            f"argument lift wound {winding / TAU:.12f} turns, expected {B.degree}"
        )
    return ts, values, psi


def lifted_argument(
    B: BlaschkeProduct, t: float, tol: ToleranceConfig | None = None
) -> float:
    """Continuous increasing lift of arg B(e^{it}), with psi(0) in [0, 2pi)."""
    tol = _tol(tol)
    ts, values, psi = _lift_grid(B, tol)
    turns, tr = divmod(float(t), TAU)
    step = TAU / (len(ts) - 1)
    i = min(int(tr / step), len(ts) - 2)
    w = B.evaluate(cmath.exp(1j * tr), tol)
    # within one grid cell psi moves less than half a turn, so the wrapped
    # phase difference against the cached cell value is the exact increment
    increment = math.remainder(cmath.phase(w) - cmath.phase(complex(values[i])), TAU)
    return float(psi[i]) + increment + TAU * B.degree * turns


def argument_derivative(
    B: BlaschkeProduct, t: float, tol: ToleranceConfig | None = None
) -> float:
    """psi'(t) = Re(z B'(z)/B(z)) at z = e^{it}; positive for every product."""
    tol = _tol(tol)
    z = cmath.exp(1j * float(t))
    return (z * B.derivative(z, tol) / B.evaluate(z, tol)).real


@dataclass(frozen=True)
class CircleSolutionSet:
    """The deg(B) circle solutions of B(z) = target, counterclockwise.

    angles are strictly increasing in [0, 2pi); point(k) indexes modularly,
    so point(i + 1) is the next solution counterclockwise from point(i).
    """

    target: complex
    angles: tuple[float, ...]
    points: tuple[complex, ...]

    def __len__(self) -> int:
        return len(self.points)

    def point(self, k: int) -> complex:
        return self.points[k % len(self.points)]

    def angle(self, k: int) -> float:
        n = len(self.angles)
        return self.angles[k % n] + TAU * (k // n)


def solve_on_circle(
    B: BlaschkeProduct, lam: complex, tol: ToleranceConfig | None = None
) -> CircleSolutionSet:
    """All circle solutions of B(z) = lam for unimodular lam.

    Brackets psi(t) = arg(lam) + 2 pi k on the grid, then runs Newton with a
    bisection safeguard inside each bracket.  The bracket is never abandoned,
    so convergence is unconditional; SolverFailure can only mean the grid or
    tolerances are misconfigured.
    """
    tol = _tol(tol)
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-9:
        raise InputError(f"target must lie on the unit circle, got |lam|={abs(lam)!r}")
    lam = unit(lam)
    arg_lam = cmath.phase(lam)

    ts, _, psi = _lift_grid(B, tol)
    n = B.degree
    psi0 = float(psi[0])
    first = psi0 + (arg_lam - psi0) % TAU

    def wrapped_offset(t: float) -> float:
        w = B.evaluate(cmath.exp(1j * t), tol)
        return math.remainder(cmath.phase(w) - arg_lam, TAU)

    angles = []
    for k in range(n):
        target = first + TAU * k
        idx = int(np.searchsorted(psi, target))
        if idx <= 0:
            lo, hi = float(ts[0]), float(ts[1])
        else:
            idx = min(idx, len(ts) - 1)
            lo, hi = float(ts[idx - 1]), float(ts[idx])
        flo = float(psi[max(idx - 1, 0)]) - target
        fhi = float(psi[min(idx, len(ts) - 1)]) - target
        if fhi > flo:
            t = lo + (hi - lo) * (-flo) / (fhi - flo)
        else:
            t = 0.5 * (lo + hi)
        t = min(max(t, lo), hi)
        for _ in range(80):
            f = wrapped_offset(t)
            if abs(f) < 1e-14:
                break
            if f < 0.0:
                lo = t
            else:
                hi = t
            rate = argument_derivative(B, t, tol)
            step_to = t - f / rate if rate > 0.0 else 0.5 * (lo + hi)
            t = step_to if lo < step_to < hi else 0.5 * (lo + hi)
            if hi - lo < 1e-16:
                break
        angles.append(t % TAU)

    points = tuple(cmath.exp(1j * t) for t in angles)
    worst = max(abs(B.evaluate(p, tol) - lam) for p in points)
    if worst > 1e-10:
        raise SolverFailure(f"circle solve residual {worst:.3e} exceeds 1e-10")
    order = sorted(range(n), key=angles.__getitem__)
    angles = tuple(angles[i] for i in order)
    points = tuple(points[i] for i in order)
    for i in range(1, n):
        if angles[i] <= angles[i - 1]:
            raise SolverFailure("coincident circle solutions; level set degenerate")
    return CircleSolutionSet(lam, angles, points)


def _locate(sol: CircleSolutionSet, z: complex) -> int:
    best = min(range(len(sol)), key=lambda i: abs(sol.points[i] - z))
    if abs(sol.points[best] - z) > 1e-6:
        raise SolverFailure(
            "point is not on its own level set; circle solve inconsistent"
        )
    return best


def invariant_orbit(
    B: BlaschkeProduct,
    z: complex,
    count: int,
    tol: ToleranceConfig | None = None,
) -> tuple[complex, ...]:
    """(z, g(z), g^2(z), ..., g^{count-1}(z)) for the next-preimage map g.

    One level-set solve serves the whole orbit: the iterates of g through z
    are consecutive points of solve_on_circle(B, B(z)).
    """
    tol = _tol(tol)
    if count < 1:
        raise InputError("orbit length must be at least 1")
    z = unit(complex(z))
    sol = solve_on_circle(B, B.evaluate(z, tol), tol)
    i = _locate(sol, z)
    return (z,) + tuple(sol.point(i + j) for j in range(1, count))


def next_preimage(
    B: BlaschkeProduct,
    z: complex,
    tol: ToleranceConfig | None = None,
    steps: int = 1,
) -> complex:
    """The circle solution of B(w) = B(z) next after z, counterclockwise."""
    if steps < 0:
        steps %= B.degree
    return invariant_orbit(B, z, steps + 1, tol)[steps]


@dataclass(frozen=True)
class InvariantMapSample:
    """Pointwise access to the invariant-map group of one product.

    order is deg(B); calling the sample applies the generator g (optionally
    g^steps).  g satisfies B o g = B on the circle and g^order = identity.
    """

    order: int
    product: BlaschkeProduct
    tolerances: ToleranceConfig

    def __call__(self, z: complex, steps: int = 1) -> complex:
        return next_preimage(self.product, z, self.tolerances, steps)

    def orbit(self, z: complex, count: int | None = None) -> tuple[complex, ...]:
        return invariant_orbit(
            self.product, z, count if count is not None else self.order, self.tolerances
        )


def invariant_generator(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> InvariantMapSample:
    return InvariantMapSample(B.degree, B, _tol(tol))


@dataclass(frozen=True)
class GeneratorPowerCheck:
    ok: bool
    power: int
    point: complex
    sup_error: float

    def __bool__(self) -> bool:
        return self.ok


def verify_generator_power(
    chain: CompositionChain, tol: ToleranceConfig | None = None
) -> GeneratorPowerCheck:
    """Check g^{2^{m-1}} = phi_a for an m-factor chain of degree-2 products
    whose innermost factor is z(a-z)/(1-conj(a)z) drawn as z*phi_a.

    Compares the iterated next-preimage map of the expanded chain against
    phi_a on 64 circle samples; passes when the sup error stays within
    identity_tol.
    """
    tol = _tol(tol)
    if any(f.degree != 2 for f in chain.factors):
        raise InputError("every factor in the chain must have degree 2")
    inner = chain.factors[-1]
    zeros = sorted(inner.zeros, key=abs)
    if abs(zeros[0]) > 1e-9:
        raise InputError("innermost factor must vanish at the origin")
    if abs(inner.gamma + 1.0) > 1e-9:
        raise InputError("innermost factor must be z*phi_a (leading constant -1)")
    a = zeros[1]

    m = len(chain.factors)
    power = 2 ** (m - 1)
    B = chain.expand(tol)
    phi = DiskAutomorphism(1.0, a)
    worst = 0.0
    worst_at = 1.0 + 0j
    for z in circle_samples(64, offset=0.05):
        orbit = invariant_orbit(B, z, power + 1, tol)
        err = abs(orbit[power] - phi(z))
        if err > worst:
            worst, worst_at = err, z
    return GeneratorPowerCheck(worst <= tol.identity_tol, power, worst_at, worst)


def chord_second_intersection(
    a: complex, z: complex, tol: ToleranceConfig | None = None
) -> complex:
    """Second point where the line through the disk point a and the circle
    point z meets the circle.  Coincides with (a - z)/(1 - conj(a) z)."""
    a = complex(a)
    z = complex(z)
    if abs(a) >= 1.0:
        raise InputError("first argument must lie in the open disk")
    if abs(abs(z) - 1.0) > 1e-9:
        raise InputError("second argument must lie on the unit circle")
    z = unit(z)
    direction = a - z
    # |z + s d|^2 = 1 has roots s = 0 and the one below
    s = -2.0 * (z.conjugate() * direction).real / abs(direction) ** 2
    return z + s * direction
