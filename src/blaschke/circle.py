"""Boundary behavior: solving B(z) = lambda on the unit circle.

A finite product of degree n wraps the circle around itself n times with
strictly increasing argument, so B(z) = lambda has exactly n circle solutions
for every unimodular lambda.  Everything here rides on one object, a lifted
(continuous, increasing) argument psi with B(e^{it}) = e^{i psi(t)}, exact at
any single point and kept once per product on a grid that is fine only where
psi is steep (_lift_grid), so every grid cell is a guaranteed bracket.

Arguments on the circle are read through w = 1 - a conj(z): for |z| = 1
each factor is (z - a)/(1 - conj(a) z) = z w / conj(w), and Re w > 0 puts
Arg w in (-pi/2, pi/2).  So a factor gains exactly Delta + 2 Arg(w2
conj(w1)) across an arc of angle Delta, with no division and no wrap
(_arc_gain sums the second term; each caller adds its own rotation part),
and |w| = |z - a| gives psi' (_poisson_rate).  The lift grid here and the
range sweep in shiftop need only these arguments.  _circle_terms,
solve_levels' Newton offset and BlaschkeProduct.evaluate need B itself, so
they keep core._factor_array.

solve_levels solves any number of level sets at once: it brackets all
n * len(lams) roots on that grid, where psi' is kept too, starts each from
the cubic Hermite interpolant of the inverse t(psi) on its cell, and solves
them with _bracketed_newton, the one Newton kernel for every monotone circle
equation here and in shiftop, and _certify, their one certificate.  Each
pass reads B and psi' > 0 off one _circle_terms call; the kernel stops every
root at a point it has just evaluated and hands that evaluation to the
certificate, so a solve whose starts are one Newton step from their roots
costs two evaluations of B.  _arc_gain and _tangency, the summed arc gain
and chord tangency point, serve shiftop and poncelet too.

The next-preimage map g (send a circle point to the next solution of the same
level set, counterclockwise) generates the full set of continuous circle maps
commuting with B in the sense B o u = B, a cyclic group of order n.  Orbits
of g come from a single level-set solve: the iterates are just successive
entries of one CircleSolutionSet, and the orbits of many starts come from one
batched solve.
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
    _factor_array,
    _tol,
)
from .errors import InputError, SolverFailure

__all__ = [
    "lifted_argument",
    "argument_derivative",
    "CircleSolutionSet",
    "solve_levels",
    "solve_on_circle",
    "next_preimage",
    "invariant_orbit",
    "GeneratorPowerCheck",
    "verify_generator_power",
    "chord_second_intersection",
]

TAU = 2.0 * math.pi

# a root whose Newton step or bracket is within this many ulps of the
# solved angle is solved, and a lift-grid cell that narrow is not split
_ULPS = 4.0
# the lift grid starts from this many equal cells and halves every cell
# across which psi gains at least 0.5, at most this many times
_BASE_CELLS = 512
_MAX_DEPTH = 64


def _circle_w(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """w = 1 - a_j e^{-it} at the angles t, along a new last axis."""
    # in this operand order, with the add in place, numpy builds the sweep's
    # first (2, 720, n) w up to five times faster than 1.0 - a * e[..., None]
    w = np.exp(-1j * t)[..., None] * -a
    w += 1.0
    return w


def _poisson_rate(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Poisson sum psi' = sum (1 - |a_j|^2)/|w_j|^2 at circle points z,
    from w_j = 1 - a_j conj(z) or the gaps z - a_j, equal in modulus there."""
    return np.sum((1.0 - np.abs(a) ** 2) / (w.real**2 + w.imag**2), axis=-1)


def _arc_gain(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """sum_j 2 Arg(w2_j conj(w1_j)): the factors' summed argument gain from
    the circle point of w1 counterclockwise to that of w2, less their
    rotation part, Delta per factor for an arc of angle Delta.

    Every Arg w lies in (-pi/2, pi/2), so each difference lies in (-pi, pi)
    and is the exact change of the continuous Arg w along the arc, whatever
    its length; there is no wrap, so an arc shorter than rounding gains
    about 0, never about 2 pi."""
    return 2.0 * np.sum(np.angle(w2 * w1.conj()), axis=-1)


def _tangency(p, rate_p, q, rate_q):
    """psi'-weighted mean of chord ends p, q: the chord's point on its envelope."""
    return (p * rate_p + q * rate_q) / (rate_p + rate_q)


@lru_cache(maxsize=64)
def _lift_grid(B: BlaschkeProduct) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ts, psi, rate): the lift psi(t) and psi'(t) on an increasing grid
    over [0, 2pi].

    psi is exact at every grid point: psi(0) = arg B(1) in [0, 2pi), read
    off the unit-modulus factors at 1 (_circle_terms), plus n t and the
    factors' _arc_gain from 1 to e^{it}; the ends are exactly psi(0) and
    psi(0) + 2 pi n.  No gain is wrapped, so a cell next to t = 0 stays
    increasing however close to the circle a zero near angle 0 sits.  Of
    _BASE_CELLS equal cells, only those across which psi gains 0.5 or more
    are halved, repeatedly.  That terminates: a steep cell of _ULPS ulps,
    one still steep after _MAX_DEPTH halvings, or a psi that fails to
    increase raises SolverFailure naming the largest zero modulus.  rate
    is _poisson_rate at each grid point, from the same w as psi; it gives
    solve_levels the end slopes of its Hermite starts.
    """
    a = np.asarray(B.zeros)

    def lift(t):
        w = _circle_w(a, t)
        return psi0 + B.degree * t + _arc_gain(w_one, w), _poisson_rate(a, w)

    def refuse(why):
        top = max(abs(z) for z in B.zeros)
        return SolverFailure(f"argument lift {why}; the largest zero modulus is {top!r}")

    # w = 1 - a at 1 and the factors (1 - a)/(1 - conj(a)) there have no
    # pole even for a zero next to 1, where B.evaluate(1) would refuse
    w_one = 1.0 - a
    psi0 = cmath.phase(complex(_circle_terms(B, np.array(1.0))[0])) % TAU
    ts = np.linspace(0.0, TAU, _BASE_CELLS + 1)
    psi, rate = lift(ts)
    psi[0], psi[-1] = psi0, psi0 + TAU * B.degree
    for _ in range(_MAX_DEPTH):
        gain = np.diff(psi)
        if not np.all(gain > 0.0):
            raise refuse("is not increasing on its grid")
        steep = np.flatnonzero(gain >= 0.5)
        if not steep.size:
            return ts, psi, rate
        lo, hi = ts[steep], ts[steep + 1]
        if np.any(hi - lo <= _ULPS * np.spacing(hi)):
            raise refuse("cannot split a steep cell of a few ulps")
        mid = 0.5 * (lo + hi)
        psi_mid, rate_mid = lift(mid)
        ts = np.insert(ts, steep + 1, mid)
        psi = np.insert(psi, steep + 1, psi_mid)
        rate = np.insert(rate, steep + 1, rate_mid)
    raise refuse(f"still has steep cells after {_MAX_DEPTH} halvings")


def lifted_argument(B: BlaschkeProduct, t: float) -> float:
    """Continuous increasing lift of arg B(e^{it}), with psi(0) in [0, 2pi).

    B is read off its unit-modulus factors (_circle_terms), which have no
    pole on the circle."""
    ts, psi, _ = _lift_grid(B)
    turns, tr = divmod(float(t), TAU)
    i = min(int(np.searchsorted(ts, tr, side="right")) - 1, len(ts) - 2)
    w, w0 = _circle_terms(B, np.exp(1j * np.array([tr, ts[i]])))[0]
    # within one grid cell psi gains less than half a turn, so the wrapped
    # phase difference against the cell's left end is the exact increment
    increment = math.remainder(cmath.phase(w) - cmath.phase(w0), TAU)
    return float(psi[i]) + increment + TAU * B.degree * turns


def _circle_terms(
    B: BlaschkeProduct, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """B(z) and psi' at circle points z, each from one broadcast over the zeros.

    Every factor of _factor_array is renormalized to unit modulus, as
    BlaschkeProduct.evaluate does on the circle; psi' is _poisson_rate.
    """
    a = np.asarray(B.zeros)
    factors, gap, _ = _factor_array(a, z)
    factors /= np.abs(factors)
    return B.gamma * np.prod(factors, axis=-1), _poisson_rate(a, gap)


def argument_derivative(B: BlaschkeProduct, t):
    """psi'(t) = sum_j (1 - |a_j|^2)/|e^{it} - a_j|^2; positive for every
    product.  t may be a float or an array of angles."""
    rate = _circle_terms(B, np.exp(1j * np.asarray(t, dtype=float)))[1]
    return float(rate) if rate.ndim == 0 else rate


@dataclass(frozen=True)
class CircleSolutionSet:
    """The deg(B) circle solutions of B(z) = target, counterclockwise.

    angles are strictly increasing in [0, 2pi); point(k) indexes modularly,
    so point(i + 1) is the next solution counterclockwise from point(i).
    rates[k] is psi' at points[k], as the certificate computed it.
    """

    target: complex
    angles: tuple[float, ...]
    points: tuple[complex, ...]
    rates: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.points)

    def point(self, k: int) -> complex:
        return self.points[k % len(self.points)]

    def angle(self, k: int) -> float:
        n = len(self.angles)
        return self.angles[k % n] + TAU * (k // n)


def _bracketed_newton(evaluate, x, lo, hi, base):
    """Roots x of increasing functions, one per entry, solved together.

    evaluate(live, x) returns f and f' > 0 at the entries live.  Each root
    lies in its bracket [lo, hi] and the solved angle is base + x (base an
    array like x), whose rounding sets the noise floor of f.  Newton runs
    over the live entries as numpy arrays; a step is taken only when it is
    at most half the bracket width, otherwise the bracket is halved, so
    convergence is unconditional.
    An entry stops at the point it has just evaluated, once |f| < 1e-14 or
    its step or bracket is within _ULPS ulps of base + x; after 80 passes
    the entries still live are evaluated where they stand.  Returns
    (x, f, f') with f and f' from the evaluation at x, so a certificate
    needs no second one; x, lo and hi are updated in place.
    """
    f_at, rate_at = np.empty_like(x), np.empty_like(x)
    live = np.arange(len(x))
    for _ in range(80):
        xl = x[live]
        f, rate = evaluate(live, xl)
        f_at[live], rate_at[live] = f, rate
        below = f < 0.0
        lo_l = np.where(below, xl, lo[live])
        hi_l = np.where(below, hi[live], xl)
        lo[live], hi[live] = lo_l, hi_l
        step = f / rate
        size, width = np.abs(step), hi_l - lo_l
        ulps = _ULPS * np.spacing(base[live] + xl)
        go = ~((np.abs(f) < 1e-14) | (size <= ulps) | (width <= ulps))
        # xl is one end of its bracket, so a step of at most half the width
        # stays inside it
        short = size <= 0.5 * width
        x[live[go]] = np.where(short, xl - step, 0.5 * (lo_l + hi_l))[go]
        live = live[go]
        if not live.size:
            break
    else:
        f_at[live], rate_at[live] = evaluate(live, x[live])
    return x, f_at, rate_at


def _certify(f, rate, name) -> None:
    """SolverFailure unless every root has argument error |f|/f' <= 5e-11.

    Near a zero close to the circle f' is huge, so an accurate root can still
    leave |f| far from 0; |f|/f' is the error in the root itself.  name(k)
    describes the k-th root (flat index) for the message.
    """
    error = (np.abs(f) / rate).ravel()
    if error.size and error.max() > 5e-11:
        worst = int(np.argmax(error))
        raise SolverFailure(
            f"{name(worst)} has argument error |f|/f' = {error[worst]:.3e}, "
            f"above 5e-11"
        )


def solve_levels(
    B: BlaschkeProduct, lams, tol: ToleranceConfig | None = None
) -> list[CircleSolutionSet]:
    """The circle solutions of B(z) = lam for every unimodular lam in lams.

    Brackets each of the n * len(lams) roots psi(t) = arg(lam) + 2 pi k on
    the lift grid, starts each from the cubic Hermite interpolant of the
    inverse t(psi) on its cell (end slopes 1/psi'), and solves them all at
    once with _bracketed_newton.  Every root is then certified on its
    argument error |psi(t) - arg(lam)|/psi'(t) <= 5e-11, from the kernel's
    own last evaluation at the returned point, and every level set on its n
    strictly increasing angles, or SolverFailure; the psi' of the
    certificate comes back as rates.
    """
    tol = _tol(tol)
    targets = []
    for value in lams:
        value = complex(value)
        if abs(abs(value) - 1.0) > 1e-9:
            raise InputError(
                f"target must lie on the unit circle, got |lam|={abs(value)!r}"
            )
        targets.append(unit(value))
    lam = np.array(targets, dtype=complex)
    n = B.degree

    ts, psi, slope = _lift_grid(B)
    psi0 = float(psi[0])
    first = psi0 + (np.angle(lam) - psi0) % TAU
    level = (first[:, None] + TAU * np.arange(n)).ravel()
    idx = np.clip(np.searchsorted(psi, level), 1, len(ts) - 1)
    lo, hi = ts[idx - 1], ts[idx]
    # psi is strictly increasing on the grid, so each cell inverts to t(psi)
    # with slopes 1/psi' at its ends; s is the level's place in the cell and
    # m0, m1 the end slopes in units of s
    gain = psi[idx] - psi[idx - 1]
    s = (level - psi[idx - 1]) / gain
    width = hi - lo
    m0, m1 = gain / slope[idx - 1], gain / slope[idx]
    bend = (1.0 - s) * (m0 - width) + s * (width - m1)
    t = np.clip(lo + s * width + s * (1.0 - s) * bend, lo, hi)

    # f = arg(B(z) conj(lam)) is the offset psi(t) - arg(lam), wrapped; z is
    # formed from t mod 2 pi, as the returned points are
    rotate = np.repeat(lam.conj(), n)

    def offset(live, tl):
        w, rate = _circle_terms(B, np.exp(1j * (tl % TAU)))
        return np.angle(w * rotate[live]), rate

    t, f, rate = _bracketed_newton(offset, t, lo, hi, np.zeros_like(t))
    _certify(f, rate, lambda k: f"circle solution of B = {targets[k // n]!r}")

    # a root at t = 2 pi reads as angle 0 and sorts to the front of its row;
    # order holds flat indices, so it sorts the rates alike
    angles = t % TAU
    order = np.argsort(angles.reshape(len(lam), n), axis=1)
    order += n * np.arange(len(lam))[:, None]
    angles, rate = angles[order], rate[order]
    points = np.exp(1j * angles)
    if not np.all(np.diff(angles, axis=1) > 0.0):
        raise SolverFailure("coincident circle solutions; level set degenerate")
    return [
        CircleSolutionSet(target, tuple(row_t), tuple(row_z), tuple(row_rate))
        for target, row_t, row_z, row_rate in zip(
            targets, angles.tolist(), points.tolist(), rate.tolist()
        )
    ]


def solve_on_circle(
    B: BlaschkeProduct, lam: complex, tol: ToleranceConfig | None = None
) -> CircleSolutionSet:
    """All circle solutions of B(z) = lam for unimodular lam.

    The one-row case of solve_levels: the n roots are bracketed on the lift
    grid, solved together by _bracketed_newton and certified on their
    argument error and their strictly increasing angles before returning.
    """
    return solve_levels(B, [lam], tol)[0]


def _orbit(sol: CircleSolutionSet, z: complex, count: int) -> tuple[complex, ...]:
    """(z, g(z), ..., g^{count-1}(z)) read off the level set sol through z,
    which must hold z itself."""
    points = np.array(sol.points)
    i = int(np.argmin(np.abs(points - z)))
    if abs(points[i] - z) > 1e-6:
        raise SolverFailure(
            "point is not on its own level set; circle solve inconsistent"
        )
    return (z,) + tuple(points[(i + np.arange(1, count)) % len(points)].tolist())


def _orbits(
    B: BlaschkeProduct, starts, count: int, tol: ToleranceConfig | None = None
) -> list[tuple[complex, ...]]:
    """invariant_orbit for every start, from one solve_levels call."""
    tol = _tol(tol)
    if count < 1:
        raise InputError("orbit length must be at least 1")
    starts = [unit(complex(z)) for z in starts]
    # _circle_terms has no pole next to a zero within root_tol of the circle,
    # where B.evaluate refuses but solve_levels still solves
    levels = _circle_terms(B, np.array(starts, dtype=complex))[0]
    sols = solve_levels(B, levels.tolist(), tol)
    return [_orbit(sol, z, count) for sol, z in zip(sols, starts)]


def invariant_orbit(
    B: BlaschkeProduct,
    z: complex,
    count: int,
    tol: ToleranceConfig | None = None,
) -> tuple[complex, ...]:
    """(z, g(z), g^2(z), ..., g^{count-1}(z)) for the next-preimage map g.

    The one-start case of _orbits: the iterates of g through z are
    consecutive points of the level set of B through z.
    """
    return _orbits(B, [z], count, tol)[0]


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
    whose innermost factor vanishes at 0 and at a.

    That factor is gamma * z * phi_a for some unimodular gamma, and gamma
    does not matter: either way its fibers are the pairs {z, phi_a(z)}.
    Compares the iterated next-preimage map of the expanded chain against
    phi_a on 64 circle samples, all read off one batched level-set solve;
    passes when the sup error stays within identity_tol.
    """
    tol = _tol(tol)
    if any(f.degree != 2 for f in chain.factors):
        raise InputError("every factor in the chain must have degree 2")
    inner = chain.factors[-1]
    zeros = sorted(inner.zeros, key=abs)
    if abs(zeros[0]) > 1e-9:
        raise InputError("innermost factor must vanish at the origin")
    a = zeros[1]

    m = len(chain.factors)
    power = 2 ** (m - 1)
    B = chain.expand(tol)
    phi = DiskAutomorphism(1.0, a)
    worst = 0.0
    worst_at = 1.0 + 0j
    samples = list(circle_samples(64, offset=0.05))
    for z, orbit in zip(samples, _orbits(B, samples, power + 1, tol)):
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
