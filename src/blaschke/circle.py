"""Boundary behavior: solving B(z) = lambda on the unit circle.

A finite product of degree n wraps the circle around itself n times with
strictly increasing argument, so B(z) = lambda has exactly n circle solutions
for every unimodular lambda.  Everything here rides on one object, a lifted
(continuous, increasing) argument psi with B(e^{it}) = e^{i psi(t)}, kept
once per product on a grid that is fine only where psi is steep and exact at
every grid point (_lift_grid), so every grid cell is a guaranteed bracket.

Arguments on the circle are read through w = 1 - a conj(z): for |z| = 1
each factor is (z - a)/(1 - conj(a) z) = z w / conj(w), and Re w > 0 puts
Arg w in (-pi/2, pi/2).  So a factor gains exactly Delta + 2 Arg(w2
conj(w1)) across an arc of angle Delta, with no division and no wrap
(_arc_gain sums the second term; the lift grid adds the rotation part),
and |w| = |z - a| gives psi' (_poisson_rate).  The lift grid needs only
these arguments.  _circle_terms, which solve_levels' Newton offset reads,
needs B itself and reads it off the same w: each factor is z w^2 / |w|^2,
so no circle kernel forms a complex quotient.  a and 1 - |a|^2 come from
the product's factor table (BlaschkeProduct._table), built once per
product.

solve_levels solves any number of level sets at once: it brackets all
n * len(lams) roots on that grid, which keeps each cell's Hermite data too,
starts each from the cubic Hermite interpolant of the inverse t(psi) on its
cell, and solves them with _bracketed_newton, the one Newton kernel in the
package, and _certify, its certificate.  Each pass reads B and psi' > 0 off
one _circle_terms call, and a pass on which every root is live gathers and
scatters nothing.  The kernel stops every root at a point it has just
evaluated and hands that evaluation to the certificate, so a solve whose
starts are one Newton step from their roots costs two evaluations of B.

_chords reads every chord family off such a solve, with the point where
each chord touches its envelope: poncelet's envelopes K_{m+1} and their
tangency audit, and shiftop's numerical ranges, each the K_1 of z times the
zeros; _level_count is the number of evenly spaced level sets the
envelopes and the ranges solve for a sample budget.  _ellipse is the one
test of whether a family of lines, the chords of an envelope or the support
lines of a numerical range, each with its tangency point, is tangent to an
ellipse.

A solve returns one LevelSets record: the angles, points and psi' rates of
every level set as read-only (levels, n) arrays, one row per target, each
row sorted by angle.  The level-set memo, the orbits below and poncelet's
package, tangency audit and scene all read that record.

The next-preimage map g (send a circle point to the next solution of the same
level set, counterclockwise) generates the full set of continuous circle maps
commuting with B in the sense B o u = B, a cyclic group of order n.  Orbits
of g come from a single level-set solve: the iterates are just successive
entries of one row of a LevelSets, and the orbits of many starts come from
one batched solve.

Those solves are kept on the product object (core._kept), as the lift grid
is: _level_sets_through holds the level sets through each tuple of
unit-projected start points that has been asked of that product; the same
product and starts read the same LevelSets, whose arrays are read-only, so
next_preimage and invariant_orbit(s) solve a level set once however often
they ask for it.  The inner-factor search of every divisor k of n reads
its orbit off the one level set through 1: the orbits of g^(n/k) there
are the residue classes of its points mod n/k, and the search takes class
0 with its psi' rates.
Both go when the product goes, and an equal product is another object that
solves afresh.  No tolerance is part of the key because no circle solve
reads one.  A refusal is not kept, so the next call solves afresh.
solve_levels itself is not memoized.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BlaschkeProduct,
    CompositionChain,
    DiskAutomorphism,
    ToleranceConfig,
    circle_samples,
    unit,
    _MATCH_TOL,
    _ROUND_GAP,
    _finite,
    _integer,
    _kept,
    _origin_dropped,
)
from .errors import InputError, SolverFailure

__all__ = [
    "LevelSets",
    "solve_levels",
    "next_preimage",
    "invariant_orbit",
    "invariant_orbits",
    "GeneratorPowerCheck",
    "verify_generator_power",
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
    """w = 1 - a_j e^{-it} at the lift grid's angles t, along a new last
    axis."""
    # in this operand order, with the add in place, numpy builds w up to
    # five times faster than 1.0 - a * e[..., None]
    w = np.exp(-1j * t)[..., None] * -a
    w += 1.0
    return w


def _poisson_rate(weight: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Poisson sum psi' = sum weight_j/|w_j|^2, weight_j = 1 - |a_j|^2,
    at circle points z, from w_j = 1 - a_j conj(z)."""
    return (weight / (w.real**2 + w.imag**2)).sum(axis=-1)


def _arc_gain(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """sum_j 2 Arg(w2_j conj(w1_j)): the factors' summed argument gain from
    the circle point of w1 counterclockwise to that of w2, less their
    rotation part, Delta per factor for an arc of angle Delta.

    Every Arg w lies in (-pi/2, pi/2), so each difference lies in (-pi, pi)
    and is the exact change of the continuous Arg w along the arc, whatever
    its length; there is no wrap, so an arc shorter than rounding gains
    about 0, never about 2 pi."""
    return 2.0 * np.sum(np.angle(w2 * w1.conj()), axis=-1)


def _chords(skips, points, rates) -> tuple[np.ndarray, np.ndarray]:
    """(ends, tangency): for skip skips[i], vertex j and level set k,
    ends[i, j, k] holds the chord from vertex j to vertex j + skips[i] + 1
    of that LevelSets row and tangency[i, j, k] the point where it touches
    its envelope, the psi'-weighted mean (p psi'_p + q psi'_q)/(psi'_p +
    psi'_q) of its ends, as its ends turn at the rates 1/psi'."""
    p, rp = points.T, rates.T
    n = len(p)
    ahead = (np.arange(n) + (np.asarray(skips) + 1)[:, None]) % n
    q, rq = p[ahead], rp[ahead]
    tangency = (p * rp + q * rq) / (rp + rq)
    return np.stack(np.broadcast_arrays(p, q), axis=-1), tangency


def _level_count(n: int, samples: int) -> int:
    """max(2, ceil(samples/n)): the number of evenly spaced level sets of a
    degree-n product whose n chords per family give every chord family at
    least samples chords, the envelopes' and the numerical range's count.
    Each caller gates samples itself."""
    return max(2, -(-samples // n))


# A family of lines whose tangency equations miss by more than this fraction
# of a0 has no ellipse.  Ellipses read at most 6.7e-15 (demo envelopes) and
# 5.2e-12 (the elliptical family's ranges to degree 24); the other families
# read at least 1.3e-4 (envelopes of random products of degree 3 to 128) and
# 2.2e-3 (ranges of random products of degree 3 to 39).
_ELLIPSE_TOL = 1e-8


def _ellipse(s: np.ndarray, r: np.ndarray, points: np.ndarray):
    """The ellipse tangent to every line z + r_k conj(z) = s_k, |r_k| = 1,
    with tangency point points[k], as (classification, center, semi_axes,
    axis_angle, foci, residual).

    The chord from z1 to z2 on the unit circle is s = z1 + z2, r = z1 z2; the
    support line Re(e^{-i theta} z) = h is s = 2 h e^{i theta}, r =
    e^{2 i theta}.  A line with unit normal e^{i theta} and offset h touches
    the ellipse with center c and squared reach g = a0 + Re(e^{-2i theta} m)
    exactly when (h - Re(e^{-i theta} c))^2 = g (Gau and Wu 1998; Daepp,
    Gorkin, Shaffer and Voss, "Finding ellipses", 2018), which is linear in
    the five real unknowns c, A0 and A2 + i B2:

        Re(conj(s) c) + A0 + Re(conj(r) (A2 + i B2)) = |s|^2 / 4,

    with a0 = A0 + |c|^2/2 and m = A2 + i B2 + c^2/2.  One least-squares
    solve gives them, the major axis lies at arg(m)/2, and residual is the
    worst equation miss over a0, infinite when a0 <= 0.  The lines are
    first moved to the mean tangency point as origin, and c back after:
    about it |s|^2 / 4 is of the size of a0, so a small ellipse far from 0,
    the range of a 2 x 2 shift with zeros next to the circle, is not lost
    to cancellation in A0 = a0 - |c|^2/2.

    The semi-axes are p, q = sqrt(a0 +- |m|), but a0 - |m| cancels when an
    ellipse near the circle is thin (|s|^2 / 4 ~ 1, q^2 ~ 1e-10).  So p^2
    and q^2 come from a second least squares in two unknowns, on the squared
    reach about c, |s - c - r conj(c)|^2 / 4 = p^2 cos^2 + q^2 sin^2 of the
    normal's angle from the major axis.  The foci are c +- e^{i axis}
    sqrt(p^2 - q^2), or both c when p - q <= core._ROUND_GAP p, a circle.

    A family whose tangency points all lie within 1e-6 of the first is a
    "point" at their mean, with residual their spread; this runs first, as
    lines through one point leave c free.
    Otherwise it is a "non-conic" when the residual is above _ELLIPSE_TOL,
    before the second fit runs, a "degenerate" one when q^2 <=
    core._ROUND_GAP p^2 (a segment), else an "ellipse"; center, semi_axes,
    axis_angle and foci are None unless it is a point or an ellipse.  Fewer
    than 6 lines, or a line that is not finite, raise InputError.
    """
    if len(s) < 6:
        raise InputError("an ellipse fit needs at least 6 tangent lines")
    finite = np.isfinite(s) & np.isfinite(r)
    if not finite.all():
        k = int(np.argmin(finite))
        raise InputError(f"an ellipse fit needs finite lines; line {k} is not")
    mean = complex(np.mean(points))
    if np.abs(points - points[0]).max() < 1e-6:
        spread = float(np.abs(points - mean).max())
        return "point", mean, (0.0, 0.0), 0.0, (mean, mean), spread
    # the lines about the mean tangency point: z = mean + w solves
    # w + r conj(w) = s - mean - r conj(mean)
    s = s - mean - r * mean.conjugate()
    design = np.stack((s.real, s.imag, np.ones(len(s)), r.real, r.imag), axis=1)
    rhs = 0.25 * (s.real**2 + s.imag**2)
    x = np.linalg.lstsq(design, rhs)[0]
    c = complex(x[0], x[1])
    a0 = float(x[2]) + 0.5 * abs(c) ** 2
    m = complex(x[3], x[4]) + 0.5 * c * c
    miss = float(np.abs(design @ x - rhs).max())
    residual = miss / a0 if a0 > 0.0 else math.inf
    if not residual <= _ELLIPSE_TOL:
        return "non-conic", None, None, None, None, residual
    axis = 0.5 * cmath.phase(m)
    # cos^2 and sin^2 of the normal's angle from the axis are (1 +- u)/2; a
    # circle's axis is arbitrary, so the larger square is p^2
    u = (r * cmath.exp(-2j * axis)).real
    reach = s - c - r * c.conjugate()
    halves = np.stack((1.0 + u, 1.0 - u), axis=1)
    q2, p2 = sorted(np.linalg.lstsq(halves, 0.5 * (reach.real**2 + reach.imag**2))[0])
    if not q2 > _ROUND_GAP * p2:
        return "degenerate", None, None, None, None, residual
    p, q = math.sqrt(p2), math.sqrt(q2)
    offset = 0j if p - q <= _ROUND_GAP * p else cmath.rect(math.sqrt(p2 - q2), axis)
    c += mean
    return "ellipse", c, (p, q), axis, (c + offset, c - offset), residual


@_kept
def _lift_grid(B: BlaschkeProduct) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ts, psi, cells): the lift psi(t) on an increasing grid over
    [0, 2pi], and the data of solve_levels' Hermite start on each cell.

    psi is exact at every grid point: psi(0) = arg B(1) in [0, 2pi), read
    off the unit-modulus factors at 1 (_circle_terms), plus n t and the
    factors' _arc_gain from 1 to e^{it}; the ends are exactly psi(0) and
    psi(0) + 2 pi n.  No gain is wrapped, so a cell next to t = 0 stays
    increasing however close to the circle a zero near angle 0 sits.  Of
    _BASE_CELLS equal cells, only those across which psi gains 0.5 or more
    are halved, repeatedly.  That terminates: a steep cell of _ULPS ulps,
    one still steep after _MAX_DEPTH halvings, or a psi that fails to
    increase raises SolverFailure naming the largest zero modulus.

    cells has one column per cell, read by solve_levels with one gather:
    its ends t0 and t1, psi at t0, the cell's gain in psi, its width
    t1 - t0, and m0 - width and width - m1, where m0 and m1 are the end
    slopes gain/psi' of the inverse t(psi) in units of the level's place in
    the cell; psi' is _poisson_rate at each grid point, from the same w as
    psi.
    """
    a, _, weight, _ = B._table

    def lift(t):
        w = _circle_w(a, t)
        return psi0 + B.degree * t + _arc_gain(w_one, w), _poisson_rate(weight, w)

    def refuse(why):
        top = max(abs(z) for z in B.zeros)
        return SolverFailure(f"argument lift {why}; the largest zero modulus is {top!r}")

    # w = 1 - a at 1, and the factors w^2 / |w|^2 there have no pole even
    # for a zero next to 1, where B.evaluate(1) would refuse
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
            width = np.diff(ts)
            m0, m1 = gain / rate[:-1], gain / rate[1:]
            cells = np.stack(
                (ts[:-1], ts[1:], psi[:-1], gain, width, m0 - width, width - m1)
            )
            return ts, psi, cells
        lo, hi = ts[steep], ts[steep + 1]
        if np.any(hi - lo <= _ULPS * np.spacing(hi)):
            raise refuse("cannot split a steep cell of a few ulps")
        mid = 0.5 * (lo + hi)
        psi_mid, rate_mid = lift(mid)
        ts = np.insert(ts, steep + 1, mid)
        psi = np.insert(psi, steep + 1, psi_mid)
        rate = np.insert(rate, steep + 1, rate_mid)
    raise refuse(f"still has steep cells after {_MAX_DEPTH} halvings")


def _circle_terms(B: BlaschkeProduct, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B(z) and psi' at circle points z, both read off w_j = 1 - a_j conj(z),
    built once as _circle_w builds it: each factor z w_j / conj(w_j) is
    z w_j^2 / |w_j|^2, with no complex quotient, and psi' is _poisson_rate's
    sum over the same |w_j|^2.  No factor is renormalized: it has unit
    modulus to rounding however small w_j is, where the equal (z - a_j) w_j
    / |w_j|^2 would miss it by about eps/|w_j|, 2e-4 next to a zero 1e-12
    inside the circle."""
    a, _, weight, _ = B._table
    w = z.conj()[..., None] * -a
    w += 1.0
    size = w.real**2 + w.imag**2
    factors = w * w
    factors *= z[..., None]
    factors /= size
    return B.gamma * factors.prod(axis=-1), (weight / size).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class LevelSets:
    """The circle solutions of B = lam for each target lam, as read-only
    numpy arrays with one row per level set, in the order of the targets.

    Row q holds its n solutions counterclockwise: angles[q] strictly
    increasing in [0, 2pi), points[q] = e^{i angles[q]}, and rates[q] the
    psi' there that the certificate computed.  Solution j + 1 of a row is
    the next counterclockwise from solution j, and solution 0 follows
    solution n - 1.
    """

    angles: np.ndarray  # float, shape (levels, n)
    points: np.ndarray  # complex, shape (levels, n)
    rates: np.ndarray  # float, shape (levels, n)

    def __post_init__(self) -> None:
        for a in (self.angles, self.points, self.rates):
            a.flags.writeable = False


def _bracketed_newton(evaluate, x, lo, hi):
    """Roots x of increasing functions, one per entry, solved together:
    solve_levels' circle angles.

    evaluate(live, x) returns f and f' > 0 at the entries live, an index
    that selects from arrays like x: slice(None) while every entry is live,
    so that pass gathers and scatters nothing, then an index array.  Each
    root lies in its bracket [lo, hi], and the rounding of the angle x sets
    the noise floor of f.
    Newton runs over the live entries as numpy arrays; a step is taken only
    when it is at most half the bracket width, otherwise the bracket is
    halved, so convergence is unconditional.
    An entry stops at the point it has just evaluated, once |f| < 1e-14 or
    its step or bracket is within _ULPS ulps of x; after 80 passes the
    entries still live are evaluated where they stand.  Returns
    (x, f, f') with f and f' from the evaluation at x, so a certificate
    needs no second one; x, lo and hi are updated in place.
    """
    f_at, rate_at = np.empty_like(x), np.empty_like(x)
    every = np.arange(len(x))
    live = slice(None)
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
        ulps = _ULPS * np.spacing(xl)
        go = ~((np.abs(f) < 1e-14) | (size <= ulps) | (width <= ulps))
        # xl is one end of its bracket, so a step of at most half the width
        # stays inside it
        to = np.where(size <= 0.5 * width, xl - step, 0.5 * (lo_l + hi_l))
        if go.size and go.all():
            x[live] = to
            continue
        live = every[live][go]
        x[live] = to[go]
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
    # written so that NaN fails it too; argmax finds the first NaN
    if error.size and not error.max() <= 5e-11:
        worst = int(np.argmax(error))
        raise SolverFailure(
            f"{name(worst)} has argument error |f|/f' = {error[worst]:.3e}, "
            f"above 5e-11"
        )


def solve_levels(B: BlaschkeProduct, lams) -> LevelSets:
    """The circle solutions of B(z) = lam for every unimodular lam in lams.

    Brackets each of the n * len(lams) roots psi(t) = arg(lam) + 2 pi k on
    the lift grid, starts each from the cubic Hermite interpolant of the
    inverse t(psi) on its cell (end slopes 1/psi'), and solves them all at
    once with _bracketed_newton.  Every root is then certified on its
    argument error |psi(t) - arg(lam)|/psi'(t) <= 5e-11, from the kernel's
    own last evaluation at the returned point, and every level set on its n
    strictly increasing angles, or SolverFailure; the psi' of the
    certificate comes back as rates.  A target off the circle, NaN or
    infinite raises InputError.  Both bounds are fixed, so it takes no
    tolerance.
    """
    targets = []
    for value in lams:
        value = complex(value)
        # written so that NaN fails it too
        if not abs(abs(value) - 1.0) <= 1e-9:
            raise InputError(
                f"target must lie on the unit circle, got |lam|={abs(value)!r}"
            )
        targets.append(unit(value))
    lam = np.array(targets, dtype=complex)
    n = B.degree

    ts, psi, cells = _lift_grid(B)
    psi0 = float(psi[0])
    first = psi0 + (np.angle(lam) - psi0) % TAU
    level = (first[:, None] + TAU * np.arange(n)).ravel()
    # c is the cell of each level, psi[c] < level <= psi[c + 1], clamped to
    # the first and last cell: counting only the inner grid points does both
    c = np.searchsorted(psi[1:-1], level)
    lo, hi, psi_lo, gain, width, d0, d1 = cells[:, c]
    # psi is strictly increasing on the grid, so each cell inverts to t(psi)
    # with slopes 1/psi' at its ends; s is the level's place in the cell and
    # d0, d1 the end slopes' departures from the chord (see _lift_grid)
    s = (level - psi_lo) / gain
    r = 1.0 - s
    bend = r * d0 + s * d1
    t = lo + s * width + s * r * bend
    np.minimum(np.maximum(t, lo, out=t), hi, out=t)

    # f = arg(B(z) conj(lam)) is the offset psi(t) - arg(lam), wrapped; z is
    # formed from t mod 2 pi, as the returned points are
    rotate = np.repeat(lam.conj(), n)

    def offset(live, tl):
        w, rate = _circle_terms(B, np.exp(1j * (tl % TAU)))
        return np.angle(w * rotate[live]), rate

    t, f, rate = _bracketed_newton(offset, t, lo, hi)
    _certify(f, rate, lambda k: f"circle solution of B = {targets[k // n]!r}")

    # a root at t = 2 pi reads as angle 0 and sorts to the front of its row;
    # order holds flat indices, so it sorts the rates alike
    angles = t % TAU
    order = np.argsort(angles.reshape(len(lam), n), axis=1)
    order += n * np.arange(len(lam))[:, None]
    angles, rate = angles[order], rate[order]
    points = np.exp(1j * angles)
    if not (angles[:, 1:] > angles[:, :-1]).all():
        raise SolverFailure("coincident circle solutions; level set degenerate")
    return LevelSets(angles, points, rate)


@_kept
def _level_sets_through(
    B: BlaschkeProduct, starts: tuple[complex, ...]
) -> LevelSets:
    """The level set of B through each circle point of starts, from one
    solve_levels call, kept on the product per starts as the module
    docstring describes."""
    # _circle_terms has no pole next to a zero within core._ROOT_TOL of the
    # circle, where B.evaluate refuses but solve_levels still solves
    return solve_levels(B, _circle_terms(B, np.array(starts, dtype=complex))[0])


def _orbit(
    points: tuple[complex, ...], z: complex, count: int
) -> tuple[complex, ...]:
    """(z, g(z), ..., g^{count-1}(z)) read off the points of the level set
    through z, sorted by angle, which must hold z itself."""
    gaps = [abs(p - z) for p in points]
    i = gaps.index(min(gaps))
    if gaps[i] > 1e-6:
        raise SolverFailure(
            "point is not on its own level set; circle solve inconsistent"
        )
    # the solutions after z counterclockwise, round as many times as needed
    ahead = points[i + 1 :] + points[: i + 1]
    return (z,) + (ahead * -(-(count - 1) // len(points)))[: count - 1]


def invariant_orbits(
    B: BlaschkeProduct, starts, count: int
) -> list[tuple[complex, ...]]:
    """(z, g(z), ..., g^{count-1}(z)) for every start z, each projected
    onto the circle: row i is invariant_orbit(B, starts[i], count).

    Every row is read off _level_sets_through(B, starts), so all their level
    sets come from one solve_levels call, and asking again with the same
    product and starts solves nothing.  A NaN or infinite start, or a count
    that is not an integer of at least 1, raises InputError.  No circle
    solve reads a tolerance, so none is part of the memo's key.
    """
    if _integer(count, "orbit length must be an integer") < 1:
        raise InputError("orbit length must be at least 1")
    starts = tuple(unit(_finite("start", z)) for z in starts)
    rows = _level_sets_through(B, starts).points.tolist()
    return [_orbit(tuple(row), z, count) for row, z in zip(rows, starts)]


def invariant_orbit(
    B: BlaschkeProduct,
    z: complex,
    count: int,
    tol: ToleranceConfig | None = None,
) -> tuple[complex, ...]:
    """(z, g(z), g^2(z), ..., g^{count-1}(z)) for the next-preimage map g.

    The one-start case of invariant_orbits: the iterates of g through z are
    consecutive points of the level set of B through z.
    """
    return invariant_orbits(B, [z], count)[0]


def next_preimage(
    B: BlaschkeProduct, z: complex, tol: ToleranceConfig | None = None
) -> complex:
    """The circle solution of B(w) = B(z) next after z, counterclockwise:
    invariant_orbit(B, z, 2)[1]."""
    return invariant_orbit(B, z, 2)[1]


@dataclass(frozen=True)
class GeneratorPowerCheck:
    ok: bool
    power: int
    point: complex
    sup_error: float

    def __bool__(self) -> bool:
        return self.ok


def verify_generator_power(chain: CompositionChain) -> GeneratorPowerCheck:
    """Check g^{2^{m-1}} = phi_a for an m-factor chain of degree-2 products
    whose innermost factor vanishes at 0 and at a; the zero at 0 is the one
    core._origin_dropped finds within core._IDENTITY_TOL.  Any other chain
    raises InputError, before any solve, naming the condition it fails.

    That factor is gamma * z * phi_a for some unimodular gamma, and gamma
    does not matter: either way its fibers are the pairs {z, phi_a(z)}.
    Compares the iterated next-preimage map of the expanded chain against
    phi_a on 64 circle samples, all read off one batched level-set solve;
    passes when the sup error stays within core._MATCH_TOL, the certificate
    of every circle match.  A zero the gate takes for 0 may lie up to
    core._IDENTITY_TOL from it, which moves g^{2^{m-1}} off phi_a by up to
    2 (1 + |a|) core._IDENTITY_TOL, below that mark.
    """
    if any(f.degree != 2 for f in chain.factors):
        raise InputError("every factor in the chain must have degree 2")
    rest = _origin_dropped(chain.factors[-1].zeros)
    if rest is None:
        raise InputError("innermost factor must vanish at the origin")
    (a,) = rest

    m = len(chain.factors)
    power = 2 ** (m - 1)
    B = chain.expand()
    phi = DiskAutomorphism(1.0, a)
    samples = list(circle_samples(64, offset=0.05))
    orbits = invariant_orbits(B, samples, power + 1)
    errors = [abs(orbit[power] - phi(z)) for z, orbit in zip(samples, orbits)]
    # argmax finds the first NaN, and NaN <= _MATCH_TOL fails
    k = int(np.argmax(errors))
    return GeneratorPowerCheck(errors[k] <= _MATCH_TOL, power, samples[k], errors[k])

