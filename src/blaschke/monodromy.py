"""Numerical monodromy of a finite Blaschke product over the disk.

The fiber over the base point 0 is the zero set; a loop in the disk avoiding
the critical values lifts through each zero to a path ending at a (possibly
different) zero, and the induced permutations of the zero labels generate the
monodromy group.  One loop per distinct critical value suffices.

Loops are lollipops of exact chords and arcs, held as the two legs
monodromy_group lifts: the outward leg, straight chords from 0 toward the
value (with one exact arc round any other critical value in the corridor)
to the entry point e, and the circle, two exact half-turn arcs once round
the value through e.  Path lifting is unique, so the outward leg retraced,
which closes the loop, lifts to the inverse of the outward map: with out
taking the labels to the fiber over e and arc the permutation of that
fiber the circle gives, each generator is out^-1 o arc o out, and no
return leg is built.  The tests lift whole closed loops through _track as
an independent check.

Lifting is a predictor-corrector tracker on B(z(t)) = gamma(t) under one
step rule: from gamma_0 a step moves _STEP * rho along the piece, rho the
distance from gamma_0 to the nearest critical value v.  The branch of B^-1
through the current point is analytic on the disk of radius rho about
gamma_0, as 1/conj(v) is farther still (|1 - conj(v) w|^2 - |w - v|^2 =
(1 - |w|^2)(1 - |v|^2) > 0 for |w| < 1), so every step stays where the
branch is single-valued.  No step depends on the branch, so each loop's
step schedule is built once and every (loop, label) row follows it in
lock-step: one Newton pass is one BlaschkeProduct._jet call on all the
rows still correcting, giving B and B', and the slope at the accepted
point is the next Euler predictor.  The corrector stops at
|B - gamma| <= rho / 1000 between steps, which keeps the point on its
branch, and at min(1e-12, rho / 1000) at the last step of each tracker
call: the ends over the entry point and the arc ends are the only points
compared or returned.  No bound is below _ROUNDING * n * eps * |gamma|,
about the rounding of an evaluation of B at a point over gamma, which no
corrector can beat.

monodromy_group's results are kept on the product object (core._kept), so
cross_validate after monodromy_group on the same product, or the CLI's one
cross_validate, tracks each branch once.

Near the circle B is an n-fold cover, so the loops taken in the order of
their values' arguments compose to a loop round the circle, which lifts to
an n-cycle; monodromy_group certifies that and appends the cycle to the
group's generators.  Block systems of the group are the group-respected
partitions of the zero labels, and in a group holding an n-cycle c they are
the residue classes of positions along c, one candidate per divisor of n.
Each corresponds to a compositional factorization, which is what
cross_validate checks against the direct factor search.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    BlaschkeProduct,
    ToleranceConfig,
    _CLUSTER_TOL,
    _ROOT_TOL,
    _finite,
    _integer,
    _kept,
    _proper_divisors,
    _tower_height,
    _zeros_separated,
)
from .critical import CriticalData, _value_links, critical_data
from .errors import (
    DegenerateInput,
    GeometryFailure,
    InputError,
    NonBijective,
    TrackingFailure,
    VerificationFailure,
)

__all__ = [
    "Permutation",
    "PermutationGroup",
    "BlockSystem",
    "LoopPiece",
    "LoopSpec",
    "build_loops",
    "MonodromyResult",
    "monodromy_group",
    "block_systems",
    "WreathAudit",
    "wreath_audit",
    "CrossRow",
    "CrossValidation",
    "cross_validate",
]

TAU = 2.0 * math.pi
_STEP = 0.8  # a tracker step's share of the distance to the nearest value
# the floor of every corrector bound, in units of n eps |gamma|
_ROUNDING = 8.0


def _invert(images: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise NonBijective(f"not a bijection: {self.images}")

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self after other."""
        return Permutation(tuple(self.images[j] for j in other.images))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))


class PermutationGroup:
    """Group generated by a list of permutations on range(degree).

    The order is read off a stabilizer chain, built by deterministic
    Schreier-Sims on first use and cached (Sims 1970; Seress, Permutation
    Group Algorithms, 2003).  Level i holds a base point b_i, the strong
    generators fixing b_0 .. b_{i-1}, and a transversal: for each point p of
    the basic orbit of b_i, a group element u with u(b_i) = p and its
    inverse; the order is the product of the basic-orbit sizes.  A primitive
    group with a transposition among its generators is the symmetric group
    (Jordan 1873), so its order needs no chain; primitivity is read off an
    n-cycle among the generators (block_systems), and a group with none is
    not taken for S_n.  Transitivity is the orbit of 0 under the generators.
    """

    def __init__(self, generators, degree: int):
        self.generators = tuple(generators)
        self.degree = int(degree)
        if any(len(g.images) != self.degree for g in self.generators):
            raise InputError("generator degree mismatch")
        self._levels: list | None = None

    def _chain(self) -> list:
        """The levels (base point, strong generators, transversal), built
        from the generators on first use."""
        if self._levels is None:
            self._levels = []
            for g in self.generators:
                self._extend(0, g.images)
        return self._levels

    def _sift(self, g: tuple, i: int) -> tuple:
        """Strip g by the transversals from level i down; the identity comes
        back exactly when g lies in the group those levels generate."""
        for base, _, transversal in self._levels[i:]:
            rep = transversal.get(g[base])
            if rep is None:
                break
            g = tuple(rep[1][x] for x in g)
        return g

    def _extend(self, i: int, g: tuple) -> None:
        """Add g, which fixes the first i base points, to level i unless it
        sifts out, then sift every Schreier generator of level i into the
        levels below.  On return every level from i down is complete."""
        identity = tuple(range(self.degree))
        g = self._sift(g, i)
        if g == identity:
            return
        levels = self._levels
        if i == len(levels):
            base = next(x for x, y in enumerate(g) if x != y)
            levels.append((base, [], {base: (identity, identity)}))
        _, gens, transversal = levels[i]
        gens.append(g)
        frontier = list(transversal)
        while frontier:
            p = frontier.pop()
            for s in gens:
                if s[p] not in transversal:
                    v = tuple(s[x] for x in transversal[p][0])
                    transversal[s[p]] = (v, _invert(v))
                    frontier.append(s[p])
        for p, (u, _) in list(transversal.items()):
            for s in gens:
                w = transversal[s[p]][1]
                self._extend(i + 1, tuple(w[s[x]] for x in u))

    def order(self) -> int:
        if self._symmetric():
            return math.factorial(self.degree)
        return math.prod(len(level[2]) for level in self._chain())

    def _symmetric(self) -> bool:
        """Whether a generator is a transposition, one is an n-cycle and the
        group is primitive, which makes the group S_n (Jordan)."""
        return (
            any(g.cycle_type()[:2] in ((2,), (2, 1)) for g in self.generators)
            and _long_cycle(self) is not None
            and block_systems(self) == ()
        )

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            (a * b).images == (b * a).images for a in gens for b in gens
        )

    def is_transitive(self) -> bool:
        orbit, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                if g.images[x] not in orbit:
                    orbit.add(g.images[x])
                    frontier.append(g.images[x])
        return len(orbit) == self.degree


@dataclass(frozen=True)
class BlockSystem:
    """Partition of the zero labels respected by the group."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])


@dataclass(frozen=True)
class LoopPiece:
    """One piece of a loop, traversed from start (s = 0) to end (s = 1).

    With sweep 0 the piece is the chord from start to end; otherwise it is
    the arc that turns start by sweep about center (counterclockwise when
    sweep > 0, clockwise when sweep < 0), and it ends exactly at the stored
    end, so consecutive pieces join bit-exactly.
    """

    start: complex
    end: complex
    center: complex = 0j
    sweep: float = 0.0

    @property
    def length(self) -> float:
        """The length of the chord or the arc."""
        if self.sweep:
            return abs(self.sweep) * abs(self.start - self.center)
        return abs(self.end - self.start)

    def at(self, s: float) -> complex:
        """The point a fraction s of the way along; exactly end at s = 1."""
        if s >= 1.0:
            return self.end
        if self.sweep:
            turn = cmath.exp(1j * self.sweep * s)
            return self.center + (self.start - self.center) * turn
        return self.start + s * (self.end - self.start)

    def distance(self, w: complex) -> float:
        """Distance from w to the piece."""
        if self.sweep:
            # the turn from start to w about center, in the arc's own sense
            turn = cmath.phase((w - self.center) / (self.start - self.center))
            if abs(turn % math.copysign(TAU, self.sweep)) <= abs(self.sweep):
                return abs(abs(w - self.center) - abs(self.start - self.center))
            return min(abs(w - self.start), abs(w - self.end))
        span = self.end - self.start
        t = ((w - self.start) * span.conjugate()).real / abs(span) ** 2
        return abs(w - self.start - min(1.0, max(0.0, t)) * span)


@dataclass(frozen=True)
class LoopSpec:
    """Loop from 0 once round one critical value, as the two legs
    monodromy_group lifts: outward, from 0 to the entry point on the circle
    of the given radius about target (with one arc of that radius round
    each bystander value in the way), and circle, two exact half-turn arcs
    once round target counterclockwise, ending bit-exactly at the entry
    point."""

    target: complex
    outward: tuple[LoopPiece, ...]
    circle: tuple[LoopPiece, ...]
    radius: float


def build_loops(values) -> tuple[LoopSpec, ...]:
    """One loop per critical value, all sharing a single exclusion radius.

    The radius is 0.45 of the smallest of: pairwise value distances, value
    distances to the unit circle, value distances to the base point 0.  Every
    loop therefore clears every other value by more than the radius.  A NaN
    or infinite value raises InputError before any comparison.  Two values
    that critical_data counts as one (critical._value_links), a value
    within _ROOT_TOL of 0 (where a value counts as 0) or one within
    _CLUSTER_TOL of the circle raise GeometryFailure.  A loop's outward leg
    is the chords from 0 to the entry point v - r v/|v| (with one arc of
    radius r round each value in the corridor), and its circle is the
    circle about v as two half-turn arcs through the entry point; every
    piece must keep 0.9 r from every other value, or GeometryFailure.
    """
    vals = [_finite("critical value", v) for v in values]
    if not vals:
        raise GeometryFailure("no critical values; nothing to loop around")
    points = np.array(vals)
    coincide = np.argwhere(np.triu(_value_links(points), 1))
    if len(coincide):
        i, j = coincide[0].tolist()
        raise GeometryFailure(
            f"critical values {vals[i]} and {vals[j]} coincide; "
            "cluster before building loops"
        )
    moduli = np.abs(points)
    base, rim = float(moduli.min()), float((1.0 - moduli).min())
    if base <= _ROOT_TOL or rim <= _CLUSTER_TOL:
        raise GeometryFailure(
            "a critical value sits at the base point or on the circle; "
            "normalize the product first"
        )
    gaps = np.abs(points[:, None] - points)[np.triu_indices(len(vals), 1)]
    r = 0.45 * min(float(gaps.min(initial=math.inf)), base, rim)

    loops = []
    for v in vals:
        others = [w for w in vals if w != v]
        u = v / abs(v)
        reach = abs(v) - r
        blockers = []
        for w in others:
            along = (u.conjugate() * w).real
            perp = (u.conjugate() * w).imag
            if 0.0 < along < reach and abs(perp) < r:
                blockers.append((along, perp, w))
        blockers.sort(key=lambda t: t[0])
        outward = []
        here = 0j
        for along, perp, w in blockers:
            half = math.sqrt(r * r - perp * perp)
            p1 = (along - half) * u
            p2 = (along + half) * u
            sweep = math.remainder(cmath.phase(p2 - w) - cmath.phase(p1 - w), TAU)
            outward.append(LoopPiece(here, p1))
            outward.append(LoopPiece(p1, p2, w, sweep))
            here = p2
        e = v - r * u
        outward.append(LoopPiece(here, e))
        outward = tuple(p for p in outward if p.start != p.end)

        opposite = v + (v - e)
        circle = (LoopPiece(e, opposite, v, math.pi), LoopPiece(opposite, e, v, math.pi))
        for piece in outward + circle:
            for w in others:
                if piece.distance(w) < 0.9 * r:
                    raise GeometryFailure(
                        f"loop for {v} passes within {piece.distance(w):.3e} of {w}"
                    )
        loops.append(LoopSpec(v, outward, circle, r))
    return tuple(loops)


def _where(target: complex, start, leg: str) -> str:
    label = "" if start is None else f"start label {complex(start):.6f}, "
    return f"; loop around critical value {target:.6f}, {label}{leg} piece"


def _schedule(
    target: complex, pieces, values, leg: str
) -> tuple[np.ndarray, np.ndarray]:
    """The tracker steps along the pieces under the step rule of the module
    docstring, rho the distance to the nearest of values: (steps x 2) gamma
    from and to, and each step's corrector bound, rho / 1000, or
    min(1e-12, rho / 1000) at the last step, whose end is the only point a
    caller compares or returns.  A piece of length zero takes no step; with
    no values a piece takes one.  target and leg name the loop and the leg
    in a TrackingFailure."""
    steps, bounds = [], []
    for piece in pieces:
        length = piece.length
        if not length:
            continue
        s, g0 = 0.0, piece.start
        while s < 1.0:
            rho = min((abs(g0 - v) for v in values), default=math.inf)
            reach = _STEP * rho
            t = 1.0 if reach >= (1.0 - s) * length else s + reach / length
            if t == s:
                raise TrackingFailure(
                    f"piece meets a critical value at gamma={g0:.6f}"
                    f"{_where(target, None, leg)}"
                )
            s, g1 = t, piece.at(t)
            steps.append((g0, g1))
            bounds.append(rho / 1000.0)
            g0 = g1
    if bounds:
        bounds[-1] = min(1e-12, bounds[-1])
    return np.array(steps, dtype=complex).reshape(-1, 2), np.array(bounds)


def _track(B: BlaschkeProduct, legs, values, leg: str, labels, z, d):
    """Lift every (loop, label) row along its loop's leg, all rows in
    lock-step.  legs holds one (target, pieces) pair per loop, values the
    critical values that size the steps, and leg names the leg in a
    TrackingFailure; z and d are (loops x labels) arrays of the start points
    and B' there, and the end points and B' there come back in the same
    shape.

    Each leg's step schedule is built once (_schedule) and every row of
    its loop follows it, each step's bound raised to _ROUNDING * n * eps *
    |gamma| where it lies below.  One Newton pass reads B and B' at every
    row still correcting off one BlaschkeProduct._jet call.  With B' = 0 a
    row takes no Newton step.  A row stops correcting once |B - gamma| <=
    its step's bound, so a NaN row never does: it fails at once when B or
    B' is not finite, and any row fails after 10 iterations.  The first
    failing row in (loop, label) order at the earliest failing step raises
    TrackingFailure naming |B - gamma|, gamma, the loop's value, the start
    label and the leg.  A denominator at or below _ROOT_TOL raises
    PoleProximity (_jet's guard).
    """
    n = len(labels)
    plans = [_schedule(target, pieces, values, leg) for target, pieces in legs]
    count = np.array([len(close) for _, close in plans], dtype=int)
    depth = int(count.max(initial=0))
    # step k of loop l corrects from gamma[l, k, 0] to gamma[l, k, 1];
    # a loop with fewer steps is padded, and its rows sit those steps out
    gamma = np.zeros((len(legs), depth, 2), dtype=complex)
    bound = np.zeros((len(legs), depth))
    for l, (steps, close) in enumerate(plans):
        gamma[l, : len(close)] = steps
        bound[l, : len(close)] = close
    rounding = _ROUNDING * B.degree * np.finfo(float).eps * np.abs(gamma[..., 1])
    bound = np.maximum(bound, rounding)
    z = np.array(z, dtype=complex).reshape(-1)
    d = np.array(d, dtype=complex).reshape(-1)
    row_loop = np.repeat(np.arange(len(legs)), n)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(depth):
            at = np.flatnonzero(count[row_loop] > k)  # the rows correcting
            loop_of = row_loop[at]
            target, close = gamma[loop_of, k, 1], bound[loop_of, k]
            # so the first Newton step is the Euler predictor
            f = gamma[loop_of, k, 0] - target
            zl, dl = z[at], d[at]
            failed = []
            for _ in range(10):
                zl = zl - np.divide(f, dl, out=np.zeros_like(f), where=dl != 0)
                value, dl = B._jet(zl)
                f = value - target
                z[at], d[at] = zl, dl
                # written so that a NaN row never settles; B' is B times a
                # sum, so it is not finite when B is not
                unsettled = ~(np.abs(f) <= close)
                if not unsettled.any():
                    break
                broken = unsettled & ~np.isfinite(dl)
                failed += [
                    (r, e, g, ", B or B' not finite")
                    for r, e, g in zip(at[broken], f[broken], target[broken])
                ]
                keep = unsettled & ~broken
                at, zl, dl, f, target, close = (
                    x[keep] for x in (at, zl, dl, f, target, close)
                )
                if not at.size:
                    break
            else:
                failed += [(r, e, g, "") for r, e, g in zip(at, f, target)]
            if failed:
                r, e, g, note = min(failed, key=lambda row: row[0])
                raise TrackingFailure(
                    f"corrector left |B - gamma|={abs(e):.3e} at gamma={g:.6f}{note}"
                    f"{_where(legs[r // n][0], labels[r % n], leg)}"
                )
    return z.reshape(len(legs), n), d.reshape(len(legs), n)


@dataclass(frozen=True)
class MonodromyResult:
    labels: tuple[complex, ...]
    loops: tuple[LoopSpec, ...]
    generators: tuple[Permutation, ...]
    group: PermutationGroup


def _ramification_type(cd: CriticalData, k: int, n: int) -> tuple[int, ...]:
    """The cycle type Riemann-Hurwitz forces on the loop around the k-th
    distinct critical value: one (m+1)-cycle per distinct critical point of
    multiplicity m in that value's cluster, fixed points for the rest of
    the fiber.  Lengths summing past n mean no loop can match."""
    pairs = zip(cd.points_in_disk, cd.cluster_index)
    multiplicity = Counter(p for p, c in pairs if c == k)
    cycles = sorted((m + 1 for m in multiplicity.values()), reverse=True)
    return tuple(cycles + [1] * (n - sum(cycles)))


def monodromy_group(
    B: BlaschkeProduct,
    tol: ToleranceConfig | None = None,
) -> MonodromyResult:
    """Generators and group of the branch permutations over the base point 0.

    Requires a product whose fiber over 0 is the zero set with all zeros
    simple (0 a regular value); normalize first otherwise.  Branch labels are
    the zeros sorted by (argument, modulus); one generator per entry of
    critical_data's distinct_values, in that order.  Each generator must
    have the cycle type Riemann-Hurwitz gives for the critical points
    clustered at its value, or VerificationFailure: a loop round several
    values that critical_data merged fails this check.  The generators taken
    in the order of their values' arguments, the first applied first, must
    compose to an n-cycle, the lift of a loop round the circle (see the
    module docstring), or VerificationFailure naming the cycle type; the
    group is generated by the generators and that n-cycle, appended last.

    Each generator is read as out^-1 o arc o out (see the module
    docstring), from two tracker calls over all loops at once, every row
    (loop, label) following its loop's step schedule in lock-step: the
    outward leg is lifted from every label to points q_i over the loop's
    entry point e, which must be pairwise more than _CLUSTER_TOL apart
    (else NonBijective, naming the outward piece); then the two arcs of
    the circle are lifted from every q_i, and each arc end must satisfy
    |B(end) - e| <= min(1e-10, r / 10), r the loop radius (else
    TrackingFailure), and lie within a tenth of the smallest gap between
    the q of some q_j (else NonBijective, naming the arc piece), and j is
    the image of label i.  The start slopes come from one derivative call
    over the labels, where B' is exact although B'/B has a pole (see
    BlaschkeProduct._jet).  The outward leg of every loop is lifted before
    any outward ends are compared, and the circle of every loop before any
    generator is read, so a TrackingFailure on one loop can come before the
    refusal an earlier loop would give.

    The result is kept on the product object (core._kept), so asking the
    same product again, as cross_validate does, tracks no branch; a refusal
    is not kept and is raised again on every call.  tol is accepted, not
    read, and not part of the key.
    """
    return _monodromy_group(B)


@_kept
def _monodromy_group(B: BlaschkeProduct) -> MonodromyResult:
    """monodromy_group's body, kept on the product."""
    n = B.degree
    if not _zeros_separated(B):
        raise DegenerateInput(
            "zeros must be simple and separated for branch labeling; "
            "normalize the product first"
        )
    labels = tuple(sorted(B.zeros, key=lambda z: (cmath.phase(z), abs(z))))

    cd = critical_data(B)
    # a degree-1 product has no critical value: no loops, the trivial group
    loops = build_loops([v for v, _ in cd.distinct_values]) if cd.values else ()

    values = tuple(loop.target for loop in loops)
    # out: every label to its point over each loop's entry point, the start
    # slopes taken once per label
    shape = (len(loops), n)
    starts = np.broadcast_to(labels, shape)
    slopes = np.broadcast_to(B.derivative(np.array(labels)), shape)
    outward = [(loop.target, loop.outward) for loop in loops]
    over_entry, slope = _track(B, outward, values, "outward", labels, starts, slopes)
    match_tol = []
    for loop, ends in zip(loops, over_entry):
        apart = np.abs(ends[:, None] - ends)
        apart[np.diag_indices(n)] = math.inf
        i, k = sorted(map(int, np.unravel_index(np.argmin(apart), apart.shape)))
        if apart[i, k] <= _CLUSTER_TOL:
            raise NonBijective(
                f"outward lifts of labels {i} and {k} both reach "
                f"{ends[i]:.6f}{_where(loop.target, labels[k], 'outward')}"
            )
        match_tol.append(float(apart[i, k]) / 10.0)
    # arc, then out^-1: the arc end over the entry point names the label
    # whose outward lift reaches it
    circles = [(loop.target, loop.circle) for loop in loops]
    arc_ends, _ = _track(B, circles, values, "arc", labels, over_entry, slope)
    entries = [loop.circle[0].start for loop in loops]
    residuals = np.abs(B.evaluate(arc_ends) - np.array(entries)[:, None])
    generators = []
    for loop, ends, lifted, near, residual in zip(
        loops, over_entry, arc_ends, match_tol, residuals
    ):
        dists = np.abs(lifted[:, None] - ends)
        images = np.argmin(dists, axis=1)
        for z0, end, res, j, row in zip(labels, lifted, residual, images, dists):
            if not res <= min(1e-10, loop.radius / 10.0):
                raise TrackingFailure(
                    f"lifted endpoint is not in the fiber over the entry point: "
                    f"|B(end) - e|={res:.3e}{_where(loop.target, z0, 'arc')}"
                )
            if not row[j] <= near:
                raise NonBijective(
                    f"endpoint {end:.6f} matches no outward end within "
                    f"{near:.3e}{_where(loop.target, z0, 'arc')}"
                )
        images = images.tolist()
        if sorted(images) != list(range(n)):
            i = next(i for i, j in enumerate(images) if j in images[:i])
            raise NonBijective(
                f"loop around {loop.target:.6f} did not permute: branches "
                f"{images.index(images[i])} and {i} both end at label "
                f"{images[i]}{_where(loop.target, labels[i], 'arc')}"
            )
        generator = Permutation(tuple(images))
        expected = _ramification_type(cd, len(generators), n)
        if generator.cycle_type() != expected:
            raise VerificationFailure(
                f"Riemann-Hurwitz: the loop around critical value "
                f"{loop.target:.6e} gives cycle type {generator.cycle_type()}, "
                f"but its critical points give {expected}"
            )
        generators.append(generator)

    boundary = _boundary(loops, generators, n)
    if boundary.cycle_type() != (n,):
        raise VerificationFailure(
            f"the loops round the critical values compose to cycle type "
            f"{boundary.cycle_type()}, not the {n}-cycle of a loop round the "
            "circle"
        )
    generators = tuple(generators)
    group = PermutationGroup(generators + (boundary,), n)
    return MonodromyResult(labels, loops, generators, group)


def _boundary(loops, generators, n: int) -> Permutation:
    """The generators composed in the order of their loops' values'
    arguments, the first applied first: the lift of a loop round the
    circle."""
    product = Permutation.identity(n)
    for k in sorted(range(len(loops)), key=lambda k: cmath.phase(loops[k].target)):
        product = generators[k] * product
    return product


def _long_cycle(G: PermutationGroup) -> tuple[int, ...] | None:
    """The points in the order the first n-cycle among G's generators visits
    them from 0, or None when no generator is an n-cycle."""
    for g in G.generators:
        cycles = g.cycles()
        if len(cycles) == 1:
            return cycles[0]
    return None


def block_systems(G: PermutationGroup) -> tuple[BlockSystem, ...]:
    """Every nontrivial block system of a group with an n-cycle c among its
    generators, by increasing block size.

    c permutes the blocks of a system with m blocks as one m-cycle, so the
    block through c[0] is its orbit under c^m: the blocks are the residue
    classes mod m of the positions along c.  So each proper divisor s of n
    gives one candidate, with block size s and m = n / s classes, and it is
    a system exactly when every generator maps each class into one class.
    A group with no n-cycle generator raises InputError.
    """
    cycle = _long_cycle(G)
    if cycle is None:
        raise InputError(
            "block systems are read off an n-cycle among the generators; "
            "this group has none"
        )
    n = G.degree
    position = np.empty(n, dtype=int)
    position[list(cycle)] = np.arange(n)
    # the position along c of g(c[i]), one row per generator
    along = position[np.array([g.images for g in G.generators])[:, cycle]]
    systems = []
    for s in _proper_divisors(n):
        m = n // s
        classes = (along % m).reshape(len(G.generators), s, m)
        if (classes == classes[:, :1]).all():
            blocks = sorted(tuple(sorted(cycle[r::m])) for r in range(m))
            systems.append(BlockSystem(tuple(blocks)))
    return tuple(systems)


@dataclass(frozen=True)
class WreathAudit:
    levels: int
    order: int
    expected_order: int
    order_ok: bool
    two_group_ok: bool
    nested_sizes: tuple[int, ...]
    nested_ok: bool

    @property
    def ok(self) -> bool:
        return self.order_ok and self.two_group_ok and self.nested_ok


def wreath_audit(G: PermutationGroup, levels: int) -> WreathAudit:
    """Audit G, which must act on 2^levels points (else InputError), against
    the iterated binary wreath shape of height `levels`: order
    2^(2^levels - 1), every element order a power of two, and a nested chain
    of block systems of sizes 2, 4, ..., 2^(levels-1).  The order comes off
    G's stabilizer chain, so no element is listed at any height; a 2-group
    is recognized by its order alone.  The block systems are the residue
    classes along an n-cycle among the generators (block_systems), which
    nest by divisibility, so the chain exists when every size is present;
    a group with no n-cycle generator has none.  A levels that is not an
    integer of at least 1 raises InputError."""
    if _integer(levels, "levels must be an integer") < 1:
        raise InputError("levels must be positive")
    if _tower_height(G.degree) != levels:
        # a height beyond G's bit length is refused before 2^levels is formed
        size = 2**levels if levels <= G.degree.bit_length() else f"2^{levels}"
        raise InputError(
            f"the wreath product of height {levels} acts on {size} points, "
            f"not {G.degree}"
        )
    expected = 2 ** (2**levels - 1)
    order = G.order()
    order_ok = order == expected

    # a finite group is a 2-group exactly when its order is a power of two
    two_group_ok = order & (order - 1) == 0

    wanted = [2**i for i in range(1, levels)]
    systems = block_systems(G) if _long_cycle(G) is not None else ()
    sizes = {s.block_size for s in systems}
    nested_sizes = tuple(size for size in wanted if size in sizes)
    nested_ok = len(nested_sizes) == len(wanted)
    return WreathAudit(
        levels, order, expected, order_ok, two_group_ok, nested_sizes, nested_ok
    )


@dataclass(frozen=True)
class CrossRow:
    k: int
    block_system: bool
    factor_found: bool

    @property
    def agree(self) -> bool:
        return self.block_system == self.factor_found


@dataclass(frozen=True)
class CrossValidation:
    monodromy: MonodromyResult
    systems: tuple[BlockSystem, ...]
    rows: tuple[CrossRow, ...]

    @property
    def consistent(self) -> bool:
        return all(r.agree for r in self.rows)


def cross_validate(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> CrossValidation:
    """Compare block-system existence against direct inner-factor search.

    An inner factor of degree k partitions the branches into blocks of size
    k, and conversely; the agreement matrix over proper divisors of the
    degree checks the two pipelines against each other.  Requires a product
    acceptable to monodromy_group (simple zeros, 0 regular).  The group
    comes from monodromy_group, so after monodromy_group(B) no branch is
    tracked again and cross.monodromy is the same result object.
    """
    from .decompose import _divisor_rows

    mono = monodromy_group(B)
    systems = block_systems(mono.group)
    sizes = {s.block_size for s in systems}
    rows = tuple(CrossRow(r.k, r.k in sizes, r.found) for r in _divisor_rows(B))
    return CrossValidation(mono, systems, rows)
