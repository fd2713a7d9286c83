"""Numerical monodromy of a finite Blaschke product over the disk.

The fiber over the base point 0 is the zero set; a loop in the disk avoiding
the critical values lifts through each zero to a path ending at a (possibly
different) zero, and the induced permutations of the zero labels generate the
monodromy group.  One loop per distinct critical value suffices.

Loops are lollipops built from exact chords and arcs: straight chords from
0 toward the value (with one exact arc round any other critical value
sitting in the corridor), one full counterclockwise circle as two exact
half-turn arcs, and the outward pieces reversed.  Path lifting is unique, so
the reversed pieces lift to the inverse of the outward map: with out taking
the labels to the fiber over the entry point e and arc the permutation of
that fiber the two arcs give, each generator is out^-1 o arc o out.
monodromy_group therefore lifts the outward pieces once per label and the
arcs once per outward end, and no return piece; continue_branch lifts a
whole closed loop.

Lifting is a predictor-corrector tracker on B(z(t)) = gamma(t), one piece
at a time under one step rule: Euler prediction through z' = gamma'/B'(z),
Newton correction to |B(z) - gamma| <= 1e-12, with the step halved whenever
correction labors and grown when it coasts.  The corrector is one-pass: each Newton iteration
takes the residual and the slope from a single product-rule sweep over the
factors, reading each factor's conj(a) and 1 - |a|^2 from the table the
product built once, and the slope at the accepted point doubles as the next
Euler predictor, so a step costs one sweep per iteration and no separate
derivative evaluation.

monodromy_group keeps its last 64 results per (product, tolerances), so
cross_validate after monodromy_group, or the CLI's one cross_validate,
tracks each branch once.

Block systems of the resulting group are the group-respected partitions of
the zero labels; each corresponds to a compositional factorization, which is
what cross_validate checks against the direct factor search.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .core import (
    BlaschkeProduct,
    ToleranceConfig,
    _DisjointSets,
    _tol,
    _zeros_separated,
)
from .critical import CriticalData, critical_data
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
    "continue_branch",
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

    def inverse(self) -> "Permutation":
        return Permutation(_invert(self.images))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

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

    def order(self) -> int:
        return reduce(math.lcm, (len(c) for c in self.cycles()), 1)


class PermutationGroup:
    """Group generated by a list of permutations on range(degree).

    Every group question is read off one stabilizer chain, built by
    deterministic Schreier-Sims on first use and cached (Sims 1970; Seress,
    Permutation Group Algorithms, 2003).  Level i holds a base point b_i, the
    strong generators fixing b_0 .. b_{i-1}, and a transversal: for each point
    p of the basic orbit of b_i, a group element u with u(b_i) = p and its
    inverse.  The order is the product of the basic-orbit sizes, and the
    group is transitive when the first basic orbit holds every point.
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
        return math.prod(len(level[2]) for level in self._chain())

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            (a * b).images == (b * a).images for a in gens for b in gens
        )

    def is_transitive(self) -> bool:
        levels = self._chain()
        orbit = len(levels[0][2]) if levels else 1
        return orbit == self.degree


@dataclass(frozen=True)
class BlockSystem:
    """Partition of the zero labels respected by the group."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @property
    def count(self) -> int:
        return len(self.blocks)

    @staticmethod
    def from_classes(classes: dict) -> "BlockSystem":
        buckets: dict = {}
        for x, root in classes.items():
            buckets.setdefault(root, []).append(x)
        blocks = tuple(
            sorted((tuple(sorted(b)) for b in buckets.values()), key=lambda b: b[0])
        )
        return BlockSystem(blocks)


@dataclass(frozen=True)
class LoopPiece:
    """One piece of a loop, traversed from start (s = 0) to end (s = 1).

    With sweep 0 the piece is the chord from start to end; otherwise it is
    the arc that turns start by sweep about center (counterclockwise when
    sweep > 0, clockwise when sweep < 0), and it ends exactly at the stored
    end, so consecutive pieces join bit-exactly.
    kind says where the piece lies: "outward", "arc" or "return".
    """

    kind: str
    start: complex
    end: complex
    center: complex = 0j
    sweep: float = 0.0

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
    """Closed loop from 0 around one critical value, as a list of pieces.

    The outward pieces run from 0 to the entry point on the circle of the
    given radius about target, with one arc of that radius round each
    bystander value in the way; two exact half-turn arcs go once round the
    circle counterclockwise, ending bit-exactly at the entry point; the
    return pieces are the outward ones reversed.
    """

    target: complex
    pieces: tuple[LoopPiece, ...]
    radius: float

    @property
    def waypoints(self) -> tuple[complex, ...]:
        """The start of the loop and the end point of every piece."""
        return (self.pieces[0].start,) + tuple(p.end for p in self.pieces)


def build_loops(
    values, tol: ToleranceConfig | None = None
) -> tuple[LoopSpec, ...]:
    """One loop per critical value, all sharing a single exclusion radius.

    The radius is 0.45 of the smallest of: pairwise value distances, value
    distances to the unit circle, value distances to the base point 0.  Every
    loop therefore clears every other value by more than the radius.  A loop
    is the outward chords from 0 to the entry point v - r v/|v| (with one arc
    of radius r round each value in the corridor), the circle about v as two
    half-turn arcs through the entry point, and the outward pieces reversed;
    every piece must keep 0.9 r from every other value, or GeometryFailure.
    """
    tol = _tol(tol)
    vals = [complex(v) for v in values]
    if not vals:
        raise GeometryFailure("no critical values; nothing to loop around")
    points = np.array(vals)
    gaps = np.abs(points[:, None] - points)
    gaps[np.diag_indices(len(vals))] = math.inf
    i, j = sorted(map(int, np.unravel_index(np.argmin(gaps), gaps.shape)))
    if gaps[i, j] <= tol.cluster_tol:
        raise GeometryFailure(
            f"critical values {vals[i]} and {vals[j]} coincide; "
            "cluster before building loops"
        )
    moduli = np.abs(points)
    tightest = float(min(gaps[i, j], moduli.min(), (1.0 - moduli).min()))
    if tightest <= tol.cluster_tol:
        raise GeometryFailure(
            "a critical value sits at the base point or on the circle; "
            "normalize the product first"
        )
    r = 0.45 * tightest

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
            outward.append(LoopPiece("outward", here, p1))
            outward.append(LoopPiece("outward", p1, p2, w, sweep))
            here = p2
        e = v - r * u
        outward.append(LoopPiece("outward", here, e))
        outward = [p for p in outward if p.start != p.end]

        opposite = v + (v - e)
        arcs = [
            LoopPiece("arc", e, opposite, v, math.pi),
            LoopPiece("arc", opposite, e, v, math.pi),
        ]
        # the return pieces retrace the outward ones, so need no check
        for piece in outward + arcs:
            for w in others:
                if piece.distance(w) < 0.9 * r:
                    raise GeometryFailure(
                        f"loop for {v} passes within {piece.distance(w):.3e} of {w}"
                    )
        back = [
            LoopPiece("return", p.end, p.start, p.center, -p.sweep)
            for p in reversed(outward)
        ]
        loops.append(LoopSpec(v, tuple(outward + arcs + back), r))
    return tuple(loops)


def _where(loop: LoopSpec, start: complex, kind: str) -> str:
    return (
        f"; loop around critical value {loop.target:.6f}, "
        f"start label {complex(start):.6f}, {kind} piece"
    )


def _lift_piece(jet, piece: LoopPiece, z: complex, d: complex, tol):
    """Lift one piece from the fiber point z, where B'(z) = d; returns the
    lifted end point and B' there.  The only tracker loop (see
    continue_branch for the step rule)."""
    s, ds = 0.0, 0.2
    g0 = piece.start
    while True:
        t = s + ds
        if t >= 1.0 - 1e-15:
            t = 1.0
        g1 = piece.at(t)
        trial = z if abs(d) < 1e-12 else z + (g1 - g0) / d
        for iterations in range(1, 11):
            value, slope = jet(trial, tol)
            f = value - g1
            if abs(f) <= 1e-12 or abs(slope) < 1e-12:
                break
            trial = trial - f / slope
        if abs(trial) > 1.5:
            raise TrackingFailure(
                f"branch escaped the tracking region at |z|={abs(trial):.3f}"
            )
        if abs(f) > 1e-12 or iterations > 5:
            ds = 0.5 * (t - s)
            if ds < 1e-9:
                raise TrackingFailure(f"step underflow near gamma={g0:.6f}")
            continue
        z, d, g0, s = trial, slope, g1, t
        if t == 1.0:
            return z, d
        if iterations <= 3:
            ds = min(1.5 * ds, 0.5)


def _lift(jet, loop: LoopSpec, pieces, start: complex, z: complex, d: complex, tol):
    """Lift pieces in turn from the fiber point z, where B'(z) = d, on the
    branch through the label start; returns the end point and B' there.  A
    TrackingFailure names the loop's value, start and the failing piece."""
    for piece in pieces:
        try:
            z, d = _lift_piece(jet, piece, z, d, tol)
        except TrackingFailure as exc:
            raise TrackingFailure(f"{exc}{_where(loop, start, piece.kind)}") from None
    return z, d


def continue_branch(
    B: BlaschkeProduct,
    loop: LoopSpec,
    start: complex,
    tol: ToleranceConfig | None = None,
) -> complex:
    """Lift the whole closed loop, return pieces included, through the fiber
    point start; returns the endpoint.

    Tracks B(z(t)) = gamma(t) piece by piece with an Euler predictor and a
    Newton corrector (to 1e-12).  Every corrector iteration takes B and B'
    from one pass over the factors (BlaschkeProduct._jet, over the
    product's precomputed factor table), and the slope at the accepted point
    is the next Euler predictor's.  One step rule holds on every piece, chord
    or arc: the step starts at 0.2 of the piece, grows by 1.5 up to 0.5 when
    a step takes at most 3 evaluations, and halves when one takes more than
    5 or does not converge.  Underflow below 1e-9 or escape past |z| = 1.5
    raises TrackingFailure naming the loop's value, start and the piece.
    monodromy_group does not call this: it lifts only the outward pieces and
    the arcs, so this full closed-loop lift is an independent cross-check.
    """
    tol = _tol(tol)
    jet = B._jet
    z = complex(start)
    return _lift(jet, loop, loop.pieces, z, z, jet(z, tol)[1], tol)[0]


@dataclass(frozen=True)
class MonodromyResult:
    labels: tuple[complex, ...]
    loops: tuple[LoopSpec, ...]
    generators: tuple[Permutation, ...]
    group: PermutationGroup


def _ramification_type(cd: CriticalData, k: int, n: int) -> tuple[int, ...]:
    """The cycle type Riemann-Hurwitz forces on the loop around the k-th
    distinct critical value: one (m+1)-cycle per distinct critical point of
    multiplicity m in that value's cluster, fixed points for the rest of the
    fiber.  Lengths summing past n mean no loop can match."""
    multiplicity = Counter(
        p for p, c in zip(cd.points_in_disk, cd.cluster_index) if c == k
    )
    cycles = sorted((m + 1 for m in multiplicity.values()), reverse=True)
    return tuple(cycles + [1] * (n - sum(cycles)))


def monodromy_group(
    B: BlaschkeProduct,
    tol: ToleranceConfig | None = None,
) -> MonodromyResult:
    """Generators and group of the branch permutations over the base point 0.

    Requires a product whose fiber over 0 is the zero set with all zeros
    simple (0 a regular value); normalize first otherwise.  Branch labels are
    the zeros sorted by (argument, modulus); one generator per distinct
    critical value, values in (real, imag) order.  Each generator must have
    the cycle type Riemann-Hurwitz gives for the critical points clustered
    at its value, or VerificationFailure: a loop that encloses several
    values merged by the clustering fails this check.

    Each generator is read as out^-1 o arc o out (see the module
    docstring): the outward pieces are lifted from every label to points
    q_i over the loop's entry point e, which must be pairwise more than
    cluster_tol apart (else NonBijective, naming the outward piece); the
    two arcs are lifted from every q_i, and each arc end must satisfy
    |B(end) - e| <= 1e-10 (else TrackingFailure) and lie within a tenth of
    the smallest gap between the q of some q_j (else NonBijective, naming
    the arc piece), and j is the image of label i.  No return piece is
    lifted.

    The result is kept per (product, tolerances), so asking again for an
    equal product, as cross_validate does, tracks no branch; a refusal is
    not kept and is raised again on every call.
    """
    return _monodromy_group(B, _tol(tol))


@lru_cache(maxsize=64)
def _monodromy_group(B: BlaschkeProduct, tol: ToleranceConfig) -> MonodromyResult:
    """monodromy_group's body, kept per (product, tolerances)."""
    n = B.degree
    if not _zeros_separated(B, tol):
        raise DegenerateInput(
            "zeros must be simple and separated for branch labeling; "
            "normalize the product first"
        )
    labels = tuple(sorted(B.zeros, key=lambda z: (cmath.phase(z), abs(z))))

    cd = critical_data(B, tol)
    values = [v for v, _ in cd.distinct_values]
    # a degree-1 product has no critical value: no loops, the trivial group
    loops = build_loops(values, tol) if values else ()

    jet = B._jet
    generators = []
    for loop in loops:
        outward = [p for p in loop.pieces if p.kind == "outward"]
        arcs = [p for p in loop.pieces if p.kind == "arc"]
        entry = arcs[0].start
        # out: each label to its point over the entry point, with B' there
        over_entry = [
            _lift(jet, loop, outward, z0, z0, jet(z0, tol)[1], tol) for z0 in labels
        ]
        ends = np.array([q for q, _ in over_entry])
        apart = np.abs(ends[:, None] - ends)
        apart[np.diag_indices(n)] = math.inf
        i, k = sorted(map(int, np.unravel_index(np.argmin(apart), apart.shape)))
        if apart[i, k] <= tol.cluster_tol:
            raise NonBijective(
                f"outward lifts of labels {i} and {k} both reach "
                f"{ends[i]:.6f}{_where(loop, labels[k], 'outward')}"
            )
        match_tol = float(apart[i, k]) / 10.0
        # arc, then out^-1: the arc end over the entry point names the label
        # whose outward lift reaches it
        images = []
        for z0, (q, d) in zip(labels, over_entry):
            end, _ = _lift(jet, loop, arcs, z0, q, d, tol)
            residual = abs(B.evaluate(end, tol) - entry)
            if residual > 1e-10:
                raise TrackingFailure(
                    f"lifted endpoint is not in the fiber over the entry point: "
                    f"|B(end) - e|={residual:.3e}{_where(loop, z0, 'arc')}"
                )
            dists = np.abs(ends - end)
            j = int(np.argmin(dists))
            if dists[j] > match_tol:
                raise NonBijective(
                    f"endpoint {end:.6f} matches no outward end within "
                    f"{match_tol:.3e}{_where(loop, z0, 'arc')}"
                )
            images.append(j)
        if sorted(images) != list(range(n)):
            i = next(i for i, j in enumerate(images) if j in images[:i])
            raise NonBijective(
                f"loop around {loop.target:.6f} did not permute: branches "
                f"{images.index(images[i])} and {i} both end at label "
                f"{images[i]}{_where(loop, labels[i], 'arc')}"
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

    return MonodromyResult(
        labels, loops, tuple(generators), PermutationGroup(generators, n)
    )


def _minimal_system(
    gens: tuple[Permutation, ...], n: int, a: int, b: int
) -> BlockSystem:
    """Finest group-congruence identifying a and b (union-find propagation)."""
    sets = _DisjointSets(n)
    stack = [(a, b)]
    sets.union(a, b)
    while stack:
        x, y = stack.pop()
        for g in gens:
            gx, gy = g.images[x], g.images[y]
            if sets.union(gx, gy):
                stack.append((gx, gy))
    return BlockSystem.from_classes({x: sets.find(x) for x in range(n)})


def _join(p: BlockSystem, q: BlockSystem, n: int) -> BlockSystem:
    sets = _DisjointSets(n)
    for system in (p, q):
        for block in system.blocks:
            for x in block[1:]:
                sets.union(block[0], x)
    return BlockSystem.from_classes({x: sets.find(x) for x in range(n)})


def block_systems(G: PermutationGroup) -> tuple[BlockSystem, ...]:
    """Every nontrivial block system of a transitive group.

    Atkinson's propagation gives the minimal system identifying 0 with each
    other point; an arbitrary system is recovered as the join of the minimal
    systems for the pairs inside its 0-block, so closing the minimal set
    under joins enumerates everything.
    """
    if not G.is_transitive():
        raise InputError("block systems are defined for transitive groups only")
    n = G.degree
    found: dict = {}
    for j in range(1, n):
        system = _minimal_system(G.generators, n, 0, j)
        if 1 < system.count < n:
            found.setdefault(system.blocks, system)

    frontier = list(found.values())
    while frontier:
        fresh = []
        for p in frontier:
            for q in list(found.values()):
                joined = _join(p, q, n)
                if 1 < joined.count < n and joined.blocks not in found:
                    found[joined.blocks] = joined
                    fresh.append(joined)
        frontier = fresh

    systems = sorted(found.values(), key=lambda s: (s.block_size, s.blocks))
    for s in systems:
        sizes = {len(b) for b in s.blocks}
        if len(sizes) != 1:
            raise VerificationFailure("uneven blocks from a transitive group")
        block_index = {x: i for i, block in enumerate(s.blocks) for x in block}
        for g in G.generators:
            for block in s.blocks:
                if len({block_index[g.images[x]] for x in block}) != 1:
                    raise VerificationFailure("generator tore a block apart")
    return tuple(systems)


def _refines(p: BlockSystem, q: BlockSystem) -> bool:
    lookup = {}
    for i, block in enumerate(q.blocks):
        for x in block:
            lookup[x] = i
    return all(len({lookup[x] for x in block}) == 1 for block in p.blocks)


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
    """Audit G against the iterated binary wreath shape of height `levels`:
    order 2^(2^levels - 1), every element order a power of two, and a nested
    chain of block systems of sizes 2, 4, ..., 2^(levels-1).  The order comes
    off G's stabilizer chain, so no element is listed at any height; a 2-group
    is recognized by its order alone."""
    if levels < 1:
        raise InputError("levels must be positive")
    expected = 2 ** (2**levels - 1)
    order = G.order()
    order_ok = order == expected

    # a finite group is a 2-group exactly when its order is a power of two
    two_group_ok = order & (order - 1) == 0

    wanted = [2**i for i in range(1, levels)]
    systems = block_systems(G) if G.is_transitive() else ()
    by_size: dict = {}
    for s in systems:
        by_size.setdefault(s.block_size, []).append(s)

    def chain_exists(idx: int, prev: BlockSystem | None) -> bool:
        if idx == len(wanted):
            return True
        for s in by_size.get(wanted[idx], []):
            if prev is None or _refines(prev, s):
                if chain_exists(idx + 1, s):
                    return True
        return False

    nested_ok = chain_exists(0, None)
    nested_sizes = tuple(size for size in wanted if size in by_size)
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
    from .decompose import inner_factor_general

    tol = _tol(tol)
    mono = monodromy_group(B, tol)
    systems = block_systems(mono.group)
    sizes = {s.block_size for s in systems}
    rows = []
    n = B.degree
    for k in range(2, n):
        if n % k == 0:
            result = inner_factor_general(B, k, tol)
            rows.append(CrossRow(k, k in sizes, result.found))
    return CrossValidation(mono, systems, tuple(rows))
