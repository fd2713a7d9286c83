import cmath
import dataclasses
import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

import blaschke.cli as cli
import blaschke.monodromy as monodromy
from blaschke import BlaschkeProduct, InputError, compose, normalize
from blaschke.critical import critical_data, fiber
from blaschke.errors import (
    DegenerateInput,
    GeometryFailure,
    NonBijective,
    TrackingFailure,
    VerificationFailure,
)
from blaschke.monodromy import (
    LoopPiece,
    LoopSpec,
    Permutation,
    PermutationGroup,
    block_systems,
    build_loops,
    cross_validate,
    monodromy_group,
    wreath_audit,
)

from conftest import continue_branch, halved_step_images, random_point, random_product, rng_for
from test_decompose import _tower


# -------------------------------------------------------- permutation algebra


def _random_perm(rng, n):
    return Permutation(tuple(int(i) for i in rng.permutation(n)))


def test_product_is_composition():
    rng = rng_for(301)
    for _ in range(10):
        p = _random_perm(rng, 7)
        q = _random_perm(rng, 7)
        pq = p * q
        for x in range(7):
            assert pq(x) == p(q(x))


def test_inverse_and_identity():
    rng = rng_for(302)
    # the inverse images that the stabilizer chain's transversal keeps
    p = _random_perm(rng, 9)
    inverse = Permutation(monodromy._invert(p.images))
    assert p * inverse == inverse * p == Permutation.identity(9)
    assert monodromy._invert(inverse.images) == p.images
    assert Permutation.identity(6).images == tuple(range(6))


def test_cycle_structure():
    p = Permutation((1, 2, 0, 4, 3))
    assert p.cycles() == ((0, 1, 2), (3, 4))
    assert p.cycle_type() == (3, 2)
    assert math.lcm(*p.cycle_type()) == 6
    assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)


def test_non_bijection_rejected():
    with pytest.raises(NonBijective):
        Permutation((0, 0, 1))


def test_group_basics():
    c4 = PermutationGroup([Permutation((1, 2, 3, 0))], 4)
    assert c4.order() == 4
    assert c4.is_abelian()
    assert c4.is_transitive()

    s3 = PermutationGroup([Permutation((1, 0, 2)), Permutation((1, 2, 0))], 3)
    assert s3.order() == 6
    assert not s3.is_abelian()
    assert s3.is_transitive()


def test_group_rejects_degree_mismatch():
    with pytest.raises(InputError):
        PermutationGroup([Permutation((1, 0))], 3)


def test_single_transposition_not_transitive():
    g = PermutationGroup([Permutation((1, 0, 2, 3))], 4)
    assert not g.is_transitive()


# ------------------------------------------------- block systems vs brute force


def _equal_partitions(n, size):
    """Every partition of range(n) into blocks of the given size."""

    def rec(remaining):
        if not remaining:
            yield []
            return
        head = remaining[0]
        for rest in itertools.combinations(remaining[1:], size - 1):
            block = frozenset((head, *rest))
            left = [x for x in remaining if x not in block]
            for tail in rec(left):
                yield [block] + tail

    return rec(list(range(n)))


def _brute_systems(generators, n):
    out = set()
    for size in range(2, n):
        if n % size:
            continue
        for part in _equal_partitions(n, size):
            table = set(part)
            if all(
                frozenset(g(x) for x in b) in table
                for g in generators
                for b in part
            ):
                out.add(frozenset(table))
    return out


def _as_sets(systems):
    return {frozenset(frozenset(b) for b in s.blocks) for s in systems}


def _ordered_product(gens):
    """The generators composed with the first applied first."""
    product = Permutation.identity(len(gens[0].images))
    for g in gens:
        product = g * product
    return product


def _random_cycle(rng, n):
    """An n-cycle through the points in a random order."""
    order = [int(i) for i in rng.permutation(n)]
    images = [0] * n
    for i, x in enumerate(order):
        images[x] = order[(i + 1) % n]
    return tuple(images)


# leaf swaps and branch swaps on a depth-3 binary tree: W3 on 8 points
W3 = [
    Permutation((1, 0, 2, 3, 4, 5, 6, 7)),
    Permutation((2, 3, 0, 1, 4, 5, 6, 7)),
    Permutation((4, 5, 6, 7, 0, 1, 2, 3)),
]


@pytest.mark.parametrize(
    "gens,n",
    [
        ([(1, 2, 3, 0)], 4),
        ([(1, 2, 3, 0), (0, 3, 2, 1)], 4),
        ([(1, 0, 2, 3), (1, 2, 3, 0)], 4),
        ([(1, 2, 3, 4, 5, 0)], 6),
        ([(1, 2, 3, 4, 5, 6, 7, 0)], 8),
        # a random n-cycle labels the residue classes out of order; the
        # permutation drawn with seed 445 keeps one system of the 8-cycle,
        # the one with seed 363 none of the 6-cycle's
        ([_random_cycle(rng_for(360), 8), _random_perm(rng_for(445), 8).images], 8),
        ([_random_cycle(rng_for(362), 6), _random_perm(rng_for(363), 6).images], 6),
        ([g.images for g in W3] + [_ordered_product(W3).images], 8),
    ],
    ids=["c4", "d4", "s4", "c6", "c8", "random8", "random6", "w3"],
)
def test_block_systems_match_brute_force(gens, n):
    perms = [Permutation(g) for g in gens]
    G = PermutationGroup(perms, n)
    assert G.is_transitive()
    assert _as_sets(block_systems(G)) == _brute_systems(perms, n)


@pytest.mark.parametrize(
    "gens,n",
    [
        ([(1, 0, 3, 2), (2, 3, 0, 1)], 4),
        # the regular action of C2 x C2 x C2, x -> x xor 1, 2 and 4
        ([tuple(x ^ m for x in range(8)) for m in (1, 2, 4)], 8),
    ],
    ids=["klein", "c2cubed"],
)
def test_block_systems_need_an_n_cycle_generator(gens, n):
    # transitive, but no element is an n-cycle to read the systems off
    G = PermutationGroup([Permutation(g) for g in gens], n)
    assert G.is_transitive()
    with pytest.raises(InputError, match="n-cycle"):
        block_systems(G)


def test_four_cycle_has_the_diagonal_system():
    G = PermutationGroup([Permutation((1, 2, 3, 0))], 4)
    (sys,) = block_systems(G)
    assert sys.blocks == ((0, 2), (1, 3))
    assert sys.block_size == 2 and len(sys.blocks) == 2


def test_symmetric_group_is_primitive():
    G = PermutationGroup([Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))], 4)
    assert block_systems(G) == ()


def test_boundary_cycle_is_a_verification_failure(monkeypatch, capsys):
    """Loops that do not compose to an n-cycle round the circle are a failed
    certificate on a computed result (exit 4), not bad input."""
    # B and the CLI's product are built here, so no result kept from an
    # earlier call skips the composition
    monkeypatch.setattr(
        monodromy, "_boundary", lambda loops, gens, n: Permutation.identity(n)
    )
    B = normalize(cli.demo_corpus()["power8"]).product
    with pytest.raises(VerificationFailure, match=r"cycle type \(1, 1, 1, 1, 1"):
        monodromy_group(B)
    assert cli.main(["monodromy", "--demo", "power8"]) == 4
    err = capsys.readouterr().err
    assert "verification failure: the loops round the critical values" in err
    assert "not the 8-cycle of a loop round the circle" in err


# ---------------------------------------------------------------- wreath audit


def test_wreath_audit_height_two():
    # leaf swap and branch swap on a depth-2 binary tree, and their product,
    # a 4-cycle in the group they generate
    gens = [Permutation((1, 0, 2, 3)), Permutation((2, 3, 0, 1))]
    boundary = _ordered_product(gens)
    assert boundary.cycle_type() == (4,)
    G = PermutationGroup(gens + [boundary], 4)
    audit = wreath_audit(G, 2)
    assert G.order() == 8
    assert audit.ok
    assert audit.order == audit.expected_order == 8
    assert audit.nested_sizes == (2,)


def test_wreath_audit_height_three():
    gens = W3
    boundary = _ordered_product(gens)
    assert boundary.cycle_type() == (8,)
    G = PermutationGroup(gens + [boundary], 8)
    # independent closure count, so the audit is not grading its own homework
    seen = {tuple(range(8))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = tuple(g.images[j] for j in e)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    assert len(seen) == 128

    audit = wreath_audit(G, 3)
    assert audit.ok
    assert audit.order == 128
    assert audit.nested_sizes == (2, 4)


def test_wreath_audit_rejects_plain_cycle():
    G = PermutationGroup([Permutation((1, 2, 3, 4, 5, 6, 7, 0))], 8)
    audit = wreath_audit(G, 3)
    assert not audit.order_ok
    assert not audit.ok
    assert audit.two_group_ok


def test_wreath_audit_height_one_and_bad_levels():
    G = PermutationGroup([Permutation((1, 0))], 2)
    assert wreath_audit(G, 1).ok
    with pytest.raises(InputError):
        wreath_audit(G, 0)


def test_wreath_audit_levels_must_be_an_integer():
    G = PermutationGroup([Permutation((1, 2, 3, 0))], 4)
    with pytest.raises(InputError, match="levels must be an integer, got 2.0"):
        wreath_audit(G, 2.0)
    assert wreath_audit(G, np.int64(2)) == wreath_audit(G, 2)


def test_wreath_audit_needs_2_to_the_levels_points():
    # C8 on 8 points is not W2, which acts on 4
    G = PermutationGroup([Permutation((1, 2, 3, 4, 5, 6, 7, 0))], 8)
    with pytest.raises(InputError, match="acts on 4 points, not 8"):
        wreath_audit(G, 2)


def test_wreath_audit_refuses_a_huge_height_before_forming_its_power():
    # 2^(10^8) has thirty million digits: forming it took 0.7 s, and
    # printing it in the message raised ValueError
    G = PermutationGroup([Permutation((1, 2, 3, 4, 5, 6, 7, 0))], 8)
    start = time.perf_counter()
    huge = r"height 100000000 acts on 2\^100000000 points, not 8"
    with pytest.raises(InputError, match=huge):
        wreath_audit(G, 10**8)
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------- loop routing


def _waypoints(loop):
    """The start of the outward leg and the end of every piece of the loop."""
    pieces = loop.outward + loop.circle
    return (pieces[0].start,) + tuple(p.end for p in pieces)


def test_single_value_loop_geometry():
    (loop,) = build_loops([0.3 + 0j])
    pts = _waypoints(loop)
    assert pts[0] == 0j and pts[-1] == loop.circle[0].start
    assert all(abs(p) < 1.0 for p in pts)
    assert loop.radius <= 0.45 * 0.3 + 1e-12
    # the circular part sits exactly at the exclusion radius
    assert min(abs(p - 0.3) for p in pts if p != 0) == pytest.approx(loop.radius)


def test_collinear_values_force_a_detour():
    near, far = 0.25 + 0j, 0.55 + 0j
    loops = build_loops([near, far])
    by_target = {loop.target: loop for loop in loops}
    r = loops[0].radius
    for p in _waypoints(by_target[far]):
        assert abs(p - near) >= 0.9 * r - 1e-12
    for p in _waypoints(by_target[near]):
        assert abs(p - far) >= 0.9 * r - 1e-12


def _piece_samples(piece, count=64):
    return [piece.at(k / count) for k in range(count + 1)]


@pytest.mark.parametrize(
    "vals",
    [
        [0.3 + 0j],
        [0.25 + 0j, 0.55 + 0j],
        [0.2 + 0.05j, 0.5 + 0.1j, 0.75 + 0.2j],
        [0.3, -0.2 + 0.4j, 0.1 - 0.5j],
        # the detour of the loop round 0.55 turns counterclockwise, then
        # clockwise
        [0.25 + 0.02j, 0.55 + 0j],
        [0.25 - 0.02j, 0.55 + 0j],
    ],
)
def test_loop_pieces_join_and_keep_their_clearance(vals):
    for loop in build_loops(vals):
        v, r, outward = loop.target, loop.radius, loop.outward
        pieces = outward + loop.circle
        assert pieces[0].start == 0j and len(loop.circle) == 2
        for before, after in zip(pieces, pieces[1:]):
            assert before.end == after.start
        # one arc of radius r round each value in the corridor, from where
        # the chord enters that circle to exactly where it leaves it
        u = v / abs(v)
        detours = [p for p in outward if p.sweep]
        for w in sorted(map(complex, vals), key=lambda w: (u.conjugate() * w).real):
            along, perp = (u.conjugate() * w).real, (u.conjugate() * w).imag
            if w == v or not (0.0 < along < abs(v) - r and abs(perp) < r):
                continue
            arc = detours.pop(0)
            half = math.sqrt(r * r - perp * perp)
            assert arc.center == w
            assert arc.start == (along - half) * u and arc.end == (along + half) * u
            assert arc.at(1.0) == arc.end
            assert 0.0 < abs(arc.sweep) <= math.pi
            for z in _piece_samples(arc):
                assert abs(z - w) == pytest.approx(r, rel=1e-12)
        assert detours == []
        first, second = loop.circle
        entry = first.start
        assert first.sweep == second.sweep == math.pi
        assert second.end == entry and second.at(1.0) == entry
        assert abs(entry - v) == pytest.approx(r, rel=1e-14)
        for arc in (first, second):
            for z in _piece_samples(arc):
                assert abs(z - v) == pytest.approx(r, rel=1e-14)
        # the two arcs go once round v counterclockwise
        turn = sum(
            cmath.phase((b - v) / (a - v))
            for arc in (first, second)
            for a, b in itertools.pairwise(_piece_samples(arc))
        )
        assert turn == pytest.approx(2 * math.pi)
        for w in vals:
            if complex(w) != v:
                for piece in pieces:
                    gap = min(abs(z - w) for z in _piece_samples(piece))
                    assert gap >= 0.9 * r
                    assert piece.distance(w) == pytest.approx(gap, abs=r * 2e-3)


@pytest.mark.parametrize("sweep", [-2.9, -1.2, -0.3, 0.3, 1.2, 2.9])
def test_arc_distance_follows_the_sense_of_the_turn(sweep):
    center, start = 0.1 - 0.2j, 0.35 + 0.05j
    end = center + (start - center) * cmath.exp(1j * sweep)
    arc = LoopPiece(start, end, center, sweep)
    samples = [arc.at(k / 4000) for k in range(4001)]
    rng = rng_for(331)
    for _ in range(200):
        w = center + 0.6 * complex(*rng.uniform(-1.0, 1.0, 2))
        gap = min(abs(z - w) for z in samples)
        assert arc.distance(w) == pytest.approx(gap, abs=2e-4)


def test_loop_count_matches_value_count():
    vals = [0.3, -0.2 + 0.4j, 0.1 - 0.5j]
    assert len(build_loops(vals)) == 3


def test_loop_rejects_bad_value_sets():
    with pytest.raises(GeometryFailure):
        build_loops([])
    with pytest.raises(GeometryFailure):
        build_loops([0.3, 0.3 + 1e-12])
    with pytest.raises(GeometryFailure):
        build_loops([1e-12 + 0j])
    with pytest.raises(GeometryFailure):
        build_loops([0.999999999 + 0j])
    # every comparison with NaN is False, so no geometry test would see one
    for bad in (math.nan, complex(0.3, math.inf)):
        with pytest.raises(InputError, match="critical value .* is not finite"):
            build_loops([0.3 + 0.1j, bad])


# ----------------------------------------------------------------- continuation


def _two_value_chain():
    inner = BlaschkeProduct(-1.0, (0j, -0.22 + 0.4j))
    outer = BlaschkeProduct(-1.0, (0j, 0.31 + 0.12j))
    return normalize(compose(outer, inner)).product


def test_null_loop_is_the_identity():
    from blaschke.critical import critical_data

    B = _two_value_chain()
    r = 0.4 * min(abs(v) for v, _ in critical_data(B).distinct_values)
    # out to r, once round the circle of radius r about the regular value 0,
    # and back
    circle = (
        LoopPiece(r + 0j, -r + 0j, 0j, cmath.pi),
        LoopPiece(-r + 0j, r + 0j, 0j, cmath.pi),
    )
    loop = LoopSpec(0j, (LoopPiece(0j, r + 0j),), circle, r)
    for z0 in B.zeros:
        end = continue_branch(B, loop, z0)
        assert abs(end - z0) < 1e-8


def test_tracker_takes_value_and_slope_from_one_pass(monkeypatch):
    # the corrector reads B and B' off one factored pass, never the
    # separate scalar evaluate and derivative
    B = _two_value_chain()
    loop = monodromy_group(B).loops[0]
    expected = [continue_branch(B, loop, z0) for z0 in B.zeros]

    def forbidden(self, z):
        raise AssertionError("separate scalar evaluation in the tracker")

    monkeypatch.setattr(BlaschkeProduct, "evaluate", forbidden)
    monkeypatch.setattr(BlaschkeProduct, "derivative", forbidden)
    assert [continue_branch(B, loop, z0) for z0 in B.zeros] == expected
    assert any(abs(end - z0) > 1e-3 for end, z0 in zip(expected, B.zeros))


def test_tracker_step_budget_on_a_degree_8_tower(monkeypatch):
    # one step rule over a few long pieces takes about 840 evaluations of B
    # for these 24 lifts (1600 when every step corrected to 1e-12); a
    # circle of 24 chords, each restarting the step, took about 8800.  Every
    # evaluation, the start slope included, is a point of a _jet call.
    B = normalize(_tower(rng_for(2034), 3)).product
    mono = monodromy_group(B)
    rows = []
    jet = BlaschkeProduct._jet

    def counted(self, z, **kwargs):
        rows.append(np.size(z))
        return jet(self, z, **kwargs)

    monkeypatch.setattr(BlaschkeProduct, "_jet", counted)
    for loop in mono.loops:
        for z0 in mono.labels:
            continue_branch(B, loop, z0)
    assert len(mono.loops) * len(mono.labels) == 24
    assert 0 < sum(rows) < 4000


def _track_one(B, pieces, values, z, d):
    """The tracker's end point and B' there, on one row through the pieces,
    its steps sized by values."""
    legs = [(pieces[-1].end, pieces)]
    end, slope = monodromy._track(B, legs, values, "outward", (z,), [[z]], [[d]])
    return complex(end[0, 0]), complex(slope[0, 0])


def test_tracker_refuses_where_it_cannot_step():
    # B(z) = z (z - 0.5)/(1 - 0.5 z) has one critical point c in the disk
    B = BlaschkeProduct(1.0, (0j, 0.5 + 0j))
    (c,) = critical_data(B).points_in_disk
    v, d = B._jet(c)
    assert d == 0
    z, w = 0.1 + 0j, B.evaluate(0.1)
    slope = B._jet(z)[1]
    # a piece of length zero leaves the point where it is
    point = LoopPiece(w, w)
    assert _track_one(B, (point,), (v,), z, slope) == (z, slope)
    # from the critical point, where B' = 0, there is no Newton step
    chord = LoopPiece(v, 0.2 + 0j)
    with pytest.raises(TrackingFailure, match="corrector left"):
        _track_one(B, (chord,), (), c, d)
    # steps toward a value on the piece shrink until they stop advancing
    through = LoopPiece(w, 2 * v - w)
    with pytest.raises(TrackingFailure, match="piece meets a critical value"):
        _track_one(B, (through,), (v,), z, slope)


def test_corrector_bound_is_floored_at_the_rounding_of_B():
    # a value 1e-15 from the start of a chord at gamma = 0.3 gives the
    # first steps bounds rho / 1000 from 1e-17, below one float spacing
    # there (5.6e-17); unfloored, the corrector stops at |B - gamma| =
    # 5.551e-17 on the first step and raises TrackingFailure
    B = BlaschkeProduct(1.0, (0j, 0.5 + 0j))
    z = complex(fiber(B, 0.3)[0])
    g0 = complex(B.evaluate(z))
    chord, values = LoopPiece(g0, g0 + 0.1), (g0 - 1e-15,)
    floor = monodromy._ROUNDING * B.degree * np.finfo(float).eps * 0.3
    _, bounds = monodromy._schedule(chord.end, (chord,), values, "outward")
    assert bounds[0] < 5.551e-17 < floor
    end, _ = _track_one(B, (chord,), values, z, B._jet(z)[1])
    # the same branch as one unfloored step from z, with no value nearby
    alone, _ = _track_one(B, (chord,), (), z, B._jet(z)[1])
    assert abs(end - alone) < 1e-12
    assert abs(B.evaluate(end) - chord.end) <= 1e-12


def test_tracker_failures_name_the_loop_the_label_and_the_piece(monkeypatch):
    # steps of 4 times the distance to the nearest critical value leave
    # the disk on which the branch is analytic, and on this seeded degree-7
    # product the corrector then misses its bound in 10 iterations
    refused = normalize(random_product(rng_for(2027), 7)).product
    with monkeypatch.context() as patch:
        patch.setattr(monodromy, "_STEP", 4.0)
        with pytest.raises(TrackingFailure) as info:
            monodromy_group(refused)
    message = str(info.value)
    assert message.startswith("corrector left |B - gamma|=1.378e-03 at gamma=")
    assert "loop around critical value " in message
    assert "start label " in message
    assert message.endswith(" outward piece")

    # every arc ends on the outward end of the first label: the loop does
    # not permute
    B = normalize(_tower(rng_for(2036), 2)).product
    labels = sorted(B.zeros, key=lambda z: (cmath.phase(z), abs(z)))
    values = [v for v, _ in critical_data(B).distinct_values]
    slope = B._jet(labels[0])[1]
    first_end = {
        loop.target: _track_one(B, loop.outward, values, labels[0], slope)[0]
        for loop in build_loops(values)
    }
    track = monodromy._track

    def onto_first(B, legs, values, leg, labels, z, d):
        if leg == "arc":
            ends = [[first_end[target]] * len(labels) for target, _ in legs]
            return np.array(ends), d
        return track(B, legs, values, leg, labels, z, d)

    monkeypatch.setattr(monodromy, "_track", onto_first)
    with pytest.raises(NonBijective) as info:
        monodromy_group(B)
    message = str(info.value)
    assert "did not permute: branches 0 and 1 both end at label 0" in message
    assert f"start label {labels[1]:.6f}, arc piece" in message


def test_colliding_outward_lifts_are_not_injective(monkeypatch):
    # every branch's outward lift is forced onto the first branch's, so two
    # labels reach one point over the entry point
    B = normalize(_tower(rng_for(2037), 2)).product
    labels = sorted(B.zeros, key=lambda z: (cmath.phase(z), abs(z)))
    track = monodromy._track

    def collide(B, legs, values, leg, labels, z, d):
        ends, slopes = track(B, legs, values, leg, labels, z, d)
        if leg == "outward":
            ends = np.repeat(ends[:, :1], len(labels), axis=1)
            slopes = np.repeat(slopes[:, :1], len(labels), axis=1)
        return ends, slopes

    monkeypatch.setattr(monodromy, "_track", collide)
    with pytest.raises(NonBijective) as info:
        monodromy_group(B)
    message = str(info.value)
    assert "outward lifts of labels 0 and 1 both reach" in message
    assert f"start label {labels[1]:.6f}, outward piece" in message


def _poisoned_first_pass(monkeypatch, row):
    """Make the first Newton pass of the tracker see NaN at one row."""
    jet, track = BlaschkeProduct._jet, monodromy._track
    passes, tracking = [], []

    def poisoned(self, z, **kwargs):
        if tracking:
            if not passes:
                z = z.copy()
                z[row] = complex("nan")
            passes.append(z.size)
        return jet(self, z, **kwargs)

    def tracked(*args):
        tracking.append(True)
        try:
            return track(*args)
        finally:
            tracking.pop()

    monkeypatch.setattr(BlaschkeProduct, "_jet", poisoned)
    monkeypatch.setattr(monodromy, "_track", tracked)


def test_a_non_finite_iterate_fails_its_row(monkeypatch):
    # |B - gamma| is NaN on that row, and NaN <= bound is False, so the row
    # must never count as converged: it fails at once, naming its loop and
    # its label, before any point is compared
    B = normalize(_tower(rng_for(2038), 2)).product
    n = B.degree
    with monkeypatch.context() as patch:
        # every row is in the first pass, in (loop, label) order
        _poisoned_first_pass(patch, n + 2)
        with pytest.raises(TrackingFailure) as info:
            monodromy_group(B)
    mono = monodromy_group(B)
    message = str(info.value)
    assert message.startswith("corrector left |B - gamma|=nan at gamma=")
    assert "B or B' not finite" in message
    assert f"loop around critical value {mono.loops[1].target:.6f}" in message
    assert message.endswith(f"start label {mono.labels[2]:.6f}, outward piece")

    # one row round a whole loop fails the same way instead of returning NaN
    _poisoned_first_pass(monkeypatch, 0)
    with pytest.raises(TrackingFailure, match="B or B' not finite"):
        continue_branch(B, mono.loops[0], mono.labels[0])


def test_continuation_stable_under_step_halving():
    B = _two_value_chain()
    full = monodromy_group(B)
    assert [g.images for g in full.generators] == halved_step_images(B, full)


# ------------------------------------------- generators as out^-1 o arc o out


def _split(loop, parts):
    """The loop with every piece, chord or arc, cut into parts equal pieces."""

    def cut(leg):
        pieces = []
        for piece in leg:
            cuts = [piece.at(k / parts) for k in range(parts + 1)]
            pieces += [
                dataclasses.replace(piece, start=p, end=q, sweep=piece.sweep / parts)
                for p, q in zip(cuts, cuts[1:])
            ]
        return tuple(pieces)

    return dataclasses.replace(loop, outward=cut(loop.outward), circle=cut(loop.circle))


def _closed_loop_ends(B, mono, loop):
    """For each label, the label its full closed-loop lift (return leg
    included) ends on, or None where that lift fails or ends off the labels."""
    row = []
    for z0 in mono.labels:
        try:
            end = continue_branch(B, loop, z0)
        except TrackingFailure:
            row.append(None)
            continue
        dists = [abs(end - label) for label in mono.labels]
        j = min(range(len(dists)), key=dists.__getitem__)
        row.append(j if dists[j] < 1e-8 else None)
    return row


def _corpus():
    rng = rng_for(2040)
    for degree in (8, 8, 10, 10):
        yield normalize(random_product(rng, degree, radius=0.8)).product
    for levels in (3, 4, 5):
        yield normalize(_tower(rng, levels)).product


def test_generators_match_closed_loop_lifts_on_a_seeded_corpus():
    # the group never lifts a return leg; lifting every closed loop in full
    # must give the same permutation wherever it gives one at all
    compared = 0
    for B in _corpus():
        try:
            mono = monodromy_group(B)
        except (TrackingFailure, NonBijective):
            continue
        for loop, generator in zip(mono.loops, mono.generators):
            row = _closed_loop_ends(B, mono, loop)
            if sorted(j for j in row if j is not None) == list(range(B.degree)):
                assert tuple(row) == generator.images
                compared += 1
    assert compared >= 40


def test_group_lifts_outward_chords_and_arcs_only(monkeypatch):
    lifted = _counted_lifts(monkeypatch)
    B = normalize(_tower(rng_for(2041), 3)).product
    mono = monodromy_group(B)
    n = B.degree
    outward = sum(len(loop.outward) for loop in mono.loops)
    assert Counter(lifted) == {"outward": n * outward, "arc": 2 * n * len(mono.loops)}


def test_product_whose_return_chord_jumps_gets_its_group():
    # a seeded degree-6 product on which a step sized without regard to the
    # critical values jumps branch on the return chords; stepped by the
    # distance to the nearest value, every full closed-loop lift permutes
    # the labels and equals its generator
    B = normalize(random_product(rng_for(3042), 6, radius=0.8)).product
    mono = monodromy_group(B)
    for loop, generator in zip(mono.loops, mono.generators):
        assert tuple(_closed_loop_ends(B, mono, loop)) == generator.images

    # with every piece cut 4 or 8 ways the full lifts agree with the
    # generators on every branch they carry back to a label
    for parts in (4, 8):
        checked = 0
        for loop, generator in zip(mono.loops, mono.generators):
            ends = _closed_loop_ends(B, mono, _split(loop, parts))
            for image, j in zip(generator.images, ends):
                if j is not None:
                    assert j == image
                    checked += 1
        assert checked == 6 * len(mono.loops)

    # five critical points in the disk with five distinct values: each
    # value has one simple point, so Riemann-Hurwitz asks for a
    # transposition per loop, and the group must be transitive
    cd = critical_data(B)
    assert len(cd.points_in_disk) == len(cd.distinct_values) == 5
    assert len(mono.generators) == 5
    assert all(g.cycle_type() == (2, 1, 1, 1, 1) for g in mono.generators)
    assert mono.group.is_transitive()


# -------------------------------------------------------------- monodromy group


def test_conjugated_power_is_cyclic():
    B = normalize(BlaschkeProduct(1.0, (0.3 + 0.2j,) * 4)).product
    res = monodromy_group(B)
    assert len(res.generators) == 1
    assert res.generators[0].cycle_type() == (4,)
    assert res.group.order() == 4
    assert res.group.is_abelian()


def test_plain_power_needs_normalization():
    B = BlaschkeProduct(1.0, (0j,) * 4)
    with pytest.raises(DegenerateInput):
        monodromy_group(B)
    res = monodromy_group(normalize(B).product)
    assert res.group.order() == 4


# A normalized random degree-16 product whose 15 simple critical points (at
# least 0.017 apart) have values 6.6e-13 to 5.1e-9 apart, all within 1e-3
# of 0: an absolute cluster_tol would merge them into one value, but
# relative to their moduli they stay 15 values, so the group comes from 15
# transpositions.
CLOSE_VALUES_16 = BlaschkeProduct(
    -0.9922278757615017 + 0.12443408922726029j,
    (
        -0.7327231163109104 + 0.02259620454356994j,
        -0.7269504542910337 + 0.12068456914347724j,
        -0.7089695294702538 - 0.08003248015019464j,
        -0.6898627826074113 + 0.21407021890505193j,
        -0.6554465393919453 - 0.1822210917588141j,
        -0.6190440317636675 + 0.3021518441737059j,
        -0.5697074390972072 - 0.27240542506718796j,
        -0.5166548139322837 + 0.3859988840167356j,
        -0.4486163921644327 - 0.3272117078431763j,
        -0.39457158662889186 + 0.44975782279608983j,
        -0.2901359789822631 - 0.30947376739924887j,
        -0.2601248828135958 + 0.45728496582714184j,
        -0.11707676303427537 - 0.19619381476351616j,
        -0.11510938957410902 + 0.3762150300782007j,
        -0.0029618522492132066 + 0.2133252107702862j,
        0j,
    ),
)

# A normalized random degree-16 product (the degree-16 op of monodromy
# seed 148) six of whose simple critical points have values that differ
# (50-digit mpmath) by only 1.9e-10 to 4.8e-9 of their moduli: within
# cluster_tol they are one value, the one loop around them lifts to a
# 7-cycle, and six simple points give (2, 2, 2, 2, 2, 2).
MERGED_VALUES_16 = BlaschkeProduct(
    -0.9453458944567326 + 0.3260692255239677j,
    (
        -0.7020224209608389 - 0.2989681823562088j,
        -0.6924773044231648 - 0.06088775020295311j,
        -0.6845244143345206 - 0.19251670556946496j,
        -0.6677817129246042 + 0.066015336047686j,
        -0.6147228386224378 + 0.4621024712516297j,
        -0.5978398809826748 + 0.1897790700184255j,
        -0.5954237212830775 - 0.34564375910106687j,
        -0.4801943225670689 - 0.43344432697009444j,
        -0.4562774757185392 + 0.2946758542386632j,
        -0.3171181126626112 - 0.4592298583692784j,
        -0.2616354097499005 + 0.3120943256111618j,
        -0.15900626845930887 - 0.5569834094862749j,
        -0.08745745307079966 + 0.21549754631466977j,
        -0.05388039306167068 - 0.5859049703550334j,
        -0.04779367922705666 - 0.2661675067357759j,
        0j,
    ),
)


def test_close_critical_values_each_get_a_loop():
    assert len(critical_data(CLOSE_VALUES_16).distinct_values) == 15
    res = monodromy_group(CLOSE_VALUES_16)
    assert len(res.generators) == 15
    assert all(g.cycle_type()[:2] == (2, 1) for g in res.generators)
    assert res.group.order() == math.factorial(16)


def test_merged_critical_values_fail_riemann_hurwitz():
    with pytest.raises(VerificationFailure, match=r"\(7, 1, .*\(2, 2, 2, 2, 2, 2, 1"):
        monodromy_group(MERGED_VALUES_16)


# The normalized degree-16 op of monodromy seed 368: its 15 critical values
# are at least 1.9e-8 of their moduli apart, but two of them only 2.0e-14
# apart, under 1e-11 of the largest value 2.3e-3.
SPREAD_VALUES_16 = BlaschkeProduct(
    0.9235967214930898 - 0.38336548624937006j,
    (
        -0.32997792258788483 - 0.6091038676134519j,
        -0.06744823277955891 - 0.1866999417796364j,
        -0.008215143399708639 - 0.3731645867734777j,
        0j,
        0.08339932223033787 + 0.5425485884263754j,
        0.13428847848446832 - 0.4873419272719872j,
        0.18027421675233857 + 0.10477729468952264j,
        0.2744707511071469 - 0.6684180341669645j,
        0.3151760755449598 - 0.5127468642898434j,
        0.37979015876230604 + 0.07566347183873326j,
        0.4428421766202904 - 0.5336879111264203j,
        0.46943944298304496 - 0.40263253074476263j,
        0.5219190330476041 - 0.030458645103617465j,
        0.5305709207597857 - 0.27486995028574923j,
        0.5608873139826596 - 0.13888836696072798j,
        0.7922657806260198 + 0.22239374071628604j,
    ),
)


def test_values_close_in_absolute_terms_each_get_a_loop():
    res = monodromy_group(SPREAD_VALUES_16)
    assert len(res.generators) == 15
    assert all(g.cycle_type()[:2] == (2, 1) for g in res.generators)
    assert res.group.order() == math.factorial(16)


def test_repeated_zero_rejected():
    with pytest.raises(DegenerateInput):
        monodromy_group(BlaschkeProduct(1.0, (0.4, 0.4, 0.2)))


def test_two_value_chain_group():
    B = _two_value_chain()
    res = monodromy_group(B)
    assert len(res.generators) == 2
    assert res.group.order() == 8
    assert not res.group.is_abelian()
    assert {g.cycle_type() for g in res.generators} == {(2, 2), (2, 1, 1)}
    assert 2 in {s.block_size for s in block_systems(res.group)}


def test_generic_product_is_transitive():
    rng = rng_for(317)
    zeros = tuple(random_point(rng, 0.7) for _ in range(5))
    B = normalize(BlaschkeProduct(1.0, zeros)).product
    res = monodromy_group(B)
    assert res.group.is_transitive()
    assert len(res.generators) == 4


def test_fiber_labels_are_the_zeros():
    B = _two_value_chain()
    res = monodromy_group(B)
    assert sorted(res.labels, key=lambda z: (z.real, z.imag)) == sorted(
        B.zeros, key=lambda z: (z.real, z.imag)
    )


# ------------------------------------------------------------ seeded corpus

# Generator images of normalized seeded products, pinned as literals: a
# change to the tracker, the loops or the evaluation kernel that moves a
# single branch endpoint to another label shows here.  Products are drawn in
# order from rng_for(2026): the random ones first (radius 0.8), then a 3- and
# a 4-level tower of degree-2 factors.
PINNED_RANDOM = (
    (5, (
        (0, 1, 3, 2, 4),
        (0, 1, 2, 4, 3),
        (0, 2, 1, 3, 4),
        (3, 1, 2, 0, 4),
    )),
    (6, (
        (0, 1, 2, 3, 5, 4),
        (2, 1, 0, 3, 4, 5),
        (0, 1, 5, 3, 4, 2),
        (0, 1, 3, 2, 4, 5),
        (0, 2, 1, 3, 4, 5),
    )),
    (6, (
        (0, 1, 5, 3, 4, 2),
        (0, 1, 4, 3, 2, 5),
        (0, 2, 1, 3, 4, 5),
        (0, 1, 2, 4, 3, 5),
        (1, 0, 2, 3, 4, 5),
    )),
    (7, (
        (0, 1, 6, 3, 4, 5, 2),
        (0, 2, 1, 3, 4, 5, 6),
        (0, 1, 5, 3, 4, 2, 6),
        (0, 1, 2, 4, 3, 5, 6),
        (0, 1, 4, 3, 2, 5, 6),
        (1, 0, 2, 3, 4, 5, 6),
    )),
    (7, (
        (6, 1, 2, 3, 4, 5, 0),
        (4, 1, 2, 3, 0, 5, 6),
        (0, 1, 3, 2, 4, 5, 6),
        (0, 1, 2, 4, 3, 5, 6),
        (0, 2, 1, 3, 4, 5, 6),
        (0, 1, 2, 3, 5, 4, 6),
    )),
    (8, (
        (4, 1, 2, 3, 0, 5, 6, 7),
        (0, 1, 2, 3, 7, 5, 6, 4),
        (0, 1, 4, 3, 2, 5, 6, 7),
        (0, 1, 2, 3, 5, 4, 6, 7),
        (0, 4, 2, 3, 1, 5, 6, 7),
        (0, 1, 2, 3, 6, 5, 4, 7),
        (0, 1, 2, 4, 3, 5, 6, 7),
    )),
    (8, (
        (1, 0, 2, 3, 4, 5, 6, 7),
        (0, 6, 2, 3, 4, 5, 1, 7),
        (0, 5, 2, 3, 4, 1, 6, 7),
        (0, 1, 2, 3, 4, 5, 7, 6),
        (0, 2, 1, 3, 4, 5, 6, 7),
        (0, 1, 3, 2, 4, 5, 6, 7),
        (0, 1, 2, 4, 3, 5, 6, 7),
    )),
    (6, (
        (0, 1, 3, 2, 4, 5),
        (1, 0, 2, 3, 4, 5),
        (0, 1, 4, 3, 2, 5),
        (0, 4, 2, 3, 1, 5),
        (0, 1, 2, 3, 5, 4),
    )),
)
PINNED_TOWERS = (
    (3, (
        (3, 2, 1, 0, 5, 4, 7, 6),
        (0, 1, 2, 5, 4, 3, 6, 7),
        (0, 3, 2, 1, 4, 6, 5, 7),
    )),
    (4, (
        (6, 1, 2, 4, 3, 5, 0, 7, 12, 9, 10, 13, 8, 11, 14, 15),
        (0, 1, 2, 3, 4, 5, 12, 7, 8, 9, 10, 11, 6, 13, 14, 15),
        (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 15, 14, 13, 12),
        (0, 1, 2, 6, 4, 5, 3, 7, 8, 9, 10, 12, 11, 13, 14, 15),
    )),
)


def test_seeded_generators_are_pinned():
    rng = rng_for(2026)
    detoured = 0
    for degree, expected in PINNED_RANDOM:
        B = normalize(random_product(rng, degree, radius=0.8)).product
        res = monodromy_group(B)
        assert tuple(g.images for g in res.generators) == expected
        detoured += sum(
            any(p.sweep for p in loop.outward)
            for loop in res.loops
        )
    # the pins cover loops that detour round a value in their corridor
    assert detoured == 5
    for levels, expected in PINNED_TOWERS:
        B = normalize(_tower(rng, levels)).product
        res = monodromy_group(B)
        assert tuple(g.images for g in res.generators) == expected
        assert res.group.order() == 2 ** (2**levels - 1)
    # a seeded degree-7 product whose loop round the critical value
    # 0.0106 - 0.0303i runs out along a chord 0.032 long that passes within
    # 1.2e-4 of another value
    B = normalize(random_product(rng_for(2027), 7)).product
    assert tuple(g.images for g in monodromy_group(B).generators) == (
        (0, 3, 2, 1, 4, 5, 6),
        (0, 1, 3, 2, 4, 5, 6),
        (0, 1, 4, 3, 2, 5, 6),
        (0, 1, 2, 3, 4, 6, 5),
        (0, 1, 2, 3, 5, 4, 6),
        (1, 0, 2, 3, 4, 5, 6),
    )


def test_nonexample84_group_is_order_32_with_blocks_of_2_and_4():
    B = normalize(cli.demo_corpus()["nonexample84"]).product
    mono = monodromy_group(B)
    gens = [g.images for g in mono.generators]
    assert gens == [(1, 0, 3, 2, 5, 4, 7, 6), (2, 1, 4, 3, 6, 5, 0, 7)]
    assert mono.group.order() == 32
    assert [s.block_size for s in block_systems(mono.group)] == [2, 4]
    assert cross_validate(B).consistent

    # independently: the closure of the generators under composition, by
    # breadth-first search, and the product of the two generators
    seen = {tuple(range(8))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    assert len(seen) == 32
    a, b = gens
    product = tuple(a[b[x]] for x in range(8))
    orbit = [0]
    while product[orbit[-1]] != 0:
        orbit.append(product[orbit[-1]])
    assert len(orbit) == 8


# -------------------------------------------------------------- cross validation


def test_cross_validation_on_a_two_three_composite():
    inner = BlaschkeProduct(1.0, (0j, 0.35, -0.2 + 0.3j))
    outer = BlaschkeProduct(-1.0, (0j, 0.4 - 0.1j))
    B = normalize(compose(outer, inner)).product
    report = cross_validate(B)
    assert report.consistent
    rows = {r.k: r for r in report.rows}
    assert rows[3].block_system and rows[3].factor_found
    assert not rows[2].factor_found


def _counted_lifts(monkeypatch):
    """Record the leg of every piece monodromy_group lifts, once per row
    (loop, label) that the tracker lifts along it."""
    lifted = []
    track = monodromy._track

    def counted(B, legs, values, leg, labels, z, d):
        for _, pieces in legs:
            lifted.extend([leg] * (len(pieces) * len(labels)))
        return track(B, legs, values, leg, labels, z, d)

    monkeypatch.setattr(monodromy, "_track", counted)
    return lifted


def test_cross_validate_reuses_the_group(monkeypatch):
    # a product no other test tracks, so the first call below tracks it
    lifted = _counted_lifts(monkeypatch)
    B = normalize(_tower(rng_for(2031), 2)).product
    mono = monodromy_group(B)
    assert lifted.count("arc") == 2 * len(mono.loops) * B.degree
    lifted.clear()
    cross = cross_validate(B)
    assert lifted == []
    assert cross.monodromy is mono is monodromy_group(B)
    assert cross.consistent


def test_refusal_is_tracked_again(monkeypatch):
    # a refusal is not kept: every call tracks and raises anew
    lifted = _counted_lifts(monkeypatch)
    for _ in range(2):
        lifted.clear()
        with pytest.raises(VerificationFailure, match="Riemann-Hurwitz"):
            monodromy_group(MERGED_VALUES_16)
        assert lifted


def test_prime_degree_has_no_blocks():
    rng = rng_for(320)
    zeros = tuple(random_point(rng, 0.6) for _ in range(5))
    B = normalize(BlaschkeProduct(1.0, zeros)).product
    report = cross_validate(B)
    assert report.rows == ()
    assert report.systems == ()
    assert report.consistent


# ------------------------------------------------------------ stabilizer chain


def _symmetric(n):
    cycle = Permutation(tuple((i + 1) % n for i in range(n)))
    swap = Permutation((1, 0) + tuple(range(2, n)))
    return PermutationGroup([cycle, swap], n)


@pytest.mark.parametrize("n", [9, 10, 12])
def test_symmetric_group_order(n):
    # the stabilizer chain gives 10! and 12! exactly, without listing them
    G = _symmetric(n)
    assert G.order() == math.factorial(n)
    assert type(G.order()) is int
    assert G.is_transitive()


def test_chain_matches_listing_and_orbit():
    rng = rng_for(340)
    for trial in range(40):
        n = int(rng.integers(3, 8))
        if trial % 2:
            gens = [_random_perm(rng, n), _random_perm(rng, n)]
        else:
            # each generator keeps {0, .., k-1} and its complement apart
            k = int(rng.integers(1, n))
            gens = [
                Permutation(
                    tuple(int(i) for i in rng.permutation(k))
                    + tuple(k + int(i) for i in rng.permutation(n - k))
                )
                for _ in range(2)
            ]
        listed = {tuple(range(n))}
        frontier = list(listed)
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    prod = tuple(g.images[j] for j in e)
                    if prod not in listed:
                        listed.add(prod)
                        nxt.append(prod)
            frontier = nxt
        orbit = {0}
        frontier = [0]
        while frontier:
            nxt = [g(i) for i in frontier for g in gens if g(i) not in orbit]
            orbit.update(nxt)
            frontier = nxt
        G = PermutationGroup(gens, n)
        assert G.order() == len(listed), (trial, n)
        assert G.is_transitive() == (len(orbit) == n), (trial, n)


@pytest.mark.parametrize("seed", [931, 932, 935])
def test_wreath_audit_degree_32_towers(seed):
    # five degree-2 levels: the group is the 5-fold iterated wreath product
    # of C2, of order 2^31, far past any listing
    B = normalize(_tower(rng_for(seed), 5)).product
    cross = cross_validate(B)
    audit = wreath_audit(cross.monodromy.group, 5)
    assert audit.ok
    assert audit.order == 2**31
    assert audit.nested_sizes == (2, 4, 8, 16)
    assert cross.consistent
