"""Seeded corpora that pin the degree up to which each pipeline certifies.

A pipeline that moves its ceiling edits its table here and says so.
"""

import cmath
import math
from collections import Counter

import numpy as np
import pytest

from blaschke import BlaschkeProduct, DiskAutomorphism, compose, normalize
from blaschke.core import _BASE_RINGS, _CLUSTER_TOL
from blaschke.critical import check_value_bound, critical_data
from blaschke.decompose import (
    elliptical_implies_decomposable_check,
    factor_any_order,
    inner_factor_general,
)
from blaschke.errors import (
    DegenerateInput,
    SolverFailure,
    TrackingFailure,
    VerificationFailure,
)
from blaschke.monodromy import block_systems, monodromy_group

from conftest import TAU, crowded_product, random_degree2_chain, random_product, rng_for
from test_critical import assert_critical_points_match_mpmath
from test_decompose import _tower

# monodromy: every product drawn gets a group
MONODROMY_RANDOM_DEGREES = (8, 10, 12)
MONODROMY_RANDOM_PER_DEGREE = 12
MONODROMY_TOWER_LEVELS = (5, 5, 6, 6)
MONODROMY_TOP_TOWER_LEVELS = 7
# critical points: towers of degree 64 and 128
CRITICAL_TOWER_LEVELS = (6, 7)
# distinct critical values: crowded random products and degree-2 towers
VALUE_COUNT_DEGREES = (12, 16, 24, 32, 64, 128, 256)
VALUE_COUNT_TOWER_LEVELS = (3, 4, 5, 6, 7, 8)
# normalize on the benchmark's random products: whether a base point is found
NORMALIZE_ACCEPTS = {32: True, 40: False, 48: False, 64: False}
NORMALIZE_PER_DEGREE = 4
# the quadratic chain of factor_any_order: towers of degree 512 and 1024
CHAIN_TOWER_LEVELS = (9, 10)
# the elliptical family: consistent up to degree 24, no model space at 32
ELLIPTICAL_CONSISTENT_DEGREES = (8, 16, 24)
ELLIPTICAL_REFUSED_DEGREE = 32
# inner factors of compositions: found at 8 of 64 (zeros pinned), then at
# every (k, n) below (maps pinned)
INNER_FOUND_DEGREE, INNER_TOTAL_DEGREE = 8, 64
INNER_FOUND_ROWS = ((16, 64), (32, 64), (24, 96), (32, 128), (64, 128))

# the points every row below is checked on
CIRCLE = np.exp(1j * (0.17 + TAU * np.arange(64) / 64))


def _np_value(gamma, zeros, z):
    """gamma prod (z - a) / (1 - conj(a) z) over the zeros a, by plain numpy,
    at the points z."""
    a = np.asarray(zeros, dtype=complex)[:, None]
    return gamma * np.prod((z - a) / (1.0 - a.conj() * z), axis=0)


def _np_map(f, z):
    """A BlaschkeProduct or DiskAutomorphism at the points z, by _np_value."""
    if isinstance(f, DiskAutomorphism):
        f = f.as_blaschke()
    return _np_value(f.gamma, f.zeros, z)


def _benchmark_product(rng, n):
    """A random product drawn as the benchmark draws one: n zero moduli
    uniform on [0, 0.8), then n arguments, then the constant."""
    radius = rng.uniform(0.0, 0.8, n)
    angle = rng.uniform(0.0, TAU, n)
    gamma = cmath.exp(1j * rng.uniform(0.0, TAU))
    return BlaschkeProduct(gamma, tuple(complex(z) for z in radius * np.exp(1j * angle)))


def test_monodromy_certifies_random_products_to_degree_12():
    # radius 0.8, drawn in sequence from one generator: 12 of degree 8,
    # then 12 of degree 10, then 12 of degree 12
    rng = rng_for(2040)
    for n in MONODROMY_RANDOM_DEGREES:
        for _ in range(MONODROMY_RANDOM_PER_DEGREE):
            B = normalize(random_product(rng, n, radius=0.8)).product
            mono = monodromy_group(B)
            assert len(mono.generators) == len(critical_data(B).distinct_values)
            assert mono.group.is_transitive()


def test_monodromy_certifies_random_products_of_degree_16():
    # zero moduli uniform on [0, 0.8), as in the benchmark, rather than
    # uniform in area: the zeros crowd the origin, every critical value lies
    # within about 1e-3 of 0 and distinct ones come within 1e-9 of each
    # other, closer than cluster_tol; each of the 15 simple critical points
    # still gets its own loop
    rng = rng_for(2042)
    for _ in range(MONODROMY_RANDOM_PER_DEGREE):
        zeros = tuple(
            rng.uniform(0.0, 0.8) * cmath.exp(1j * rng.uniform(0.0, TAU))
            for _ in range(16)
        )
        gamma = cmath.exp(1j * rng.uniform(0.0, TAU))
        B = normalize(BlaschkeProduct(gamma, zeros)).product
        mono = monodromy_group(B)
        assert len(mono.generators) == 15
        assert all(g.cycle_type()[:2] == (2, 1) for g in mono.generators)
        assert mono.group.order() == math.factorial(16)


def test_monodromy_certifies_towers_to_degree_64():
    # two towers of degree 32, then two of degree 64; the stabilizer chain
    # takes over a second at degree 64, so only degree 32 checks the order
    rng = rng_for(2041)
    for levels in MONODROMY_TOWER_LEVELS:
        B = normalize(_tower(rng, levels)).product
        mono = monodromy_group(B)
        assert len(mono.generators) == len(critical_data(B).distinct_values)
        orders = [math.lcm(*g.cycle_type()) for g in mono.generators]
        assert all(order in (2, 4, 8, 16, 32, 64) for order in orders)
        if levels == 5:
            assert mono.group.order() == 2**31


def test_monodromy_certifies_a_tower_of_degree_128():
    # every branch of every loop is lifted in lock-step, so a degree-128
    # tower gets its group in well under a second; order() is left out, as
    # the stabilizer chain takes about 9 s there
    B = normalize(_tower(rng_for(2043), MONODROMY_TOP_TOWER_LEVELS)).product
    mono = monodromy_group(B)
    assert B.degree == 128
    assert len(mono.generators) == len(critical_data(B).distinct_values)
    orders = [math.lcm(*g.cycle_type()) for g in mono.generators]
    assert all(order & (order - 1) == 0 for order in orders)
    # the group's last generator is the loop round the circle
    assert mono.group.generators[-1].cycle_type() == (128,)
    systems = block_systems(mono.group)
    assert [s.block_size for s in systems] == [2, 4, 8, 16, 32, 64]
    for s in systems:
        block_of = {x: i for i, block in enumerate(s.blocks) for x in block}
        for g in mono.group.generators:
            for block in s.blocks:
                assert len({block_of[g(x)] for x in block}) == 1


def test_critical_points_certify_towers_to_degree_128():
    # one tower of degree 64, then one of degree 128: n - 1 certified
    # critical points, each the one a 50-digit Newton on B'/B reaches
    rng = rng_for(2044)
    for levels in CRITICAL_TOWER_LEVELS:
        B = _tower(rng, levels)
        assert B.degree == 2**levels
        assert_critical_points_match_mpmath(B)


def test_distinct_critical_values_count_to_degree_256():
    # a random product has n - 1 distinct critical values, though at degree
    # 128 they all lie within about 1e-14 of 0; an expanded chain of L
    # degree-2 factors has exactly L, one per factor
    rng = rng_for(2045)
    for n in VALUE_COUNT_DEGREES:
        B = crowded_product(rng, n)
        assert len(critical_data(B).distinct_values) == n - 1
    rng = rng_for(2046)
    for levels in VALUE_COUNT_TOWER_LEVELS:
        report = check_value_bound(random_degree2_chain(rng, levels))
        assert report.distinct_count == report.bound == levels


def test_normalize_finds_a_base_point_to_degree_32():
    # 4 benchmark products per degree, drawn in sequence from one generator;
    # from degree 40 up every value on the scanned rings lies within
    # _CLUSTER_TOL of 0, so no base point can clear the critical values
    rng = rng_for(7)
    rings = np.concatenate(_BASE_RINGS)
    for n, accepted in NORMALIZE_ACCEPTS.items():
        for _ in range(NORMALIZE_PER_DEGREE):
            B = _benchmark_product(rng, n)
            if not accepted:
                assert np.abs(_np_map(B, rings)).max() < _CLUSTER_TOL
                with pytest.raises(SolverFailure, match="no regular base point"):
                    normalize(B)
                continue
            nf = normalize(B)
            N = nf.product
            assert N.degree == n
            # N = post o B o pre on the circle, and N(0) = 0
            direct = _np_map(nf.post, _np_map(B, _np_map(nf.pre, CIRCLE)))
            assert np.abs(_np_map(N, CIRCLE) - direct).max() < 1e-8
            assert abs(_np_map(N, np.zeros(1))[0]) < 1e-10


def test_chain_2n_certifies_towers_to_degree_1024():
    # one tower of degree 512, then one of degree 1024
    rng = rng_for(2047)
    for levels in CHAIN_TOWER_LEVELS:
        B = _tower(rng, levels)
        chain = factor_any_order(B, (2,) * levels)
        assert [f.degree for f in chain.factors] == [2] * levels
        # the chain, composed by numpy from the innermost factor out, is B
        z = CIRCLE
        for f in reversed(chain.factors):
            z = _np_map(f, z)
        assert np.abs(z - _np_map(B, CIRCLE)).max() < 1e-8


def _elliptical(n):
    """The demo's elliptical8 at degree n: phi_alpha o (phi_a o eighth turn o
    phi_a)^n as a product with one zero at 0, a = 0.5."""
    phi_a = DiskAutomorphism(1.0, 0.5)
    eighth_turn = DiskAutomorphism.rotation_map(cmath.exp(1j * math.pi / 4))
    aut = phi_a.compose(eighth_turn.compose(phi_a))
    power_of_aut = BlaschkeProduct(aut.rotation**n, (aut.center,) * n)
    alpha = power_of_aut.evaluate(0j)
    return compose(DiskAutomorphism(1.0, alpha).as_blaschke(), power_of_aut)


def test_elliptical_family_is_consistent_to_degree_24():
    # the range is an ellipse and every proper divisor has its inner factor
    for n in ELLIPTICAL_CONSISTENT_DEGREES:
        B = _elliptical(n)
        report = elliptical_implies_decomposable_check(B)
        assert report.verdict.is_ellipse and report.consistent
        assert [r.k for r in report.rows] == [k for k in range(2, n) if n % k == 0]
        for row in report.rows:
            assert row.found
            composed = _np_map(row.outer, _np_map(row.inner, CIRCLE))
            assert np.abs(composed - _np_map(B, CIRCLE)).max() < 1e-8
    # at 32 no zero lies within identity_tol of 0: the zero the
    # construction puts there is off by more than 1e-9
    B = _elliptical(ELLIPTICAL_REFUSED_DEGREE)
    assert min(abs(a) for a in B.zeros) > 1e-9
    with pytest.raises(DegenerateInput, match="no model space"):
        elliptical_implies_decomposable_check(B)


def _inner_factor(rng, degree):
    """crowded_product's draw with its first zero moved to 0, so D(0) = 0."""
    D = crowded_product(rng, degree)
    return BlaschkeProduct(D.gamma, (0j,) + D.zeros[1:])


def test_inner_factor_found_to_degree_64_of_128():
    # C o D with D(0) = 0, zero moduli uniform on [0, 0.8): first deg D = 8
    # of 64, then each row of INNER_FOUND_ROWS, drawn in sequence (D, then C)
    rng = rng_for(11)
    D = _inner_factor(rng, INNER_FOUND_DEGREE)
    C = crowded_product(rng, INNER_TOTAL_DEGREE // INNER_FOUND_DEGREE)
    B = compose(C, D)
    res = inner_factor_general(B, INNER_FOUND_DEGREE)
    assert res.found and res.reason == "ok"
    # the found D is the drawn one up to rotation: the same zeros
    assert sorted(res.inner.zeros, key=abs) == pytest.approx(
        sorted(D.zeros, key=abs), abs=1e-7
    )
    composed = _np_map(res.outer, _np_map(res.inner, CIRCLE))
    assert np.abs(composed - _np_map(B, CIRCLE)).max() < 1e-8

    # from k = 16 the zeros crowd and are ill-conditioned (at k = 32, maps
    # that agree to 2e-13 have zeros 3e-2 apart), so the found D is checked
    # against the drawn one as a map on the circle, up to rotation
    for k, n in INNER_FOUND_ROWS:
        D = _inner_factor(rng, k)
        C = crowded_product(rng, n // k)
        B = compose(C, D)
        res = inner_factor_general(B, k)
        assert res.found and res.reason == "ok", (k, n, res.reason, res.error)
        composed = _np_map(res.outer, _np_map(res.inner, CIRCLE))
        assert np.abs(composed - _np_map(B, CIRCLE)).max() < 1e-8
        turn = _np_map(D, CIRCLE) / _np_map(res.inner, CIRCLE)
        assert np.abs(turn - turn[0]).max() < 1e-10


def test_monodromy_refuses_crowded_values_at_degree_32():
    # benchmark products, 12 of degree 16, then 12 of 24, then 12 of 32.
    # Normalizing the fifth of degree 32 puts three simple critical points
    # on one value to within 4e-16, and the loop round that value gives a
    # 3-cycle and a transposition where Riemann-Hurwitz asks for three
    # transpositions.  The corrector floor lets its tracking finish; the
    # third stops at |B - gamma| = 3.685e-18 with |gamma| < 1e-6, which is
    # not rounding, so it stays a TrackingFailure
    rng = rng_for(2026)
    products = [_benchmark_product(rng, n) for n in (16, 24, 32) for _ in range(12)]
    N = normalize(products[24 + 4]).product
    cd = critical_data(N)
    (cluster,) = [k for k, m in Counter(cd.cluster_index).items() if m == 3]
    points = np.array([p for p, k in zip(cd.points_in_disk, cd.cluster_index) if k == cluster])
    values = _np_map(N, points)
    assert np.abs(values[:, None] - values).max() < 1e-15
    with pytest.raises(VerificationFailure, match="Riemann-Hurwitz"):
        monodromy_group(N)
    with pytest.raises(TrackingFailure, match=r"corrector left \|B - gamma\|=3.685e-18"):
        monodromy_group(normalize(products[24 + 2]).product)
