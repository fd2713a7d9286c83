"""Seeded corpora that pin the degree up to which each pipeline certifies.

A pipeline that moves its ceiling edits its table here and says so.
"""

import cmath
import math

from blaschke import BlaschkeProduct, normalize
from blaschke.critical import check_value_bound, critical_data
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
        assert all(g.order() in (2, 4, 8, 16, 32, 64) for g in mono.generators)
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
    assert all(g.order() & (g.order() - 1) == 0 for g in mono.generators)
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
