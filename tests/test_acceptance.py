"""End-to-end acceptance checks, one test per numbered criterion.

Each test exercises a full pipeline at its stated tolerance and prints a
single PASS line with the headline numbers; pytest -v therefore reads as a
ten-line scoreboard.  Tolerances here are contractual, not adjustable.
"""

import cmath
import math
import time

from blaschke import BlaschkeProduct, CompositionChain, compose, normalize
from blaschke.circle import (
    invariant_orbit,
    solve_on_circle,
    verify_generator_power,
)
from blaschke.cli import demo_corpus
from blaschke.critical import check_value_bound, critical_data
from blaschke.decompose import chain_2n, inner_factor_general
from blaschke.monodromy import monodromy_group, wreath_audit
from blaschke.poncelet import envelope, fit_conic, foci_vs_zeros, package
from blaschke.shiftop import (
    is_elliptical_range,
    numerical_range_boundary,
    shift_matrix,
)

from conftest import (
    TAU,
    circle_grid,
    halved_step_images,
    random_point,
    random_product,
    rng_for,
)

CORPUS = demo_corpus()


def _passline(num: int, text: str) -> None:
    print(f"criterion {num:>2}: PASS  {text}")


def _totient(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def test_criterion_01_degree8_octagon_is_not_elliptical():
    """The fiber over -1 has equal vertical and horizontal tangent offsets,
    yet the diagonal chord sits strictly closer to the origin, so the first
    envelope cannot be an ellipse; the conic fit must agree."""
    t0 = time.perf_counter()
    B = CORPUS["nonexample84"]

    sols = solve_on_circle(B, -1.0 + 0j)
    assert len(sols) == 8
    pts = sorted(
        (sols.point(k) for k in range(8)), key=lambda z: cmath.phase(z) % TAU
    )
    # pts[0]/pts[7] straddle angle 0 (vertical chord), pts[1]/pts[2]
    # straddle pi/2 (horizontal chord)
    assert abs(pts[0].real - pts[7].real) < 1e-9
    assert abs(pts[1].imag - pts[2].imag) < 1e-9
    vertical = 0.5 * (pts[0].real + pts[7].real)
    horizontal = 0.5 * (pts[1].imag + pts[2].imag)
    assert abs(vertical - 0.965767) < 1e-5
    assert abs(horizontal - 0.965767) < 1e-5

    z1, z2 = pts[0], pts[1]
    offsets = (z1.real + z1.imag, z2.real + z2.imag)
    assert abs(offsets[0] - offsets[1]) < 1e-9
    offset = 0.5 * sum(offsets)
    assert abs(offset - 1.22518) < 1e-4
    chord = z2 - z1
    distance = abs((chord.conjugate() * (-z1)).imag) / abs(chord)
    assert abs(distance - 0.866333) < 1e-5
    assert distance < vertical - 0.05  # the contradiction itself

    fit = fit_conic(envelope(B, 0, 720).points)
    assert fit.classification == "non-conic"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passline(
        1,
        f"axes {vertical:.6f}/{horizontal:.6f}, chord offset {offset:.5f}, "
        f"origin distance {distance:.6f}, K1 non-conic, {elapsed:.2f}s",
    )


def test_criterion_02_package_circle_point_and_counts():
    t0 = time.perf_counter()
    B = CORPUS["nonexample84"]
    pkg = package(B, 720)
    assert len(pkg) == 4

    radius = math.sqrt(0.5)
    k2_dev = max(abs(abs(p) - radius) for p in pkg.entry(2).curve.points)
    assert k2_dev < 1e-6

    k4_diam = pkg.entry(4).curve.diameter()
    assert k4_diam < 1e-6

    closures = [entry.closure for entry in pkg.entries]
    assert closures.count(8) == _totient(8) // 2 == 2
    assert closures.count(4) == _totient(4) // 2 == 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _passline(
        2,
        f"K2 radial dev {k2_dev:.2e}, K4 diameter {k4_diam:.2e}, "
        f"closure counts 8:2 4:1, {elapsed:.2f}s",
    )


def test_criterion_03_jordan_block_circular_range():
    M = shift_matrix([0j, 0j, 0j])
    sweep = numerical_range_boundary(M, 720)
    target = math.cos(math.pi / 4.0)
    point_dev = max(abs(abs(p) - target) for p in sweep.points)
    support_dev = max(abs(h - target) for h in sweep.support)
    assert point_dev < 1e-9
    assert support_dev < 1e-9
    _passline(
        3,
        f"boundary radius cos(pi/4), point dev {point_dev:.2e}, "
        f"support dev {support_dev:.2e}",
    )


PUBLISHED_ZEROS = [
    -0.158011 + 0.369131j,
    0.0141808 + 0.629309j,
    0.241238 + 0.685693j,
    0.401172 - 0.0169046j,
    0.42801 + 0.619984j,
    0.555657 + 0.468632j,
    0.58342 + 0.236332j,
]


def test_criterion_04_degree8_elliptical_family():
    C = CORPUS["elliptical8"]
    origin = [z for z in C.zeros if abs(z) <= 1e-9]
    others = sorted(
        (z for z in C.zeros if abs(z) > 1e-9), key=lambda z: (z.real, z.imag)
    )
    assert len(origin) == 1 and len(others) == 7
    zero_dev = max(
        abs(z - w)
        for z, w in zip(others, sorted(PUBLISHED_ZEROS, key=lambda z: (z.real, z.imag)))
    )
    assert zero_dev < 1e-4

    pkg = package(C, 720)
    worst_residual = 0.0
    worst_foci = 0.0
    for m in (1, 2, 3):
        fit = pkg.entry(m).fit
        assert fit.classification == "ellipse"
        worst_residual = max(worst_residual, fit.max_residual)
        match = foci_vs_zeros(fit, C)
        worst_foci = max(worst_foci, match.max_distance)
    assert worst_residual < 1e-6
    assert pkg.entry(4).fit.classification == "point"
    assert worst_foci < 1e-3

    report = chain_2n(C)
    assert report.found
    record = report.chains[0]
    assert record.factor_degrees == (2, 2, 2)
    assert record.verification_error <= 1e-8
    expanded = record.chain.expand()
    roundtrip = max(
        abs(expanded.evaluate(z) - C.evaluate(z)) for z in circle_grid(100, 0.05)
    )
    assert roundtrip <= 1e-8

    _passline(
        4,
        f"zeros dev {zero_dev:.2e}, ellipse residual {worst_residual:.2e}, "
        f"foci dev {worst_foci:.2e}, chain [2,2,2] roundtrip {roundtrip:.2e}",
    )


def test_criterion_05_degree6_pair():
    elliptic = CORPUS["deg6elliptic"]
    nonelliptic = CORPUS["deg6nonelliptic"]

    def model_verdict(B):
        zs = list(B.zeros)
        zs.remove(min(zs, key=abs))
        return is_elliptical_range(shift_matrix(zs))

    v1 = model_verdict(elliptic)
    assert v1.is_ellipse
    assert inner_factor_general(elliptic, 2).found
    assert inner_factor_general(elliptic, 3).found

    v2 = model_verdict(nonelliptic)
    assert not v2.is_ellipse
    assert inner_factor_general(nonelliptic, 3).found

    _passline(
        5,
        "deg6elliptic: ellipse with (2,3) and (3,2) factors; "
        "deg6nonelliptic: decomposable yet non-elliptical",
    )


def test_criterion_06_conjugated_fifth_power_monodromy():
    B = normalize(BlaschkeProduct(-1.0, (0.3,) * 5)).product
    res = monodromy_group(B)
    assert len(res.generators) == 1
    assert res.generators[0].cycle_type() == (5,)
    assert res.group.order() == 5
    assert res.group.is_abelian()
    _passline(6, "single generator is a 5-cycle, group cyclic of order 5")


def test_criterion_07_two_value_chain_monodromy():
    inner = BlaschkeProduct(-1.0, (0j, -0.22 + 0.4j))
    outer = BlaschkeProduct(-1.0, (0j, 0.31 + 0.12j))
    B = normalize(compose(outer, inner)).product
    cd = critical_data(B)
    assert len(cd.distinct_values) == 2
    res = monodromy_group(B)
    assert res.group.order() == 8
    assert not res.group.is_abelian()
    types = {g.cycle_type() for g in res.generators}
    assert types == {(2, 1, 1), (2, 2)}
    _passline(
        7,
        "order 8, non-abelian, generators conjugate to a transposition "
        "and a double transposition",
    )


def test_criterion_08_three_level_chain_wreath():
    t0 = time.perf_counter()
    chain = CORPUS["chain3"]
    B = chain.expand()
    cd = critical_data(B)
    assert len(cd.distinct_values) == 3

    N = normalize(B).product
    res = monodromy_group(N)
    assert len(res.generators) == 3
    assert res.group.order() == 128

    audit = wreath_audit(res.group, 3)
    assert audit.ok
    assert audit.nested_sizes == (2, 4)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passline(
        8,
        f"order 128 two-group with nested blocks of sizes 2 and 4, "
        f"{elapsed:.2f}s",
    )


def test_criterion_09_generator_power_identity():
    worst_sup = 0.0
    for levels in (2, 3):
        for seed in range(20):
            rng = rng_for(9000 + 100 * levels + seed)
            a = random_point(rng, 0.5)
            while abs(a) < 0.05:
                a = random_point(rng, 0.5)
            outers = tuple(
                BlaschkeProduct(
                    cmath.exp(1j * rng.uniform(0.0, TAU)),
                    (0j, random_point(rng, 0.5)),
                )
                for _ in range(levels - 1)
            )
            chain = CompositionChain((*outers, BlaschkeProduct(-1.0, (0j, a))))

            check = verify_generator_power(chain)
            assert check.ok, (levels, seed, check)
            assert check.power == 2 ** (levels - 1)
            assert check.sup_error < 1e-9
            worst_sup = max(worst_sup, check.sup_error)

            B = chain.expand()
            order = 2**levels
            for z in circle_grid(3, 0.21 + 0.01 * seed):
                orbit = invariant_orbit(B, z, order + 1)
                assert abs(orbit[order] - z) < 1e-9
                assert min(abs(w - z) for w in orbit[1:order]) > 1e-6
    _passline(
        9,
        f"40 chains: half-order iterate equals the inner automorphism "
        f"(sup {worst_sup:.2e}), full group cyclic of order 2^n",
    )


def _hull(points):
    pts = sorted(set((z.real, z.imag) for z in points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def _in_hull(z, hull, slack):
    if len(hull) == 1:
        return abs(complex(*hull[0]) - z) <= slack
    if len(hull) == 2:
        a, b = (complex(*p) for p in hull)
        d = b - a
        t = ((z - a).real * d.real + (z - a).imag * d.imag) / abs(d) ** 2
        t = min(1.0, max(0.0, t))
        return abs(a + t * d - z) <= slack
    m = len(hull)
    for i in range(m):
        a = complex(*hull[i])
        b = complex(*hull[(i + 1) % m])
        cross = ((b - a).conjugate() * (z - a)).imag
        if cross < -slack * abs(b - a):
            return False
    return True


def test_criterion_10_property_suites():
    rng = rng_for(1010)

    # critical points stay inside the convex hull of the zeros and origin
    # (the Euclidean print of the hyperbolic hull bound)
    for _ in range(100):
        deg = int(rng.integers(2, 13))
        B = random_product(rng, deg)
        hull = _hull([0j, *B.zeros])
        cd = critical_data(B)
        for p in cd.points_in_disk:
            assert _in_hull(p, hull, 1e-7)

    # distinct critical values never exceed the composition bound
    # (expanded degree capped at 16, where critical points are certifiable;
    # past that critical_data raises rather than returning blurred values)
    for _ in range(50):
        factors = [random_product(rng, int(rng.integers(2, 4)), 0.6)]
        degree = factors[0].degree
        while True:
            d = int(rng.integers(2, 4))
            if degree * d > 16:
                break
            factors.append(random_product(rng, d, 0.6))
            degree *= d
        report = check_value_bound(CompositionChain(tuple(factors)))
        assert report.ok
        assert report.distinct_count <= report.bound

    # quadratic chains survive a decompose and re-expand round trip
    worst_roundtrip = 0.0
    for i in range(50):
        levels = 2 if i % 2 == 0 else 3
        radius = 0.55 if levels == 2 else 0.5
        factors = tuple(
            random_product(rng, 2, radius) for _ in range(levels)
        )
        B = CompositionChain(factors).expand()
        report = chain_2n(B)
        assert report.found, report.failures
        record = report.chains[0]
        assert record.verification_error <= 1e-8
        err = max(
            abs(record.chain.expand().evaluate(z) - B.evaluate(z))
            for z in circle_grid(60, 0.011 * i)
        )
        assert err <= 1e-8
        worst_roundtrip = max(worst_roundtrip, err)

    # analytic derivative against central differences
    h = 1e-6
    for _ in range(20):
        B = random_product(rng, int(rng.integers(2, 9)))
        for _ in range(3):
            z = random_point(rng, 0.6)
            fd = (B.evaluate(z + h) - B.evaluate(z - h)) / (2.0 * h)
            d = B.derivative(z)
            assert abs(fd - d) <= 1e-5 * max(1.0, abs(d))

    # branch permutations survive step halving
    for seed in (41, 42, 43):
        sub = rng_for(seed)
        B = normalize(
            BlaschkeProduct(1.0, tuple(random_point(sub, 0.7) for _ in range(4)))
        ).product
        full = monodromy_group(B)
        assert [g.images for g in full.generators] == halved_step_images(B, full)

    _passline(
        10,
        f"hull membership x100, value bound x50, round trip x50 "
        f"(worst {worst_roundtrip:.2e}), derivative FD x20, "
        f"step-halving x3",
    )
