import cmath
import importlib
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from blaschke import (
    BlaschkeProduct,
    InputError,
    VerificationFailure,
    compose,
)
from blaschke import circle, poncelet
from blaschke.circle import invariant_orbit, solve_levels
from blaschke.cli import SCENE_LAMBDAS, demo_corpus
from blaschke.poncelet import (
    curve_csv,
    fit_conic,
    foci_vs_zeros,
    package,
    scene_svg,
    tangency_audit,
)

from conftest import TAU, count_ellipse_calls, rng_for, random_point, random_product

B84 = BlaschkeProduct(
    1.0, (0j, 0j, 0j, 0j, 0.84 + 0j, -0.84 + 0j, 0.84j, -0.84j)
)
# a degree-4 product for the argument checks
T = compose(BlaschkeProduct(1, (0j, 0.3 + 0.2j)), BlaschkeProduct(1, (0j, -0.4j)))


# --------------------------------------------------------------- conic fitting


def _support(center, p, q, angle, theta):
    """Support value and touching point, in the direction e^{i theta}, of
    the ellipse with this center, semi-axes p and q and major axis at
    angle."""
    u = cmath.exp(1j * (theta - angle))
    reach = math.hypot(p * u.real, q * u.imag)
    touch = complex(p * p * u.real, q * q * u.imag) / reach
    h = (cmath.exp(-1j * theta) * center).real + reach
    return h, center + cmath.exp(1j * angle) * touch


def _chord_family(support, thetas):
    """The EnvelopeCurve of the chords of the unit circle that carry the
    support lines Re(e^{-i theta} z) = h of a curve inside the disk:
    support(theta) gives h and the touching point, and the chord with
    normal e^{i theta} and offset h = cos(delta) ends at e^{i(theta -+
    delta)}."""
    lines = [support(theta) for theta in thetas]
    ends = [
        [cmath.exp(1j * (theta - math.acos(h))), cmath.exp(1j * (theta + math.acos(h)))]
        for theta, (h, _) in zip(thetas, lines)
    ]
    return poncelet.EnvelopeCurve(
        0,
        np.array(thetas, dtype=float),
        np.array([z for _, z in lines]),
        np.array(ends),
    )


def _ellipse_chords(center, p, q, angle, count=40):
    thetas = [0.05 + TAU * k / count for k in range(count)]
    return _chord_family(lambda t: _support(center, p, q, angle, t), thetas)


def _same_axis(got, want):
    return min(abs((got - want) % math.pi), abs((got - want) % math.pi - math.pi))


def test_fit_recovers_synthetic_ellipse():
    # chords tangent to a rotated, off-center ellipse inside the disk
    center, p, q, angle = 0.21 - 0.13j, 0.57, 0.31, 0.83
    fit = fit_conic(_ellipse_chords(center, p, q, angle))
    assert fit.classification == "ellipse"
    assert fit.residual <= 1e-12
    assert abs(fit.center - center) < 1e-12
    assert abs(fit.semi_axes[0] - p) < 1e-12
    assert abs(fit.semi_axes[1] - q) < 1e-12
    assert _same_axis(fit.axis_angle, angle) < 1e-12
    c = math.sqrt(p * p - q * q)
    want = sorted(
        [center + c * cmath.exp(1j * angle), center - c * cmath.exp(1j * angle)],
        key=lambda z: (z.real, z.imag),
    )
    got = sorted(fit.foci, key=lambda z: (z.real, z.imag))
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-12


def test_fit_support_function_against_sampling():
    # a partial family: 200 chords whose normals cover a third of the
    # circle, unevenly, still fix the whole ellipse
    center, p, q, angle = 0.1 + 0.2j, 0.5, 0.22, 1.9
    thetas = [0.3 + 2.1 * (k / 200) ** 1.5 for k in range(200)]
    fit = fit_conic(
        _chord_family(lambda t: _support(center, p, q, angle, t), thetas)
    )
    assert fit.classification == "ellipse" and fit.residual <= 1e-12
    pts = [
        center + cmath.exp(1j * angle) * complex(p * math.cos(s), q * math.sin(s))
        for s in np.linspace(0.0, TAU, 20000, endpoint=False)
    ]
    for theta in (0.0, 0.7, 2.0, 3.9, 5.5):
        direct = max((cmath.exp(-1j * theta) * z).real for z in pts)
        assert abs(fit.support(theta) - direct) < 1e-6


def test_fit_classifies_circle():
    fit = fit_conic(_ellipse_chords(0j, 0.4, 0.4, 0.0))
    assert fit.classification == "ellipse"
    assert abs(fit.semi_axes[0] - fit.semi_axes[1]) < 1e-10
    assert fit.foci == (fit.center, fit.center)


def test_near_circular_fit_keeps_its_foci_apart():
    # axes 1e-6 apart relative are far above rounding: the foci stand
    # sqrt(p^2 - q^2) from the center, along the major axis
    center, p, angle = -0.2 + 0.3j, 0.45, -0.4
    q = p * (1.0 - 1e-6)
    fit = fit_conic(_ellipse_chords(center, p, q, angle, count=360))
    assert fit.classification == "ellipse" and fit.residual <= 1e-12
    assert abs(fit.center - center) < 1e-12
    assert abs(fit.semi_axes[0] - p) < 1e-12 and abs(fit.semi_axes[1] - q) < 1e-12
    f1, f2 = fit.foci
    assert abs(f1 - f2) == pytest.approx(2.0 * math.sqrt(p * p - q * q), rel=1e-4)
    assert _same_axis(cmath.phase(f1 - f2), angle) < 1e-4


def test_round_fit_puts_both_foci_at_the_center():
    # power8's K_1 is a circle whose fitted axes differ by rounding alone,
    # which sqrt(p^2 - q^2) would make into foci about 1e-7 apart;
    # elliptical8's K_1 is a true ellipse, (p - q)/p = 8.4e-2
    demos = demo_corpus()
    fit = package(demos["power8"]).entries[0].fit
    assert fit.classification == "ellipse"
    assert fit.foci == (fit.center, fit.center)
    fit = package(demos["elliptical8"]).entries[0].fit
    p, q = fit.semi_axes
    f1, f2 = fit.foci
    assert abs(f1 - f2) == pytest.approx(2.0 * math.sqrt(p * p - q * q), rel=1e-12)
    assert abs(f1 - f2) > 0.1 and abs(0.5 * (f1 + f2) - fit.center) < 1e-15


def test_fit_detects_point():
    # chords through one point satisfy the tangency equations for every
    # center, so the point test runs before the solve
    P = 0.3 + 0.1j

    def through(theta):
        return (cmath.exp(-1j * theta) * P).real, P

    fit = fit_conic(_chord_family(through, [TAU * k / 10 for k in range(10)]))
    assert fit.classification == "point"
    assert abs(fit.center - P) < 1e-12
    assert fit.residual < 1e-12
    assert fit.support(1.3) == pytest.approx((cmath.exp(-1.3j) * P).real)


def test_fit_rejects_non_conic_sample():
    # chords tangent to the convex curve with support 0.5 + 0.02 cos 3 theta
    # (radius of curvature h + h'' = 0.5 - 0.16 cos 3 theta > 0)
    def rounded_triangle(theta):
        h = 0.5 + 0.02 * math.cos(3 * theta)
        dh = -0.06 * math.sin(3 * theta)
        return h, cmath.exp(1j * theta) * complex(h, dh)

    fit = fit_conic(_chord_family(rounded_triangle, [TAU * k / 60 for k in range(60)]))
    assert fit.classification == "non-conic"
    assert fit.residual >= 1e-3
    assert fit.center is fit.semi_axes is fit.axis_angle is fit.foci is None
    with pytest.raises(InputError):
        fit.support(0.0)


def test_one_tolerance_gates_the_fit(monkeypatch):
    # chords moved 1e-11 off an ellipse: their residual lies between 1e-12
    # and circle._ELLIPSE_TOL, so the one constant decides the class
    curve = _ellipse_chords(0.1 - 0.05j, 0.5, 0.3, 0.4, count=90)
    wobble = np.exp(1e-11j * np.sin(7 * curve.angles))[:, None]
    moved = poncelet.EnvelopeCurve(0, curve.angles, curve.points, curve.chords * wobble)
    fit = fit_conic(moved)
    assert fit.classification == "ellipse"
    assert 1e-12 < fit.residual < circle._ELLIPSE_TOL
    monkeypatch.setattr(circle, "_ELLIPSE_TOL", 1e-12)
    fit = fit_conic(moved)
    assert fit.classification == "non-conic"
    assert fit.center is fit.semi_axes is fit.foci is None


def test_segment_chords_are_degenerate():
    # every chord through one of two points supports the segment between
    # them, whose squared minor axis is 0
    a, b = -0.3 + 0.1j, 0.4 - 0.2j

    def segment(theta):
        return max((a, b), key=lambda z: (cmath.exp(-1j * theta) * z).real)

    def support(theta):
        z = segment(theta)
        return (cmath.exp(-1j * theta) * z).real, z

    fit = fit_conic(_chord_family(support, [0.1 + TAU * k / 48 for k in range(48)]))
    assert fit.classification == "degenerate"
    assert fit.residual <= 1e-12
    assert fit.center is fit.semi_axes is fit.foci is None


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf")])
def test_fit_refuses_a_point_that_is_not_finite(bad):
    curve = _ellipse_chords(0j, 0.4, 0.3, 0.0, count=8)
    chords = curve.chords.copy()
    chords[5, 1] = bad
    with pytest.raises(InputError, match="finite lines"):
        fit_conic(poncelet.EnvelopeCurve(0, curve.angles, curve.points, chords))


def test_fit_needs_six_points():
    with pytest.raises(InputError, match="at least 6 tangent lines"):
        fit_conic(_ellipse_chords(0j, 0.4, 0.3, 0.0, count=5))


# ------------------------------------------------------------------- envelope


def test_envelope_degree_two_is_concurrent_point():
    # every chord of a degree-2 product passes through the nonzero zero:
    # w - lam conj(w) = a - conj(a) lam is solved by w = a for all lam
    rng = rng_for(401)
    for _ in range(4):
        a = 0.7 * cmath.exp(1j * rng.uniform(0, TAU)) * math.sqrt(rng.uniform(0, 1))
        B = BlaschkeProduct(1.0, (0j, a))
        (entry,) = package(B, 120).entries
        for s in entry.curve.samples:
            p, q = s.chord
            cross = ((q - p).conjugate() * (a - p)).imag
            assert abs(cross) < 1e-9
        fit = entry.fit
        assert fit.classification == "point"
        assert abs(fit.center - a) < 1e-9


def test_envelope_degree_three_matches_range_ellipse():
    # oracle: chords of a degree-3 product with zeros {0, b, c} envelope the
    # ellipse with foci b and c, major semi-axis |1 - conj(b) c| / 2, minor
    # semi-axis sqrt((1-|b|^2)(1-|c|^2)) / 2; identical to the numerical
    # range of the 2x2 shift matrix built on {b, c}
    rng = rng_for(402)
    for _ in range(4):
        b = 0.7 * cmath.exp(1j * rng.uniform(0, TAU)) * math.sqrt(rng.uniform(0, 1))
        c = 0.7 * cmath.exp(1j * rng.uniform(0, TAU)) * math.sqrt(rng.uniform(0, 1))
        B = BlaschkeProduct(1.0, (0j, b, c))
        (entry,) = package(B, 240).entries
        fit = entry.fit
        assert fit.classification == "ellipse"
        q = math.sqrt((1 - abs(b) ** 2) * (1 - abs(c) ** 2)) / 2
        p = abs(1 - b.conjugate() * c) / 2
        assert abs(fit.center - (b + c) / 2) < 1e-8
        assert abs(fit.semi_axes[0] - p) < 1e-8
        assert abs(fit.semi_axes[1] - q) < 1e-8
        got = sorted(fit.foci, key=lambda z: (z.real, z.imag))
        want = sorted([b, c], key=lambda z: (z.real, z.imag))
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-7


def test_curve_matches_shift_range_support():
    # the same object two ways: conic fit of the chord envelope versus the
    # numerical range boundary of the 2x2 compressed shift
    from blaschke.shiftop import numerical_range_boundary, shift_matrix

    b, c = 0.3 + 0.25j, -0.45 + 0.1j
    B = BlaschkeProduct(1.0, (0j, b, c))
    fit = package(B, 240).entries[0].fit
    sample = numerical_range_boundary(shift_matrix([b, c]), 180)
    mismatch = max(
        abs(fit.support(t) - h) for t, h in zip(sample.angles, sample.support)
    )
    assert mismatch < 1e-8


@pytest.mark.parametrize("degree, seed", [(6, 341), (8, 342)])
def test_poncelet_curve_lies_in_shift_range(degree, seed):
    # the boundary of W(S) for zeros Z is the skip-0 envelope of z * prod_Z:
    # no envelope point passes a support line of the swept range, and each
    # support line is reached up to the envelope's sampling
    from blaschke.shiftop import numerical_range_boundary, shift_matrix

    rng = rng_for(seed)
    Z = [random_point(rng) for _ in range(degree - 1)]
    env = package(BlaschkeProduct(1.0, (0j, *Z))).entries[0].curve.points
    sample = numerical_range_boundary(shift_matrix(Z), 360)
    for t, h in zip(sample.angles, sample.support):
        reach = max((cmath.exp(-1j * t) * e).real for e in env)
        assert reach <= h + 1e-9
        assert reach >= h - 1e-3


def test_envelope_grid_independence():
    Bh = B84
    fit_a = package(Bh, 360).entries[1].fit
    fit_b = package(Bh, 1080).entries[1].fit
    assert fit_a.classification == fit_b.classification == "ellipse"
    assert abs(fit_a.center - fit_b.center) < 1e-8
    assert abs(fit_a.semi_axes[0] - fit_b.semi_axes[0]) < 1e-8
    assert abs(fit_a.semi_axes[1] - fit_b.semi_axes[1]) < 1e-8


def test_envelope_points_inside_disk():
    Bh = B84
    for entry in package(Bh, 180).entries:
        curve = entry.curve
        assert all(abs(s.point) <= 1 + 1e-9 for s in curve.samples)
        assert all(abs(abs(s.chord[0]) - 1) < 1e-9 for s in curve.samples)


def test_envelope_skip_range_checked():
    # the gate of cli curve and tangency_audit passes exactly the skips that
    # name an entry of the package, and names the degree when it refuses; a
    # degree-1 product has no entry
    degree3 = BlaschkeProduct(1.0, (0j, 0.2 + 0j, 0.3j))
    degree1 = BlaschkeProduct(1.0, (0.2j,))
    refused = ((B84, 4), (B84, 5), (B84, -1), (degree3, -1), (degree3, 1), (degree1, 0))
    for B, skip in refused:
        with pytest.raises(InputError, match=f"skip must lie in .* for degree {B.degree}$"):
            poncelet._check_skip(B.degree, skip)
    for B in (B84, degree3):
        entries = package(B, 120).entries
        for skip in range(len(entries)):
            poncelet._check_skip(B.degree, skip)
            assert entries[skip].skip == skip


def test_closure_order_and_envelope_refuse_a_skip_that_is_not_an_integer():
    # the gate of cli curve and tangency_audit; an integral numpy skip passes
    with pytest.raises(InputError, match="skip must be an integer, got 0.5"):
        poncelet._check_skip(T.degree, 0.5)
    poncelet._check_skip(T.degree, np.int64(0))


def test_tangency_audit_checks_the_skip_as_envelope_does():
    # skip 9 names no chord family of a degree-4 level set
    fit = package(T, 120).entries[0].fit
    levels = solve_levels(T, [1j, -1.0])
    assert tangency_audit(fit, levels, 1) >= 0.0
    for skip in (9, 2, -1, 0.5):
        with pytest.raises(InputError, match="skip must"):
            tangency_audit(fit, levels, skip)


@pytest.mark.parametrize("samples", [100.5, 6.0])
def test_envelope_and_package_refuse_samples_that_are_not_an_integer(samples):
    with pytest.raises(InputError, match="envelope samples must be an integer"):
        package(T, samples)


@pytest.mark.parametrize("samples", [5, 0, -3])
def test_package_checks_the_samples_as_envelope_does(samples):
    with pytest.raises(InputError, match="at least 6 envelope samples"):
        package(B84, samples)


def test_envelope_tangency_touches_chord():
    # each envelope point must lie on its generating chord
    curve = package(B84, 120).entries[0].curve
    for s in curve.samples:
        p, q = s.chord
        cross = ((q - p).conjugate() * (s.point - p)).imag
        assert abs(cross) < 1e-9


def test_power_envelope_collapses_to_origin():
    # skip 1 on z^4 joins antipodal vertices; the diameters all pass through
    # the center, so the curve is the origin point
    B = BlaschkeProduct(1.0, (0j, 0j, 0j, 0j))
    curve = package(B, 90).entries[1].curve
    assert curve.diameter() < 1e-9
    assert max(abs(s.point) for s in curve.samples) < 1e-9


def test_diameter_is_the_full_pairwise_maximum():
    # diameter() meets each pair of samples once, block i against pts[i:]
    # only; |p - q| and |q - p| are the same bits, so it returns the bits of
    # the maximum over the full difference matrix: on every demo curve, on
    # the collapsed skip-1 curve of z^4, and on seeded curves of 6 to 1104
    # samples (70 is one block and a part)
    curves = [entry.curve for B in _demo_products() for entry in package(B, 720).entries]
    curves += [
        package(BlaschkeProduct(1.0, (0j, 0j, 0j, 0j)), 90).entries[1].curve,
        package(random_product(rng_for(415), 12, radius=0.8), 720).entries[2].curve,
        package(random_product(rng_for(416), 8, radius=0.8), 40).entries[1].curve,
    ]
    rng = rng_for(420)
    for degree, samples in [(3, 6), (7, 64), (10, 720), (17, 720), (24, 1100)]:
        B = random_product(rng, degree, radius=0.8)
        curves += [entry.curve for entry in package(B, samples).entries]
    assert min(len(c.points) for c in curves) == 6
    assert max(len(c.points) for c in curves) == 1104
    for c in curves:
        pts = c.points
        full = np.max(np.abs(pts[:, None] - pts[None, :]))
        assert c.diameter().hex() == float(full).hex()


def test_envelope_arrays_come_straight_from_the_table(monkeypatch):
    # package builds no per-sample object; the arrays are
    # read-only, and samples rebuilds exactly the tuples of the formula
    # e = (p psi'_p + q psi'_q) / (psi'_p + psi'_q) on the level sets
    B = random_product(rng_for(414), 12, radius=0.8)

    def refuse(*args):
        raise AssertionError("EnvelopeSample built on the compute path")

    with monkeypatch.context() as m:
        m.setattr(poncelet, "EnvelopeSample", refuse)
        pkg = package(B, 720)
    t = TAU * np.arange(60) / 60
    levels = solve_levels(B, np.exp(1j * t))
    for entry in pkg.entries:
        arrays = (entry.curve.angles, entry.curve.points, entry.curve.chords)
        assert not any(a.flags.writeable for a in arrays)
        hop = entry.skip + 1
        p, rp = levels.points.T, levels.rates.T
        q, rq = np.roll(p, -hop, axis=0), np.roll(rp, -hop, axis=0)
        e = (p * rp + q * rq) / (rp + rq)
        angle = np.broadcast_to(t, p.shape).ravel().tolist()
        want = zip(
            angle,
            e.ravel().tolist(),
            zip(p.ravel().tolist(), q.ravel().tolist()),
        )
        assert entry.curve.samples == tuple(want)


# ------------------------------------------------------------------- polygons


def test_polygon_vertices_are_fiber():
    lam = cmath.exp(0.7j)
    (verts,) = solve_levels(B84, [lam]).points.tolist()
    assert len(verts) == B84.degree
    for z in verts:
        assert abs(B84(z) - lam) < 1e-9


def test_poncelet_closure_for_random_targets():
    # Poncelet property: the closure count is independent of the starting
    # vertex; walking skip-0 chords returns to the start after 8 hops
    rng = rng_for(411)
    Bh = B84
    for _ in range(16):
        start = cmath.exp(1j * rng.uniform(0, TAU))
        orbit = invariant_orbit(Bh, start, 9)
        assert abs(orbit[8] - start) < 1e-8


def test_closure_orders_for_nonexample():
    assert [entry.closure for entry in package(B84, 120).entries] == [8, 4, 8, 2]


def test_closure_order_of_power():
    B = BlaschkeProduct(1.0, (0j,) * 8)
    # skip m joins every (m+1)-th vertex of a regular 8-gon
    assert [entry.closure for entry in package(B, 120).entries] == [8, 4, 8, 2]


# two zeros 1e-9 inside the circle next to 1 put g(1) 3.0e-9 from 1, within
# the closure certificate's 1e-8 of the start
NEAR_ONE = BlaschkeProduct(
    1.0, (1 - 1e-9, (1 - 1e-9) * cmath.exp(1e-9j), 0.3j, -0.5, 0.2 + 0.1j, 0.6j)
)


def test_closure_order_next_to_two_zeros_near_1_is_not_one_hop():
    # the first hop lands within 1e-8 of the start, yet the skip-m polygon
    # closes after n / gcd(n, m + 1) hops, as everywhere else
    orbit = invariant_orbit(NEAR_ONE, 1.0 + 0j, 7)
    assert abs(orbit[1] - orbit[0]) < 1e-8
    assert [entry.closure for entry in package(NEAR_ONE).entries] == [6, 3, 2]


def test_closure_refuses_an_orbit_displaced_by_twice_the_certificate():
    # the order is arithmetic, but only once the re-solved n-th iterate lies
    # within 1e-8 of the start
    orbit = invariant_orbit(B84, 1.0 + 0j, 9)
    assert [poncelet._closure(orbit, skip) for skip in range(4)] == [8, 4, 8, 2]
    near = orbit[:-1] + (orbit[0] * cmath.exp(5e-9j),)
    assert poncelet._closure(near, 1) == 4
    off = orbit[:-1] + (orbit[0] * cmath.exp(2e-8j),)
    with pytest.raises(VerificationFailure, match="failed to close: g\\^8"):
        poncelet._closure(off, 1)


def test_closure_order_refuses_an_orbit_that_does_not_close(monkeypatch):
    # the re-solved n-th iterate is measured against the start, so a level
    # set whose orbit misses its start fails the closure certificate;
    # package reads its orbit through its own import of circle._orbit
    real = circle._orbit

    def missed(points, z, count):
        orbit = real(points, z, count)
        return orbit[:-1] + (orbit[-1] * cmath.exp(1e-6j),)

    monkeypatch.setattr(poncelet, "_orbit", missed)
    with pytest.raises(VerificationFailure, match="failed to close"):
        package(B84, 120)


def _count_solves(monkeypatch) -> list[int]:
    """Count every level set poncelet solves, batched or through an orbit:
    all of them pass through circle.solve_levels.  Level sets are kept on
    each product, so a product counted must be new, or an earlier solve
    on it is counted as free."""
    calls = [0]
    real = circle.solve_levels

    def counted(B, lams):
        lams = list(lams)
        calls[0] += len(lams)
        return real(B, lams)

    monkeypatch.setattr(circle, "solve_levels", counted)
    monkeypatch.setattr(poncelet, "solve_levels", counted)
    return calls


def test_closure_order_solves_one_level_set(monkeypatch):
    # every skip's closure order is read off one orbit, the last row of
    # package's one solve, which passes through 1: no skip solves a level
    # set of its own.  Earlier tests solve on B84, so the count is taken on
    # an equal product of its own
    B = BlaschkeProduct(B84.gamma, B84.zeros)
    calls = _count_solves(monkeypatch)
    real = poncelet._orbit
    orbits = []

    def recorded(points, z, count):
        orbits.append((points, z, count))
        return real(points, z, count)

    monkeypatch.setattr(poncelet, "_orbit", recorded)
    pkg = package(B, 120)
    assert calls[0] == 15 + 1
    ((points, z, count),) = orbits
    assert (z, count) == (1.0, 9) and min(abs(p - 1.0) for p in points) < 1e-12
    assert [entry.closure for entry in pkg.entries] == [8, 4, 8, 2]


@pytest.mark.parametrize("degree,samples", [(3, 240), (8, 6), (8, 360), (11, 720)])
def test_package_solves_table_plus_one_level_set(monkeypatch, degree, samples):
    B = random_product(rng_for(412 + degree), degree, radius=0.8)
    calls = _count_solves(monkeypatch)
    package(B, samples)
    assert calls[0] == max(2, -(-samples // degree)) + 1


def _demo_products() -> list[BlaschkeProduct]:
    return [
        P.expand() if hasattr(P, "expand") else P for P in demo_corpus().values()
    ]


def test_package_makes_no_ellipse_call(monkeypatch):
    # package builds every curve and closure order and fits no conic: the
    # curves op of the benchmark reads closures and chords alone
    calls = count_ellipse_calls(monkeypatch)
    products = _demo_products() + [
        random_product(rng_for(417), 9, radius=0.8),
        random_product(rng_for(418), 16, radius=0.8),
    ]
    for B in products:
        assert len(package(B, 720)) == B.degree // 2
    assert calls[0] == 0


def test_an_entry_makes_one_ellipse_call_on_first_read(monkeypatch):
    # the first read of an entry's fit fits its curve; a second read
    # returns the same ConicFit and fits nothing
    calls = count_ellipse_calls(monkeypatch)
    for B in (_demo_products()[1], random_product(rng_for(419), 11, radius=0.8)):
        for entry in package(B, 720).entries:
            before = calls[0]
            fit = entry.fit
            assert calls[0] == before + 1
            assert entry.fit is fit
            assert calls[0] == before + 1


def _curves_op_products(monkeypatch) -> list[BlaschkeProduct]:
    """The 30 products of the op list of perfbench/run.py --workload curves
    --seed 1 --seconds 25."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    ops = importlib.import_module("workloads").build_ops("curves", 1, 25)
    return [op.product for op in ops]


def test_every_fit_read_is_fit_conic_of_its_curve(monkeypatch):
    # the fit an entry makes on first read has every bit of fit_conic on
    # its curve: on the demos, whose fits cover circles, points and
    # non-conics, and on the products the benchmark's curves op reads
    products = _demo_products() + _curves_op_products(monkeypatch)
    assert len(products) == 37
    for B in products:
        for entry in package(B, 720).entries:
            got, want = entry.fit, fit_conic(entry.curve)
            # == compares every field; repr tells 0.0 from -0.0
            assert got == want and repr(got) == repr(want)


def _tuple_levels(Bhat, lams):
    """solve_levels' record rebuilt from Python tuples, each row a one-row
    solve of its own target."""
    rows = [solve_levels(Bhat, [lam]) for lam in lams]

    def stack(name):
        return np.array([tuple(getattr(row, name)[0].tolist()) for row in rows])

    return circle.LevelSets(stack("angles"), stack("points"), stack("rates"))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("degree,samples", [(3, 240), (8, 6), (12, 720), (17, 720)])
def test_level_table_arrays_match_the_tuple_path(monkeypatch, degree, samples):
    # package reads one batched solve's arrays directly; every array of the
    # batch, and every package answer built on it, is bit-identical to level
    # sets solved one at a time and rebuilt from their Python tuples
    B = random_product(rng_for(415 + degree), degree, radius=0.8)
    count = max(2, -(-samples // degree))
    lams = np.exp(1j * TAU * np.arange(count) / count)
    batch, reference = solve_levels(B, lams), _tuple_levels(B, lams)
    for name in ("angles", "points", "rates"):
        got, want = getattr(batch, name), getattr(reference, name)
        assert got.shape == want.shape and _bits(got) == _bits(want)
    pkg = package(B, samples)
    monkeypatch.setattr(poncelet, "solve_levels", _tuple_levels)
    old = package(B, samples)
    assert len(pkg) == len(old)
    for entry, want in zip(pkg.entries, old.entries):
        assert (entry.skip, entry.closure) == (want.skip, want.closure)
        for a in ("angles", "points", "chords"):
            assert _bits(getattr(entry.curve, a)) == _bits(getattr(want.curve, a))
        assert repr(entry.fit) == repr(want.fit)


def _assert_entries_match_their_level_sets(B, pkg, samples):
    """Every entry of pkg against references built here from solve_levels
    at the package's level angles: each chord end lies on its level within
    1e-10 in angle, its chord joins vertex j to vertex j + skip + 1 of that
    level set, each tangency point is the psi'-weighted mean of its chord's
    ends, psi' summed here from the zeros, and each closure order is
    n // gcd(n, skip + 1)."""
    n = B.degree
    count = max(2, -(-samples // n))
    t = TAU * np.arange(count) / count
    levels = solve_levels(B, np.exp(1j * t))
    zeros = np.array(B.zeros)

    def rate(z):
        return ((1 - abs(zeros) ** 2) / abs(z[..., None] - zeros) ** 2).sum(axis=-1)

    assert len(pkg) == n // 2
    for entry in pkg.entries:
        curve, hop = entry.curve, entry.skip + 1
        assert np.array_equal(curve.angles, np.tile(t, n))
        p, q = curve.chords.T
        level = np.exp(1j * curve.angles)
        for ends in (p, q):
            assert np.max(np.abs(np.angle(B(ends) * level.conj())) / rate(ends)) <= 1e-10
        vertex = levels.points.T
        assert np.allclose(p, vertex.ravel(), rtol=0.0, atol=1e-12)
        assert np.allclose(q, np.roll(vertex, -hop, axis=0).ravel(), rtol=0.0, atol=1e-12)
        mean = (p * rate(p) + q * rate(q)) / (rate(p) + rate(q))
        assert np.max(np.abs(curve.points - mean)) <= 1e-12
        assert entry.closure == n // math.gcd(n, hop)


@pytest.mark.parametrize("degree", [10, 15, 24])
def test_package_matches_separate_envelopes_and_closures(degree):
    # every entry against its level sets, solved separately, and every
    # skip-m polygon closes after n / gcd(n, m+1) hops
    B = random_product(rng_for(413 + degree), degree, radius=0.8)
    _assert_entries_match_their_level_sets(B, package(B, 720), 720)


def test_package_matches_separate_calls_on_the_demo_corpus():
    # the same references on the fits random products never reach: circles
    # with both foci at the center (power8), non-conics (nonexample84,
    # deg6nonelliptic), point curves next to conic rows, and a single skip
    # (power2)
    seen = set()
    for name, P in demo_corpus().items():
        B = P.expand() if hasattr(P, "expand") else P
        pkg = package(B, 720)
        _assert_entries_match_their_level_sets(B, pkg, 720)
        for entry in pkg.entries:
            fit = entry.fit
            circle_fit = fit.classification == "ellipse" and fit.foci[0] == fit.foci[1]
            seen.add((name, "circle" if circle_fit else fit.classification))
    assert {("power8", "circle"), ("power2", "point"), ("nonexample84", "non-conic")} <= seen
    assert {("deg6nonelliptic", "non-conic"), ("elliptical8", "ellipse")} <= seen


# ----------------------------------------------------------- audits and match


def test_tangency_audit_degree_three():
    b, c = 0.4 + 0.2j, -0.1 - 0.3j
    B = BlaschkeProduct(1.0, (0j, b, c))
    fit = package(B, 240).entries[0].fit
    lams = [cmath.exp(1j * t) for t in (0.3, 1.7, 4.1)]
    assert tangency_audit(fit, solve_levels(B, lams)) < 1e-8


def test_tangency_audit_degree_two_point():
    # chords of a degree-2 product concur at the nonzero zero, so every side
    # supports the point curve exactly
    a = 0.4 + 0.2j
    B = BlaschkeProduct(1.0, (0j, a))
    fit = package(B, 240).entries[0].fit
    lams = [cmath.exp(1j * t) for t in (0.3, 1.7, 4.1)]
    assert tangency_audit(fit, solve_levels(B, lams)) < 1e-9


def test_tangency_audit_reads_every_chord_family_of_the_demo_corpus():
    # the envelope lies left of the counterclockwise chord p -> q, a
    # diagonal as much as an edge: elliptical8 at skip 2 is a family of
    # diagonals whose centroid lies on either side.  The level sets are
    # those cli curve audits
    audited = []
    for name, P in demo_corpus().items():
        B = P.expand() if hasattr(P, "expand") else P
        levels = solve_levels(B, SCENE_LAMBDAS)
        for entry in package(B, 720).entries:
            if entry.fit.classification in ("ellipse", "point"):
                gap = tangency_audit(entry.fit, levels, entry.skip)
                assert gap <= 1e-12, (name, entry.skip, gap)
                audited.append((name, entry.skip))
    assert ("elliptical8", 2) in audited and len(audited) == 17


def test_foci_vs_zeros_degree_three():
    b, c = -0.25 + 0.5j, 0.35 + 0.1j
    B = BlaschkeProduct(1.0, (0j, b, c))
    match = foci_vs_zeros(package(B, 240).entries[0].fit, B)
    assert max(match.distances) < 1e-7
    matched = sorted(match.matched_zeros, key=lambda z: (z.real, z.imag))
    want = sorted([b, c], key=lambda z: (z.real, z.imag))
    assert max(abs(x - y) for x, y in zip(matched, want)) < 1e-7


# -------------------------------------------------------------------- package


# the class of every envelope K_1, K_2, ... of the demo corpus: 11 ellipses,
# 6 points and 6 non-conics.  elliptical8's and chain3's K_4 are points only
# because the point test runs first: the bare solve reads chords through
# one point as a segment with an arbitrary center
DEMO_CLASSES = {
    "power2": ["point"],
    "power8": ["ellipse", "ellipse", "ellipse", "point"],
    "elliptical8": ["ellipse", "ellipse", "ellipse", "point"],
    "nonexample84": ["non-conic", "ellipse", "non-conic", "point"],
    "deg6elliptic": ["ellipse", "ellipse", "point"],
    "deg6nonelliptic": ["non-conic", "ellipse", "non-conic"],
    "chain3": ["non-conic", "ellipse", "non-conic", "point"],
}


@pytest.mark.parametrize("demo", sorted(DEMO_CLASSES))
def test_demo_envelope_classes(demo):
    # ellipses read at most 6.7e-15 and points spread at most 1.2e-15; the
    # non-conics read at least 9.4e-2
    P = demo_corpus()[demo]
    B = P.expand() if hasattr(P, "expand") else P
    fits = [entry.fit for entry in package(B, 720).entries]
    assert [fit.classification for fit in fits] == DEMO_CLASSES[demo]
    for fit in fits:
        if fit.classification == "non-conic":
            assert fit.residual >= 1e-2
        else:
            assert fit.residual <= 1e-13


@pytest.mark.parametrize("seed", [901, 902, 903])
def test_random_envelopes_leave_a_gap_around_the_tolerance(seed):
    # 279 envelopes per seed: the ellipses (K_1 of degree 3) read at most
    # 8.9e-15 and the non-conics at least 1.3e-4, at degree 128
    rng = rng_for(seed)
    for degree in [*range(3, 25), 32, 48, 64, 128]:
        B = random_product(rng, degree, radius=0.8)
        for entry in package(B, 720).entries:
            fit = entry.fit
            if fit.classification == "ellipse":
                assert fit.residual <= 1e-12, (degree, entry.skip)
            else:
                assert fit.classification == "non-conic", (degree, entry.skip)
                assert fit.residual >= 1e-5, (degree, entry.skip)


def test_package_nonexample():
    pkg = package(B84, 360)
    assert len(pkg) == 4
    kinds = [e.fit.classification for e in pkg.entries]
    assert kinds == ["non-conic", "ellipse", "non-conic", "point"]
    assert [e.closure for e in pkg.entries] == [8, 4, 8, 2]
    k2 = pkg.entries[1]
    for s in k2.curve.samples:
        assert abs(abs(s.point) - math.sqrt(0.5)) < 1e-6


# ------------------------------------------------------------------- file out


def test_curve_csv_round_trip():
    curve = package(B84, 24).entries[1].curve
    text = curve_csv(curve)
    lines = text.strip().splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == len(curve.samples) + 1
    t, re, im = lines[1].split(",")
    assert complex(float(re), float(im)) == curve.samples[0].point


def test_scene_svg_well_formed():
    entry = package(B84, 90).entries[1]
    curve, fit = entry.curve, entry.fit
    levels = solve_levels(B84, [cmath.exp(1j * t) for t in (0.4, 2.5, 4.6)])
    text = scene_svg(curve, fit, levels)
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    body = ET.tostring(root, encoding="unicode")
    assert "polyline" in body
    assert "K2" in body and "ellipse" in body


def test_scene_svg_marks_point_curve():
    B = BlaschkeProduct(1.0, (0j,) * 8)
    entry = package(B, 90).entries[3]
    curve, fit = entry.curve, entry.fit
    levels = solve_levels(B, [cmath.exp(1j * t) for t in (0.4, 2.5, 4.6)])
    text = scene_svg(curve, fit, levels)
    assert "point" in text
    ET.fromstring(text)
