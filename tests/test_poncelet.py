import cmath
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from blaschke import (
    BlaschkeProduct,
    InputError,
    VerificationFailure,
)
from blaschke import circle, poncelet
from blaschke.circle import invariant_orbit, solve_on_circle
from blaschke.cli import demo_corpus
from blaschke.core import DEFAULT_TOL
from blaschke.poncelet import (
    closure_order,
    curve_csv,
    envelope,
    fit_conic,
    foci_vs_zeros,
    package,
    scene_svg,
    tangency_audit,
)

from conftest import TAU, rng_for, random_point, random_product

B84 = BlaschkeProduct(
    1.0, (0j, 0j, 0j, 0j, 0.84 + 0j, -0.84 + 0j, 0.84j, -0.84j)
)


# --------------------------------------------------------------- conic fitting


def _ellipse_points(center, p, q, angle, count=40, phase=0.05):
    out = []
    for k in range(count):
        t = phase + TAU * k / count
        out.append(
            center
            + cmath.exp(1j * angle) * complex(p * math.cos(t), q * math.sin(t))
        )
    return out


def test_fit_recovers_synthetic_ellipse():
    center, p, q, angle = 0.21 - 0.13j, 0.57, 0.31, 0.83
    fit = fit_conic(_ellipse_points(center, p, q, angle))
    assert fit.classification == "ellipse"
    assert abs(fit.center - center) < 1e-9
    assert abs(fit.semi_axes[0] - p) < 1e-9
    assert abs(fit.semi_axes[1] - q) < 1e-9
    assert min(
        abs((fit.axis_angle - angle) % math.pi),
        abs((fit.axis_angle - angle) % math.pi - math.pi),
    ) < 1e-9
    c = math.sqrt(p * p - q * q)
    want = sorted(
        [center + c * cmath.exp(1j * angle), center - c * cmath.exp(1j * angle)],
        key=lambda z: (z.real, z.imag),
    )
    got = sorted(fit.foci, key=lambda z: (z.real, z.imag))
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-9


def test_fit_support_function_against_sampling():
    center, p, q, angle = 0.1 + 0.2j, 0.5, 0.22, 1.9
    pts = _ellipse_points(center, p, q, angle, count=20000)
    fit = fit_conic(pts[:200])
    for theta in (0.0, 0.7, 2.0, 3.9, 5.5):
        direct = max((cmath.exp(-1j * theta) * z).real for z in pts)
        assert abs(fit.support(theta) - direct) < 1e-6


def test_fit_classifies_circle():
    fit = fit_conic(_ellipse_points(0j, 0.4, 0.4, 0.0))
    assert fit.classification == "ellipse"
    assert abs(fit.semi_axes[0] - fit.semi_axes[1]) < 1e-10


def test_round_fit_puts_both_foci_at_the_center():
    # power8's K_1 is a circle whose fitted axes differ by rounding alone,
    # (p - q)/p = 3.8e-15, which sqrt(p^2 - q^2) made into foci 1e-7 apart;
    # elliptical8's K_1 is a true ellipse, (p - q)/p = 8.4e-2
    demos = demo_corpus()
    fit = fit_conic(envelope(demos["power8"], 0).points)
    assert fit.classification == "ellipse"
    assert fit.foci == (fit.center, fit.center)
    fit = fit_conic(envelope(demos["elliptical8"], 0).points)
    p, q = fit.semi_axes
    f1, f2 = fit.foci
    assert abs(f1 - f2) == pytest.approx(2.0 * math.sqrt(p * p - q * q), rel=1e-12)
    assert abs(f1 - f2) > 0.1 and abs(0.5 * (f1 + f2) - fit.center) < 1e-15


def test_fit_detects_point():
    fit = fit_conic([0.3 + 0.1j] * 10)
    assert fit.classification == "point"
    assert abs(fit.center - (0.3 + 0.1j)) < 1e-12
    assert fit.support(1.3) == pytest.approx((cmath.exp(-1.3j) * (0.3 + 0.1j)).real)


def test_fit_rejects_non_conic_sample():
    pts = []
    for k in range(60):
        t = TAU * k / 60
        r = 0.6 + 0.18 * math.cos(3 * t)
        pts.append(r * cmath.exp(1j * t))
    fit = fit_conic(pts)
    assert fit.classification == "non-conic"
    with pytest.raises(InputError):
        fit.support(0.0)


def test_fit_needs_six_points():
    with pytest.raises(InputError):
        fit_conic([0j, 1j, 2j, 3j, 4j])


# ------------------------------------------------------------------- envelope


def test_envelope_degree_two_is_concurrent_point():
    # every chord of a degree-2 product passes through the nonzero zero:
    # w - lam conj(w) = a - conj(a) lam is solved by w = a for all lam
    rng = rng_for(401)
    for _ in range(4):
        a = 0.7 * cmath.exp(1j * rng.uniform(0, TAU)) * math.sqrt(rng.uniform(0, 1))
        B = BlaschkeProduct(1.0, (0j, a))
        curve = envelope(B, 0, 120)
        for s in curve.samples:
            p, q = s.chord
            cross = ((q - p).conjugate() * (a - p)).imag
            assert abs(cross) < 1e-9
        fit = fit_conic(curve.points)
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
        fit = fit_conic(envelope(B, 0, 240).points)
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
    fit = fit_conic(envelope(B, 0, 240).points)
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
    env = envelope(BlaschkeProduct(1.0, (0j, *Z)), 0).points
    sample = numerical_range_boundary(shift_matrix(Z), 360)
    for t, h in zip(sample.angles, sample.support):
        reach = max((cmath.exp(-1j * t) * e).real for e in env)
        assert reach <= h + 1e-9
        assert reach >= h - 1e-3


def test_envelope_grid_independence():
    Bh = B84
    fit_a = fit_conic(envelope(Bh, 1, 360).points)
    fit_b = fit_conic(envelope(Bh, 1, 1080).points)
    assert fit_a.classification == fit_b.classification == "ellipse"
    assert abs(fit_a.center - fit_b.center) < 1e-8
    assert abs(fit_a.semi_axes[0] - fit_b.semi_axes[0]) < 1e-8
    assert abs(fit_a.semi_axes[1] - fit_b.semi_axes[1]) < 1e-8


def test_envelope_points_inside_disk():
    Bh = B84
    for skip in range(4):
        curve = envelope(Bh, skip, 180)
        assert all(abs(s.point) <= 1 + 1e-9 for s in curve.samples)
        assert all(abs(abs(s.chord[0]) - 1) < 1e-9 for s in curve.samples)


def test_envelope_skip_range_checked():
    Bh = B84
    with pytest.raises(InputError):
        envelope(Bh, 4, 120)
    with pytest.raises(InputError):
        envelope(Bh, -1, 120)


def test_envelope_tangency_touches_chord():
    # each envelope point must lie on its generating chord
    Bh = B84
    curve = envelope(Bh, 0, 120)
    for s in curve.samples:
        p, q = s.chord
        cross = ((q - p).conjugate() * (s.point - p)).imag
        assert abs(cross) < 1e-9


def test_power_envelope_collapses_to_origin():
    # skip 1 on z^4 joins antipodal vertices; the diameters all pass through
    # the center, so the curve is the origin point
    B = BlaschkeProduct(1.0, (0j, 0j, 0j, 0j))
    curve = envelope(B, 1, 90)
    assert curve.diameter() < 1e-9
    assert max(abs(s.point) for s in curve.samples) < 1e-9
    # diameter() takes its maximum block by block: the same float as the
    # maximum over the full difference matrix, for 92, 720 and 40 samples
    curves = [
        curve,
        envelope(random_product(rng_for(415), 12, radius=0.8), 2, 720),
        envelope(random_product(rng_for(416), 8, radius=0.8), 1, 40),
    ]
    assert [len(c.points) for c in curves] == [92, 720, 40]
    for c in curves:
        pts = c.points
        assert c.diameter() == np.max(np.abs(pts[:, None] - pts[None, :]))


def test_envelope_arrays_come_straight_from_the_table(monkeypatch):
    # package and envelope build no per-sample object; the arrays are
    # read-only, and samples rebuilds exactly the tuples of the formula
    # e = (p psi'_p + q psi'_q) / (psi'_p + psi'_q) on the level table
    B = random_product(rng_for(414), 12, radius=0.8)

    def refuse(*args):
        raise AssertionError("EnvelopeSample built on the compute path")

    with monkeypatch.context() as m:
        m.setattr(poncelet, "EnvelopeSample", refuse)
        pkg = package(B, 720)
        curve = envelope(B, 3, 720)
    assert curve == pkg.entry(4).curve
    table = poncelet._level_sets(B, 60, DEFAULT_TOL)
    for entry in pkg.entries:
        arrays = (entry.curve.angles, entry.curve.points, entry.curve.chords)
        assert not any(a.flags.writeable for a in arrays)
        hop = entry.skip + 1
        p, rp = table.points, table.rate
        q, rq = np.roll(p, -hop, axis=0), np.roll(rp, -hop, axis=0)
        e = (p * rp + q * rq) / (rp + rq)
        angle = np.broadcast_to(table.t, p.shape).ravel().tolist()
        want = zip(
            angle,
            e.ravel().tolist(),
            zip(p.ravel().tolist(), q.ravel().tolist()),
        )
        assert entry.curve.samples == tuple(want)


# ------------------------------------------------------------------- polygons


def test_polygon_vertices_are_fiber():
    lam = cmath.exp(0.7j)
    verts = solve_on_circle(B84, lam)
    assert len(verts) == B84.degree
    for k in range(len(verts)):
        assert abs(B84(verts.point(k)) - lam) < 1e-9


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
    Bh = B84
    assert [closure_order(Bh, m) for m in range(4)] == [8, 4, 8, 2]


def test_closure_order_of_power():
    B = BlaschkeProduct(1.0, (0j,) * 8)
    # skip m joins every (m+1)-th vertex of a regular 8-gon
    assert [closure_order(B, m) for m in range(4)] == [8, 4, 8, 2]


def test_closure_order_refuses_an_orbit_that_does_not_close(monkeypatch):
    # the closing hop is measured against the re-solved n-th iterate, so a
    # level set whose orbit misses its start fails the closure certificate
    def missed(B, z, count, tol=None):
        orbit = invariant_orbit(B, z, count, tol)
        return orbit[:-1] + (orbit[-1] * cmath.exp(1e-6j),)

    monkeypatch.setattr(poncelet, "invariant_orbit", missed)
    with pytest.raises(VerificationFailure, match="failed to close"):
        closure_order(B84, 0)
    with pytest.raises(VerificationFailure, match="failed to close"):
        package(B84, 120)


def _count_solves(monkeypatch) -> list[int]:
    """Count every level set poncelet solves, batched or through an orbit:
    all of them pass through circle.solve_levels."""
    calls = [0]
    real = circle.solve_levels

    def counted(B, lams, *args, **kwargs):
        lams = list(lams)
        calls[0] += len(lams)
        return real(B, lams, *args, **kwargs)

    monkeypatch.setattr(circle, "solve_levels", counted)
    monkeypatch.setattr(poncelet, "solve_levels", counted)
    return calls


def test_closure_order_solves_one_level_set(monkeypatch):
    calls = _count_solves(monkeypatch)
    for skip in range(4):
        calls[0] = 0
        closure_order(B84, skip)
        assert calls[0] == 1


@pytest.mark.parametrize("degree,samples", [(3, 240), (8, 5), (8, 360), (11, 720)])
def test_package_solves_table_plus_one_level_set(monkeypatch, degree, samples):
    B = random_product(rng_for(412 + degree), degree, radius=0.8)
    calls = _count_solves(monkeypatch)
    package(B, samples)
    assert calls[0] == max(2, -(-samples // degree)) + 1


@pytest.mark.parametrize("degree", [10, 15, 24])
def test_package_matches_separate_envelopes_and_closures(degree):
    # the shared table, velocities and orbit change no bit of any entry, and
    # every skip-m polygon closes after n / gcd(n, m+1) hops
    B = random_product(rng_for(413 + degree), degree, radius=0.8)
    samples = 720
    pkg = package(B, samples)
    assert len(pkg) == degree // 2
    for entry in pkg.entries:
        assert entry.closure == degree // math.gcd(degree, entry.skip + 1)
        curve = envelope(B, entry.skip, samples)
        assert entry.curve == curve
        assert entry.fit == fit_conic(curve.points)
        assert entry.closure == closure_order(B, entry.skip)


# ----------------------------------------------------------- audits and match


def test_tangency_audit_degree_three():
    b, c = 0.4 + 0.2j, -0.1 - 0.3j
    B = BlaschkeProduct(1.0, (0j, b, c))
    curve = envelope(B, 0, 240)
    fit = fit_conic(curve.points)
    lams = [cmath.exp(1j * t) for t in (0.3, 1.7, 4.1)]
    assert tangency_audit(fit, [solve_on_circle(B, lam) for lam in lams]) < 1e-8


def test_tangency_audit_degree_two_point():
    # chords of a degree-2 product concur at the nonzero zero, so every side
    # supports the point curve exactly
    a = 0.4 + 0.2j
    B = BlaschkeProduct(1.0, (0j, a))
    curve = envelope(B, 0, 240)
    fit = fit_conic(curve.points)
    lams = [cmath.exp(1j * t) for t in (0.3, 1.7, 4.1)]
    assert tangency_audit(fit, [solve_on_circle(B, lam) for lam in lams]) < 1e-9


def test_foci_vs_zeros_degree_three():
    b, c = -0.25 + 0.5j, 0.35 + 0.1j
    B = BlaschkeProduct(1.0, (0j, b, c))
    curve = envelope(B, 0, 240)
    match = foci_vs_zeros(fit_conic(curve.points), B)
    assert match.max_distance < 1e-7
    matched = sorted(match.matched_zeros, key=lambda z: (z.real, z.imag))
    want = sorted([b, c], key=lambda z: (z.real, z.imag))
    assert max(abs(x - y) for x, y in zip(matched, want)) < 1e-7


# -------------------------------------------------------------------- package


def test_package_nonexample():
    pkg = package(B84, 360)
    assert len(pkg) == 4
    kinds = [e.fit.classification for e in pkg.entries]
    assert kinds == ["non-conic", "ellipse", "non-conic", "point"]
    assert [e.closure for e in pkg.entries] == [8, 4, 8, 2]
    k2 = pkg.entry(2)
    for s in k2.curve.samples:
        assert abs(abs(s.point) - math.sqrt(0.5)) < 1e-6


def test_package_entry_lookup():
    pkg = package(B84, 120)
    assert pkg.entry(1).skip == 0
    with pytest.raises(InputError):
        pkg.entry(0)
    with pytest.raises(InputError):
        pkg.entry(5)


# ------------------------------------------------------------------- file out


def test_curve_csv_round_trip():
    Bh = B84
    curve = envelope(Bh, 1, 24)
    text = curve_csv(curve)
    lines = text.strip().splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == len(curve.samples) + 1
    t, re, im = lines[1].split(",")
    assert complex(float(re), float(im)) == curve.samples[0].point


def test_scene_svg_well_formed():
    Bh = B84
    curve = envelope(Bh, 1, 90)
    fit = fit_conic(curve.points)
    level_sets = [solve_on_circle(Bh, cmath.exp(1j * t)) for t in (0.4, 2.5, 4.6)]
    text = scene_svg(curve, fit, level_sets)
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    body = ET.tostring(root, encoding="unicode")
    assert "polyline" in body
    assert "K2" in body and "ellipse" in body


def test_scene_svg_marks_point_curve():
    B = BlaschkeProduct(1.0, (0j,) * 8)
    curve = envelope(B, 3, 90)
    fit = fit_conic(curve.points)
    level_sets = [solve_on_circle(B, cmath.exp(1j * t)) for t in (0.4, 2.5, 4.6)]
    text = scene_svg(curve, fit, level_sets)
    assert "point" in text
    ET.fromstring(text)
