import cmath
import math

import numpy as np
import pytest

from blaschke import BlaschkeProduct, InputError
from blaschke import shiftop
from blaschke.shiftop import (
    boundary_csv,
    is_elliptical_range,
    kippenhahn_eval,
    numerical_range_boundary,
    shift_matrix,
)

from conftest import TAU, rng_for, random_point, random_product

COS_QUARTER = math.cos(math.pi / 4)


# ------------------------------------------------------------------- entries


def test_matrix_entries_single_zero():
    A = shift_matrix([0.3 + 0.4j])
    assert A.size == 1
    assert abs(A.entries[0][0] - (0.3 + 0.4j)) < 1e-15


def test_non_finite_zero_rejected():
    with pytest.raises(InputError, match="zero .* is not finite"):
        shift_matrix([0.2, complex(math.nan, 0.0)])


def test_matrix_entries_jordan():
    A = shift_matrix([0j, 0j, 0j])
    M = np.array(A.entries)
    expected = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    assert np.max(np.abs(M - expected)) < 1e-15


def test_matrix_is_upper_triangular_with_zero_diagonal_entries():
    rng = rng_for(301)
    zeros = [0.1 + 0.2j, -0.3j, 0.5 + 0.1j]
    A = shift_matrix(zeros)
    M = np.array(A.entries)
    for i, a in enumerate(zeros):
        assert abs(M[i, i] - a) < 1e-15
    assert np.max(np.abs(np.tril(M, -1))) == 0.0


def test_two_by_two_entry_formula():
    a, b = 0.2 + 0.1j, -0.4 + 0.3j
    A = np.array(shift_matrix([a, b]).entries)
    off = math.sqrt(1 - abs(a) ** 2) * math.sqrt(1 - abs(b) ** 2)
    assert abs(A[0, 1] - off) < 1e-14


def test_eigenvalues_are_the_zeros():
    rng = rng_for(302)
    for _ in range(6):
        B = random_product(rng, int(rng.integers(2, 7)))
        M = np.array(shift_matrix(B.zeros).entries)
        eig = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag))
        zs = sorted(B.zeros, key=lambda z: (z.real, z.imag))
        for x, y in zip(eig, zs):
            assert abs(x - y) < 1e-10


# ------------------------------------------------------------------ boundary


def test_jordan_three_gives_circle():
    sample = numerical_range_boundary(shift_matrix([0j, 0j, 0j]), 720)
    for h, p in zip(sample.support, sample.points):
        assert abs(h - COS_QUARTER) < 1e-9
        assert abs(abs(p) - COS_QUARTER) < 1e-9


def test_boundary_points_realize_support():
    rng = rng_for(311)
    A = shift_matrix([0.2 + 0.3j, -0.1 + 0.4j, 0.25 - 0.2j])
    sample = numerical_range_boundary(A, 360)
    for t, h, p in zip(sample.angles, sample.support, sample.points):
        proj = (cmath.exp(-1j * t) * p).real
        assert abs(proj - h) < 1e-10


def test_support_contains_eigenvalues():
    rng = rng_for(312)
    zeros = [0.5 + 0.1j, -0.3 - 0.3j, 0.1 + 0.6j, 0.2 + 0j]
    sample = numerical_range_boundary(shift_matrix(zeros), 360)
    for t, h in zip(sample.angles, sample.support):
        best = max((cmath.exp(-1j * t) * a).real for a in zeros)
        assert h >= best - 1e-9


def test_unitary_invariance():
    rng = rng_for(313)
    zeros = [0.4 + 0.1j, -0.2 + 0.35j, 0.1 - 0.5j]
    M = np.array(shift_matrix(zeros).entries)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(G)
    rotated = Q @ M @ Q.conj().T
    a = numerical_range_boundary(M, 240)
    b = numerical_range_boundary(rotated, 240)
    assert max(abs(x - y) for x, y in zip(a.support, b.support)) < 1e-9


def test_zero_order_does_not_change_range():
    zeros = [0.4 + 0.1j, -0.2 + 0.35j, 0.1 - 0.5j]
    a = numerical_range_boundary(shift_matrix(zeros), 240)
    b = numerical_range_boundary(shift_matrix(list(reversed(zeros))), 240)
    assert max(abs(x - y) for x, y in zip(a.support, b.support)) < 1e-10


def test_boundary_needs_enough_samples():
    with pytest.raises(InputError):
        numerical_range_boundary(shift_matrix([0j, 0j]), 4)
    for A in (shift_matrix([0.3j, -0.2]), shift_matrix([0.3j, -0.2]).entries):
        with pytest.raises(InputError):
            numerical_range_boundary(A, 7)


def _oracle_zeros(rng, size: int) -> list[complex]:
    # seeded zeros with a repeated zero from size 3 up and one zero at 0
    # from size 2 up (two of them from size 8 up)
    zeros = [random_point(rng, 0.9) for _ in range(size)]
    if size >= 2:
        zeros[-1] = 0j
    if size >= 3:
        zeros[1] = zeros[0]
    if size >= 8:
        zeros[-2] = 0j
    return zeros


@pytest.mark.parametrize("size", [1, 2, 3, 8, 24, 63])
def test_tangency_sweep_matches_eigensolve(size):
    # a ShiftMatrix is swept from its zeros by the Poncelet tangency formula;
    # its plain entries go through the Hermitian eigen-sweep, the reference
    zeros = _oracle_zeros(rng_for(330 + size), size)
    A = shift_matrix(zeros)
    fast = numerical_range_boundary(A, 180)
    ref = numerical_range_boundary(A.entries, 180)
    assert fast.angles == ref.angles
    assert max(abs(x - y) for x, y in zip(fast.support, ref.support)) < 1e-12
    assert max(abs(x - y) for x, y in zip(fast.points, ref.points)) < 1e-9


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-12])
def test_tangency_sweep_certifies_zeros_near_the_circle(eps):
    # near a zero at 1 - eps the slope psi'1 + psi'2 of F is of order 1/eps,
    # so an accurate delta leaves |F| far above 1e-10; the certificate is on
    # the delta error |F|/(psi'1 + psi'2)
    for size in (3, 16, 63):
        rng = rng_for(350 + size)
        zeros = [random_point(rng, 0.9) for _ in range(size)]
        zeros[0] = (1.0 - eps) * cmath.exp(1.3j)
        A = shift_matrix(zeros)
        fast = numerical_range_boundary(A, 180)
        ref = numerical_range_boundary(A.entries, 180)
        assert max(abs(x - y) for x, y in zip(fast.support, ref.support)) < 1e-12
        assert max(abs(x - y) for x, y in zip(fast.points, ref.points)) < 1e-9


@pytest.mark.parametrize("size", [2, 3, 8, 16])
def test_first_envelope_of_z_times_the_product_is_the_numerical_range(size):
    # K_1 of z * prod_Z is the boundary of W(S) (Gau and Wu 1998): each
    # envelope point is the boundary point of the eigen-sweep at its chord's
    # outward normal angle, not only some point on the chord
    from blaschke.poncelet import envelope

    zeros = [random_point(rng_for(360 + size), 0.9) for _ in range(size)]
    curve = envelope(BlaschkeProduct(1.0, (0j, *zeros)), 0, 120)
    chords = [s.chord for s in curve.samples]
    normals = [cmath.phase(-1j * (q - p)) for p, q in chords]
    support, points = shiftop._eigen_sweep(shift_matrix(zeros).entries, normals)
    for s, theta, h, x in zip(curve.samples, normals, support, points):
        assert abs(s.point - x) < 1e-12
        assert abs((cmath.exp(-1j * theta) * s.point).real - h) < 1e-12


@pytest.mark.parametrize("degree,passes,rows", [(8, 5, 3100), (32, 4, 2400), (64, 3, 2300)])
def test_tangency_sweep_stops_within_a_few_passes(monkeypatch, degree, passes, rows):
    # each angle starts at pi/psi'(theta), where F would vanish at the local
    # rate; from the flat start pi/(n + 1) the 720 angles took 5, 4 and 4
    # Newton passes and 3260, 2821 and 2535 rows on these products
    B = random_product(rng_for(100 + degree), degree, radius=0.8)
    live = []
    real = shiftop._chord

    def counted(a, theta, delta):
        live.append(len(theta))
        return real(a, theta, delta)

    monkeypatch.setattr(shiftop, "_chord", counted)
    numerical_range_boundary(shift_matrix(B.zeros))
    # the certificate reads the last pass, so every call is a Newton pass
    assert len(live) <= passes
    assert sum(live) <= rows


def test_shift_matrix_sweep_makes_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve called for a ShiftMatrix")

    monkeypatch.setattr(shiftop.np.linalg, "eigh", refuse)
    monkeypatch.setattr(shiftop.np.linalg, "eigvalsh", refuse)
    sample = numerical_range_boundary(shift_matrix(_oracle_zeros(rng_for(339), 8)))
    assert len(sample.points) == 720


def test_one_by_one_range_is_its_zero():
    a = 0.35 - 0.5j
    A = shift_matrix([a])
    sample = numerical_range_boundary(A, 720)
    assert max(abs(p - a) for p in sample.points) < 1e-14
    verdict = is_elliptical_range(A, 720)
    assert verdict.fit.classification == "point"


# ------------------------------------------------------------ ellipse verdict


def test_two_by_two_ellipse_against_closed_form():
    # elliptical range theorem for a 2x2 matrix: foci at the eigenvalues,
    # minor semi-axis sqrt(tr(A*A) - |a|^2 - |b|^2) / 2
    rng = rng_for(321)
    for _ in range(6):
        a = 0.6 * cmath.exp(1j * rng.uniform(0, TAU)) * math.sqrt(rng.uniform(0, 1))
        b = 0.6 * cmath.exp(1j * rng.uniform(0, TAU)) * math.sqrt(rng.uniform(0, 1))
        verdict = is_elliptical_range(shift_matrix([a, b]), 360)
        assert verdict.is_ellipse
        fit = verdict.fit
        q = math.sqrt((1 - abs(a) ** 2) * (1 - abs(b) ** 2)) / 2
        p = math.sqrt(q**2 + abs(a - b) ** 2 / 4)
        assert abs(fit.center - (a + b) / 2) < 1e-9
        assert abs(fit.semi_axes[0] - p) < 1e-9
        assert abs(fit.semi_axes[1] - q) < 1e-9
        got_foci = sorted(fit.foci, key=lambda z: (z.real, z.imag))
        want_foci = sorted([a, b], key=lambda z: (z.real, z.imag))
        assert max(abs(x - y) for x, y in zip(got_foci, want_foci)) < 1e-8


def test_jordan_three_is_a_disk():
    verdict = is_elliptical_range(shift_matrix([0j, 0j, 0j]), 360)
    assert verdict.is_ellipse
    assert abs(verdict.fit.semi_axes[0] - COS_QUARTER) < 1e-9
    assert abs(verdict.fit.semi_axes[1] - COS_QUARTER) < 1e-9


def test_generic_three_zeros_not_an_ellipse():
    verdict = is_elliptical_range(
        shift_matrix([0.5 + 0.2j, -0.4 + 0.1j, 0.1 - 0.55j]), 360
    )
    assert not verdict.is_ellipse


def test_accepts_plain_arrays():
    M = np.array([[0.2, 0.5], [0, -0.1]], dtype=complex)
    sample = numerical_range_boundary(M, 90)
    assert len(sample.points) == 90


# ----------------------------------------------------------------- kippenhahn


def test_kippenhahn_jordan_closed_form():
    # det(u Re + v Im + w I) for the 3x3 nilpotent Jordan block works out to
    # w^3 - w (u^2 + v^2) / 2 by direct expansion
    A = shift_matrix([0j, 0j, 0j])
    for u, v, w in [(1.0, 0.0, 1.0), (0.3, -0.7, 0.9), (0.0, 1.0, 2.0)]:
        expected = w**3 - w * (u**2 + v**2) / 2
        assert abs(kippenhahn_eval(A, u, v, w) - expected) < 1e-12


def test_kippenhahn_vanishes_on_tangent_coordinates():
    # the support line Re(e^{-it} z) = h(t) corresponds to the projective
    # point (cos t, sin t, -h); the form vanishes there
    A = shift_matrix([0.25 + 0.2j, -0.3 + 0.1j, 0.1 + 0.4j])
    sample = numerical_range_boundary(A, 36)
    for t, h in zip(sample.angles, sample.support):
        val = kippenhahn_eval(A, math.cos(t), math.sin(t), -h)
        assert abs(val) < 1e-9


# ------------------------------------------------------------------------ csv


def test_boundary_csv_shape():
    sample = numerical_range_boundary(shift_matrix([0j, 0j]), 12)
    text = boundary_csv(sample)
    lines = text.strip().splitlines()
    assert lines[0] == "theta,h,re,im"
    assert len(lines) == 13
    theta, h, re, im = lines[1].split(",")
    assert float(theta) == 0.0
    assert abs(float(h) - 0.5) < 1e-12
