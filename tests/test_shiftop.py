import cmath
import math

import numpy as np
import pytest

from blaschke import BlaschkeProduct, InputError
from blaschke import shiftop
from blaschke.cli import DEMO_BUILDERS, _as_product
from blaschke.core import _origin_dropped
from blaschke.shiftop import (
    boundary_csv,
    is_elliptical_range,
    kippenhahn_eval,
    numerical_range_boundary,
    shift_matrix,
)

from conftest import TAU, rng_for, random_point, random_product
from test_ceilings import _elliptical

COS_QUARTER = math.cos(math.pi / 4)


# ------------------------------------------------------------------- entries


def test_matrix_entries_single_zero():
    A = shift_matrix([0.3 + 0.4j])
    assert A.size == 1
    assert abs(A.entries[0][0] - (0.3 + 0.4j)) < 1e-15


def test_non_finite_zero_rejected():
    with pytest.raises(InputError, match="zero .* is not finite"):
        shift_matrix([0.2, complex(math.nan, 0.0)])


@pytest.mark.parametrize("sweep", [numerical_range_boundary, is_elliptical_range])
def test_empty_matrix_is_an_input_error(sweep):
    with pytest.raises(InputError, match="nonempty"):
        sweep(np.zeros((0, 0)))


@pytest.mark.parametrize("sweep", [numerical_range_boundary, is_elliptical_range])
def test_sweep_count_must_be_an_integer(sweep):
    # package refuses 100.5 samples too
    with pytest.raises(InputError, match="sweep direction count must be an integer"):
        sweep(shift_matrix([0j, 0.5 + 0j]), 100.5)


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


def _loop_shift_matrix(zeros):
    """The model matrix entry by entry: A_ij = run d_i d_j, with run the
    product of -conj(a_l) over i < l < j taken left to right."""
    n = len(zeros)
    defect = [math.sqrt(max(0.0, 1.0 - abs(a) ** 2)) for a in zeros]
    A = np.zeros((n, n), dtype=complex)
    for i in range(n):
        A[i, i] = zeros[i]
        run = 1.0 + 0j
        for j in range(i + 1, n):
            A[i, j] = run * defect[i] * defect[j]
            run *= -zeros[j].conjugate()
    return A


def test_shift_matrix_matches_the_entrywise_loop_to_the_bit():
    # every third matrix has half its zeros at the origin, and every fifth
    # only real zeros, so signed zeros meet the running products too
    rng = rng_for(330)
    for trial in range(60):
        n = int(rng.integers(1, 70))
        zeros = [random_point(rng, 0.95) for _ in range(n)]
        if trial % 3 == 0:
            zeros[: n // 2] = [0j] * (n // 2)
        if trial % 5 == 0:
            zeros = [complex(-z.real, -0.0) for z in zeros]
        got = shift_matrix(zeros).entries
        assert got.tobytes() == _loop_shift_matrix(zeros).tobytes(), (trial, n)


def test_origin_dropped_takes_the_least_modulus_zero():
    zeros = (1e-10 + 0j, 0j, 0.5 + 0j, -0.4j)
    assert _origin_dropped(zeros) == (1e-10 + 0j, 0.5 + 0j, -0.4j)
    # the first of equal moduli goes, and nothing goes when no zero is
    # within _IDENTITY_TOL = 1e-9
    assert _origin_dropped((0j, 0.3 + 0j, 0j)) == (0.3 + 0j, 0j)
    assert _origin_dropped((5e-10 + 0j, 0.3 + 0j)) == (0.3 + 0j,)
    assert _origin_dropped((5e-9 + 0j, 0.3 + 0j)) is None
    assert _origin_dropped((1e-8 + 0j, 0.3 + 0j)) is None
    assert _origin_dropped((0j,)) == ()


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


def _assert_matches_the_eigen_sweep(A, samples):
    # the eigen-sweep of the plain entries at the chord normals, the
    # reference, gives the same support values and boundary points
    sample = numerical_range_boundary(A, samples)
    support, points = shiftop._eigen_sweep(A.entries, sample.angles)
    assert max(abs(x - y) for x, y in zip(sample.support, support)) < 1e-12
    assert max(abs(x - y) for x, y in zip(sample.points, points)) < 1e-9


@pytest.mark.parametrize("size", [1, 2, 3, 8, 24, 63])
def test_tangency_sweep_matches_eigensolve(size):
    # a ShiftMatrix is read off the K_1 chords of z times its zeros, whose
    # normals are ascending in [0, 2 pi) but not uniform
    A = shift_matrix(_oracle_zeros(rng_for(330 + size), size))
    angles = numerical_range_boundary(A, 180).angles
    assert len(angles) == 180
    assert 0.0 <= angles[0] and all(x < y for x, y in zip(angles, angles[1:]))
    assert angles[-1] < TAU
    _assert_matches_the_eigen_sweep(A, 180)


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-12])
def test_tangency_sweep_certifies_zeros_near_the_circle(eps):
    # near a zero at 1 - eps psi' is of order 1/eps, so an accurate circle
    # solution leaves its offset far above 1e-10; the certificate is on the
    # argument error |f|/psi'
    for size in (3, 16, 63):
        rng = rng_for(350 + size)
        zeros = [random_point(rng, 0.9) for _ in range(size)]
        zeros[0] = (1.0 - eps) * cmath.exp(1.3j)
        _assert_matches_the_eigen_sweep(shift_matrix(zeros), 180)


@pytest.mark.parametrize("size", [2, 3, 8, 16])
def test_first_envelope_of_z_times_the_product_is_the_numerical_range(size):
    # K_1 of z * prod_Z is the boundary of W(S) (Gau and Wu 1998): each
    # envelope point is the boundary point of the eigen-sweep at its chord's
    # outward normal angle, not only some point on the chord
    from blaschke.poncelet import package

    zeros = [random_point(rng_for(360 + size), 0.9) for _ in range(size)]
    curve = package(BlaschkeProduct(1.0, (0j, *zeros)), 120).entries[0].curve
    chords = [s.chord for s in curve.samples]
    normals = [cmath.phase(-1j * (q - p)) for p, q in chords]
    support, points = shiftop._eigen_sweep(shift_matrix(zeros).entries, normals)
    for s, theta, h, x in zip(curve.samples, normals, support, points):
        assert abs(s.point - x) < 1e-12
        assert abs((cmath.exp(-1j * theta) * s.point).real - h) < 1e-12


@pytest.mark.parametrize("samples", [8, 180, 720, 721])
def test_shift_range_solves_one_level_batch(monkeypatch, samples):
    # every chord comes from one solve of max(2, ceil(samples/(n + 1)))
    # level sets of z times the zeros, and exactly samples of them are kept
    calls = []
    real = shiftop.solve_levels

    def counted(B, lams):
        calls.append(len(lams))
        return real(B, lams)

    monkeypatch.setattr(shiftop, "solve_levels", counted)
    rng = rng_for(340)
    for size in range(1, 64):
        calls.clear()
        zeros = [random_point(rng, 0.9) for _ in range(size)]
        sample = numerical_range_boundary(shift_matrix(zeros), samples)
        assert calls == [max(2, -(-samples // (size + 1)))], size
        assert len(sample.angles) == len(sample.support) == len(sample.points) == samples


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
    # a range whose boundary points lie within rounding of one point is that
    # point, with their spread as residual
    assert not verdict.is_ellipse
    assert verdict.center is verdict.semi_axes is verdict.foci is None
    assert verdict.residual <= 1e-14


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
        q = math.sqrt((1 - abs(a) ** 2) * (1 - abs(b) ** 2)) / 2
        p = math.sqrt(q**2 + abs(a - b) ** 2 / 4)
        assert abs(verdict.center - (a + b) / 2) < 1e-12
        assert abs(verdict.semi_axes[0] - p) < 1e-12
        assert abs(verdict.semi_axes[1] - q) < 1e-12
        got_foci = sorted(verdict.foci, key=lambda z: (z.real, z.imag))
        want_foci = sorted([a, b], key=lambda z: (z.real, z.imag))
        assert max(abs(x - y) for x, y in zip(got_foci, want_foci)) < 1e-8


def test_jordan_three_is_a_disk():
    verdict = is_elliptical_range(shift_matrix([0j, 0j, 0j]), 360)
    assert verdict.is_ellipse
    assert abs(verdict.semi_axes[0] - COS_QUARTER) < 1e-9
    assert abs(verdict.semi_axes[1] - COS_QUARTER) < 1e-9
    assert verdict.foci == (verdict.center, verdict.center)


def test_generic_three_zeros_not_an_ellipse():
    verdict = is_elliptical_range(
        shift_matrix([0.5 + 0.2j, -0.4 + 0.1j, 0.1 - 0.55j]), 360
    )
    assert not verdict.is_ellipse


def _model_space_matrix(B):
    """The compressed shift that cli nrange sweeps: one origin zero dropped
    when B(0) = 0."""
    rest = _origin_dropped(B.zeros)
    return shift_matrix(B.zeros if rest is None else rest)


def _demo_matrix(demo):
    return _model_space_matrix(_as_product(DEMO_BUILDERS[demo]()))


DEMO_ELLIPSES = {"power8": True, "elliptical8": True, "deg6elliptic": True,
                 "nonexample84": False, "deg6nonelliptic": False, "chain3": False,
                 "power2": False}


@pytest.mark.parametrize("demo", sorted(DEMO_ELLIPSES))
def test_demo_corpus_ellipse_verdicts(demo):
    # the ellipses' support lines miss their equations by rounding, and the
    # non-ellipses' far more; power2's range is the point 0, a point, whose
    # residual is the rounding spread of its boundary points
    verdict = is_elliptical_range(_demo_matrix(demo))
    assert verdict.is_ellipse is DEMO_ELLIPSES[demo]
    if verdict.is_ellipse:
        assert verdict.residual <= 1e-12
        return
    assert verdict.center is verdict.semi_axes is verdict.foci is None
    if demo == "power2":
        assert verdict.residual <= 1e-14
    else:
        assert verdict.residual >= 1e-3


def _point_conic(points):
    """Center, semi-axes (major first) and foci of the least-squares conic
    through points: the six monomials' smallest right singular vector, an
    independent reference for the range verdict's tangent-line fit."""
    z = np.asarray(points)
    x, y = z.real, z.imag
    design = np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)], axis=1)
    A, B, C, D, E, F = np.linalg.svd(design)[2][-1]
    cx, cy = np.linalg.solve([[2 * A, B], [B, 2 * C]], [-D, -E])
    G = A * cx * cx + B * cx * cy + C * cy * cy + D * cx + E * cy + F
    lam, vec = np.linalg.eigh([[A, B / 2], [B / 2, C]])
    p, q = sorted((math.sqrt(-G / v) for v in lam), reverse=True)
    major = vec[:, int(np.argmax(-G / lam))]
    # axes that differ by rounding alone are a circle's (core._ROUND_GAP)
    offset = 0j if p - q <= 1e-12 * p else math.sqrt(p * p - q * q) * complex(*major)
    center = complex(cx, cy)
    return center, (p, q), (center + offset, center - offset)


def test_demo_ellipses_match_their_conic_fits():
    # the conic through the swept points and the ellipse read off the
    # support lines agree
    for demo in ("power8", "elliptical8", "deg6elliptic"):
        verdict = is_elliptical_range(_demo_matrix(demo))
        center, axes, foci = _point_conic(verdict.sample.points)
        assert abs(verdict.center - center) < 1e-14
        assert max(abs(x - y) for x, y in zip(verdict.semi_axes, axes)) < 1e-14
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        got, want = sorted(verdict.foci, key=key), sorted(foci, key=key)
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-14


@pytest.mark.parametrize("n", [8, 16, 24])
def test_elliptical_family_ranges_are_ellipses(n):
    verdict = is_elliptical_range(_model_space_matrix(_elliptical(n)))
    assert verdict.is_ellipse
    assert verdict.residual <= 1e-10


def test_random_ranges_are_not_ellipses():
    # the least residual here is 2.2e-3, five decades above _ELLIPSE_TOL
    rng = rng_for(3)
    for degree in range(3, 40):
        B = random_product(rng, degree)
        verdict = is_elliptical_range(shift_matrix(B.zeros))
        assert not verdict.is_ellipse, degree
        assert verdict.residual >= 1e-3, degree


def test_segment_range_is_not_an_ellipse():
    # W(diag(0, 1)) = [0, 1]: its support lines are tangent to the
    # "ellipse" with center 1/2 and squared reach cos^2(theta)/4, whose
    # minor axis is 0
    verdict = is_elliptical_range(np.diag([0.0, 1.0]))
    assert verdict.residual <= 1e-12
    assert not verdict.is_ellipse


def test_zero_matrix_range_is_not_an_ellipse():
    # W(0) is the point 0: every boundary point is 0, so the spread is too
    verdict = is_elliptical_range(np.zeros((3, 3)))
    assert not verdict.is_ellipse
    assert verdict.center is verdict.semi_axes is verdict.foci is None
    assert verdict.residual <= 1e-14


@pytest.mark.parametrize("samples", [360, 720, 721, 1000, 1440])
def test_thin_two_by_two_ellipse(samples):
    # zeros 1e-5 inside the circle give q/p ~ 1e-5 and q^2 ~ 1e-10, below the
    # rounding of a0 ~ 1, so q^2 = a0 - |m| would cancel to about 4e-6 q;
    # the semi-axes come from the squared reach about the center instead,
    # which reads 1.6e-8 q to 3.1e-7 q at these sample counts
    a, b = 0.99999, -0.99999j
    verdict = is_elliptical_range(shift_matrix([a, b]), samples)
    assert verdict.is_ellipse
    q = (1 - abs(a) ** 2) / 2
    assert abs(verdict.center - (a + b) / 2) < 1e-12
    assert abs(verdict.semi_axes[1] - q) < 1e-6 * q
    got_foci = sorted(verdict.foci, key=lambda z: z.real)
    assert max(abs(x - y) for x, y in zip(got_foci, [b, a])) < 1e-10


@pytest.mark.parametrize("depth", [1e-4, 1e-5, 1e-6])
def test_small_two_by_two_ellipse_near_the_circle(depth):
    # zeros r and r e^{3e-7 i}, r = 1 - depth, give a range of size about
    # depth at distance about 1 from 0: the tangency equations are solved
    # about the mean tangency point, or their right sides |s|^2 / 4 ~ 1
    # swallow a0 ~ depth^2 and the range reads as a non-conic.  The axes
    # read 1.2e-13 to 3.3e-11 relative of the closed form (1 - |b|^2)(1 -
    # |c|^2) = (2q)^2 and |1 - conj(b) c| = 2p, taken in 50 digits
    mpmath = pytest.importorskip("mpmath")
    b = 1 - depth
    c = b * cmath.exp(3e-7j)
    verdict = is_elliptical_range(shift_matrix([b, c]))
    assert verdict.is_ellipse, verdict.residual
    with mpmath.workdps(50):
        zb, zc = mpmath.mpc(b), mpmath.mpc(c)
        q = mpmath.sqrt((1 - abs(zb) ** 2) * (1 - abs(zc) ** 2)) / 2
        p = abs(1 - mpmath.conj(zb) * zc) / 2
        assert abs(verdict.semi_axes[1] - q) <= 1e-10 * q
        assert abs(verdict.semi_axes[0] - p) <= 1e-9 * p
    assert abs(verdict.center - (b + c) / 2) <= 1e-9 * depth


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


@pytest.mark.parametrize("uvw", [(math.nan, 0, 1), (1, math.inf, 1), (1, 0, complex(0, math.nan))])
def test_kippenhahn_refuses_non_finite_arguments(uvw):
    with pytest.raises(InputError, match="is not finite"):
        kippenhahn_eval(shift_matrix([0.3, 0.2j]), *uvw)


@pytest.mark.parametrize("sweep", [numerical_range_boundary, is_elliptical_range, kippenhahn_eval])
def test_non_finite_matrix_entries_are_refused(sweep):
    args = (1.0, 0.0, 1.0) if sweep is kippenhahn_eval else (8,)
    with pytest.raises(InputError, match="matrix entry .* is not finite"):
        sweep([[1, 0], [0, math.nan]], *args)


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
