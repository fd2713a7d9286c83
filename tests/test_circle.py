import cmath
import math
import time

import numpy as np
import pytest

from blaschke import BlaschkeProduct, CompositionChain, InputError
from blaschke.circle import (
    argument_derivative,
    chord_second_intersection,
    invariant_orbit,
    lifted_argument,
    next_preimage,
    solve_levels,
    solve_on_circle,
    verify_generator_power,
)
from blaschke import circle
from blaschke.errors import BlaschkeError

from conftest import TAU, circle_grid, random_point, random_product, rng_for


# ------------------------------------------------------------------- lifting


def test_lift_of_power_is_linear():
    B = BlaschkeProduct(1.0, (0j,) * 5)
    for t in (0.0, 0.3, 2.2, 6.1, 9.4, -1.7):
        assert abs(lifted_argument(B, t) - 5.0 * t) < 1e-9


def test_lift_is_strictly_increasing():
    rng = rng_for(101)
    B = random_product(rng, 4)
    ts = [TAU * k / 400 for k in range(401)]
    vals = [lifted_argument(B, t) for t in ts]
    for lo, hi in zip(vals, vals[1:]):
        assert hi > lo


def test_lift_gains_full_turns():
    rng = rng_for(102)
    B = random_product(rng, 6)
    base = lifted_argument(B, 0.25)
    assert abs(lifted_argument(B, 0.25 + TAU) - base - 6 * TAU) < 1e-9


def test_lift_consistent_with_evaluation():
    rng = rng_for(103)
    B = random_product(rng, 5)
    for t in (0.1, 1.9, 3.3, 5.6):
        psi = lifted_argument(B, t)
        assert abs(B(cmath.exp(1j * t)) - cmath.exp(1j * psi)) < 1e-9


def test_argument_derivative_against_differences():
    # oracle: central differences of the lift
    rng = rng_for(104)
    B = random_product(rng, 4)
    h = 1e-6
    for t in (0.2, 1.4, 4.0):
        fd = (lifted_argument(B, t + h) - lifted_argument(B, t - h)) / (2 * h)
        assert abs(argument_derivative(B, t) - fd) < 1e-5


def test_argument_derivative_positive():
    rng = rng_for(105)
    for _ in range(5):
        B = random_product(rng, int(rng.integers(1, 7)))
        for t in (0.0, 0.8, 2.9, 5.1):
            assert argument_derivative(B, t) > 0.0


def test_argument_derivative_of_angle_array():
    B = random_product(rng_for(106), 7)
    ts = np.array([[0.0, 0.8], [2.9, 5.1]])
    rates = argument_derivative(B, ts)
    assert rates.shape == ts.shape
    for t, rate in zip(ts.ravel(), rates.ravel()):
        z = cmath.exp(1j * t)
        assert abs(rate - (z * B.derivative(z) / B(z)).real) < 1e-12


# ------------------------------------------------------------- circle solves


def test_solve_power_roots_of_unity():
    B = BlaschkeProduct(1.0, (0j,) * 6)
    sol = solve_on_circle(B, 1.0 + 0j)
    assert len(sol) == 6
    for k in range(6):
        assert abs(sol.point(k) - cmath.exp(1j * TAU * k / 6)) < 1e-10


def test_solve_residuals_and_ordering():
    rng = rng_for(111)
    for _ in range(6):
        B = random_product(rng, int(rng.integers(2, 8)))
        lam = cmath.exp(1j * rng.uniform(0, TAU))
        sol = solve_on_circle(B, lam)
        assert len(sol) == B.degree
        for k in range(len(sol)):
            assert abs(B(sol.point(k)) - lam) < 1e-9
        angles = [sol.angle(k) for k in range(len(sol))]
        for lo, hi in zip(angles, angles[1:]):
            assert 0 < hi - lo < TAU


def test_solve_rejects_interior_target():
    B = BlaschkeProduct(1.0, (0j, 0j))
    with pytest.raises(InputError):
        solve_on_circle(B, 0.5 + 0j)


def test_solution_angle_wraps_by_turns():
    B = BlaschkeProduct(1.0, (0j,) * 4)
    sol = solve_on_circle(B, 1.0 + 0j)
    assert abs(sol.angle(4) - (sol.angle(0) + TAU)) < 1e-12
    assert abs(sol.point(4) - sol.point(0)) < 1e-12


def _level_polynomial_roots(B, lam) -> np.ndarray:
    # B(z) = lam  <=>  gamma prod (z - a_j) - lam prod (1 - conj(a_j) z) = 0;
    # polymul drops the zero leading coefficient a zero at 0 gives the
    # second product, so the two are subtracted aligned at the constant term
    top = np.poly(B.zeros)
    bottom = np.array([1.0 + 0j])
    for a in B.zeros:
        bottom = np.polymul(bottom, [-a.conjugate(), 1.0])
    return np.roots(np.polysub(B.gamma * top, lam * bottom))


@pytest.mark.parametrize("degree", [3, 5, 8, 12, 16, 20, 24])
def test_level_sets_match_polynomial_roots(degree):
    # independent oracle: the roots of the cleared-denominator polynomial,
    # found by a companion-matrix eigensolve rather than by any circle solve
    B = random_product(rng_for(150 + degree), degree, radius=0.8)
    lams = [cmath.exp(1j * t) for t in (0.0, 0.9, 2.3, 3.7, 5.2)]
    levels = solve_levels(B, lams)
    assert levels == [solve_on_circle(B, lam) for lam in lams]
    for lam, sol in zip(lams, levels):
        roots = _level_polynomial_roots(B, lam)
        for z in sol.points:
            assert np.min(np.abs(roots - z)) < 1e-12


@pytest.mark.parametrize("seed,degree", [(905, 14), (902, 16), (905, 20), (901, 24)])
def test_level_solve_stops_within_a_few_passes(monkeypatch, seed, degree):
    # on these products an absolute bracket test (hi - lo < 1e-16) never
    # fires for some roots past t = 0.5 and their Newton loop runs to its
    # 80-pass cap; the ulp-relative stop ends every root within a few passes
    B = random_product(rng_for(seed), degree, radius=0.8)
    passes = [0]
    real = circle._circle_terms

    def counted(*args):
        passes[0] += 1
        return real(*args)

    monkeypatch.setattr(circle, "_circle_terms", counted)
    lams = [cmath.exp(1j * TAU * q / 8) for q in range(8)]
    levels = solve_levels(B, lams)
    assert passes[0] <= 6
    for lam, sol in zip(lams, levels):
        assert max(abs(B(z) - lam) for z in sol.points) < 1e-10


_SOLVE_PRODUCTS = [(905, 14), (902, 16), (905, 20), (901, 24), (948, 48), (964, 64)]


@pytest.mark.parametrize("seed,degree", _SOLVE_PRODUCTS)
def test_level_solve_evaluates_b_twice(monkeypatch, seed, degree):
    # the Hermite start on the lift grid leaves one Newton pass to settle
    # every root, and the certificate reads that pass's own evaluation
    # instead of evaluating B again at the same points
    B = random_product(rng_for(seed), degree, radius=0.8)
    lams = [cmath.exp(1j * TAU * q / 8) for q in range(8)]
    solve_levels(B, lams)
    passes = [0]
    real = circle._circle_terms

    def counted(*args):
        passes[0] += 1
        return real(*args)

    monkeypatch.setattr(circle, "_circle_terms", counted)
    solve_levels(B, lams)
    assert passes[0] == 2


@pytest.mark.parametrize("seed,degree", _SOLVE_PRODUCTS)
def test_level_solve_certifies_the_points_it_returns(monkeypatch, seed, degree):
    # the f and psi' the certificate checks are those of a fresh evaluation
    # at the returned points, bit for bit
    B = random_product(rng_for(seed), degree, radius=0.8)
    lams = [cmath.exp(1j * (0.1 + TAU * q / 5)) for q in range(5)]
    seen = []
    real = circle._certify

    def recorded(f, rate, name):
        seen.append((f, rate))
        return real(f, rate, name)

    monkeypatch.setattr(circle, "_certify", recorded)
    levels = solve_levels(B, lams)
    (f, rate), = seen
    certified = np.sort((np.abs(f) / rate).reshape(len(lams), degree), axis=1)
    for lam, sol, row in zip(lams, levels, certified):
        w, fresh_rate = circle._circle_terms(B, np.array(sol.points))
        assert np.array_equal(np.array(sol.rates), fresh_rate)
        error = np.abs(np.angle(w * np.conj(lam))) / fresh_rate
        assert np.array_equal(np.sort(error), row)
        assert error.max() <= 5e-11


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8, 1e-12])
def test_roots_next_to_a_zero_close_to_the_circle_certify_in_16_evaluations(
    monkeypatch, gap
):
    # psi' changes by orders of magnitude across the cells next to the zero;
    # on 720 levels every root still stops within 16 evaluations of B, the
    # last of which is its certificate
    B = BlaschkeProduct(1.0, (0j, (1.0 - gap) * cmath.exp(1j)))
    lams = [cmath.exp(1j * TAU * q / 720) for q in range(720)]
    counts = np.zeros(720 * B.degree, dtype=int)
    real = circle._bracketed_newton

    def counted(evaluate, x, lo, hi, base):
        def each(live, xl):
            counts[live] += 1
            return evaluate(live, xl)

        return real(each, x, lo, hi, base)

    monkeypatch.setattr(circle, "_bracketed_newton", counted)
    solve_levels(B, lams)
    assert 1 <= counts.min() and counts.max() <= 16


def test_solve_certifies_roots_near_a_zero_close_to_the_circle():
    # next to a zero at 1 - 1e-6 psi' is about 2e6, so an accurate root can
    # leave |B(z) - lam| above 1e-10; the certificate is on the argument
    # error |f|/psi', which stays at rounding level
    B = BlaschkeProduct(1.0, (0j, (1.0 - 1e-6) * cmath.exp(1j)))
    for t in (0.0, math.pi / 2, 4.6, math.pi, 2.5):
        lam = cmath.exp(1j * t)
        sol = solve_on_circle(B, lam)
        roots = _level_polynomial_roots(B, lam)
        for angle in sol.angles:
            oracle = np.angle(roots) % TAU
            gap = np.abs(np.remainder(oracle - angle + math.pi, TAU) - math.pi)
            assert gap.min() < 1e-12


def test_solve_and_lift_next_to_a_zero_within_root_tol_of_1():
    # B.evaluate(1) refuses here (its denominator 1 - conj(a) is 1e-13), but
    # the factor (1 - a)/(1 - conj(a)) has modulus 1 and no pole, so psi(0)
    # and the lift need no evaluation at 1
    B = BlaschkeProduct(1.0, (0.3j, 1.0 - 1e-13))
    with pytest.raises(BlaschkeError):
        B.evaluate(1.0)
    sol = solve_on_circle(B, 1j)
    roots = _level_polynomial_roots(B, 1j)
    oracle = np.angle(roots) % TAU
    for angle in sol.angles:
        gap = np.abs(np.remainder(oracle - angle + math.pi, TAU) - math.pi)
        assert gap.min() < 1e-12
        turn = (lifted_argument(B, angle) - math.pi / 2) / TAU
        assert abs(turn - round(turn)) < 1e-9
    assert 0.0 <= lifted_argument(B, 0.0) < TAU


def test_solve_levels_of_no_targets_is_empty():
    assert solve_levels(BlaschkeProduct(1.0, (0j, 0.5j)), []) == []


# ------------------------------------------------------------ invariant maps


def test_next_preimage_preserves_value():
    rng = rng_for(121)
    for _ in range(6):
        B = random_product(rng, int(rng.integers(2, 7)))
        z = cmath.exp(1j * rng.uniform(0, TAU))
        w = next_preimage(B, z)
        assert abs(abs(w) - 1.0) < 1e-9
        assert abs(B(w) - B(z)) < 1e-9
        assert abs(w - z) > 1e-6


def test_orbit_starts_exactly_and_cycles():
    rng = rng_for(122)
    B = random_product(rng, 5)
    z = cmath.exp(0.37j)
    orbit = invariant_orbit(B, z, 6)
    assert orbit[0] == z
    assert abs(orbit[5] - z) < 1e-9
    for a, b in zip(orbit, orbit[1:]):
        assert abs(a - b) > 1e-6


def test_orbit_next_to_a_zero_within_root_tol_of_its_start():
    # B.evaluate(1) refuses here; the start's level is read off the
    # unit-modulus factors, which have no pole, and the level set through 1
    # still holds 1, so the orbit closes after deg B = 2 steps
    B = BlaschkeProduct(1.0, (0.3j, 1.0 - 1e-13))
    with pytest.raises(BlaschkeError):
        B.evaluate(1.0)
    orbit = invariant_orbit(B, 1.0, 3)
    assert orbit[0] == 1.0 and abs(orbit[2] - 1.0) < 1e-12
    lam = circle._circle_terms(B, np.array([1.0 + 0j]))[0][0]
    roots = _level_polynomial_roots(B, lam)
    assert np.min(np.abs(roots - orbit[1])) < 1e-12
    assert abs(orbit[1] - 1.0) > 0.1


def test_orbit_preserves_circular_order():
    # successive solutions of B = lambda are met in rotation order, so the
    # orbit angles must be a cyclic shift of their sorted arrangement
    rng = rng_for(123)
    B = random_product(rng, 6)
    z = cmath.exp(1.91j)
    orbit = invariant_orbit(B, z, 6)
    args = [cmath.phase(w) % TAU for w in orbit]
    start = args.index(min(args))
    rotated = args[start:] + args[:start]
    assert rotated == sorted(rotated)


def test_generator_sample_orbit():
    rng = rng_for(124)
    B = random_product(rng, 4)
    z = cmath.exp(2.2j)
    orb = invariant_orbit(B, z, 5)
    assert len(orb) == 5
    assert abs(orb[0] - z) < 1e-15
    for step in range(1, 4):
        assert abs(orb[step] - next_preimage(B, z, steps=step)) < 1e-12
        assert abs(B.evaluate(orb[step]) - B.evaluate(z)) < 1e-9
    assert abs(orb[4] - z) < 1e-9


def test_two_step_matches_iterated_single_step():
    rng = rng_for(125)
    B = random_product(rng, 5)
    z = cmath.exp(0.9j)
    assert abs(next_preimage(B, z, steps=2) - next_preimage(B, next_preimage(B, z))) < 1e-9


# -------------------------------------------------- generator power structure


def _chain_with_inner_mobius(rng, levels: int, gamma: complex = -1.0) -> CompositionChain:
    a = 0.2 + 0.35j
    inner = BlaschkeProduct(gamma, (0j, a))
    outers = [random_product(rng, 2, radius=0.5) for _ in range(levels - 1)]
    return CompositionChain(tuple(outers) + (inner,))


def test_generator_power_reaches_inner_mobius():
    rng = rng_for(131)
    chain = _chain_with_inner_mobius(rng, 2)
    check = verify_generator_power(chain)
    assert check.ok
    assert check.power == 2
    assert check.sup_error < 1e-9
    # any unimodular constant on the innermost factor keeps its fibers {z, phi_a(z)}
    for gamma in (1.0, cmath.exp(0.7j)):
        check = verify_generator_power(_chain_with_inner_mobius(rng, 3, gamma))
        assert check.ok
        assert check.power == 4
        assert check.sup_error < 1e-9


def test_generator_power_requires_degree_two_factors():
    bad = CompositionChain(
        (BlaschkeProduct(1.0, (0j, 0j, 0j)), BlaschkeProduct(-1.0, (0j, 0.3 + 0j)))
    )
    with pytest.raises(InputError):
        verify_generator_power(bad)


def test_generator_power_requires_origin_zero_inside():
    bad = CompositionChain(
        (BlaschkeProduct(-1.0, (0j, 0.3 + 0j)), BlaschkeProduct(-1.0, (0.2 + 0j, 0.3 + 0j)))
    )
    with pytest.raises(InputError):
        verify_generator_power(bad)


# -------------------------------------------------------------------- chords


def test_chord_second_intersection_geometry():
    rng = rng_for(141)
    for _ in range(10):
        a = random_product(rng, 1).zeros[0]
        z = cmath.exp(1j * rng.uniform(0, TAU))
        w = chord_second_intersection(a, z)
        assert abs(abs(w) - 1.0) < 1e-12
        # collinear with a and z: the cross product of the two directions
        # vanishes
        cross = ((w - z).conjugate() * (a - z)).imag
        assert abs(cross) < 1e-10
        phi = (a - z) / (1 - a.conjugate() * z)
        assert abs(w - phi) < 1e-10


def test_chord_through_center_hits_antipode():
    z = cmath.exp(0.77j)
    assert abs(chord_second_intersection(0j, z) + z) < 1e-12


def test_chord_rejects_bad_arguments():
    with pytest.raises(InputError):
        chord_second_intersection(1.5 + 0j, 1.0 + 0j)
    with pytest.raises(InputError):
        chord_second_intersection(0.2 + 0j, 0.5 + 0j)


# ------------------------------------------------------------------ lift grid


@pytest.mark.parametrize("gap", [1e-8, 1e-12])
@pytest.mark.parametrize("with_origin", [False, True])
def test_solve_certifies_zeros_within_1e_8_and_1e_12_of_the_circle(gap, with_origin):
    # the grid is refined only next to the zero, so it stays small however
    # close the zero comes, and every root still meets the argument-error
    # certificate
    near = (1.0 - gap) * cmath.exp(1j)
    B = BlaschkeProduct(1.0, (0j, near) if with_origin else (near,))
    lams = [-1.0, 1j, cmath.exp(2.5j)]
    for lam, sol in zip(lams, solve_levels(B, lams)):
        assert len(sol) == B.degree
        points = np.array(sol.points)
        w, rate = circle._circle_terms(B, points)
        circle._certify(np.angle(w * np.conj(lam)), rate, str)
    assert len(circle._lift_grid(B)[0]) - 1 < 1000


def test_lift_grid_refuses_a_zero_at_1e_15_promptly():
    # the zero's factor turns once round the circle within a few ulps of
    # angle 1, so no cell there can be split until psi gains less than 0.5;
    # the grid says so instead of halving forever
    B = BlaschkeProduct(1.0, (0j, (1.0 - 1e-15) * cmath.exp(1j)))
    start = time.perf_counter()
    with pytest.raises(BlaschkeError, match="zero modulus is 0.999999999999999"):
        solve_on_circle(B, -1.0)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("degree", [3, 8, 17, 32, 64])
def test_lift_grid_matches_a_dense_unwrap(degree):
    # independent oracle: np.unwrap of arg B, evaluated factor by factor on
    # a uniform grid fine enough that every step gains far less than pi,
    # merged with the lift grid's own points
    B = random_product(rng_for(170 + degree), degree, radius=0.8)
    ts, psi, _ = circle._lift_grid(B)
    assert np.all(np.diff(ts) > 0.0)
    assert np.all((np.diff(psi) > 0.0) & (np.diff(psi) < 0.5))
    assert abs(psi[-1] - psi[0] - TAU * degree) < 1e-12
    dense = np.union1d(np.linspace(0.0, TAU, 2**14 + 1), ts)
    unwrapped = np.unwrap(np.angle(B.evaluate(np.exp(1j * dense))))
    unwrapped += psi[0] - unwrapped[0]
    at_grid = unwrapped[np.searchsorted(dense, ts)]
    assert np.max(np.abs(at_grid - psi)) < 1e-12


@pytest.mark.parametrize("angle", [1e-6, 1e-8, TAU - 1e-5, TAU - 1e-7])
@pytest.mark.parametrize("gap", [1e-9, 1e-10, 1e-11, 1e-12])
def test_lift_grid_solves_zeros_near_angle_0(gap, angle):
    # the grid refines next to t = 0 for a zero near angle 0, where a far
    # factor gains about 1e-17 per cell; a gain wrapped into [0, 2 pi) turned
    # a rounding of -1e-17 into about 2 pi there, and the lift refused as
    # "not increasing"; the gain on w = 1 - a conj(z) is never wrapped
    rng = rng_for(3)
    lams = [-1.0, 1j, cmath.exp(2.5j)]
    for _ in range(5):
        near = [(1.0 - gap) * cmath.exp(1j * t) for t in (angle, rng.uniform(0.0, TAU))]
        B = BlaschkeProduct(1.0, (*near, *(random_point(rng, 0.8) for _ in range(4))))
        for lam, sol in zip(lams, solve_levels(B, lams)):
            assert len(sol) == B.degree
            w, rate = circle._circle_terms(B, np.array(sol.points))
            circle._certify(np.angle(w * np.conj(lam)), rate, str)


def _factor_gain(a: complex, t1: float, t2: float) -> float:
    """One factor's gain from e^{i t1} to e^{i t2} by _arc_gain, plus its
    rotation part t2 - t1."""
    w1, w2 = (circle._circle_w(np.array([a]), np.array(t)) for t in (t1, t2))
    return t2 - t1 + float(circle._arc_gain(w1, w2))


def _oracle_gain(mpmath, a: complex, t1: float, t2: float) -> float:
    """The same gain at 50 digits: the factor's phase change on an arc
    shorter than a turn, where it gains less than 2 pi."""
    with mpmath.workdps(50):
        am = mpmath.mpc(a.real, a.imag)

        def factor(t):
            z = mpmath.expj(mpmath.mpf(t))
            return (z - am) / (1 - mpmath.conj(am) * z)

        return float(mpmath.arg(factor(t2) / factor(t1)) % (2 * mpmath.pi))


def test_arc_gain_matches_mpmath_on_random_arcs():
    mpmath = pytest.importorskip("mpmath")
    rng = rng_for(7)
    for _ in range(100):
        a = random_point(rng, 0.95)
        t1 = rng.uniform(0.0, TAU)
        t2 = t1 + rng.uniform(0.0, TAU)
        assert abs(_factor_gain(a, t1, t2) - _oracle_gain(mpmath, a, t1, t2)) < 4e-15


def test_arc_gain_matches_mpmath_next_to_a_zero_at_1e_12():
    # ends at least 0.1 from the zero's angle: w there is far from 0, so the
    # gain is accurate both across the zero (about 2 pi) and beside it
    mpmath = pytest.importorskip("mpmath")
    a = (1.0 - 1e-12) * cmath.exp(1j)
    for t1, t2 in [(0.5, 1.5), (0.9, 1.1), (0.0, 0.9), (1.1, 6.0), (1.5, 0.5 + TAU)]:
        assert abs(_factor_gain(a, t1, t2) - _oracle_gain(mpmath, a, t1, t2)) < 1e-14


def test_arc_gain_of_an_arc_of_1e_17_at_angle_0_is_not_a_turn():
    # a wrapped gain read a rounding of -1e-17 as about 2 pi; the w form
    # reads it as about 0.  The rounding of w itself, about 1e-16, can still
    # put such a gain a little below 0 for some directions of a, so every
    # direction is held to the oracle and a = 0.3 also to its sign
    mpmath = pytest.importorskip("mpmath")
    gain = _factor_gain(0.3, 0.0, 1e-17)
    assert 0.0 <= gain and abs(gain - _oracle_gain(mpmath, 0.3, 0.0, 1e-17)) < 1e-15
    for k in range(16):
        a = 0.3 * cmath.exp(1j * TAU * k / 16)
        oracle = _oracle_gain(mpmath, a, 0.0, 1e-17)
        assert abs(_factor_gain(a, 0.0, 1e-17) - oracle) < 1e-15
