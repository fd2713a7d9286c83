import cmath
import gc
import math
import time
import warnings
import weakref

import numpy as np
import pytest

from blaschke import BlaschkeProduct, CompositionChain, InputError, compose, normalize
from blaschke.core import _IDENTITY_TOL, _MATCH_TOL
from blaschke.circle import (
    invariant_orbit,
    invariant_orbits,
    next_preimage,
    solve_levels,
    verify_generator_power,
)
from blaschke import circle
from blaschke.critical import critical_data
from blaschke.decompose import inner_factor_general
from blaschke.errors import BlaschkeError, SolverFailure
from blaschke.monodromy import monodromy_group
from blaschke.shiftop import is_elliptical_range, shift_matrix

from conftest import TAU, circle_grid, random_point, random_product, rng_for


# ------------------------------------------------------------------- lifting


def test_lift_of_power_is_linear():
    B = BlaschkeProduct(1.0, (0j,) * 5)
    ts, psi, _ = circle._lift_grid(B)
    assert np.max(np.abs(psi - 5.0 * ts)) < 1e-9


def test_lift_is_strictly_increasing():
    rng = rng_for(101)
    B = random_product(rng, 4)
    _, psi, _ = circle._lift_grid(B)
    assert np.all(np.diff(psi) > 0.0)


def test_lift_gains_full_turns():
    rng = rng_for(102)
    B = random_product(rng, 6)
    _, psi, _ = circle._lift_grid(B)
    assert abs(psi[-1] - psi[0] - 6 * TAU) < 1e-9
    # every cell gains less than half a turn, so the end node is the
    # continuous continuation of its neighbour, not a wrapped copy
    assert np.all(np.diff(psi) < 0.5)


def test_lift_consistent_with_evaluation():
    rng = rng_for(103)
    B = random_product(rng, 5)
    ts, psi, _ = circle._lift_grid(B)
    for t, p in zip(ts, psi):
        assert abs(B(cmath.exp(1j * t)) - cmath.exp(1j * p)) < 1e-9


def test_argument_derivative_positive():
    rng = rng_for(105)
    z = np.exp(1j * np.array([0.0, 0.8, 2.9, 5.1]))
    for _ in range(5):
        B = random_product(rng, int(rng.integers(1, 7)))
        assert np.all(circle._circle_terms(B, z)[1] > 0.0)


def test_argument_derivative_of_angle_array():
    B = random_product(rng_for(106), 7)
    ts = np.array([[0.0, 0.8], [2.9, 5.1]])
    rates = circle._circle_terms(B, np.exp(1j * ts))[1]
    assert rates.shape == ts.shape
    for t, rate in zip(ts.ravel(), rates.ravel()):
        z = cmath.exp(1j * t)
        assert abs(rate - (z * B.derivative(z) / B(z)).real) < 1e-12


def test_circle_values_keep_unit_modulus_next_to_a_zero_near_the_circle():
    # w = 1 - a conj(z) loses about eps absolute to cancellation next to a
    # zero 1e-12 inside the circle; each factor z w^2/|w|^2 keeps unit
    # modulus anyway, where (z - a) w/|w|^2 misses it by up to 2e-4, so B's
    # values there stay targets that solve_levels accepts (|lam| = 1 to 1e-9)
    B = BlaschkeProduct(1.0, ((1 - 1e-12) * cmath.exp(1j), 0.3j))
    z = np.exp(1j * (1.0 + np.linspace(-5e-11, 5e-11, 1001)))
    assert np.abs(np.abs(circle._circle_terms(B, z)[0]) - 1.0).max() <= 4e-15
    assert len(invariant_orbits(B, z[::100], 3)) == 11


# ------------------------------------------------------------- circle solves


def test_solve_power_roots_of_unity():
    B = BlaschkeProduct(1.0, (0j,) * 6)
    (row,) = solve_levels(B, [1.0 + 0j]).points.tolist()
    assert len(row) == 6
    for k in range(6):
        assert abs(row[k] - cmath.exp(1j * TAU * k / 6)) < 1e-10


def test_solve_residuals_and_ordering():
    rng = rng_for(111)
    for _ in range(6):
        B = random_product(rng, int(rng.integers(2, 8)))
        lam = cmath.exp(1j * rng.uniform(0, TAU))
        levels = solve_levels(B, [lam])
        assert levels.points.shape == levels.angles.shape == (1, B.degree)
        for z in levels.points[0].tolist():
            assert abs(B(z) - lam) < 1e-9
        angles = levels.angles[0].tolist()
        assert 0.0 <= angles[0] and angles[-1] < TAU
        for lo, hi in zip(angles, angles[1:]):
            assert 0 < hi - lo < TAU


def test_solve_rejects_interior_target():
    B = BlaschkeProduct(1.0, (0j, 0j))
    with pytest.raises(InputError):
        solve_levels(B, [0.5 + 0j])


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)])
def test_non_finite_targets_and_starts_are_input_errors(bad):
    # NaN passes no comparison, so an off-circle test written as
    # "distance > slack" would let it through to the solve
    B = BlaschkeProduct(1.0, (0.1 + 0.2j, -0.3j, 0.5 + 0j))
    calls = [
        lambda: solve_levels(B, [bad]),
        lambda: solve_levels(B, [1.0, bad]),
        lambda: next_preimage(B, bad),
        lambda: invariant_orbit(B, bad, 3),
        lambda: invariant_orbits(B, [1.0, bad], 3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InputError):
                call()


def test_solution_angle_wraps_by_turns():
    # solution 0 of a row follows solution n - 1 a turn later: the gaps
    # round the row, the last across angle 0, are positive and make one
    # turn, and the orbit of g is back at its start after n steps
    B = BlaschkeProduct(1.0, (0j,) * 4)
    levels = solve_levels(B, [1.0 + 0j])
    angles = levels.angles[0]
    gaps = np.diff(np.append(angles, angles[0] + TAU))
    assert np.all(np.abs(gaps - TAU / 4) < 1e-12)
    z = complex(levels.points[0, 0])
    assert abs(invariant_orbit(B, z, 5)[4] - z) < 1e-12


def _assert_rows_are_one_row_solves(B, lams, levels) -> None:
    """Every row of the batch levels equals, bit for bit, the one-row solve
    of its own target."""
    for q, lam in enumerate(lams):
        one = solve_levels(B, [lam])
        for name in ("angles", "points", "rates"):
            row, alone = getattr(levels, name)[q], getattr(one, name)[0]
            assert row.tobytes() == alone.tobytes(), (name, q)


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
    _assert_rows_are_one_row_solves(B, lams, levels)
    for lam, row in zip(lams, levels.points):
        roots = _level_polynomial_roots(B, lam)
        for z in row:
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
    for lam, row in zip(lams, levels.points.tolist()):
        assert max(abs(B(z) - lam) for z in row) < 1e-10


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
    for lam, points, rates, row in zip(lams, levels.points, levels.rates, certified):
        w, fresh_rate = circle._circle_terms(B, points)
        assert np.array_equal(rates, fresh_rate)
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

    def counted(evaluate, x, lo, hi):
        def each(live, xl):
            counts[live] += 1
            return evaluate(live, xl)

        return real(each, x, lo, hi)

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
        (angles,) = solve_levels(B, [lam]).angles
        roots = _level_polynomial_roots(B, lam)
        for angle in angles:
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
    (angles,) = solve_levels(B, [1j]).angles
    roots = _level_polynomial_roots(B, 1j)
    oracle = np.angle(roots) % TAU
    for angle in angles:
        gap = np.abs(np.remainder(oracle - angle + math.pi, TAU) - math.pi)
        assert gap.min() < 1e-12
    levels = circle._circle_terms(B, np.exp(1j * angles))[0]
    assert np.all(np.abs(levels - 1j) < 1e-9)
    assert 0.0 <= circle._lift_grid(B)[1][0] < TAU


def test_solve_levels_of_no_targets_is_empty():
    levels = solve_levels(BlaschkeProduct(1.0, (0j, 0.5j)), [])
    for a in (levels.angles, levels.points, levels.rates):
        assert a.shape == (0, 2)


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


def test_orbit_length_must_be_an_integer():
    T = compose(BlaschkeProduct(1, (0j, 0.3 + 0.2j)), BlaschkeProduct(1, (0j, -0.4j)))
    with pytest.raises(InputError, match="orbit length must be an integer, got 2.5"):
        invariant_orbits(T, [1], 2.5)
    assert len(invariant_orbits(T, [1], np.int64(3))[0]) == 3


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
    w = z
    for step in range(1, 4):
        w = next_preimage(B, w)
        assert abs(orb[step] - w) < 1e-12
        assert abs(B.evaluate(orb[step]) - B.evaluate(z)) < 1e-9
    assert abs(orb[4] - z) < 1e-9


@pytest.mark.parametrize("degree", [3, 5, 8, 13, 17, 24, 32, 48])
def test_one_row_solves_are_rows_of_one_batch(degree):
    # invariant_orbit, next_preimage and a one-target solve_levels are the
    # one-row cases of the one solver: each equals its row of a batch bit
    # for bit
    B = random_product(rng_for(640 + degree), degree, radius=0.8)
    starts = circle_grid(8, 0.13)
    lams = circle_grid(5, 0.4)
    orbits = invariant_orbits(B, starts, degree + 1)
    for z, orbit in zip(starts, orbits):
        assert invariant_orbit(B, z, degree + 1) == orbit
        assert next_preimage(B, z) == orbit[1]
    _assert_rows_are_one_row_solves(B, lams, solve_levels(B, lams))


def _invariant_queries(B, starts):
    """next_preimage, then invariant_orbit(B, z, n + 1), for every start:
    the queries that share level sets."""
    n = B.degree
    images = [next_preimage(B, z) for z in starts]
    return images, [invariant_orbit(B, z, n + 1) for z in starts]


def _count_level_solves(monkeypatch) -> list[int]:
    """Count solve_levels calls."""
    calls = [0]
    real = circle.solve_levels

    def counted(B, lams):
        calls[0] += 1
        return real(B, lams)

    monkeypatch.setattr(circle, "solve_levels", counted)
    return calls


@pytest.mark.parametrize("degree", [3, 8, 17, 24, 48])
def test_repeated_level_set_queries_solve_once_per_start(monkeypatch, degree):
    # next_preimage and invariant_orbit through the same start share one
    # solve per distinct start; every answer is bit for bit that of an equal
    # product with nothing kept on it
    B = random_product(rng_for(660 + degree), degree, radius=0.8)
    starts = circle_grid(4, 0.13)
    calls = _count_level_solves(monkeypatch)
    warm = _invariant_queries(B, starts)
    assert calls[0] == len(starts)
    assert repr(_invariant_queries(B, starts)) == repr(warm)
    assert calls[0] == len(starts)
    n = B.degree

    def cold():
        """An equal product with nothing kept on it."""
        return BlaschkeProduct(B.gamma, B.zeros)

    for z, image, orbit in zip(starts, *warm):
        assert repr(next_preimage(cold(), z)) == repr(image)
        assert repr(invariant_orbit(cold(), z, n + 1)) == repr(orbit)


def test_a_refused_solve_is_not_kept(monkeypatch):
    # no exception is kept: a refusal is raised again by a fresh solve, and
    # once the solve succeeds its answer is that of an equal product
    B = random_product(rng_for(671), 9, radius=0.8)
    z = cmath.exp(0.4j)
    cold = repr(invariant_orbit(B, z, 10))
    fresh = BlaschkeProduct(B.gamma, B.zeros)
    real = circle.solve_levels
    calls = [0]

    def refused(B, lams):
        calls[0] += 1
        raise SolverFailure("refused on purpose")

    monkeypatch.setattr(circle, "solve_levels", refused)
    for attempt in (1, 2):
        with pytest.raises(SolverFailure, match="refused on purpose"):
            next_preimage(fresh, z)
        assert calls[0] == attempt
    monkeypatch.setattr(circle, "solve_levels", real)
    assert repr(invariant_orbit(fresh, z, 10)) == cold


def test_a_memoized_level_solve_is_read_only():
    # every reader of a kept LevelSets shares its arrays, so none may write
    B = random_product(rng_for(673), 7, radius=0.8)
    levels = circle._level_sets_through(B, (1.0 + 0j, 1j))
    assert levels is circle._level_sets_through(B, (1.0 + 0j, 1j))
    for a in (levels.angles, levels.points, levels.rates):
        assert a.shape == (2, 7)
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0
    assert not solve_levels(B, [1.0 + 0j]).points.flags.writeable


def test_kept_results_are_released_with_their_product():
    # every result solved for a product is kept on the product object, so
    # nothing outlives it: no collection is run, so a reference held
    # anywhere else would keep a weakref alive
    N = normalize(random_product(rng_for(672), 6, radius=0.8)).product
    grid = circle._lift_grid(N)[0]
    kept = [
        critical_data(N),
        monodromy_group(N),
        circle._level_sets_through(N, (1j,)),
        inner_factor_general(N, 2),
        grid,
    ]
    refs = [weakref.ref(x) for x in (N, *kept)]
    del N, grid, kept
    assert [ref() for ref in refs] == [None] * len(refs)
    # the numerical range of a compressed shift solves on z times its zeros,
    # a product no caller holds, so none is left alive after the call
    zeros = random_product(rng_for(674), 7, radius=0.8).zeros
    is_elliptical_range(shift_matrix(zeros))
    zB = (0j, *zeros)
    alive = [x for x in gc.get_objects() if isinstance(x, BlaschkeProduct)]
    assert [x for x in alive if x.zeros == zB] == []


def test_two_step_matches_iterated_single_step():
    rng = rng_for(125)
    B = random_product(rng, 5)
    z = cmath.exp(0.9j)
    assert abs(invariant_orbit(B, z, 3)[2] - next_preimage(B, next_preimage(B, z))) < 1e-9


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


def _chain_with_small_inner_zero(x: float) -> CompositionChain:
    return CompositionChain(
        (
            BlaschkeProduct(1.0, (0j, 0.3 + 0.1j)),
            BlaschkeProduct(1.0, (x + 0j, 0.4 - 0.3j)),
        )
    )


def test_generator_power_origin_slack_is_identity_tol():
    # the z-factor test (core._origin_dropped) takes the innermost factor's
    # small zero for 0 within _IDENTITY_TOL = 1e-9: at 5e-10 the check runs
    # against phi_a and passes, as the displaced zero moves the fibers by
    # about 1.3e-9, under the _MATCH_TOL pass mark; at 5e-9 it refuses
    assert _IDENTITY_TOL == 1e-9
    check = verify_generator_power(_chain_with_small_inner_zero(5e-10))
    assert check.ok
    assert check.power == 2
    assert 1e-9 < check.sup_error < _MATCH_TOL
    with pytest.raises(InputError, match="innermost factor must vanish at the origin"):
        verify_generator_power(_chain_with_small_inner_zero(5e-9))


def test_generator_power_fails_orbits_off_phi_a_by_twice_the_pass_mark(monkeypatch):
    # the same chain with its zero exactly at 0, every orbit point moved by
    # 2e-8: the check runs and reports the miss
    real = circle.invariant_orbits

    def moved(B, starts, count):
        return [tuple(z + 2e-8 for z in orbit) for orbit in real(B, starts, count)]

    chain = _chain_with_small_inner_zero(0.0)
    assert verify_generator_power(chain).ok
    monkeypatch.setattr(circle, "invariant_orbits", moved)
    check = verify_generator_power(chain)
    assert not check.ok
    assert check.sup_error > _MATCH_TOL


def test_generator_power_fails_a_nan_orbit_point(monkeypatch):
    # one orbit point is NaN: the check reports it as its worst error and
    # fails, where a running "err > worst" never recorded it
    real = circle.invariant_orbits

    def spoiled(B, starts, count):
        orbits = real(B, starts, count)
        orbits[5] = orbits[5][:-1] + (complex(math.nan, 0.0),)
        return orbits

    monkeypatch.setattr(circle, "invariant_orbits", spoiled)
    check = verify_generator_power(_chain_with_small_inner_zero(0.0))
    assert not check.ok
    assert math.isnan(check.sup_error)
    assert check.point == circle.circle_samples(64, offset=0.05)[5]


def test_certificate_refuses_a_nan_argument_error():
    # written as not error.max() <= 5e-11, and argmax names the NaN root
    f = np.array([0.0, 1e-20, math.nan, 1e-20])
    with pytest.raises(SolverFailure, match="root 2 has argument error"):
        circle._certify(f, np.ones(4), lambda k: f"root {k}")


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
    for lam, points in zip(lams, solve_levels(B, lams).points):
        assert len(points) == B.degree
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
        solve_levels(B, [-1.0])
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
        for lam, points in zip(lams, solve_levels(B, lams).points):
            assert len(points) == B.degree
            w, rate = circle._circle_terms(B, points)
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
