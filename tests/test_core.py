import ast
import cmath
import dataclasses
import functools
import importlib
import inspect
import json
import math
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blaschke
from blaschke import (
    DEFAULT_TOL,
    BlaschkeProduct,
    CompositionChain,
    DiskAutomorphism,
    InputError,
    ToleranceConfig,
    circle_samples,
    compose,
    is_regularized,
    normalize,
    unit,
)
from blaschke.core import (
    _CLUSTER_TOL,
    _IDENTITY_TOL,
    _ROOT_TOL,
    _chain_from_json_dict,
    _matched_rotation,
    _parse_json,
    _positive_ratio_pairs,
    _proper_divisors,
    _tower_height,
    format_float,
)
from blaschke.critical import critical_data
from blaschke.monodromy import monodromy_group
from blaschke.errors import SolverFailure, VerificationFailure

from conftest import (
    TAU,
    chain_json,
    circle_grid,
    product_json,
    random_degree2_chain,
    random_product,
    rng_for,
)

disk_points = st.builds(
    lambda r, t: math.sqrt(r) * 0.85 * cmath.exp(1j * t),
    st.floats(0.0, 1.0),
    st.floats(0.0, TAU),
)
angles = st.floats(0.0, TAU)


# ----------------------------------------------------------------- evaluation


@settings(max_examples=60, deadline=None)
@given(st.lists(disk_points, min_size=1, max_size=6), angles)
def test_unimodular_on_circle(zeros, t):
    B = BlaschkeProduct(1.0, tuple(zeros))
    value = B(cmath.exp(1j * t))
    assert abs(abs(value) - 1.0) < 1e-9


def test_zeros_are_zeros():
    rng = rng_for(11)
    for _ in range(20):
        B = random_product(rng, int(rng.integers(1, 7)))
        for a in B.zeros:
            assert abs(B(a)) < 1e-10


def test_degree_one_is_mobius():
    B = BlaschkeProduct(1j, (0.4 + 0.1j,))
    a = 0.4 + 0.1j
    for z in circle_grid(16, 0.3):
        expected = 1j * (z - a) / (1 - a.conjugate() * z)
        assert abs(B(z) - expected) < 1e-14


def test_array_evaluation_matches_scalar():
    rng = rng_for(12)
    B = random_product(rng, 5)
    zs = np.array(circle_grid(32, 0.17))
    vals = B(zs)
    assert isinstance(vals, np.ndarray)
    for z, v in zip(zs, vals):
        assert abs(v - B(complex(z))) < 1e-13


def test_gamma_must_be_unimodular():
    with pytest.raises(InputError):
        BlaschkeProduct(0.5, (0.1 + 0j,))


def test_zero_outside_disk_rejected():
    with pytest.raises(InputError):
        BlaschkeProduct(1.0, (1.2 + 0j,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_input_rejected(bad):
    # every range check is False for NaN, so these need their own test
    for build, name in (
        (lambda: BlaschkeProduct(bad, (0.1 + 0j,)), "gamma"),
        (lambda: BlaschkeProduct(1.0, (0.1 + 0j, bad)), "zero"),
        (lambda: DiskAutomorphism(bad, 0.2), "rotation"),
        (lambda: DiskAutomorphism(1.0, bad), "center"),
    ):
        with pytest.raises(InputError, match=f"^{name} .* is not finite$"):
            build()


def test_evaluation_near_pole_guarded():
    from blaschke import PoleProximity

    B = BlaschkeProduct(1.0, (0.9 + 0j,))
    with pytest.raises(PoleProximity):
        B(1.0 / 0.9 + 0j)


def test_array_evaluation_names_the_least_denominator():
    from blaschke import PoleProximity

    # both points are within root_tol of a pole; the second zero, at the
    # second point, is the closer one
    B = BlaschkeProduct(1.0, (1 - 1e-13 + 0j, (1 - 5e-14) * 1j))
    with pytest.raises(PoleProximity) as info:
        B(np.array([1.0 + 0j, 1j]))
    assert info.value.z == 1j
    assert abs(info.value.denominator) < 6e-14


def test_array_evaluation_at_a_zero_is_zero_without_warnings():
    B = BlaschkeProduct(1j, (0.3 + 0.4j, -0.5 + 0j))
    z = np.array([0.3 + 0.4j, cmath.exp(0.7j), -0.5 + 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = B(z)
    assert w[0] == 0 and w[2] == 0
    # the circle point still has its factors renormalized to unit modulus
    assert abs(abs(w[1]) - 1.0) <= 4e-16


def test_factor_kernel_matches_mpmath_next_to_the_circle():
    # each one-zero product is its factor F = G/D, G = z - a and
    # D = 1 - conj(a) z, so _jet reads F and F' = (1 - |a|^2)/D^2 off the
    # kernel's gap and den alone
    mpmath = pytest.importorskip("mpmath")

    eps = np.finfo(float).eps
    a = np.array([(1 - 1e-9) * cmath.exp(0.7j), 0.3 - 0.2j])
    z = np.array(
        [cmath.exp(0.7j), cmath.exp(1j * (0.7 + 1e-9)), a[0], 0.5 + 0j, -1 + 0j]
    )
    for aj in a:
        B = BlaschkeProduct(1.0, (complex(aj),))
        f, slope = B._jet(z)
        assert f.shape == slope.shape == (5,)
        # the weight as the factor table holds it, which the kernel reads
        weight = float(B._table[2][0])
        with mpmath.workdps(50):
            am = mpmath.mpc(aj.real, aj.imag)
            for i, zi in enumerate(z):
                zm = mpmath.mpc(zi.real, zi.imag)
                G, D = zm - am, 1 - mpmath.conj(am) * zm
                F, dF = G / D, weight / D**2
                # den loses about eps absolute to cancellation, which is
                # eps/|D| relative in the factor and twice that in F'
                assert abs(f[i] - complex(F)) <= 8 * eps * abs(F) * (1 + 1 / abs(D))
                assert abs(slope[i] - complex(dF)) <= 16 * eps * abs(dF) * (1 + 1 / abs(D))


# ----------------------------------------------------------------- derivative


def test_derivative_matches_finite_differences():
    # independent oracle: central differences on the evaluation map
    rng = rng_for(21)
    h = 1e-6
    for _ in range(15):
        B = random_product(rng, int(rng.integers(1, 8)))
        for z in (0.3 + 0.2j, cmath.exp(0.7j), -0.1 - 0.55j):
            fd = (B(z + h) - B(z - h)) / (2 * h)
            assert abs(B.derivative(z) - fd) < 1e-5 * max(1.0, abs(fd))


def test_value_and_derivative_share_one_pass():
    # scalar evaluate and derivative are the two halves of one pass
    rng = rng_for(22)
    B = random_product(rng, 6)
    for z in (0.3 + 0.2j, cmath.exp(0.7j), -0.1 - 0.55j, 1.4 + 0j):
        assert B._jet(z) == (B(z), B.derivative(z))


def test_value_alone_matches_the_jet_to_the_bit():
    # evaluate stops before B', and B is the same bits as _jet's B at
    # points and on arrays: inside, on and outside the circle and at the
    # exact zeros
    rng = rng_for(23)
    for degree in (1, 2, 5, 8, 17):
        B = random_product(rng, degree)
        points = _jet_points(rng, B)
        for z in points:
            value = B.evaluate(z)
            assert type(value) is complex
            assert repr(value) == repr(B._jet(z)[0]), (degree, z)
        for grid in (np.array(points), np.array([points, points[::-1]])):
            value = B.evaluate(grid)
            assert value.shape == grid.shape
            assert value.tobytes() == B._jet(grid)[0].tobytes()
        assert B._jet(np.array(points), with_slope=False)[1] is None


def _jet_points(rng, B):
    """Interior points, circle points, points with |z| > 1 and the zeros."""
    interior = 0.9 * np.sqrt(rng.uniform(size=4)) * np.exp(1j * rng.uniform(0, TAU, 4))
    outside = rng.uniform(1.1, 3.0, 4) * np.exp(1j * rng.uniform(0, TAU, 4))
    circle = np.exp(1j * rng.uniform(0, TAU, 4))
    return [complex(z) for z in (*interior, *circle, *outside, *B.zeros)]


def test_scalar_and_array_evaluation_are_one_path():
    # a point and the one-point array holding it go through the same kernel,
    # so they agree to the bit, in B and in B'
    rng = rng_for(25)
    for degree in (1, 2, 5, 8, 17):
        B = random_product(rng, degree)
        for z in _jet_points(rng, B):
            one = np.array([z])
            value, slope = B.evaluate(z), B.derivative(z)
            assert type(value) is complex and type(slope) is complex
            assert value == B.evaluate(one)[0], (degree, z)
            assert slope == B.derivative(one)[0], (degree, z)


def _textbook_jet(B, z):
    # the running product rule written out from gamma and the zeros alone
    on_circle = abs(abs(z) - 1.0) <= 1e-12
    p, dp = B.gamma, 0j
    for a in B.zeros:
        den = 1.0 - a.conjugate() * z
        f = (z - a) / den
        if on_circle:
            f /= abs(f)
        df = (1.0 - abs(a) ** 2) / (den * den)
        dp = dp * f + p * df
        p = p * f
    return p, dp


def _jet_bound(degree):
    # each side is a product of `degree` rounded factors whose rounding
    # errors add up like a random walk: 4 sqrt(n + 1) ulps (measured at
    # most 8.2 ulps in B and 7.4 in B' at degree 33)
    return 4.0 * math.sqrt(degree + 1) * np.finfo(float).eps


@pytest.mark.parametrize("degree", [1, 6, 33])
def test_jet_matches_the_textbook_loop_to_a_few_ulps(degree):
    # the array kernel (gamma * prod f, B * sum (1 - |a|^2) / (gap * den))
    # and the product rule round differently but agree to a few ulps
    B = random_product(rng_for(23 + degree), degree)
    points = [0.3 + 0.2j, -0.1 - 0.55j, 0j, 1.4 + 0j, -0.9 + 1.1j]
    points += circle_grid(7, 0.2)
    bound = _jet_bound(degree)
    for z in points:
        value, slope = B._jet(z)
        p, dp = _textbook_jet(B, z)
        assert abs(value - p) <= bound * abs(p), z
        assert abs(slope - dp) <= bound * abs(dp), z


def test_jet_matches_mpmath_at_degree_33():
    mpmath = pytest.importorskip("mpmath")
    B = random_product(rng_for(56), 33)
    points = [0.3 + 0.2j, -0.1 - 0.55j, 0j, 1.4 + 0j, -0.9 + 1.1j]
    points += circle_grid(7, 0.2)
    value, slope = B._jet(np.array(points))
    bound = _jet_bound(33)
    with mpmath.workdps(50):
        for z, v, d in zip(points, value, slope):
            zm = mpmath.mpc(z.real, z.imag)
            p, s = mpmath.mpc(B.gamma.real, B.gamma.imag), 0
            for a in B.zeros:
                am = mpmath.mpc(a.real, a.imag)
                den = 1 - mpmath.conj(am) * zm
                p *= (zm - am) / den
                s += (1 - abs(am) ** 2) / ((zm - am) * den)
            P, dP = complex(p), complex(p * s)
            assert abs(v - P) <= bound * abs(P), z
            assert abs(d - dP) <= bound * abs(dP), z


def test_derivative_at_the_zeros():
    # B'/B has a pole at each zero, so there B' comes from prefix and suffix
    # products of the factors: the product rule's value at a simple zero,
    # exactly 0 at a double zero, and no warning on the way
    rng = rng_for(26)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for degree in (1, 4, 9, 33):
            B = random_product(rng, degree)
            slopes = B.derivative(np.array(B.zeros))
            for a, d in zip(B.zeros, slopes):
                dp = _textbook_jet(B, a)[1]
                assert d != 0 and abs(d - dp) <= _jet_bound(degree) * abs(dp)
        double = BlaschkeProduct(1j, (0.3 + 0.4j, -0.5 + 0j, 0.3 + 0.4j))
        slopes = double.derivative(np.array([0.3 + 0.4j, -0.5 + 0j]))
        assert slopes[0] == 0
        dp = _textbook_jet(double, -0.5 + 0j)[1]
        assert abs(slopes[1] - dp) <= _jet_bound(3) * abs(dp)


def test_factor_table_is_not_part_of_the_value():
    rng = rng_for(24)
    B = random_product(rng, 5)
    twin = BlaschkeProduct(B.gamma, tuple(B.zeros))
    assert [f.name for f in dataclasses.fields(BlaschkeProduct)] == ["gamma", "zeros"]
    assert B == twin and hash(B) == hash(twin) and B is not twin
    assert "_table" not in repr(B)


def test_derivative_of_power():
    B = BlaschkeProduct(1.0, (0j,) * 4)
    for z in circle_grid(8, 0.4):
        assert abs(B.derivative(z) - 4 * z**3) < 1e-13


# ---------------------------------------------------------------- composition


def test_compose_degree_multiplies():
    rng = rng_for(31)
    outer = random_product(rng, 3, radius=0.6)
    inner = random_product(rng, 2, radius=0.6)
    assert compose(outer, inner).degree == 6


def test_compose_pointwise():
    rng = rng_for(32)
    for _ in range(8):
        outer = random_product(rng, int(rng.integers(1, 4)), radius=0.6)
        inner = random_product(rng, int(rng.integers(1, 4)), radius=0.6)
        C = compose(outer, inner)
        for z in circle_grid(24, 0.05) + [0.2 + 0.1j, -0.4j]:
            assert abs(C(z) - outer(inner(z))) < 1e-9


def test_a_nan_sup_error_fails_the_circle_match():
    # the certificate is written as not err <= _MATCH_TOL, so a NaN point
    # refuses the match instead of passing it
    base = np.exp(1j * np.linspace(0.0, 1.0, 4))
    target = base.copy()
    target[2] = complex(math.nan, 0.0)
    with pytest.raises(VerificationFailure, match="probe: sup error nan"):
        _matched_rotation(target, base, "probe")


def test_chain_expand_and_call_agree():
    rng = rng_for(33)
    chain = random_degree2_chain(rng, 3)
    B = chain.expand()
    assert B.degree == 8
    for z in circle_grid(32, 0.09):
        assert abs(chain(z) - B(z)) < 1e-9


# -------------------------------------------------------------- automorphisms


def test_automorphism_is_involution_without_rotation():
    phi = DiskAutomorphism(1.0, 0.3 - 0.4j)
    for z in circle_grid(12, 0.2) + [0.1 + 0.5j]:
        assert abs(phi(phi(z)) - z) < 1e-12


def _inverse(f: DiskAutomorphism) -> DiskAutomorphism:
    # f = rho phi_c, so f^{-1}(w) = phi_c(w / rho)
    return DiskAutomorphism(1.0, f.center).compose(
        DiskAutomorphism.rotation_map(f.rotation.conjugate())
    )


def test_automorphism_inverse_and_compose():
    rng = rng_for(41)
    for _ in range(10):
        f = DiskAutomorphism(cmath.exp(1j * rng.uniform(0, TAU)), random_product(rng, 1).zeros[0])
        g = DiskAutomorphism(cmath.exp(1j * rng.uniform(0, TAU)), random_product(rng, 1).zeros[0])
        h = f.compose(g)
        for z in circle_grid(8, 0.6):
            assert abs(h(z) - f(g(z))) < 1e-12
            assert abs(_inverse(f)(f(z)) - z) < 1e-12


def test_automorphism_as_blaschke_agrees():
    phi = DiskAutomorphism(cmath.exp(0.3j), 0.25 + 0.6j)
    B = phi.as_blaschke()
    assert B.degree == 1
    for z in circle_grid(16, 0.11):
        assert abs(B(z) - phi(z)) < 1e-13


# --------------------------------------------------------------- normal forms


def test_normalize_postconditions():
    rng = rng_for(51)
    for _ in range(10):
        B = random_product(rng, int(rng.integers(2, 7)))
        nf = normalize(B)
        N = nf.product
        assert abs(N(0j)) < 1e-10
        d0 = N.derivative(0j)
        assert abs(d0.imag) < 1e-9
        assert d0.real > 0
        zs = N.zeros
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                assert abs(zs[i] - zs[j]) > 1e-8


def test_normalize_reconstruction():
    rng = rng_for(52)
    B = random_product(rng, 5)
    nf = normalize(B)
    # product = post o B o pre, so B = post^{-1} o product o pre (pre is
    # an involution)
    post_inv = _inverse(nf.post)
    for z in circle_grid(40, 0.23):
        assert abs(nf.product(z) - nf.post(B(nf.pre(z)))) < 1e-9
        assert abs(B(z) - post_inv(nf.product(nf.pre(z)))) < 1e-9


def test_normalize_rotation_has_no_negative_zero():
    # B = z has B'(0) = 1, whose conjugate carries imaginary part -0.0
    rotation = normalize(BlaschkeProduct(1.0, (0j,))).post.rotation
    assert rotation == 1
    assert math.copysign(1.0, rotation.imag) == 1.0
    assert format_float(rotation.imag) == "0"


def test_normalized_constant_is_read_off_the_zeros():
    # N'(0) = gamma prod_(a != 0) (-a) > 0 fixes gamma; no derivative of N
    # is evaluated, so the constant is exactly this expression
    rng = rng_for(53)
    for _ in range(20):
        N = normalize(random_product(rng, int(rng.integers(2, 9)))).product
        slope = math.prod(-a for a in N.zeros if a != 0)
        assert N.gamma == unit(slope.conjugate())


def _nudge_farthest(fiber):
    """fiber with the point farthest from 0 moved by 1e-6."""

    def nudged(B, w):
        points = fiber(B, w)
        k = max(range(len(points)), key=lambda i: abs(points[i]))
        points[k] += 1e-6
        return points

    return nudged


def test_a_wrong_fiber_point_fails_the_circle_certificate(monkeypatch):
    import blaschke.critical

    rng = rng_for(54)
    B = random_product(rng, 5)
    outer, inner = random_product(rng, 2, radius=0.6), random_product(rng, 3, radius=0.6)
    monkeypatch.setattr(
        blaschke.critical, "fiber", _nudge_farthest(blaschke.critical.fiber)
    )
    with pytest.raises(VerificationFailure, match="normalized product .* sup error"):
        normalize(B)
    with pytest.raises(VerificationFailure, match="composition .* sup error"):
        compose(outer, inner)


def _crowded_product(rng, degree: int) -> BlaschkeProduct:
    """Zero moduli uniform on [0, 0.8), as in the benchmark: the zeros crowd
    the origin and so do the critical values."""
    zeros = tuple(
        rng.uniform(0.0, 0.8) * cmath.exp(1j * rng.uniform(0.0, TAU))
        for _ in range(degree)
    )
    return BlaschkeProduct(cmath.exp(1j * rng.uniform(0.0, TAU)), zeros)


@pytest.mark.parametrize("seed,degree", [(3030, 16), (3031, 12), (3032, 20), (3033, 24)])
def test_normalize_base_value_clears_every_critical_value(seed, degree):
    # at seed 3030, B(0) lies 7.1e-9 from a critical value but 1.1e-8 from
    # the mean of its cluster: the margin must read every value
    B = _crowded_product(rng_for(seed), degree)
    nf = normalize(B)
    alpha = nf.post.center
    assert alpha == B(nf.pre.center)
    assert min(abs(alpha - v) for v in critical_data(B).values) > _CLUSTER_TOL


def test_refused_scan_evaluates_b_once_per_ring(monkeypatch):
    # a degree-40 product with no regular base point in reach: the scan
    # reads all 5 rings of 16 candidates, each as one array evaluation, and
    # the critical values are one array evaluation too
    B = _crowded_product(rng_for(4000), 40)
    shapes = []
    jet = BlaschkeProduct._jet

    def counted_jet(self, z, **kwargs):
        shapes.append(np.shape(z))
        return jet(self, z, **kwargs)

    monkeypatch.setattr(BlaschkeProduct, "_jet", counted_jet)
    cd = critical_data(B)
    assert shapes == [(len(set(cd.points_in_disk)),)]
    shapes.clear()
    with pytest.raises(SolverFailure, match="no regular base point"):
        normalize(B)
    # the one scalar evaluation is the first try, beta = 0
    assert shapes == [()] + [(16,)] * 5


def _positive_ratio_pairs_by_loop(values, root_tol):
    violating = []
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            v1, v2 = values[i], values[j]
            if abs(v1) <= root_tol or abs(v2) <= root_tol:
                continue
            r = v1 / v2
            if r.real > 0.0 and abs(r.imag) <= 1e-9 * abs(r):
                violating.append((v1, v2))
    return tuple(violating)


def test_positive_ratio_pairs_match_a_double_loop():
    rng = rng_for(5300)
    root_tol = _ROOT_TOL
    for trial in range(40):
        n = int(rng.integers(0, 12))
        values = [complex(v) for v in rng.normal(size=n) + 1j * rng.normal(size=n)]
        # planted positive-real ratios: a real multiple, and one turned by 5e-13
        for v in values[: n // 3]:
            values.append(float(rng.uniform(0.1, 10.0)) * v)
            values.append(v * complex(2.0, 1e-12))
        # a negative ratio, and values at or within root_tol of 0
        if values:
            values.append(-values[0])
        values += [0j, 0.5 * root_tol * cmath.exp(1j * trial), root_tol + 0j]
        order = rng.permutation(len(values))
        values = [values[k] for k in order]
        got = _positive_ratio_pairs(values)
        assert repr(got) == repr(_positive_ratio_pairs_by_loop(values, root_tol))
        if n >= 3:
            assert got


def test_positive_ratio_pairs_do_not_depend_on_order():
    # the ratio of this pair is 1e-9 at angle 1 one way and 1e9 the other:
    # a bound of 1e-9 (1 + |r|) on Im r flags the first order alone
    small, large = 1e-11 * cmath.exp(1j), 1e-2 + 0j
    assert abs(small) > _ROOT_TOL
    assert _positive_ratio_pairs([small, large]) == ()
    assert _positive_ratio_pairs([large, small]) == ()
    # a positive real ratio of 1e-9 is flagged in either order
    far = 1e9 * small
    assert _positive_ratio_pairs([small, far]) == ((small, far),)
    assert _positive_ratio_pairs([far, small]) == ((far, small),)


def test_regularized_examples():
    bad = BlaschkeProduct(1.0, (0j, 0.4 + 0j, 0.5 + 0j, 0.9 + 0j))
    check = is_regularized(bad)
    assert not check.ok
    assert check.zero_at_origin and check.simple_zeros
    assert len(check.violating_pairs) >= 1

    good = BlaschkeProduct(1.0, (0j, 0.4 + 0j, 0.7 + 0j))
    assert is_regularized(good).ok

    no_origin = BlaschkeProduct(1.0, (0.3 + 0j, 0.5 + 0j))
    assert not is_regularized(no_origin).zero_at_origin


# ---------------------------------------------------------------- tolerances


def test_identity_tol_is_the_one_setting():
    # identity_tol is the module constant _IDENTITY_TOL; ToleranceConfig is
    # the record of it that the benchmark reads and writes into its runs
    assert _IDENTITY_TOL == 1e-9
    assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["identity_tol"]
    assert DEFAULT_TOL.identity_tol == _IDENTITY_TOL
    assert dataclasses.asdict(DEFAULT_TOL) == {"identity_tol": 1e-9}
    assert ToleranceConfig() == DEFAULT_TOL


def test_tolerance_config_takes_no_argument():
    # a setting that nothing reads is refused, not silently ignored
    with pytest.raises(TypeError):
        ToleranceConfig(identity_tol=1e-6)
    with pytest.raises(TypeError):
        ToleranceConfig(1e-6)
    with pytest.raises(TypeError):
        ToleranceConfig(cluster_tol=1e-8)


def test_is_regularized_honours_identity_tol():
    # B(0) = 0.5 x for B with zeros x and 0.5: 5e-10 is taken for 0 within
    # _IDENTITY_TOL, 5e-9 is not, and the tol slot changes neither
    for x, at_origin in ((1e-9, True), (1e-8, False)):
        B = BlaschkeProduct(1.0, (x + 0j, 0.5 + 0j))
        assert abs(B(0j)) == pytest.approx(0.5 * x)
        assert is_regularized(B).zero_at_origin is at_origin
        assert is_regularized(B, DEFAULT_TOL).zero_at_origin is at_origin


def test_kept_results_are_keyed_on_the_product_alone():
    # the same object hits, and the unread tol slot is no second key; an
    # equal twin is another object, which solves afresh to the same bits
    B = normalize(random_product(rng_for(5150), 4)).product
    twin = BlaschkeProduct(B.gamma, B.zeros)
    # a PermutationGroup's repr is its address, so a group is read by its
    # generators
    for ask, bits in (
        (critical_data, repr),
        (monodromy_group, lambda m: repr((m.labels, m.loops, m.group.generators))),
    ):
        first = ask(B)
        assert ask(B) is first
        assert ask(B, DEFAULT_TOL) is first
        cold = ask(twin)
        assert cold is not first
        assert bits(cold) == bits(first)
    # what is kept on a product is no part of its equality, hash or repr
    assert twin == B and hash(twin) == hash(B) and repr(twin) == repr(B)


# the public callables that take tol, none of which reads it: is_regularized,
# and the nine that perfbench/workloads.py passes DEFAULT_TOL to positionally
TOL_TAKERS = {
    "core.is_regularized",
    "core.CompositionChain.expand",
    "core.normalize",
    "critical.critical_data",
    "circle.next_preimage",
    "circle.invariant_orbit",
    "poncelet.package",
    "shiftop.is_elliptical_range",
    "monodromy.monodromy_group",
    "monodromy.cross_validate",
}


def _public_callables():
    """(label, callable) for every name in every module's __all__, and for
    every public method of each class there, __call__ included."""
    for info in pkgutil.iter_modules(blaschke.__path__):
        module = importlib.import_module(f"blaschke.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            label = f"{info.name}.{name}"
            if not isinstance(obj, type):
                if callable(obj):
                    yield label, obj
                continue
            for method, value in vars(obj).items():
                value = getattr(value, "__func__", value)
                public = method == "__call__" or not method.startswith("_")
                if public and callable(value):
                    yield f"{label}.{method}", value


def test_tol_is_taken_only_by_its_readers_and_the_benchmark_callables():
    callables = dict(_public_callables())
    # the walk reaches methods and __call__
    assert "core.BlaschkeProduct.__call__" in callables
    assert "core.DiskAutomorphism.compose" in callables
    takers = {
        label
        for label, fn in callables.items()
        if "tol" in inspect.signature(fn).parameters
    }
    assert takers == TOL_TAKERS


# ---------------------------------------------------------------------- JSON


def _read_product(text: str) -> BlaschkeProduct:
    # the CLI's reader of a product file
    return BlaschkeProduct._from_json_dict(_parse_json(text))


def _read_chain(text: str) -> CompositionChain:
    # the CLI's reader of a chain file
    return _chain_from_json_dict(_parse_json(text))


def test_product_json_round_trip():
    rng = rng_for(61)
    B = random_product(rng, 4)
    again = _read_product(product_json(B))
    assert again.gamma == B.gamma
    assert again.zeros == B.zeros


def test_chain_json_round_trip():
    rng = rng_for(62)
    chain = random_degree2_chain(rng, 3)
    again = _read_chain(chain_json(chain))
    assert len(again.factors) == 3
    for f, g in zip(chain.factors, again.factors):
        assert f.gamma == g.gamma and f.zeros == g.zeros


def _signs(B: BlaschkeProduct) -> list[float]:
    parts = [B.gamma.real, B.gamma.imag]
    for a in B.zeros:
        parts += [a.real, a.imag]
    return [math.copysign(1.0, x) for x in parts]


def test_json_round_trip_keeps_signed_zeros():
    # format_float writes -0.0 as "-0", which a plain json.loads reads as
    # the int 0
    B = BlaschkeProduct(complex(-1.0, -0.0), (-0.4j, 0.3 + 0j, complex(-0.0, 0.2)))
    assert '"gamma":[-1,-0]' in product_json(B)
    again = _read_product(product_json(B))
    assert _signs(again) == _signs(B)
    assert -1.0 in _signs(B)[2:]
    chain = CompositionChain((B, BlaschkeProduct(1.0, (complex(0.5, -0.0), -0.0j))))
    again = _read_chain(chain_json(chain))
    for f, g in zip(chain.factors, again.factors, strict=True):
        assert f == g
        assert _signs(g) == _signs(f)


def test_from_json_validates():
    with pytest.raises(InputError):
        _read_product(json.dumps({"gamma": [2, 0], "zeros": [[0, 0]]}))
    with pytest.raises(InputError):
        _read_product(json.dumps({"gamma": [1, 0], "zeros": [[3, 0]]}))


def test_format_float_round_trips():
    values = [0.1, 1.0 / 3.0, 2.0**-40, math.pi, 0.0, -1.5e-13]
    for x in values:
        assert float(format_float(x)) == x


def test_circle_samples_count_must_be_an_integer():
    with pytest.raises(InputError, match="sample count must be an integer, got 8.0"):
        circle_samples(8.0)
    assert circle_samples(np.int64(8)) == circle_samples(8)


@pytest.mark.parametrize("count", [0, -3])
def test_circle_samples_refuses_a_count_below_1(count):
    with pytest.raises(InputError, match="sample count must be at least 1"):
        circle_samples(count)


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_circle_samples_refuses_an_offset_that_is_not_finite(offset):
    with pytest.raises(InputError, match="sample offset .* is not finite"):
        circle_samples(3, offset)


@pytest.mark.parametrize("offset", [0.1j, 0.3 + 0.1j, np.complex128(1e-300j)])
def test_circle_samples_refuses_an_offset_that_is_not_real(offset):
    # exp(i (0.1i + t)) has modulus e^-0.1 = 0.905, off the circle
    with pytest.raises(InputError, match="sample offset must be a real angle"):
        circle_samples(4, offset)
    assert circle_samples(4, complex(0.3)) == circle_samples(4, 0.3)


def _integer_callers():
    """One call per count or degree that core._integer checks, each taking
    the value under test as its last argument."""
    from blaschke.circle import invariant_orbits, solve_levels
    from blaschke.decompose import factor_any_order, inner_factor_general
    from blaschke.monodromy import Permutation, PermutationGroup, wreath_audit
    from blaschke.poncelet import package, tangency_audit
    from blaschke.shiftop import numerical_range_boundary, shift_matrix

    B = compose(BlaschkeProduct(1, (0j, 0.3 + 0.2j)), BlaschkeProduct(1, (0j, -0.4j)))
    G = PermutationGroup([Permutation((1, 2, 3, 0))], 4)
    fit = package(B, 120).entries[0].fit
    levels = solve_levels(B, [1j, -1.0])
    return {
        "inner_factor_general": lambda v: inner_factor_general(B, v),
        "factor_any_order": lambda v: factor_any_order(B, (v, 4)),
        "circle_samples": lambda v: circle_samples(v),
        "invariant_orbits": lambda v: invariant_orbits(B, [1.0], v),
        "wreath_audit": lambda v: wreath_audit(G, v),
        "tangency_audit": lambda v: tangency_audit(fit, levels, v),
        "package": lambda v: package(B, v),
        "numerical_range_boundary": lambda v: numerical_range_boundary(
            shift_matrix([0j, 0.5 + 0j]), v
        ),
    }


@pytest.mark.parametrize(
    "caller",
    [
        "inner_factor_general",
        "factor_any_order",
        "circle_samples",
        "invariant_orbits",
        "wreath_audit",
        "tangency_audit",
        "package",
        "numerical_range_boundary",
    ],
)
@pytest.mark.parametrize("value", [True, False])
def test_every_integer_check_refuses_a_boolean(caller, value):
    # Python counts True as the int 1, so without the bool check
    # factor_any_order(B, (True, 4)) returned a chain with an identity
    # factor and invariant_orbits(B, [1], True) a 1-point orbit; a boolean
    # is refused with the message a float gets, before any range check
    call = _integer_callers()[caller]
    with pytest.raises(InputError, match=f", got {value!r}$"):
        call(value)


def test_unit_helper():
    assert abs(unit(3 + 4j) - (0.6 + 0.8j)) < 1e-15
    z = unit(cmath.exp(0.2j) * (1 + 3e-12))
    assert abs(abs(z) - 1.0) < 1e-15


EXPORTERS = ["blaschke"] + [
    f"blaschke.{name}"
    for name in ("core", "circle", "critical", "shiftop", "poncelet", "decompose", "monodromy", "cli")
]

# exports that no pipeline reads, kept on purpose
UNREAD_ON_PURPOSE = {"blaschke.__version__"}


@pytest.mark.parametrize("module", EXPORTERS)
def test_every_export_exists(module):
    # a deleted name must not stay behind in __all__
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _reads() -> tuple[set[str], set[str]]:
    """The bare names and the attribute names that the library or the
    benchmark loads; a string label is not a read."""
    sources = list(Path(blaschke.__file__).resolve().parent.glob("*.py"))
    sources += list((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    names, attributes = set(), set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def test_every_export_has_a_reader():
    # an export is read when the library or the benchmark loads it by name,
    # as a bare name or an attribute
    loaded = set.union(*_reads())
    unread = [
        f"{module}.{name}"
        for module in EXPORTERS
        for name in importlib.import_module(module).__all__
        if name not in loaded and f"{module}.{name}" not in UNREAD_ON_PURPOSE
    ]
    assert unread == []


MEMBER_KINDS = (property, staticmethod, classmethod, functools.cached_property)


def test_every_public_member_of_an_exported_class_has_a_reader():
    # a member is read as an attribute: each public function, property,
    # staticmethod and cached_property of an exported class's own body must
    # be loaded as one.  Dunders are out of scope, and a read by name cannot
    # tell two classes' members of one name apart (Permutation.order from
    # PermutationGroup.order)
    _, loaded = _reads()
    classes = set()
    for module in map(importlib.import_module, EXPORTERS):
        classes.update(filter(inspect.isclass, (getattr(module, n) for n in module.__all__)))
    members = {
        f"{cls.__module__}.{cls.__qualname__}.{name}"
        for cls in classes
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, MEMBER_KINDS))
    }
    # the walk reaches properties and staticmethods
    assert "blaschke.core.BlaschkeProduct.degree" in members
    assert "blaschke.core.DiskAutomorphism.rotation_map" in members
    assert sorted(m for m in members if m.rsplit(".", 1)[1] not in loaded) == []


def test_degree_shape_helpers_match_brute_force():
    powers = {2**k: k for k in range(1, 8)}
    for n in range(1, 131):
        divisors = {d for d in range(1, n + 1) if n % d == 0} - {1, n}
        assert _proper_divisors(n) == tuple(sorted(divisors)), n
        assert _tower_height(n) == powers.get(n), n
