import cmath
import dataclasses
import importlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blaschke import (
    DEFAULT_TOL,
    BlaschkeProduct,
    CompositionChain,
    DiskAutomorphism,
    InputError,
    ToleranceConfig,
    compose,
    is_regularized,
    normalize,
    unit,
)
from blaschke.core import _positive_ratio_pairs, format_float
from blaschke.critical import _critical_data, critical_data
from blaschke.errors import SolverFailure

from conftest import TAU, circle_grid, random_degree2_chain, random_product, rng_for

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
    mpmath = pytest.importorskip("mpmath")
    from blaschke.core import _factor_array

    eps = np.finfo(float).eps
    a = np.array([(1 - 1e-9) * cmath.exp(0.7j), 0.3 - 0.2j])
    z = np.array(
        [cmath.exp(0.7j), cmath.exp(1j * (0.7 + 1e-9)), a[0], 0.5 + 0j, -1 + 0j]
    )
    f, gap, den = _factor_array(a, z)
    assert f.shape == gap.shape == den.shape == (5, 2)
    with mpmath.workdps(50):
        for (i, zi), (j, aj) in itertools.product(enumerate(z), enumerate(a)):
            zm, am = mpmath.mpc(zi.real, zi.imag), mpmath.mpc(aj.real, aj.imag)
            G, D = zm - am, 1 - mpmath.conj(am) * zm
            F = G / D
            # gap is exact up to rounding; den loses about eps absolute to
            # cancellation, which is eps/|den| relative in the factor
            assert abs(gap[i, j] - complex(G)) <= 2 * eps * abs(G)
            assert abs(den[i, j] - complex(D)) <= 8 * eps
            assert abs(f[i, j] - complex(F)) <= 8 * eps * abs(F) * (1 + 1 / abs(D))


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
        assert B._jet(z, ToleranceConfig()) == (B(z), B.derivative(z))


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


@pytest.mark.parametrize("degree", [1, 6, 33])
def test_jet_matches_the_textbook_loop_exactly(degree):
    # the precomputed factor table changes no bit of B or B'
    B = random_product(rng_for(23 + degree), degree)
    points = [0.3 + 0.2j, -0.1 - 0.55j, 0j, 1.4 + 0j, -0.9 + 1.1j]
    points += circle_grid(7, 0.2)
    for z in points:
        assert B._jet(z, ToleranceConfig()) == _textbook_jet(B, z), z


def test_factor_table_is_not_part_of_the_value():
    rng = rng_for(24)
    B = random_product(rng, 5)
    twin = BlaschkeProduct(B.gamma, tuple(B.zeros))
    assert [f.name for f in dataclasses.fields(BlaschkeProduct)] == ["gamma", "zeros"]
    assert B == twin and hash(B) == hash(twin) and B is not twin
    assert "_terms" not in repr(B)


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


def test_automorphism_inverse_and_compose():
    rng = rng_for(41)
    for _ in range(10):
        f = DiskAutomorphism(cmath.exp(1j * rng.uniform(0, TAU)), random_product(rng, 1).zeros[0])
        g = DiskAutomorphism(cmath.exp(1j * rng.uniform(0, TAU)), random_product(rng, 1).zeros[0])
        h = f.compose(g)
        for z in circle_grid(8, 0.6):
            assert abs(h(z) - f(g(z))) < 1e-12
            assert abs(f.inverse()(f(z)) - z) < 1e-12


def test_automorphism_as_blaschke_agrees():
    phi = DiskAutomorphism(cmath.exp(0.3j), 0.25 + 0.6j)
    B = phi.as_blaschke()
    assert B.degree == 1
    for z in circle_grid(16, 0.11):
        assert abs(B(z) - phi(z)) < 1e-13


def test_rotation_map_fixed_point():
    rot = DiskAutomorphism.rotation_map(cmath.exp(1.1j))
    assert abs(rot.fixed_point()) < 1e-12
    phi = DiskAutomorphism(cmath.exp(0.4j), 0.3 + 0.2j)
    w = phi.fixed_point()
    assert abs(w) < 1.0
    assert abs(phi(w) - w) < 1e-10


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
    post_inv = nf.post.inverse()
    for z in circle_grid(40, 0.23):
        assert abs(nf.product(z) - nf.post(B(nf.pre(z)))) < 1e-9
        assert abs(B(z) - post_inv(nf.product(nf.pre(z)))) < 1e-9


def test_normalize_rotation_has_no_negative_zero():
    # B = z has B'(0) = 1, whose conjugate carries imaginary part -0.0
    rotation = normalize(BlaschkeProduct(1.0, (0j,))).post.rotation
    assert rotation == 1
    assert math.copysign(1.0, rotation.imag) == 1.0
    assert format_float(rotation.imag) == "0"


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
    assert min(abs(alpha - v) for v in critical_data(B).values) > DEFAULT_TOL.cluster_tol


def test_refused_scan_evaluates_b_once_per_ring(monkeypatch):
    # a degree-40 product with no regular base point in reach: the scan
    # reads all 5 rings of 16 candidates, each as one array evaluation, and
    # the critical values are one array evaluation too
    B = _crowded_product(rng_for(4000), 40)
    jets, arrays = [], []
    jet, evaluate_array = BlaschkeProduct._jet, BlaschkeProduct._evaluate_array

    def counted_jet(self, z, tol):
        jets.append(z)
        return jet(self, z, tol)

    def counted_array(self, z, tol):
        arrays.append(z.shape)
        return evaluate_array(self, z, tol)

    monkeypatch.setattr(BlaschkeProduct, "_jet", counted_jet)
    monkeypatch.setattr(BlaschkeProduct, "_evaluate_array", counted_array)
    _critical_data.cache_clear()
    cd = critical_data(B)
    assert jets == [] and arrays == [(len(set(cd.points_in_disk)),)]
    arrays.clear()
    with pytest.raises(SolverFailure, match="no regular base point"):
        normalize(B)
    # the one scalar evaluation is the first try, beta = 0
    assert jets == [0j]
    assert arrays == [(16,)] * 5


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
    root_tol = DEFAULT_TOL.root_tol
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
        got = _positive_ratio_pairs(values, root_tol)
        assert repr(got) == repr(_positive_ratio_pairs_by_loop(values, root_tol))
        if n >= 3:
            assert got


def test_positive_ratio_pairs_do_not_depend_on_order():
    # the ratio of this pair is 1e-9 at angle 1 one way and 1e9 the other:
    # a bound of 1e-9 (1 + |r|) on Im r flags the first order alone
    small, large = 1e-11 * cmath.exp(1j), 1e-2 + 0j
    root_tol = DEFAULT_TOL.root_tol
    assert _positive_ratio_pairs([small, large], root_tol) == ()
    assert _positive_ratio_pairs([large, small], root_tol) == ()
    # a positive real ratio of 1e-9 is flagged in either order
    far = 1e9 * small
    assert _positive_ratio_pairs([small, far], root_tol) == ((small, far),)
    assert _positive_ratio_pairs([far, small], root_tol) == ((far, small),)


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


# ---------------------------------------------------------------------- JSON


def test_product_json_round_trip():
    rng = rng_for(61)
    B = random_product(rng, 4)
    again = BlaschkeProduct.from_json(B.to_json())
    assert again.gamma == B.gamma
    assert again.zeros == B.zeros


def test_chain_json_round_trip():
    rng = rng_for(62)
    chain = random_degree2_chain(rng, 3)
    again = CompositionChain.from_json(chain.to_json())
    assert len(again.factors) == 3
    for f, g in zip(chain.factors, again.factors):
        assert f.gamma == g.gamma and f.zeros == g.zeros


def test_from_json_validates():
    with pytest.raises(InputError):
        BlaschkeProduct.from_json(json.dumps({"gamma": [2, 0], "zeros": [[0, 0]]}))
    with pytest.raises(InputError):
        BlaschkeProduct.from_json(json.dumps({"gamma": [1, 0], "zeros": [[3, 0]]}))


def test_format_float_round_trips():
    values = [0.1, 1.0 / 3.0, 2.0**-40, math.pi, 0.0, -1.5e-13]
    for x in values:
        assert float(format_float(x)) == x


def test_unit_helper():
    assert abs(unit(3 + 4j) - (0.6 + 0.8j)) < 1e-15
    z = unit(cmath.exp(0.2j) * (1 + 3e-12))
    assert abs(abs(z) - 1.0) < 1e-15


@pytest.mark.parametrize(
    "module",
    ["blaschke"]
    + [
        f"blaschke.{name}"
        for name in ("core", "circle", "critical", "shiftop", "poncelet", "decompose", "monodromy", "cli")
    ],
)
def test_every_export_exists(module):
    # a deleted name must not stay behind in __all__
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
