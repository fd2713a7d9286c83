import cmath
import math
import sys

import pytest

from blaschke import (
    BlaschkeProduct,
    CompositionChain,
    DegenerateInput,
    DiskAutomorphism,
    InputError,
    compose,
    normalize,
)
from blaschke.cli import demo_corpus
from blaschke.decompose import (
    chain_2n,
    elliptical_implies_decomposable_check,
    factor_any_order,
    inner_factor_general,
)
from blaschke.monodromy import block_systems, monodromy_group

from conftest import TAU, circle_grid, random_degree2_chain, random_product, rng_for

B84 = BlaschkeProduct(
    1.0, (0j, 0j, 0j, 0j, 0.84 + 0j, -0.84 + 0j, 0.84j, -0.84j)
)
ROOT_HALF = math.sqrt(0.5)
DEG6_ELLIPTIC = BlaschkeProduct(
    1.0, (0j, 0j, ROOT_HALF, ROOT_HALF, -ROOT_HALF, -ROOT_HALF)
)
CUBE = 0.5 ** (1.0 / 3.0)
OMEGA = cmath.exp(2j * math.pi / 3)
DEG6_NONELLIPTIC = BlaschkeProduct(
    1.0, (0j, 0j, 0j, CUBE, CUBE * OMEGA, CUBE * OMEGA**2)
)


def _sup(B, C, count=200):
    pts = [cmath.exp(1j * (0.004 + TAU * k / count)) for k in range(count)]
    return max(abs(B(z) - C(z)) for z in pts)


# ------------------------------------------------------------ full 2^n chains


def test_chain_2n_round_trip_degree_4():
    rng = rng_for(511)
    for _ in range(8):
        chain = CompositionChain(
            tuple(random_product(rng, 2, radius=0.55) for _ in range(2))
        )
        B = chain.expand()
        report = chain_2n(B)
        assert report.found
        record = report.chains[0]
        assert record.factor_degrees == (2, 2)
        assert record.verification_error < 1e-8
        assert _sup(B, record.chain.expand()) < 1e-8


def test_chain_2n_round_trip_degree_8():
    rng = rng_for(512)
    for _ in range(4):
        chain = CompositionChain(
            tuple(random_product(rng, 2, radius=0.5) for _ in range(3))
        )
        B = chain.expand()
        report = chain_2n(B)
        assert report.found
        record = report.chains[0]
        assert record.factor_degrees == (2, 2, 2)
        assert _sup(B, record.chain.expand()) < 1e-8


def test_chain_2n_nonexample():
    report = chain_2n(B84)
    assert report.found
    assert report.chains[0].factor_degrees == (2, 2, 2)
    assert _sup(B84, report.chains[0].chain.expand()) < 1e-8


def test_chain_2n_rejects_other_degrees():
    with pytest.raises(InputError):
        chain_2n(random_product(rng_for(513), 6))


def test_chain_2n_reports_failure_for_indecomposable():
    B = random_product(rng_for(514), 4, origin_zero=True)
    report = chain_2n(B)
    assert not report.found
    assert report.chains == ()
    assert any(f.reason for f in report.failures)


def test_chain_2n_degree_32_towers():
    for seed in (931, 932, 935):
        B = _tower(rng_for(seed), 5)
        report = chain_2n(B)
        assert report.found, (seed, report.failures)
        record = report.chains[0]
        assert record.factor_degrees == (2, 2, 2, 2, 2)
        assert _sup(B, record.chain.expand()) < 1e-8


def test_chain_2n_degree_16_towers_without_origin_zeros():
    for seed in (971, 976, 982):
        B = random_degree2_chain(rng_for(seed), 4).expand()
        report = chain_2n(B)
        assert report.found, (seed, report.failures)
        assert report.chains[0].factor_degrees == (2, 2, 2, 2)
        assert _sup(B, report.chains[0].chain.expand()) < 1e-8


def test_chain_2n_makes_no_compose_call(monkeypatch):
    B = _tower(rng_for(931), 4)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compose(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "blaschke" and getattr(module, "compose", None) is compose:
            monkeypatch.setattr(module, "compose", counting)
    assert chain_2n(B).found
    assert calls == []


# ------------------------------------------------------ any degree ordering


def _one_critical_value(degree):
    # tau o phi_a^n, two products for each |a|; rng seed 11
    rng = rng_for(11)
    for r in (0.3, 0.6, 0.8, 0.9):
        for _ in range(2):
            a = r * cmath.exp(1j * rng.uniform(0, TAU))
            c = 0.5 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TAU))
            tau = DiskAutomorphism(cmath.exp(1j * rng.uniform(0, TAU)), c)
            yield compose(tau.as_blaschke(), BlaschkeProduct(1.0, (a,) * degree))


def _orderings(degree):
    # every two-part ordering, and (2, ..., 2) for a power of two
    pairs = [(p, degree // p) for p in range(2, degree) if degree % p == 0]
    k = degree.bit_length() - 1
    return pairs + [(2,) * k] if degree == 2**k else pairs


def _compositions(shape):
    # several critical values: 3 for (3, 2), 4 for (2, 2, 3), 5 for (4, 3)
    rng = rng_for(11)
    for _ in range(3):
        factors = tuple(random_product(rng, d, radius=0.6) for d in shape)
        yield CompositionChain(factors).expand()


M4 = compose(
    DiskAutomorphism(cmath.exp(0.6j), 0.2 - 0.1j).as_blaschke(),
    BlaschkeProduct(1.0, (0.3 + 0.25j,) * 4),
)


@pytest.mark.parametrize(
    "products,orderings,successes",
    [
        # the closed form from one_critical_value_form factored none of the
        # degree-32 cases; the two refusals are degree 32, |a| = 0.3, (2, 16)
        pytest.param(
            lambda: _one_critical_value(24), _orderings(24), 48, id="tau-phi-24"
        ),
        pytest.param(
            lambda: _one_critical_value(32), _orderings(32), 38, id="tau-phi-32"
        ),
        pytest.param(lambda: _compositions((3, 2)), [(3, 2)], 3, id="composed-3-2"),
        pytest.param(
            lambda: _compositions((2, 2, 3)), [(2, 2, 3)], 3, id="composed-2-2-3"
        ),
        pytest.param(lambda: _compositions((4, 3)), [(4, 3)], 3, id="composed-4-3"),
        pytest.param(lambda: [M4], [(1, 4), (4, 1), (2, 1, 2), (4,)], 4, id="ones"),
        pytest.param(
            lambda: [random_product(rng_for(514), 8)], [(2, 4)], 0, id="indecomposable"
        ),
    ],
)
def test_factor_any_order(products, orderings, successes):
    # every ordering either re-expands to 1e-8 with exactly its degrees or
    # is a DegenerateInput naming the level that has no inner factor
    found = 0
    for B in products():
        for ordering in orderings:
            try:
                chain = factor_any_order(B, ordering)
            except DegenerateInput as exc:
                assert "inner factor at level" in str(exc), str(exc)
                continue
            assert tuple(f.degree for f in chain.factors) == ordering
            assert _sup(B, chain) <= 1e-8
            found += 1
    assert found == successes


# ------------------------------------------------------- general inner factor


def test_inner_factor_round_trip_degree_6():
    # oracle: build C o D with deg D = 3, recover an equivalent pair
    rng = rng_for(521)
    pairs = []
    for _ in range(4):
        outer = random_product(rng, 2, radius=0.5)
        b1 = 0.5 * cmath.exp(1j * rng.uniform(0, TAU))
        b2 = 0.5 * cmath.exp(1j * rng.uniform(0, TAU))
        pairs.append((outer, BlaschkeProduct(1.0, (0j, b1, b2))))
    _assert_round_trips(pairs)


def test_inner_degree2_round_trip():
    # degree-2 inner factors z*phi_a under outer factors vanishing at 0
    rng = rng_for(501)
    pairs = []
    for _ in range(10):
        outer = random_product(rng, int(rng.integers(1, 4)), radius=0.55, origin_zero=True)
        a = 0.55 * cmath.exp(1j * rng.uniform(0, TAU))
        pairs.append((outer, BlaschkeProduct(-1.0, (0j, a))))
    _assert_round_trips(pairs)


def _assert_round_trips(pairs):
    for outer, inner in pairs:
        B = compose(outer, inner)
        if outer.degree == 1:
            # a degree-2 product has no proper inner factor
            with pytest.raises(InputError):
                inner_factor_general(B, inner.degree)
            continue
        res = inner_factor_general(B, inner.degree)
        assert res.found, res.reason
        assert res.inner.degree == inner.degree and res.outer.degree == outer.degree
        assert _sup(B, compose(res.outer, res.inner)) < 1e-8


def test_inner_factor_validates_k():
    B = random_product(rng_for(522), 6)
    for bad in (1, 6, 4, 0):
        with pytest.raises(InputError):
            inner_factor_general(B, bad)


def test_deg6_pair_both_orders():
    res2 = inner_factor_general(DEG6_ELLIPTIC, 2)
    res3 = inner_factor_general(DEG6_ELLIPTIC, 3)
    assert res2.found and res3.found
    assert _sup(DEG6_ELLIPTIC, compose(res2.outer, res2.inner)) < 1e-8
    assert _sup(DEG6_ELLIPTIC, compose(res3.outer, res3.inner)) < 1e-8


def test_deg6_nonelliptic_only_cube_inner():
    res3 = inner_factor_general(DEG6_NONELLIPTIC, 3)
    assert res3.found
    assert _sup(DEG6_NONELLIPTIC, compose(res3.outer, res3.inner)) < 1e-8
    res2 = inner_factor_general(DEG6_NONELLIPTIC, 2)
    assert not res2.found


def test_nonexample_power_inners():
    for k in (2, 4):
        res = inner_factor_general(B84, k)
        assert res.found
        assert _sup(B84, compose(res.outer, res.inner)) < 1e-8


def _tower(rng, levels):
    # outermost first; each level is gamma * z (z - a) / (1 - conj(a) z)
    factors = []
    for _ in range(levels):
        a = rng.uniform(0.25, 0.55) * cmath.exp(1j * rng.uniform(0, TAU))
        gamma = cmath.exp(1j * rng.uniform(0, TAU))
        factors.append(BlaschkeProduct(gamma, (0j, a)))
    return CompositionChain(tuple(factors)).expand()


def test_inner_factor_degree_32_towers_and_refusals():
    for seed in (931, 932, 935):
        B = _tower(rng_for(seed), 5)
        for k in (2, 4, 8, 16):
            res = inner_factor_general(B, k)
            assert res.found, (seed, k, res.reason)
            assert res.inner.degree == k and res.outer.degree == 32 // k
            assert _sup(B, compose(res.outer, res.inner)) < 1e-8
    # random products are almost surely indecomposable
    for degree, seed in ((8, 941), (8, 942), (12, 943), (12, 944)):
        B = random_product(rng_for(seed), degree)
        for k in range(2, degree):
            if degree % k == 0:
                res = inner_factor_general(B, k)
                assert not res.found, (degree, seed, k)
                assert res.reason in ("not-found", "verification-failed")


def test_compose_re_expands_degree_32_towers():
    # compose solves the fibers of D over the zeros of C; at k = 16 the
    # coefficient-form solve re-expanded these only to 1e-10 and 5e-10
    for seed in (932, 935):
        B = _tower(rng_for(seed), 5)
        res = inner_factor_general(B, 16)
        assert res.found, (seed, res.reason)
        assert _sup(B, compose(res.outer, res.inner)) <= 1e-12


def test_each_inner_factor_is_its_block_system():
    # the paper's link: the D-fibers of the zero labels are the blocks of
    # the one size-k system of the monodromy group
    demos = demo_corpus()
    products = [demos["chain3"].expand(), demos["elliptical8"], demos["deg6elliptic"]]
    products += [_tower(rng_for(seed), 3) for seed in (951, 952, 953)]
    products += [_tower(rng_for(seed), 4) for seed in (961, 962, 963)]
    for P in products:
        N = normalize(P).product
        mono = monodromy_group(N)
        systems = block_systems(mono.group)
        found = set()
        for k in range(2, N.degree):
            if N.degree % k != 0:
                continue
            res = inner_factor_general(N, k)
            if not res.found:
                continue
            found.add(k)
            classes: dict[complex, list[int]] = {}
            for i, z in enumerate(mono.labels):
                v = res.inner(z)
                key = next((c for c in classes if abs(c - v) <= 1e-6), v)
                classes.setdefault(key, []).append(i)
            blocks = tuple(sorted(tuple(b) for b in classes.values()))
            (system,) = [s for s in systems if s.block_size == k]
            assert blocks == system.blocks
        assert found and found == {s.block_size for s in systems}


# ------------------------------------------------- ellipse versus decomposing


def test_elliptical_check_deg6_elliptic():
    report = elliptical_implies_decomposable_check(DEG6_ELLIPTIC)
    assert report.verdict.is_ellipse
    assert report.consistent
    assert all(row.found for row in report.rows)
    assert sorted(row.k for row in report.rows) == [2, 3]


def test_elliptical_check_deg6_nonelliptic():
    report = elliptical_implies_decomposable_check(DEG6_NONELLIPTIC)
    assert not report.verdict.is_ellipse
    assert report.consistent


def test_elliptical_check_nonexample():
    report = elliptical_implies_decomposable_check(B84)
    assert not report.verdict.is_ellipse
    assert report.consistent
    assert all(row.found for row in report.rows)


def test_elliptical_check_needs_origin_zero():
    with pytest.raises(DegenerateInput):
        elliptical_implies_decomposable_check(
            BlaschkeProduct(1.0, (0.3 + 0j, 0.2j, -0.4 + 0.1j, 0.5 + 0j))
        )
