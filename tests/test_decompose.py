import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from blaschke import (
    BlaschkeProduct,
    CompositionChain,
    DegenerateInput,
    DiskAutomorphism,
    InputError,
    VerificationFailure,
    compose,
    normalize,
)
from blaschke import circle, cli, decompose
from blaschke.cli import demo_corpus
from blaschke.circle import solve_levels
from blaschke.core import _MATCH_TOL, _proper_divisors
from blaschke.decompose import (
    elliptical_implies_decomposable_check,
    factor_any_order,
    inner_factor_general,
)
from blaschke.monodromy import block_systems, cross_validate, monodromy_group

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
#
# factor_any_order(B, (2,) * k), the paper's chain of k quadratic maps for a
# degree-2^k product, as cli decompose asks for it


def _quadratic_chain(B):
    k = B.degree.bit_length() - 1
    chain = factor_any_order(B, (2,) * k)
    assert [f.degree for f in chain.factors] == [2] * k
    # every inner factor is z (z - b) / (1 - conj(b) z)
    assert all(f.zeros[0] == 0 and f.gamma == 1 for f in chain.factors[1:])
    return chain


def test_chain_2n_round_trip_degree_4():
    rng = rng_for(511)
    for _ in range(8):
        chain = CompositionChain(
            tuple(random_product(rng, 2, radius=0.55) for _ in range(2))
        )
        B = chain.expand()
        found = _quadratic_chain(B)
        assert decompose._chain_error(found, B) < 1e-8
        assert _sup(B, found.expand()) < 1e-8


def test_chain_2n_round_trip_degree_8():
    rng = rng_for(512)
    for _ in range(4):
        chain = CompositionChain(
            tuple(random_product(rng, 2, radius=0.5) for _ in range(3))
        )
        B = chain.expand()
        assert _sup(B, _quadratic_chain(B).expand()) < 1e-8


def test_chain_2n_nonexample():
    assert _sup(B84, _quadratic_chain(B84).expand()) < 1e-8


def test_chain_2n_rejects_other_degrees():
    # a chain of quadratic maps needs a power-of-two degree: every
    # (2, ..., 2) ordering of a degree-6 product is refused before any search
    B = random_product(rng_for(513), 6)
    for k in (1, 2, 3):
        with pytest.raises(DegenerateInput, match="does not match degree 6"):
            factor_any_order(B, (2,) * k)


def test_chain_2n_reports_failure_for_indecomposable():
    # the degree-4 product has no degree-2 inner factor, and in the degree-8
    # one the degree-2 inner factor peels off and its degree-4 outer factor
    # has none
    B4 = random_product(rng_for(514), 4, origin_zero=True)
    B8 = compose(B4, random_product(rng_for(516), 2, radius=0.5))
    for B, shape, level in ((B4, (2, 2), 0), (B8, (2, 2, 2), 1)):
        with pytest.raises(DegenerateInput) as raised:
            factor_any_order(B, shape)
        assert str(raised.value) == (
            f"no degree-2 inner factor at level {level} (pending degree 4): "
            "search not-found, error inf"
        )


def test_chain_2n_degree_32_towers():
    for seed in (931, 932, 935):
        B = _tower(rng_for(seed), 5)
        assert _sup(B, _quadratic_chain(B).expand()) < 1e-8, seed


def test_chain_2n_degree_16_towers_without_origin_zeros():
    for seed in (971, 976, 982):
        B = random_degree2_chain(rng_for(seed), 4).expand()
        assert _sup(B, _quadratic_chain(B).expand()) < 1e-8, seed


def test_chain_2n_solves_a_tower_without_compose(monkeypatch):
    B = _tower(rng_for(931), 4)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compose(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "blaschke" and getattr(module, "compose", None) is compose:
            monkeypatch.setattr(module, "compose", counting)
    _quadratic_chain(B)
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
        # degree-32 cases; now every ordering of every product factors
        pytest.param(
            lambda: _one_critical_value(24), _orderings(24), 48, id="tau-phi-24"
        ),
        pytest.param(
            lambda: _one_critical_value(32), _orderings(32), 40, id="tau-phi-32"
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


@pytest.mark.parametrize("ordering", [[2.9, 2.1], [2.0, 2], ["a"], [2, None]])
def test_factor_any_order_refuses_an_entry_that_is_not_an_integer(monkeypatch, ordering):
    # no entry is rounded or parsed: 2.9 is not read as 2, and the refusal
    # comes before any search
    T = compose(BlaschkeProduct(1, (0j, 0.3 + 0.2j)), BlaschkeProduct(1, (0j, -0.4j)))

    def searched(*args):
        raise AssertionError("searched for an inner factor")

    monkeypatch.setattr(decompose, "inner_factor_general", searched)
    with pytest.raises(DegenerateInput, match="ordering entries must be integers"):
        factor_any_order(T, ordering)


def test_factor_any_order_refuses_a_nan_re_expansion_error(monkeypatch):
    # the certificate is written as not err <= _MATCH_TOL, so NaN fails it
    T = compose(BlaschkeProduct(1, (0j, 0.3 + 0.2j)), BlaschkeProduct(1, (0j, -0.4j)))
    monkeypatch.setattr(decompose, "_chain_error", lambda chain, B: math.nan)
    with pytest.raises(VerificationFailure, match="re-expansion error nan"):
        factor_any_order(T, (4,))


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


def test_inner_factor_refuses_a_k_that_is_not_an_integer_before_the_kept_results():
    # 2.0 equals 2 as a key of the kept results, so the check must come first
    T = compose(BlaschkeProduct(1, (0j, 0.3 + 0.2j)), BlaschkeProduct(1, (0j, -0.4j)))
    # on a new product, then with the k = 2 search kept on it
    for _ in range(2):
        with pytest.raises(InputError, match="k must be a proper divisor of 4, got 2.0"):
            inner_factor_general(T, 2.0)
        assert inner_factor_general(T, 2).found
    assert inner_factor_general(T, np.int64(2)).k == 2


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


@pytest.mark.parametrize(
    "B",
    [
        BlaschkeProduct(1.0, (0j,)),
        BlaschkeProduct(1.0, (0.3 + 0j, 0.2j, -0.4 + 0.1j, 0.5 + 0j)),
    ],
    ids=["degree-one", "no-origin-zero"],
)
def test_elliptical_check_refuses_a_product_without_a_model_space(monkeypatch, B):
    # B/z has no model space: the check raises DegenerateInput before it
    # searches for a factor or builds the compressed shift
    def forbidden(*args):
        raise AssertionError("searched or swept a refused product")

    monkeypatch.setattr(decompose, "inner_factor_general", forbidden)
    monkeypatch.setattr(decompose, "shift_matrix", forbidden)
    with pytest.raises(DegenerateInput):
        elliptical_implies_decomposable_check(B)


def test_every_reader_of_the_divisor_table_asks_each_divisor_in_order(
    monkeypatch, capsys, tmp_path
):
    # the elliptical check, cross_validate and the CLI's decompose read one
    # divisor table; a wrapper bound wherever a blaschke module holds the
    # search, as a benchmark capture binds one, sees every search of it
    original = decompose.inner_factor_general
    asked = []

    def keep(B, k):
        result = original(B, k)
        asked.append((B.degree, k, result.k))
        return result

    for name, module in list(sys.modules.items()):
        if name == "blaschke" or name.startswith("blaschke."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, keep)

    elliptical_implies_decomposable_check(DEG6_ELLIPTIC)
    assert asked == [(6, 2, 2), (6, 3, 3)]

    asked.clear()
    cross_validate(random_product(rng_for(4401), 12))
    assert asked == [(12, k, k) for k in (2, 3, 4, 6)]

    asked.clear()
    assert cli.main(["decompose", "--demo", "nonexample84", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # the quadratic chain peels (8, 2) and then (4, 2); the divisor table and the
    # elliptical check each ask for every proper divisor of 8
    assert asked == [(8, 2, 2), (4, 2, 2)] + [(8, 2, 2), (8, 4, 4)] * 2


def _count_solves_per_product(monkeypatch) -> dict:
    """Record the target count of every circle.solve_levels call, by
    product; the searches and level sets are kept on each product, so the
    products counted must be new."""
    calls: dict = {}
    real = circle.solve_levels

    def counted(B, lams):
        calls.setdefault(B, []).append(len(lams))
        return real(B, lams)

    monkeypatch.setattr(circle, "solve_levels", counted)
    return calls


def _level_set_through_one(B):
    """The points of a raw one-target solve_levels(B, [B(1)]), rolled to
    start at the point nearest 1."""
    (row,) = solve_levels(B, [B(1.0)]).points
    return np.roll(row, -int(np.argmin(np.abs(row - 1.0))))


def _assert_constant_on_every_class(B, D, k):
    # D is constant on each class mod hop of the level set through 1
    hop = B.degree // k
    values = D.evaluate(_level_set_through_one(B).reshape(k, hop).T)
    assert np.abs(values - values[:, :1]).max() <= _MATCH_TOL


def test_every_divisor_search_of_a_product_shares_one_solve(monkeypatch):
    # the level set through 1 serves all divisors of a degree-16 tower: each
    # search reads class 0 mod hop = 16/k of its points and their psi'
    # rates, and every D found is constant on every class
    N = normalize(_tower(rng_for(971), 4)).product
    mono = monodromy_group(N)
    calls = _count_solves_per_product(monkeypatch)
    real = decompose._inner_from_class
    classes = {}

    def recorded(points, rates, k):
        classes[k] = (points, rates)
        return real(points, rates, k)

    monkeypatch.setattr(decompose, "_inner_from_class", recorded)
    cross = cross_validate(N)
    assert calls == {N: [1]}
    assert [(r.k, r.block_system, r.factor_found) for r in cross.rows] == [
        (2, True, True),
        (4, True, True),
        (8, True, True),
    ]
    assert cross.monodromy is mono
    kept = circle._level_sets_through(N, (1.0 + 0j,))
    for k in (2, 4, 8):
        hop = 16 // k
        points, rates = classes[k]
        assert np.array_equal(points, kept.points[0, ::hop])
        assert np.array_equal(rates, kept.rates[0, ::hop])
        _assert_constant_on_every_class(N, inner_factor_general(N, k).inner, k)


@pytest.mark.parametrize("k", [2, 3, 5, 8, 16, 32, 64])
def test_the_search_recovers_d_from_one_class_and_its_rates(k):
    # on a level set of D itself, with D(0) = 0, the Clark weights
    # m_j = 1/|D'(a_j)| are the reciprocal psi' rates: D/(D - c) is
    # z sum_j m_j / (z - a_j) inside the disk, and the zeros of that sum
    # give D back up to rotation
    rng = rng_for(41 + k)
    D = random_product(rng, k, origin_zero=True)
    c = cmath.exp(1j * rng.uniform(0.0, TAU))
    level = solve_levels(D, [c])
    a, rates = level.points[0], level.rates[0]
    w = 0.9 * np.sqrt(rng.uniform(size=32)) * np.exp(1j * rng.uniform(0.0, TAU, 32))
    Dw = D.evaluate(w)
    clark = w * (1.0 / rates / (w[:, None] - a)).sum(axis=1)
    assert np.abs(Dw / (Dw - c) - clark).max() <= 1e-14
    found = decompose._inner_from_class(a, rates, k)
    z = np.array(circle_grid(64, 0.17))
    turn = D.evaluate(z) / found.evaluate(z)
    assert np.abs(turn - turn[0]).max() <= 1e-11


def test_decompose_demo_solves_once_per_product(monkeypatch, capsys, tmp_path):
    # the quadratic chain peels power8 and its degree-4 outer factor; the
    # divisor table asks again for power8, so two products take one
    # one-target solve each, and the report is the recorded one
    calls = _count_solves_per_product(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["decompose", "--demo", "power8", "--out", "out"]) == 0
    golden = Path(__file__).resolve().parent / "data" / "golden"
    assert capsys.readouterr().out == (golden / "decompose-power8.stdout").read_text()
    assert sorted(B.degree for B in calls) == [4, 8]
    assert list(calls.values()) == [[1], [1]]
    for B in calls:
        for k in _proper_divisors(B.degree):
            result = inner_factor_general(B, k)
            if result.found:
                _assert_constant_on_every_class(B, result.inner, k)


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_factor_any_order_solves_one_level_set_per_pending_product(
    monkeypatch, levels
):
    # each search peels degree 2 off the pending product with one solve of
    # the level set through 1; the last pending degree 2 is taken whole
    T = _tower(rng_for(5100 + levels), levels)
    calls = _count_solves_per_product(monkeypatch)
    chain = factor_any_order(T, (2,) * levels)
    assert [f.degree for f in chain.factors] == [2] * levels
    assert sorted(B.degree for B in calls) == [2**m for m in range(2, levels + 1)]
    assert list(calls.values()) == [[1]] * (levels - 1)
