import cmath
import functools
import math
from collections import Counter

import numpy as np
import pytest

import blaschke.critical as critical
from blaschke import (
    BlaschkeProduct,
    CompositionChain,
    CountMismatch,
    DegenerateInput,
    DiskAutomorphism,
    InputError,
    SolverFailure,
    compose,
    normalize,
)
from blaschke.circle import solve_levels
from blaschke.core import circle_samples
from blaschke.cli import demo_corpus
from blaschke.critical import (
    _cluster_values,
    _half_plane_zeros,
    _log_derivative,
    _polish,
    _secular_roots,
    check_value_bound,
    critical_data,
    fiber,
)
from blaschke.errors import BlaschkeError
from blaschke.decompose import factor_any_order

from conftest import (
    TAU,
    circle_grid,
    random_degree2_chain,
    random_product,
    rng_for,
)


# ----------------------------------------------------- convex hull oracle


def _hull(points):
    # Andrew's monotone chain; returns hull vertices counterclockwise
    pts = sorted(set((p.real, p.imag) for p in points))
    if len(pts) <= 2:
        return [complex(*p) for p in pts]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ax, ay = out[-2]
                bx, by = out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return [complex(*p) for p in lower[:-1] + upper[:-1]]


def _in_hull(point, vertices, slack=1e-9):
    if len(vertices) == 1:
        return abs(point - vertices[0]) <= slack
    if len(vertices) == 2:
        a, b = vertices
        d = b - a
        t = ((point - a).conjugate() * d).real / abs(d) ** 2
        t = min(1.0, max(0.0, t))
        return abs(point - (a + t * d)) <= slack
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        cross = ((b - a).conjugate() * (point - a)).imag
        if cross < -slack * max(1.0, abs(b - a)):
            return False
    return True


def test_hull_oracle_sanity():
    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 0j]
    hull = _hull(square)
    assert len(hull) == 4
    assert _in_hull(0.5 + 0.5j, hull)
    assert not _in_hull(1.5 + 0j, hull)


# --------------------------------------------------------------- critical data


def test_critical_count_and_values():
    rng = rng_for(211)
    for _ in range(8):
        B = random_product(rng, int(rng.integers(2, 8)))
        cd = critical_data(B)
        assert len(cd.points_in_disk) == B.degree - 1
        for p, v in zip(cd.points_in_disk, cd.values):
            assert abs(p) < 1.0
            assert abs(B(p) - v) < 1e-9
            assert abs(B.derivative(p)) < 1e-6


def test_critical_points_in_walsh_hull():
    rng = rng_for(212)
    for _ in range(25):
        B = random_product(rng, int(rng.integers(2, 9)))
        hull = _hull([0j, *B.zeros])
        cd = critical_data(B)
        for p in cd.points_in_disk:
            assert _in_hull(p, hull, slack=1e-7)


def test_critical_set_invariant_under_post_composition():
    rng = rng_for(213)
    B = random_product(rng, 5, radius=0.7)
    phi = DiskAutomorphism(cmath.exp(0.9j), 0.3 - 0.2j)
    C = compose(phi.as_blaschke(), B)
    a = sorted(critical_data(B).points_in_disk, key=lambda z: (z.real, z.imag))
    b = sorted(critical_data(C).points_in_disk, key=lambda z: (z.real, z.imag))
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-7


def test_power_has_single_critical_value():
    B = BlaschkeProduct(1.0, (0j,) * 8)
    cd = critical_data(B)
    assert len(cd.distinct_values) == 1
    value, mult = cd.distinct_values[0]
    assert abs(value) < 1e-12
    assert mult == 7


def _uniform_modulus_product(rng, degree):
    # zero moduli uniform on [0, 0.8), angles uniform
    zeros = tuple(
        rng.uniform(0.0, 0.8) * cmath.exp(1j * rng.uniform(0.0, TAU))
        for _ in range(degree)
    )
    return BlaschkeProduct(cmath.exp(1j * rng.uniform(0.0, TAU)), zeros)


def _derivative_residual(B, z):
    # |B'(z)| over sum_j |f_j'(z)| prod_{k != j} |f_k(z)|, from the factors:
    # relative, because |B| and |B'| are tiny over most of the disk at
    # high degree, where an absolute bound would pass any point
    a = np.array(B.zeros)
    den = 1.0 - a.conj() * z
    f = (z - a) / den
    df = (1.0 - np.abs(a) ** 2) / den**2
    terms = np.array([df[j] * np.prod(np.delete(f, j)) for j in range(len(a))])
    return abs(terms.sum()) / np.abs(terms).sum()


def _assert_certified(B):
    cd = critical_data(B)
    assert len(cd.points_in_disk) == B.degree - 1
    assert len(set(cd.points_in_disk)) == B.degree - 1
    for p in cd.points_in_disk:
        assert abs(p) < 1.0
        assert _derivative_residual(B, p) <= 1e-6


@pytest.mark.parametrize("degree", [32, 48, 64])
def test_critical_points_certified_up_to_degree_64(degree):
    # the coefficient form of B' refused most of these from degree 24 up
    rng = rng_for(3000 + degree)
    for _ in range(8):
        _assert_certified(_uniform_modulus_product(rng, degree))


@pytest.mark.parametrize("degree", [20, 24])
def test_critical_points_of_normalized_products(degree):
    # normalizing moves zeros toward the circle; the coefficient form then
    # found more than n - 1 roots in the disk and raised CountMismatch
    rng = rng_for(3000 + degree)
    for _ in range(8):
        _assert_certified(normalize(_uniform_modulus_product(rng, degree)).product)


def mpmath_critical_point(mpmath, zeros, z0):
    """Newton on S = B'/B from z0 at 50 digits, the nodes formed from the
    float zeros exactly: the oracle for a simple critical point."""
    with mpmath.workdps(50):
        nodes = []
        for a, m in Counter(zeros).items():
            am = mpmath.mpc(a.real, a.imag)
            nodes.append((am, m))
            if a != 0:
                nodes.append((1 / mpmath.conj(am), -m))
        z = mpmath.mpc(z0.real, z0.imag)
        for _ in range(30):
            inverse = [(w, 1 / (z - x)) for x, w in nodes]
            step = mpmath.fsum(w * v for w, v in inverse) / -mpmath.fsum(
                w * v * v for w, v in inverse
            )
            z -= step
            # quadratic from a float start: z is then far inside any bound
            if abs(step) < 1e-20:
                break
        return complex(z)


def assert_critical_points_match_mpmath(B, bound=1e-9):
    mpmath = pytest.importorskip("mpmath")
    _assert_certified(B)
    for p in critical_data(B).points_in_disk:
        assert abs(p - mpmath_critical_point(mpmath, B.zeros, p)) <= bound


@pytest.mark.parametrize("degree", [24, 48, 64])
def test_critical_points_match_mpmath_newton(degree):
    # the starts come from the real half-plane eigensolve; each polished
    # point is the critical point a 50-digit Newton on S reaches from it
    B = random_product(rng_for(4300 + degree), degree, radius=0.8)
    assert_critical_points_match_mpmath(B)


@pytest.mark.parametrize(
    "zeros",
    [
        (0j, 0.5 + 0.2j, -0.4 + 0.3j, 0.1 - 0.6j, -0.2 - 0.1j),
        (0.3 + 0.4j, 0.3 + 0.4j, 0.3 + 0.4j, -0.5 + 0.1j, 0.2 - 0.6j, -0.1j),
        (0.999 * cmath.exp(0.7j), 0.5 - 0.3j, -0.6 + 0.2j, 0.1 + 0.1j, -0.3 - 0.7j),
    ],
    ids=["zero-at-0", "repeated-zero", "zero-at-0.999"],
)
def test_half_plane_starts_come_in_exact_conjugate_pairs(zeros):
    # t = i(s + z)/(s - z) turns each reflection into a conjugate, so the
    # real eigensolve returns every zero of S in the disk (Im t > 0) with its
    # reflection (Im t < 0) as an exact conjugate: K - 1 pairs for K
    # distinct zeros, the multiplicities being critical points on their own
    B = BlaschkeProduct(1.0, zeros)
    counts = Counter(zeros)
    s, t = _half_plane_zeros(counts)
    upper, lower = t[t.imag > 0], t[t.imag < 0]
    assert abs(s) == pytest.approx(1.0)
    assert len(upper) == len(lower) == len(counts) - 1
    assert np.array_equal(np.sort_complex(upper), np.sort_complex(lower.conj()))
    cd = critical_data(B)
    assert len(cd.points_in_disk) == B.degree - 1
    assert all(abs(p) < 1.0 for p in cd.points_in_disk)
    for a, k in counts.items():
        assert cd.points_in_disk.count(a) == k - 1


def test_half_plane_shift_is_the_first_sample_farthest_from_the_zeros():
    # the shift as a Python max over the samples, each scored by its own
    # distance array; for z^2 and z^8 every sample is at distance 1 up to
    # rounding
    rng = rng_for(4320)
    cases = [Counter((0j, 0j)), Counter((0j,) * 8)] + [
        Counter(random_product(rng, int(rng.integers(1, 40)), radius=0.9).zeros)
        for _ in range(30)
    ]
    for counts in cases:
        a = np.array(list(counts), dtype=complex)
        want = max(
            circle_samples(16, 0.3),
            key=lambda p: np.min(np.abs(a[:, None] - np.array([p, -p]))),
        )
        assert repr(_half_plane_zeros(counts)[0]) == repr(want)


# ----------------------------------------------------------------------- fiber


def test_fiber_edge_cases():
    # z^8 over 0: the shift matrix is triangular, so the zeros are exact
    assert fiber(BlaschkeProduct(1.0, (0j,) * 8), 0j) == [0j] * 8
    # one zero of multiplicity 6: exact for the same reason
    assert fiber(BlaschkeProduct(1.0, (0.5 + 0j,) * 6), 0j) == [0.5 + 0j] * 6
    # tau o phi_a^4 takes tau(0) only at a, four times: the eigensolve
    # returns four points about eps^(1/4) apart, merged into one point
    a = 0.3 + 0.25j
    tau = DiskAutomorphism(cmath.exp(0.7j), 0.35 - 0.2j)
    B = compose(tau.as_blaschke(), BlaschkeProduct(1.0, (a,) * 4))
    points = fiber(B, tau(0j))
    assert len(points) == 4 and len(set(points)) == 1
    assert abs(points[0] - a) < 1e-12


@pytest.mark.parametrize(
    "w", [complex("nan"), complex("inf"), complex(0.2, float("nan"))]
)
def test_fiber_refuses_a_value_that_is_not_finite(w):
    B = BlaschkeProduct(1.0, (0.5 + 0j, -0.3j, 0.2 + 0.1j))
    with pytest.raises(InputError, match="fiber value w .* is not finite"):
        fiber(B, w)


def test_fiber_refuses_the_value_at_infinity():
    # B(infinity) = 1/conj(B(0)) = -13.33 + 26.67i here: one of the n
    # solutions of B(z) = w has gone to infinity
    B = BlaschkeProduct(1.0, (0.5 + 0j, -0.3j, 0.2 + 0.1j))
    w = 1.0 / B.evaluate(0j).conjugate()
    with pytest.raises(DegenerateInput, match="lies at infinity"):
        fiber(B, w)


@pytest.mark.parametrize("degree", [3, 5, 8, 12, 16, 20, 24])
def test_fiber_on_the_circle_matches_solve_on_circle(degree):
    # a second oracle for the circle solve, independent of the np.roots one
    B = random_product(rng_for(150 + degree), degree, radius=0.8)
    lams = [cmath.exp(1j * t) for t in (0.0, 0.9, 2.3, 3.7, 5.2)]
    for lam, row in zip(lams, solve_levels(B, lams).points):
        points = np.array(fiber(B, lam))
        for z in row:
            assert np.min(np.abs(points - z)) < 1e-12


# ----------------------------------------------------------------- value bound


def test_value_bound_on_random_chains():
    rng = rng_for(221)
    for _ in range(10):
        count = int(rng.integers(2, 4))
        chain = random_degree2_chain(rng, count)
        report = check_value_bound(chain)
        assert report.ok
        assert report.bound == sum(d - 1 for d in report.factor_degrees)
        assert report.distinct_count <= report.bound


def test_value_bound_tight_for_power_chain():
    chain = CompositionChain(
        (BlaschkeProduct(1.0, (0j, 0j)), BlaschkeProduct(1.0, (0j, 0j)))
    )
    report = check_value_bound(chain)
    assert report.distinct_count == 1
    assert report.bound == 2


def test_value_bound_survives_degree_sixteen():
    # four degree-2 factors push the derivative numerator to degree 30,
    # where its coefficients dwarf the derivative near the boundary and
    # the located roots alone would fragment the value clusters
    rng = rng_for(1016)
    for _ in range(8):
        chain = random_degree2_chain(rng, 4, radius=0.6)
        report = check_value_bound(chain)
        assert report.ok
        assert report.distinct_count <= report.bound

        B = chain.expand()
        cd = critical_data(B)
        assert max(abs(B.derivative(p)) for p in cd.points_in_disk) < 1e-9


def test_factor_any_order():
    a = 0.3 + 0.25j
    tau = DiskAutomorphism(cmath.exp(0.6j), 0.2 - 0.1j)
    M = compose(tau.as_blaschke(), BlaschkeProduct(1.0, (a,) * 4))
    for ordering in ((2, 2), (4,), (2, 2, 1)):
        if math.prod(ordering) != 4:
            with pytest.raises(InputError):
                factor_any_order(M, ordering)
            continue
        chain = factor_any_order(M, ordering)
        assert tuple(f.degree for f in chain.factors) == ordering
        for z in circle_grid(32, 0.13):
            assert abs(chain(z) - M(z)) < 1e-7


def test_factor_any_order_rejects_wrong_product():
    M = compose(
        DiskAutomorphism(1.0, 0.1 + 0j).as_blaschke(),
        BlaschkeProduct(1.0, (0.3 + 0j,) * 4),
    )
    with pytest.raises(InputError):
        factor_any_order(M, (3, 2))


# ------------------------------------------------- array polish and clusters


def _reference_kth(nodes, weights, z, k):
    # one point at a time: the reference for the array critical._secular_kth
    d = z - nodes
    terms = weights * ((-1.0) ** k * math.factorial(k)) / d ** (k + 1)
    return (
        complex(terms.sum()),
        complex((-(k + 1) * terms / d).sum()),
        float(np.abs(terms).sum()),
    )


def _reference_polish(nodes, weights, r, m):
    # Newton one point at a time under the rules of the array critical._polish
    z = complex(r)
    with np.errstate(all="ignore"):
        for _ in range(60):
            f, df, scale = _reference_kth(nodes, weights, z, m - 1)
            if df == 0:
                break
            step = f / df
            if not (math.isfinite(step.real) and math.isfinite(step.imag)):
                break
            z = z - step
            if abs(step) <= 1e-16 * (1.0 + abs(z)):
                break
            if abs(step) <= 4.0 * np.finfo(float).eps * scale / abs(df):
                break
        if not (abs(z - r) < 5e-2 and abs(z) < 1.0):
            z = complex(r)
        residuals = []
        for j in range(m):
            f, _, scale = _reference_kth(nodes, weights, z, j)
            residuals.append(abs(f) / (scale + 1e-300))
    return z, float(np.max(residuals))


def _raw_starts(B):
    """The in-disk zeros of S as _critical_data takes them from the real
    eigensolve, before clustering and polish, with its nodes and weights."""
    counts = Counter(B.zeros)
    nodes, weights = _log_derivative(counts)
    s, t = _half_plane_zeros(counts)
    t = t[t.imag > 0]
    return nodes, weights, list(s * (t - 1j) / (t + 1j))


def _polish_cases(B):
    """(nodes, weights, starts, m) for every polish critical_data makes on B,
    plus every raw in-disk eigenvalue polished as a simple zero."""
    nodes, weights, raw = _raw_starts(B)
    cases = [(nodes, weights, raw, 1)] if raw else []
    merged = _secular_roots(nodes, weights, raw)
    for m in sorted({m for _, m in merged}):
        cases.append((nodes, weights, [r for r, k in merged if k == m], m))
    return cases


_POLISH_DEGREES = (8, 16, 24, 32, 48, 64)
_POLISH_NAMES = [f"random{d}-{j}" for d in _POLISH_DEGREES for j in range(3)] + [
    "power2", "power8", "elliptical8", "nonexample84", "deg6elliptic",
    "deg6nonelliptic", "chain3",
]


@functools.lru_cache(maxsize=None)
def _polish_products(name):
    """The named product and, when normalize accepts it, its normal form."""
    if name.startswith("random"):
        degree, j = (int(x) for x in name[len("random"):].split("-"))
        rng = rng_for(4100 + degree)
        for _ in range(j + 1):
            B = random_product(rng, degree, radius=0.8)
    else:
        B = demo_corpus()[name]
        B = B.expand() if isinstance(B, CompositionChain) else B
    try:
        return B, normalize(B).product
    except BlaschkeError:
        return (B,)


@pytest.mark.parametrize("name", _POLISH_NAMES)
def test_array_polish_matches_per_point_newton(name):
    for B in _polish_products(name):
        for nodes, weights, starts, m in _polish_cases(B):
            points, residuals = _polish(nodes, weights, np.array(starts), m)
            assert points.shape == residuals.shape == (len(starts),)
            for r, p, res in zip(starts, points, residuals):
                p_ref, res_ref = _reference_polish(nodes, weights, r, m)
                assert abs(p - p_ref) <= 1e-15
                for bound in (1e-6, 1e-8):
                    assert (res <= bound) == (res_ref <= bound)
                # a point's bits do not depend on the points polished with it
                alone, alone_residual = _polish(nodes, weights, np.array([r]), m)
                assert (alone[0], alone_residual[0]) == (p, res)


def test_polish_corpus_holds_multiple_and_normalized_points():
    def multiplicities(B):
        return {m for *_, m in _polish_cases(B)}

    # normalizing z^8 leaves one critical point of multiplicity 7 off the zeros
    assert 7 in multiplicities(_polish_products("power8")[1])
    assert 7 in multiplicities(_polish_products("elliptical8")[0])
    assert len(_polish_products("deg6elliptic")) == 2
    normalized = [len(_polish_products(n)) == 2 for n in _POLISH_NAMES[:18]]
    assert sum(normalized) >= 6


def test_polish_keeps_the_start_of_a_point_that_runs_away():
    # start beside a pole of S: Newton leaves the disk or jumps far, so the
    # start comes back, with the residual there
    nodes, weights = _log_derivative(Counter((0.5 + 0j, -0.3j, 0.2 + 0.6j)))
    starts = np.array([0.5 + 1e-9j, -0.3j + 1e-9, 0.1 + 0.1j])
    points, residuals = _polish(nodes, weights, starts, 1)
    for r, p, res in zip(starts, points, residuals):
        p_ref, res_ref = _reference_polish(nodes, weights, r, 1)
        assert abs(p - p_ref) <= 1e-15
        assert (res <= 1e-6) == (res_ref <= 1e-6)
    assert points[0] == starts[0] and points[1] == starts[1]
    assert not residuals[0] <= 1e-6


def test_failed_certificate_names_the_first_failing_point(monkeypatch):
    # fail every point in the right half plane: the error must name the
    # first of them in (real, imag) order, as the per-point loop did
    B = random_product(rng_for(4200), 12, radius=0.8)
    merged = _secular_roots(*_raw_starts(B))
    first = next(r for r, _ in merged if r.real > 0)
    assert first != min((r for r, _ in merged), key=lambda z: (z.real, z.imag))
    polish = critical._polish

    def failing(nodes, weights, starts, m):
        points, residuals = polish(nodes, weights, starts, m)
        return points, np.where(np.asarray(starts).real > 0, 0.5, residuals)

    monkeypatch.setattr(critical, "_polish", failing)
    with pytest.raises(SolverFailure) as excinfo:
        critical_data(B)
    assert str(excinfo.value) == (
        f"critical point near {first:.6f} has derivative residual 5.0e-01; "
        f"root location unreliable at degree 12"
    )
    monkeypatch.undo()
    assert len(critical_data(B).points_in_disk) == 11


def _brute_force_clusters(values, gap):
    # transitive closure of the pair table, one value at a time
    n = len(values)
    linked = [[abs(values[i] - values[j]) <= gap for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if linked[i][k]:
                for j in range(n):
                    linked[i][j] = linked[i][j] or linked[k][j]
    roots = [min(j for j in range(n) if linked[i][j] or j == i) for i in range(n)]
    members = {}
    for i, root in enumerate(roots):
        members.setdefault(root, []).append(i)
    groups = sorted(
        ((sum(values[i] for i in g) / len(g), g) for g in members.values()),
        key=lambda mg: (mg[0].real, mg[0].imag),
    )
    index = [0] * n
    for k, (_, g) in enumerate(groups):
        for i in g:
            index[i] = k
    return [(mean, len(g)) for mean, g in groups], index


@pytest.mark.parametrize(
    "values,gap,expected",
    [
        ([], 0.1, ([], [])),
        ([0.3 + 0.1j], 0.1, ([(0.3 + 0.1j, 1)], [0])),
        # a-b and b-c are links, a-c is not: one cluster by transitivity
        ([0.0j, 0.08 + 0j, 0.16 + 0j], 0.1, ([(0.08 + 0j, 3)], [0, 0, 0])),
        # the chain given out of order still closes; means sort by real part
        ([0.25 + 0j, -0.5j, 0.0j, 0.125 + 0j], 0.2,
         ([(-0.5j, 1), (0.125 + 0j, 3)], [1, 0, 1, 1])),
        # exact duplicates at gap 0
        ([0.25 + 0j, 0.25 + 0j, 0.5 - 0.125j, 0.25 + 0j], 0.0,
         ([(0.25 + 0j, 3), (0.5 - 0.125j, 1)], [0, 0, 1, 0])),
    ],
)
def test_cluster_values_cases(values, gap, expected):
    assert _cluster_values(values, gap) == expected
    assert _cluster_values(values, gap) == _brute_force_clusters(values, gap)


def test_cluster_values_match_brute_force_single_linkage():
    rng = rng_for(4300)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        values = [complex(v) for v in rng.normal(size=n) + 1j * rng.normal(size=n)]
        if trial % 3 == 0:
            values += values[: n // 2]  # exact duplicates
        for gap in (0.0, 1e-8, 0.05, 0.2, 0.6, 2.0):
            got = _cluster_values(values, gap)
            want = _brute_force_clusters(values, gap)
            # equal means bit for bit: the same members summed in the same order
            assert repr(got) == repr(want)


def _merge_clusters_by_recursion(points, accept):
    """The cluster merge as one single-linkage clustering per group and gap,
    a fresh distance matrix each time."""
    out = []
    pending = [([complex(p) for p in points], 0.1)]
    while pending:
        group, gap = pending.pop()
        _, index = _brute_force_clusters(group, gap)
        members = {}
        for p, i in zip(group, index):
            members.setdefault(i, []).append(p)
        for g in members.values():
            k = len(g)
            if k > 1 and all(p == g[0] for p in g):
                out.append((g[0], k))
                continue
            mean = sum(g) / k
            radius = min(0.1, 3.0 * 1e-13 ** (1.0 / k))
            if k > 1 and max(abs(p - mean) for p in g) <= radius:
                merged = accept(mean, k)
                if merged is not None:
                    out.append((merged, k))
                    continue
            if k == 1 or gap < 1e-8:
                out.extend((p, 1) for p in g)
            else:
                pending.append((g, gap / 10.0))
    return sorted(out, key=lambda zm: (zm[0].real, zm[0].imag))


def test_merge_clusters_matches_the_recursive_merge():
    rng = rng_for(4310)
    for trial in range(60):
        points = []
        for _ in range(int(rng.integers(0, 6))):
            # a k-fold root as its eigenvalues split at about eps^(1/k)
            k = int(rng.integers(2, 5))
            c = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            turn = rng.uniform(0.0, TAU)
            spread = 1e-13 ** (1.0 / k)
            points += [c + spread * cmath.exp(1j * (turn + TAU * j / k)) for j in range(k)]
        for _ in range(int(rng.integers(0, 3))):
            # exactly equal points, and points 1e-10 apart, which a refused
            # merge links down to the last gap
            c = complex(rng.normal(), rng.normal())
            points += [c] * int(rng.integers(2, 4))
            c = complex(rng.normal(), rng.normal())
            points += [c, c + 1e-10 * cmath.exp(1j * rng.uniform(0.0, TAU))]
        for _ in range(int(rng.integers(0, 3))):
            # pairs just inside and just outside the first gap
            c = complex(rng.normal(), rng.normal())
            gap = 0.1 + rng.choice([-1e-12, 1e-12])
            points += [c, c + gap * cmath.exp(1j * rng.uniform(0.0, TAU))]
        points += [complex(v) for v in rng.normal(size=int(rng.integers(0, 8))) * (1 + 1j)]
        points = [points[i] for i in rng.permutation(len(points))]
        for accept_every in (1, 2, 3):
            calls = {"merge": [], "recursion": []}

            def accept(mean, k, who):
                calls[who].append((mean, k))
                # accept some groups and refuse others, by their mean
                if int(abs(mean) * 1e6) % accept_every:
                    return None
                return mean + 1e-15

            got = critical._merge_clusters(points, lambda m, k: accept(m, k, "merge"))
            want = _merge_clusters_by_recursion(
                points, lambda m, k: accept(m, k, "recursion")
            )
            assert repr(got) == repr(want)
            assert repr(calls["merge"]) == repr(calls["recursion"])


# ------------------------------------------------------------------- failures


def test_count_mismatch_is_raised_for_boundary_cluster():
    # zeros crowding the boundary can push computed critical points onto the
    # circle; the contract is a CountMismatch, never a silent short list
    B = BlaschkeProduct(1.0, (0.9999999 + 0j, -0.9999999 + 0j))
    try:
        cd = critical_data(B)
    except CountMismatch:
        return
    assert len(cd.points_in_disk) == 1
