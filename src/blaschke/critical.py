"""Critical points and critical values of finite Blaschke products.

The critical points of B = gamma P/Q (P = prod (z - a_j), Q = prod
(1 - conj(a_j) z)) are the roots of the numerator N = P'Q - PQ' of B', a
polynomial of degree at most 2n - 2 whose root set is closed under
z -> 1/conj(z).  Exactly n - 1 roots (with multiplicity) lie in the open
disk, inside the convex hull of {0} and the zeros.

Roots are computed by simultaneous Aberth-Ehrlich iteration with a companion
matrix fallback, followed by a multiplicity-resolution pass: a cluster of k
approximations is accepted as one multiplicity-k root only after Newton
refinement on the (k-1)-th derivative and a residual check on all lower
derivatives.  Without that pass a multiplicity-m root is only known to
~eps^(1/m), far too coarse for the downstream clustering of critical values.

The coefficient form of N is only a locator.  Near the unit circle its
coefficients can exceed |N'| by many orders of magnitude, so a root passing
the scaled residual test may still sit 1e-4 from the truth, which fragments
critical-value clusters.  Each in-disk point is therefore re-polished by
Newton on the factored logarithmic derivative B'/B, which is conditioned
like the product itself, and critical_data refuses (raises SolverFailure)
when a point cannot be certified that way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BlaschkeProduct,
    CompositionChain,
    DiskAutomorphism,
    ToleranceConfig,
    compose,
    unit,
    _DisjointSets,
    _tol,
)
from .errors import CountMismatch, DegenerateInput, SolverFailure, VerificationFailure

__all__ = [
    "product_numerator_denominator",
    "derivative_numerator",
    "polynomial_roots",
    "fiber",
    "CriticalData",
    "critical_data",
    "ValueBoundReport",
    "check_value_bound",
    "OneCriticalValueForm",
    "one_critical_value_form",
    "factor_any_order",
]

# Coefficient arrays are numpy complex vectors, lowest power first.


def _poly_trim(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    keep = len(c)
    while keep > 1 and abs(c[keep - 1]) <= 1e-14 * scale:
        keep -= 1
    return c[:keep]


def _poly_der(c: np.ndarray) -> np.ndarray:
    if len(c) <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, len(c), dtype=float)


def _poly_val(c: np.ndarray, z: complex) -> complex:
    out = 0j
    for coeff in c[::-1]:
        out = out * z + coeff
    return out


def _poly_scale(c: np.ndarray, z: complex) -> float:
    """Evaluation magnitude sum |c_i| |z|^i, the natural residual scale."""
    out = 0.0
    az = abs(z)
    for coeff in c[::-1]:
        out = out * az + abs(coeff)
    return out


def product_numerator_denominator(B: BlaschkeProduct) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of P = prod (z - a_j) and Q = prod (1 - conj(a_j) z)."""
    p = np.array([1.0 + 0.0j])
    q = np.array([1.0 + 0.0j])
    for a in B.zeros:
        p = np.convolve(p, np.array([-a, 1.0], dtype=complex))
        q = np.convolve(q, np.array([1.0, -np.conj(a)], dtype=complex))
    return p, q


def derivative_numerator(B: BlaschkeProduct) -> np.ndarray:
    """Coefficients of N = P'Q - PQ' (the constant gamma plays no role)."""
    p, q = product_numerator_denominator(B)
    n = np.convolve(_poly_der(p), q) - np.convolve(p, _poly_der(q))
    return _poly_trim(n)


def _root_radius_bound(c: np.ndarray) -> float:
    """Fujiwara bound 2 max_k |c_{n-k}/c_n|^(1/k), finite and usually tight."""
    deg = len(c) - 1
    lead = abs(c[deg])
    best = 0.0
    for k in range(1, deg + 1):
        a = abs(c[deg - k]) / lead
        if a > 0.0:
            best = max(best, a ** (1.0 / k))
    return 2.0 * best


def _aberth(c: np.ndarray, tol: ToleranceConfig) -> np.ndarray | None:
    """Simultaneous root iteration; returns None if 500 iterations pass."""
    deg = len(c) - 1
    bound = _root_radius_bound(c)
    k = np.arange(deg)
    # staggered start: slightly irrational angle fraction, mild radius jitter
    z = (
        max(1.0, bound)
        * np.exp(2j * np.pi * (k + 0.371) / deg)
        * (1.0 + 0.01 * ((k % 3) - 1) / deg)
    )

    with np.errstate(all="ignore"):
        for _ in range(500):
            pv = np.zeros(deg, dtype=complex)
            dv = np.zeros(deg, dtype=complex)
            for coeff in c[::-1]:
                dv = dv * z + pv
                pv = pv * z + coeff
            w = np.where(dv != 0, pv / np.where(dv != 0, dv, 1.0), pv)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - w * s
            step = np.where(denom != 0, w / np.where(denom != 0, denom, 1.0), w)
            if not np.all(np.isfinite(step)):
                return None
            z = z - step
            if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(z))):
                return z
    return None


def _newton_polish(c: np.ndarray, dc: np.ndarray, z: complex, iters: int = 50) -> complex:
    for _ in range(iters):
        f = _poly_val(c, z)
        df = _poly_val(dc, z)
        if df == 0:
            break
        step = f / df
        z = z - step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def _derivative_table(c: np.ndarray, depth: int) -> list[np.ndarray]:
    table = [c]
    for _ in range(depth):
        table.append(_poly_der(table[-1]))
    return table


def _verify_multiplicity(table: list[np.ndarray], mu: complex, k: int) -> bool:
    for j in range(k):
        cj = table[j]
        if abs(_poly_val(cj, mu)) > 1e-8 * (_poly_scale(cj, mu) + 1e-300):
            return False
    return True


def _resolve_clusters(
    c: np.ndarray, raw: np.ndarray, tol: ToleranceConfig
) -> list[tuple[complex, int]]:
    """Turn raw approximations into (root, multiplicity) pairs.

    Single-linkage merge tree capped at radius 0.1, walked top down.  A node
    of size k whose diameter is consistent with a multiplicity-k cluster is
    refined by Newton on the (k-1)-th derivative of the polynomial (where the
    multiple root is simple) and accepted only if p, p', ..., p^(k-1) all
    vanish at the refined point to scaled tolerance 1e-8.
    """
    pts = list(raw)
    m = len(pts)
    table = _derivative_table(c, m)

    def radius(k: int) -> float:
        return min(0.1, max(tol.cluster_tol, 3.0 * (1e-13) ** (1.0 / k)))

    # Kruskal-style merge forest capped at 0.1; forest nodes 0..m-1 are the
    # points, and node_of maps each class representative to its forest node
    sets = _DisjointSets(m)
    node_of = list(range(m))
    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    children: dict[int, tuple] = {i: () for i in range(m)}
    edges = sorted(
        (abs(pts[i] - pts[j]), i, j) for i in range(m) for j in range(i + 1, m)
    )
    for d, i, j in edges:
        if d > 0.1:
            break
        a, b = node_of[sets.find(i)], node_of[sets.find(j)]
        if not sets.union(i, j):
            continue
        node = len(members)
        members[node] = members[a] + members[b]
        children[node] = (a, b)
        node_of[sets.find(i)] = node

    roots_of_forest = {node_of[sets.find(i)] for i in range(m)}

    out: list[tuple[complex, int]] = []

    def diameter(idx_list: list[int]) -> float:
        return max(
            (abs(pts[a] - pts[b]) for a in idx_list for b in idx_list), default=0.0
        )

    def resolve(node: int) -> None:
        idx = members[node]
        k = len(idx)
        if k == 1:
            z = _newton_polish(table[0], table[1], complex(pts[idx[0]]))
            out.append((z, 1))
            return
        if diameter(idx) <= 2.0 * radius(k):
            mu0 = complex(sum(pts[i] for i in idx) / k)
            mu = _newton_polish(table[k - 1], table[k], mu0)
            if abs(mu - mu0) <= 4.0 * radius(k) and _verify_multiplicity(table, mu, k):
                out.append((mu, k))
                return
        a, b = children[node]
        resolve(a)
        resolve(b)

    for node in sorted(roots_of_forest):
        resolve(node)
    return out


def polynomial_roots(
    coeffs, tol: ToleranceConfig | None = None
) -> list[tuple[complex, int]]:
    """All roots of a polynomial with multiplicities, Aberth then companion.

    coeffs: complex coefficients, lowest power first.  Returns (root, mult)
    pairs sorted by (real, imag).  Raises SolverFailure when neither route
    produces residuals below root_tol at the found roots.
    """
    tol = _tol(tol)
    c = _poly_trim(np.asarray(coeffs, dtype=complex))
    if len(c) <= 1:
        return []

    # deflate exact zeros at the origin
    scale = float(np.max(np.abs(c)))
    origin_mult = 0
    while len(c) > 1 and abs(c[0]) <= 1e-15 * scale:
        origin_mult += 1
        c = c[1:]

    results: list[tuple[complex, int]] = []
    if origin_mult:
        results.append((0j, origin_mult))

    if len(c) > 1:
        raw = _aberth(c, tol)
        if raw is not None and not _residuals_ok(c, raw, tol):
            raw = None
        if raw is None:
            raw = np.roots(c[::-1])
            if not _residuals_ok(c, raw, tol, loose=True):
                raise SolverFailure(
                    f"root residuals exceed tolerance for degree {len(c) - 1}"
                )
        results.extend(_resolve_clusters(c, raw, tol))

    results.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return results


def fiber(
    B: BlaschkeProduct, w: complex, tol: ToleranceConfig | None = None
) -> list[complex]:
    """The n solutions of B(z) = w, repeated with multiplicity.

    They are the roots of gamma P - w Q, sorted by (real, imag); every fiber
    solve in the package goes through here.  Raises SolverFailure as
    polynomial_roots does.
    """
    p, q = product_numerator_denominator(B)
    return [
        r for r, m in polynomial_roots(B.gamma * p - w * q, tol) for _ in range(m)
    ]


def _residuals_ok(
    c: np.ndarray, roots: np.ndarray, tol: ToleranceConfig, loose: bool = False
) -> bool:
    slack = 1e3 if loose else 1.0
    for z in roots:
        if not np.isfinite(z):
            return False
        if abs(_poly_val(c, complex(z))) > slack * tol.root_tol * (
            _poly_scale(c, complex(z)) + 1e-300
        ):
            return False
    return True


def _log_derivative_kth(
    zeros: tuple[complex, ...], z: complex, k: int
) -> tuple[complex, complex, float]:
    """k-th derivative of S = B'/B at z, with S^(k+1) and a magnitude scale.

    S(z) = sum_j [1/(z - a_j) + conj(a_j)/(1 - conj(a_j) z)], so every
    derivative is an explicit sum of powers of the same linear factors and
    stays conditioned like the product itself, no matter how the expanded
    numerator coefficients behave.  The scale is the sum of term moduli,
    the natural yardstick for a relative residual.
    """
    fk = math.factorial(k)
    sign = (-1.0) ** k
    val = 0j
    nxt = 0j
    scale = 0.0
    for a in zeros:
        u = z - a
        ac = a.conjugate()
        v = 1.0 - ac * z
        t1 = sign * fk / u ** (k + 1)
        t2 = fk * ac ** (k + 1) / v ** (k + 1)
        val += t1 + t2
        nxt += -(k + 1) * t1 / u + (k + 1) * t2 * ac / v
        scale += abs(t1) + abs(t2)
    return val, nxt, scale


def _polish_critical_point(
    B: BlaschkeProduct, r: complex, m: int
) -> tuple[complex, float]:
    """Refine one in-disk critical point against the factored derivative.

    The coefficient polynomial N locates roots globally but loses accuracy
    near the boundary once its coefficients dwarf |N'| there (degree 16 and
    up in practice).  A multiplicity-m critical point is a simple zero of
    S^(m-1) where S = B'/B, so Newton on that explicit sum recovers full
    precision for any m.  Critical points sitting at a repeated zero of B
    are returned as that zero directly, since S has a pole there rather
    than a root.

    Returns (point, relative residual); the residual is 0 for the
    repeated-zero case.  The caller treats a large residual as a failed
    location, never as data.
    """
    near = [a for a in B.zeros if abs(a - r) < 1e-6]
    if len(near) >= 2:
        return complex(sum(near) / len(near)), 0.0
    z = complex(r)
    for _ in range(60):
        f, df, _ = _log_derivative_kth(B.zeros, z, m - 1)
        if df == 0:
            break
        step = f / df
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        z = z - step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    if not (abs(z - r) < 5e-2 and abs(z) < 1.0):
        z = complex(r)
    f, _, scale = _log_derivative_kth(B.zeros, z, m - 1)
    return z, abs(f) / (scale + 1e-300)


@dataclass(frozen=True)
class CriticalData:
    """Critical points in the open disk with their values.

    points_in_disk: the n-1 critical points, repeated with multiplicity.
    values: B at each point (same order and length as points_in_disk).
    distinct_values: clustered representatives with total multiplicities.
    cluster_index: for each entry of values, the index in distinct_values of
    the cluster that holds it.
    """

    points_in_disk: tuple[complex, ...]
    values: tuple[complex, ...]
    distinct_values: tuple[tuple[complex, int], ...]
    cluster_index: tuple[int, ...]


def _cluster_values(
    values: list[complex], tol_gap: float
) -> tuple[list[tuple[complex, int]], list[int]]:
    """Single-linkage clustering; returns (mean, count) per cluster, sorted
    by mean, and the index of each value's cluster in that list."""
    sets = _DisjointSets(len(values))
    for i in range(len(values)):
        for j in range(i):
            if abs(values[i] - values[j]) <= tol_gap:
                sets.union(j, i)
    clusters: dict[int, list[int]] = {}
    for i in range(len(values)):
        clusters.setdefault(sets.find(i), []).append(i)
    groups = [
        (sum(values[i] for i in members) / len(members), members)
        for members in clusters.values()
    ]
    groups.sort(key=lambda gm: (gm[0].real, gm[0].imag))
    index = [0] * len(values)
    for k, (_, members) in enumerate(groups):
        for i in members:
            index[i] = k
    return [(mean, len(members)) for mean, members in groups], index


def critical_data(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> CriticalData:
    """Critical points of B inside the disk, their values, and value clusters.

    Raises CountMismatch if the in-disk multiplicity count is not degree - 1.
    """
    tol = _tol(tol)
    roots = polynomial_roots(derivative_numerator(B), tol)
    in_disk = [(r, m) for r, m in roots if abs(r) < 1.0]
    total = sum(m for _, m in in_disk)
    if total != B.degree - 1:
        raise CountMismatch(B.degree - 1, total, "critical points in the disk")
    polished: list[tuple[complex, int]] = []
    for r, m in in_disk:
        p, residual = _polish_critical_point(B, r, m)
        if residual > 1e-6:
            raise SolverFailure(
                f"critical point near {r:.6f} has derivative residual "
                f"{residual:.1e}; root location unreliable at degree {B.degree}"
            )
        polished.append((p, m))
    points: list[complex] = []
    values: list[complex] = []
    for r, m in sorted(polished, key=lambda rm: (rm[0].real, rm[0].imag)):
        v = B.evaluate(r, tol)
        points.extend([r] * m)
        values.extend([v] * m)
    distinct, index = _cluster_values(values, tol.cluster_tol)
    return CriticalData(tuple(points), tuple(values), tuple(distinct), tuple(index))


@dataclass(frozen=True)
class ValueBoundReport:
    """Distinct critical values of an expanded chain versus the composition bound
    sum_i (deg_i - 1)."""

    ok: bool
    distinct_count: int
    bound: int
    factor_degrees: tuple[int, ...]


def check_value_bound(
    chain: CompositionChain, tol: ToleranceConfig | None = None
) -> ValueBoundReport:
    tol = _tol(tol)
    degrees = tuple(f.degree for f in chain.factors)
    bound = sum(d - 1 for d in degrees)
    expanded = chain.expand(tol)
    count = len(critical_data(expanded, tol).distinct_values)
    return ValueBoundReport(count <= bound, count, bound, degrees)


@dataclass(frozen=True)
class OneCriticalValueForm:
    """B = tau o phi_point^degree for a disk automorphism tau."""

    tau: DiskAutomorphism
    point: complex


def _phi_power(a: complex, n: int) -> BlaschkeProduct:
    """phi_a(z)^n as a product: gamma = (-1)^n, zero a with multiplicity n."""
    return BlaschkeProduct((-1.0) ** n, (complex(a),) * n)


def _mobius_through(
    pairs: list[tuple[complex, complex]]
) -> tuple[complex, complex, complex, complex]:
    """Coefficients (alpha, beta, gamma, delta) with (alpha w + beta)/(gamma w + delta)
    sending the three source points to the three targets."""
    rows = []
    for w, b in pairs:
        rows.append([w, 1.0, -b * w, -b])
    _, _, vh = np.linalg.svd(np.array(rows, dtype=complex))
    # the right-singular vector is a column of V, which is vh conjugated
    alpha, beta, gam, delta = np.conj(vh[-1])
    return alpha, beta, gam, delta


def one_critical_value_form(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> OneCriticalValueForm | None:
    """Detect B = tau o phi_a^n (single critical value); None otherwise.

    When the critical data collapses to one value, all n-1 critical points
    agree on one point a; tau is then the Mobius map interpolating three
    circle evaluations of B against phi_a^n, verified to 1e-8 on 64 samples.
    """
    tol = _tol(tol)
    cd = critical_data(B, tol)
    if len(cd.distinct_values) != 1:
        return None
    pts = cd.points_in_disk
    a = sum(pts) / len(pts)
    if any(abs(p - a) > tol.cluster_tol for p in pts):
        raise VerificationFailure(
            "single critical value but critical points do not coincide"
        )
    n = B.degree
    base = _phi_power(a, n)

    tau = None
    for offset in (0.0, 0.31, 0.77):
        span = 2.0 * math.pi / n
        zs = [cmath.exp(1j * (offset + span * f)) for f in (0.13, 0.41, 0.83)]
        ws = [base.evaluate(z, tol) for z in zs]
        if min(abs(ws[i] - ws[j]) for i in range(3) for j in range(i + 1, 3)) < 1e-3:
            continue
        bs = [B.evaluate(z, tol) for z in zs]
        alpha, beta, gam, delta = _mobius_through(list(zip(ws, bs)))
        if abs(delta) < 1e-12 or abs(alpha) < 1e-12:
            continue
        rotation = -alpha / delta
        center = -beta / alpha
        if abs(abs(rotation) - 1.0) > 1e-6 or abs(center) >= 1.0:
            continue
        tau = DiskAutomorphism(unit(rotation), center)
        break
    if tau is None:
        raise VerificationFailure("could not interpolate tau from circle samples")

    from .core import circle_samples

    err = max(
        abs(tau(base.evaluate(z, tol)) - B.evaluate(z, tol)) for z in circle_samples(64)
    )
    if err > 1e-8:
        raise VerificationFailure(
            f"one-critical-value form mismatch: sup error {err:.3e}"
        )
    return OneCriticalValueForm(tau, a)


def factor_any_order(
    B: BlaschkeProduct,
    ordering: tuple[int, ...] | list[int],
    tol: ToleranceConfig | None = None,
) -> CompositionChain:
    """Factor a one-critical-value product along any degree ordering.

    For B = tau o phi_a^n and ordering (p_1, ..., p_m) with prod p_i = n the
    chain is (tau o z^{p_1}) o z^{p_2} o ... o phi_a^{p_m}: the phi_a power
    sits innermost, pure powers in between, tau carried by the outermost
    factor.  Verified by re-expansion against B.
    """
    tol = _tol(tol)
    ordering = tuple(int(p) for p in ordering)
    if any(p < 1 for p in ordering):
        raise DegenerateInput("ordering entries must be positive")
    total = 1
    for p in ordering:
        total *= p
    if total != B.degree:
        raise DegenerateInput(
            f"ordering product {total} does not match degree {B.degree}"
        )
    form = one_critical_value_form(B, tol)
    if form is None:
        raise DegenerateInput("product does not have a single critical value")
    tau, a = form.tau, form.point

    def z_power(p: int) -> BlaschkeProduct:
        return BlaschkeProduct(1.0, (0j,) * p)

    if len(ordering) == 1:
        factors = [compose(tau.as_blaschke(), _phi_power(a, ordering[0]), tol)]
    else:
        factors = [compose(tau.as_blaschke(), z_power(ordering[0]), tol)]
        factors.extend(z_power(p) for p in ordering[1:-1])
        factors.append(_phi_power(a, ordering[-1]))
    chain = CompositionChain(tuple(factors))

    from .core import circle_samples

    err = max(abs(chain(z, tol) - B.evaluate(z, tol)) for z in circle_samples(64))
    if err > 1e-8:
        raise VerificationFailure(f"ordering {ordering}: re-expansion error {err:.3e}")
    return chain
