"""Critical points, critical values and fibers of finite Blaschke products.

Both solves are eigenvalue problems built from the factored product; no
polynomial is ever expanded into coefficients.

Critical points.  A zero of B of multiplicity k is a critical point of
multiplicity k - 1.  The others are the zeros of the logarithmic derivative

    S(z) = B'(z)/B(z) = sum_i w_i / (z - x_i),

whose nodes are the distinct zeros (weight: their multiplicity), their
reflections 1/conj(a) (weight minus the multiplicity) and the origin
(weight its multiplicity).  Exactly n - 1 critical points (with
multiplicity) lie in the open disk, inside the convex hull of {0} and the
zeros.  The zeros of such a sum are the eigenvalues of a diagonal plus
rank-one matrix after a change of variable (a companion matrix in the
Lagrange basis, Corless 2004).  For S the change is the Cayley map
t = i(s + z)/(s - z), s on the circle, which takes the disk to the upper
half plane and each reflection to the conjugate of its point: the matrix is
then real, of order twice the number of distinct zeros, and the in-disk
points are its eigenvalues with Im t > 0 (_half_plane_zeros).  They are
polished by Newton on S, which is conditioned like the product itself: all
points of one multiplicity at once, as one (points x nodes) array per pass,
each point with its own stop test, down to the rounding floor of its step.
critical_data refuses (raises SolverFailure) when a point cannot be
certified that way, naming the first such point in (real, imag) order.

Fibers.  The solutions of B(z) = w are the spectrum of the compressed shift
S_B plus a rank-one term (Clark 1972; Sarason 2007); see fiber.

Multiple roots.  A root of multiplicity m comes back as m eigenvalues about
eps^(1/m) apart.  Such a cluster becomes one point of multiplicity m only
when Newton on the (m-1)-th derivative of the sum, where the root is
simple, leaves every lower derivative at relative residual 1e-8; otherwise
its points stay simple.  Clusters come from single linkage on one matrix
of pairwise distances, built once per cluster merge.  The critical values
are one array evaluation of B over the distinct points; two are one value
when they agree to cluster_tol relative to the smaller (_value_links).

One critical value.  one_critical_value_form recognizes B = tau o phi_a^n,
the products with a single critical value; it builds no chain.  Chains
along a factorization of n, for these products and any other, come from
decompose.factor_any_order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BlaschkeProduct,
    CompositionChain,
    DiskAutomorphism,
    ToleranceConfig,
    circle_samples,
    unit,
    _tol,
)
from .errors import CountMismatch, SolverFailure, VerificationFailure
from .shiftop import shift_matrix

__all__ = [
    "fiber",
    "CriticalData",
    "critical_data",
    "ValueBoundReport",
    "check_value_bound",
    "OneCriticalValueForm",
    "one_critical_value_form",
]


def _log_derivative(counts: dict[complex, int]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with B'/B = sum_i w_i / (z - x_i).

    Each distinct zero a of multiplicity m is a node of weight m, and unless
    a = 0 its reflection 1/conj(a) is a node of weight -m, since
    conj(a)/(1 - conj(a) z) = -1/(z - 1/conj(a)).
    """
    nodes: list[complex] = []
    weights: list[float] = []
    for a, m in counts.items():
        nodes.append(a)
        weights.append(m)
        if a != 0:
            nodes.append(1.0 / a.conjugate())
            weights.append(-m)
    return np.array(nodes, dtype=complex), np.array(weights, dtype=float)


def _secular_zeros(nodes: np.ndarray, weights: np.ndarray, s: complex) -> np.ndarray:
    """Zeros of F(z) = sum_i w_i / (z - x_i), for s neither a node nor a zero.

    With y_i = 1/(x_i - s) and v_i = -w_i y_i, the substitution z = s + 1/u
    gives F = u sum_i v_i / (u - y_i), whose zeros are the eigenvalues of
    diag(y) - v y^T / sum(v) (a companion matrix in the Lagrange basis)
    other than one zero eigenvalue of the construction, dropped here as the
    eigenvalue of least modulus.  A zero of F at infinity comes back as a
    huge or infinite z.  This complex solve serves sums with no reflection
    symmetry (decompose's orbit polynomial); B'/B takes the real
    _half_plane_zeros.
    """
    y = 1.0 / (nodes - s)
    v = -weights * y
    u = np.linalg.eigvals(np.diag(y) - np.outer(v, y) / v.sum())
    u = np.delete(u, np.argmin(np.abs(u)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return s + 1.0 / u


def _half_plane_zeros(counts: dict[complex, int]) -> tuple[complex, np.ndarray]:
    """A shift s on the unit circle and the 2K - 2 finite zeros in t of
    (B'/B) dz/dt, where t = i(s + z)/(s - z), for K distinct zeros of B.

    The map sends the disk to the upper half plane, s to infinity and the
    reflection of each point to the conjugate of its image, so a zero a of
    multiplicity m and its reflection 1/conj(a) (infinity for a = 0) become
    nodes xi, conj(xi) of weights m, -m.  With y = 1/xi and u = 1/t, as in
    _secular_zeros with shift 0, the companion matrix is diag(y) - r y^T
    with r = v/sum(v), v = -m y.  The pairs make sum(v) = -2i sum(m Im y)
    purely imaginary and r a conjugate pair too, so in the real and
    imaginary parts of each pair the matrix is real: 2 x 2 blocks
    [[Re y, -Im y], [Im y, Re y]] minus 2 [Re r; Im r][Re y, -Im y]^T.  Its
    two eigenvalues nearest 0, the construction's and that of the zero at
    t = infinity (z = s), are dropped; the rest come in exact conjugate
    pairs, the in-disk zeros of S = B'/B with Im t > 0 and their
    reflections with Im t < 0.

    s is the one of 16 circle samples whose s and -s are both farthest from
    the zeros, so no xi and no y is large (a reflection is never nearer s
    than its zero: |s - 1/conj(a)| = |s - a|/|a|).
    """
    a = np.array(list(counts), dtype=complex)
    m = np.array(list(counts.values()), dtype=float)
    samples = circle_samples(16, 0.3)
    p = np.array(samples)
    # (K, 16, 2) distances; np.argmax keeps the first sample of equal margins
    gaps = np.abs(a[:, None, None] - np.stack((p, -p), axis=-1))
    s = samples[int(np.argmax(gaps.min(axis=(0, 2))))]
    # y = 1/xi; Re((s - a)/(s + a)) > 0 on the disk, so Im y < 0 and the
    # sum m @ y.imag never vanishes
    y = -1j * (s - a) / (s + a)
    k = 2 * len(a)
    R = np.zeros((k, k))
    R[0::2, 0::2] = R[1::2, 1::2] = np.diag(y.real)
    R[0::2, 1::2] = np.diag(-y.imag)
    R[1::2, 0::2] = np.diag(y.imag)
    # 2r = -i m y / sum(m Im y), as (real, imag) pairs
    r2 = np.column_stack((m * y.imag, -m * y.real)).ravel() / (m @ y.imag)
    R -= np.outer(r2, np.column_stack((y.real, -y.imag)).ravel())
    u = np.linalg.eigvals(R)
    return s, 1.0 / np.delete(u, np.argsort(np.abs(u))[:2])


def _secular_kth(
    nodes: np.ndarray, weights: np.ndarray, z: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-th derivative of F = sum_i w_i / (z - x_i) at each point of z, with
    F^(k+1) and a magnitude scale, as three arrays shaped like z.

    Every derivative is an explicit sum over the same linear factors, so it
    stays conditioned like the factored product, however the expanded
    numerator would behave.  The scale is the sum of term moduli, the
    natural yardstick for a relative residual.  Each row of the
    (points x nodes) term array is summed on its own, so a point gets the
    same bits whatever other points it is evaluated with.
    """
    d = z[:, None] - nodes
    terms = weights * ((-1.0) ** k * math.factorial(k)) / d ** (k + 1)
    return (
        terms.sum(axis=1),
        (-(k + 1) * terms / d).sum(axis=1),
        np.abs(terms).sum(axis=1),
    )


def _polish(
    nodes: np.ndarray, weights: np.ndarray, starts: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Refine zeros of multiplicity m of F = sum_i w_i / (z - x_i), one per
    start point, all at once.

    Such a zero is a simple zero of F^(m-1), so Newton there recovers full
    precision for any m.  Newton runs on every start as one
    (points x nodes) array, but each point keeps its own rules: it stops
    when F^(m) vanishes, the step is not finite, |step| <= 1e-16 (1 + |z|),
    the step is within its rounding floor 4 eps sum|terms| / |F^(m)| (F^(m-1)
    is known only to about eps times its scale sum|terms| from _secular_kth),
    or after 60 passes, and a point that leaves the disk or moves 5e-2 or
    more falls back to its start.  Returns the points and, for each, the
    largest relative residual of F, F', ..., F^(m-1) there; the caller
    treats a large residual as a failed location, never as data.
    """
    starts = np.asarray(starts, dtype=complex)
    z = starts.copy()
    live = np.arange(len(z))
    with np.errstate(all="ignore"):
        for _ in range(60):
            if not len(live):
                break
            f, df, scale = _secular_kth(nodes, weights, z[live], m - 1)
            step = f / df
            moves = (df != 0) & np.isfinite(step)
            live, step = live[moves], step[moves]
            z[live] -= step
            floor = np.maximum(
                1e-16 * (1.0 + np.abs(z[live])),
                4.0 * np.finfo(float).eps * scale[moves] / np.abs(df[moves]),
            )
            live = live[np.abs(step) > floor]
        stray = ~((np.abs(z - starts) < 5e-2) & (np.abs(z) < 1.0))
        z[stray] = starts[stray]
        residuals = []
        for j in range(m):
            f, _, scale = _secular_kth(nodes, weights, z, j)
            residuals.append(np.abs(f) / (scale + 1e-300))
    # np.max keeps a nan residual, which then fails every bound
    return z, np.max(residuals, axis=0)


def _components(linked: np.ndarray) -> np.ndarray:
    """For a symmetric boolean link matrix, the least index of each point's
    connected component.

    The diagonal of linked is set first: every point is linked to itself.
    Each point starts with its own index as label and takes the least label among the points linked to it, then
    the label of that label, until nothing changes.
    """
    np.fill_diagonal(linked, True)
    label = np.arange(len(linked))
    while True:
        least = np.where(linked, label, len(label)).min(axis=1, initial=len(label))
        least = least[least]
        if np.array_equal(least, label):
            return label
        label = least


def _merge_clusters(points, accept) -> list[tuple[complex, int]]:
    """(point, multiplicity) pairs, sorted by (real, imag), from eigenvalues
    that may hold multiple roots.

    Points are linked by single linkage at gap 0.1, then 0.01, and so on.
    Every gap reads one matrix of pairwise distances: the components at a
    finer gap nest in those at a coarser one, so the finer clusters of a
    group are the components of the whole set that it holds.  A point more
    than 0.1 from every other point leaves at once.  A k-fold root splits
    into k eigenvalues about eps^(1/k) apart, so a group of k > 1 points
    within min(0.1, 3 (1e-13)^(1/k)) of their mean becomes one point of
    multiplicity k when accept(mean, k) returns that point rather than None.
    A group of exactly equal points is kept as one (a triangular matrix
    returns a repeated diagonal entry exactly).  Any other group is linked
    again at a tenth of the gap; below 1e-8 its points stay simple.  Groups
    are taken in the input order of their first members and list their
    members in input order, the mean a Python sum in that order.
    """
    points = [complex(p) for p in points]
    v = np.array(points, dtype=complex)
    distance = np.abs(v[:, None] - v)
    labels: dict[float, list[int]] = {}
    out: list[tuple[complex, int]] = []
    pending = [(list(range(len(points))), 0.1)]
    while pending:
        group, gap = pending.pop()
        if gap not in labels:
            labels[gap] = _components(distance <= gap).tolist()
        label = labels[gap]
        members: dict[int, list[int]] = {}
        for i in group:
            members.setdefault(label[i], []).append(i)
        for ids in members.values():
            g = [points[i] for i in ids]
            k = len(g)
            if k == 1 or all(p == g[0] for p in g):
                out.append((g[0], k))
                continue
            mean = sum(g) / k
            radius = min(0.1, 3.0 * 1e-13 ** (1.0 / k))
            if max(abs(p - mean) for p in g) <= radius:
                merged = accept(mean, k)
                if merged is not None:
                    out.append((merged, k))
                    continue
            if gap < 1e-8:
                out.extend((p, 1) for p in g)
            else:
                pending.append((ids, gap / 10.0))
    return sorted(out, key=lambda zm: (zm[0].real, zm[0].imag))


def _secular_roots(
    nodes: np.ndarray, weights: np.ndarray, points
) -> list[tuple[complex, int]]:
    """Computed zeros of F = sum_i w_i / (z - x_i) with multiplicities: a
    cluster of k becomes one point once F, ..., F^(k-1) vanish there to
    relative 1e-8."""

    def accept(mean: complex, k: int) -> complex | None:
        z, residual = _polish(nodes, weights, np.array([mean]), k)
        return complex(z[0]) if residual[0] <= 1e-8 else None

    return _merge_clusters(points, accept)


def fiber(
    B: BlaschkeProduct, w: complex, tol: ToleranceConfig | None = None
) -> list[complex]:
    """The n solutions of B(z) = w, repeated with multiplicity, sorted by
    (real, imag); every fiber solve in the package goes through here.

    They are the spectrum of the compressed shift S_B modified by a rank-one
    term (Clark 1972; Sarason 2007).  In the Takenaka basis S_B is the
    transpose A^T of shiftop.shift_matrix(B.zeros), and B(z) = w exactly on
    the eigenvalues of

        A^T + beta x y^H,   beta = w / (1 - conj(B(0)) w),
        x_j = sqrt(1 - |a_j|^2) prod_{l<j} (-conj(a_l)),
        y_j = gamma sqrt(1 - |a_j|^2) prod_{l>j} (-a_l).

    For w = 0 the matrix is triangular and the zeros come back exactly.  A
    cluster of k eigenvalues becomes one point of multiplicity k when it
    polishes to a critical point of multiplicity k - 1 (B'/B and its first
    k - 2 derivatives vanish to relative 1e-8) with |B - w| <= root_tol.
    """
    tol = _tol(tol)
    a = np.array(B.zeros, dtype=complex)
    defect = np.sqrt(1.0 - np.abs(a) ** 2)
    x = defect * np.cumprod(np.concatenate(([1.0], -a[:-1].conj())))
    y = B.gamma * defect * np.cumprod(np.concatenate(([1.0], -a[:0:-1])))[::-1]
    beta = w / (1.0 - B.evaluate(0j, tol).conjugate() * w)
    A = shift_matrix(B.zeros).entries
    eigenvalues = np.linalg.eigvals(A.T + beta * np.outer(x, y.conj()))

    nodes, weights = _log_derivative(Counter(B.zeros))

    def accept(mean: complex, k: int) -> complex | None:
        z, residual = _polish(nodes, weights, np.array([mean]), k - 1)
        z = complex(z[0])
        if residual[0] <= 1e-8 and abs(B.evaluate(z, tol) - w) <= tol.root_tol:
            return z
        return None

    return [z for z, m in _merge_clusters(eigenvalues, accept) for _ in range(m)]


@dataclass(frozen=True)
class CriticalData:
    """Critical points in the open disk with their values.

    points_in_disk: the n-1 critical points, repeated with multiplicity.
    values: B at each point (same order and length as points_in_disk).
    distinct_values: cluster means (see _value_links) with multiplicities.
    cluster_index: for each entry of values, the index in distinct_values of
    the cluster that holds it.
    """

    points_in_disk: tuple[complex, ...]
    values: tuple[complex, ...]
    distinct_values: tuple[tuple[complex, int], ...]
    cluster_index: tuple[int, ...]


def _value_links(values: np.ndarray, rel_tol: float) -> np.ndarray:
    """Whether critical values i and j are one value, as a boolean matrix:
    |v_i - v_j| <= rel_tol min(|v_i|, |v_j|).  Two exact zeros link; an
    exact zero links to nothing else.  To first order this is
    |log v_i - log v_j| <= rel_tol, as |dv|/|v| = |exp(d log v) - 1|."""
    size = np.abs(values)
    return np.abs(values[:, None] - values) <= rel_tol * np.minimum.outer(size, size)


def _cluster_values(
    values: list[complex], tol_gap: float
) -> tuple[list[tuple[complex, int]], list[int]]:
    """_group_linked with values i and j linked when |v_i - v_j| <= tol_gap."""
    v = np.array(values, dtype=complex)
    return _group_linked(values, np.abs(v[:, None] - v) <= tol_gap)


def _group_linked(
    values: list[complex], linked: np.ndarray
) -> tuple[list[tuple[complex, int]], list[int]]:
    """Single-linkage clusters under a symmetric link matrix: (mean, count)
    per cluster, sorted by mean, and each value's cluster index in that
    list.  Each cluster's mean is a Python sum of its members in input
    order; clusters with equal means keep the order of their first members.
    """
    clusters: dict[int, list[int]] = {}
    for i, root in enumerate(_components(linked).tolist()):
        clusters.setdefault(root, []).append(i)
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

    Repeated zeros of B are taken as they are; the other points are the
    in-disk zeros of S = B'/B, the eigenvalues with Im t > 0 of the real
    matrix of _half_plane_zeros mapped back by z = s(t - i)/(t + i).
    Raises CountMismatch if the in-disk multiplicity count is not degree - 1
    and SolverFailure if a point fails its certificate on S.  The result is
    kept per (product, tolerances), so asking again for an equal product
    costs no solve.
    """
    return _critical_data(B, _tol(tol))


@lru_cache(maxsize=64)
def _critical_data(B: BlaschkeProduct, tol: ToleranceConfig) -> CriticalData:
    counts = Counter(B.zeros)
    nodes, weights = _log_derivative(counts)
    s, t = _half_plane_zeros(counts)
    t = t[t.imag > 0]
    zeros_of_s = _secular_roots(nodes, weights, s * (t - 1j) / (t + 1j))
    total = sum(m for _, m in zeros_of_s) + sum(k - 1 for k in counts.values())
    if total != B.degree - 1:
        raise CountMismatch(B.degree - 1, total, "critical points in the disk")
    polished = [(a, k - 1) for a, k in counts.items() if k > 1]
    # one polish per multiplicity; the certificate is read in point order
    located = {}
    for m in {m for _, m in zeros_of_s}:
        starts = np.array([r for r, k in zeros_of_s if k == m])
        p, residual = _polish(nodes, weights, starts, m)
        located[m] = zip(p.tolist(), residual.tolist())
    for r, m in zeros_of_s:
        p, residual = next(located[m])
        if not residual <= 1e-6:
            raise SolverFailure(
                f"critical point near {r:.6f} has derivative residual "
                f"{residual:.1e}; root location unreliable at degree {B.degree}"
            )
        polished.append((p, m))
    polished.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    at = B.evaluate(np.array([r for r, _ in polished], dtype=complex), tol)
    points: list[complex] = []
    values: list[complex] = []
    for (r, m), v in zip(polished, at.tolist()):
        points.extend([r] * m)
        values.extend([v] * m)
    linked = _value_links(np.array(values, dtype=complex), tol.cluster_tol)
    distinct, index = _group_linked(values, linked)
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


def one_critical_value_form(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> OneCriticalValueForm | None:
    """Detect B = tau o phi_a^n (single critical value); None otherwise.

    When the critical data collapses to one value, all n-1 critical points
    agree on one point a.  Since phi_a^n(a) = 0, tau(0) = v = B(a), so
    phi_v o tau fixes 0 and is a rotation by rho = phi_v(B(z0)) / phi_a(z0)^n
    for any circle point z0; then tau = phi_v(rho w) = DiskAutomorphism(rho,
    v conj(rho)).  The form is verified to 1e-8 on 64 circle samples.
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
    # phi_a^n: zero a of multiplicity n, gamma (-1)^n
    base = BlaschkeProduct((-1.0) ** B.degree, (a,) * B.degree)
    v = B.evaluate(a, tol)
    phi_v = DiskAutomorphism(1.0, v)
    rho = unit(phi_v(B.evaluate(1.0, tol)) / base.evaluate(1.0, tol))
    tau = DiskAutomorphism(rho, v * rho.conjugate())

    err = max(
        abs(tau(base.evaluate(z, tol)) - B.evaluate(z, tol)) for z in circle_samples(64)
    )
    if err > 1e-8:
        raise VerificationFailure(
            f"one-critical-value form mismatch: sup error {err:.3e}"
        )
    return OneCriticalValueForm(tau, a)
