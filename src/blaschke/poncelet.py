"""Curve packages inscribed in the level-set polygons of a product.

Fix a product Bhat of degree n.  For each unimodular lambda the n circle
solutions of Bhat(z) = lambda are the vertices of an inscribed polygon, and
the chords connecting vertex j to vertex j + (m+1) sweep out, as lambda runs
around the circle, a closed convex curve: the envelope K_{m+1}.  The family
K_1 .. K_{floor(n/2)} is the curve package of Bhat.

Envelope points come from the analytic tangency condition, not finite
differences.  A vertex z(t) = e^{i theta(t)} of the level set Bhat = e^{it}
moves with psi(theta) = t, psi the lifted argument of Bhat on the circle, so
its angle turns at rate 1/psi'(theta).  A chord whose ends p and q turn at
rates 1/psi'_p and 1/psi'_q touches its envelope at the point dividing it in
the ratio of those rates, the psi'-weighted mean of its ends:

    e = (p psi'_p + q psi'_q) / (psi'_p + psi'_q),

circle._tangency, which shiftop uses for the numerical range, the skip-0
envelope of z times the zeros.  psi' > 0 on the circle and p != q, so e is a
convex combination of two distinct circle points: no chord is stationary and
no envelope point can leave the disk.

A sampled envelope is an EnvelopeCurve: read-only numpy arrays of the level
angles, the tangency points and the chord ends, filled straight from the
level-set table with no per-sample object.  Its samples property builds
EnvelopeSample tuples from those arrays on each access, for readers that
want one record per sample; nothing on the compute path calls it.

Conic identification is algebraic least squares on the six monomials with a
Sampson (gradient-normalized) residual; classification separates genuine
ellipses from points, degenerate conics, and outright non-conics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    BlaschkeProduct,
    ToleranceConfig,
    format_float,
    unit,
    _tol,
)
from .circle import (
    CircleSolutionSet,
    invariant_orbit,
    solve_levels,
    _tangency,
)
from .errors import InputError, VerificationFailure

__all__ = [
    "EnvelopeSample",
    "EnvelopeCurve",
    "envelope",
    "ConicFit",
    "fit_conic",
    "tangency_audit",
    "closure_order",
    "PackageEntry",
    "PonceletPackage",
    "package",
    "FociZeroMatch",
    "foci_vs_zeros",
    "curve_csv",
    "scene_svg",
]

TAU = 2.0 * math.pi


class EnvelopeSample(NamedTuple):
    angle: float
    point: complex
    chord: tuple[complex, complex]


# rows of the difference matrix held at once by EnvelopeCurve.diameter
_DIAMETER_ROWS = 64


@dataclass(frozen=True, eq=False)
class EnvelopeCurve:
    """Sampled envelope of the skip-m chords, as read-only numpy arrays.

    Sample k is the tangency point points[k] of the chord from chords[k, 0]
    to chords[k, 1], taken on the level set Bhat = e^{i angles[k]}.  Samples
    run vertex-major: every level set for vertex 0, then vertex 1, and so on,
    which is in order along the curve.  Two curves are equal when their skips
    are equal and every array is equal element by element.
    """

    skip: int
    angles: np.ndarray  # float, shape (N,)
    points: np.ndarray  # complex, shape (N,)
    chords: np.ndarray  # complex, shape (N, 2)

    def __post_init__(self) -> None:
        for a in (self.angles, self.points, self.chords):
            a.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnvelopeCurve):
            return NotImplemented
        return self.skip == other.skip and all(
            np.array_equal(a, b)
            for a, b in (
                (self.angles, other.angles),
                (self.points, other.points),
                (self.chords, other.chords),
            )
        )

    @property
    def samples(self) -> tuple[EnvelopeSample, ...]:
        """One EnvelopeSample per sample, built from the arrays on access."""
        return tuple(
            map(
                EnvelopeSample,
                self.angles.tolist(),
                self.points.tolist(),
                map(tuple, self.chords.tolist()),
            )
        )

    def diameter(self) -> float:
        """Largest distance between two samples, over blocks of rows so the
        full N x N difference matrix is never held."""
        pts = self.points
        if len(pts) < 2:
            return 0.0
        return float(
            max(
                np.max(np.abs(pts[i : i + _DIAMETER_ROWS, None] - pts[None, :]))
                for i in range(0, len(pts), _DIAMETER_ROWS)
            )
        )


class _LevelTable(NamedTuple):
    """The envelope table shared by every chord family: the level sets
    Bhat = e^{it} at the angles t, with vertex j of the q-th level set at
    points[j, q] (each column sorted by angle) and psi' there at
    rate[j, q]."""

    t: np.ndarray
    points: np.ndarray
    rate: np.ndarray


def _level_sets(
    Bhat: BlaschkeProduct, count: int, tol: ToleranceConfig
) -> _LevelTable:
    """count level sets at evenly spaced angles, solved in one batch, with
    psi' at every vertex read from the solve's certificate."""
    t = TAU * np.arange(count) / count
    sols = solve_levels(Bhat, np.exp(1j * t), tol)
    points = np.array([sol.points for sol in sols]).T
    return _LevelTable(t, points, np.array([sol.rates for sol in sols]).T)


def _envelope_from_table(skip: int, table: _LevelTable) -> EnvelopeCurve:
    """Every tangency point of the skip-m chords, vertex-major: all level
    sets for vertex 0, then vertex 1, and so on."""
    hop = skip + 1
    p, rp = table.points, table.rate
    q, rq = np.roll(p, -hop, axis=0), np.roll(rp, -hop, axis=0)
    return EnvelopeCurve(
        skip,
        np.tile(table.t, len(p)),
        _tangency(p, rp, q, rq).ravel(),
        np.stack((p, q), axis=-1).reshape(-1, 2),
    )


def envelope(
    Bhat: BlaschkeProduct,
    skip: int,
    samples: int = 720,
    tol: ToleranceConfig | None = None,
) -> EnvelopeCurve:
    """Envelope of the chords connecting vertex j to vertex j + skip + 1.

    samples is the total point budget for the closed curve; the same level
    sets serve all n chord families, so only max(2, ceil(samples/n)) level
    sets are solved, in one batch, and psi' is computed once per vertex.
    """
    tol = _tol(tol)
    n = Bhat.degree
    if n < 2:
        raise InputError("envelope needs degree at least 2")
    if not 0 <= skip <= n // 2 - 1:
        raise InputError(f"skip must lie in [0, {n // 2 - 1}] for degree {n}")
    if samples < 6:
        raise InputError("need at least 6 envelope samples")
    per_chord = max(2, -(-samples // n))
    return _envelope_from_table(skip, _level_sets(Bhat, per_chord, tol))


@dataclass(frozen=True)
class ConicFit:
    """Least-squares conic through a point sample.

    coefficients (A, B, C, D, E, F) of Ax^2 + Bxy + Cy^2 + Dx + Ey + F,
    unit-normalized.  classification is one of "ellipse", "point",
    "degenerate", "non-conic".  center/semi_axes/axis_angle/foci are set for
    ellipses (both foci at the center when the axes differ by rounding
    alone, see _ROUND_GAP) and degenerately for points; max_residual is the
    worst gradient-normalized algebraic distance over the sample.
    """

    coefficients: tuple[float, float, float, float, float, float]
    classification: str
    center: complex | None
    semi_axes: tuple[float, float] | None
    axis_angle: float | None
    foci: tuple[complex, complex] | None
    max_residual: float

    def support(self, theta: float) -> float:
        """Support function max Re(e^{-i theta} z) over the fitted curve."""
        if self.classification == "point":
            return (cmath.exp(-1j * theta) * self.center).real
        if self.classification != "ellipse":
            raise InputError(f"no support function for a {self.classification} fit")
        p, q = self.semi_axes
        c = theta - self.axis_angle
        reach = math.sqrt((p * math.cos(c)) ** 2 + (q * math.sin(c)) ** 2)
        return (cmath.exp(-1j * theta) * self.center).real + reach


# An ellipse fit whose axes p >= q satisfy (p - q)/p <= _ROUND_GAP is a
# circle with both foci at its center.  The axes of a circle's fit differ by
# rounding alone, at most 3.9e-15 relative on the demo corpus, against at
# least 8.4e-2 for a true ellipse there, and the focal distance
# sqrt(p^2 - q^2) ~ p sqrt(2 (p - q)/p) would magnify that rounding into
# foci about 1e-7 p from the center.  Placing them at the center moves a focus by at
# most p sqrt(2e-12) ~ 1.4e-6 p.
_ROUND_GAP = 1e-12


def _point_fit(pts: np.ndarray) -> ConicFit:
    center = complex(np.mean(pts))
    cx, cy = center.real, center.imag
    coeff = np.array([1.0, 0.0, 1.0, -2 * cx, -2 * cy, cx * cx + cy * cy])
    coeff /= np.linalg.norm(coeff)
    spread = float(np.max(np.abs(pts - center))) if len(pts) else 0.0
    return ConicFit(
        tuple(float(c) for c in coeff),
        "point",
        center,
        (0.0, 0.0),
        0.0,
        (center, center),
        spread,
    )


def fit_conic(points, tol: ToleranceConfig | None = None) -> ConicFit:
    """Fit and classify a conic through a planar point sample (at least 6)."""
    tol = _tol(tol)
    pts = np.asarray(points, dtype=complex)
    if len(pts) < 6:
        raise InputError("conic fitting needs at least 6 points")
    if float(np.max(np.abs(pts - pts[0]))) < 1e-6:
        return _point_fit(pts)

    x, y = pts.real, pts.imag
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    _, _, vh = np.linalg.svd(design, full_matrices=False)
    coeff = vh[-1]
    # pin the arbitrary SVD sign: with A + C > 0 the quadratic part of an
    # ellipse is positive definite, so the eigh ordering below is reliable
    if float(coeff[0] + coeff[2]) < 0:
        coeff = -coeff
    A, B, C, D, E, F = (float(c) for c in coeff)

    qform = design @ coeff
    gx = 2 * A * x + B * y + D
    gy = B * x + 2 * C * y + E
    grad = np.hypot(gx, gy)
    grad = np.where(grad < 1e-12, 1e-12, grad)
    max_residual = float(np.max(np.abs(qform) / grad))

    disc = B * B - 4 * A * C
    det3 = float(
        np.linalg.det(
            np.array(
                [[A, B / 2, D / 2], [B / 2, C, E / 2], [D / 2, E / 2, F]]
            )
        )
    )
    if max_residual >= tol.conic_residual_tol:
        classification = "non-conic"
    elif disc < 0 and det3 * (A + C) < 0:
        classification = "ellipse"
    else:
        classification = "degenerate"

    center = semi_axes = axis_angle = foci = None
    if classification == "ellipse":
        sol = np.linalg.solve(np.array([[2 * A, B], [B, 2 * C]]), [-D, -E])
        cx, cy = float(sol[0]), float(sol[1])
        center = complex(cx, cy)
        G = A * cx * cx + B * cx * cy + C * cy * cy + D * cx + E * cy + F
        M2 = np.array([[A, B / 2], [B / 2, C]])
        eigvals, eigvecs = np.linalg.eigh(M2)
        axes = []
        for lam_i in eigvals:
            ratio = -G / lam_i
            if ratio <= 0:
                classification = "degenerate"
                break
            axes.append(math.sqrt(ratio))
        if classification == "ellipse":
            # eigh sorts eigenvalues ascending, so the first axis is major
            major, minor = axes[0], axes[1]
            direction = eigvecs[:, 0]
            axis_angle = math.atan2(float(direction[1]), float(direction[0]))
            semi_axes = (major, minor)
            if major - minor <= _ROUND_GAP * major:
                foci = (center, center)
            else:
                spread = math.sqrt(major * major - minor * minor)
                offset = spread * cmath.exp(1j * axis_angle)
                foci = (center + offset, center - offset)
        else:
            center = None
    return ConicFit(
        (A, B, C, D, E, F),
        classification,
        center,
        semi_axes,
        axis_angle,
        foci,
        max_residual,
    )


def tangency_audit(
    fit: ConicFit,
    level_sets: list[CircleSolutionSet],
    skip: int = 0,
) -> float:
    """Worst gap between the fitted curve and the polygon chords.

    A curve genuinely inscribed in the level-set polygons has every chord as
    a supporting line: the support value in the outward normal direction of
    each chord must equal the chord's offset.  Returns the max discrepancy
    over all chords of the given solved level sets.
    """
    if fit.classification not in ("ellipse", "point"):
        raise InputError("tangency audit requires an ellipse or point fit")
    worst = 0.0
    hop = skip + 1
    for sol in level_sets:
        n = len(sol)
        centroid = sum(sol.points) / n
        for j in range(n):
            p = sol.point(j)
            q = sol.point(j + hop)
            normal = unit(-1j * (q - p))
            if ((centroid - p) * normal.conjugate()).real > 0:
                normal = -normal
            offset = (normal.conjugate() * p).real
            h = fit.support(cmath.phase(normal))
            worst = max(worst, abs(h - offset))
    return worst


def _hops_to_close(orbit: tuple[complex, ...], skip: int) -> int:
    """First d <= 2n at which d skip-m chords from orbit[0] land back on it.

    orbit is (z, g(z), ..., g^n(z)) from one verified level set, so the hop
    index wraps modulo n and the point at index 0 is the re-solved g^n(z),
    never the start itself.
    """
    n = len(orbit) - 1
    k = 0
    for d in range(1, 2 * n + 1):
        k = (k + skip + 1) % n
        if abs(orbit[k or n] - orbit[0]) <= 1e-8:
            return d
    raise VerificationFailure(
        f"tangent polygon failed to close within {2 * n} steps"
    )


def closure_order(
    Bhat: BlaschkeProduct,
    skip: int,
    tol: ToleranceConfig | None = None,
) -> int:
    """Steps of the tangent-chord construction until the polygon closes.

    From the circle point 1, hop to the far endpoint of the skip-m chord
    (skip+1 solutions ahead on the same level set) until landing back within
    1e-8 of the start.  All hops stay on one level set, so it is solved and
    verified once (argument error, n strictly increasing angles, the start
    located on it) and the hops are read off it; the closing hop is measured
    against the re-solved n-th iterate of the start, so closure is still a
    measured property, not an assumption.  VerificationFailure if it never
    closes.
    """
    tol = _tol(tol)
    orbit = invariant_orbit(Bhat, 1.0 + 0j, Bhat.degree + 1, tol)
    return _hops_to_close(orbit, skip)


@dataclass(frozen=True)
class PackageEntry:
    skip: int
    curve: EnvelopeCurve
    fit: ConicFit
    closure: int

    @property
    def index(self) -> int:
        """This entry is K_index, counting from 1."""
        return self.skip + 1


@dataclass(frozen=True)
class PonceletPackage:
    """The full family K_1 .. K_{floor(n/2)} of one product."""

    entries: tuple[PackageEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, index: int) -> PackageEntry:
        """K_index, counting from 1."""
        if not 1 <= index <= len(self.entries):
            raise InputError(
                f"curve index {index} out of range 1..{len(self.entries)}"
            )
        return self.entries[index - 1]


def package(
    Bhat: BlaschkeProduct,
    samples: int = 720,
    tol: ToleranceConfig | None = None,
) -> PonceletPackage:
    """Compute, fit, and order-test every curve of the package.

    One level-set table (with psi' at every vertex), solved in one batch,
    serves every skip, and one verified level set through 1 serves every
    closure order, as in closure_order: max(2, ceil(samples/n)) + 1 level
    sets in all.
    """
    tol = _tol(tol)
    n = Bhat.degree
    if n < 2:
        raise InputError("package needs degree at least 2")
    per_chord = max(2, -(-samples // n))
    table = _level_sets(Bhat, per_chord, tol)
    orbit = invariant_orbit(Bhat, 1.0 + 0j, n + 1, tol)
    entries = []
    for skip in range(n // 2):
        curve = _envelope_from_table(skip, table)
        fit = fit_conic(curve.points, tol)
        entries.append(PackageEntry(skip, curve, fit, _hops_to_close(orbit, skip)))
    return PonceletPackage(tuple(entries))


@dataclass(frozen=True)
class FociZeroMatch:
    """Closest pairing of fitted foci against zeros of the product."""

    foci: tuple[complex, complex]
    matched_zeros: tuple[complex, complex]
    distances: tuple[float, float]

    @property
    def max_distance(self) -> float:
        return max(self.distances)


def foci_vs_zeros(
    fit: ConicFit, B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> FociZeroMatch:
    """Match the two fitted foci to the closest pair of zeros of B.

    Zeros are taken with multiplicity, so a repeated zero may absorb both
    foci (the circle case: both foci at the center).
    """
    if fit.classification not in ("ellipse", "point"):
        raise InputError("foci matching requires an ellipse or point fit")
    f1, f2 = fit.foci
    zs = B.zeros
    if len(zs) < 2:
        raise InputError("need at least two zeros to match a focus pair")
    best = None
    for i, zi in enumerate(zs):
        for j, zj in enumerate(zs):
            if i == j:
                continue
            d = (abs(f1 - zi), abs(f2 - zj))
            if best is None or max(d) < max(best[0]):
                best = (d, (zi, zj))
    return FociZeroMatch((f1, f2), best[1], best[0])


def curve_csv(curve: EnvelopeCurve) -> str:
    rows = zip(
        curve.angles.tolist(), curve.points.real.tolist(), curve.points.imag.tolist()
    )
    lines = ["t,re,im", *(",".join(map(format_float, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _f6(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _svg_xy(z: complex) -> str:
    # flip the vertical axis so the scene displays in math orientation
    return f"{_f6(z.real)},{_f6(-z.imag)}"


def _svg_polyline(pts, color: str, width: float, dashed: bool = False, close: bool = True) -> str:
    seq = list(pts)
    if close and seq:
        seq.append(seq[0])
    dash = ' stroke-dasharray="0.03,0.02"' if dashed else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{dash} '
        f'points="{" ".join(_svg_xy(p) for p in seq)}"/>'
    )


def scene_svg(
    curve: EnvelopeCurve,
    fit: ConicFit,
    level_sets: list[CircleSolutionSet],
) -> str:
    """Standalone SVG: unit circle, the skip-m polygons of the given level
    sets, envelope, fit overlay."""
    hop = curve.skip + 1
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.1 -1.1 2.2 2.2">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#303030" stroke-width="0.008"/>',
    ]
    for sol in level_sets:
        n = len(sol)
        cycle = n // math.gcd(n, hop)
        for offset in range(math.gcd(n, hop)):
            ring = [sol.point(offset + k * hop) for k in range(cycle)]
            parts.append(_svg_polyline(ring, "#4878b0", 0.006))
    parts.append(_svg_polyline(curve.points.tolist(), "#c03030", 0.01))
    if fit.classification == "ellipse":
        p, q = fit.semi_axes
        rim = [
            fit.center
            + cmath.exp(1j * fit.axis_angle)
            * complex(p * math.cos(TAU * k / 256), q * math.sin(TAU * k / 256))
            for k in range(256)
        ]
        parts.append(_svg_polyline(rim, "#208040", 0.006, dashed=True))
    elif fit.classification == "point":
        parts.append(
            f'<circle cx="{_f6(fit.center.real)}" cy="{_f6(-fit.center.imag)}" '
            f'r="0.012" fill="#208040"/>'
        )
    label = f"K{curve.skip + 1}: {fit.classification} (residual {fit.max_residual:.2e})"
    parts.append(
        f'<text x="-1.05" y="1.05" font-size="0.07" fill="#303030">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
