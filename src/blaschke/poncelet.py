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

    e = (p psi'_p + q psi'_q) / (psi'_p + psi'_q).

circle._chords builds every chord family and these points; shiftop reads
the numerical range, the skip-0 envelope of z times the zeros, through the
same builder.  psi' > 0 on the circle and p != q, so e is a convex
combination of two distinct circle points: no chord is stationary and no
envelope point can leave the disk.

Every polygon here is a row of one record, circle.LevelSets: the envelopes
and tangency_audit read its chords through circle._chords, and scene_svg
walks its point rows.  A sampled envelope is an EnvelopeCurve: read-only numpy arrays
of the level angles, the tangency points and the chord ends, filled straight
from that record with no per-sample object.  Its samples property builds
EnvelopeSample tuples from those arrays on each access, for readers that
want one record per sample; nothing on the compute path calls it.

A curve is identified from its chords, not from its sampled points: the
chord from z1 to z2 is the line z + z1 z2 conj(z) = z1 + z2, and
circle._ellipse, the one ellipse test here and in shiftop, solves the
chords' tangency equations for the ellipse they touch, by linear least
squares in five unknowns.  It tells ellipses from points, segments and
non-conics by one relative residual, so no sample needs to be uniform.
package computes the envelopes of every skip as stacked arrays from one
solve; one curve is an entry of its package, and an entry fits its conic
when its fit is first read, so a caller that reads only closures and
chords fits nothing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    BlaschkeProduct,
    ToleranceConfig,
    format_float,
    _integer,
)
from .circle import (
    LevelSets,
    solve_levels,
    _chords,
    _circle_terms,
    _ellipse,
    _level_count,
    _orbit,
)
from .errors import InputError, VerificationFailure

__all__ = [
    "EnvelopeSample",
    "EnvelopeCurve",
    "ConicFit",
    "fit_conic",
    "tangency_audit",
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
    which is in order along the curve.
    """

    skip: int
    angles: np.ndarray  # float, shape (N,)
    points: np.ndarray  # complex, shape (N,)
    chords: np.ndarray  # complex, shape (N, 2)

    def __post_init__(self) -> None:
        for a in (self.angles, self.points, self.chords):
            a.flags.writeable = False

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
        # block i meets only pts[i:]: the pairs before it were met from the
        # other side, and |p - q| and |q - p| are the same bits
        return float(
            max(
                np.max(np.abs(pts[i : i + _DIAMETER_ROWS, None] - pts[None, i:]))
                for i in range(0, len(pts), _DIAMETER_ROWS)
            )
        )


def _envelopes(skips, t, points, rates) -> list[EnvelopeCurve]:
    """The envelope of the skip-m chords for every m in skips, vertex-major
    (all level sets for vertex 0, then vertex 1, and so on), from one
    stacked pass of circle._chords over the LevelSets rows of points and
    rates at the angles t."""
    chords, tangency = _chords(skips, points, rates)
    angles = np.tile(t, points.shape[1])
    return [
        EnvelopeCurve(skip, angles, row.ravel(), ends.reshape(-1, 2))
        for skip, row, ends in zip(skips, tangency, chords)
    ]


def _check_skip(n: int, skip: int) -> None:
    """InputError unless skip is an integer naming one of the n // 2 chord
    families of a degree-n product: the gate of tangency_audit and of cli
    curve, which reads entry skip of the package."""
    if not 0 <= _integer(skip, "skip must be an integer") <= n // 2 - 1:
        raise InputError(f"skip must lie in [0, {n // 2 - 1}] for degree {n}")


@dataclass(frozen=True)
class ConicFit:
    """The curve that the chords of an envelope are tangent to
    (circle._ellipse).

    classification is one of "ellipse", "point", "degenerate", "non-conic".
    center/semi_axes (major first)/axis_angle/foci are set for ellipses (both
    foci at the center when the axes differ by rounding alone, see
    core._ROUND_GAP) and degenerately for points; residual is the worst miss
    of the chords' tangency equations relative to the squared mean reach a0,
    or for a point the spread of the tangency points.
    """

    classification: str
    center: complex | None
    semi_axes: tuple[float, float] | None
    axis_angle: float | None
    foci: tuple[complex, complex] | None
    residual: float

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


def fit_conic(curve: EnvelopeCurve) -> ConicFit:
    """The ellipse, point, segment or non-conic that the chords of curve are
    tangent to: circle._ellipse on the lines z + z1 z2 conj(z) = z1 + z2
    through the chord ends z1, z2, with the tangency points for its point
    test."""
    z1, z2 = curve.chords.T
    return ConicFit(*_ellipse(z1 + z2, z1 * z2, curve.points))


def tangency_audit(fit: ConicFit, levels: LevelSets, skip: int = 0) -> float:
    """Worst gap between the fitted curve and the polygon chords.

    A curve genuinely inscribed in the level-set polygons has every chord as
    a supporting line: the support value in the outward normal direction of
    each chord must equal the chord's offset.  The envelope lies left of
    the counterclockwise chord p -> q, so the outward normal is -i (q - p),
    as for numerical_range_boundary's support lines, for a diagonal as for
    an edge.  The chords come from circle._chords, as the envelopes' do.
    Returns the max discrepancy over all chords of the given solved level
    sets.  A skip that names no chord family of a level set raises
    InputError.
    """
    if fit.classification not in ("ellipse", "point"):
        raise InputError("tangency audit requires an ellipse or point fit")
    _check_skip(levels.points.shape[1], skip)
    (ends,), _ = _chords([skip], levels.points, levels.rates)
    p, q = ends.reshape(-1, 2).T
    normal = -1j * (q - p)
    normal /= np.abs(normal)
    offset = (normal.conj() * p).real
    support = [fit.support(theta) for theta in np.angle(normal).tolist()]
    return float(np.abs(np.array(support) - offset).max())


def _closure(orbit: tuple[complex, ...], skip: int) -> int:
    """n // gcd(n, skip + 1), the hops that close the skip-m polygon from z.

    orbit is (z, g(z), ..., g^n(z)) from one verified level set, so the d-th
    hop lands on z exactly when n divides d (skip + 1).  Its last point, the
    re-solved g^n(z), must lie within 1e-8 of z, else VerificationFailure.
    """
    n = len(orbit) - 1
    gap = abs(orbit[n] - orbit[0])
    if not gap <= 1e-8:
        raise VerificationFailure(
            f"tangent polygon failed to close: g^{n}(z) lies {gap:.3e} from z, "
            f"above 1e-8"
        )
    return n // math.gcd(n, skip + 1)


@dataclass(frozen=True)
class PackageEntry:
    """Curve K_index of a package: its sampled envelope, its closure order
    and, on first read, the conic its chords are tangent to."""

    skip: int
    curve: EnvelopeCurve
    closure: int

    @cached_property
    def fit(self) -> ConicFit:
        """fit_conic of the curve, made on first read and kept on the entry."""
        return fit_conic(self.curve)

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


def package(
    Bhat: BlaschkeProduct,
    samples: int = 720,
    tol: ToleranceConfig | None = None,
) -> PonceletPackage:
    """Compute and order-test every curve of the package.

    One LevelSets record serves every skip: its rows at the envelope
    angles (with psi' at every vertex) give the envelopes, and its last
    row, the verified level set through 1, certifies every closure order
    (_closure), so max(2, ceil(samples/n)) + 1 level sets come from one
    solve.  The n/2 envelopes come from one stacked pass over those rows;
    none is fitted here, as each entry fits its conic when its fit is first
    read.  A sample count that is not an integer of at least 6 raises
    InputError.
    """
    n = Bhat.degree
    if n < 2:
        raise InputError("package needs degree at least 2")
    if _integer(samples, "envelope samples must be an integer") < 6:
        raise InputError("need at least 6 envelope samples")
    count = _level_count(n, samples)
    t = TAU * np.arange(count) / count
    through_one = _circle_terms(Bhat, np.array([1.0 + 0j]))[0]
    levels = solve_levels(Bhat, np.append(np.exp(1j * t), through_one))
    orbit = _orbit(tuple(levels.points[-1].tolist()), 1.0 + 0j, n + 1)
    curves = _envelopes(range(n // 2), t, levels.points[:-1], levels.rates[:-1])
    return PonceletPackage(
        tuple(
            PackageEntry(c.skip, c, _closure(orbit, c.skip))
            for c in curves
        )
    )


@dataclass(frozen=True)
class FociZeroMatch:
    """Closest pairing of fitted foci against zeros of the product."""

    foci: tuple[complex, complex]
    matched_zeros: tuple[complex, complex]
    distances: tuple[float, float]


def foci_vs_zeros(fit: ConicFit, B: BlaschkeProduct) -> FociZeroMatch:
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


def _svg_polyline(pts, color: str, width: float, dashed: bool = False) -> str:
    """A closed polyline through pts, back to the first point."""
    seq = list(pts)
    if seq:
        seq.append(seq[0])
    dash = ' stroke-dasharray="0.03,0.02"' if dashed else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{dash} '
        f'points="{" ".join(_svg_xy(p) for p in seq)}"/>'
    )


def scene_svg(curve: EnvelopeCurve, fit: ConicFit, levels: LevelSets) -> str:
    """Standalone SVG: unit circle, the skip-m polygons of the given level
    sets, envelope, fit overlay."""
    hop = curve.skip + 1
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.1 -1.1 2.2 2.2">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#303030" stroke-width="0.008"/>',
    ]
    n = levels.points.shape[1]
    cycle = n // math.gcd(n, hop)
    for row in levels.points.tolist():
        for offset in range(math.gcd(n, hop)):
            ring = [row[(offset + k * hop) % n] for k in range(cycle)]
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
    label = f"K{curve.skip + 1}: {fit.classification} (residual {fit.residual:.2e})"
    parts.append(
        f'<text x="-1.05" y="1.05" font-size="0.07" fill="#303030">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
