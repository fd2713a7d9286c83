"""Matrix model of the compressed shift and its numerical range.

For zeros a_1..a_n the model-space matrix is upper triangular with the zeros
on the diagonal and

    A_ij = (prod of -conj(a_l) for i < l < j) * sqrt(1-|a_i|^2) * sqrt(1-|a_j|^2)

above it.  It is a contraction with rank(I - A*A) = 1, and its numerical
range W(A) = {<Av, v> : |v| = 1} is the convex region whose boundary this
module samples by its support lines.  Which input takes which path:

* a ShiftMatrix is read from its zeros alone, with no eigensolve.  W(A) is
  the region bounded by K_1, the skip-0 Poncelet curve, of C = z * prod
  (z - a_j)/(1 - conj(a_j) z): the chord joining two consecutive circle
  solutions of C = lam touches the boundary of W(A) (Gau and Wu 1998;
  Daepp, Gorkin, Shaffer and Voss 2018).  One circle.solve_levels call on C
  gives the level sets, and circle._chords, the builder of poncelet's
  envelopes, gives their skip-0 chords and tangency points.  Each chord is
  a support line: its outward normal angle arg(-i (q - p)) is the sample's
  angle and its tangency point the boundary point there, so the angles are
  ascending but not uniform.
* any other square array goes through a Hermitian eigen-sweep over the
  uniform normal angles 2 pi k / samples: for each direction, the top
  eigenpair of the Hermitian part of e^{-i theta} A gives both the support
  value and a boundary point.  The tests use it as the reference for the
  first path.

is_elliptical_range reads the ellipse, its center, semi-axes and foci off
either path's support lines and boundary points with circle._ellipse, the
test that poncelet applies to the chords of its envelopes and their
tangency points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import TAU, _chords, _ellipse, _level_count, solve_levels
from .core import BlaschkeProduct, ToleranceConfig, format_float, _finite, _integer
from .errors import EigensolverFailure, InputError

__all__ = [
    "ShiftMatrix",
    "shift_matrix",
    "NumericalRangeSample",
    "numerical_range_boundary",
    "kippenhahn_eval",
    "RangeVerdict",
    "is_elliptical_range",
    "boundary_csv",
]


@dataclass(frozen=True, eq=False)
class ShiftMatrix:
    """Upper-triangular model matrix; entries is an n x n complex array."""

    entries: np.ndarray
    zeros: tuple[complex, ...]

    @property
    def size(self) -> int:
        return len(self.zeros)


def shift_matrix(zeros) -> ShiftMatrix:
    zs = tuple(_finite("zero", a) for a in zeros)
    if not zs:
        raise InputError("at least one zero is required")
    if any(abs(a) >= 1.0 for a in zs):
        raise InputError("matrix model requires zeros in the open disk")
    n = len(zs)
    # Python's abs, as np.abs rounds some |a| an ulp apart
    defect = np.array([math.sqrt(max(0.0, 1.0 - abs(a) ** 2)) for a in zs])
    col = np.arange(n)
    upper = col > col[:, None]
    # run[i, j] = prod of -conj(a_l) over i < l < j, left to right
    run = np.ones((n, n), dtype=complex)
    np.cumprod(np.where(upper, -np.conj(zs), 1.0)[:, :-1], axis=1, out=run[:, 1:])
    A = np.where(upper, run * defect[:, None] * defect, 0.0)
    np.fill_diagonal(A, zs)
    return ShiftMatrix(A, zs)


def _as_matrix(A) -> np.ndarray:
    if isinstance(A, ShiftMatrix):
        return A.entries
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise InputError("expected a nonempty square matrix")
    finite = np.isfinite(M)
    if not finite.all():
        raise InputError(f"matrix entry {M[~finite][0]} is not finite")
    return M


@dataclass(frozen=True)
class NumericalRangeSample:
    """Support-function sample of W(A).

    For each normal angle theta_k: support[k] is the maximum of Re(e^{-i
    theta} w) over w in W(A), and points[k] is a boundary point attaining
    that support value, <A v, v> for a maximizing unit vector v.
    """

    angles: tuple[float, ...]
    support: tuple[float, ...]
    points: tuple[complex, ...]


def numerical_range_boundary(A, samples: int = 720) -> NumericalRangeSample:
    """Boundary sample of W(A) at samples normal angles in [0, 2pi).

    A ShiftMatrix is read off K_1 of z times its zeros (module docstring),
    with no eigensolve: one solve_levels call at max(2, ceil(samples/(n +
    1))) level angles, certified as every circle solve is, gives n + 1
    chords per level set, at least samples in all; sorted by outward normal
    angle, samples of them are picked evenly in that order.  Its angles are
    those normals, ascending and not uniform.  Any other square array is
    swept at the uniform angles 2 pi k / samples, one Hermitian eigensolve
    per angle.  A sample count that is not an integer of at least 8, or a
    matrix with a non-finite entry, raises InputError.
    """
    if _integer(samples, "sweep direction count must be an integer") < 8:
        raise InputError("need at least 8 sweep directions")
    if not isinstance(A, ShiftMatrix):
        angles = [2.0 * math.pi * k / samples for k in range(samples)]
        support, points = _eigen_sweep(_as_matrix(A), angles)
        return NumericalRangeSample(tuple(angles), tuple(support), tuple(points))
    C = BlaschkeProduct(1.0, (0j, *A.zeros))
    count = _level_count(C.degree, samples)
    levels = solve_levels(C, np.exp(1j * TAU * np.arange(count) / count))
    ends, points = _chords([0], levels.points, levels.rates)
    p, q = ends.reshape(-1, 2).T
    # a normal a rounding below 0 wraps to 2 pi itself, which the second
    # mod sends to 0
    normals = np.angle(-1j * (q - p)) % TAU % TAU
    pick = np.argsort(normals)[np.arange(samples) * len(normals) // samples]
    angles, points = normals[pick], points.ravel()[pick]
    support = (np.exp(-1j * angles) * points).real
    return NumericalRangeSample(
        tuple(angles.tolist()), tuple(support.tolist()), tuple(points.tolist())
    )


def _eigen_sweep(M: np.ndarray, angles: list[float]) -> tuple[list, list]:
    support = []
    points = []
    for theta in angles:
        R = np.exp(-1j * theta) * M
        H = 0.5 * (R + R.conj().T)
        try:
            w, V = np.linalg.eigh(H)
        except np.linalg.LinAlgError as exc:
            raise EigensolverFailure(f"Hermitian eigensolve failed at theta={theta}") from exc
        v = V[:, -1]
        support.append(float(w[-1]))
        points.append(complex(np.vdot(v, M @ v)))
    return support, points


def kippenhahn_eval(A, u: complex, v: complex, w: complex) -> complex:
    """The ternary form det(u Re A + v Im A + w I), Re A and Im A the
    Hermitian parts of A, evaluated at one point and never expanded.

    The real points of the dual of {f = 0} sweep out the boundary generators
    of W(A) (Kippenhahn 1951).  A non-finite u, v or w raises InputError.
    """
    for name, x in zip("uvw", (u, v, w)):
        _finite(name, x)
    M = _as_matrix(A)
    re = 0.5 * (M + M.conj().T)
    im = (M - M.conj().T) / 2j
    return complex(np.linalg.det(u * re + v * im + w * np.eye(M.shape[0])))


@dataclass(frozen=True, eq=False)
class RangeVerdict:
    """Outcome of the ellipticity test for W(A).

    residual is the worst miss of the support lines' tangency equations
    relative to the squared mean reach a0 (circle._ellipse; infinite when
    a0 <= 0), or for a point range (is_elliptical_range) the spread of its
    boundary points.  center, semi_axes (major first) and foci describe the
    ellipse and are None unless is_ellipse; sample is the sweep they were
    read from.
    """

    is_ellipse: bool
    residual: float
    center: complex | None
    semi_axes: tuple[float, float] | None
    foci: tuple[complex, complex] | None
    sample: NumericalRangeSample

    def __bool__(self) -> bool:
        return self.is_ellipse


def is_elliptical_range(
    A, samples: int = 720, tol: ToleranceConfig | None = None
) -> RangeVerdict:
    """Decide whether W(A) is an ellipse, from the support lines
    Re(e^{-i theta_k} z) = h(theta_k) of numerical_range_boundary(A,
    samples).

    Those lines are tangent to one ellipse exactly when W(A) is that
    ellipse (Gau and Wu 1998; Daepp, Gorkin, Shaffer and Voss, "Finding
    ellipses", 2018).  circle._ellipse, the test that poncelet.fit_conic
    applies to chords, reads these lines with the sample's boundary points
    as their tangency points; W is an ellipse when it reads one, so a W that
    is a segment never is, nor a W whose boundary points all lie within 1e-6
    of one point, a point range.
    """
    sample = numerical_range_boundary(A, samples)
    e = np.exp(1j * np.array(sample.angles))
    h, points = np.array(sample.support), np.array(sample.points)
    kind, center, axes, _, foci, residual = _ellipse(2.0 * h * e, e * e, points)
    if kind != "ellipse":
        center = axes = foci = None
    return RangeVerdict(kind == "ellipse", residual, center, axes, foci, sample)


def boundary_csv(sample: NumericalRangeSample) -> str:
    lines = ["theta,h,re,im"]
    for theta, h, x in zip(sample.angles, sample.support, sample.points):
        lines.append(
            ",".join(
                (
                    format_float(theta),
                    format_float(h),
                    format_float(x.real),
                    format_float(x.imag),
                )
            )
        )
    return "\n".join(lines) + "\n"
