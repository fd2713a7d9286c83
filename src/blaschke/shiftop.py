"""Matrix model of the compressed shift and its numerical range.

For zeros a_1..a_n the model-space matrix is upper triangular with the zeros
on the diagonal and

    A_ij = (prod of -conj(a_l) for i < l < j) * sqrt(1-|a_i|^2) * sqrt(1-|a_j|^2)

above it.  It is a contraction with rank(I - A*A) = 1, and its numerical
range W(A) = {<Av, v> : |v| = 1} is the convex region whose boundary this
module samples by a support-function sweep over a uniform grid of outward
normal angles theta.  Which input takes which path:

* a ShiftMatrix is swept from its zeros alone, with no eigensolve.  W(A) is
  the region bounded by the Poncelet curve of C = z * prod (z - a_j)/(1 -
  conj(a_j) z): the chord joining two consecutive circle solutions of
  C = lam is tangent to its boundary (Gau and Wu 1998; Daepp, Gorkin,
  Shaffer and Voss 2018).  The chord with normal e^{i theta} joins
  e^{i(theta - delta)} to e^{i(theta + delta)}, where the lifted argument psi
  of C gains exactly 2 pi across the arc; its support value is cos(delta)
  and its tangency point is circle._tangency, the psi'-weighted mean of the
  two endpoints.  The sweep reads C only through w = 1 - a_j conj(z) at the
  ends (see circle): psi gains 2 delta (n + 1) plus circle._arc_gain across
  the arc, with no complex division, and each angle's Newton start is
  min(pi/psi'(theta), pi/2), the root of that gain at the local rate.
* any other square array goes through a Hermitian eigen-sweep: for each
  direction, the top eigenpair of the Hermitian part of e^{-i theta} A gives
  both the support value and a boundary point.  The tests use it as the
  reference for the first path.

is_elliptical_range reads the ellipse, its center, semi-axes and foci off
either sweep's support lines and boundary points with circle._ellipse, the
test that poncelet applies to the chords of its envelopes and their
tangency points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import (
    TAU, _arc_gain, _bracketed_newton, _certify, _circle_w, _ellipse, _poisson_rate,
    _tangency,
)
from .core import ToleranceConfig, format_float, _finite, _integer
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
    """Support-function sweep of W(A).

    For each angle theta_k: support[k] is the maximum of Re(e^{-i theta} w)
    over w in W(A), and points[k] = <A v, v> for a maximizing unit vector v,
    a boundary point attaining that support value.
    """

    angles: tuple[float, ...]
    support: tuple[float, ...]
    points: tuple[complex, ...]


def numerical_range_boundary(A, samples: int = 720) -> NumericalRangeSample:
    """Boundary sample of W(A) at the normal angles 2 pi k / samples.

    A ShiftMatrix is swept by the tangency formula from its zeros, with no
    eigensolve; every angle's delta is certified to |F|/(psi'1 + psi'2) <=
    5e-11, the certificate of every circle solve, or SolverFailure names the
    angle.  Any other square array is swept by one Hermitian eigensolve per
    angle.  A sample count that is not an integer of at least 8, or a
    matrix with a non-finite entry, raises InputError.
    """
    if _integer(samples, "sweep direction count must be an integer") < 8:
        raise InputError("need at least 8 sweep directions")
    angles = [2.0 * math.pi * k / samples for k in range(samples)]
    if isinstance(A, ShiftMatrix):
        support, points = _tangency_sweep(A.zeros, np.array(angles))
    else:
        support, points = _eigen_sweep(_as_matrix(A), angles)
    return NumericalRangeSample(tuple(angles), tuple(support), tuple(points))


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


def _chord(a: np.ndarray, theta: np.ndarray, delta: np.ndarray):
    """The chord from z1 = e^{i(theta - delta)} to z2 = e^{i(theta + delta)}
    for C = z * prod (z - a_j)/(1 - conj(a_j) z), with psi the lifted argument
    of C on the circle.

    Returns F = psi(theta + delta) - psi(theta - delta) - 2 pi and psi' at
    both ends (circle._poisson_rate plus 1 for the z factor).  F needs no
    lift grid, no factor values and no end point: with w = 1 - a_j conj(z)
    built once at both ends, C's n + 1 factors rotate by 2 delta (n + 1)
    and add circle._arc_gain(w1, w2) across the arc.
    """
    w = _circle_w(a, theta + np.stack((-delta, delta)))
    F = 2.0 * delta * (len(a) + 1) + _arc_gain(w[0], w[1]) - TAU
    return F, 1.0 + _poisson_rate(1.0 - np.abs(a) ** 2, w)


def _tangency_sweep(zeros, theta: np.ndarray) -> tuple[list, list]:
    """Support values and boundary points of W(S) for the compressed shift
    with these zeros, at every normal angle in theta at once.

    F(delta) rises from -2 pi at 0 to 2 pi len(zeros) at pi with slope
    psi'(theta - delta) + psi'(theta + delta), so each angle has one root,
    found by circle._bracketed_newton with base theta: the larger endpoint
    angle theta + delta sets the noise floor of F.  Each angle starts at
    min(pi/psi'(theta), pi/2), where F would vanish if psi' stayed at its
    value at theta across the arc.  Every delta is certified on its error
    |F|/(psi'1 + psi'2) by circle._certify, from the kernel's last
    evaluation at the returned delta, so no chord is evaluated twice; gap
    keeps the psi' of each end from that evaluation for the tangency point,
    and the chord ends are formed once, for the solved deltas only.
    """
    a = np.asarray(zeros, dtype=complex)
    ends = np.empty((2, len(theta)))

    def gap(live, d):
        F, rate = _chord(a, theta[live], d)
        ends[:, live] = rate
        return F, rate[0] + rate[1]

    rate = 1.0 + _poisson_rate(1.0 - np.abs(a) ** 2, _circle_w(a, theta))
    delta, F, rate = _bracketed_newton(
        gap,
        np.minimum(math.pi / rate, 0.5 * math.pi),
        np.zeros_like(theta),
        np.full_like(theta, math.pi),
        theta,
    )
    _certify(F, rate, lambda k: f"tangent chord at theta={float(theta[k])!r}")
    z = np.exp(1j * (theta + np.stack((-delta, delta))))
    points = _tangency(z[0], ends[0], z[1], ends[1])
    return (np.exp(-1j * theta) * points).real.tolist(), points.tolist()


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
    """Decide whether W(A) is an ellipse, from its support lines
    Re(e^{-i theta_k} z) = h(theta_k) on the sweep theta_k = 2 pi k / samples.

    Those lines are tangent to one ellipse exactly when W(A) is that
    ellipse (Gau and Wu 1998; Daepp, Gorkin, Shaffer and Voss, "Finding
    ellipses", 2018).  circle._ellipse, the test that poncelet.fit_conic
    applies to chords, reads these lines with the sweep's boundary points as
    their tangency points; W is an ellipse when it reads one, so a W that is
    a segment never is, nor a W whose boundary points all lie within 1e-6 of
    one point, a point range.
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
