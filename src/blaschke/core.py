"""Finite Blaschke products and disk automorphisms.

A finite Blaschke product of degree n is

    B(z) = gamma * prod_j (z - a_j) / (1 - conj(a_j) z),

with |gamma| = 1 and all zeros a_j in the open unit disk.  B maps the disk
n-to-1 onto itself and the unit circle n-to-1 onto itself.  Everything in this
package is built on top of the two value types here (BlaschkeProduct,
DiskAutomorphism), the chain container, and the shared tolerance block.

The automorphism convention used everywhere is the self-inverse involution

    phi_a(z) = (a - z) / (1 - conj(a) z),

so phi_a(phi_a(z)) = z and phi_a swaps 0 and a.  A general automorphism is
rotation * phi_center.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInput,
    InputError,
    NoInteriorFixedPoint,
    PoleProximity,
    SolverFailure,
)

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "BlaschkeProduct",
    "DiskAutomorphism",
    "CompositionChain",
    "NormalizedForm",
    "RegularizedCheck",
    "compose",
    "normalize",
    "is_regularized",
    "unit",
    "circle_samples",
    "format_float",
]

_ON_CIRCLE_TOL = 1e-12


@dataclass(frozen=True)
class ToleranceConfig:
    """Shared numerical tolerances.

    DEFAULT_TOL holds the defaults.  Every CLI subcommand runs at them;
    library callers may pass another instance as tol.

    root_tol: the pole guard (evaluation raises PoleProximity when a factor's
        denominator 1 - conj(a) z falls to root_tol) and the residual
        |B(z) - w| a repeated fiber point must meet; also the modulus below
        which a critical value or an automorphism center counts as 0.  It is
        not a solver stop: circle solves stop at 1e-14 or a few ulps and
        certify at 5e-11, and the branch tracker corrects to 1e-12.
    cluster_tol: distance at or below which two critical points or zeros
        are one; critical values, relative to the smaller modulus.
    identity_tol: sup-norm slack when checking that two maps agree, and the
        modulus below which a zero counts as a zero at the origin.
    conic_residual_tol: algebraic residual gate for conic fits.
    No tolerance sizes the lift grid of circle solves; it refines itself.
    """

    root_tol: float = 1e-12
    cluster_tol: float = 1e-8
    identity_tol: float = 1e-9
    conic_residual_tol: float = 1e-6

    def __post_init__(self):
        for name in ("root_tol", "cluster_tol", "identity_tol", "conic_residual_tol"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise InputError(f"{name} must lie in (0, 1)")
        if self.cluster_tol <= self.root_tol:
            raise InputError("cluster_tol must exceed root_tol")


DEFAULT_TOL = ToleranceConfig()


def _tol(tol: ToleranceConfig | None) -> ToleranceConfig:
    return DEFAULT_TOL if tol is None else tol


def _finite(name: str, value) -> complex:
    """value as a complex number, or InputError naming it when it is NaN or
    infinite (every comparison with NaN is False, so the range checks that
    follow would let it through)."""
    c = complex(value)
    if not cmath.isfinite(c):
        raise InputError(f"{name} {c} is not finite")
    return c


def unit(c: complex) -> complex:
    """Project a nonzero complex number onto the unit circle."""
    m = abs(c)
    if m == 0.0:
        raise DegenerateInput("cannot normalize 0 to the unit circle")
    return c / m


def format_float(x: float) -> str:
    """IEEE double rendered with 17 significant digits (round-trip safe)."""
    return f"{x:.17g}"


def circle_samples(count: int, offset: float = 0.0) -> list[complex]:
    """Evenly spaced points on the unit circle, deterministic."""
    return [cmath.exp(1j * (offset + 2.0 * math.pi * k / count)) for k in range(count)]


def _factor_array(a: np.ndarray, z: np.ndarray):
    """(gap/den, gap, den), gap = z - a_j and den = 1 - conj(a_j) z, along a
    new last axis of z: the array factors, of which _jet is the scalar form.
    The branch tracker passes the points of every (loop, label) row still
    correcting, one Newton pass per call, and reads B = gamma * prod(gap/den)
    and B' = B * sum (1 - |a_j|^2) / (gap * den) off the result."""
    gap = z[..., None] - a
    # in this operand order, with the add in place, numpy broadcasts den up
    # to five times faster than 1.0 - a.conj() * z[..., None]
    den = z[..., None] * -a.conj()
    den += 1.0
    return gap / den, gap, den


@dataclass(frozen=True)
class BlaschkeProduct:
    """A finite Blaschke product, stored as unimodular constant plus zero list.

    zeros is a tuple with multiplicity; the degree is its length.  The
    private factor table _terms holds (a, conj(a), 1 - |a|^2) per zero, built
    once here for _jet; it is not a field, so equality, hashing and repr see
    only gamma and zeros.
    """

    gamma: complex
    zeros: tuple[complex, ...]

    def __post_init__(self):
        gamma = _finite("gamma", self.gamma)
        zeros = tuple(_finite("zero", a) for a in self.zeros)
        if abs(abs(gamma) - 1.0) > 1e-12:
            raise InputError(f"|gamma| = {abs(gamma)!r}, must be 1")
        if len(zeros) < 1:
            raise InputError("a Blaschke product needs at least one zero")
        for a in zeros:
            if abs(a) >= 1.0:
                raise InputError(f"zero {a} is not inside the open unit disk")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(
            self, "_terms", tuple((a, a.conjugate(), 1.0 - abs(a) ** 2) for a in zeros)
        )

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z, tol: ToleranceConfig | None = None):
        return self.evaluate(z, tol)

    def evaluate(self, z, tol: ToleranceConfig | None = None):
        """Evaluate B(z) from its factors (_jet, or _factor_array for arrays).

        On the unit circle the result satisfies ||B(z)| - 1| <= a few ulps
        regardless of degree.  Raises PoleProximity when a denominator
        1 - conj(a) z falls to root_tol.  For |z| <= 1 the denominator is at
        least 1 - |a|, so this needs a zero a within root_tol of the circle,
        and then it happens near a/|a| although B has no pole there:
        BlaschkeProduct(1, (0.3j, 1 - 1e-13)).evaluate(1) raises.  For
        |z| > 1 it happens near the poles 1/conj(a).
        """
        tol = _tol(tol)
        if isinstance(z, np.ndarray):
            return self._evaluate_array(z, tol)
        return self._jet(complex(z), tol)[0]

    def _evaluate_array(self, z: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        f, _, den = _factor_array(np.asarray(self.zeros), z)
        size = np.abs(den)
        if np.any(size <= tol.root_tol):
            k = int(np.argmin(size))
            raise PoleProximity(z.flat[k // self.degree], size.flat[k])
        on_circle = np.abs(np.abs(z) - 1.0) <= _ON_CIRCLE_TOL
        f[on_circle] /= np.abs(f[on_circle])
        return self.gamma * np.prod(f, axis=-1)

    def derivative(self, z, tol: ToleranceConfig | None = None):
        """Evaluate B'(z) at a scalar point (see _jet)."""
        return self._jet(complex(z), _tol(tol))[1]

    def _jet(self, z: complex, tol: ToleranceConfig) -> tuple[complex, complex]:
        """(B(z), B'(z)) in one running product-rule pass over the factors.

        Each factor f_j = (z - a_j)/(1 - conj(a_j) z) has
        f_j' = (1 - |a_j|^2)/(1 - conj(a_j) z)^2; the running pair
        (prod, dprod) is updated without ever dividing by f_j, so zeros of B
        need no special casing.  conj(a_j) and 1 - |a_j|^2 come from the
        factor table _terms built with the product, so a pass recomputes
        neither.  On the unit circle every factor has modulus exactly 1, so
        when |z| is within 1e-12 of 1 each factor is renormalized to unit
        modulus as it is multiplied in.  Raises PoleProximity when a
        denominator falls to root_tol (see evaluate for where that happens).
        """
        on_circle = abs(abs(z) - 1.0) <= _ON_CIRCLE_TOL
        root_tol = tol.root_tol
        p = self.gamma
        dp = 0.0 + 0.0j
        for a, a_conj, k in self._terms:
            den = 1.0 - a_conj * z
            if abs(den) <= root_tol:
                raise PoleProximity(z, den)
            f = (z - a) / den
            if on_circle:
                f /= abs(f)
            df = k / (den * den)
            dp = dp * f + p * df
            p = p * f
        return p, dp

    def to_json(self) -> str:
        """Serialize as {"gamma":[re,im],"zeros":[[re,im],...]}, 17 digits."""
        g = f"[{format_float(self.gamma.real)},{format_float(self.gamma.imag)}]"
        zs = ",".join(
            f"[{format_float(a.real)},{format_float(a.imag)}]" for a in self.zeros
        )
        return f'{{"gamma":{g},"zeros":[{zs}]}}'

    @staticmethod
    def from_json(text: str) -> "BlaschkeProduct":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        return BlaschkeProduct._from_json_dict(data)

    @staticmethod
    def _from_json_dict(data) -> "BlaschkeProduct":
        if not isinstance(data, dict) or "gamma" not in data or "zeros" not in data:
            raise InputError('product JSON needs "gamma" and "zeros"')
        try:
            gamma = complex(data["gamma"][0], data["gamma"][1])
            zeros = tuple(complex(p[0], p[1]) for p in data["zeros"])
        except (TypeError, IndexError, ValueError) as exc:
            raise InputError(f"malformed product JSON: {exc}") from exc
        return BlaschkeProduct(gamma, zeros)


@dataclass(frozen=True)
class DiskAutomorphism:
    """Degree-1 self-map of the disk: z -> rotation * (center - z)/(1 - conj(center) z).

    With rotation = 1 this is the involution phi_center.  The identity map is
    DiskAutomorphism(-1, 0).
    """

    rotation: complex = 1.0 + 0.0j
    center: complex = 0.0 + 0.0j

    def __post_init__(self):
        rotation = _finite("rotation", self.rotation)
        center = _finite("center", self.center)
        if abs(abs(rotation) - 1.0) > 1e-12:
            raise InputError(f"|rotation| = {abs(rotation)!r}, must be 1")
        if abs(center) >= 1.0:
            raise InputError(f"center {center} is not inside the open unit disk")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "center", center)

    @staticmethod
    def identity() -> "DiskAutomorphism":
        return DiskAutomorphism(-1.0, 0.0)

    @staticmethod
    def rotation_map(mu: complex) -> "DiskAutomorphism":
        """The map z -> mu * z for |mu| = 1."""
        return DiskAutomorphism(-unit(mu), 0.0)

    def __call__(self, z):
        c = self.center
        if isinstance(z, np.ndarray):
            return self.rotation * (c - z) / (1.0 - np.conj(c) * z)
        z = complex(z)
        return self.rotation * (c - z) / (1.0 - c.conjugate() * z)

    def inverse(self) -> "DiskAutomorphism":
        return DiskAutomorphism(
            self.rotation.conjugate(), self.rotation * self.center
        )

    def _matrix(self) -> np.ndarray:
        lam, c = self.rotation, self.center
        return np.array([[-lam, lam * c], [-c.conjugate(), 1.0]], dtype=complex)

    def compose(self, inner: "DiskAutomorphism") -> "DiskAutomorphism":
        """self after inner, again in canonical (rotation, center) form."""
        m = self._matrix() @ inner._matrix()
        alpha, beta = m[0, 0], m[0, 1]
        delta = m[1, 1]
        rotation = unit(-alpha / delta)
        center = -beta / alpha
        return DiskAutomorphism(rotation, center)

    def fixed_point(self, tol: ToleranceConfig | None = None) -> complex:
        """The fixed point inside the open disk, when one exists.

        Rotations about the origin (center == 0) fix 0.  Otherwise the fixed
        points solve conj(c) z^2 - (1 + rotation) z + rotation c = 0, whose
        root moduli multiply to 1; if neither root is interior the map has no
        interior fixed point and NoInteriorFixedPoint is raised.
        """
        tol = _tol(tol)
        lam, c = self.rotation, self.center
        if abs(c) <= tol.root_tol:
            return 0j
        disc = cmath.sqrt((1.0 + lam) ** 2 - 4.0 * c.conjugate() * lam * c)
        denom = 2.0 * c.conjugate()
        roots = [((1.0 + lam) + disc) / denom, ((1.0 + lam) - disc) / denom]
        roots.sort(key=abs)
        if abs(roots[0]) < 1.0 - 1e-12:
            return roots[0]
        raise NoInteriorFixedPoint(
            f"fixed points of {self} lie on the unit circle"
        )

    def as_blaschke(self) -> BlaschkeProduct:
        """The same map as a degree-1 BlaschkeProduct."""
        return BlaschkeProduct(-self.rotation, (self.center,))


@dataclass(frozen=True)
class CompositionChain:
    """A composition B = factors[0] o factors[1] o ... o factors[-1].

    Outermost first, innermost last.
    """

    factors: tuple[BlaschkeProduct, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise InputError("a chain needs at least one factor")
        for f in factors:
            if not isinstance(f, BlaschkeProduct):
                raise InputError("chain factors must be BlaschkeProduct instances")
        object.__setattr__(self, "factors", factors)

    @property
    def degree(self) -> int:
        d = 1
        for f in self.factors:
            d *= f.degree
        return d

    def __call__(self, z, tol: ToleranceConfig | None = None):
        for f in reversed(self.factors):
            z = f.evaluate(z, tol)
        return z

    def expand(self, tol: ToleranceConfig | None = None) -> BlaschkeProduct:
        """Multiply the chain out to a single product."""
        out = self.factors[0]
        for f in self.factors[1:]:
            out = compose(out, f, tol)
        return out

    def to_json(self) -> str:
        inner = ",".join(f.to_json() for f in self.factors)
        return f'{{"factors":[{inner}]}}'

    @staticmethod
    def from_json(text: str) -> "CompositionChain":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("factors"), list):
            raise InputError('chain JSON needs a "factors" list')
        return CompositionChain(
            tuple(BlaschkeProduct._from_json_dict(d) for d in data["factors"])
        )


def _matching_point_candidates() -> list[complex]:
    # fixed circle points used to pin down unimodular constants; a handful of
    # angles with no shared symmetry so at least one is well away from any
    # structure of the product at hand
    return [cmath.exp(1j * t) for t in (0.83, 2.11, 3.91, 5.03, 0.17, 4.57)]


def compose(
    outer: BlaschkeProduct,
    inner: BlaschkeProduct,
    tol: ToleranceConfig | None = None,
) -> BlaschkeProduct:
    """Expand outer(inner(z)) into a single Blaschke product.

    The zeros of the composition are the inner-preimages of the outer zeros:
    for each zero w of outer, the fiber inner(z) = w, all of which lies in
    the open disk.  The constant is fixed by matching one circle evaluation.
    """
    from .critical import fiber

    tol = _tol(tol)
    zeros: list[complex] = []
    fiber_cache: dict[complex, list[complex]] = {}
    for w in outer.zeros:
        if w not in fiber_cache:
            fiber_cache[w] = fiber(inner, w, tol)
        zeros.extend(fiber_cache[w])

    base = BlaschkeProduct(1.0, tuple(zeros))
    for z0 in _matching_point_candidates():
        try:
            gamma = outer.evaluate(inner.evaluate(z0, tol), tol) / base.evaluate(z0, tol)
        except PoleProximity:
            continue
        return BlaschkeProduct(unit(gamma), tuple(zeros))
    raise DegenerateInput("no usable matching point on the circle")


class NormalizedForm(NamedTuple):
    """normalize() result: product = post o B o pre with product(0) = 0,
    product'(0) > 0, and simple zeros.  pre is an involution (rotation 1), so
    B = post.inverse() o product o pre."""

    product: BlaschkeProduct
    pre: DiskAutomorphism
    post: DiskAutomorphism


# normalize's base-point candidates: 16 points on each of the circles of
# radius 0.1, ..., 0.5 about the origin, one array per circle
_BASE_RINGS = [
    np.array([0.1 * k * cmath.exp(2j * math.pi * (j + 0.3) / 16) for j in range(16)])
    for k in range(1, 6)
]


def normalize(B: BlaschkeProduct, tol: ToleranceConfig | None = None) -> NormalizedForm:
    """Conjugate B by disk automorphisms into the normalized form.

    Picks a base point beta whose image alpha = B(beta) is a regular value,
    more than cluster_tol from every entry of critical_data(B).values, then
    returns lambda * phi_alpha o B o phi_beta with the rotation chosen so
    the derivative at 0 is real positive.  beta = 0 when possible; otherwise
    the scan takes the 16 points of each circle of radius 0.1, ..., 0.5 about
    the origin in turn, one array evaluation of B per circle, and keeps the
    first point of greatest margin, stopping after the first circle whose
    best margin exceeds 100 cluster_tol.  When no scanned point clears
    cluster_tol it raises SolverFailure: that is a limit of the scan, not of
    the input.
    """
    from .critical import critical_data, fiber

    tol = _tol(tol)
    values = np.array(critical_data(B, tol).values, dtype=complex)

    def margin(alpha):
        """Distance from each base value to the nearest critical value."""
        return np.abs(np.subtract.outer(alpha, values)).min(axis=-1, initial=math.inf)

    beta = 0j
    if margin(B.evaluate(0j, tol)) <= tol.cluster_tol:
        best = -1.0
        for ring in _BASE_RINGS:
            m = margin(B.evaluate(ring, tol))
            j = int(np.argmax(m))
            if m[j] > best:
                best, beta = m[j], complex(ring[j])
            if best > 100 * tol.cluster_tol:
                break
        if best <= tol.cluster_tol:
            raise SolverFailure("no regular base point found near the origin")
    alpha = B.evaluate(beta, tol)

    base_fiber = fiber(B, alpha, tol)
    if len(base_fiber) != B.degree:
        raise DegenerateInput("fiber of the base value has the wrong size")

    pre = DiskAutomorphism(1.0, beta)
    zeros_n = [pre(w) for w in base_fiber]
    # beta itself is in the fiber; snap its image to exactly 0
    i0 = min(range(len(zeros_n)), key=lambda i: abs(zeros_n[i]))
    if abs(zeros_n[i0]) > 1e-7:
        raise DegenerateInput("fiber does not contain the base point")
    zeros_n[i0] = 0j
    zeros_n.sort(key=lambda z: (z.real, z.imag))

    base = BlaschkeProduct(1.0, tuple(zeros_n))
    phi_alpha = DiskAutomorphism(1.0, alpha)
    gamma2 = None
    for z0 in _matching_point_candidates():
        try:
            gamma2 = phi_alpha(B.evaluate(pre(z0), tol)) / base.evaluate(z0, tol)
            break
        except PoleProximity:
            continue
    if gamma2 is None:
        raise DegenerateInput("no usable matching point on the circle")
    n2 = BlaschkeProduct(unit(gamma2), tuple(zeros_n))
    d0 = n2.derivative(0j, tol)
    if abs(d0) == 0.0:
        raise DegenerateInput("normalized derivative vanished at 0")
    # + 0j turns the -0.0 imaginary part of a real d0's conjugate into +0.0
    lam = d0.conjugate() / abs(d0) + 0j
    product = BlaschkeProduct(unit(lam * n2.gamma), tuple(zeros_n))
    post = DiskAutomorphism(lam, alpha)
    return NormalizedForm(product, pre, post)


@dataclass(frozen=True)
class RegularizedCheck:
    """Result of is_regularized: overall flag plus the individual findings."""

    ok: bool
    zero_at_origin: bool
    simple_zeros: bool
    violating_pairs: tuple[tuple[complex, complex], ...]

    def __bool__(self) -> bool:
        return self.ok


def _zeros_separated(B: BlaschkeProduct, tol: ToleranceConfig) -> bool:
    """Whether every two zeros of B lie more than cluster_tol apart."""
    zs = np.array(B.zeros, dtype=complex)
    gaps = np.abs(zs[:, None] - zs)[np.triu_indices(len(zs), 1)]
    return bool(np.all(gaps > tol.cluster_tol))


def is_regularized(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> RegularizedCheck:
    """Check B(0) = 0, simple zeros, and the critical-value ratio condition.

    The ratio condition: no two distinct critical values may have a ratio that
    is a positive real number (such a pair would make distinct level sets
    collide after a radial rescaling).
    """
    from .critical import critical_data

    tol = _tol(tol)
    zero_at_origin = abs(B.evaluate(0j, tol)) <= tol.identity_tol
    simple = _zeros_separated(B, tol)
    values = [v for v, _ in critical_data(B, tol).distinct_values]
    violating = _positive_ratio_pairs(values, tol.root_tol)
    ok = zero_at_origin and simple and not violating
    return RegularizedCheck(ok, zero_at_origin, simple, violating)


def _positive_ratio_pairs(
    values: list[complex], root_tol: float
) -> tuple[tuple[complex, complex], ...]:
    """The pairs (values[i], values[j]), i < j, in the order of a double
    loop, of values above root_tol in modulus whose ratio r = v_i / v_j is
    positive real: Re r > 0 and |Im r| <= 1e-9 |r|, either order alike.
    All pairs are tested at once as one (V x V) array."""
    v = np.array(values, dtype=complex)
    nonzero = np.abs(v) > root_tol
    with np.errstate(divide="ignore", invalid="ignore"):
        r = v[:, None] / v
    positive = (r.real > 0.0) & (np.abs(r.imag) <= 1e-9 * np.abs(r))
    pairs = np.argwhere(np.triu(positive & nonzero[:, None] & nonzero, 1))
    return tuple((values[i], values[j]) for i, j in pairs.tolist())
