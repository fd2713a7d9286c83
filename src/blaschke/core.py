"""Finite Blaschke products and disk automorphisms.

A finite Blaschke product of degree n is

    B(z) = gamma * prod_j (z - a_j) / (1 - conj(a_j) z),

with |gamma| = 1 and all zeros a_j in the open unit disk.  B maps the disk
n-to-1 onto itself and the unit circle n-to-1 onto itself.  Everything in this
package is built on top of the two value types here (BlaschkeProduct,
DiskAutomorphism), the chain container, and the shared tolerances.

The automorphism convention used everywhere is the self-inverse involution

    phi_a(z) = (a - z) / (1 - conj(a) z),

so phi_a(phi_a(z)) = z and phi_a swaps 0 and a.  A general automorphism is
rotation * phi_center.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce, wraps
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInput,
    InputError,
    PoleProximity,
    SolverFailure,
    VerificationFailure,
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
# the pole guard of evaluation, the residual |B(z) - w| of a repeated fiber
# point, and the modulus below which a critical value or an automorphism
# center counts as 0; no solver stops on it
_ROOT_TOL = 1e-12
# the distance at or below which two critical points or zeros are one;
# critical values, relative to the smaller modulus (critical._value_links)
_CLUSTER_TOL = 1e-8
# the modulus at or below which B(0) counts as 0 (is_regularized) and a zero
# counts as the origin (_origin_dropped, the z-factor test that cli nrange,
# the elliptical check and verify_generator_power ask)
_IDENTITY_TOL = 1e-9
# An ellipse whose semi-axes p >= q satisfy (p - q)/p <= _ROUND_GAP is a
# circle with both foci at its center (circle._ellipse, for envelopes and
# ranges alike).  The axes of a circle differ by rounding alone, at most
# 8.8e-15 relative on the demo corpus, against at least 8.4e-2 for a true
# ellipse there, and the focal distance sqrt(p^2 - q^2) ~ p sqrt(2 (p - q)/p)
# would magnify that rounding into foci about 1e-7 p from the center.
# Placing them at the center moves a focus by at most p sqrt(2e-12) ~
# 1.4e-6 p.
_ROUND_GAP = 1e-12


@dataclass(frozen=True)
class ToleranceConfig:
    """A record of _IDENTITY_TOL that takes no argument, kept because
    perfbench reads DEFAULT_TOL.identity_tol and writes asdict(DEFAULT_TOL)
    into its run records.  Ten public callables take tol and read nothing
    from it: is_regularized and the nine that perfbench/workloads.py passes
    DEFAULT_TOL to positionally (CompositionChain.expand, normalize,
    critical_data, next_preimage, invariant_orbit, package,
    is_elliptical_range, monodromy_group and cross_validate).
    """

    identity_tol: float = field(default=_IDENTITY_TOL, init=False)


DEFAULT_TOL = ToleranceConfig()


def _finite(name: str, value) -> complex:
    """value as a complex number, or InputError naming it when it is NaN or
    infinite (every comparison with NaN is False, so the range checks that
    follow would let it through)."""
    c = complex(value)
    if not cmath.isfinite(c):
        raise InputError(f"{name} {c} is not finite")
    return c


def _integer(value, refusal: str, error: type[InputError] = InputError) -> int:
    """value as an int when it is a Python or numpy integer, or error
    "{refusal}, got {value!r}", so 2.0 and 2.9 are refused, never truncated,
    and so is True, which Python counts as the int 1 (product JSON refuses
    booleans too): the check of inner_factor_general's k, factor_any_order's
    entries, circle_samples' and invariant_orbits' counts, wreath_audit's
    levels, poncelet's skip and samples and numerical_range_boundary's
    samples, before any range check."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise error(f"{refusal}, got {value!r}")


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
    """count evenly spaced points on the unit circle, deterministic; a count
    that is not an integer of at least 1, or an offset angle that is NaN,
    infinite or not real, raises InputError."""
    if _integer(count, "sample count must be an integer") < 1:
        raise InputError("sample count must be at least 1")
    if _finite("sample offset", offset).imag != 0.0:
        raise InputError(f"sample offset must be a real angle, got {offset!r}")
    return [cmath.exp(1j * (offset + 2.0 * math.pi * k / count)) for k in range(count)]


def _proper_divisors(n: int) -> tuple[int, ...]:
    """Every k with 1 < k < n that divides n, ascending: the degrees an inner
    factor of a degree-n product can have."""
    return tuple(k for k in range(2, n) if n % k == 0)


def _tower_height(n: int) -> int | None:
    """k when n = 2^k with k >= 1, the length of a chain of quadratic
    factors of degree n; None for any other n."""
    k = n.bit_length() - 1
    return k if k >= 1 and n == 1 << k else None


def _parse_json(text: str):
    """text parsed with every JSON integer read as a float: format_float
    writes -0.0 as "-0", which json.loads alone reads back as the int 0."""
    try:
        return json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def _shaped(values: np.ndarray, points: np.ndarray):
    """values, flat over the points, back in the points' shape: a Python
    complex for a single point."""
    if points.ndim == 0:
        return complex(values[0])
    return values.reshape(points.shape)


def _kept(build):
    """build(B, *key), run once per product object: the result is kept in
    B's own __dict__ under (build's name, *key), as cached_property keeps
    B._table, so it lives as long as B does.  A refusal is not kept, and the
    next call builds afresh.  An equal product is another object and builds
    its own result; equality, hashing and repr see only gamma and zeros.
    The results kept this way are circle's lift grid and level sets,
    critical data, the monodromy group and the inner-factor search."""
    name = build.__name__

    @wraps(build)
    def kept(B, *key):
        memo, slot = B.__dict__, (name, *key)
        if slot not in memo:
            memo[slot] = build(B, *key)
        return memo[slot]

    return kept


@dataclass(frozen=True)
class BlaschkeProduct:
    """A finite Blaschke product, stored as unimodular constant plus zero list.

    zeros is a tuple with multiplicity; the degree is its length.  The
    private factor table _table holds the zeros a as an array, -conj(a),
    1 - |a|^2 and max |a|, built on first use for _jet and the circle
    solves' circle._circle_terms; it and every result _kept derives from the
    product live in its __dict__, not in its fields, so equality, hashing
    and repr see only gamma and zeros.
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

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        a = np.array(self.zeros)
        return a, -a.conj(), 1.0 - np.abs(a) ** 2, np.abs(a).max()

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        return self.evaluate(z)

    def evaluate(self, z):
        """B(z) at a point or at every point of an array (the first half of
        _jet, which then stops before forming B').

        On the unit circle the result satisfies ||B(z)| - 1| <= a few ulps
        regardless of degree.  Raises PoleProximity when a denominator
        1 - conj(a) z falls to _ROOT_TOL.  For |z| <= 1 the denominator is
        at least 1 - |a|, so this needs a zero a within _ROOT_TOL of the
        circle, and then it happens near a/|a| although B has no pole there:
        BlaschkeProduct(1, (0.3j, 1 - 1e-13)).evaluate(1) raises.  For
        |z| > 1 it happens near the poles 1/conj(a).
        """
        return self._jet(z, with_slope=False)[0]

    def derivative(self, z):
        """B'(z) at a point or at every point of an array (the second half
        of _jet), exact at the zeros of B as well."""
        return self._jet(z)[1]

    def _jet(self, z, with_slope: bool = True):
        """(B(z), B'(z)) at a point or an array of points z, in z's shape,
        from the factors f_j = gap_j / den_j, gap_j = z - a_j and den_j =
        1 - conj(a_j) z: B = gamma * prod f and B' = B * sum (1 - |a_j|^2) /
        (gap_j * den_j).  A point in gives Python complex numbers out; every
        evaluation of B and B' in the package goes through here, except the
        circle solves' circle._circle_terms.  With with_slope False the pair
        is (B(z), None): B is the same to the bit, and no pass forms B'.

        The pole guard runs before anything is divided: as
        |den| >= 1 - |a| |z|, the denominators are measured only when
        max |z| * max |a| >= 1 - 2 _ROOT_TOL, and the least of them at or
        below _ROOT_TOL raises PoleProximity (see evaluate for where that
        happens).  On the unit circle every factor has modulus exactly 1, so
        at the points with |z| within 1e-12 of 1 each factor is
        renormalized to unit modulus.  B'/B has a pole at the zeros, so at
        a point where B is exactly 0, B' = gamma * sum_j f_j' prod_(i != j)
        f_i, with f_j' = (1 - |a_j|^2) / den_j^2, from prefix and suffix
        products of the factors: exact at a simple zero, 0 at a double one.
        """
        a, minus_conj, gain, a_max = self._table
        points = np.asarray(z, dtype=complex)
        flat = points.reshape(-1)
        reach = np.abs(flat).max(initial=0.0)
        if not reach * a_max < 1.0 - 2.0 * _ROOT_TOL:
            den = 1.0 - np.multiply.outer(flat, a.conj())
            i, j = np.unravel_index(np.argmin(np.abs(den)), den.shape)
            if abs(den[i, j]) <= _ROOT_TOL:
                raise PoleProximity(complex(flat[i]), complex(den[i, j]))
        gap = flat[:, None] - a
        # in this operand order, with the add in place, numpy broadcasts den
        # up to five times faster than 1.0 - a.conj() * flat[:, None]
        den = flat[:, None] * minus_conj
        den += 1.0
        f = gap / den
        if not reach < 1.0 - _ON_CIRCLE_TOL:
            on_circle = np.abs(np.abs(flat) - 1.0) <= _ON_CIRCLE_TOL
            f[on_circle] /= np.abs(f[on_circle])
        value = self.gamma * f.prod(axis=-1)
        exact_zero = np.count_nonzero(value) < len(value)
        if exact_zero:
            zero = value == 0
            # +0 + 0j, whatever signs the product order left on the parts
            value[zero] = 0.0
        if not with_slope:
            return _shaped(value, points), None
        if exact_zero:
            fz = f[zero]
            # before_j = prod_(i < j) f_i and after_j = prod_(i > j) f_i
            before, after = np.ones((2, *fz.shape), dtype=complex)
            np.multiply.accumulate(fz[:, :-1], axis=1, out=before[:, 1:])
            np.multiply.accumulate(fz[:, :0:-1], axis=1, out=after[:, -2::-1])
            at_zero = self.gamma * (gain / den[zero] ** 2 * before * after).sum(axis=-1)
            gap[zero] = 1.0
        den *= gap
        slope = value * np.divide(gain, den, out=den).sum(axis=-1)
        if exact_zero:
            slope[zero] = at_zero
        return _shaped(value, points), _shaped(slope, points)

    @staticmethod
    def _from_json_dict(data, entry: str = "") -> "BlaschkeProduct":
        """The product a JSON object holds; entry ("factors[i]." for a
        chain's factor) prefixes every entry that an InputError names, and
        names the factor in the constructor's own refusals."""
        if not isinstance(data, dict) or "gamma" not in data or "zeros" not in data:
            raise InputError(f'product JSON needs "{entry}gamma" and "{entry}zeros"')
        if not isinstance(data["zeros"], list):
            raise InputError(f'malformed product JSON: "{entry}zeros" must be a list')
        gamma = _json_complex(data["gamma"], f"{entry}gamma")
        zeros = tuple(
            _json_complex(p, f"{entry}zeros[{k}]") for k, p in enumerate(data["zeros"])
        )
        try:
            return BlaschkeProduct(gamma, zeros)
        except InputError as exc:
            if not entry:
                raise
            raise InputError(f"{entry[:-1]}: {exc}") from None


def _json_complex(value, name: str) -> complex:
    """re + i im for a JSON pair [re, im] of numbers, or InputError naming
    the entry: a boolean is not a number, and a third component is refused,
    not dropped."""
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise InputError(
            f"malformed product JSON: {name} must be a pair [re, im] of numbers, "
            f"got {json.dumps(value)}"
        )
    return complex(value[0], value[1])


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
    def rotation_map(mu: complex) -> "DiskAutomorphism":
        """The map z -> mu * z for |mu| = 1."""
        return DiskAutomorphism(-unit(mu), 0.0)

    def __call__(self, z):
        c = self.center
        if isinstance(z, np.ndarray):
            return self.rotation * (c - z) / (1.0 - np.conj(c) * z)
        z = complex(z)
        return self.rotation * (c - z) / (1.0 - c.conjugate() * z)

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

    def __call__(self, z):
        for f in reversed(self.factors):
            z = f.evaluate(z)
        return z

    def expand(self, tol: ToleranceConfig | None = None) -> BlaschkeProduct:
        """Multiply the chain out to a single product, once per chain."""
        return self._expanded

    @cached_property
    def _expanded(self) -> BlaschkeProduct:
        return reduce(compose, self.factors)


def _chain_from_json_dict(data) -> CompositionChain:
    if not isinstance(data, dict) or not isinstance(data.get("factors"), list):
        raise InputError('chain JSON needs a "factors" list')
    factors = enumerate(data["factors"])
    return CompositionChain(
        tuple(BlaschkeProduct._from_json_dict(d, f"factors[{i}].") for i, d in factors)
    )


# the circle points every unimodular constant is matched on: read at the
# first, certified over all of them, to a sup error of at most _MATCH_TOL
_MATCH_POINTS = np.array(circle_samples(100, 0.05))
_MATCH_TOL = 1e-8


def _rotation(target: np.ndarray, base: np.ndarray) -> tuple[complex, float]:
    """The unimodular rho with target = rho * base at the first of the
    _MATCH_POINTS, and the sup error |target - rho * base| over all of them;
    base is a map of the circle to itself evaluated there."""
    rho = unit(complex(target[0] / base[0]))
    return rho, float(np.abs(target - rho * base).max())


def _matched_rotation(target: np.ndarray, base: np.ndarray, what: str) -> complex:
    """_rotation's rho, or VerificationFailure "{what}: sup error ..." when
    the sup error exceeds _MATCH_TOL."""
    rho, err = _rotation(target, base)
    if not err <= _MATCH_TOL:
        raise VerificationFailure(f"{what}: sup error {err:.3e}")
    return rho


def compose(outer: BlaschkeProduct, inner: BlaschkeProduct) -> BlaschkeProduct:
    """Expand outer(inner(z)) into a single Blaschke product.

    The zeros of the composition are the inner-preimages of the outer zeros:
    for each zero w of outer, the fiber inner(z) = w, all of which lies in
    the open disk.  The constant comes from _matched_rotation against
    outer(inner(z)) on the circle, which raises VerificationFailure naming a
    sup error above _MATCH_TOL; a zero within _ROOT_TOL of a matching point
    raises PoleProximity.
    """
    from .critical import fiber

    zeros: list[complex] = []
    fiber_cache: dict[complex, list[complex]] = {}
    for w in outer.zeros:
        if w not in fiber_cache:
            fiber_cache[w] = fiber(inner, w)
        zeros.extend(fiber_cache[w])

    z = _MATCH_POINTS
    base = BlaschkeProduct(1.0, tuple(zeros)).evaluate(z)
    gamma = _matched_rotation(
        outer.evaluate(inner.evaluate(z)),
        base,
        f"composition of degree {len(zeros)} misses outer(inner(z)) on the circle",
    )
    return BlaschkeProduct(gamma, tuple(zeros))


class NormalizedForm(NamedTuple):
    """normalize() result: product = post o B o pre with product(0) = 0,
    product'(0) > 0, and simple zeros.  pre is an involution (rotation 1), so
    B = post^-1 o product o pre, certified to _MATCH_TOL on the circle."""

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
    more than _CLUSTER_TOL from every entry of critical_data(B).values, then
    returns lambda * phi_alpha o B o phi_beta.  beta = 0 when possible;
    otherwise the scan takes the 16 points of each circle of radius 0.1,
    ..., 0.5 about the origin in turn, one array evaluation of B per circle,
    and keeps the first point of greatest margin, stopping after the first
    circle whose best margin exceeds 100 _CLUSTER_TOL.  When no scanned
    point clears _CLUSTER_TOL it raises SolverFailure: that is a limit of
    the scan, not of the input.

    N's constant is unit(conj prod_(a != 0) (-a)) over its zeros, so
    N'(0) > 0 (DegenerateInput when the product is 0), and lambda comes
    from _matched_rotation of phi_alpha o B o pre against N (VerificationFailure
    naming a sup error above _MATCH_TOL), and a zero within _ROOT_TOL of a
    matching point (or, for B, of its image under pre) PoleProximity.
    """
    from .critical import critical_data, fiber

    values = np.array(critical_data(B).values, dtype=complex)

    def margin(alpha):
        """Distance from each base value to the nearest critical value."""
        return np.abs(np.subtract.outer(alpha, values)).min(axis=-1, initial=math.inf)

    beta, alpha = 0j, B.evaluate(0j)
    if margin(alpha) <= _CLUSTER_TOL:
        best = -1.0
        for ring in _BASE_RINGS:
            m = margin(B.evaluate(ring))
            j = int(np.argmax(m))
            if m[j] > best:
                best, beta = m[j], complex(ring[j])
            if best > 100 * _CLUSTER_TOL:
                break
        if best <= _CLUSTER_TOL:
            raise SolverFailure("no regular base point found near the origin")
        alpha = B.evaluate(beta)

    pre = DiskAutomorphism(1.0, beta)
    zeros_n = [pre(w) for w in fiber(B, alpha)]
    # beta itself is in the fiber; snap its image to exactly 0
    zeros_n[min(range(len(zeros_n)), key=lambda i: abs(zeros_n[i]))] = 0j
    zeros_n.sort(key=lambda z: (z.real, z.imag))
    slope = math.prod(-a for a in zeros_n if a != 0)
    if slope == 0:
        raise DegenerateInput("normalized derivative vanished at 0")
    product = BlaschkeProduct(unit(slope.conjugate()), tuple(zeros_n))

    z = _MATCH_POINTS
    rho = _matched_rotation(
        DiskAutomorphism(1.0, alpha)(B.evaluate(pre(z))),
        product.evaluate(z),
        f"normalized product of degree {B.degree} misses post o B o pre on the circle",
    )
    # + 0j turns the -0.0 imaginary part of a real rho's conjugate into +0.0
    post = DiskAutomorphism(rho.conjugate() + 0j, alpha)
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


def _zeros_separated(B: BlaschkeProduct) -> bool:
    """Whether every two zeros of B lie more than _CLUSTER_TOL apart."""
    zs = np.array(B.zeros, dtype=complex)
    gaps = np.abs(zs[:, None] - zs)[np.triu_indices(len(zs), 1)]
    return bool(np.all(gaps > _CLUSTER_TOL))


def _origin_dropped(zeros: tuple[complex, ...]) -> tuple[complex, ...] | None:
    """The zeros of B/z, the z-factor test: zeros less the first of least
    modulus, or None when that one lies farther than _IDENTITY_TOL from the
    origin.  shiftop.shift_matrix of them is the compressed shift that nrange
    and the elliptical check read, and verify_generator_power asks it of the
    innermost factor."""
    i = min(range(len(zeros)), key=lambda i: abs(zeros[i]))
    if abs(zeros[i]) > _IDENTITY_TOL:
        return None
    return zeros[:i] + zeros[i + 1 :]


def is_regularized(
    B: BlaschkeProduct, tol: ToleranceConfig | None = None
) -> RegularizedCheck:
    """Check B(0) = 0 (|B(0)| at most _IDENTITY_TOL), simple zeros, and the
    critical-value ratio condition.  tol is accepted and not read.

    The ratio condition: no two distinct critical values may have a ratio that
    is a positive real number (such a pair would make distinct level sets
    collide after a radial rescaling).
    """
    from .critical import critical_data

    zero_at_origin = abs(B.evaluate(0j)) <= _IDENTITY_TOL
    simple = _zeros_separated(B)
    values = [v for v, _ in critical_data(B).distinct_values]
    violating = _positive_ratio_pairs(values)
    ok = zero_at_origin and simple and not violating
    return RegularizedCheck(ok, zero_at_origin, simple, violating)


def _positive_ratio_pairs(values: list[complex]) -> tuple[tuple[complex, complex], ...]:
    """The pairs (values[i], values[j]), i < j, in the order of a double
    loop, of values above _ROOT_TOL in modulus whose ratio r = v_i / v_j is
    positive real: Re r > 0 and |Im r| <= 1e-9 |r|, either order alike.
    All pairs are tested at once as one (V x V) array."""
    v = np.array(values, dtype=complex)
    nonzero = np.abs(v) > _ROOT_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        r = v[:, None] / v
    positive = (r.real > 0.0) & (np.abs(r.imag) <= 1e-9 * np.abs(r))
    pairs = np.argwhere(np.triu(positive & nonzero[:, None] & nonzero, 1))
    return tuple((values[i], values[j]) for i, j in pairs.tolist())
