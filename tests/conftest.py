"""Shared helpers and small generators for the test suite.

Randomness is always routed through numpy Generators with fixed seeds, so the
suite is deterministic run to run.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import blaschke.monodromy as monodromy
import blaschke.poncelet as poncelet
from blaschke import BlaschkeProduct, CompositionChain
from blaschke.core import format_float
from blaschke.critical import critical_data
from blaschke.monodromy import LoopPiece, LoopSpec

TAU = 2.0 * math.pi


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_point(rng: np.random.Generator, radius: float = 0.85) -> complex:
    r = radius * math.sqrt(rng.uniform(0.0, 1.0))
    t = rng.uniform(0.0, TAU)
    return r * cmath.exp(1j * t)


def random_product(
    rng: np.random.Generator,
    degree: int,
    radius: float = 0.85,
    origin_zero: bool = False,
) -> BlaschkeProduct:
    zeros = [random_point(rng, radius) for _ in range(degree)]
    if origin_zero:
        zeros[0] = 0j
    gamma = cmath.exp(1j * rng.uniform(0.0, TAU))
    return BlaschkeProduct(gamma, tuple(zeros))


def crowded_product(rng: np.random.Generator, degree: int) -> BlaschkeProduct:
    """Zero moduli uniform on [0, 0.8), as in the benchmark, rather than
    uniform in area: the zeros crowd the origin, and the critical values
    crowd 0 (at degree 128 all lie within about 1e-14 of it, the smallest
    near 1e-70)."""
    zeros = tuple(
        rng.uniform(0.0, 0.8) * cmath.exp(1j * rng.uniform(0.0, TAU))
        for _ in range(degree)
    )
    return BlaschkeProduct(cmath.exp(1j * rng.uniform(0.0, TAU)), zeros)


def random_degree2_chain(
    rng: np.random.Generator,
    factor_count: int,
    radius: float = 0.6,
) -> CompositionChain:
    factors = tuple(
        random_product(rng, 2, radius=radius) for _ in range(factor_count)
    )
    return CompositionChain(factors)


def _pair(c: complex) -> str:
    return f"[{format_float(c.real)},{format_float(c.imag)}]"


def product_json(B: BlaschkeProduct) -> str:
    """The CLI's product file format, {"gamma":[re,im],"zeros":[[re,im],...]},
    every part to 17 significant digits as the CLI prints it: -0.0 is
    written "-0", which JSON reads as an integer."""
    zeros = ",".join(map(_pair, B.zeros))
    return f'{{"gamma":{_pair(B.gamma)},"zeros":[{zeros}]}}'


def chain_json(chain: CompositionChain) -> str:
    """The CLI's chain file format, {"factors":[product, ...]}, outermost first."""
    return f'{{"factors":[{",".join(map(product_json, chain.factors))}]}}'


def count_ellipse_calls(monkeypatch) -> list[int]:
    """Count the conic fits poncelet makes: fit_conic reaches
    circle._ellipse through the name poncelet binds, so every fit of a
    package entry passes through the wrapper set here."""
    calls = [0]
    real = poncelet._ellipse

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(poncelet, "_ellipse", counted)
    return calls


def circle_grid(count: int, offset: float = 0.0) -> list[complex]:
    return [cmath.exp(1j * (offset + TAU * k / count)) for k in range(count)]


def sup_difference(f, g, points) -> float:
    return max(abs(f(z) - g(z)) for z in points)


def continue_branch(B: BlaschkeProduct, loop: LoopSpec, start: complex) -> complex:
    """Lift the whole closed loop through the fiber point start: the outward
    leg, the circle, and the return leg, which is each outward piece
    reversed with its sweep negated; returns the endpoint.

    monodromy_group's tracker (monodromy._track) with one row over all three
    legs in one call, its steps sized by B's distinct critical values.
    monodromy_group lifts only the outward leg and the circle and builds no
    return leg, so this full closed-loop lift is an independent check of
    it.  Only the end is held to |B - gamma| <= min(1e-12, rho / 1000); a
    corrector that misses its bound raises TrackingFailure.
    """
    back = tuple(
        LoopPiece(p.end, p.start, p.center, -p.sweep) for p in reversed(loop.outward)
    )
    values = [complex(v) for v, _ in critical_data(B).distinct_values]
    legs = [(loop.target, loop.outward + loop.circle + back)]
    z = complex(start)
    end, _ = monodromy._track(B, legs, values, "closed-loop", (z,), [[z]], [[B._jet(z)[1]]])
    return complex(end[0, 0])


def halved_step_images(B: BlaschkeProduct, result) -> list[tuple[int, ...]]:
    """The generator images of a MonodromyResult, lifted again along the same
    whole closed loops with monodromy._STEP halved.  Every tracker step is
    _STEP times the distance to the nearest critical value, so this halves
    every step."""
    labels = result.labels
    images = []
    step = monodromy._STEP
    monodromy._STEP = step / 2
    try:
        for loop in result.loops:
            row = []
            for z0 in labels:
                end = continue_branch(B, loop, z0)
                dists = [abs(end - label) for label in labels]
                j = min(range(len(labels)), key=dists.__getitem__)
                assert dists[j] < 1e-8
                row.append(j)
            images.append(tuple(row))
    finally:
        monodromy._STEP = step
    return images
