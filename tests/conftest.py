"""Shared fixtures and small generators for the test suite.

Randomness is always routed through numpy Generators with fixed seeds, so the
suite is deterministic run to run.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

import blaschke.monodromy as monodromy
from blaschke import BlaschkeProduct, CompositionChain, ToleranceConfig
from blaschke.monodromy import continue_branch

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


def circle_grid(count: int, offset: float = 0.0) -> list[complex]:
    return [cmath.exp(1j * (offset + TAU * k / count)) for k in range(count)]


def sup_difference(f, g, points) -> float:
    return max(abs(f(z) - g(z)) for z in points)


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


@pytest.fixture
def tol() -> ToleranceConfig:
    return ToleranceConfig()
