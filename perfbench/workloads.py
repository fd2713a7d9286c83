"""Seeded op lists, the library calls of each op, and independent checks.

An op is the library equivalent of one or two CLI subcommands on one
product (or, for cli-demo, one CLI process).  Its inputs come from the seed
alone.  `run_op` holds exactly the timed calls; `answer_of` turns the result
into plain data and `check` judges that data with arithmetic of its own (a
numpy evaluation of the factored product), never with the routine that
produced it.  `check` raises Refused when the library declined to answer
without raising, and Wrong when the answer is rejected.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from blaschke import BlaschkeError, BlaschkeProduct, CompositionChain
from blaschke import circle, core, critical, monodromy, poncelet, shiftop

TAU = 2.0 * math.pi
TOL = core.DEFAULT_TOL
LAMBDA_SAMPLES = 720  # the CLI default for package and nrange
INVARIANT_SAMPLES = tuple(cmath.exp(1j * (0.13 + TAU * k / 8)) for k in range(8))
KIPPENHAHN_PROBES = ((1.0, 0.0, 1.0), (0.3, 0.7, 1.1), (0.0, 0.0, 1.0))

# Nominal seconds of one cycle of each op list at the commit that defined the
# benchmark; `--seconds` picks the number of cycles from them, so a faster
# program finishes the same list sooner.
CYCLE_SECONDS = {"curves": 12.5, "ladder": 8.5, "monodromy": 21.0, "cli-demo": 26.0}

CURVES_DEGREES = tuple(range(10, 25))
LADDER_DEGREES = tuple(range(8, 65, 4))
# One monodromy cycle.  Degree 6 is the lowest degree at which tracking is
# refused often (1 product in 10 to 15), so the cycle holds enough of them
# for ceiling_degree to settle.  An op takes 3-10 times longer when tracking
# succeeds than when it is refused, so the cycle keeps few of the kinds that
# are refused about half the time (degree 8, 1.2 s against 0.15 s) and leaves
# out degrees 9 to 14: at degree 9 (tracked on 6 products in 10) order()
# lists 9! elements in 4.5-6 s, and at degrees 10-14 (degree 12: 1 in 10) it
# lists 10^6 elements in 10-13 s and 220 MB before returning null.  The one
# degree-16 product stands for those refused today; 6 in 300 are tracked and
# then take 8-14 s and 250 MB the same way (perfbench/README.md).
MONODROMY_CYCLE = (
    (("tower", 3),) * 6
    + (("tower", 4),)
    + (("random", 5),) * 4
    + (("random", 6),) * 30
    + (("random", 7),) * 4
    + (("random", 8),) * 2
    + (("random", 16),)
)
DEMOS = (
    "power2",
    "power8",
    "elliptical8",
    "nonexample84",
    "deg6elliptic",
    "deg6nonelliptic",
    "chain3",
)
SUBCOMMANDS = ("analyze", "curve", "package", "nrange", "decompose", "monodromy", "invariants")
KNOWN_EXIT = {("monodromy", "nonexample84"): 3}
SEEDED_FILE_DEGREES = (6, 8, 10, 12)
SEEDED_FILE_SUBCOMMANDS = ("analyze", "nrange")
WORKLOAD_SALT = {"curves": 1, "ladder": 2, "monodromy": 3, "cli-demo": 4}


class Refused(Exception):
    """The library gave no answer without raising (e.g. an order of None)."""


class Wrong(Exception):
    """The answer failed an independent check."""


@dataclass
class Op:
    kind: str  # "random", "tower" or "demo"
    degree: int
    product: BlaschkeProduct | None = None
    levels: int = 0
    argv: tuple[str, ...] = ()
    expected_exit: int = 0
    captured: list = field(default_factory=list)  # inner_factor_general results


# ------------------------------------------------------------- op lists


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def random_product(rng: np.random.Generator, n: int) -> BlaschkeProduct:
    radius = rng.uniform(0.0, 0.8, n)
    angle = rng.uniform(0.0, TAU, n)
    gamma = cmath.exp(1j * rng.uniform(0.0, TAU))
    return BlaschkeProduct(gamma, tuple(complex(z) for z in radius * np.exp(1j * angle)))


def tower_product(rng: np.random.Generator, levels: int) -> BlaschkeProduct:
    """Expanded chain of factors gamma * z (z - a) / (1 - conj(a) z)."""
    factors = []
    for _ in range(levels):
        a = rng.uniform(0.25, 0.55) * cmath.exp(1j * rng.uniform(0.0, TAU))
        gamma = cmath.exp(1j * rng.uniform(0.0, TAU))
        factors.append(BlaschkeProduct(gamma, (0j, a)))
    return CompositionChain(tuple(factors)).expand(TOL)


def product_file_text(B: BlaschkeProduct) -> str:
    """The CLI's product file format, written without the library."""
    return json.dumps(
        {"gamma": [B.gamma.real, B.gamma.imag], "zeros": [[a.real, a.imag] for a in B.zeros]}
    )


def build_ops(workload: str, seed: int, seconds: float, files_dir=None) -> list[Op]:
    """The op list of one run; the same (workload, seed, seconds) gives the same list.

    For cli-demo the seeded product files are written into files_dir, and
    each op's argv refers to them relative to the checkout root.
    """
    rng = np.random.default_rng([seed, WORKLOAD_SALT[workload]])
    cycles = cycles_for(workload, seconds)
    ops: list[Op] = []
    if workload in ("curves", "ladder"):
        degrees = CURVES_DEGREES if workload == "curves" else LADDER_DEGREES
        for _ in range(cycles):
            ops.extend(Op("random", d, random_product(rng, d)) for d in degrees)
    elif workload == "monodromy":
        for _ in range(cycles):
            for kind, size in MONODROMY_CYCLE:
                if kind == "tower":
                    ops.append(Op("tower", 2**size, tower_product(rng, size), levels=size))
                else:
                    ops.append(Op("random", size, random_product(rng, size)))
    elif workload == "cli-demo":
        out = f"{files_dir}/out"
        files = []
        for d in SEEDED_FILE_DEGREES:
            path = f"{files_dir}/product-deg{d}.json"
            with open(path, "w") as fh:
                fh.write(product_file_text(random_product(rng, d)))
            files.append((d, path))
        for _ in range(cycles):
            for demo in DEMOS:
                for cmd in SUBCOMMANDS:
                    ops.append(
                        Op(
                            "demo",
                            0,
                            argv=(cmd, "--demo", demo, "--out", out),
                            expected_exit=KNOWN_EXIT.get((cmd, demo), 0),
                        )
                    )
            for i, (d, path) in enumerate(files):
                cmd = SEEDED_FILE_SUBCOMMANDS[i % len(SEEDED_FILE_SUBCOMMANDS)]
                ops.append(Op("random", d, argv=(cmd, "--input", path, "--out", out)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # The machine's speed drifts by 10-20% over tens of seconds; spreading
    # like ops over the whole run keeps the drift out of the order statistics.
    return [ops[i] for i in rng.permutation(len(ops))]


def group_of(op: Op) -> tuple:
    """Ops of one group are alike: same kind and degree, or same subcommand."""
    return (op.argv[0],) if op.argv else (op.kind, op.degree)


# ------------------------------------------------------------- timed calls


def run_op(workload: str, op: Op):
    """The timed library calls of one op.  Returns the raw results and the
    first BlaschkeError raised, if any (both CLI subcommands of a two-part op
    run even when the first one refuses, as two CLI processes would)."""
    B = op.product
    if workload == "curves":
        return _both(
            lambda: poncelet.package(B, LAMBDA_SAMPLES, TOL),
            lambda: _invariants(B),
        )
    if workload == "ladder":
        return _both(lambda: _analyze(B), lambda: _nrange(B))
    if workload == "monodromy":
        try:
            return _monodromy(op), None
        except BlaschkeError as exc:
            return None, exc
    raise ValueError(f"workload {workload!r} runs in CLI processes")


def _both(first, second):
    results, error = [], None
    for part in (first, second):
        try:
            results.append(part())
        except BlaschkeError as exc:
            results.append(None)
            error = error or exc
    return results, error


def _invariants(B):
    n = B.degree
    images = [circle.next_preimage(B, z, TOL) for z in INVARIANT_SAMPLES]
    identity = max(
        abs(circle.invariant_orbit(B, z, n + 1, TOL)[n] - z) for z in INVARIANT_SAMPLES
    )
    return images, identity


def _analyze(B):
    reg = core.is_regularized(B, TOL)
    cd = critical.critical_data(B, TOL)
    nf = core.normalize(B, TOL)
    cdn = critical.critical_data(nf.product, TOL)
    return reg, cd, nf, cdn


def _nrange(B):
    A = shiftop.shift_matrix(B.zeros)
    verdict = shiftop.is_elliptical_range(A, LAMBDA_SAMPLES, TOL)
    probes = [shiftop.kippenhahn_eval(A, *p) for p in KIPPENHAHN_PROBES]
    return A, verdict, probes


def _monodromy(op: Op):
    nf = core.normalize(op.product, TOL)
    N = nf.product
    mono = monodromy.monodromy_group(N, TOL)
    order = mono.group.order()
    systems = monodromy.block_systems(mono.group)
    audit = monodromy.wreath_audit(mono.group, op.levels) if op.kind == "tower" else None
    cross = monodromy.cross_validate(N, TOL)
    return N, mono, order, systems, audit, cross


# ------------------------------------------------------------- plain answers


def answer_of(workload: str, op: Op, raw) -> dict:
    """The parts of a result that the checks look at, as plain data."""
    if workload == "curves":
        pkg, inv = raw
        ans = {}
        if pkg is not None:
            ans["closures"] = [(e.skip, e.closure) for e in pkg.entries]
            ans["chords"] = [
                [(s.angle, s.chord[0], s.chord[1]) for s in e.curve.samples]
                for e in pkg.entries
            ]
        if inv is not None:
            ans["images"], ans["identity_error"] = list(inv[0]), inv[1]
        return ans
    if workload == "ladder":
        analysis, nr = raw
        ans = {}
        if analysis is not None:
            reg, cd, nf, cdn = analysis
            ans["zero_at_origin"] = reg.zero_at_origin
            ans["critical"] = (list(cd.points_in_disk), list(cd.values))
            ans["normalized"] = (
                nf.product.gamma,
                list(nf.product.zeros),
                (nf.pre.rotation, nf.pre.center),
                (nf.post.rotation, nf.post.center),
            )
            ans["normalized_critical"] = (list(cdn.points_in_disk), list(cdn.values))
        if nr is not None:
            A, verdict, probes = nr
            s = verdict.sample
            ans["range"] = (list(s.angles), list(s.support), list(s.points))
            ans["matrix_trace"] = complex(np.trace(A.entries))
            ans["probes"] = list(probes)
        return ans
    if workload == "monodromy":
        N, mono, order, systems, audit, cross = raw
        return {
            "product": (N.gamma, list(N.zeros)),
            "labels": list(mono.labels),
            "generators": [list(g.images) for g in mono.generators],
            "order": order,
            "blocks": [[list(b) for b in s.blocks] for s in systems],
            "wreath_ok": None if audit is None else audit.ok,
            "consistent": cross.consistent,
            "inner_factors": [
                (r.inner.degree, (r.inner.gamma, list(r.inner.zeros)), (r.outer.gamma, list(r.outer.zeros)))
                for r in op.captured
                if r.found
            ],
        }
    raise ValueError(workload)


# ------------------------------------------------------------- checks


def bvalue(gamma, zeros, z):
    """gamma * prod (z - a)/(1 - conj(a) z), evaluated with numpy broadcasting."""
    z = np.asarray(z, dtype=complex)[..., None]
    a = np.asarray(zeros, dtype=complex)
    return gamma * np.prod((z - a) / (1.0 - np.conj(a) * z), axis=-1)


def derivative_residual(zeros, z: complex) -> float:
    """|B'(z)| over sum_j |f_j'(z)| prod_{k != j} |f_k(z)|, from the factors."""
    a = np.asarray(zeros, dtype=complex)
    den = 1.0 - np.conj(a) * z
    f = (z - a) / den
    df = (1.0 - np.abs(a) ** 2) / den**2
    before = np.concatenate(([1.0], np.cumprod(f)[:-1]))
    after = np.concatenate((np.cumprod(f[::-1])[::-1][1:], [1.0]))
    others = before * after
    scale = float(np.sum(np.abs(df * others)))
    return abs(complex(np.sum(df * others))) / (scale + 1e-300)


def automorphism(rotation: complex, center: complex, z):
    z = np.asarray(z, dtype=complex)
    return rotation * (center - z) / (1.0 - np.conj(center) * z)


def _require(ok, message: str) -> None:
    if not ok:
        raise Wrong(message)


def check(workload: str, op: Op, ans: dict) -> None:
    if workload == "curves":
        _check_curves(op, ans)
    elif workload == "ladder":
        _check_ladder(op, ans)
    elif workload == "monodromy":
        _check_monodromy(op, ans)
    else:
        raise ValueError(workload)


def _check_curves(op: Op, ans: dict) -> None:
    B, n = op.product, op.degree
    if "closures" in ans:
        _require(len(ans["closures"]) == n // 2, "package has the wrong number of curves")
        for skip, closure in ans["closures"]:
            want = n // math.gcd(n, skip + 1)
            _require(closure == want, f"closure order {closure} for skip {skip}, want {want}")
        for samples in ans["chords"]:
            t = np.array([s[0] for s in samples])
            ends = np.array([[s[1], s[2]] for s in samples])
            lam = np.exp(1j * t)[:, None]
            _require(
                np.all(np.abs(np.abs(ends) - 1.0) <= 1e-12), "chord endpoint off the circle"
            )
            err = np.abs(bvalue(B.gamma, B.zeros, ends) - lam)
            _require(np.all(err <= 1e-10), f"chord endpoint misses its level by {err.max():.1e}")
            per_level = len(samples) // n
            starts = np.angle(ends[:, 0]).reshape(n, per_level)
            for q in range(per_level):
                level = np.sort(np.mod(starts[:, q], TAU))
                gap = min(np.diff(level).min(), TAU - level[-1] + level[0])
                _require(gap > 1e-9, "a level set has fewer than n distinct points")
    if "images" in ans:
        _require(ans["identity_error"] <= TOL.identity_tol, "g^n is not the identity")
        for z, g in zip(INVARIANT_SAMPLES, ans["images"]):
            _require(abs(abs(g) - 1.0) <= 1e-12, "next preimage off the circle")
            bz, bg = bvalue(B.gamma, B.zeros, [z, g])
            _require(abs(bg - bz) <= 1e-10, "next preimage has another value")
            _require(abs(_argument_gain(B, z, g) - TAU) <= 1e-6, "next preimage is not the next one")


def _argument_gain(B, z: complex, g: complex) -> float:
    """Increase of arg B along the counterclockwise arc from z to g."""
    t0 = cmath.phase(z)
    arc = (cmath.phase(g) - t0) % TAU
    rate = sum((1.0 + abs(a)) / (1.0 - abs(a)) for a in B.zeros)
    t = t0 + np.linspace(0.0, arc, int(math.ceil(arc * rate / 0.25)) + 2)
    phase = np.unwrap(np.angle(bvalue(B.gamma, B.zeros, np.exp(1j * t))))
    return float(phase[-1] - phase[0])


def _check_critical(gamma, zeros, points, values, what: str) -> None:
    n = len(zeros)
    _require(len(points) == n - 1, f"{what}: {len(points)} critical points, want {n - 1}")
    _require(all(abs(p) < 1.0 for p in points), f"{what}: critical point outside the disk")
    worst = max((derivative_residual(zeros, p) for p in points), default=0.0)
    _require(worst <= 1e-6, f"{what}: |B'| residual {worst:.1e} at a critical point")
    if points:
        err = np.abs(bvalue(gamma, zeros, points) - np.asarray(values))
        _require(err.max() <= 1e-10, f"{what}: critical value off by {err.max():.1e}")


def _check_ladder(op: Op, ans: dict) -> None:
    B = op.product
    if "critical" in ans:
        _require(
            ans["zero_at_origin"] == (abs(bvalue(B.gamma, B.zeros, 0j)) <= TOL.identity_tol),
            "zero_at_origin verdict is wrong",
        )
        _check_critical(B.gamma, B.zeros, *ans["critical"], "critical")
        gamma_n, zeros_n, (pre_rot, pre_c), (post_rot, post_c) = ans["normalized"]
        _check_critical(gamma_n, zeros_n, *ans["normalized_critical"], "normalized critical")
        _require(abs(bvalue(gamma_n, zeros_n, 0j)) <= 1e-12, "normalized product misses 0 -> 0")
        d0 = complex(np.prod(-np.asarray(zeros_n)[np.abs(zeros_n) > 0])) * gamma_n
        _require(d0.real > 0 and abs(d0.imag) <= 1e-9 * abs(d0), "normalized B'(0) is not positive")
        z = np.exp(1j * np.linspace(0.1, TAU, 16))
        conj = automorphism(post_rot, post_c, bvalue(B.gamma, B.zeros, automorphism(pre_rot, pre_c, z)))
        err = np.abs(conj - bvalue(gamma_n, zeros_n, z)).max()
        _require(err <= 1e-8, f"normalized product is not post o B o pre ({err:.1e})")
    if "range" in ans:
        angles, support, points = (np.asarray(x) for x in ans["range"])
        reach = (np.exp(-1j * angles)[:, None] * points[None, :]).real
        _require(
            np.all(np.abs(np.diag(reach) - support) <= 1e-9), "boundary point misses its support value"
        )
        _require(np.all(reach.max(axis=1) <= support + 1e-9), "support value below a boundary point")
        _require(np.all(np.abs(points) <= 1.0 + 1e-9), "numerical range leaves the disk")
        _require(abs(ans["matrix_trace"] - sum(B.zeros)) <= 1e-10, "model matrix has the wrong trace")
        _require(abs(ans["probes"][2] - 1.0) <= 1e-12, "Kippenhahn form at (0, 0, 1) is not 1")


def _check_monodromy(op: Op, ans: dict) -> None:
    gamma, zeros = ans["product"]
    n = len(zeros)
    labels = ans["labels"]
    _require(
        np.abs(bvalue(gamma, zeros, labels)).max() <= 1e-10 and len(set(labels)) == n,
        "branch labels are not the n zeros",
    )
    gens = ans["generators"]
    _require(all(sorted(g) == list(range(n)) for g in gens), "a generator is not a permutation")
    _require(_orbit_count(gens, n) == 1, "monodromy group is not transitive")
    order = ans["order"]
    if order is None:
        raise Refused("OrderUnknown")
    _require(order % n == 0 and math.factorial(n) % order == 0, f"group order {order} for degree {n}")
    if op.kind == "tower":
        want = 2 ** (2**op.levels - 1)
        _require(order == want, f"tower order {order}, want {want}")
        _require(ans["wreath_ok"] is True, "wreath audit failed on a tower")
    for blocks in ans["blocks"]:
        _require(_is_block_system(gens, blocks, n), "a block system is not preserved")
    _require(ans["consistent"], "cross validation disagrees with the block systems")
    z = np.exp(1j * np.linspace(0.05, TAU, 64))
    for k, (gi, zi), (go, zo) in ans["inner_factors"]:
        _require(len(zi) == k and abs(bvalue(gi, zi, 0j)) <= 1e-12, "inner factor has the wrong shape")
        err = np.abs(bvalue(go, zo, bvalue(gi, zi, z)) - bvalue(gamma, zeros, z)).max()
        _require(err <= 1e-8, f"inner factor of degree {k} re-expands with error {err:.1e}")


def _orbit_count(gens, n: int) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in gens:
        for i, j in enumerate(g):
            parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


def _is_block_system(gens, blocks, n: int) -> bool:
    where = {x: i for i, b in enumerate(blocks) for x in b}
    if sorted(where) != list(range(n)) or len({len(b) for b in blocks}) != 1:
        return False
    return all(len({where[g[x]] for x in b}) == 1 for g in gens for b in blocks)
