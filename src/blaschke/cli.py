"""Command-line front end.

Subcommands: analyze, curve, package, nrange, decompose, monodromy,
invariants, demo.  Input is a JSON product or chain file (--input) or a named
demo (--demo).  All reports go to stdout as JSON; curve-like commands also
write CSV and SVG files into --out.  Exit codes: 0 success, 2 bad input,
3 solver failure, 4 verification failure; each error class in errors.py
carries its code and its stderr prefix.

Output is byte-identical across runs: no timestamps, no unordered
iteration, floats always printed with 17 significant digits, complex numbers
as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    BlaschkeProduct,
    CompositionChain,
    DEFAULT_TOL,
    DiskAutomorphism,
    circle_samples,
    compose,
    format_float,
    is_regularized,
    normalize,
)
from .circle import _orbits, solve_levels, verify_generator_power
from .critical import check_value_bound, critical_data
from .decompose import chain_2n, elliptical_implies_decomposable_check, inner_factor_general
from .errors import BlaschkeError, InputError
from .monodromy import cross_validate, wreath_audit
from .poncelet import (
    closure_order,
    curve_csv,
    envelope,
    fit_conic,
    foci_vs_zeros,
    package,
    scene_svg,
    tangency_audit,
)
from .shiftop import boundary_csv, is_elliptical_range, kippenhahn_eval, shift_matrix

__all__ = ["main", "RunConfig", "demo_corpus"]

DEFAULT_SEED = 0xB1A5
# level values whose polygons the SVG scenes draw and the tangency audit checks
SCENE_LAMBDAS = tuple(cmath.exp(1j * t) for t in (0.4, 2.5, 4.6))


# ---------------------------------------------------------------- demo corpus


def demo_corpus(seed: int = DEFAULT_SEED):
    """The named example products addressed by tests and documentation."""
    a = 0.5
    phi_a = DiskAutomorphism(1.0, a)
    eighth_turn = DiskAutomorphism.rotation_map(cmath.exp(1j * math.pi / 4))
    aut = phi_a.compose(eighth_turn.compose(phi_a))
    power_of_aut = BlaschkeProduct(aut.rotation**8, (aut.center,) * 8)
    alpha = power_of_aut.evaluate(0j)
    elliptical8 = compose(
        DiskAutomorphism(1.0, alpha).as_blaschke(), power_of_aut
    )

    b = 0.84
    nonexample84 = BlaschkeProduct(
        1.0, (0j, 0j, 0j, 0j, b + 0j, -b + 0j, b * 1j, -b * 1j)
    )

    r = math.sqrt(0.5)
    deg6elliptic = BlaschkeProduct(1.0, (0j, 0j, r + 0j, r + 0j, -r + 0j, -r + 0j))
    s = 0.5 ** (1.0 / 3.0)
    w = cmath.exp(2j * math.pi / 3)
    deg6nonelliptic = BlaschkeProduct(1.0, (0j, 0j, 0j, s, s * w, s * w**2))

    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(3):
        radius = rng.uniform(0.25, 0.55)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        factors.append(
            BlaschkeProduct(-1.0, (0j, radius * cmath.exp(1j * angle)))
        )
    chain3 = CompositionChain(tuple(factors))

    return {
        "power2": BlaschkeProduct(1.0, (0j, 0j)),
        "power8": BlaschkeProduct(1.0, (0j,) * 8),
        "elliptical8": elliptical8,
        "nonexample84": nonexample84,
        "deg6elliptic": deg6elliptic,
        "deg6nonelliptic": deg6nonelliptic,
        "chain3": chain3,
    }


# ------------------------------------------------------------- JSON emission


def _render(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f'{inner}"{k}": {_render(v, indent + 1)}' for k, v in value.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        flat = all(isinstance(v, (int, float, complex, str, bool)) for v in value)
        if flat and len(value) <= 8:
            return "[" + ", ".join(_render(v) for v in value) + "]"
        rows = [f"{inner}{_render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, complex):
        return f"[{format_float(value.real)}, {format_float(value.imag)}]"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return format_float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value)!r}")


def _emit(report: dict) -> None:
    sys.stdout.write(_render(report) + "\n")


def _product_dict(B: BlaschkeProduct) -> dict:
    return {"gamma": B.gamma, "zeros": list(B.zeros)}


def _chain_dict(chain: CompositionChain) -> dict:
    return {"factors": [_product_dict(f) for f in chain.factors]}


# ------------------------------------------------------------- input loading


@dataclass(frozen=True)
class RunConfig:
    lambda_samples: int
    skip: int
    out_dir: Path
    seed: int


def _load_input(args, seed: int):
    chosen = [bool(args.input), bool(args.demo)]
    if sum(chosen) != 1:
        raise InputError("exactly one of --input or --demo is required")
    if args.demo:
        corpus = demo_corpus(seed)
        if args.demo not in corpus:
            raise InputError(
                f"unknown demo {args.demo!r}; choices: {', '.join(sorted(corpus))}"
            )
        return corpus[args.demo]
    path = Path(args.input)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    text = path.read_text()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise InputError("input JSON must be an object")
    if "factors" in data:
        return CompositionChain.from_json(text)
    return BlaschkeProduct.from_json(text)


def _as_product(obj) -> BlaschkeProduct:
    if isinstance(obj, CompositionChain):
        return obj.expand()
    return obj


# ------------------------------------------------------------------ commands


def _critical_dict(B: BlaschkeProduct) -> dict:
    cd = critical_data(B)
    return {
        "points": list(cd.points_in_disk),
        "values": list(cd.values),
        "distinct_values": [
            {"value": v, "multiplicity": m} for v, m in cd.distinct_values
        ],
        "distinct_count": len(cd.distinct_values),
        "nonzero_point_count": sum(
            1 for p in cd.points_in_disk if abs(p) > DEFAULT_TOL.cluster_tol
        ),
    }


def cmd_analyze(obj, cfg: RunConfig) -> int:
    B = _as_product(obj)
    reg = is_regularized(B)
    report = {
        "degree": B.degree,
        "gamma": B.gamma,
        "zeros": list(B.zeros),
        "regularized": {
            "ok": reg.ok,
            "zero_at_origin": reg.zero_at_origin,
            "simple_zeros": reg.simple_zeros,
            "violating_pairs": [list(p) for p in reg.violating_pairs],
        },
        "critical": _critical_dict(B),
    }
    if isinstance(obj, CompositionChain):
        bound = check_value_bound(obj)
        report["value_bound"] = {
            "ok": bound.ok,
            "distinct_count": bound.distinct_count,
            "bound": bound.bound,
            "factor_degrees": list(bound.factor_degrees),
        }
    nf = normalize(B)
    report["normalized"] = {
        "pre_center": nf.pre.center,
        "post_rotation": nf.post.rotation,
        "post_center": nf.post.center,
        "zeros": list(nf.product.zeros),
        "critical": _critical_dict(nf.product),
    }
    _emit(report)
    return 0


def _write(cfg: RunConfig, name: str, text: str) -> str:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / name
    path.write_text(text)
    return str(path)


def _fit_dict(fit) -> dict:
    out = {
        "classification": fit.classification,
        "max_residual": fit.max_residual,
        "coefficients": list(fit.coefficients),
    }
    if fit.center is not None:
        out["center"] = fit.center
    if fit.semi_axes is not None:
        out["semi_axes"] = list(fit.semi_axes)
    if fit.foci is not None:
        out["foci"] = list(fit.foci)
    return out


def cmd_curve(obj, cfg: RunConfig) -> int:
    B = _as_product(obj)
    curve = envelope(B, cfg.skip, cfg.lambda_samples)
    fit = fit_conic(curve.points)
    level_sets = solve_levels(B, SCENE_LAMBDAS)
    files = [
        _write(cfg, f"curve_skip{cfg.skip}.csv", curve_csv(curve)),
        _write(cfg, f"curve_skip{cfg.skip}.svg", scene_svg(curve, fit, level_sets)),
    ]
    report = {
        "skip": cfg.skip,
        "curve_index": cfg.skip + 1,
        "fit": _fit_dict(fit),
        "closure_order": closure_order(B, cfg.skip),
        "files": files,
    }
    if fit.classification in ("ellipse", "point"):
        report["tangency_discrepancy"] = tangency_audit(fit, level_sets, cfg.skip)
    _emit(report)
    return 0


def cmd_package(obj, cfg: RunConfig) -> int:
    B = _as_product(obj)
    pkg = package(B, cfg.lambda_samples)
    level_sets = solve_levels(B, SCENE_LAMBDAS)
    entries = []
    files = []
    for entry in pkg.entries:
        row = {
            "index": entry.index,
            "skip": entry.skip,
            "fit": _fit_dict(entry.fit),
            "closure_order": entry.closure,
            "diameter": entry.curve.diameter(),
        }
        if entry.fit.classification in ("ellipse", "point"):
            match = foci_vs_zeros(entry.fit, B)
            row["foci_match"] = {
                "zeros": list(match.matched_zeros),
                "distances": list(match.distances),
            }
        entries.append(row)
        files.append(
            _write(cfg, f"package_k{entry.index}.csv", curve_csv(entry.curve))
        )
        files.append(
            _write(
                cfg,
                f"package_k{entry.index}.svg",
                scene_svg(entry.curve, entry.fit, level_sets),
            )
        )
    closure_counts: dict[str, int] = {}
    for entry in pkg.entries:
        key = str(entry.closure)
        closure_counts[key] = closure_counts.get(key, 0) + 1
    _emit(
        {
            "degree": B.degree,
            "curves": entries,
            "closure_counts": closure_counts,
            "files": files,
        }
    )
    return 0


def cmd_nrange(obj, cfg: RunConfig) -> int:
    B = _as_product(obj)
    # When the product vanishes at the origin the interesting operator is the
    # compressed shift on the model space of B(z)/z, so one origin zero is
    # dropped before building the matrix.
    zeros = list(B.zeros)
    origin_removed = False
    for i, z in enumerate(zeros):
        if abs(z) <= DEFAULT_TOL.identity_tol:
            del zeros[i]
            origin_removed = True
            break
    if origin_removed and not zeros:
        raise InputError(
            "nrange needs degree at least 2 when B(0) = 0: "
            "the model space of B(z)/z is empty"
        )
    A = shift_matrix(zeros)
    verdict = is_elliptical_range(A, cfg.lambda_samples)
    files = [_write(cfg, "nrange.csv", boundary_csv(verdict.sample))]
    probes = [(1.0, 0.0, 1.0), (0.3, 0.7, 1.1), (0.0, 0.0, 1.0)]
    report = {
        "degree": B.degree,
        "origin_zero_removed": origin_removed,
        "size": A.size,
        "is_ellipse": verdict.is_ellipse,
        "support_mismatch": verdict.support_mismatch,
        "fit": _fit_dict(verdict.fit),
        "kippenhahn_probes": [
            {"uvw": list(p), "value": kippenhahn_eval(A, *p)} for p in probes
        ],
        "files": files,
    }
    _emit(report)
    return 0


def cmd_decompose(obj, cfg: RunConfig) -> int:
    B = _as_product(obj)
    n = B.degree
    report: dict = {"degree": n}

    k = n.bit_length() - 1
    if n == 2**k and n >= 4:
        rep = chain_2n(B)
        if rep.found:
            record = rep.chains[0]
            report["chain"] = {
                "factors": [_product_dict(f) for f in record.chain.factors],
                "degrees": list(record.factor_degrees),
                "verification_error": record.verification_error,
            }
        else:
            report["chain"] = {
                "failures": [
                    {"shape": list(f.shape), "reason": f.reason}
                    for f in rep.failures
                ]
            }

    rows = []
    for divisor in range(2, n):
        if n % divisor:
            continue
        res = inner_factor_general(B, divisor)
        row = {"k": divisor, "found": res.found, "reason": res.reason}
        if res.found:
            row["inner"] = _product_dict(res.inner)
            row["outer"] = _product_dict(res.outer)
            row["verification_error"] = res.error
        rows.append(row)
    report["divisors"] = rows

    # the check reads the compressed shift on the model space of B(z)/z,
    # which is empty at degree 1
    if n >= 2 and any(abs(z) <= DEFAULT_TOL.identity_tol for z in B.zeros):
        ell = elliptical_implies_decomposable_check(B)
        report["elliptical_check"] = {
            "is_ellipse": ell.verdict.is_ellipse,
            "consistent": ell.consistent,
            "rows": [
                {"k": r.k, "found": r.found, "reason": r.reason} for r in ell.rows
            ],
        }
    _emit(report)
    return 0


def cmd_monodromy(obj, cfg: RunConfig) -> int:
    B = _as_product(obj)
    nf = normalize(B)
    N = nf.product
    cross = cross_validate(N)
    mono, systems = cross.monodromy, cross.systems
    report = {
        "degree": N.degree,
        "normalization": {
            "pre_center": nf.pre.center,
            "post_rotation": nf.post.rotation,
            "post_center": nf.post.center,
        },
        "labels": list(mono.labels),
        "critical_values": [loop.target for loop in mono.loops],
        "generators": [list(g.images) for g in mono.generators],
        "generator_cycle_types": [list(g.cycle_type()) for g in mono.generators],
        "order": mono.group.order(),
        "abelian": mono.group.is_abelian(),
        "transitive": mono.group.is_transitive(),
        "block_systems": [
            {"block_size": s.block_size, "blocks": [list(b) for b in s.blocks]}
            for s in systems
        ],
    }
    n = N.degree
    k = n.bit_length() - 1
    if n == 2**k and n >= 2:
        audit = wreath_audit(mono.group, k)
        report["wreath_audit"] = {
            "levels": audit.levels,
            "order": audit.order,
            "expected_order": audit.expected_order,
            "order_ok": audit.order_ok,
            "two_group_ok": audit.two_group_ok,
            "nested_sizes": list(audit.nested_sizes),
            "nested_ok": audit.nested_ok,
            "ok": audit.ok,
        }
    report["cross_validation"] = {
        "consistent": cross.consistent,
        "rows": [
            {
                "k": r.k,
                "block_system": r.block_system,
                "factor_found": r.factor_found,
            }
            for r in cross.rows
        ],
    }
    _emit(report)
    return 0


def cmd_invariants(obj, cfg: RunConfig) -> int:
    B = _as_product(obj)
    n = B.degree
    samples = list(circle_samples(8, 0.13))
    # one batched level-set solve serves g(z) and g^n(z) for every sample
    orbits = _orbits(B, samples, n + 1)
    pairs = [{"z": z, "g": orbit[1]} for z, orbit in zip(samples, orbits)]
    identity_error = max(abs(orbit[n] - z) for z, orbit in zip(samples, orbits))
    report = {
        "order": n,
        "generator_samples": pairs,
        "identity_sup_error": identity_error,
    }
    if (
        isinstance(obj, CompositionChain)
        and all(f.degree == 2 for f in obj.factors)
        and min(abs(z) for z in obj.factors[-1].zeros) <= 1e-9
    ):
        check = verify_generator_power(obj)
        report["generator_power"] = {
            "ok": check.ok,
            "power": check.power,
            "sup_error": check.sup_error,
        }
    _emit(report)
    return 0


def cmd_demo(obj, cfg: RunConfig) -> int:
    corpus = demo_corpus(cfg.seed)
    rows = []
    for name, item in corpus.items():
        if isinstance(item, CompositionChain):
            rows.append(
                {
                    "name": name,
                    "kind": "chain",
                    "degree": item.degree,
                    "definition": _chain_dict(item),
                }
            )
        else:
            rows.append(
                {
                    "name": name,
                    "kind": "product",
                    "degree": item.degree,
                    "definition": _product_dict(item),
                }
            )
    _emit({"demos": rows, "seed": cfg.seed})
    return 0


DISPATCH = {
    "analyze": cmd_analyze,
    "curve": cmd_curve,
    "package": cmd_package,
    "nrange": cmd_nrange,
    "decompose": cmd_decompose,
    "monodromy": cmd_monodromy,
    "invariants": cmd_invariants,
    "demo": cmd_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blaschke",
        description="Numerical toolkit for finite Blaschke products",
    )
    parser.add_argument("command", choices=sorted(DISPATCH))
    parser.add_argument("--input", help="JSON product or chain file")
    parser.add_argument("--demo", help="named demo product")
    parser.add_argument(
        "--lambda-samples",
        type=int,
        default=720,
        help="sample count for curve / boundary sweeps",
    )
    parser.add_argument("--skip", type=int, default=0, help="chord skip for curve")
    parser.add_argument("--out", default=".", help="output directory for files")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        seed = int(os.environ.get("BLASCHKE_SEED", str(DEFAULT_SEED)), 0)
        cfg = RunConfig(
            lambda_samples=args.lambda_samples,
            skip=args.skip,
            out_dir=Path(args.out),
            seed=seed,
        )
        if args.command == "demo":
            obj = None
        else:
            obj = _load_input(args, seed)
        return DISPATCH[args.command](obj, cfg)
    except json.JSONDecodeError as exc:
        print(f"input parse error: {exc}", file=sys.stderr)
        return 2
    except BlaschkeError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
