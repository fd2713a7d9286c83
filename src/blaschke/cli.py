"""Command-line front end.

Subcommands: analyze, curve, package, nrange, decompose, monodromy,
invariants, demo.  Input is a JSON product or chain file (--input) or a named
demo (--demo); every demo is a fixed literal, and no environment variable
changes a run.  All reports go to stdout as JSON; curve-like commands also
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
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# core and errors serve every subcommand; each cmd_* imports the other
# modules it uses in its body, so a process compiles and imports only what
# its subcommand runs
from .core import (
    BlaschkeProduct,
    CompositionChain,
    DiskAutomorphism,
    circle_samples,
    compose,
    format_float,
    is_regularized,
    normalize,
    _CLUSTER_TOL,
    _chain_from_json_dict,
    _origin_dropped,
    _parse_json,
    _tower_height,
)
from .errors import BlaschkeError, DegenerateInput, InputError, VerificationFailure

__all__ = ["main", "RunConfig", "demo_corpus"]

# level values whose polygons the SVG scenes draw and the tangency audit checks
SCENE_LAMBDAS = tuple(cmath.exp(1j * t) for t in (0.4, 2.5, 4.6))


# ---------------------------------------------------------------- demo corpus


def _elliptical8() -> BlaschkeProduct:
    a = 0.5
    phi_a = DiskAutomorphism(1.0, a)
    eighth_turn = DiskAutomorphism.rotation_map(cmath.exp(1j * math.pi / 4))
    aut = phi_a.compose(eighth_turn.compose(phi_a))
    power_of_aut = BlaschkeProduct(aut.rotation**8, (aut.center,) * 8)
    alpha = power_of_aut.evaluate(0j)
    return compose(DiskAutomorphism(1.0, alpha).as_blaschke(), power_of_aut)


def _nonexample84() -> BlaschkeProduct:
    b = 0.84
    return BlaschkeProduct(1.0, (0j, 0j, 0j, 0j, b + 0j, -b + 0j, b * 1j, -b * 1j))


def _deg6elliptic() -> BlaschkeProduct:
    r = math.sqrt(0.5)
    return BlaschkeProduct(1.0, (0j, 0j, r + 0j, r + 0j, -r + 0j, -r + 0j))


def _deg6nonelliptic() -> BlaschkeProduct:
    s = 0.5 ** (1.0 / 3.0)
    w = cmath.exp(2j * math.pi / 3)
    return BlaschkeProduct(1.0, (0j, 0j, 0j, s, s * w, s * w**2))


def _chain3() -> CompositionChain:
    # three quadratic factors z (z - b)/(1 - conj(b) z), outermost first
    return CompositionChain(
        (
            BlaschkeProduct(-1.0, (0j, 0.13760744476706951 + 0.26800061937351505j)),
            BlaschkeProduct(-1.0, (0j, 0.4857242782846331 + 0.08400615624448605j)),
            BlaschkeProduct(-1.0, (0j, 0.4373918087197892 - 0.004234764827409691j)),
        )
    )


# one builder per demo, so --demo NAME builds only NAME
DEMO_BUILDERS = {
    "power2": lambda: BlaschkeProduct(1.0, (0j, 0j)),
    "power8": lambda: BlaschkeProduct(1.0, (0j,) * 8),
    "elliptical8": _elliptical8,
    "nonexample84": _nonexample84,
    "deg6elliptic": _deg6elliptic,
    "deg6nonelliptic": _deg6nonelliptic,
    "chain3": _chain3,
}


def demo_corpus():
    """The named example products addressed by tests and documentation."""
    return {name: build() for name, build in DEMO_BUILDERS.items()}


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


def _load_input(args):
    chosen = [bool(args.input), bool(args.demo)]
    if sum(chosen) != 1:
        raise InputError("exactly one of --input or --demo is required")
    if args.demo:
        if args.demo not in DEMO_BUILDERS:
            choices = ", ".join(sorted(DEMO_BUILDERS))
            raise InputError(f"unknown demo {args.demo!r}; choices: {choices}")
        return DEMO_BUILDERS[args.demo]()
    path = Path(args.input)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    data = _parse_json(path.read_text())
    if isinstance(data, dict) and "factors" in data:
        return _chain_from_json_dict(data)
    return BlaschkeProduct._from_json_dict(data)


def _as_product(obj) -> BlaschkeProduct:
    if isinstance(obj, CompositionChain):
        return obj.expand()
    return obj


# ------------------------------------------------------------------ commands


def _critical_dict(B: BlaschkeProduct) -> dict:
    from .critical import critical_data

    cd = critical_data(B)
    return {
        "points": list(cd.points_in_disk),
        "values": list(cd.values),
        "distinct_values": [
            {"value": v, "multiplicity": m} for v, m in cd.distinct_values
        ],
        "distinct_count": len(cd.distinct_values),
        "nonzero_point_count": sum(
            1 for p in cd.points_in_disk if abs(p) > _CLUSTER_TOL
        ),
    }


def _normalization_dict(nf) -> dict:
    return {
        "pre_center": nf.pre.center,
        "post_rotation": nf.post.rotation,
        "post_center": nf.post.center,
    }


def cmd_analyze(obj, cfg: RunConfig) -> int:
    from .critical import check_value_bound

    B = _as_product(obj)
    report = {
        "degree": B.degree,
        "gamma": B.gamma,
        "zeros": list(B.zeros),
        "regularized": asdict(is_regularized(B)),
        "critical": _critical_dict(B),
    }
    if isinstance(obj, CompositionChain):
        report["value_bound"] = asdict(check_value_bound(obj))
    nf = normalize(B)
    report["normalized"] = {
        **_normalization_dict(nf),
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
        "residual": fit.residual,
    }
    if fit.center is not None:
        out["center"] = fit.center
    if fit.semi_axes is not None:
        out["semi_axes"] = list(fit.semi_axes)
    if fit.foci is not None:
        out["foci"] = list(fit.foci)
    return out


def cmd_curve(obj, cfg: RunConfig) -> int:
    from .circle import solve_levels
    from .poncelet import (
        curve_csv,
        package,
        scene_svg,
        tangency_audit,
        _check_skip,
    )

    B = _as_product(obj)
    # a skip that names no curve, or a degree-1 product, is refused
    # before any solve
    _check_skip(B.degree, cfg.skip)
    entry = package(B, cfg.lambda_samples).entries[cfg.skip]
    curve, fit = entry.curve, entry.fit
    level_sets = solve_levels(B, SCENE_LAMBDAS)
    files = [
        _write(cfg, f"curve_skip{cfg.skip}.csv", curve_csv(curve)),
        _write(cfg, f"curve_skip{cfg.skip}.svg", scene_svg(curve, fit, level_sets)),
    ]
    report = {
        "skip": cfg.skip,
        "curve_index": cfg.skip + 1,
        "fit": _fit_dict(fit),
        "closure_order": entry.closure,
        "files": files,
    }
    if fit.classification in ("ellipse", "point"):
        report["tangency_discrepancy"] = tangency_audit(fit, level_sets, cfg.skip)
    _emit(report)
    return 0


def cmd_package(obj, cfg: RunConfig) -> int:
    from .circle import solve_levels
    from .poncelet import curve_csv, foci_vs_zeros, package, scene_svg

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
    _emit(
        {
            "degree": B.degree,
            "curves": entries,
            "closure_counts": Counter(str(entry.closure) for entry in pkg.entries),
            "files": files,
        }
    )
    return 0


def cmd_nrange(obj, cfg: RunConfig) -> int:
    from .shiftop import boundary_csv, is_elliptical_range, kippenhahn_eval, shift_matrix

    B = _as_product(obj)
    # When the product vanishes at the origin the interesting operator is the
    # compressed shift on the model space of B(z)/z, so one origin zero is
    # dropped before building the matrix.
    rest = _origin_dropped(B.zeros)
    origin_removed = rest is not None
    zeros = rest if origin_removed else B.zeros
    if not zeros:
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
        "ellipse_residual": verdict.residual,
    }
    if verdict.is_ellipse:
        report["ellipse"] = {
            "center": verdict.center,
            "semi_axes": list(verdict.semi_axes),
            "foci": list(verdict.foci),
        }
    report["kippenhahn_probes"] = [
        {"uvw": list(p), "value": kippenhahn_eval(A, *p)} for p in probes
    ]
    report["files"] = files
    _emit(report)
    return 0


def cmd_decompose(obj, cfg: RunConfig) -> int:
    from .decompose import (
        _chain_error,
        _divisor_rows,
        elliptical_implies_decomposable_check,
        factor_any_order,
    )

    B = _as_product(obj)
    n = B.degree
    report: dict = {"degree": n}

    k = _tower_height(n)
    if k is not None and k >= 2:
        shape = (2,) * k
        try:
            chain = factor_any_order(B, shape)
        except (DegenerateInput, VerificationFailure) as exc:
            report["chain"] = {"failures": [{"shape": shape, "reason": str(exc)}]}
        else:
            report["chain"] = {
                **_chain_dict(chain),
                "degrees": shape,
                "verification_error": _chain_error(chain, B),
            }

    rows = []
    for res in _divisor_rows(B):
        row = {"k": res.k, "found": res.found, "reason": res.reason}
        if res.found:
            row["inner"] = _product_dict(res.inner)
            row["outer"] = _product_dict(res.outer)
            row["verification_error"] = res.error
        rows.append(row)
    report["divisors"] = rows

    # the check refuses a product whose B(z)/z has no model space; its rows
    # are the divisor table above
    try:
        ell = elliptical_implies_decomposable_check(B)
    except DegenerateInput:
        pass
    else:
        report["elliptical_check"] = {
            "is_ellipse": ell.verdict.is_ellipse,
            "consistent": ell.consistent,
        }
    _emit(report)
    return 0


def cmd_monodromy(obj, cfg: RunConfig) -> int:
    from .monodromy import cross_validate, wreath_audit

    B = _as_product(obj)
    nf = normalize(B)
    N = nf.product
    cross = cross_validate(N)
    mono, systems = cross.monodromy, cross.systems
    report = {
        "degree": N.degree,
        "normalization": _normalization_dict(nf),
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
    k = _tower_height(N.degree)
    if k is not None:
        audit = wreath_audit(mono.group, k)
        report["wreath_audit"] = {**asdict(audit), "ok": audit.ok}
    report["cross_validation"] = {
        "consistent": cross.consistent,
        "rows": [asdict(r) for r in cross.rows],
    }
    _emit(report)
    return 0


def cmd_invariants(obj, cfg: RunConfig) -> int:
    from .circle import invariant_orbits, verify_generator_power

    B = _as_product(obj)
    n = B.degree
    samples = list(circle_samples(8, 0.13))
    # one batched level-set solve serves g(z) and g^n(z) for every sample
    orbits = invariant_orbits(B, samples, n + 1)
    pairs = [{"z": z, "g": orbit[1]} for z, orbit in zip(samples, orbits)]
    identity_error = max(abs(orbit[n] - z) for z, orbit in zip(samples, orbits))
    report = {
        "order": n,
        "generator_samples": pairs,
        "identity_sup_error": identity_error,
    }
    if isinstance(obj, CompositionChain):
        # the check refuses, with an InputError, a chain it does not apply to
        try:
            check = verify_generator_power(obj)
        except InputError:
            pass
        else:
            report["generator_power"] = {
                "ok": check.ok,
                "power": check.power,
                "sup_error": check.sup_error,
            }
    _emit(report)
    return 0


def cmd_demo(obj, cfg: RunConfig) -> int:
    rows = []
    for name, item in demo_corpus().items():
        chain = isinstance(item, CompositionChain)
        rows.append(
            {
                "name": name,
                "kind": "chain" if chain else "product",
                "degree": item.degree,
                "definition": _chain_dict(item) if chain else _product_dict(item),
            }
        )
    _emit({"demos": rows})
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
        cfg = RunConfig(
            lambda_samples=args.lambda_samples,
            skip=args.skip,
            out_dir=Path(args.out),
        )
        obj = None if args.command == "demo" else _load_input(args)
        return DISPATCH[args.command](obj, cfg)
    except BlaschkeError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
