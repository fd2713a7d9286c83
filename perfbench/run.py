"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  With --trace 0 it measures set-up time
over several fresh worker starts, runs the seeded op list once untraced and
prints the end-to-end metrics.  With --trace 1 it runs the same op list with
the tracer installed for every other op, and prints the per-layer metrics.  The last line of stdout
is one JSON object; a table for people comes before it.  The run record
(versions, settings and one entry per op) goes to
.bench_build/perfbench/records/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("curves", "ladder", "monodromy", "cli-demo")
SETUP_STARTS = 10  # half before the run worker, half after it
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("not_wrong_frac", "ratio"),
    ("ceiling_degree", "degree"),
    ("peak_rss_mb", "MB"),
)


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def worker(args, mode: str, traced: bool, deadline: float):
    """Start a worker; returns (seconds until it was ready, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ] + (["--traced"] if traced else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        # Both reads go through the same buffered pipe: the result line may
        # arrive in one read with "ready".  The watchdog bounds them.
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            watchdog.cancel()
    if time.monotonic() >= deadline:
        raise RunFailed(f"{mode} worker ran past the time limit")
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RunFailed(f"{mode} worker failed with exit code {proc.returncode}")
    return ready, json.loads(lines[-1])


def setups(args, count: int, deadline: float) -> tuple[list[float], list[float]]:
    """Set-up times of `count` fresh worker starts, and the speed probes
    each start took right after it was ready."""
    times, probes = [], []
    for _ in range(count):
        ready, result = worker(args, "setup", False, deadline)
        times.append(ready)
        probes.append(statistics.median(result["probes"]))
    return times, probes


# ------------------------------------------------------------- metrics


def summary(records: list[dict]) -> dict:
    n = len(records)
    failed = sum(r["outcome"] != "ok" for r in records)
    wrong = sum(r["outcome"] == "wrong" for r in records)
    errors = sum(r["outcome"] == "error" for r in records)
    return {"attempted": n, "failed_frac": failed / n, "wrong_frac": wrong / n, "errors": errors, "wrong": wrong}


def tail(seconds: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(seconds)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def ceiling(records: list[dict]) -> int:
    """Highest degree d such that every random-product op of degree <= d succeeded."""
    by_degree: dict[int, bool] = {}
    for r in records:
        if r["kind"] == "random":
            by_degree[r["degree"]] = by_degree.get(r["degree"], True) and r["outcome"] == "ok"
    degrees = sorted(by_degree)
    best = degrees[0] - 1
    for d in degrees:
        if not by_degree[d]:
            break
        best = d
    return best


def end_to_end(result: dict, setups: list[float], setup_probes: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics.  Op times are scaled to the reference speed by
    the probes of the run worker, each set-up time by the probes its own
    start took (see speed.py)."""
    records = result["records"]
    op_scale = speed.scale(result["probes"])
    setup_scales = [speed.scale([p]) for p in setup_probes]
    raw = [r["seconds"] for r in records]
    times = [t * op_scale for t in raw]
    s = summary(records)
    tail_s, pct, count = tail(times)
    values = {
        "setup_s": statistics.median(t * f for t, f in zip(setups, setup_scales)),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail_s,
        "ok_frac": 1.0 - s["failed_frac"],
        "not_wrong_frac": 1.0 - s["wrong_frac"],
        "ceiling_degree": ceiling(records),
        "peak_rss_mb": result["rss_mb"],
    }
    notes = [
        f"op_tail_ms is p{pct:.1f} of {count} ops; failed_frac {s['failed_frac']:.4f}, "
        f"wrong_frac {s['wrong_frac']:.4f}; setup starts {len(setups)}",
        f"op times are scaled by {op_scale:.4f}, set-up times by "
        f"{min(setup_scales):.4f}-{max(setup_scales):.4f}; "
        f"unscaled: setup_s {statistics.median(setups):.6g}, ops_per_s {len(raw) / sum(raw):.6g}, "
        f"op_p50_ms {1e3 * statistics.median(raw):.6g}, op_tail_ms {1e3 * tail(raw)[0]:.6g}",
    ]
    return values, notes


def overhead(records: list[dict]) -> float:
    """Traced against untraced op time over matched groups: ops of the same
    kind and degree (or CLI subcommand) that ended the same way."""
    groups: dict[tuple, list[list[float]]] = {}
    for r in records:
        key = (r["argv"][0],) if "argv" in r else (r["kind"], r["degree"])
        key += (r["outcome"], r["error"])
        groups.setdefault(key, [[], []])[r["traced"]].append(r["seconds"])
    plain = traced = 0.0
    for untraced_s, traced_s in groups.values():
        if untraced_s and traced_s:
            n = len(untraced_s) + len(traced_s)
            plain += n * statistics.fmean(untraced_s)
            traced += n * statistics.fmean(traced_s)
    return traced / plain - 1.0 if plain else 0.0


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced half of the op list."""
    records, layers = result["records"], result["layers"]
    values = tracing.layer_metrics(layers["summary"], sum(r["traced"] for r in records))
    values["cli.import_ms"] = layers.get("import_ms", 0.0)
    values["cli.exit_nonzero"] = sum(r.get("exit", 0) != 0 for r in records)
    found, searches = layers["found"]
    values["decompose.inner_factor_general.found_ratio"] = found / searches if searches else 0.0
    lift = layers["lift"]
    values["circle.lift_cache.hit_ratio"] = lift[0] / sum(lift) if lift and sum(lift) else 0.0
    values["trace.overhead_frac"] = overhead(records)
    notes = []
    if lift is None:
        notes.append("circle.lift_cache.hit_ratio is absent (0): circle._lift_grid has no cache_info()")
    if "import_ms" not in layers:
        notes.append("cli.* metrics are 0: this workload starts no CLI process")
    return values, notes


# ------------------------------------------------------------- run record


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "blaschke" / "__init__.py").is_file():
        print(f"no blaschke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return subprocess.run(
            [sys.executable, str(HERE / "selftest.py")], cwd=ROOT, env=child_env()
        ).returncode
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.monotonic() + DEADLINE_S
    try:
        # compiles bytecode and warms the file cache; not a measured op
        subprocess.run(
            [sys.executable, "-c", "import blaschke.cli"], cwd=ROOT, env=child_env(),
            check=True, timeout=60,
        )
        if args.trace:
            result = worker(args, "run", True, deadline)[1]
            values, notes = per_layer(result)
            units = dict(tracing.PER_LAYER)
            starts, setup_probes = [], []
        else:
            starts, setup_probes = setups(args, SETUP_STARTS // 2, deadline)
            result = worker(args, "run", False, deadline)[1]
            more = setups(args, SETUP_STARTS - SETUP_STARTS // 2, deadline)
            starts, setup_probes = starts + more[0], setup_probes + more[1]
            values, notes = end_to_end(result, starts, setup_probes)
            units = dict(END_TO_END)
    except (RunFailed, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    s = summary(records)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        **result["meta"],
        "setup_samples_s": starts,
        "setup_probes_s": setup_probes,
        "run_probes_s": result["probes"],
        "metrics": values,
        "ops": records,
    }
    path = ROOT / ".bench_build" / "perfbench" / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))

    for name, unit in units.items():
        print(f"{args.workload:10s} {name:50s} {values[name]:>14.6g} {unit}")
    for note in notes:
        print(f"{args.workload:10s} {note}")
    print(f"{args.workload:10s} run record: {path.relative_to(ROOT)}")
    failed = s["wrong"] + s["errors"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": s["attempted"],
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
