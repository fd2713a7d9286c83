"""One benchmark process: import blaschke, build the seeded op list, run it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|run [--traced]

It prints "ready" once blaschke is imported and the inputs exist; that is
where set-up ends.  In run mode it then runs every op, checks each result
outside the timed region, and prints one JSON line with the op records.
cli-demo ops are `python -m blaschke.cli` children, one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ".bench_build/perfbench"  # relative to the checkout root, the cwd
CHILD_TIMEOUT = 60.0
SETUP_PROBES = 5


def record(op, seconds, outcome, error, **extra) -> dict:
    return {
        "kind": op.kind,
        "degree": op.degree,
        "outcome": outcome,
        "seconds": seconds,
        "error": error,
        **extra,
    }


# ------------------------------------------------------------- library ops


def judge(workload: str, op, ans, exc, seconds: float) -> dict:
    """Record of one library op from its plain answer and its refusal, if any."""
    outcome, error = "ok", None
    if exc is not None:
        outcome, error = "refused", type(exc).__name__
    if ans is not None:
        try:
            workloads.check(workload, op, ans)
        except workloads.Refused as r:
            outcome, error = "refused", error or str(r)
        except workloads.Wrong as w:
            outcome, error = "wrong", f"check: {w}"
    return record(op, seconds, outcome, error)


def trace_plan(ops, traced: bool) -> list[bool]:
    """Which ops run traced: every other op of each group of like ops (same
    kind and degree, or same CLI subcommand), starting with the first, so
    both halves hold the same mix."""
    seen: dict = {}
    plan = []
    for op in ops:
        key = workloads.group_of(op)
        plan.append(traced and seen.get(key, 0) % 2 == 0)
        seen[key] = seen.get(key, 0) + 1
    return plan


def run_library(workload: str, ops, traced: bool) -> dict:
    """Run the op list, with the tracer installed around the ops trace_plan picks."""
    found = []
    if workload == "monodromy":
        tracing.keep_results("blaschke.decompose", "inner_factor_general", found)
    tracer = tracing.Tracer()
    lift, searches, records, probes = [0, 0], [], [], []
    for i, (op, on) in enumerate(zip(ops, trace_plan(ops, traced))):
        found.clear()
        probes.append(speed.probe())
        if on:
            tracer.op = i
            tracer.install()
            lift0 = tracing.lift_cache_counts()
        crash = None
        t0 = time.perf_counter()
        try:
            raw, exc = workloads.run_op(workload, op)
        except Exception as e:  # an untyped failure inside the library
            raw, exc, crash = None, None, e
        seconds = time.perf_counter() - t0
        if on:
            tracer.uninstall()
            if lift0 is not None:
                lift = [t + b - a for t, a, b in zip(lift, lift0, tracing.lift_cache_counts())]
            searches.extend(r.found for r in found)
        op.captured = list(found)
        if crash is not None:
            rec = record(op, seconds, "error", f"{type(crash).__name__}: {crash}")
        else:
            ans = None if raw is None else workloads.answer_of(workload, op, raw)
            rec = judge(workload, op, ans, exc, seconds)
        rec["traced"] = on
        rec["probe_s"] = probes[-1]
        records.append(rec)
    probes.append(speed.probe())
    result = {"records": records, "probes": probes}
    if traced:
        spans = tracer.dump()
        write_json(f"{WORK}/spans-{workload}.json", spans)
        result["layers"] = {
            "summary": tracing.summarize(spans),
            "lift": lift if tracing.lift_cache_counts() is not None else None,
            "found": [sum(searches), len(searches)],
        }
    return result


# ------------------------------------------------------------- CLI ops


def run_child(argv, traced: bool, index: int):
    """Run one CLI process; returns (seconds, exit code or None on timeout, stdout)."""
    if traced:
        cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
        env = dict(os.environ, PERFBENCH_SPANS=f"{WORK}/cli-spans/op{index}.json")
    else:
        cmd = [sys.executable, "-m", "blaschke.cli", *argv]
        env = os.environ
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, b""
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def in_process(argv):
    """The same command through blaschke.cli.main in this process (untimed)."""
    from blaschke import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error exits 1 in a real process
            code = 1
    return code, out.getvalue().encode()


def judge_child(op, seconds, code, stdout, reference) -> dict:
    """Record of one CLI op; reference is (exit code, stdout) of the same
    command run through blaschke.cli.main in the worker.

    blaschke.cli.main maps every typed error to exit 2, 3 or 4, so exit 1
    is an uncaught traceback: an error.  Another nonzero exit is a refusal
    when it is the one expected of this op, and an error otherwise.  Exit 0
    where a refusal was expected is a known defect fixed, and is judged
    like any other answer."""
    extra = {"argv": list(op.argv), "exit": code, "expected_exit": op.expected_exit}
    if code is None:
        return record(op, seconds, "error", "timeout", **extra)
    if code == 1:
        return record(op, seconds, "error", "exit1: uncaught error", **extra)
    if (code, stdout) != reference:
        return record(op, seconds, "wrong", "check: stdout or exit differs between passes", **extra)
    if code != 0 and code != op.expected_exit:
        return record(op, seconds, "error", f"exit{code}, expected exit{op.expected_exit}", **extra)
    if code != 0:
        return record(op, seconds, "refused", f"exit{code}", **extra)
    try:
        json.loads(stdout)
    except ValueError:
        return record(op, seconds, "wrong", "check: stdout is not JSON", **extra)
    return record(op, seconds, "ok", None, **extra)


def run_cli(ops, traced: bool) -> dict:
    """One timed pass of children, then the same commands in this process as
    the reference.  The ops trace_plan picks run the traced stand-in."""
    plan = trace_plan(ops, traced)
    runs, probes = [], []
    for i, (op, on) in enumerate(zip(ops, plan)):
        probes.append(speed.probe())
        runs.append(run_child(op.argv, on, i))
    probes.append(speed.probe())
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    records = []
    for op, on, probe, (seconds, code, out) in zip(ops, plan, probes, runs):
        rec = judge_child(op, seconds, code, out, in_process(op.argv))
        rec["traced"] = on
        rec["probe_s"] = probe
        records.append(rec)
    result = {"records": records, "rss_mb": rss, "probes": probes}
    if traced:
        summaries, imports, lift, found = [], [], None, [0, 0]
        for i in (i for i, on in enumerate(plan) if on):
            path = Path(f"{WORK}/cli-spans/op{i}.json")
            if not path.exists():
                continue
            dump = json.loads(path.read_text())
            summaries.append(tracing.summarize(dump))
            imports.append(dump["import_ms"])
            if dump["lift"] is not None:
                lift = [a + b for a, b in zip(lift or [0, 0], dump["lift"])]
            found = [a + b for a, b in zip(found, dump["found"])]
        result["layers"] = {
            "summary": tracing.merge(summaries),
            "lift": lift,
            "found": found,
            "import_ms": sum(imports) / len(imports) if imports else 0.0,
        }
    return result


# ------------------------------------------------------------- run record


def meta() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "tolerances": asdict(workloads.TOL),
    }


def write_json(path: str, data) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLE_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    files_dir = f"{WORK}/{args.workload}-inputs"
    os.makedirs(files_dir, exist_ok=True)
    os.makedirs(f"{WORK}/cli-spans", exist_ok=True)
    ops = workloads.build_ops(args.workload, args.seed, args.seconds, files_dir)
    print("ready", flush=True)
    if args.mode == "setup":
        # the machine's speed right after this set-up, for scaling it
        print(json.dumps({"probes": [speed.probe() for _ in range(SETUP_PROBES)]}))
        return 0
    if args.workload == "cli-demo":
        result = run_cli(ops, args.traced)
    else:
        result = run_library(args.workload, ops, args.traced)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["meta"] = meta()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
