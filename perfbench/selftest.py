"""Self-test of the checks: corrupted answers must be counted as wrong.

    python3 perfbench/run.py --selftest

For one op of each kind it confirms that the honest answer passes and that
a corrupted copy is counted in wrong_frac: a chord endpoint moved by 1e-6,
a wrong tower order, a critical point moved by 1e-4, and changed CLI stdout.
It also confirms that a CLI child that exits 1 (an uncaught error) or
exits with a refusal code the op does not expect is counted in the run's
`failed`, even when the reference pass behaves the same.  Exits 0 when
every corruption is caught.
"""

from __future__ import annotations

import cmath
import sys

import numpy as np

import worker
import workloads
from run import summary


def failed_count(records) -> int:
    """The run's `failed`: wrong answers and errors."""
    s = summary(records)
    return s["wrong"] + s["errors"]


def library_case(workload: str, op, corrupt) -> tuple[float, float]:
    raw, exc = workloads.run_op(workload, op)
    op.captured = []
    honest = worker.judge(workload, op, workloads.answer_of(workload, op, raw), exc, 0.0)
    ans = workloads.answer_of(workload, op, raw)
    corrupt(ans)
    broken = worker.judge(workload, op, ans, exc, 0.0)
    return summary([honest])["wrong_frac"], summary([broken])["wrong_frac"]


def move_chord_end(ans) -> None:
    angle, p, q = ans["chords"][0][0]
    ans["chords"][0][0] = (angle, p * cmath.exp(1e-6j), q)


def double_order(ans) -> None:
    ans["order"] *= 2


def move_critical_point(ans) -> None:
    points, values = ans["critical"]
    points[0] += 1e-4


def cli_case() -> tuple[float, float]:
    op = workloads.Op("demo", 0, argv=("analyze", "--demo", "power2", "--out", f"{worker.WORK}/selftest"))
    seconds, code, out = worker.run_child(op.argv, False, 0)
    reference = worker.in_process(op.argv)
    honest = worker.judge_child(op, seconds, code, out, reference)
    broken = worker.judge_child(op, seconds, code, out.replace(b"2", b"3", 1), reference)
    return summary([honest])["wrong_frac"], summary([broken])["wrong_frac"]


def cli_exit_case(code: int) -> tuple[float, float]:
    """Both passes exit with `code` and print nothing; the op expects exit 0."""
    op = workloads.Op("demo", 0, argv=("analyze", "--demo", "power2", "--out", f"{worker.WORK}/selftest"))
    seconds, honest_code, out = worker.run_child(op.argv, False, 0)
    honest = worker.judge_child(op, seconds, honest_code, out, worker.in_process(op.argv))
    broken = worker.judge_child(op, seconds, code, b"", (code, b""))
    return failed_count([honest]), failed_count([broken])


def main() -> int:
    rng = np.random.default_rng(2024)
    cases = {
        "curves: chord endpoint moved by 1e-6": lambda: library_case(
            "curves", workloads.Op("random", 10, workloads.random_product(rng, 10)), move_chord_end
        ),
        "monodromy: wrong tower order": lambda: library_case(
            "monodromy",
            workloads.Op("tower", 8, workloads.tower_product(rng, 3), levels=3),
            double_order,
        ),
        "ladder: critical point moved by 1e-4": lambda: library_case(
            "ladder", workloads.Op("random", 8, workloads.random_product(rng, 8)), move_critical_point
        ),
        "cli-demo: stdout changed": cli_case,
        "cli-demo: child exits 1 (counted in failed)": lambda: cli_exit_case(1),
        "cli-demo: unexpected exit 4 (counted in failed)": lambda: cli_exit_case(4),
    }
    ok = True
    for name, case in cases.items():
        honest, broken = case()
        caught = honest == 0.0 and broken == 1.0
        ok &= caught
        print(f"{'caught' if caught else 'MISSED'}  {name}: honest {honest}, corrupted {broken}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
