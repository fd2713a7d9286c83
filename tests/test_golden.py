"""Demo-corpus output pinned byte for byte against recorded golden files.

For every demo and every subcommand that reads a product (analyze, curve,
package, nrange, decompose, monodromy, invariants), the stdout is stored
under tests/data/golden/ as <command>-<demo>.stdout, status.json holds each
case's exit code and stderr, and files.sha256 holds a SHA-256 digest of every
file the case writes.  Each run happens in a fresh working directory with
``--out out``, so the ``files`` paths in the reports read ``out/<name>`` on
every machine.  A refusal (a nonzero exit) is pinned like any other
outcome.

Floats are printed with 17 significant digits, so any change to the
arithmetic behind these reports shows up here, not only a change between two
runs of the same code.  When a change moves the output on purpose, regenerate
the files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why the output moved.  For every file it rewrites,
the script prints how many printed numbers changed and the largest absolute
change, so the size of the drift can be quoted with the change, and, on
their own, how many integer tokens changed and how many zeros flipped sign,
so a drift with no discrete change reads "0 integer tokens changed, 0 zero
signs flipped".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

import blaschke.cli as cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
DEMOS = (
    "power2",
    "power8",
    "elliptical8",
    "nonexample84",
    "deg6elliptic",
    "deg6nonelliptic",
    "chain3",
)
COMMANDS = (
    "analyze",
    "curve",
    "package",
    "nrange",
    "decompose",
    "monodromy",
    "invariants",
)
CASES = [(command, demo) for command in COMMANDS for demo in DEMOS]


def run_case(command: str, demo: str, workdir: Path) -> tuple[str, dict, dict[str, str]]:
    """stdout, {exit, stderr} and file digests of one subcommand run in workdir."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--demo", demo, "--out", "out"])
    finally:
        os.chdir(here)
    written = workdir / "out"
    digests = {
        f"{command}-{demo}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(written.iterdir())
    } if written.exists() else {}
    return out.getvalue(), {"exit": code, "stderr": err.getvalue()}, digests


def read_digests() -> dict[str, str]:
    rows = (GOLDEN / "files.sha256").read_text().splitlines()
    return {name: digest for digest, name in (row.split("  ") for row in rows)}


@pytest.mark.parametrize("command,demo", CASES)
def test_demo_output_matches_golden(command, demo, tmp_path):
    stdout, status, digests = run_case(command, demo, tmp_path)
    assert stdout == (GOLDEN / f"{command}-{demo}.stdout").read_text()
    recorded_status = json.loads((GOLDEN / "status.json").read_text())
    assert status == recorded_status[f"{command}-{demo}"]
    recorded = {
        name: digest
        for name, digest in read_digests().items()
        if name.startswith(f"{command}-{demo}/")
    }
    assert digests == recorded


NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def drift(old: str, new: str) -> str:
    """How far the printed numbers of new moved from old, or that the text
    around the numbers changed.  Two discrete changes are also counted on
    their own: pairs of tokens both printed with no "." and no "e"
    (indices, counts, orders) whose values differ, and zeros whose sign
    flipped.  A float that moves onto or off an integer, as -3e-16 to 0,
    is ordinary drift."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return "text other than numbers changed"
    pairs = [
        (a, b) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)) if a != b
    ]
    flips = sum(float(a) == float(b) == 0.0 for a, b in pairs)
    integers = sum(
        not re.search("[.eE]", a + b) and float(a) != float(b) for a, b in pairs
    )
    largest = max((abs(float(a) - float(b)) for a, b in pairs), default=0.0)
    return (
        f"{len(pairs)} numbers changed, largest by {largest:.2e}; "
        f"{integers} integer tokens changed, {flips} zero signs flipped"
    )


def rewrite(path: Path, text: str) -> None:
    """Write text to path, reporting the drift when the file changes."""
    old = path.read_text() if path.exists() else None
    if old == text:
        return
    path.write_text(text)
    print(f"{path.name}: " + ("new file" if old is None else drift(old, text)))


def write_golden() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    old_digests = read_digests() if (GOLDEN / "files.sha256").exists() else {}
    statuses = {}
    digests_now = {}
    for command, demo in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            stdout, status, digests = run_case(command, demo, Path(workdir))
        rewrite(GOLDEN / f"{command}-{demo}.stdout", stdout)
        statuses[f"{command}-{demo}"] = status
        digests_now.update(digests)
    moved = sorted(
        name for name in old_digests.keys() | digests_now.keys()
        if old_digests.get(name) != digests_now.get(name)
    )
    if moved:
        print(f"files.sha256: {len(moved)} digests changed: {', '.join(moved)}")
    rows = [f"{digest}  {name}" for name, digest in digests_now.items()]
    (GOLDEN / "files.sha256").write_text("\n".join(rows) + "\n")
    rewrite(GOLDEN / "status.json", json.dumps(statuses, indent=1) + "\n")


if __name__ == "__main__":
    write_golden()
