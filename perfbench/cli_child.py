"""Stand-in for `python -m blaschke.cli` that records spans.

    PERFBENCH_SPANS=FILE python3 perfbench/cli_child.py <cli arguments>

It imports blaschke.cli, installs the tracer, calls blaschke.cli.main with
the arguments and exits with its code.  stdout and stderr pass through
unchanged; the spans, the import time, the lift-cache counts and the
inner-factor search results go to FILE.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import blaschke.cli  # noqa: E402

import_ms = 1e3 * (time.perf_counter() - t0)

import tracing  # noqa: E402


def main() -> int:
    found = []
    tracing.keep_results("blaschke.decompose", "inner_factor_general", found)
    tracer = tracing.Tracer()
    tracer.install()
    lift0 = tracing.lift_cache_counts()
    try:
        code = blaschke.cli.main(sys.argv[1:])
    finally:
        lift1 = tracing.lift_cache_counts()
        dump = tracer.dump()
        dump.update(
            import_ms=import_ms,
            lift=None if lift0 is None else [b - a for a, b in zip(lift0, lift1)],
            found=[sum(r.found for r in found), len(found)],
        )
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
