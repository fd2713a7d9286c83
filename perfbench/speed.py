"""Machine-speed probe used to scale measured times to a reference speed.

The shared 2-vCPU machine the benchmark was defined on changes speed by up
to 1.6x within seconds: twenty calls of probe() took 61-113 ms from one
tenth of a second to the next within a 4-s stretch, in process CPU time as
much as in wall time, so it is not time stolen from the process.  So a short fixed probe of
scalar complex arithmetic and small numpy calls, which does not touch
blaschke, is timed before every op, after the last one, and right after
each set-up start, and the times are multiplied by the square root of
REFERENCE_S over the median probe time.  REFERENCE_S only fixes the unit:
two commits measured on one machine are scaled by the same rule.

Whether to scale, and by which power of the ratio, was measured on two sets
of ten seeds per workload and on one set of seeds run again hours later
(the "Spread" table in perfbench/README.md): the square root narrowed the
quartile spread in 27 of 32 cases and every same-seed difference, and the
full ratio did worse than the square root in 24 of 36 cases.  Raw times
and every probe stay in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0045  # the probe's usual time on the defining machine
_MATRIX = np.array(
    [[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.2, 0.3], [0.1, 0.2, 3.0, 0.4], [0.0, 0.3, 0.4, 1.5]]
)


def probe() -> float:
    """Seconds taken by a fixed piece of work (about 4.5 ms)."""
    t0 = time.perf_counter()
    z, acc = 0.3 + 0.4j, 0j
    for k in range(6000):
        a = complex(0.001 * k, 0.5)
        acc += (z - a) / (1.0 - a.conjugate() * z)
    for k in range(40):
        np.linalg.eigh(_MATRIX + 1e-3 * k)
    return time.perf_counter() - t0


def scale(probes: list[float]) -> float:
    """Factor that takes times measured next to these probes to the reference
    speed: the square root of REFERENCE_S over their median."""
    return (REFERENCE_S / statistics.median(probes)) ** 0.5
