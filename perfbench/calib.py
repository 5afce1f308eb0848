"""Fixed calibration loops that measure how fast the host runs Python now.

The benchmark host is shared: other tenants slow every computation by up
to 2x, in phases that last from seconds to minutes.  A run times these
loops between its ops, and divides its op times by the loops' slowdown
against their reference times, so that a run made in a slow phase and one
made in a quiet phase report about the same seconds.

The loops are stdlib-only and fixed: they do not call overpart, so a
change to the package cannot move them.  There are two, one for each kind
of work the package's ops spend their time on, because contention slows
the two by different amounts:

- bigint: multiplies of integers of about a megabit, the size of the
  packed Kronecker products of series multiplication;
- interp: an interpreter-bound loop over small ints, a list and a dict,
  like series construction, the verifiers, the scanner and CSV/JSON emit.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

_rng = random.Random(20140807)
_BIG = (_rng.getrandbits(1_000_000), _rng.getrandbits(1_000_000))


def _bigint_loop() -> int:
    a, b = _BIG
    return (a * b) >> 1_900_000


def _interp_loop() -> int:
    table = {}
    row = [0] * 64
    total = 0
    for i in range(300_000):
        j = i & 63
        row[j] = (row[j] + i * 7) & 0xFFFF
        total += row[j] >> 3
        table[i & 2047] = (j, total & 255)
    return total + len(table)


class Probe(NamedTuple):
    bigint_s: float
    interp_s: float


# each loop's median time over 673 passes spread across half an hour of
# benchmark runs (2 vCPUs, Intel Xeon, Python 3.11.7): normalised times
# are seconds at this reference speed
REFERENCE = Probe(bigint_s=0.19, interp_s=0.13)


def probe() -> Probe:
    """Seconds one pass of each calibration loop takes now."""
    t0 = time.perf_counter()
    _bigint_loop()
    t1 = time.perf_counter()
    _interp_loop()
    return Probe(t1 - t0, time.perf_counter() - t1)


def slowdown(probes: list[Probe], bigint_share: float) -> float:
    """How many times slower than the reference the host ran the loops,
    weighting the bigint loop by bigint_share and the interpreter loop by
    the rest."""
    big = sum(p.bigint_s for p in probes) / (len(probes) * REFERENCE.bigint_s)
    interp = sum(p.interp_s for p in probes) / (len(probes) * REFERENCE.interp_s)
    return bigint_share * big + (1 - bigint_share) * interp
