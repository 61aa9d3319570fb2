"""Machine-speed probe for scaling timings on a shared host.

On a small virtual machine that shares its cores with other tenants, the
same Python code runs up to 1.6 times slower for stretches lasting from
one second to tens of seconds, in wall and CPU time alike.  A 32-second
run can fall wholly inside such a stretch, so the medians of runs made a
few minutes apart differ by more than a program change worth detecting.

The probe is a fixed piece of interpreted work (an integer loop and a
little ``Fraction`` arithmetic, the operations the program's hot paths
are made of) that does not use the program.  The benchmark runs a probe
block after every timed request and scales each request's time by
``REFERENCE_S / s``, where ``s`` is the median probe time over the
request and the ``WINDOW_S`` seconds either side of it: the result is
the time the request would have taken at the reference speed.  A
program change moves the requests and not the probe, so it shows in
full.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

# Median time of one probe() on the 2-vCPU virtual machine the benchmark
# was defined on (Python 3.11), at its usual, unslowed speed.
REFERENCE_S = 1.4e-3
PROBES_PER_BLOCK = 3
# Probe blocks this close to a request, in seconds, set its speed.  The
# slow stretches last a second or more, and one block alone is noisy.
WINDOW_S = 0.5

_FRACTIONS = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(60)]


def probe() -> int:
    acc = 0
    for i in range(16000):
        acc += (i * i) % 7
    total = Fraction(0)
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        total += a * b - a
    return acc + total.numerator


def probe_block() -> float:
    """Median seconds of PROBES_PER_BLOCK probes run back to back."""
    times = []
    for _ in range(PROBES_PER_BLOCK):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(
    intervals: Sequence[Tuple[float, float]], blocks: Sequence[Tuple[float, float]]
) -> List[float]:
    """Each (start, end) interval's length at the reference speed.

    `blocks` holds (time, probe seconds) pairs in time order, with a block
    after every interval; the median of the blocks within WINDOW_S of an
    interval sets its speed.
    """
    times = [t for t, _ in blocks]
    out = []
    for start, end in intervals:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = max(bisect.bisect_right(times, end + WINDOW_S), bisect.bisect_right(times, end) + 1)
        near = [s for _, s in blocks[lo:hi]]
        out.append((end - start) * REFERENCE_S / statistics.median(near))
    return out
