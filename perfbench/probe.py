"""Host-speed probe: a fixed pure-Python kernel, timed with ``gc`` off.

It never imports ``repro``, so its time tracks the host, not the
program.  A run that reads slow beside a slow probe points at the host.
The probe is a diagnostic only: no metric is ever scaled by it.
"""

import gc
import time

#: iterations of one burst, and bursts per probe (the median is kept)
ITERATIONS = 100_000
BURSTS = 7


def _kernel(iterations):
    acc = 0
    table = [3, 1, 4, 1, 5, 9, 2, 6]
    for index in range(iterations):
        acc = (acc * 31 + table[index & 7] + index) % 1_000_003
    return acc


def probe_ms():
    """Median wall time of one burst, in milliseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(BURSTS):
            start = time.perf_counter()
            _kernel(ITERATIONS)
            times.append((time.perf_counter() - start) * 1000.0)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]
