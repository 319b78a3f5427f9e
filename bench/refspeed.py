"""The machine's current speed, from a fixed pure-Python reference kernel.

Shared hosts change speed under the benchmark: on a 2-core x86 container
the same query took 40 ms or 72 ms, switching every few seconds as other
load came and went, while its time divided by the kernel's time, measured
just before it, stayed within about 5% of 21.  So the benchmark scales
every time it reports to a fixed machine speed: seconds measured *
REFERENCE_S / the mean of the kernel's times just before and just after
them.  The kernel (tuple keys, dict probes, small-int arithmetic) uses
nothing from symre, so no change to the engine moves it.

This module imports only ``gc`` and ``time``, so that the fresh processes
timed for ``setup_s`` can use it without importing anything symre needs.
"""

import gc
import time

REFERENCE_S = 50e-6  # the kernel's time at the reference speed (that container, fast)
ROUNDS = 300
_TABLE = {(i % 7, i % 11, i % 13): i for i in range(1001)}


def _kernel(rounds: int) -> int:
    get = _TABLE.get
    x = 0
    for i in range(rounds):
        x = get((i % 7, x % 11, i % 13), x) + 1
    return x


def reference_time() -> float:
    """The kernel's time now: the least of three runs, with the collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel(ROUNDS)
            best = min(best, time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """Factor taking seconds measured between two kernel times to the
    reference speed."""
    return REFERENCE_S * 2 / (before + after)
