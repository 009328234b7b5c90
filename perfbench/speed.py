"""Machine-speed probe: a fixed kernel timed between items.

The CPU speed of a shared virtual machine drifts by tens of percent within
seconds, which moves every wall-clock metric alike.  The probe repeats a
fixed mix of the work the workloads do (small Hermitian eigensolves, a
mid-size complex product and interpreter overhead) without calling the
package, so its time tracks the machine alone.  The runner probes after
every item and rescales each item's wall time by ``NOMINAL_S`` over the
median probe time within ``WINDOW_S`` of the item: the result is the
item's time at the machine's nominal speed.  Garbage the item leaves behind
is collected before each probe, outside the item's timing, so that the
probe times the machine and not the item's clean-up.  Set-up times
are rescaled by another reference, the time to import numpy
(``setup_at_nominal``).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

_rng = np.random.default_rng(20260810)
_G = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_SMALL = _G + _G.conj().T
_MID = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))

# Typical probe time between items on the reference machine (2 vCPUs at
# 2.1 GHz, OpenBLAS 0.3.31 with 1 thread, numpy 2.4.6, Python 3.11.7).
NOMINAL_S = 3.0e-3
# Typical time to import numpy in a fresh interpreter on the same machine.
NOMINAL_NUMPY_IMPORT_S = 0.08
# Probes this close to an item (seconds) estimate the machine speed during it.
WINDOW_S = 0.5


def probe_seconds() -> float:
    start = time.perf_counter()
    acc = 0.0
    for _ in range(90):
        w, v = np.linalg.eigh(_SMALL)
        acc += float(np.abs((v * w) @ v.conj().T).sum())
    acc += float(np.abs(_MID @ _MID).sum())
    return time.perf_counter() - start


def setup_at_nominal(setups: list[float], numpy_imports: list[float]) -> float:
    """The median of set-up times rescaled to nominal speed.

    Importing numpy, the first step of every set-up, is not the package's
    work, but its time tracks the speed of the interpreter that runs the
    set-up: file-system, interpreter and numeric speed alike.  Each set-up
    time is scaled by ``NOMINAL_NUMPY_IMPORT_S`` over its own numpy import
    time.  On the reference machine this left ten-seed ``setup_s`` spreads
    (IQR/median) of 0.02-0.09, against 0.12-0.23 for raw medians.
    The compute probe tracked set-up work poorly (correlation 0.3 or less
    over twelve fresh interpreters).
    """
    return statistics.median(
        setup * NOMINAL_NUMPY_IMPORT_S / numpy_s for setup, numpy_s in zip(setups, numpy_imports)
    )


def rescaled(items: list[tuple[float, float]], probes: list[tuple[float, float]]) -> list[float]:
    """Item durations at nominal speed.

    ``items`` holds (start, end) times and ``probes`` (start, duration) pairs
    in time order; the probes just before and after each item always count.
    """
    starts = [p[0] for p in probes]
    out = []
    for start, end in items:
        lo = max(0, min(bisect.bisect_left(starts, start - WINDOW_S), bisect.bisect_left(starts, start) - 1))
        hi = max(bisect.bisect_right(starts, end + WINDOW_S), bisect.bisect_right(starts, end) + 1)
        speed = statistics.median(p[1] for p in probes[lo:hi])
        out.append((end - start) * NOMINAL_S / speed)
    return out
