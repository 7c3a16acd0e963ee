"""Host-speed calibration: scale host time to a reference host speed.

On a shared host the interpreter's speed drifts by tens of percent over
seconds to minutes (neighbouring tenants, frequency changes).  Wall time
and process CPU time drift together, so no clock avoids it, and a run's
median cannot average out drift slower than the run.  The benchmark
therefore runs a fixed calibration slice right after every scenario, and
set-up probes run slices before and after their work.  Each measured
interval is scaled by ``CAL_REF_S / mean slice time`` over the same pass
or probe (the mean, like the pass time itself, integrates short slow
phases).  A time so scaled reads as host time at the reference speed.
Work in the program does not enter the slice, so a change to the program
moves the scaled figures in the same proportion as raw host time.  The
run record keeps the raw figures and the factors too.
"""

from __future__ import annotations

import gc
import time

#: Iterations of one calibration slice (about 1.3 ms of CPython work).
CAL_ROUNDS = 6000

#: The slice's median time on the reference host: a 2-vCPU x86-64 VM
#: running CPython 3.11.  Scaled times equal raw times at that speed.
CAL_REF_S = 1.25e-3


class _Cell:
    __slots__ = ("value",)


def slice_s() -> float:
    """Time one calibration slice: dict, attribute and integer work on a
    working set small enough to stay in the first-level cache.  The
    collector is paused so the program's heap cannot enter the figure."""
    table = {}
    cell = _Cell()
    acc = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(CAL_ROUNDS):
            table[i & 255] = i
            cell.value = table.get((i * 7) & 255, 0)
            acc += cell.value & 3
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def factor(slices) -> float:
    """Scale factor for an interval whose calibration slices took *slices*
    seconds each."""
    return CAL_REF_S * len(slices) / sum(slices)
