"""The machine's current speed, from a fixed pure-Python task.

The machine these numbers come from is shared.  For tens of seconds at a
time it runs all Python code up to 1.9 times slower, and within seconds it
has shorter spikes.  A fixed pure-Python task slows by the same factor as
ecmtt does over the same window, so every timing is scaled by the time the
task took next to it, relative to CALIBRATION_REF_S.  Of the estimators
tried on the same recorded runs, this one, with the median of a program's
scaled samples, varied least between runs: the quartile spread of p50 over
ten runs was 0.06, against 0.16 for the fastest raw sample.

This module imports nothing but `time`, so a fresh interpreter can load it
before timing the import of ecmtt without loading any module ecmtt needs.
"""

import time

# The calibration task's median time on the reference machine (a 2-core
# Intel Xeon guest, CPython 3.11.7) while it runs at full speed.  It only
# sets the scale, so that timings taken at that speed read about as
# measured.
CALIBRATION_REF_S = 0.0037


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, next):
        self.value = value
        self.next = next


def _calibration_task() -> int:
    """Fixed work in plain Python, nothing from ecmtt: allocate and walk a
    linked list, fill a dict with string keys."""
    head = None
    for i in range(6000):
        head = _Cell(i, head)
    total = 0
    while head is not None:
        total += head.value
        head = head.next
    table = {}
    for i in range(6000):
        table[f"k{i}"] = i
    return total + len(table)


def probe_seconds() -> float:
    """How long the calibration task takes now."""
    t0 = time.perf_counter()
    _calibration_task()
    return time.perf_counter() - t0


def speed_scale() -> float:
    """The factor that takes a timing made now to the reference speed."""
    return CALIBRATION_REF_S / probe_seconds()
