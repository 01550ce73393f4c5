"""Machine-speed calibration for runs on a shared host.

On a shared virtual machine the same code runs up to ~1.7x slower for
stretches of tens of seconds, as other tenants load the host.  Such a
stretch can cover a whole run, so no statistic taken inside the run
removes it.  Instead every timed region is bracketed by a fixed
pure-Python kernel that touches nothing of the program; its duration
says how fast the machine is running right now.  Dividing a measured
time by the kernel's slow-down factor gives the time the region would
have taken on a machine where the kernel takes ``REFERENCE_S``.

This module imports nothing from the program, so a change to the
program cannot change the kernel.
"""

from __future__ import annotations

import gc
import statistics
import time

#: The kernel's duration on the reference machine.
REFERENCE_S = 1.0e-3


def kernel_s() -> float:
    """One timed run of the kernel.

    The collector is off, so the kernel never pays for collecting the
    program's heap.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        for index in range(1500):
            table[f"r{index % 97}.{index}"] = (index * 2654435761) % 1000003
        ordered = sorted(table, key=table.__getitem__)
        "".join(ordered[:300])
        return time.perf_counter() - started
    finally:
        gc.enable()


def slowdown(runs: int = 1) -> float:
    """The machine's current slow-down against the reference machine."""
    return statistics.median(kernel_s() for _ in range(runs)) / REFERENCE_S
