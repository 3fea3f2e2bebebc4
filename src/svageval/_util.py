"""Small shared helpers."""
from __future__ import annotations

import os
from decimal import ROUND_HALF_UP, Decimal


def format_fixed(value: float, decimals: int) -> str:
    """Fixed-point string with half-away-from-zero rounding, e.g. 20.680."""
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(value).quantize(quantum, rounding=ROUND_HALF_UP))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, so ``taskset``, cpusets and SLURM are respected, and
    the machine's count otherwise."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
