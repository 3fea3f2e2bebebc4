"""A fixed pure-Python reference kernel that measures the machine's speed
while a timed operation runs.

On the 2-vCPU virtual machine the reference figures come from, the speed
of each CPU wanders by a factor of up to two, on time scales from a tenth
of a second to minutes, and each CPU wanders on its own. CPU time tracks wall time, so it does not help. What does
help is to sample the speed of the very CPU the operation runs on, while
it runs: one sampler process per CPU, pinned to it, wakes every
``PERIOD`` seconds and times one short burst of the kernel. The timed
operation is pinned to the same CPUs. Its time net of the bursts is then
rescaled to a machine whose bursts take ``REFERENCE_SECONDS``.

Two things keep the bursts honest. The timed operation runs at a lower
priority (``NICE``) than the samplers, so that a burst is not cut into by
the operation it measures. And the scorer does not slow down quite as much
as the kernel does: a least-squares fit of log operation time on log mean
burst time, over about 30 in-process scorings each at niceness 5 and 15,
gave slopes of 0.67 to 0.72 with a correlation of 0.94. The rescaling
therefore uses the ratio of burst times to the power ``ELASTICITY``.

The kernel solves one fixed exact assignment problem over ``Fraction``
weights: the mix of big-integer arithmetic and interpreted loops that
dominates the scorer. It imports nothing from ``svageval``, so its cost
moves only when the machine does.

Run as ``python3 calib.py <cpu>`` it is a sampler: it reads ``go``,
``stop`` and ``quit`` lines on stdin and answers each ``stop`` with a JSON
list of ``[start, seconds]`` bursts on stdout.
"""
from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# About the median burst time seen while the scorer ran on the reference
# machine (2 virtual CPUs, Python 3.11.7). Normalised times are seconds
# on that machine, net of the bursts.
REFERENCE_SECONDS = 0.011
ELASTICITY = 0.7
NICE = 10
PERIOD = 0.1
_REPEATS = 8

_N = 6
_WEIGHTS = [[Fraction((7 * i + 3 * j) % 11 + 1, 13 + i + j)
             + Fraction(1, 3 ** (i * _N + j + 1)) for j in range(_N)]
            for i in range(_N)]


def _solve(weight) -> list[int]:
    """Max-weight square assignment (Hungarian with potentials)."""
    n = len(weight)
    big = sum(sum(row) for row in weight) + 1
    cost = [[big - w for w in row] for row in weight]
    inf = big * (n + 1)
    u = [Fraction(0)] * (n + 1)
    v = [Fraction(0)] * (n + 1)
    owner = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = owner[j0]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if owner[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = [0] * n
    for j in range(1, n + 1):
        cols[owner[j] - 1] = j - 1
    return cols


_EXPECTED = _solve(_WEIGHTS)


def burst() -> float:
    """Wall time of one kernel burst."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        cols = _solve(_WEIGHTS)
    elapsed = time.perf_counter() - start
    if cols != _EXPECTED:
        raise RuntimeError("reference kernel gave a different assignment")
    return elapsed


class Samplers:
    """One sampler process per CPU; ``measure`` times an operation.

    Creating it lowers the priority of the calling process, and so of every
    process it starts later, by ``NICE``; the samplers keep the old one."""

    def __init__(self, cpus):
        self.cpus = list(cpus)
        self.procs = {cpu: subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for cpu in self.cpus}
        os.nice(NICE)

    def measure(self, cpus, op):
        """Run ``op()`` pinned to ``cpus`` with samplers on them. Returns
        ``(result, wall, normalised)``: the operation's result, its wall
        seconds, and its seconds net of the bursts, normalised."""
        cpus = [c for c in cpus if c in self.procs]
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            for cpu in cpus:
                self.procs[cpu].stdin.write("go\n")
                self.procs[cpu].stdin.flush()
            start = time.perf_counter()
            result = op()
            end = time.perf_counter()
            bursts = []
            for cpu in cpus:
                self.procs[cpu].stdin.write("stop\n")
                self.procs[cpu].stdin.flush()
            for cpu in cpus:
                line = self.procs[cpu].stdout.readline()
                if not line:
                    raise RuntimeError(f"sampler on CPU {cpu} ended")
                bursts.append([(s, d) for s, d in json.loads(line)
                               if start <= s < end])
        finally:
            os.sched_setaffinity(0, previous)
        raw = end - start
        busy = statistics.fmean(
            sum(min(s + d, end) - s for s, d in per_cpu) for per_cpu in bursts)
        samples = [d for per_cpu in bursts for s, d in per_cpu
                   if s + d <= end]
        if not samples:                 # shorter than one period
            samples = [burst()]
        speed = REFERENCE_SECONDS / statistics.fmean(samples)
        return result, raw, (raw - busy) * speed ** ELASTICITY

    def close(self):
        for proc in self.procs.values():
            try:
                proc.stdin.write("quit\n")
                proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def _serve(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    bursts: list = []
    active = False
    next_at = 0.0
    while True:
        timeout = max(0.0, next_at - time.perf_counter()) if active else None
        ready, _, _ = select.select([sys.stdin], [], [], timeout)
        if ready:
            command = sys.stdin.readline().strip()
            if command in ("", "quit"):
                return
            if command == "go":
                active, bursts, next_at = True, [], time.perf_counter()
            elif command == "stop":
                active = False
                sys.stdout.write(json.dumps(bursts) + "\n")
                sys.stdout.flush()
            continue
        start = time.perf_counter()
        bursts.append((start, burst()))
        next_at = start + PERIOD


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
