"""Host-speed reference that calibrates the benchmark's timings.

On a shared host the speed of a process drifts with the neighbours' load.
On a shared 2-vCPU Xeon host, one churn repetition took anywhere from
1.5 s to 3.0 s within three minutes, with no change of input, and process
CPU time tracked the wall time.  So the benchmark runs a fixed reference
around every timed repetition and scales the repetition's time by
``NOMINAL_S / reference time``.  The reference uses nothing from
``repro``, so it runs the same code on every commit and cannot hide a
change in the program's own speed.

The slowdown hits kinds of code unevenly, so the reference mixes the
three kinds of work the program does: random lookups in a large Python
dict (pointer chasing), a random gather from a large numpy array (the
memory traffic of the kernels), and a loop of small numpy calls feeding a
Python hull scan (the control plane).  It runs in a helper process, so
its memory does not count in the benchmark's peak RSS.

Run as a script it serves measurements: each line read from standard
input triggers one reference run, whose seconds it prints.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

#: Reference seconds that calibrated times are scaled to (about its time
#: on an unloaded 2-vCPU host of the kind the benchmark was tuned on).
NOMINAL_S = 0.13


def _build():
    import numpy as np
    rng = np.random.default_rng(1)
    draw = random.Random(1)
    table = {key * 7919: key for key in range(1_000_000)}
    keys = [draw.randrange(1_000_000) * 7919 for _ in range(100_000)]
    array = rng.integers(0, 1 << 40, 8_000_000)
    index = rng.integers(0, array.size, 1_000_000)
    grid = np.linspace(0.0, 1.0, 65)
    probes = np.sort(rng.random(64))
    return np, table, keys, array, index, grid, probes


def _reference(np, table, keys, array, index, grid, probes) -> float:
    start = time.perf_counter()
    total = 0
    for key in keys:                    # pointer chasing in Python
        total += table[key]
    int(array[index].sum())             # random gather from 64 MB
    for step in range(1500):            # small numpy calls + a hull loop
        values = np.interp(probes, grid, grid * grid + step)
        hull: list = []
        for point in zip(probes.tolist(), values.tolist()):
            while len(hull) >= 2 and (
                    (hull[-1][0] - hull[-2][0]) * (point[1] - hull[-2][1])
                    - (hull[-1][1] - hull[-2][1]) * (point[0] - hull[-2][0])
                    <= 0):
                hull.pop()
            hull.append(point)
    return time.perf_counter() - start


def _current_cpu() -> int | None:
    """The CPU this thread last ran on (Linux), else None."""
    try:
        with open("/proc/thread-self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return int(fields[36])
    except (OSError, IndexError, ValueError):
        return None


class Reference:
    """Handle on the helper process that runs the reference.

    Each measurement first moves the helper onto the CPU the caller last
    ran on, so the reference sees the same core as the timed work.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        """Seconds of one reference run."""
        cpu = _current_cpu()
        if cpu is not None and hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(self._proc.pid, {cpu})
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        """Stop the helper and wait for it."""
        if self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.wait(timeout=60)
        self._proc.stdout.close()


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two reference runs."""
    return NOMINAL_S / ((before + after) / 2)


if __name__ == "__main__":
    data = _build()
    for _ in sys.stdin:
        print(_reference(*data), flush=True)
