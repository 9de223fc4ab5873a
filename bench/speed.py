"""Host speed, measured by a fixed reference task run between jobs.

The benchmark runs on shared machines whose speed drifts by a third or
more over tens of seconds, as neighbours come and go; the drift moves every
job of a pass together.  So, right before each job, the runner times a
reference task that imports nothing from interax, so no change to the
library can move it:

in-process    `reference_work`, a fixed mix of the two kinds of work interax
              does: an interpreted loop over permutation prefixes with a
              growing memo, like the sampler, and a numpy butterfly over a
              2^15 table, like the dense transforms.
dense         the same plus `large_table_work`, two butterfly steps over a
              4 MiB table, for jobs that sweep tables of 2^16 to 2^20
              entries, which outgrow the caches.
interpreter   `start_interpreter`, a bare Python start in a child process,
              for workloads whose jobs are fresh interpreters.

Each workload names the references it uses and each job the one that
resembles its work (the workload's first by default).  A job's time is
then scaled to a fixed host speed: multiplied by the reference's nominal
time over the median reference time within the reference's window around
the job.  Every time the benchmark reports is
given at the speed at which the reference takes its nominal time (near its
time on a lightly loaded 2-vCPU x86-64 cloud host), so the numbers read as
seconds on such a host.
"""

from __future__ import annotations

import bisect
import os
import random
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import numpy as np

MIN_SAMPLES = 5           # fewer samples near a job: the nearest this many are used

_TABLE = np.linspace(-1.0, 1.0, 1 << 15)
_LARGE_TABLE = np.linspace(-1.0, 1.0, 1 << 19)


def reference_work() -> float:
    """A fixed amount of interpreter and numpy work; returns a checksum."""
    rng = random.Random(7)
    memo: dict[int, float] = {}
    players = list(range(40))
    acc = 0.0
    for _ in range(40):
        rng.shuffle(players)
        mask, prev = 0, 0.0
        for p in players:
            mask |= 1 << p
            value = memo.get(mask)
            if value is None:
                value = memo[mask] = float(mask.bit_count() > 20)
            acc += value - prev
            prev = value
    return acc + _butterfly(_TABLE, range(15))


def large_table_work() -> float:
    """Two butterfly steps over a 4 MiB table, which outgrows the caches."""
    return _butterfly(_LARGE_TABLE, (18, 9))


def _butterfly(table: np.ndarray, bits) -> float:
    """Subset differences along the given bits, as in a Mobius transform."""
    for bit in bits:
        view = table.reshape(-1, 2, 1 << bit)
        table = np.concatenate((view[:, 0], view[:, 1] - view[:, 0]), axis=1).reshape(-1)
    return float(table[-1])


def run_child(argv: list[str], timeout_s: float, **popen_kwargs):
    """Run a child process to its end; returns (exit code, resource usage).

    The wait is a blocking wait4, not the polling loop subprocess uses when
    given a timeout, whose growing sleeps would round child times up by as
    much as 50 ms; a timer kills a child that runs past timeout_s.
    """
    proc = subprocess.Popen(argv, **popen_kwargs)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def start_interpreter():
    """Start and stop a bare Python interpreter."""
    code, _ = run_child([sys.executable, "-c", "pass"], 60, stdin=subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"bare interpreter exited with {code}")


PARTS = {"loop": reference_work, "large": large_table_work, "interpreter": start_interpreter}

# name -> (parts timed together, nominal seconds at the reported speed, window in seconds)
REFERENCES = {
    "in-process": (("loop",), 0.0025, 1.0),
    "dense": (("loop", "large"), 0.005, 1.0),
    "interpreter": (("interpreter",), 0.070, 3.0),
}


class HostSpeed:
    """Samples of one or more references over one run, in time order.

    References that share a part share its samples, so one probe serves
    every reference a workload scales by.
    """

    def __init__(self, *references: str):
        self.references = references or ("in-process",)
        self.parts = list(dict.fromkeys(p for r in self.references for p in REFERENCES[r][0]))
        self.times: list[float] = []     # midpoint of each probe
        self.part_s: dict[str, list[float]] = {part: [] for part in self.parts}

    @property
    def nominal_s(self) -> float:
        return REFERENCES[self.references[0]][1]

    def probe(self, count: int = 1):
        for _ in range(count):
            start = perf_counter()
            for part in self.parts:
                t0 = perf_counter()
                PARTS[part]()
                self.part_s[part].append(perf_counter() - t0)
            self.times.append(0.5 * (start + perf_counter()))

    def seconds(self, reference: str | None = None) -> list[float]:
        """Every sample of a reference (the first one by default)."""
        parts = REFERENCES[reference or self.references[0]][0]
        return [sum(s) for s in zip(*(self.part_s[p] for p in parts))]

    def scale(self, start: float, end: float, reference: str | None = None) -> float:
        """Factor that takes a time measured over [start, end] to the fixed speed."""
        reference = reference or self.references[0]
        _, nominal_s, window_s = REFERENCES[reference]
        seconds = self.seconds(reference)
        if not seconds:
            return 1.0
        lo = bisect.bisect_left(self.times, start - window_s)
        hi = bisect.bisect_right(self.times, end + window_s)
        if hi - lo < MIN_SAMPLES:
            middle = 0.5 * (start + end)
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - middle))
            near = [seconds[i] for i in nearest[:MIN_SAMPLES]]
        else:
            near = seconds[lo:hi]
        return nominal_s / statistics.median(near)

    def medians_ms(self) -> dict[str, float]:
        return {r: 1e3 * statistics.median(self.seconds(r)) if self.times else float("nan")
                for r in self.references}
