"""Host speed sampling: scales CPU-bound times to a reference speed.

On a shared host the same CPU work runs at different speeds from minute
to minute.  On the 2-core reference box each core flips between a fast
and a slow state about 1.5x apart (another tenant sharing the physical
core, by the look of it), independently of the other core; a state lasts
from under a second to minutes.  Over three minutes of repeated
sampler-sweep bodies, the bodies took between 2.9 s and 4.6 s and the
quartile spread of their wall times was 0.33 of the median.  Longer runs
do not average that away, because a state can outlast a run.

So every batch body and every set-up runs under a ``Sampler``: one forked
child per core the interval uses, pinned to that core, wakes every 25 ms
and times a fixed ~0.7 ms pure-Python kernel.  The
mean kernel time says how slow those cores were *during* the interval, and
the benchmark reports

    normalized = raw wall x REFERENCE_TICK_S / (mean kernel time)

that is, the interval's wall time at the speed the cores had when the
kernel took ``REFERENCE_TICK_S``.  In a 150 s trial on the reference box
(50 ms interval) this took the sweep body's per-repeat quartile spread
from 0.16 (raw) to 0.05.  The kernel shares no code with the program, so
a change to the program moves the body and not the kernel.  The samplers
take about 3% of each core, the same share on every run of every commit.

Probes taken before and after a body instead (not during it) were tried
and rejected: when the states flip within seconds they made the spread
worse, not better.
"""

from __future__ import annotations

import os
import select
import statistics
import struct
import time

#: Kernel time on one core of the reference box (2-core Xeon, python
#: 3.11), between its fast (about 0.55 ms) and slow (0.8 ms) states.
REFERENCE_TICK_S = 0.0007
INTERVAL_S = 0.025


def _tick():
    total = 0
    for i in range(6_000):
        total += i * i % 7
    return total


def _sample(cpu, stop, out):
    """Child: tick on ``cpu`` until ``stop`` is readable; report the
    summed tick time and the count on ``out``."""
    os.sched_setaffinity(0, {cpu})
    _tick()
    total, count = 0.0, 0
    while not select.select([stop], [], [], INTERVAL_S)[0]:
        start = time.perf_counter()
        _tick()
        total += time.perf_counter() - start
        count += 1
    os.write(out, struct.pack("dq", total, count))


class Sampler:
    """``with Sampler(cpus) as s: ...`` then ``s.normalize(seconds)``."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.tick_s = None
        self.children = []

    def __enter__(self):
        for cpu in self.cpus:
            stop_r, stop_w = os.pipe()
            out_r, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # leave without running the parent's cleanup
                code = 1
                try:
                    os.close(stop_w)
                    os.close(out_r)
                    _sample(cpu, stop_r, out_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(stop_r)
            os.close(out_w)
            self.children.append((pid, stop_w, out_r))
        return self

    def __exit__(self, *exc):
        for _, stop_w, _ in self.children:
            os.write(stop_w, b"x")
            os.close(stop_w)
        means, failed = [], False
        for pid, _, out_r in self.children:
            data = os.read(out_r, 16)
            os.close(out_r)
            _, status = os.waitpid(pid, 0)
            if status or len(data) != 16:
                failed = True
                continue
            total, count = struct.unpack("dq", data)
            if count:
                means.append(total / count)
        self.children = []
        if failed and exc[0] is None:
            raise RuntimeError("a speed sampler child failed")
        self.tick_s = statistics.fmean(means) if means else REFERENCE_TICK_S
        return False

    def normalize(self, seconds):
        """``seconds`` at reference speed."""
        return seconds * REFERENCE_TICK_S / self.tick_s
