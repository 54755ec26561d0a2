"""Host speed, measured by a probe that shares the benchmark's core.

On a shared host the core under the benchmark runs slower while other
tenants use its neighbours, and this switches within a tenth of a second
(see NOTES.md).  `Probe` pins the benchmark to one CPU and starts this file
as a second process on the same CPU at the lowest priority.  The probe
repeats a fixed pure-Python loop and records, for each repeat, when it
ended and how much CPU time it took.  The scheduler interleaves it with
the benchmark every few milliseconds, so the repeats that end inside a
timed interval ran at the speed the benchmark had during that interval.
The probe takes about 2% of the CPU and uses nothing of obro, so no
change to obro can move its figures.

Run as a script it is the probe: it loops until it receives SIGTERM and
then writes its records to stdout, one ``end cpu_seconds`` pair a line.
It also stops, silently, when the process that started it has gone.
"""

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time

# CPU seconds of one probe repeat beside a solve, typical of the host where
# the benchmark was written (Intel Xeon, 2 vCPUs of a shared host, Python
# 3.11: 1.3e-4 beside HiGHS, 1.7e-4 beside the bundled solvers); timings are
# reported in seconds of that host
REFERENCE_S = 1.4e-4
LOOP = 2000  # additions per repeat
# the host holds one speed for about a tenth of a second, so repeats this
# close to a timed interval ran at its speed too; short intervals, such as
# 5 ms solves, then see enough repeats to average over
NEAR_S = 0.05
# obro's times grow as the probe's repeat time to this power: fitted over
# 40 runs of the three workloads, the log-log slope was 1.1 to 1.8 (median
# 1.4) with correlations of 0.89 to 1.00; the probe's loop lives in
# registers and slows less than code that goes to memory (see NOTES.md)
SENSITIVITY = 1.4


class Probe:
    """Pins this process to one CPU and runs the probe beside it.

    Use as a context manager; after it exits, `scale` turns CPU seconds
    measured in given intervals into seconds of the reference host."""

    def __init__(self):
        self.ends, self.costs = [], []

    def __enter__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        out, _ = self._proc.communicate(timeout=60)
        for line in out.splitlines():
            end, cost = line.split()
            self.ends.append(float(end))
            self.costs.append(float(cost))
        if not self.costs and exc[0] is None:
            raise RuntimeError("host speed probe recorded no repeats")
        return False

    def scale(self, intervals):
        """Reference-host seconds per CPU second over ``intervals``, pairs
        of `time.monotonic` readings: the reference repeat time over the
        mean repeat time of the probe repeats that ended inside them or
        within NEAR_S of them, or of all repeats if none did, raised to
        SENSITIVITY."""
        costs, taken = [], 0  # repeats before index ``taken`` are counted
        for start, end in sorted(intervals):
            lo = max(taken, bisect.bisect_left(self.ends, start - NEAR_S))
            taken = max(taken, bisect.bisect_right(self.ends, end + NEAR_S))
            costs.extend(self.costs[lo:taken])
        return (REFERENCE_S / statistics.fmean(costs or self.costs)) ** SENSITIVITY


def _run():
    os.nice(19)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    ends, costs = [], []
    while not stop:
        if os.getppid() != parent:
            return
        start = time.thread_time()
        acc = 0
        for i in range(LOOP):
            acc += i * i
        costs.append(time.thread_time() - start)
        ends.append(time.monotonic())
    sys.stdout.write("".join(f"{e!r} {c!r}\n" for e, c in zip(ends, costs)))


if __name__ == "__main__":
    _run()
