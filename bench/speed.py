"""Op timing that takes the host's load out of the benchmark's numbers.

The benchmark runs on a few virtual CPUs of a shared host, and other tenants
slow it down in two ways.  The host may run another guest on our virtual CPU
for a while (steal time); and while we run, tenants on the same cores and
caches slow every instruction stream, by up to a third, with load that comes
and goes over seconds to minutes.  The same pass can take 30% longer a
minute later.

Against steal, an op is timed in CPU time of the process, which a kernel with
paravirtual steal accounting (Linux guests on KVM) does not charge for time
the host spent elsewhere.  Against shared cores, a probe, a fixed pure-Python
loop with no bvsharp code in it, is timed just before the op, every
PROBE_INTERVAL_S during it (a SIGALRM handler in the main thread) and just
after it; the op's CPU time, less the probes inside it, is divided by the
slowdown the probes saw:

    at reference speed = (op CPU time - probe CPU time inside it)
                         * PROBE_REF_S / median(probe CPU times)

with the median over the probes from just before to just after the op,
widened to the last PROBE_WINDOW probes for ops too short to hold that many.
PROBE_REF_S is the loop's time on an idle reference machine (Intel Xeon,
2 vCPUs, Python 3.11), so the result reads as seconds on that machine.

Only for ops that run on the main thread alone: in a thread pool the probe
would wait for the interpreter lock, and CPU time would add up the threads.
A threaded op is timed in wall time less the steal time that its virtual
CPUs suffered meanwhile (`steal_seconds`), with no probe.
Set-up time is taken the same way: the workload process's CPU time from its
start until it is ready, over fifteen probes taken right then.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

PROBE_LOOPS = 40_000
PROBE_REF_S = 0.003
PROBE_INTERVAL_S = 0.2  # about 2% of the run goes to probing
PROBE_WINDOW = 9


def steal_seconds() -> float:
    """Steal time so far, averaged over the virtual CPUs this process may run on.

    From /proc/stat; 0 where the kernel does not report it.
    """
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    try:
        lines = Path("/proc/stat").read_text().splitlines()
    except OSError:
        return 0.0
    steal = [int(f[8]) for f in map(str.split, lines) if f and f[0] in cpus and len(f) > 8]
    return sum(steal) / len(steal) / os.sysconf("SC_CLK_TCK") if steal else 0.0


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class SpeedProbe:
    """Times ops at reference CPU speed; keeps (wall, CPU) seconds of every probe."""

    def __init__(self):
        self.samples: list = []

    def sample(self, *_signal_args):
        wall, cpu = perf_counter(), process_time()
        _spin(PROBE_LOOPS)
        self.samples.append((perf_counter() - wall, process_time() - cpu))

    def time(self, fn):
        """Run fn; return (its result, wall seconds, CPU seconds at reference speed).

        Both times leave out the probes taken while fn ran.
        """
        since = len(self.samples)
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        wall, cpu = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall, cpu = perf_counter() - wall, process_time() - cpu
            signal.signal(signal.SIGALRM, previous)
        inside = self.samples[since + 1:]
        wall -= sum(w for w, _ in inside)
        cpu -= sum(c for _, c in inside)
        self.sample()
        return result, wall, cpu / self._slowdown(min(since, len(self.samples) - PROBE_WINDOW))

    def at_reference(self, cpu: float, probes: int = 15) -> float:
        """CPU seconds spent up to now, at reference speed, from `probes` fresh probes."""
        for _ in range(probes):
            self.sample()
        return cpu / self._slowdown(len(self.samples) - probes)

    def _slowdown(self, since: int) -> float:
        return median(c for _, c in self.samples[max(0, since):]) / PROBE_REF_S
