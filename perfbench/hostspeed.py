"""Host speed, sampled while a pass runs, to scale its wall time.

On a shared VM the speed one process gets swings by 2x between the 10th
and 90th percentile, in bursts from under a second to minutes, on every
vCPU, with no steal time reported and no hardware counters to count
instructions instead.  Raw times of one workload's 20-35 s runs then spread
by 15-40% between runs.

`Sampler` times a fixed probe that shares no code with the package every
`PERIOD_S` in a background thread.  With every thread of the process pinned
to one CPU, probe and workload run on the same vCPU, and since work done is
the time integral of speed,

    scaled = raw * mean(REFERENCE_PROBE_S / probe time)   over the pass

is the pass time at the reference speed.  The probe time is the probe
thread's own CPU time: the guest counts time the hypervisor takes from the
vCPU as running time (no steal is reported), so a slow host shows in it,
while time the probe waits for another thread of this process on the same
CPU (numpy with the GIL released, say) does not.  The probe costs about 1%
of the pass.  calibrate.py checks that scaled times follow the work done.

The benchmark is single-CPU by design: pinned, no parallel speed-up of the
package can show in its times.
"""

import os
import statistics
import threading
import time

import numpy as np

# Probe median at the fast end of a 2-vCPU Intel Xeon VM at 2.0 GHz
# (Python 3.11, numpy 2.4).
REFERENCE_PROBE_S = 0.00045
PERIOD_S = 0.05

_Q = np.linspace(0.05, 3.0, 100)


def probe():
    """Small complex numpy arrays and Python scalars, like the integrand.
    Returns the CPU time of the calling thread it took."""
    t0 = time.thread_time()
    acc = 0.0
    for i in range(25):
        w = 0.1 + 1e-4 * i
        kz = np.sqrt((w * w - _Q * _Q).astype(complex))
        r = (kz - 1.5) / (kz + 1.5)
        acc += float(np.sum((_Q * kz / (1.0 - r * r * np.exp(2j * kz))).real))
    return time.thread_time() - t0


def pin_to_one_cpu():
    """Pin every thread of this process (numpy's BLAS pool included), and
    the threads and children started after, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), {cpu})
    return cpu


class Sampler:
    """Background probe: ``with Sampler() as s: m = s.mark(); ...; s.scale(m)``."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append(probe())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mark(self):
        return len(self.samples)

    def scale(self, mark):
        """(factor, probe median, probe count) for the window since ``mark``;
        factor turns raw seconds in that window into reference seconds."""
        window = self.samples[mark:] or [probe()]
        return self.factor(window), statistics.median(window), len(window)

    @staticmethod
    def factor(window):
        """Mean reference-to-probe speed ratio over probe times ``window``."""
        return statistics.fmean(REFERENCE_PROBE_S / s for s in window)
