"""Check that scaled times follow the work done: two passes read 2x one.

    python3 perfbench/calibrate.py

Run from the repository root; takes about 15 minutes.  Under the pinning
and host-speed sampling of run.py, each of 3 rounds times one pass of a
workload and then two passes back to back as one unit, and prints both
times raw and scaled, the host speed factor of each, and the ratio
double/single, raw and scaled.  Scaled ratios must stay near 2.0 at
whatever host speed each round meets, while raw ratios drift with it.
Besides the benchmark's workloads, ``large-arrays`` makes numpy calls on
2e5-element arrays, which release the GIL, so the program shares the
pinned CPU with the probe thread.

First, to show that the factor does not depend on what the program does,
it interleaves 40 cycles of half-second slices in which the main thread
holds the GIL (a Python loop), releases it (numpy on large arrays) or
sleeps, and prints the mean factor the probe read in each kind of slice;
host-speed bursts last longer than a cycle, so they fall on every kind
alike.  Run it alone: another process on the pinned CPU slows the
program without slowing the probe.
Writes ``.perfbench/calibrate.json``.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import provenance  # noqa: E402

ROUNDS = 3
BIAS_CYCLES = 40
SEED = 1
WORKLOADS = ("large-arrays", "point-default", "sweep-far", "analytic")


class LargeArrays:
    """A fixed amount of numpy work on arrays large enough to drop the GIL."""

    def __init__(self, root, seed):
        rng = np.random.default_rng(seed)
        self.z = rng.uniform(0.0, 1.0, 200_000) + 1j * rng.uniform(0.0, 1.0, 200_000)

    def run_pass(self):
        acc = 0.0
        for _ in range(150):
            acc += float(np.abs(np.exp(self.z) / (1.0 + self.z * self.z)).sum())
        return acc


def _python_loop(seconds):
    t0, x = time.perf_counter(), 0
    while time.perf_counter() - t0 < seconds:
        for i in range(1000):
            x += i * i


def _large_arrays(seconds):
    z = np.linspace(0.0, 1.0, 200_000) + 0.5j
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        np.abs(np.exp(z) / (1.0 + z * z)).sum()


SLICES = {"gil_held": _python_loop, "gil_released": _large_arrays,
          "idle": time.sleep}


def probe_bias(sampler, cycles, seconds=0.5):
    """Mean factor read during each kind of slice, interleaved."""
    samples = {name: [] for name in SLICES}
    for _ in range(cycles):
        for name, fn in SLICES.items():
            mark = sampler.mark()
            fn(seconds)
            samples[name] += sampler.samples[mark:]
    return {name: sampler.factor(window) for name, window in samples.items()}


def timed(fn, sampler, reps):
    mark = sampler.mark()
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    raw = time.perf_counter() - t0
    return raw, sampler.scale(mark)[0]


def main():
    provenance.require_source(ROOT)
    import workloads
    table = dict(workloads.WORKLOADS, **{"large-arrays": LargeArrays})

    record = {"provenance": provenance.collect(ROOT, SEED), "rounds": []}
    record["provenance"]["pinned_cpu"] = hostspeed.pin_to_one_cpu()
    with hostspeed.Sampler() as sampler:
        record["probe_bias"] = probe_bias(sampler, BIAS_CYCLES)
        print("mean factor by main-thread activity: " + ", ".join(
            f"{k} {v:.3f}" for k, v in record["probe_bias"].items()), flush=True)
        for rnd in range(ROUNDS):
            for name in WORKLOADS:
                wl = table[name](ROOT, SEED)
                raw1, f1 = timed(wl.run_pass, sampler, 1)
                raw2, f2 = timed(wl.run_pass, sampler, 2)
                row = {"workload": name, "round": rnd,
                       "single_raw_s": raw1, "single_factor": f1,
                       "double_raw_s": raw2, "double_factor": f2,
                       "raw_ratio": raw2 / raw1,
                       "scaled_ratio": raw2 * f2 / (raw1 * f1)}
                record["rounds"].append(row)
                print(f"{name:14s} round {rnd}: single {raw1:7.2f} s raw x {f1:.3f}, "
                      f"double {raw2:7.2f} s raw x {f2:.3f}; ratio raw "
                      f"{row['raw_ratio']:.3f}, scaled {row['scaled_ratio']:.3f}",
                      flush=True)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "calibrate.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
