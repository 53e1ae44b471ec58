"""Benchmark of the steady non-equilibrium pressure and its toolkit.

    python3 perfbench/run.py --workload point-default --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout (the run refuses to start without it).  Workloads are listed
in BENCHMARK.json and described in perfbench/workloads.py.

A run is a closed loop with one caller: passes of the workload run back to
back until ``--seconds`` have passed (at least one pass), each pass checked
against its oracle outside the timed region.  With ``--trace 0`` the last
stdout line reports the end-to-end metrics, their times scaled to a
reference host speed sampled during each pass (hostspeed.py; the raw
medians are printed next to them and kept in the result file); with
``--trace 1`` one untraced pass is followed by one traced pass, and the
line reports the per-layer metrics of the traced pass and the raw wall
time of the untraced one.  Every run writes a result file with its
provenance to ``.perfbench/`` (and the traced spans next to it).
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import provenance  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("point-default", "sweep-far", "analytic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(args):
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload,
           str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_passes(wl, seconds, tracer=None, sampler=None):
    """Closed loop of at least one pass.  Returns the per-pass wall times,
    the per-operation checks and, with a sampler, the per-pass host speed
    (scale factor, probe median, probe count)."""
    walls, checks, speeds = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        mark = sampler.mark() if sampler else 0
        t0 = time.perf_counter()
        out = wl.run_pass()
        walls.append(time.perf_counter() - t0)
        if sampler:
            speeds.append(sampler.scale(mark))
        if tracer is not None:
            tracer.op += 1      # check-time spans (oracles) get their own op
        checks += wl.check(out)
    return walls, checks, speeds


def _worst(values):
    finite = [v for v in values if math.isfinite(v)]
    return max(finite) if finite else 1e300


def main(argv=None):
    args = parse_args(argv)
    try:
        provenance.require_source(ROOT)
    except provenance.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import workloads
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance.collect(ROOT, args.seed)}
    record["provenance"]["pinned_cpu"] = hostspeed.pin_to_one_cpu()
    with hostspeed.Sampler() as sampler:
        if args.trace:
            from tracing import Tracer
            wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
            walls, checks, speeds = run_passes(wl, 0.0, sampler=sampler)
            tracer = Tracer()
            tracer.install()
            try:
                traced, more, traced_speeds = run_passes(wl, 0.0, tracer, sampler)
            finally:
                tracer.uninstall()
            checks += more
            speeds += traced_speeds
            record["pass_wall_s"] = walls + traced
        else:
            mark = sampler.mark()
            setup_times = measure_setup(args)
            setup_speed = sampler.scale(mark)
            wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
            walls, checks, speeds = run_passes(wl, args.seconds, sampler=sampler)
            record.update(setup_s_samples=setup_times, setup_host_speed=setup_speed,
                          pass_wall_s=walls)
    record["pass_host_speed"] = speeds

    failed = sum(not c.ok for c in checks)
    control_ok = wl.negative_control()
    attempted = len(checks)
    correct = failed == 0 and control_ok

    if args.trace:
        layer = tracer.layer_metrics()
        layer["trace.overhead_s"] = (
            traced[0] * speeds[1][0] - walls[0] * speeds[0][0], "s")
        layer["untraced.raw_wall_s"] = (walls[0], "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        scaled = [w * speed[0] for w, speed in zip(walls, speeds)]
        record.update(raw_median_s={"wall_s": statistics.median(walls),
                                    "setup_s": statistics.median(setup_times)})
        metrics = {
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times) * setup_speed[0],
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "max_rel_dev": {"value": _worst(c.rel_dev for c in checks), "unit": "ratio"},
            "err_ratio": {"value": _worst(c.err_ratio for c in checks), "unit": "ratio"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(
        checks=[{"label": c.label, "ok": c.ok, "rel_dev": c.rel_dev,
                 "err_ratio": c.err_ratio, "detail": c.detail} for c in checks],
        negative_control_rejected=control_ok, fail_frac=failed / attempted,
        metrics=metrics)
    if args.trace:
        record["absent_boundaries"] = tracer.absent
        record["spans_file"] = f"{stem}-spans.csv"
        tracer.write_spans(OUT / record["spans_file"])
        for name in tracer.absent:
            print(f"perfbench: boundary {name} is absent; its layer reads 0",
                  file=sys.stderr)
    (OUT / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    for c in checks:
        if not c.ok:
            print(f"FAILED {c.label}: {c.detail}", file=sys.stderr)
    if not control_ok:
        print("FAILED negative control: a perturbed output passed the check",
              file=sys.stderr)
    print(f"{args.workload} raw pass wall = {record['pass_wall_s']} s, host "
          f"speed factor = {[sp[0] for sp in speeds]}")
    raw = record.get("raw_median_s", {})
    for name, m in metrics.items():
        extra = f" (raw median {raw[name]!r} s)" if name in raw else ""
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}{extra}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
