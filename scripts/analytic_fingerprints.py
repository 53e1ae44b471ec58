#!/usr/bin/env python3
"""Bit-level fingerprints of the analytic toolkit (`neqlifshitz.spectral`).

Prints one line per case of a fixed list: the case name and the float.hex
of every number its calls return.  A geometry case runs what one case of
the benchmark's ``analytic`` workload runs: per plate the pole report and
the Laplace inversion of the oscillator kernel on the workload's two t
grids, the TE and TM D_mu scans, the modified-mode check and both origin
reports (every number of their JSON reports, booleans as 0/1).  The
geometries are the workload's 8 at ``--seed`` (criterion 7's first 8
draws, jittered) and criterion 7's first 8 configurations as drawn; the
``criterion-4`` case inverts the kernel of criterion 4's 50 materials on
that criterion's grids.  Two checkouts that print the same text compute
the same bits, so a change to the toolkit that claims to move no number
is checked by diffing this output before and after it:

    PYTHONPATH=src python3 scripts/analytic_fingerprints.py > before.txt

``--case NAME`` (repeatable) runs only the named cases.  Natural units
(hbar = c = kB = 1).
"""

import argparse
import importlib.util
import sys
from pathlib import Path

import numpy as np

from neqlifshitz import spectral
from neqlifshitz.em_green import Geometry

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    """The benchmark's workload module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
ANALYTIC = WORKLOADS.Analytic


def criterion_7_cases(n=8):
    """Criterion 7's first n configurations, with the workload's mode (Q, kz)."""
    base = np.random.default_rng(ANALYTIC.base_seed)
    modes = np.random.default_rng(ANALYTIC.mode_seed)
    sign = lambda g: 1.0 if g.random() < 0.5 else -1.0  # noqa: E731
    cases = []
    for _ in range(n):
        geom = Geometry(gap=float(base.uniform(0.7, 1.6)),
                        left=WORKLOADS._rand_lossy(base), right=WORKLOADS._rand_lossy(base))
        q_dof = float(base.uniform(0.2, 2.0))
        k = np.array([base.uniform(0.1, 1.2), base.uniform(0.1, 1.2),
                      base.uniform(0.4, 1.5) * sign(base)])
        q_mode = float(modes.uniform(0.05, 2.5))
        kz_mode = float(modes.uniform(0.25, 2.5)) * sign(modes)
        cases.append(WORKLOADS.Case(geom, q_dof, k, q_mode, kz_mode))
    return cases


def numbers(obj):
    """Every number of a (nested) report, depth first; strings and None skipped."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in numbers(v)]
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [x for v in obj for x in numbers(v)]
    if isinstance(obj, (complex, np.complexfloating)):
        return [obj.real, obj.imag]
    if isinstance(obj, (bool, int, float, np.number, np.bool_)):
        return [float(obj)]
    return []


def inversions(mat):
    """The kernel on criterion 4's (and the workload's) two t grids."""
    rep = spectral.find_qbm_poles(mat)
    t = np.linspace(0.0, 24.0 / mat.omega0, 10)
    h = 0.01 / max(mat.omega0, max(abs(s) for s, _, _ in rep.roots))
    return rep, [spectral.invert_laplace_qbm(mat, t),
                 spectral.invert_laplace_qbm(mat, [0.0, h, 2 * h, 3 * h, 4 * h])]


def geometry_case(case):
    out = []
    for mat in (case.geom.left, case.geom.right):
        rep, grids = inversions(mat)
        out += [rep.as_report(), grids]
    out += [spectral.scan_dmu_imaginary_axis(case.geom, pol, case.q_dof, ANALYTIC.grid).as_report()
            for pol in ("TE", "TM")]
    out.append(spectral.modified_mode_check(case.geom, case.q_mode, case.kz_mode).as_report())
    out.append(spectral.dof_origin_report(case.geom, case.q_dof))
    out.append(spectral.ic_origin_report(case.geom, case.k))
    return out


def criterion_4():
    rng = np.random.default_rng(4)
    return [inversions(WORKLOADS._rand_lossy(rng))[1] for _ in range(50)]


def cases(seed):
    workload = ANALYTIC(ROOT, seed).cases
    drawn = criterion_7_cases()
    return {
        **{f"workload-{i}": (lambda c=c: geometry_case(c)) for i, c in enumerate(workload)},
        **{f"criterion-7-{i}": (lambda c=c: geometry_case(c)) for i, c in enumerate(drawn)},
        "criterion-4": criterion_4,
    }


def fingerprint(name, run):
    """The case's line: its name and its numbers in float.hex."""
    return f"{name} " + " ".join(float(x).hex() for x in numbers(run()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the workload's jittered geometries (default 1)")
    parser.add_argument("--case", action="append",
                        help="run only this case (repeatable; default all)")
    args = parser.parse_args(argv)
    table = cases(args.seed)
    for name in args.case or table:
        if name not in table:
            parser.error(f"unknown case {name!r}; choose from {', '.join(table)}")
        print(fingerprint(name, table[name]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
