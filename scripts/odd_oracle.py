#!/usr/bin/env python3
"""The steady pressure's odd part against an independent oracle.

P is linear in each plate's occupation, so it splits into an even part,
half the sum of the two equilibrium pressures P_eq(T_L) and P_eq(T_R) of
the same dissimilar pair (the imaginary-frequency sum), and an odd part,
half the difference P(T_L, T_R) - P(T_R, T_L).  The odd part comes from
two thermal_only `steady_pressure` runs with swapped temperatures at
omega_max = 30 T_max (rel_tol 1e-9, or 1e-6 at l >= 3), and is checked
against ``odd_part_oracle`` of tests/oracles.py, which integrates its
closed form under nested scipy quad and shares no code with
`steady_pressure`.  Their sum is an Euler-free reference value P_ref of
the pressure.  One CSV row per point (l, T_L, T_R) on the plates of
configs/default.cfg; by default the five points

    (1; 1, 0.5), (1; 2, 0.3), (0.7; 2, 0.2), (3.16; 1, 0.5), (10; 1, 0.5)

which take about 1.5-9 s each on one core of a 2-vCPU Xeon VM:

    PYTHONPATH=src python3 scripts/odd_oracle.py --point 1,2,0.3

Natural units (hbar = c = kB = 1).
"""

import argparse
import contextlib
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import OMEGA_CAP, odd_part_oracle  # noqa: E402

from neqlifshitz import cli  # noqa: E402
from neqlifshitz.pressure import (PressureOptions, equilibrium_matsubara,  # noqa: E402
                                  steady_pressure)

POINTS = [(1.0, 1.0, 0.5), (1.0, 2.0, 0.3), (0.7, 2.0, 0.2), (3.16, 1.0, 0.5), (10.0, 1.0, 0.5)]
DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def default_plates(gap, t_left, t_right):
    """The plates of configs/default.cfg at temperatures (T_L, T_R)."""
    return cli.geometry_for(cli.load_config(DEFAULT_CFG), gap, t_left, t_right)


def row(gap, t_left, t_right):
    opts = PressureOptions(rel_tol=1e-6 if gap >= 3.0 else 1e-9,
                           omega_max=OMEGA_CAP * max(t_left, t_right), thermal_only=True)
    start = time.perf_counter()
    there = steady_pressure(default_plates(gap, t_left, t_right), opts).value
    back = steady_pressure(default_plates(gap, t_right, t_left), opts).value
    odd = 0.5 * (there - back)
    mid = time.perf_counter()
    oracle = odd_part_oracle(default_plates(gap, t_left, t_right))
    end = time.perf_counter()
    even = 0.5 * sum(equilibrium_matsubara(default_plates(gap, T, T), T)
                     for T in (t_left, t_right))
    return [gap, t_left, t_right, even, odd, oracle, abs(odd - oracle) / abs(oracle),
            even + odd, round(mid - start, 2), round(end - mid, 2)]


def point(text):
    values = tuple(float(v) for v in text.split(","))
    if len(values) != 3 or not all(math.isfinite(v) and v > 0.0 for v in values):
        raise argparse.ArgumentTypeError(f"expected l,T_L,T_R (positive), got {text!r}")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", type=point, action="append",
                        help="l,T_L,T_R (repeatable; default the five points above)")
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("l,T_L,T_R,half_sum_eq,odd_part,odd_oracle,rel_diff,p_ref,program_s,oracle_s\n")
        for gap, t_left, t_right in args.point or POINTS:
            fh.write(",".join(repr(v) for v in row(gap, t_left, t_right)) + "\n")
            fh.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
