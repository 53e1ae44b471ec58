"""Set-up time in a fresh interpreter: import the package, build the inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from before the package import (numpy and scipy
included) until the workload's inputs exist.  run.py starts it a few times
per run and reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import provenance  # noqa: E402

provenance.require_source(HERE.parent)

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](HERE.parent, int(sys.argv[2]))
print(repr(time.perf_counter() - T0))
