"""Regenerate the frozen point-default reference (perfbench/reference.json).

Evaluates the shipped configuration through the command-line entry point at
rel_tol 1e-8, 10^4 times tighter than the 1e-4 it ships with, and records
the value with its provenance.  Run from the repository root:

    python3 perfbench/make_reference.py

Takes about 16 s; the benchmark only reads the result.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import provenance  # noqa: E402

REL_TOL = 1e-8


def main():
    provenance.require_source(ROOT)
    from neqlifshitz import cli

    cfg = ROOT / "configs" / "default.cfg"
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["pressure", "--config", str(cfg),
                         "--rel-tol", repr(REL_TOL)])
    elapsed = time.perf_counter() - t0
    if code != 0:
        sys.exit(f"reference run failed with exit code {code}")
    row = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("#")][1]
    cells = row.split(",")
    doc = {
        "config": "configs/default.cfg",
        "config_sha256": hashlib.sha256(cfg.read_bytes()).hexdigest(),
        "rel_tol": REL_TOL,
        "pressure": float(cells[3]),
        "err": float(cells[4]),
        "elapsed_s": round(elapsed, 1),
        "provenance": provenance.collect(ROOT, seed=None),
    }
    out = HERE / "reference.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
