#!/usr/bin/env python3
"""Tracing overhead and self-time table for one workload and seed.

    python3 perfbench/report.py --workload solve_mix --seed 1 [--seconds 20]

Runs run.py untraced, then traced, on the same seed.  Prints the traced
run's self time per span and, for every end-to-end metric, the traced value
minus the untraced one.  Both runs see the machine's own drift, so an
overhead smaller than the metric's run-to-run spread is noise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def _run(args, trace: int) -> str:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900).stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()

    untraced = json.loads(_run(args, 0).strip().splitlines()[-1])["metrics"]
    out = _run(args, 1)
    lines = out.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("self time by span"))
    print("\n".join(lines[first:-2]))
    trace_file = BENCH_DIR / "out" / f"trace-{args.workload}-{args.seed}.json"
    traced = json.loads(trace_file.read_text())["end_to_end"]
    print(f"tracing overhead ({args.workload}, seed {args.seed}): traced - untraced")
    for name, m in untraced.items():
        u, t = m["value"], traced[name]
        print(f"  {name:14s} {t:.6g} - {u:.6g} = {t - u:+.6g} {m['unit']} ({(t - u) / u:+.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
