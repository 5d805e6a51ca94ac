#!/usr/bin/env python3
"""gslab benchmark: one workload, one process, one closed-loop client (jobs=1).

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 20 --trace 0

Run from the repository root; gslab is imported from ./src and nowhere else.
Prints every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("solve_mix", "sweep_chain", "postprocess")   # gslab loads inside the timed set-up
SETUP_SAMPLES = 3          # this process's set-up plus two in fresh processes
SETUP_CHILD_TIMEOUT_S = 60

# Machine-speed calibration.  Wall time on a shared 2-core box drifts by 2x
# and more within seconds, and the drift slows a fixed pure-Python loop about
# as much as it slows gslab.  A timer runs a chunk of that loop every
# CALIB_EVERY_S, inside ops too; every reported time is wall time minus the
# chunks in it, scaled by CALIB_REF_S over the mean chunk time around it
# ("reference seconds").
CALIB_STEPS = 300
CALIB_REF_S = 1.5e-3       # one chunk at the reference speed: the median seen on this box
CALIB_EVERY_S = 0.03
CALIB_NEAR = 8             # chunks each side of an interval that set its speed

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "ode.integrate_calls": "count/op",
    "ode.integrate_s": "s",
    "ode.steps_accepted": "count/op",
    "ode.steps_rejected": "count/op",
    "ode.rhs_evals": "count/op",
    "ode.us_per_step": "us",
    "ode.quad_us_per_step": "us",
    "ode.failures": "count/op",
    "shooting.solve_s": "s",
    "shooting.self_s": "s",
    "shooting.integrations_per_solve": "count",
    "shooting.bisection_iters_per_solve": "count",
    "shooting.bracket_integrations_per_solve": "count",
    "shooting.bracket_failures": "count/op",
    "shooting.tail_mismatch_max": "ratio",
    "functionals.analyze_s": "s",
    "functionals.grid_norm_s": "s",
    "functionals.frame_s": "s",
    "functionals.norm_route_gap_max": "ratio",
    "functionals.identity_residual_max": "ratio",
    "emden.constants_s": "s",
    "emden.radial_quad_calls": "count/op",
    "emden.radial_quad_s": "s",
    "asymptotics.sweep_self_s": "s",
    "asymptotics.concentration_lambda_s": "s",
    "asymptotics.rescale_to_v_s": "s",
    "asymptotics.profile_distances_s": "s",
    "asymptotics.fit_exponent_s": "s",
    "asymptotics.integrations_per_point": "count",
    "asymptotics.hint_accept_ratio": "ratio",
    "asymptotics.hint_accept_ratio.critical_n5": "ratio",
    "asymptotics.hinted_solves.critical_n5": "count",
    "asymptotics.hint_accept_ratio.subcritical_n3": "ratio",
    "asymptotics.hinted_solves.subcritical_n3": "count",
    "records.serialize_s": "s",
    "records.parse_s": "s",
    "records.record_bytes": "bytes",
    "cli.cached_solve_s": "s",
}


def calibration_chunk() -> float:
    """Seconds for a fixed loop written like gslab's integrator.

    Closure calls with float powers, tuple and list building, appends: the
    mix of interpreter work that an RK step does, so that machine drift
    slows this chunk and the program alike.  Changing it changes every
    reported time.
    """
    t0 = time.perf_counter()
    pm2, qm2, n1, lin, qc = 2.0, 4.0, 2.0, 1e-3, 1.0

    def rhs(r, u, v):
        au = abs(u)
        nl = u * au**pm2 - qc * u * au**qm2 if au > 0.0 else 0.0
        return -n1 / r * v + lin * u - nl

    rs, us, vs = [], [], []
    r, u, v, h = 1e-3, 0.5, 0.0, 1e-3
    for _ in range(CALIB_STEPS):
        k1 = rhs(r, u, v)
        k2 = rhs(r + 0.5 * h, u + 0.5 * h * v, v + 0.5 * h * k1)
        k3 = rhs(r + h, u + h * v, v + h * k2)
        qu = [sum(x * y for x, y in zip((k1, k2, k3), (0.1, 0.2, 0.3))) for _ in range(2)]
        u, v, r = u + h * v, v + h * (k1 + 2.0 * k2 + k3) / 4.0, r + h
        math.sqrt(0.5 * ((k1 - k3) ** 2 + qu[0] ** 2))
        rs.append(r)
        us.append(u)
        vs.append(v)
    return time.perf_counter() - t0


class Speed:
    """Calibration chunks run from an interval timer while the context is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.secs: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.secs.append(calibration_chunk())

    def __enter__(self) -> "Speed":
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def net_and_scale(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall seconds of [t0, t1] without the chunks in it, and reference
        seconds per such second."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        near = self.secs[max(0, i - CALIB_NEAR): j + CALIB_NEAR]
        return t1 - t0 - sum(self.secs[i:j]), CALIB_REF_S * len(near) / sum(near)

    def ref_seconds(self, t0: float, t1: float) -> float:
        net, scale = self.net_and_scale(t0, t1)
        return net * scale


def _import_program():
    """Import gslab from ./src only; exit non-zero when the sources are absent."""
    if not (SRC_DIR / "gslab" / "__init__.py").is_file():
        sys.exit(f"run.py: no gslab sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import gslab

    if Path(gslab.__file__).resolve().parent != (SRC_DIR / "gslab").resolve():
        sys.exit(f"run.py: imported gslab from {gslab.__file__}, not from {SRC_DIR}")


def set_up(workload: str, seed: int, workdir: Path):
    """Import, cold Emden constants, inputs (and postprocess pre-solves).

    Returns the set-up and constants times in reference seconds.
    """
    with Speed() as speed:
        t0 = time.perf_counter()
        _import_program()
        import workloads

        t1 = time.perf_counter()
        workloads.emden_constants()
        t2 = time.perf_counter()
        wl = workloads.WORKLOADS[workload](seed, workdir)
        t3 = time.perf_counter()
    return workloads, wl, speed.ref_seconds(t0, t3), speed.ref_seconds(t1, t2)


def _setup_in_child(args) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise RuntimeError(f"set-up process exited with {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def _percentile(xs: list[float], pct: int) -> float:
    if pct >= 100 or len(xs) < 2:
        return max(xs)
    return statistics.quantiles(xs, n=100)[pct - 1]


def timed_loop(wl, tally, seconds: float, tracer=None):
    """Closed loop over the workload's op cycle until `seconds` have passed.

    A traced run also finishes its current cycle, so its per-op counters
    average whole cycles and repeat exactly on one seed.  Returns each op's
    wall (start, end), the loop's wall seconds and the speed samples.
    """
    ops = []
    with Speed() as speed:
        t_start = time.perf_counter()
        deadline = t_start + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline or (tracer is not None and i % wl.cycle):
            if tracer is not None:
                tracer.op = i
            t = time.perf_counter()
            wl.op(i, tally)
            ops.append((t, time.perf_counter()))
            i += 1
        loop_s = time.perf_counter() - t_start
    return ops, loop_s, speed


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for the set-up samples)")
    args = ap.parse_args(argv)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads, wl, setup_s, constants_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [setup_s] + [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        tally = workloads.Tally()
        try:
            ops, loop_s, speed = timed_loop(wl, tally, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = [t1 - t0 for t0, t1 in ops]
    lat = [speed.ref_seconds(t0, t1) for t0, t1 in ops]
    e2e = {
        "ops_per_s": tally.work / sum(lat),
        "op_s_p50": statistics.median(lat),
        "op_s_tail": _percentile(lat, wl.tail_pct),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = "max" if wl.tail_pct >= 100 else f"p{wl.tail_pct}"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {len(ops)}  "
          f"loop {loop_s:.3f} s wall  op_s_tail = {tail}")
    print(f"speed: {len(speed.secs)} calibration chunks, median "
          f"{statistics.median(speed.secs) * 1e3:.3f} ms (reference {CALIB_REF_S * 1e3:.3f} ms); "
          f"wall ops_per_s {tally.work / sum(wall):.6g}, op_s_p50 {statistics.median(wall):.6g} s")
    print("set-up samples (reference s): " + " ".join(f"{s:.4f}" for s in setup_samples))
    print("end-to-end" + (" (traced)" if tracer is not None else "")
          + ", times in reference seconds:")
    _print_metrics(e2e, E2E_UNITS)
    print(f"  {'failed_frac':44s} {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed}/{tally.attempted})")
    print(f"  {'identity_residual_max':44s} {tally.residual_max:.6g} ratio")
    for name, n in sorted(tally.failures.items()):
        print(f"  failure {name}: {n}")
    for name, value in sorted(tally.notes.items()):
        print(f"  reported, not asserted: {name} = {value:.6g}")

    metrics, units = e2e, E2E_UNITS
    if tracer is not None:
        for s in tracer.spans:
            s.net, s.scale = speed.net_and_scale(s.start, s.end)
        layer = spans.layer_metrics(tracer.spans, len(ops))
        layer["functionals.norm_route_gap_max"] = tally.norm_gap_max
        layer["functionals.identity_residual_max"] = tally.residual_max
        layer["emden.constants_s"] = constants_s
        metrics, units = {name: layer[name] for name in LAYER_UNITS}, LAYER_UNITS
        print("per-layer, times in reference seconds:")
        _print_metrics(metrics, units)
        print("self time by span (reference seconds):")
        for line in spans.self_time_table(tracer.spans, sum(lat)):
            print("  " + line)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "ops": len(ops),
                           "loop_s": loop_s, "end_to_end": e2e, "per_layer": metrics})
        print(f"spans written to {path}")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
