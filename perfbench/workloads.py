"""The benchmark's three workloads: inputs from the seed, set-up, timed op, checks.

Each workload is a closed loop of one client with jobs=1.  Its inputs form a
cycle of ``cycle`` ops generated from the seed; the timed loop walks that
cycle round-robin.  Every op checks its results, and a failure (a raised
exception or a failed check) is counted by exception class, never dropped.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import sys
import traceback
from collections import Counter

from gslab import asymptotics, cli, emden, functionals, records
from gslab.asymptotics import SweepSpec
from gslab.emden import EmdenFowlerProfile
from gslab.params import Family, ProblemParams, Regime

RESIDUAL_TOL = 1e-6     # Nehari and Pokhozhaev residuals of every solution
NORM_GAP_TOL = 1e-6     # co-integrated vs grid-quadrature norms
EXPONENT_TOL = 0.05     # relative distance of a fitted exponent to its prediction


class CheckFailed(Exception):
    """A benchmark correctness check did not hold."""


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


class Tally:
    """Attempted, failed and completed work of one run, plus checked maxima."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0                  # completed units counted by ops_per_s
        self.failures: Counter[str] = Counter()
        self.residual_max = 0.0
        self.norm_gap_max = 0.0
        self.notes: dict[str, float] = {}   # reported, not asserted

    def fail(self, exc: BaseException, n: int = 1) -> None:
        name = type(exc).__name__
        if not self.failures[name]:
            traceback.print_exception(exc, file=sys.stderr)
        self.failures[name] += n
        self.failed += n

    def residuals(self, neh: float, pok: float) -> None:
        worst = max(neh, pok)
        self.residual_max = max(self.residual_max, worst)
        check(worst < RESIDUAL_TOL, f"identity residual {worst:.3e} >= {RESIDUAL_TOL:g}")

    def solution(self, sol) -> None:
        self.residuals(sol.nehari_residual, sol.pokhozhaev_residual)
        if sol.params.family is Family.P_EPS:
            check(sol.amplitude <= 1.0, f"P_eps amplitude {sol.amplitude!r} > 1")


# --- inputs -------------------------------------------------------------------

# (family, N, p, q, eps, drawn field, log-uniform range); the drawn field
# replaces its placeholder.  Ranges are admissible for every draw.
P_EPS_N3_SUB = (Family.P_EPS, 3, 4.0, 6.0, None, "eps", (1e-4, 1e-2))
P_EPS_N3_CRIT = (Family.P_EPS, 3, 6.0, 10.0, None, "eps", (1e-5, 1e-2))
P_EPS_N4_CRIT = (Family.P_EPS, 4, 4.0, 8.0, None, "eps", (1e-5, 1e-2))
P_EPS_N5_CRIT = (Family.P_EPS, 5, 10.0 / 3.0, 6.0, None, "eps", (1e-5, 1e-2))
P_ZERO_N3 = (Family.P_ZERO, 3, 8.0, None, 0.0, "q", (9.0, 16.0))
R_ZERO_N3 = (Family.R_ZERO, 3, None, 6.0, 0.0, "p", (2.5, 5.5))
R_EPS_N3 = (Family.R_EPS, 3, 4.0, 6.0, None, "eps", (1e-4, 1e-1))

SOLVE_CATALOG = (P_EPS_N3_SUB, P_EPS_N3_CRIT, P_EPS_N4_CRIT, P_EPS_N5_CRIT,
                 P_ZERO_N3, R_ZERO_N3, R_EPS_N3)
# two critical N=5 profiles feed the concentration steps of postprocess
PROFILE_SET = (P_EPS_N5_CRIT, P_EPS_N5_CRIT, P_EPS_N3_SUB, P_ZERO_N3, R_ZERO_N3, R_EPS_N3)


def draw(rng: random.Random, entry) -> ProblemParams:
    family, N, p, q, eps, field, (lo, hi) = entry
    value = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    kw = {"p": p, "q": q, "eps": eps, field: value}
    return ProblemParams(N, kw["p"], kw["q"], kw["eps"], family)


def emden_constants() -> None:
    """The cold closed-form constants every workload's set-up pays."""
    for N in (3, 4, 5):
        emden.sobolev_constant(N)
        emden.q_star(N)


# --- workloads ----------------------------------------------------------------


class SolveMix:
    """Cold solve_ground_state calls, round-robin over all four families."""

    rounds = 4             # draws per catalog entry in one cycle
    tail_pct = 75          # >= 10 solves beyond it once a run holds 40

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        self.inputs = [draw(rng, e) for _ in range(self.rounds) for e in SOLVE_CATALOG]
        self.cycle = len(self.inputs)

    def op(self, i: int, tally: Tally) -> None:
        tally.attempted += 1
        try:
            tally.solution(functionals.solve_ground_state(self.inputs[i % self.cycle]))
        except Exception as exc:  # benchmark boundary: count by class, keep going
            tally.fail(exc)
            return
        tally.work += 1


class SweepChain:
    """One op = the critical N=5 sweep then the subcritical N=3 sweep, jobs=1."""

    tail_pct = 100         # a run holds ~4 chains: report the slowest

    def __init__(self, seed: int, workdir):
        self.grid_shift = random.Random(seed).random()
        f = 2.0 ** -self.grid_shift
        # (spec, asserted fit, fits reported without a check)
        self.sweeps = (
            (SweepSpec(regime="critical", N=5, q=6.0, grid_min=1e-5 * f, grid_max=1e-2 * f),
             "lambda", ("amplitude",)),
            (SweepSpec(regime="subcritical", N=3, p=4.0, q=6.0,
                       grid_min=9e-5 * f, grid_max=5e-2 * f),
             "amplitude", ()),
        )
        self.cycle = 1

    def op(self, i: int, tally: Tally) -> None:
        for spec, checked, reported in self.sweeps:
            label = f"{spec.regime}_n{spec.N}"
            n = len(spec.grid())
            tally.attempted += n + 1      # every point, plus the exponent check
            try:
                report = asymptotics.sweep(spec)
            except Exception as exc:  # benchmark boundary: count by class, keep going
                tally.fail(exc, n + 1)
                continue
            for pt in report.points:
                try:
                    check(pt.converged, f"{label} point x={pt.x:.6g} failed: {pt.failure}")
                    tally.residuals(pt.nehari_res, pt.pokh_res)
                except CheckFailed as exc:
                    tally.fail(exc)
                    continue
                tally.work += 1
            try:
                fit = report.fits[checked]
                pred = fit.predicted_exponent
                tally.notes[f"{label}.{checked}_exponent"] = fit.exponent
                check(abs(fit.exponent - pred) <= EXPONENT_TOL * abs(pred),
                      f"{label} {checked} exponent {fit.exponent:.4f} not within "
                      f"{EXPONENT_TOL:.0%} of {pred:.4f}")
            except (KeyError, CheckFailed) as exc:
                tally.fail(exc)
            for name in reported:
                tally.notes[f"{label}.{name}_exponent"] = report.fits[name].exponent


class PostProcess:
    """Read side: functionals, frames, concentration, records and warm-cache CLI."""

    # A run holds ~2000 ops, but its p99 is set by the machine's sub-second
    # transients (ten-run spread 5-13%); p95 keeps ~100 ops beyond it and
    # spreads ~4%.
    tail_pct = 95

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        cache_dir = workdir / "solve-cache"
        self.solutions = []
        self.argv = []
        for entry in PROFILE_SET:
            params = draw(rng, entry)
            sol = functionals.solve_ground_state(params)
            Tally().solution(sol)
            argv = ["solve", "--family", params.family.value, "--N", str(params.N),
                    "--p", repr(params.p), "--q", repr(params.q), "--eps", repr(params.eps),
                    "--cache-dir", str(cache_dir)]
            rc, out = self._cli(argv)   # cold: solves once and fills the cache
            check(rc == 0 and "cache hit" not in out, f"cache warm-up failed: rc={rc}")
            self.solutions.append(sol)
            self.argv.append(argv)
        self.cycle = len(self.solutions)

    @staticmethod
    def _cli(argv):
        """cli.main with stdout captured; --cache-dir sets GSLAB_CACHE_DIR, so restore it."""
        saved = os.environ.get("GSLAB_CACHE_DIR")
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        finally:
            if saved is None:
                os.environ.pop("GSLAB_CACHE_DIR", None)
            else:
                os.environ["GSLAB_CACHE_DIR"] = saved
        return rc, buf.getvalue()

    def op(self, i: int, tally: Tally) -> None:
        k = i % self.cycle
        prof = self.solutions[k].profile
        params = prof.params
        tally.attempted += 1
        try:
            sol = functionals.analyze(prof)
            tally.solution(sol)
            lp = functionals.radial_norm(prof, params.p)
            dsq = functionals.dirichlet_norm(prof)
            gap = max(abs(lp - sol.norm_Lp_p) / sol.norm_Lp_p,
                      abs(dsq - sol.dirichlet_sq) / sol.dirichlet_sq)
            tally.norm_gap_max = max(tally.norm_gap_max, gap)
            check(gap < NORM_GAP_TOL, f"norm routes differ by {gap:.3e}")
            w = sol.rescaled_to_frame()
            if params.regime() is Regime.CRITICAL:
                kap = functionals.kappa_identities(w, params.eps)
                lam = asymptotics.concentration_lambda(w.profile)
                v = asymptotics.rescale_to_v(w.profile, lam)
                ref = EmdenFowlerProfile(params.N, 1.0, "W")
                d1, dlp = asymptotics.profile_distances(v, ref)
                check(math.isfinite(kap.lq_residual) and math.isfinite(kap.lp_residual)
                      and all(math.isfinite(x) and x > 0.0 for x in (lam, d1, dlp)),
                      f"critical post-processing gave kappa residuals ({kap.lq_residual}, "
                      f"{kap.lp_residual}), lambda {lam}, distances ({d1}, {dlp})")
            blob = records.serialize(_solution_record(sol))
            check(records.serialize(records.parse(blob)) == blob, "record round trip changed bytes")
            rc, out = self._cli(self.argv[k])
            check(rc == 0 and "cache hit" in out, f"warm-cache CLI solve: rc={rc}, no cache hit")
        except Exception as exc:  # benchmark boundary: count by class, keep going
            tally.fail(exc)
            return
        tally.work += 1


def _solution_record(sol) -> records.ResultRecord:
    prm = sol.params
    config = {"family": prm.family.value, "N": prm.N, "p": prm.p, "q": prm.q, "eps": prm.eps}
    payload = {
        "amplitude": sol.amplitude, "norm_L2_sq": sol.norm_L2_sq,
        "norm_Lp_p": sol.norm_Lp_p, "norm_Lq_q": sol.norm_Lq_q,
        "dirichlet_sq": sol.dirichlet_sq, "energy": sol.energy, "level_S": sol.level_S,
        "nehari_residual": sol.nehari_residual,
        "pokhozhaev_residual": sol.pokhozhaev_residual,
    }
    diagnostics = {"bisection_iterations": sol.profile.bisection_iterations,
                   "grid_points": len(sol.profile.grid)}
    return records.ResultRecord("solution", config, payload, diagnostics)


WORKLOADS = {"solve_mix": SolveMix, "sweep_chain": SweepChain, "postprocess": PostProcess}
