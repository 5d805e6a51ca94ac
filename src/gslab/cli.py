"""Command-line front end: solve, sweep, fit, check, emden.

Exit codes: 0 success, 1 solver or identity failure, 2 argument errors.
A config file (INI ``key = value`` sections named after subcommands) can
seed any flag; explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .asymptotics import REGIMES, SweepSpec, predict_exponents, regime_row, sweep
from .emden import EmdenFowlerProfile, q_star, sobolev_constant
from .errors import BracketNotFound, InconsistentSolution, InternalConsistencyError
from .ode import IntegrationFailure
from .functionals import constraint_value, kappa_identities, solve_ground_state
from .params import Family, InvalidParams, ProblemParams, critical_exponent
from .records import (
    FIT_OBSERVABLES,
    ResultRecord,
    cache_key,
    cache_load,
    cache_store,
    parse,
    refit_record,
    report_record,
    serialize,
    sweep_csv,
)
from .shooting import _CONVERGENCE_FACTOR, ShootControls

# What one solve can raise besides argument errors; `solve` and `check` report
# these as "solve failed" with exit code 1.
_SOLVE_FAILURES = (BracketNotFound, IntegrationFailure, InternalConsistencyError,
                   InconsistentSolution)
# `sweep` raises RuntimeError when fewer than 6 points converge (the gslab
# solver errors are RuntimeErrors too) and ValueError where a solve or fit
# rejects its input (`_cmd_sweep` checks the arguments first); `fit` reads a
# file (OSError), then parses and re-fits the record (ParseError is a
# ValueError; a missing column is a KeyError).
_SWEEP_FAILURES = (RuntimeError, ValueError)
_FIT_FAILURES = (OSError, ValueError, KeyError)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gslab",
        description="Radial ground states of -Δu + εu - u^(p-1) + u^(q-1) = 0 "
                    "and their ε → 0 scaling laws.",
    )
    ap.add_argument("--version", action="version", version=f"gslab {__version__}")
    ap.add_argument("--config", type=Path, help="INI file seeding the flags below")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, with_eps=True):
        sp.add_argument("--N", type=int, help="space dimension (>= 3)")
        sp.add_argument("--p", type=float, help="focusing exponent")
        sp.add_argument("--p-critical", action="store_true",
                        help="set p = 2N/(N-2)")
        sp.add_argument("--q", type=float, help="defocusing exponent (> p)")
        if with_eps:
            sp.add_argument("--eps", type=float, help="linear parameter ε >= 0")
        sp.add_argument("--amp-tol", type=float, help="relative amplitude tolerance: u(0) is verified to half of it")
        sp.add_argument("--rtol", type=float, help="integrator relative tolerance")
        sp.add_argument("--atol", type=float, help="integrator absolute tolerance")
        sp.add_argument("--r-max", type=float, help="override integration window")

    sp = sub.add_parser("solve", help="solve one ground state")
    common(sp)
    sp.add_argument("--family", choices=[f.value for f in Family], default=None)
    sp.add_argument("--out", type=Path, help="write the record here")
    sp.add_argument("--no-cache", action="store_true")
    sp.add_argument("--cache-dir", type=Path, help="overrides GSLAB_CACHE_DIR")

    sp = sub.add_parser("sweep", help="run an ε- or δ-sweep and fit exponents")
    common(sp, with_eps=False)
    sp.add_argument("--regime", required=False, choices=REGIMES)
    sp.add_argument("--eps-min", type=float, help="smallest grid value")
    sp.add_argument("--eps-max", type=float, help="largest grid value")
    sp.add_argument("--ratio", type=float, help="geometric grid ratio (1, 4]")
    sp.add_argument("--out", type=Path, help="write the sweep record here")
    sp.add_argument("--csv", type=Path, help="write the flat grid table here")
    sp.add_argument("--emit-plot-data", type=Path,
                    help="write (x, y, fit) triples for the amplitude observable")

    sp = sub.add_parser("fit", help="re-fit a saved sweep record")
    sp.add_argument("--in", dest="infile", type=Path, help="the sweep record (required)")
    sp.add_argument("--observable", default="amplitude", choices=FIT_OBSERVABLES)
    sp.add_argument("--with-log", action="store_true")

    sp = sub.add_parser("check", help="run an identity suite, exit 1 on breach")
    common(sp)
    sp.add_argument("--family", choices=[f.value for f in Family], default=None)
    sp.add_argument("--suite", default="identities",
                    choices=["identities", "nehari", "pokhozhaev", "kappa", "emden"])
    sp.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")

    sp = sub.add_parser("emden", help="print Emden-Fowler reference values")
    sp.add_argument("--N", type=int, required=False)
    return ap


# main's parser, built on first use and reused for every later call in the
# process: parse_args keeps no state on the parser, and building the tree costs
# more than a warm-cache solve.  build_parser() still returns a fresh parser.
_parser = functools.cache(build_parser)


def _parse_args(argv) -> tuple[argparse.Namespace, argparse.ArgumentParser]:
    """(args, the parser that read them).  With --config, the file's section
    named after the command sets that command's defaults, and argv is read
    again, so explicit flags win; argparse converts the values as it does
    flags' (a boolean flag reads the INI booleans)."""
    parser = _parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args, parser
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # flag names are case-sensitive (--N vs --n)
    if not cp.read(args.config):
        parser.error(f"config file {args.config} not found")
    if args.command not in cp:
        return args, parser
    parser = build_parser()   # a fresh one: the defaults below are this call's only
    sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    flags = {opt.lstrip("-"): a for a in sub._actions if a.dest != "help"
             for opt in a.option_strings}
    booleans = cp.BOOLEAN_STATES
    defaults = {}
    for key, raw in cp[args.command].items():
        action = flags.get(key.replace("_", "-"))
        if action is None or (raw.lower() not in booleans if action.nargs == 0 else
                              action.choices is not None and raw not in action.choices):
            parser.error(f"bad config entry {key} = {raw} in [{args.command}]")
        defaults[action.dest] = booleans[raw.lower()] if action.nargs == 0 else raw
    sub.set_defaults(**defaults)
    return parser.parse_args(argv), parser


def _resolve_params(args, parser) -> ProblemParams:
    if args.N is None or args.q is None:
        parser.error("--N and --q are required")
    try:   # critical_exponent rejects N < 3 as ProblemParams does
        p = args.p
        if getattr(args, "p_critical", False):
            p = critical_exponent(args.N)
        if p is None:
            parser.error("--p (or --p-critical) is required")
        eps = getattr(args, "eps", None)
        fam = getattr(args, "family", None)
        if fam is None:
            if eps is None or eps > 0.0:
                fam = Family.P_EPS.value
            else:
                fam = Family.P_ZERO.value if p > critical_exponent(args.N) else Family.R_ZERO.value
        if eps is None:
            eps = 0.0
        return ProblemParams(args.N, p, args.q, eps, Family(fam))
    except InvalidParams as exc:
        parser.error(str(exc))


def _shoot_controls(args, parser) -> ShootControls:
    for name in ("rtol", "atol", "amp_tol", "r_max"):
        val = getattr(args, name, None)
        if val is not None and not 0.0 < val < math.inf:
            parser.error(f"--{name.replace('_', '-')} must be positive and finite, got {val}")
    ctrl = ShootControls()
    step = ctrl.step
    if getattr(args, "rtol", None):
        step = replace(step, rtol=args.rtol)
    if getattr(args, "atol", None):
        step = replace(step, atol=args.atol)
    kw = {"step": step}
    if getattr(args, "amp_tol", None):
        kw["amp_tol"] = args.amp_tol
    if getattr(args, "r_max", None):
        kw["r_max"] = args.r_max
    return replace(ctrl, **kw)


def _solve_config(params: ProblemParams, ctrl: ShootControls) -> dict:
    return {
        "family": params.family.value,
        "N": params.N,
        "p": params.p,
        "q": params.q,
        "eps": params.eps,
        "amp_tol": ctrl.amp_tol,
        "rtol": ctrl.step.rtol,
        "atol": ctrl.step.atol,
        "r_max": ctrl.r_max,
        "convergence_factor": _CONVERGENCE_FACTOR,
    }


def _solution_record(params, ctrl, cache_hit: bool) -> ResultRecord:
    sol = solve_ground_state(params, ctrl)
    prof = sol.profile
    payload = {
        "amplitude": sol.amplitude,
        "norm_L2_sq": sol.norm_L2_sq if math.isfinite(sol.norm_L2_sq) else None,
        "norm_Lp_p": sol.norm_Lp_p,
        "norm_Lq_q": sol.norm_Lq_q,
        "dirichlet_sq": sol.dirichlet_sq,
        "energy": sol.energy,
        "level_S": sol.level_S,
        "nehari_residual": sol.nehari_residual,
        "pokhozhaev_residual": sol.pokhozhaev_residual,
        "tail": {
            "kind": prof.tail.kind,
            "rate_or_power": prof.tail.rate_or_power,
            "prefactor": prof.tail.prefactor,
            "match_radius": prof.tail.match_radius,
            "mismatch": prof.tail.mismatch,
        },
    }
    diagnostics = {
        "bisection_iterations": prof.bisection_iterations,
        "bracket": list(prof.bracket),
        "r_max": prof.r_max_used,
        "grid_points": len(prof.grid),
        "rhs_evals": prof.rhs_evals,
        "final_rhs_evals": prof.grid.rhs_evals,
        "integrations_run": prof.integrations,
        "loose_integrations": prof.loose_integrations,
        "fallbacks": prof.fallbacks,
        "amp_error": prof.amp_error,
        "cache_hit": cache_hit,
    }
    cfg = _solve_config(params, ctrl)
    return ResultRecord("solution", cfg, payload, diagnostics)


def _cmd_solve(args, parser) -> int:
    params = _resolve_params(args, parser)
    ctrl = _shoot_controls(args, parser)
    cfg = _solve_config(params, ctrl)
    key = cache_key(cfg)
    record = None
    if not args.no_cache:
        record = cache_load(key, args.cache_dir)
        if record is not None:
            record.diagnostics["cache_hit"] = True
            record.diagnostics["integrations_run"] = 0
            record.diagnostics["rhs_evals"] = 0
            record.diagnostics["loose_integrations"] = 0
            record.diagnostics["fallbacks"] = 0
            record.diagnostics["amp_error"] = 0.0
    if record is None:
        try:
            record = _solution_record(params, ctrl, cache_hit=False)
        except _SOLVE_FAILURES as exc:
            print(f"solve failed: {exc}", file=sys.stderr)
            return 1
        if not args.no_cache:
            cache_store(key, record, args.cache_dir)
    if args.out:
        args.out.write_bytes(serialize(record))
    pay = record.payload
    print(f"family {params.family.value}  N={params.N} p={params.p:g} q={params.q:g} "
          f"eps={params.eps:g}")
    print(f"u(0) = {pay['amplitude']:.12g}")
    print(f"S = {pay['level_S']:.12g}  energy = {pay['energy']:.12g}")
    print(f"residuals: nehari {pay['nehari_residual']:.3e}  "
          f"pokhozhaev {pay['pokhozhaev_residual']:.3e}")
    print(f"tail: {pay['tail']['kind']} prefactor {pay['tail']['prefactor']:.6g} "
          f"mismatch {pay['tail']['mismatch']:.2e}")
    if record.diagnostics.get("cache_hit"):
        print("(cache hit; integrations_run = 0)")
    return 0


def _cmd_sweep(args, parser) -> int:
    if not args.regime:
        parser.error("--regime is required")
    if args.N is None or args.q is None:
        parser.error("--N and --q are required")
    if regime_row(args.regime).delta_sign and args.p is not None:
        parser.error(f"--p cannot be given with --regime {args.regime}, which sets p = p* +- delta")
    shoot = _shoot_controls(args, parser)
    # argument errors exit 2 before any solve: the regime's (p, q) and the grid
    try:
        spec = SweepSpec(regime=args.regime, N=args.N, q=args.q,
                         p=None if args.p_critical else args.p, grid_min=args.eps_min,
                         grid_max=args.eps_max, ratio=args.ratio, shoot=shoot)
        predict_exponents(spec.regime, spec.N, spec.p_value(), spec.q)
        spec.grid()
    except ValueError as exc:
        parser.error(str(exc))
    try:
        report = sweep(spec)
    except _SWEEP_FAILURES as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    cfg = {
        "regime": spec.regime, "N": spec.N, "p": spec.p_value(), "q": spec.q,
        "grid_min": spec.grid_min, "grid_max": spec.grid_max, "ratio": spec.ratio,
    }
    record = report_record(report, cfg)
    if args.out:
        args.out.write_bytes(serialize(record))
    if args.csv:
        args.csv.write_text(sweep_csv(report))
    n_ok = len(report.converged_points())
    print(f"sweep {spec.regime} N={spec.N} p={spec.p_value():g} q={spec.q:g}: "
          f"{n_ok}/{len(report.points)} points converged")
    for name, fit in report.fits.items():
        pred = ""
        if math.isfinite(fit.predicted_exponent):
            pred = f"  (predicted {fit.predicted_exponent:+.6g})"
        print(f"  {name}: exponent {fit.exponent:+.6g} log_power {fit.log_power:+.4g} "
              f"r2 {fit.r2:.6f}{pred}")
    if args.emit_plot_data and "amplitude" in report.fits:
        fit = report.fits["amplitude"]
        lines = ["x,y,fit"]
        for pt in report.converged_points():
            model = fit.intercept + fit.exponent * math.log(pt.x)
            if fit.log_power:
                model += fit.log_power * math.log(math.log(1.0 / pt.x))
            lines.append(f"{pt.x!r},{pt.amplitude!r},{math.exp(model)!r}")
        args.emit_plot_data.write_text("\n".join(lines) + "\n")
    return 0


def _cmd_fit(args, parser) -> int:
    if args.infile is None:
        parser.error("--in is required")
    try:
        record = parse(args.infile.read_bytes())
        out = refit_record(record, args.observable, args.with_log)
    except _FIT_FAILURES as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    print(f"{out['observable']}: exponent {out['exponent']:+.6g} "
          f"log_power {out['log_power']:+.4g} r2 {out['r2']:.6f} "
          f"rms {out['rms_residual']:.3e} ({out['n_points']} points)")
    return 0


def _emden_dimension(args, parser) -> int:
    """--N of the Emden-Fowler commands, 3 if not given; below 3 exits 2."""
    N = 3 if args.N is None else args.N
    if N < 3:
        parser.error(f"need N >= 3, got {N}")
    return N


def _cmd_check(args, parser) -> int:
    if args.suite == "emden":
        N = _emden_dimension(args, parser)
        try:
            s = sobolev_constant(N)
            q = q_star(N)
            w1 = EmdenFowlerProfile(N, 1.0, "W")
            lp = w1.norm_s(critical_exponent(N))
            ok = abs(lp - 1.0) < 1e-8 and 0.0 < q < 1.0
            print(f"S* = {s:.12g}  Q* = {q:.12g}  ||W1||_p*^p* = {lp:.12g}")
        except InternalConsistencyError as exc:
            print(f"emden check failed: {exc}", file=sys.stderr)
            return 1
        return 0 if ok else 1
    params = _resolve_params(args, parser)
    ctrl = _shoot_controls(args, parser)
    if not 0.0 < args.tol < math.inf:
        parser.error(f"--tol must be positive and finite, got {args.tol}")
    try:
        sol = solve_ground_state(params, ctrl)
    except _SOLVE_FAILURES as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    neh, pok = sol.nehari_residual, sol.pokhozhaev_residual
    rows = []
    if args.suite in ("identities", "nehari"):
        rows.append(("nehari", neh, args.tol))
    if args.suite in ("identities", "pokhozhaev"):
        rows.append(("pokhozhaev", pok, args.tol))
    if args.suite == "kappa":
        w = sol.rescaled_to_frame()
        rep = kappa_identities(w, params.eps)
        rows.append(("kappa_lq", rep.lq_residual, max(args.tol, 1e-4)))
        rows.append(("kappa_lp", rep.lp_residual, max(args.tol, 1e-4)))
        rows.append(("constraint", abs(constraint_value(w) - 1.0), 1e-5))
    status = 0
    for name, val, tol in rows:
        mark = "ok" if val < tol else "FAIL"
        if mark == "FAIL":
            status = 1
        print(f"{name:12s} residual {val:.3e}  (tol {tol:.1e})  {mark}")
    return status


def _cmd_emden(args, parser) -> int:
    N = _emden_dimension(args, parser)
    s = sobolev_constant(N)
    q = q_star(N)
    u1 = EmdenFowlerProfile(N, 1.0, "U")
    w1 = EmdenFowlerProfile(N, 1.0, "W")
    ps = critical_exponent(N)
    print(f"N = {N}   p* = {ps:.12g}")
    print(f"U1(0) = {u1.amplitude():.12g}")
    print(f"S* = {s:.12g}")
    print(f"Q* = {q:.12g}")
    print(f"||grad U1||_2^2 = {u1.dirichlet_sq():.12g}   (= S*^(N/2) = {s ** (N / 2.0):.12g})")
    print(f"||U1||_p*^p* = {u1.norm_s(ps):.12g}")
    print(f"||W1||_p* = {w1.norm_s(ps) ** (1.0 / ps):.12g}")
    print(f"||grad W1||_2^2 = {w1.dirichlet_sq():.12g}")
    if N >= 5:
        print(f"||W1||_2^2 = {w1.norm_s(2.0):.12g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args, parser = _parse_args(argv)
    cmd = {
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "fit": _cmd_fit,
        "check": _cmd_check,
        "emden": _cmd_emden,
    }[args.command]
    return cmd(args, parser)


if __name__ == "__main__":
    sys.exit(main())
