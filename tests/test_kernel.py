"""The C step kernel against the Python shot it is written after.

``ode.integrate`` runs a whole shot in ``_dop853.c``: the series start, the
step loop and the event refinement, then, with quadrature, the dense pass.
``dop853_reference.integrate`` is the same shot in Python (``_start``, the
loop, ``_refine``, the numpy ``_dense_pass``).  On every call the two must
agree to the bit: radii, values, slopes, the 8 node rows (r, u, u', the
weight and the four norm terms), terminal event and radius, and RHS evaluations,
the message and partial trajectory of an IntegrationFailure included, and
an argument's ValueError the same by its repr.  A call
without quadrature is also run as a search shot, ``ode.Shot.end``, on a Shot
that the calls of its (params, r_max, tol) share: its last two rows,
terminal event and radius and RHS evaluations must be those of both runs,
bit for bit, a failure's partial and an exception included.  The calls are
every shot of the benchmark's solve_mix seeds 1-3 and sweep_chain seed 1 and
of the solves and sweeps ``test_golden.py`` pins (captured at shooting.Shot
and shooting.integrate), and the paths those leave out: underflow, step
budget, step collapse, a power that overflows, the arithmetic stop of a
division by zero in the loop or of a series start that raises (a failure
without rows), the start's argument errors, the settled stop switched off,
a grid refilled on every step, and dense passes after each refined event,
on a one-point grid, for N = 3 to 8 and where |u|^q underflows to 0.  One
Shot used again gives a fresh run's bits after a shot that refilled its
grid, raised or failed.  Where the kernel cannot be built or loaded,
importing ``gslab`` fails.
"""

import ctypes
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gslab import _native, functionals, ode, records
from gslab.asymptotics import sweep
from gslab.ode import IntegrationFailure, StepControls, TerminalEvent
from gslab.params import Family, ProblemParams

import dop853_reference
from conftest import route_shots
from test_golden import CRITICAL_READ_SIDE, GOLDEN, HINTED_SWEEPS, hinted_sweep_spec

ROOT = Path(__file__).resolve().parents[1]


def _outcome(integrate, call):
    """("done", trajectory), (failure message, partial) or (an argument's
    ValueError, None)."""
    try:
        return "done", integrate(*call)
    except IntegrationFailure as exc:
        return str(exc), exc.partial
    except ValueError as exc:
        return repr(exc), None


def _bits(t):
    """A trajectory's bits; a start that failed has no rows, so no radius."""
    arrays = (t.radii, t.values, t.slopes, t.nodes)
    return (t.terminal_event, len(t.radii) and t.terminal_radius.hex(), t.rhs_evals,
            [None if x is None else x.tobytes() for x in arrays])


def _end_bits(e):
    """A ShotEnd's bits; its rows and terminal radius are Python floats."""
    assert type(e) is ode.ShotEnd
    rows = (*e.radii, *e.values, *e.slopes, *e.radii[-1:])   # radii[-1:]: the terminal radius
    if e.radii:
        assert e.terminal_radius is e.radii[-1]
    assert {type(x) for x in rows} <= {float}
    return e.terminal_event, [x.hex() for x in rows], e.rhs_evals


def assert_same_bits(call, shot=None):
    """The kernel and the reference on one integrate call: the same outcome,
    bit for bit.  Without quadrature also Shot.end on ``shot`` (a fresh Shot
    if None): the same outcome, and the two runs' ends."""
    (c_end, c), (py_end, py) = (_outcome(ode.integrate, call),
                                _outcome(dop853_reference.integrate, call))
    assert c_end == py_end, call
    if py is not None:
        assert len(c.radii) == 0 or type(c.terminal_radius) is float
        assert _bits(c) == _bits(py), call
    params, a, r_max, tol = call
    if not tol.with_quadrature:
        end, e = _outcome((shot or ode.Shot(params, r_max, tol)).end, (a,))
        assert end == py_end, call
        if py is not None:
            assert _end_bits(e) == _end_bits(dop853_reference.shot_end(py)), call
            assert _end_bits(e) == _end_bits(dop853_reference.shot_end(c)), call
    return py_end, py


@pytest.fixture(scope="module")
def captured_calls():
    """Every shot of solve_mix seeds 1-3 ("solve_mix"), of sweep_chain seed
    1 ("sweep_chain"), and of the solves and sweeps test_golden pins
    ("golden"): (params, a, r_max, tol) each."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    calls = []

    def recorded(real, params, a, r_max, tol):
        calls.append((params, a, r_max, tol))
        return real(params, a, r_max, tol)

    captured = {}
    with pytest.MonkeyPatch.context() as m:
        route_shots(m, recorded)
        for seed in (1, 2, 3):
            for params in workloads.SolveMix(seed, None).inputs:
                functionals.solve_ground_state(params)
        captured["solve_mix"], calls = calls, []
        for spec, _, _ in workloads.SweepChain(1, None).sweeps:
            sweep(spec)
        captured["sweep_chain"], calls = calls, []
        for case in GOLDEN:
            functionals.solve_ground_state(case.values[0])
        functionals.solve_ground_state(CRITICAL_READ_SIDE)
        for case in HINTED_SWEEPS:
            sweep(hinted_sweep_spec(case.values[0]))
        captured["golden"] = calls
    return captured


def _check_calls(calls):
    """assert_same_bits on each call, in order, a call without quadrature on
    the Shot of its (params, r_max, tol) that the calls before it used; the
    (terminal event, kind of run) seen, the RHS evaluations and the dense
    passes (runs with quadrature)."""
    seen = set()
    shots = {}
    rhs = quad = 0
    for call in calls:
        params, _, r_max, tol = call
        key = params, r_max, tol
        if key not in shots and not tol.with_quadrature:
            shots[key] = ode.Shot(*key)
        _, t = assert_same_bits(call, shots.get(key))
        kind = t.terminal_event
        if kind is TerminalEvent.REACHED_RMAX and t.terminal_radius < r_max:
            kind = "settled"
        seen.add((kind, "quad" if tol.with_quadrature else "loose" if tol.rtol > 1e-8
                  else "tight"))
        rhs += t.rhs_evals
        quad += tol.with_quadrature
    return seen, rhs, quad


def test_benchmark_calls_match_bit_for_bit(captured_calls):
    seen, rhs_mix, quad_mix = _check_calls(captured_calls["solve_mix"])
    seen_chain, _, quad_chain = _check_calls(captured_calls["sweep_chain"])
    # the deterministic counters of solve_mix seeds 1-3 (84 solves), and the
    # dense passes among all the calls (final passes and their retries)
    assert (len(captured_calls["solve_mix"]), rhs_mix) == (997, 613_378)   # 7302 per solve
    assert quad_mix + quad_chain == 107
    for path in [(TerminalEvent.ZERO_CROSSING, "loose"), (TerminalEvent.ZERO_CROSSING, "tight"),
                 (TerminalEvent.SLOPE_SIGN_FLIP, "quad"), (TerminalEvent.REACHED_RMAX, "quad"),
                 ("settled", "tight"), (TerminalEvent.SLOPE_SIGN_FLIP, "loose")]:
        assert path in seen | seen_chain, path


def test_golden_calls_match_bit_for_bit(captured_calls):
    # the goldens are pinned on the kernel; this puts the reference under
    # the same pins.  Each of the 5 solves, and each sweep's reference solve
    # and 8 points, ends in one dense pass (its final pass)
    _, _, quad = _check_calls(captured_calls["golden"])
    assert quad == len(GOLDEN) + 1 + 9 * len(HINTED_SWEEPS)


R_ZERO = ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO)
P_EPS = ProblemParams(3, 4.0, 6.0, 1e-2, Family.P_EPS)
P_ZERO = ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO)
TIGHT = StepControls(atol=1e-14, rtol=1e-12)
QUAD = replace(TIGHT, with_quadrature=True)

# (call, outcome): the paths the benchmark's calls leave out.  The R_zero
# amplitude is its a*, the P_zero ones are a* and 1 +- 1% of it; P_eps
# shots from 1e4 and 1e8 take trial steps whose stage powers overflow.  The
# start raises ValueError on a = 0, a NaN a or r_max = 0, and fails without
# rows where the reference's _start raises: where the series' powers
# overflow (a = 1e100), and where the series coefficients overflow to inf,
# so that the hand-off radius is 0 and (N-1)/r0 divides by zero (a = 1e31).
ARITH = "arithmetic failed at r="
PATHS = {
    "underflow": ((R_ZERO, 4.337387679977127, 50.0, TIGHT), "done"),
    "underflow-quad": ((R_ZERO, 4.337387679977127, 50.0, QUAD), "done"),
    "budget": ((R_ZERO, 3.3, 50.0, StepControls(max_steps=12)), "step budget 12 exhausted"),
    "budget-quad": ((R_ZERO, 3.3, 50.0, StepControls(max_steps=12, with_quadrature=True)),
                    "step budget 12 exhausted"),
    "collapse-first": ((R_ZERO, 3.3, 50.0, StepControls()), "step size collapsed"),
    "collapse-quad": ((R_ZERO, 3.3, 50.0, StepControls(with_quadrature=True)),
                      "step size collapsed"),
    "pow-overflow": ((P_EPS, 1e4, 500.0, StepControls()), "done"),
    "pow-overflow-collapse": ((P_EPS, 1e8, 500.0, StepControls()), "step size collapsed"),
    "zero-division": ((P_EPS, 0.5, 500.0, StepControls(atol=0.0, rtol=0.0)), ARITH),
    "zero-division-quad": ((P_EPS, 0.5, 500.0, StepControls(atol=0.0, rtol=0.0,
                                                            with_quadrature=True)), ARITH),
    "amplitude-zero": ((P_EPS, 0.0, 500.0, StepControls()),
                       "ValueError('amplitude must be positive, got 0.0')"),
    "amplitude-nan": ((P_EPS, math.nan, 500.0, StepControls()),
                      "ValueError('amplitude must be positive, got nan')"),
    "r_max-zero": ((P_EPS, 0.75, 0.0, StepControls()),
                   "ValueError('r_max must be positive, got 0.0')"),
    "series-overflow": ((P_EPS, 1e100, 500.0, StepControls()), ARITH + "0: "),
    "handoff-zero-division": ((P_EPS, 1e31, 500.0, StepControls()), ARITH + "0: "),
    "r_max": ((P_ZERO, 0.9, 1e6, TIGHT), "done"),
    "settled": ((P_ZERO, 0.98, 1e6, TIGHT), "done"),
    "quad-to-r_max": ((P_ZERO, 0.9704323868577163, 1e6, QUAD), "done"),
    # dense passes whose last step a refined event moved (underflow-quad
    # above), a one-step pass, and the r^(N-1) weights for N = 3 to 8
    "zero-crossing-quad": ((P_EPS, 0.75, 500.0, QUAD), "done"),
    "slope-flip-quad": ((P_EPS, 0.4, 500.0, QUAD), "done"),
    "one-step-quad": ((ProblemParams(3, 2.5, 4.0, 1e-2, Family.P_EPS), 1.0, 500.0, QUAD), "done"),
    **{f"N{N}-quad": ((ProblemParams(N, 2.5, 4.0, 1e-2, Family.P_EPS), 0.5, 500.0, QUAD), "done")
       for N in range(3, 9)},
    # |u|^12 underflows to 0 at every node, |u|^8 does not
    "power-underflow-quad": ((P_ZERO, 1e-30, 1e6, QUAD), "done"),
}
# the module constants a path sets on ode, where both shots read them
CONSTANTS = {"underflow": {"_UNDERFLOW_FACTOR": 1e-8},
             "underflow-quad": {"_UNDERFLOW_FACTOR": 1e-8},
             "collapse-first": {"_MIN_STEP": 1.0}, "collapse-quad": {"_MIN_STEP": 1.0}}
EVENTS = {"underflow": TerminalEvent.UNDERFLOW, "underflow-quad": TerminalEvent.UNDERFLOW,
          "zero-crossing-quad": TerminalEvent.ZERO_CROSSING,
          "slope-flip-quad": TerminalEvent.SLOPE_SIGN_FLIP,
          "one-step-quad": TerminalEvent.SLOPE_SIGN_FLIP,
          **{f"N{N}-quad": TerminalEvent.ZERO_CROSSING for N in range(3, 9)}}


@pytest.mark.parametrize("grid0", [ode._GRID0, 1], ids=["grid", "refill-every-step"])
@pytest.mark.parametrize("name", list(PATHS))
def test_paths_match_bit_for_bit(name, grid0, monkeypatch):
    call, expected = PATHS[name]
    monkeypatch.setattr(ode, "_GRID0", grid0)
    for constant, value in CONSTANTS.get(name, {}).items():
        monkeypatch.setattr(ode, constant, value)
    overflows = []
    kernel = ode._kernel

    def counted(*args):   # the kernel, counting the trial steps a power overflow shrank
        code = kernel.loop(*args)
        overflows.append(ctypes.c_int64.from_address(args[3] + 8 * 6).value)   # C_OVERFLOWS
        return code

    monkeypatch.setattr(ode, "_kernel", kernel._replace(loop=counted))
    end, t = assert_same_bits(call)
    assert end.startswith(expected)
    # (no kernel call where an argument is rejected)
    assert (max(overflows, default=0) > 0) == name.startswith("pow-overflow")
    if name in EVENTS:
        assert t.terminal_event is EVENTS[name]
    if name == "settled":
        assert t.terminal_radius < call[2]
    if name.endswith("quad"):
        assert t.nodes.shape[0] == 8
    if name.startswith("zero-division"):   # the first step's error norm divides by zero
        assert len(t.radii) == 1 and t.rhs_evals == 13
    if name == "collapse-quad":   # the dense pass of a grid of one point
        assert len(t.radii) == 1
    if name == "one-step-quad":
        assert len(t.radii) == ode._SUB + 1
    if name == "power-underflow-quad":
        assert t.nodes[6].sum() == 0.0 < t.nodes[5].sum()   # the w |u|^q and w |u|^p rows
    if name in ("series-overflow", "handoff-zero-division"):   # the start raises
        with pytest.raises((OverflowError, ZeroDivisionError)):
            dop853_reference._start(*call)
        assert len(t.radii) == t.rhs_evals == 0 and t.nodes is None
    if name == "handoff-zero-division":
        assert ode.default_handoff_radius(ode.series_coefficients(*call[:2]), call[2]) == 0.0


def test_settled_stop_off_reads_settle_g_at_call_time(monkeypatch):
    monkeypatch.setattr(ode, "_SETTLE_G", 0.0)   # no step settles
    _, t = assert_same_bits(PATHS["settled"][0])
    assert t.terminal_event is TerminalEvent.ZERO_CROSSING   # the overshoot runs on


# One Shot per row: its amplitudes in order, each with the start of its
# outcome.  P_zero: a run to r_max, then the shorter settled and
# undershooting runs; P_eps: shots after each of the start's failures and
# argument errors and after a collapse; R_zero at a step budget (None: set
# from a run) that the shot at 3.3 spends to the last step and the one at
# 4.3 exceeds, so that a step count left over from a shot before fails it
REUSED = {
    "refill-then-shorter": (P_ZERO, 1e6, TIGHT, [
        (0.9, "done"), (0.98, "done"), (0.9704323868577163, "done"), (0.9, "done"),
        (0.98, "done")]),
    "after-raised": (P_EPS, 500.0, StepControls(), [
        (1e100, ARITH), (0.75, "done"), (1e31, ARITH), (0.4, "done"),
        (0.0, "ValueError"), (0.75, "done"), (math.nan, "ValueError"), (1e4, "done"),
        (1e8, "step size collapsed"), (0.4, "done")]),
    "after-failed": (R_ZERO, 50.0, None, [
        (3.3, "done"), (4.3, "step budget"), (3.3, "done"), (3.3, "done")]),
}


@pytest.mark.parametrize("grid0", [ode._GRID0, 8], ids=["grid", "refills"])
@pytest.mark.parametrize("name", list(REUSED))
def test_reused_shot_matches_fresh_runs(name, grid0, monkeypatch):
    params, r_max, tol, shots = REUSED[name]
    monkeypatch.setattr(ode, "_GRID0", grid0)
    if tol is None:
        probe = ode.Shot(params, r_max)
        probe.end(shots[0][0])
        tol = StepControls(max_steps=probe._cnt[2])   # the steps that shot took
    shot = ode.Shot(params, r_max, tol)
    for a, expected in shots:
        end, _ = assert_same_bits((params, a, r_max, tol), shot)
        assert end.startswith(expected), a
    if grid0 < ode._GRID0:
        assert shot._cap > grid0   # a refilled grid


def _import_error(tmp_path):
    """The message and cause of ode._load_kernel's ImportError, checked to
    name the compiler command and the cache directory (under tmp_path)."""
    with pytest.raises(ImportError) as exc:
        ode._load_kernel()
    message = str(exc.value)
    assert shlex.join(_native._compiler()) in message
    assert f"cache directory {_native.cache_dir()} ($GSLAB_CACHE_DIR" in message
    assert _native.cache_dir().is_relative_to(tmp_path)
    return message, exc.value.__cause__


@pytest.mark.parametrize("compiler, reason", [
    ([sys.executable, "-c", "import sys; sys.stderr.write('cc: error: no kernel here\\n'); "
      "raise SystemExit(3)"], "the compiler exited with status 3\ncc: error: no kernel here"),
    (["/nonexistent/cc"], "No such file or directory: '/nonexistent/cc'"),
], ids=["fails", "missing"])
def test_failed_build_fails_the_import(compiler, reason, monkeypatch, tmp_path):
    monkeypatch.setenv("GSLAB_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(_native, "_compiler", lambda: compiler)
    message, cause = _import_error(tmp_path)
    assert isinstance(cause, OSError)
    assert reason in message
    assert not list(tmp_path.iterdir())   # no library, no temporary file left


def test_library_that_does_not_load_fails_the_import(monkeypatch, tmp_path):
    monkeypatch.setenv("GSLAB_CACHE_DIR", str(tmp_path))
    lib, _ = _native.library_path(ode._SOURCE)
    lib.write_text("not a shared library")   # a cached library is loaded as it is
    message, cause = _import_error(tmp_path)
    assert isinstance(cause, OSError) and str(cause) in message


def test_library_without_an_entry_point_fails_the_import(monkeypatch, tmp_path):
    source = tmp_path / "loop_only.c"
    source.write_text("int dop853_loop(void) { return 0; }\n")
    monkeypatch.setenv("GSLAB_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(ode, "_SOURCE", source)
    message, cause = _import_error(tmp_path)
    assert isinstance(cause, AttributeError)
    assert "dop853_dense" in message


def test_unwritable_cache_fails_the_import(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    cache = blocker / "cache"
    env = {**os.environ, "GSLAB_CACHE_DIR": str(cache), "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", "import gslab"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    error = out.stderr.strip().splitlines()
    assert any(line.startswith("ImportError: gslab cannot run without its C kernel")
               for line in error), out.stderr
    assert f"cache directory {cache} ($GSLAB_CACHE_DIR" in out.stderr
    assert shlex.join(_native._compiler()) in out.stderr


def test_edited_kernel_gets_a_new_library_and_revision(tmp_path):
    package = Path(ode.__file__).parent
    for path in records._source_files(package):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    assert "_dop853.c" in [p.name for p in records._source_files(package)]
    assert records._sources_digest(tmp_path) == records.solver_revision()
    lib, _ = _native.library_path(tmp_path / "_dop853.c")
    assert lib == _native.library_path(ode._SOURCE)[0]

    edited = tmp_path / "_dop853.c"
    edited.write_bytes(edited.read_bytes() + b"/* edited */\n")
    assert records._sources_digest(tmp_path) != records.solver_revision()
    assert _native.library_path(edited)[0] != lib
