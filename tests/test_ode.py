import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from gslab import (
    Family,
    IntegrationFailure,
    ProblemParams,
    StepControls,
    TerminalEvent,
    integrate,
    rhs_eval,
    series_start,
)
from gslab import ode
from gslab.ode import series_coefficients, series_piece

R_ZERO_34 = ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO)


def test_rhs_zero_state_fixed_point():
    # u = 0, du = 0 is an equilibrium for every family
    prm = ProblemParams(3, 6.0, 10.0, 0.0, Family.P_EPS)
    assert rhs_eval(prm, 1.0, 0.0, 0.0) == 0.0


def test_rhs_unit_amplitude_r_zero():
    # u = 1 kills the p-term against the linear term: -(2/1)*0 + 1 - 1 = 0
    assert rhs_eval(R_ZERO_34, 1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_rhs_against_scalar_oracle():
    # independent scalar evaluation of -(4/2)(-0.1) + 0.01*0.5 - 0.5^(7/3) + 0.5^5
    import mpmath

    prm = ProblemParams(5, 10.0 / 3.0, 6.0, 0.01, Family.P_EPS)
    got = rhs_eval(prm, 2.0, 0.5, -0.1)
    mp = mpmath.mpf
    expect = -(mp(4) / 2) * mp("-0.1") + mp("0.01") * mp("0.5") \
        - mp("0.5") ** (mp(7) / 3) + mp("0.5") ** 5
    assert got == pytest.approx(float(expect), rel=1e-14)


@pytest.mark.parametrize("bad", [
    (float("nan"), 0.5, 0.0),
    (1.0, float("inf"), 0.0),
    (1.0, 0.5, float("nan")),
    (0.0, 0.5, 0.0),
])
def test_rhs_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        rhs_eval(R_ZERO_34, *bad)


def test_series_start_equilibrium_is_flat():
    # f(1) = 1 - 1 = 0 for R_zero, so the hand-off is (1, 0)
    u, du = series_start(R_ZERO_34, 1.0, 1e-3)
    assert u == 1.0
    assert du == 0.0


def test_series_start_matches_fine_integration():
    # oracle: DOP853 from a much smaller hand-off radius
    prm = ProblemParams(5, 10.0 / 3.0, 6.0, 0.1, Family.P_EPS)
    a, r0 = 0.5, 1e-3
    u, du = series_start(prm, a, r0)

    def rhs(r, y):
        return [y[1], rhs_eval(prm, r, y[0], y[1])]

    tiny = 1e-6
    y0 = series_start(prm, a, tiny)
    sol = solve_ivp(rhs, (tiny, r0), y0, method="DOP853", rtol=1e-13, atol=1e-16)
    assert u == pytest.approx(sol.y[0, -1], abs=1e-10)
    assert du == pytest.approx(sol.y[1, -1], abs=1e-10)


# the four golden solves: (params, amplitude)
GOLDEN_STARTS = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS), "0x1.bb150da6ee784p-1",
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO), "0x1.f0dc8389107dap-1",
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO), "0x1.1597c27ee4ce7p+2",
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS), "0x1.0b612fe40a280p+2",
                 id="R_eps-N3-p4-q6-eps1e-2"),
]


@pytest.mark.parametrize("prm, amplitude", GOLDEN_STARTS)
def test_series_hand_off_matches_fine_integration(prm, amplitude):
    # the state every shot starts from, at the hand-off radius integrate
    # takes, against scipy's DOP853 run from r = 1e-6 at rtol 1e-13 / atol
    # 1e-16: u within 2e-15 a (6.4e-16 a measured) and u' within 1e-12
    # relative (1.5e-13 measured, the oracle's own rtol)
    from gslab import ShootControls, shooting
    from gslab.ode import default_handoff_radius

    a = float.fromhex(amplitude)
    r_max = shooting._default_r_max(prm, ShootControls())
    coeffs = series_coefficients(prm, a)
    r0 = default_handoff_radius(coeffs, r_max)
    u, du = series_piece(coeffs, r0)
    t = integrate(prm, a, r_max)
    assert (t.radii[0], t.values[0], t.slopes[0]) == (r0, u, du)
    tiny = 1e-6
    sol = solve_ivp(lambda r, y: [y[1], rhs_eval(prm, r, y[0], y[1])], (tiny, r0),
                    series_piece(coeffs, tiny), method="DOP853", rtol=1e-13, atol=1e-16)
    assert u == pytest.approx(sol.y[0, -1], rel=0.0, abs=2e-15 * a)
    assert du == pytest.approx(sol.y[1, -1], rel=1e-12, abs=0.0)


def test_series_start_rejects_nonpositive_amplitude():
    with pytest.raises(ValueError):
        series_start(R_ZERO_34, -1.0, 1e-3)
    with pytest.raises(ValueError):
        series_start(R_ZERO_34, 1.0, 0.0)


def test_overshoot_for_huge_amplitude():
    # 10x the first positive zero of F(u) = u^4/4 - u^2/2 overshoots
    u_f = (4.0 / 2.0) ** 0.5
    t = integrate(R_ZERO_34, 10.0 * u_f, 50.0)
    assert t.terminal_event is TerminalEvent.ZERO_CROSSING
    # the last value brackets zero with its predecessor
    assert t.values[-2] > 0.0 >= t.values[-1]


def test_undershoot_for_tiny_amplitude():
    # below the positive root of f the trajectory rebounds
    t = integrate(R_ZERO_34, 0.5, 50.0)
    assert t.terminal_event is TerminalEvent.SLOPE_SIGN_FLIP
    assert t.values[-1] > 0.0


def test_near_ground_state_runs_deep():
    # bisect the amplitude with the same step controls, then confirm the
    # converged trajectory decays to < 1e-8 of the amplitude before stopping
    tol = StepControls()
    lo, hi = 4.0, 5.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ev = integrate(R_ZERO_34, mid, 60.0, tol).terminal_event
        if ev is TerminalEvent.ZERO_CROSSING:
            hi = mid
        elif ev is TerminalEvent.SLOPE_SIGN_FLIP:
            lo = mid
        else:
            lo = hi = mid
            break
    a = 0.5 * (lo + hi)
    assert a == pytest.approx(4.337387679977, rel=1e-6)
    t = integrate(R_ZERO_34, a, 60.0, tol)
    assert t.values.min() < 1e-8 * a


def test_discrete_energy_dissipates():
    # E(r) = u'^2/2 + F(u) only decreases (friction term), within 1e-6 rel
    prm = ProblemParams(3, 6.0, 10.0, 1e-2, Family.P_EPS)
    t = integrate(prm, 0.8, 200.0)
    E = 0.5 * t.slopes**2 + np.array([prm.F(u) for u in t.values])
    scale = max(abs(E[0]), 1.0)
    assert np.all(np.diff(E) <= 1e-6 * scale)


def test_integrate_deterministic():
    t1 = integrate(R_ZERO_34, 3.3, 50.0)
    t2 = integrate(R_ZERO_34, 3.3, 50.0)
    assert np.array_equal(t1.radii, t2.radii)
    assert np.array_equal(t1.values, t2.values)
    assert np.array_equal(t1.slopes, t2.slopes)
    assert t1.terminal_radius == t2.terminal_radius


def test_tolerance_halving_convergence():
    # halving tolerances moves checkpoint values by less than 10x the
    # tolerance; the window stops before any terminal event
    base = StepControls(atol=1e-8, rtol=1e-6)
    for r in (0.5, 1.0, 1.5, 1.9):
        t1 = integrate(R_ZERO_34, 4.0, r, base)
        t2 = integrate(R_ZERO_34, 4.0, r, replace(base, atol=0.5 * base.atol,
                                                  rtol=0.5 * base.rtol))
        assert t1.terminal_event is TerminalEvent.REACHED_RMAX
        assert t2.terminal_event is TerminalEvent.REACHED_RMAX
        u1, u2 = t1.values[-1], t2.values[-1]
        assert abs(u1 - u2) < 10.0 * (base.atol + base.rtol * abs(u1))


def test_min_step_collapse_carries_partial_trajectory(monkeypatch):
    monkeypatch.setattr(ode, "_MIN_STEP", 1.0)
    with pytest.raises(IntegrationFailure) as exc:
        integrate(R_ZERO_34, 3.3, 50.0)
    partial = exc.value.partial
    assert len(partial.radii) >= 1
    assert partial.radii[0] > 0.0


def test_event_radius_refined():
    # crossing radius from the dense-output bisection agrees with a tight
    # re-integration to within the event tolerance
    t = integrate(R_ZERO_34, 6.0, 50.0)
    tight = integrate(R_ZERO_34, 6.0, 50.0, StepControls(atol=1e-13, rtol=1e-11))
    assert t.terminal_event is TerminalEvent.ZERO_CROSSING
    assert t.terminal_radius == pytest.approx(tight.terminal_radius, abs=1e-7)


def test_quadrature_accumulators_monotone():
    # the norm-term rows, one term per node, are nonnegative: the norms summed
    # up to each grid radius grow with it
    tol = StepControls(with_quadrature=True)
    t = integrate(R_ZERO_34, 4.0, 50.0, tol)
    assert t.nodes.shape == (8, ode._BALL_NODES + len(ode._GX) * (len(t.radii) - 1))
    assert np.all(t.nodes[4:] >= 0.0)


# one small case per terminal event: (amplitude, r_max, step controls)
EVENT_CASES = {
    TerminalEvent.ZERO_CROSSING: (6.0, 50.0, StepControls()),
    TerminalEvent.SLOPE_SIGN_FLIP: (4.0, 30.0, StepControls()),
    TerminalEvent.UNDERFLOW: (4.337387679977, 60.0, StepControls()),
    TerminalEvent.REACHED_RMAX: (4.0, 1.9, StepControls()),
}


def _event_case(event, monkeypatch):
    """EVENT_CASES[event]; the Underflow case also raises ode's underflow
    floor to 1e-4 of the amplitude."""
    if event is TerminalEvent.UNDERFLOW:
        monkeypatch.setattr(ode, "_UNDERFLOW_FACTOR", 1e-4)
    return EVENT_CASES[event]


@pytest.mark.parametrize("event", list(EVENT_CASES), ids=lambda e: e.value)
def test_quadrature_mode_does_not_change_trajectory(event, monkeypatch):
    # the stepping sequence is identical with and without norm accumulation:
    # the quadrature run's grid is the lean run's steps, each followed by the
    # interpolant at _SUB - 1 interior points, and its extra RHS evaluations
    # are the three extra stages of every step's interpolant
    from gslab.ode import _SUB

    a, r_max, tol = _event_case(event, monkeypatch)
    lean = integrate(R_ZERO_34, a, r_max, tol)
    quad = integrate(R_ZERO_34, a, r_max, replace(tol, with_quadrature=True))
    assert lean.terminal_event is quad.terminal_event is event
    assert lean.terminal_radius == quad.terminal_radius
    steps = len(lean.radii) - 1
    assert quad.rhs_evals == lean.rhs_evals + 3 * steps
    assert len(quad.radii) == _SUB * steps + 1
    assert np.array_equal(lean.radii, quad.radii[::_SUB])
    assert np.array_equal(lean.values, quad.values[::_SUB])
    assert np.array_equal(lean.slopes, quad.slopes[::_SUB])
    assert np.all(np.diff(quad.radii) > 0.0)


def test_trajectory_against_scipy_dop853():
    # independent cross-validation of the custom stepper over a full window
    prm = ProblemParams(3, 6.0, 10.0, 1e-2, Family.P_EPS)
    mine = integrate(prm, 0.8, 12.0, StepControls(atol=1e-13, rtol=1e-11))

    def rhs(r, y):
        return [y[1], rhs_eval(prm, r, y[0], y[1])]

    y0 = series_start(prm, 0.8, mine.radii[0])
    ref = solve_ivp(rhs, (mine.radii[0], 12.0), y0, method="DOP853",
                    rtol=1e-13, atol=1e-15)
    assert mine.terminal_event is TerminalEvent.REACHED_RMAX
    assert mine.values[-1] == pytest.approx(ref.y[0, -1], abs=2e-11)
    assert mine.slopes[-1] == pytest.approx(ref.y[1, -1], abs=2e-11)


def test_dense_output_consistent_with_reintegration():
    # u at an off-grid radius (cubic Hermite on the stored grid) agrees with
    # integrating exactly to that radius
    from gslab import find_ground_state

    prof = find_ground_state(R_ZERO_34)
    for r in (1.37, 3.141, 6.5):
        direct = integrate(R_ZERO_34, prof.amplitude, r,
                           StepControls(atol=1e-13, rtol=1e-11)).values[-1]
        assert prof.value(r) == pytest.approx(direct, rel=1e-5)


def _norm_ends(t):
    """The four norms' integrals over the grid: the sums of its norm-term rows."""
    return t.nodes[4:].sum(axis=1)


def _tighter(tol, factor=100.0):
    return replace(tol, with_quadrature=True, atol=tol.atol / factor, rtol=tol.rtol / factor)


@pytest.mark.parametrize("event", list(EVENT_CASES), ids=lambda e: e.value)
def test_panel_norms_match_tighter_run(event, monkeypatch):
    # the norms summed on a run's node rows against those of a run at 100x
    # tighter step controls: within 2e-9 relative at the default controls
    # (1.0e-9 measured), whichever event ends the run
    a, r_max, tol = _event_case(event, monkeypatch)
    t = integrate(R_ZERO_34, a, r_max, replace(tol, with_quadrature=True))
    ref = integrate(R_ZERO_34, a, r_max, _tighter(tol))
    assert t.terminal_event is ref.terminal_event is event
    np.testing.assert_allclose(_norm_ends(t), _norm_ends(ref), rtol=2e-9, atol=0.0)


@pytest.mark.parametrize("params", [
    ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
    ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
    ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
    ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
], ids=lambda p: p.family.value)
def test_golden_final_pass_norms_match_tighter_run(params):
    # the golden profiles' norms over the kept grid against a
    # run at 100x tighter step controls to that radius: within 1e-11
    # relative (5.8e-12 measured).  P_zero's L^2 integral diverges like R
    # (the r^-(N-2) tail), and u ~ 1e-6 at R = 1e6 holds atol's 1e-14 only to
    # ~1e-8 relative: within 1e-7 (5.0e-8 measured)
    from gslab import ShootControls, find_ground_state

    prof = find_ground_state(params)
    R = float(prof.grid.radii[-1])
    ref = integrate(params, prof.amplitude, R, _tighter(ShootControls().step))
    assert ref.terminal_event is TerminalEvent.REACHED_RMAX
    got, want = _norm_ends(prof.grid), _norm_ends(ref)
    l2_rtol = 1e-7 if params.family is Family.P_ZERO else 1e-11
    assert got[0] == pytest.approx(want[0], rel=l2_rtol, abs=0.0)
    np.testing.assert_allclose(got[1:], want[1:], rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("tol, min_step", [
    # step budget, mid-run (17 steps)
    (StepControls(with_quadrature=True, max_steps=12), ode._MIN_STEP),
    (StepControls(with_quadrature=True), 1.0),    # collapse before any step
], ids=["budget", "collapse"])
def test_failure_partial_norms_match_tighter_run(tol, min_step, monkeypatch):
    # a failed run's partial grid carries the norms up to its last radius:
    # those of a run at 100x tighter step controls to that radius (the
    # in-ball series piece alone, if the run failed before its first step)
    monkeypatch.setattr(ode, "_MIN_STEP", min_step)
    with pytest.raises(IntegrationFailure) as exc:
        integrate(R_ZERO_34, 3.3, 50.0, tol)
    partial = exc.value.partial
    R = float(partial.radii[-1])
    got = _norm_ends(partial)
    if len(partial.radii) == 1:
        from scipy.integrate import quad

        coeffs, N = series_coefficients(R_ZERO_34, 3.3), R_ZERO_34.N

        def ball(g):
            return quad(lambda r: g(*series_piece(coeffs, r)) * r ** (N - 1), 0.0, R,
                        epsabs=0.0, epsrel=1e-13)[0]

        want = [ball(lambda u, du, s=s: abs(u) ** s) for s in (2.0, R_ZERO_34.p, R_ZERO_34.q)]
        want.append(ball(lambda u, du: du * du))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        return
    # at the default step controls: within 1e-8 relative (4.2e-9 measured)
    ref = integrate(R_ZERO_34, 3.3, R, _tighter(replace(tol, max_steps=5_000_000)))
    np.testing.assert_allclose(got, _norm_ends(ref), rtol=1e-8, atol=0.0)


def test_dop853_tables_match_scipy():
    # the tableau is written out as literals, so that importing gslab does not
    # import scipy.integrate; here it is checked against scipy's copy of the
    # Hairer-Norsett-Wanner tables
    from scipy.integrate._ivp import dop853_coefficients as ref

    from gslab import ode

    assert np.array_equal(ode._C, ref.C)
    A = np.zeros((16, 16))
    for i, row in enumerate(ode._A):
        assert len(row) == i
        A[i, :i] = row
    assert np.array_equal(A, ref.A)
    assert np.array_equal(ode._B, ref.B)
    assert np.array_equal(ode._E3, ref.E3)
    assert np.array_equal(ode._E5, ref.E5)
    assert np.array_equal(ode._D, ref.D)
    # what integrate leans on: stages 2-5 carry no weight in B, E3, E5, the
    # extra stages or D, nor the FSAL stage in E3 or E5; E3 differs from B
    # only at the stages 1, 9 and 12
    for j in (1, 2, 3, 4):
        assert ref.B[j] == ref.E3[j] == ref.E5[j] == 0.0
        assert not ref.A[13:, j].any() and not ref.D[:, j].any()
    assert ref.E3[12] == ref.E5[12] == 0.0
    assert [j for j in range(12) if ref.E3[j] != ref.B[j]] == [0, 8, 11]


# (amplitude, r_max) per terminal event for the DP45 oracle, at tight step
# controls
ORACLE_TOL = StepControls(atol=1e-13, rtol=1e-11)


@pytest.mark.parametrize("event", list(EVENT_CASES), ids=lambda e: e.value)
def test_dp45_oracle_event_radii_agree(event, monkeypatch):
    # the Dormand-Prince 4(5) integrator gslab shot with before DOP853 stays
    # here as a tolerance oracle: at tight step controls both end on the same
    # event, at the same radius (within 1e-7 relative: 2.4e-8 measured at
    # the underflow, whose start sits on the ground-state amplitude, where
    # the tail amplifies the integration error; 1e-10 elsewhere, the event
    # refinement's tolerance), in the same state, and DOP853 takes under
    # half the RHS evaluations.  The two refinements stop anywhere within
    # event_tol of the event (2.6e-11 relative apart at the zero crossing),
    # so the oracle's state is carried to DOP853's event radius by one
    # first-order step before the states are compared
    from dp45_oracle import integrate as dp45

    a, r_max, tol = _event_case(event, monkeypatch)
    tol = replace(tol, atol=ORACLE_TOL.atol, rtol=ORACLE_TOL.rtol)
    t = integrate(R_ZERO_34, a, r_max, tol)
    _, us, vs, ev, radius, nfev = dp45(R_ZERO_34, a, r_max, tol)
    assert t.terminal_event is ev is event
    assert t.terminal_radius == pytest.approx(radius, rel=1e-7, abs=0.0)
    if event is not TerminalEvent.UNDERFLOW:
        assert t.terminal_radius == pytest.approx(radius, rel=1e-10, abs=0.0)
        dr = t.terminal_radius - radius
        assert t.values[-1] == pytest.approx(us[-1] + vs[-1] * dr, abs=2e-11)
        assert t.slopes[-1] == pytest.approx(
            vs[-1] + rhs_eval(R_ZERO_34, radius, us[-1], vs[-1]) * dr, abs=2e-11)
    assert t.rhs_evals < 0.5 * nfev


def test_dp45_oracle_trajectory_agrees():
    # a P_eps trajectory over a window that ends before any event: DOP853 and
    # the DP45 oracle agree at every radius DOP853 stepped to (the oracle's
    # grid read by cubic Hermite between its own steps) and at the end
    from dp45_oracle import integrate as dp45

    from gslab.shooting import _hermite_eval

    prm = ProblemParams(3, 6.0, 10.0, 1e-2, Family.P_EPS)
    t = integrate(prm, 0.8, 12.0, ORACLE_TOL)
    rs, us, vs, ev, _, _ = dp45(prm, 0.8, 12.0, ORACLE_TOL)
    assert t.terminal_event is ev is TerminalEvent.REACHED_RMAX
    assert t.values[-1] == pytest.approx(us[-1], abs=1e-11)
    assert t.slopes[-1] == pytest.approx(vs[-1], abs=1e-11)
    inner = t.radii[1:-1]
    got = _hermite_eval(np.array(rs), np.array(us), np.array(vs), inner, deriv=False)
    np.testing.assert_allclose(t.values[1:-1], got, rtol=0.0, atol=1e-9)


def test_float_power_rounds_like_python_pow():
    # the final pass's numpy interpolants take their powers from
    # np.float_power because it calls libm's pow, as Python's ** does on the
    # step that refines an event; a numpy build that vectorizes it may round
    # differently and would move the golden bits, so it fails here.  The
    # exponents: N - 1 for N = 3..6, then the p and q of the test and
    # benchmark inputs (and two of the drawn, non-integer kind)
    rng = np.random.default_rng(20121)
    x = np.exp(rng.uniform(math.log(1e-16), math.log(1e6), 20_000))
    for exponent in (2.0, 3.0, 4.0, 5.0,
                     3.0, 10.0 / 3.0, 4.0, 6.0, 8.0, 4.37,
                     5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 12.0, 13.61):
        got = np.float_power(x, exponent)
        want = np.array([v**exponent for v in x.tolist()])
        assert np.array_equal(got, want), exponent
