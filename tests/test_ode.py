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
        t2 = integrate(R_ZERO_34, 4.0, r, base.halved())
        assert t1.terminal_event is TerminalEvent.REACHED_RMAX
        assert t2.terminal_event is TerminalEvent.REACHED_RMAX
        u1, u2 = t1.values[-1], t2.values[-1]
        assert abs(u1 - u2) < 10.0 * (base.atol + base.rtol * abs(u1))


def test_min_step_collapse_carries_partial_trajectory():
    with pytest.raises(IntegrationFailure) as exc:
        integrate(R_ZERO_34, 3.3, 50.0, StepControls(min_step=1.0))
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
    tol = StepControls(with_quadrature=True)
    t = integrate(R_ZERO_34, 4.0, 50.0, tol)
    for arr in (t.norm_l2, t.norm_lp, t.norm_lq, t.norm_dir):
        assert arr is not None and len(arr) == len(t.radii)
        assert np.all(np.diff(arr) >= -1e-300)


# one small case per terminal event: (amplitude, r_max, step controls)
EVENT_CASES = {
    TerminalEvent.ZERO_CROSSING: (6.0, 50.0, StepControls()),
    TerminalEvent.SLOPE_SIGN_FLIP: (4.0, 30.0, StepControls()),
    TerminalEvent.UNDERFLOW: (4.337387679977, 60.0, StepControls(underflow_factor=1e-4)),
    TerminalEvent.REACHED_RMAX: (4.0, 1.9, StepControls()),
}


@pytest.mark.parametrize("event", list(EVENT_CASES), ids=lambda e: e.value)
def test_quadrature_mode_does_not_change_trajectory(event):
    # the stepping sequence is identical with and without norm accumulation;
    # the quadrature run builds the dense output on every step, the lean run
    # only on the step that refines the event
    a, r_max, tol = EVENT_CASES[event]
    lean = integrate(R_ZERO_34, a, r_max, tol)
    quad = integrate(R_ZERO_34, a, r_max, replace(tol, with_quadrature=True))
    assert lean.terminal_event is quad.terminal_event is event
    assert lean.terminal_radius == quad.terminal_radius
    assert lean.rhs_evals == quad.rhs_evals
    assert np.array_equal(lean.radii, quad.radii)
    assert np.array_equal(lean.values, quad.values)
    assert np.array_equal(lean.slopes, quad.slopes)


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
