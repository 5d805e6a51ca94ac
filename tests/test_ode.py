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
    # the quadrature run also keeps every step's stages for the panel pass
    # after the loop
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


def _inline_quadrature_integrate(params, a, r_max, tol):
    """integrate() with quadrature as it was before ode._panel_norms: each
    accepted step sums its 5-node Gauss panel inline, on the quartic dense
    output built from its stages.  This is the reference of the panel pass.

    Returns the norm arrays (l2, lp, lq, dir) of the grid the run reaches:
    the whole grid, or the partial grid of a run that fails.
    """
    from gslab import ode

    N1 = params.N - 1.0
    lin, qc = params.linear_coeff, params.q_coeff
    p_exp, q_exp = params.p, params.q
    pm2, qm2 = p_exp - 2.0, q_exp - 2.0

    def rhs(r, u, v):
        au = abs(u)
        return -N1 / r * v + lin * u - (u * au**pm2 - qc * u * au**qm2 if au > 0.0 else 0.0)

    r0 = ode.default_handoff_radius(params, a, r_max)
    u, v = series_start(params, a, r0)
    r = r0
    fa = params.f(a)
    i2 = ip = iq = idir = 0.0
    for x, w in ode._GAUSS:
        rr = r0 * x
        uu = a - fa * rr * rr / (2.0 * params.N)
        vv = -fa * rr / params.N
        wt = w * r0 * rr**N1
        i2 += wt * uu * uu
        ip += wt * abs(uu) ** p_exp
        iq += wt * abs(uu) ** q_exp
        idir += wt * vv * vv
    I2, Ip, Iq, Idir = [i2], [ip], [iq], [idir]
    P = ode._P
    k1 = rhs(r, u, v)
    h = min(max(1e-6, 0.05 * r0), 0.5 * (r_max - r0))
    floor = tol.underflow_factor * a
    event, steps = None, 0
    while event is None:
        steps += 1
        if steps > tol.max_steps or h < tol.min_step * max(1.0, r):
            break
        clipped = r + h >= r_max
        if clipped:
            h = r_max - r
        hA = h * ode._A21
        u2, v2 = u + hA * v, v + hA * k1
        k2 = rhs(r + ode._C2 * h, u2, v2)
        u3 = u + h * (ode._A31 * v + ode._A32 * v2)
        v3 = v + h * (ode._A31 * k1 + ode._A32 * k2)
        k3 = rhs(r + ode._C3 * h, u3, v3)
        u4 = u + h * (ode._A41 * v + ode._A42 * v2 + ode._A43 * v3)
        v4 = v + h * (ode._A41 * k1 + ode._A42 * k2 + ode._A43 * k3)
        k4 = rhs(r + ode._C4 * h, u4, v4)
        u5 = u + h * (ode._A51 * v + ode._A52 * v2 + ode._A53 * v3 + ode._A54 * v4)
        v5 = v + h * (ode._A51 * k1 + ode._A52 * k2 + ode._A53 * k3 + ode._A54 * k4)
        k5 = rhs(r + ode._C5 * h, u5, v5)
        u6 = u + h * (ode._A61 * v + ode._A62 * v2 + ode._A63 * v3 + ode._A64 * v4
                      + ode._A65 * v5)
        v6 = v + h * (ode._A61 * k1 + ode._A62 * k2 + ode._A63 * k3 + ode._A64 * k4
                      + ode._A65 * k5)
        k6 = rhs(r + h, u6, v6)
        u_new = u + h * (ode._B1 * v + ode._B3 * v3 + ode._B4 * v4 + ode._B5 * v5
                         + ode._B6 * v6)
        v_new = v + h * (ode._B1 * k1 + ode._B3 * k3 + ode._B4 * k4 + ode._B5 * k5
                         + ode._B6 * k6)
        r_new = r_max if clipped else r + h
        k7 = rhs(r_new, u_new, v_new)
        eu = h * (ode._E1 * v + ode._E3 * v3 + ode._E4 * v4 + ode._E5 * v5 + ode._E6 * v6
                  + ode._E7 * v_new)
        ev = h * (ode._E1 * k1 + ode._E3 * k3 + ode._E4 * k4 + ode._E5 * k5 + ode._E6 * k6
                  + ode._E7 * k7)
        su = tol.atol + tol.rtol * max(abs(u), abs(u_new))
        sv = tol.atol + tol.rtol * max(abs(v), abs(v_new))
        err = math.sqrt(0.5 * ((eu / su) ** 2 + (ev / sv) ** 2))
        if not math.isfinite(err):
            h *= 0.2
            continue
        if err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2)
            continue
        fn = None
        if u_new <= 0.0:
            event, fn = TerminalEvent.ZERO_CROSSING, lambda uu, vv: uu
        elif v_new >= 0.0 and u_new > 0.0:
            event, fn = TerminalEvent.SLOPE_SIGN_FLIP, lambda uu, vv: vv
        elif u_new < floor and v_new < 0.0:
            event, fn = TerminalEvent.UNDERFLOW, lambda uu, vv: uu - floor
        elif clipped:
            event = TerminalEvent.REACHED_RMAX
        us_, vs_ = (v, v3, v4, v5, v6, v_new), (k1, k3, k4, k5, k6, k7)
        qu = [sum((s * P[i][j] for s, i in zip(us_, (0, 2, 3, 4, 5, 6))), 0.0)
              for j in range(4)]
        qv = [sum((s * P[i][j] for s, i in zip(vs_, (0, 2, 3, 4, 5, 6))), 0.0)
              for j in range(4)]
        r_stop = r_new
        if fn is not None:
            dense = (r, h, u, v, qu, qv)
            r_stop = ode._bisect_event(dense, fn, r, r_new, tol.event_tol * max(1.0, r_new))
            u_new, v_new = ode._dense_eval(*dense, r_stop)
        hh = r_stop - r
        i2 = ip = iq = idir = 0.0
        for x, w in ode._GAUSS:
            rr = r + hh * x
            th = (rr - r) / h
            uu = u + h * (th * (qu[0] + th * (qu[1] + th * (qu[2] + th * qu[3]))))
            vv = v + h * (th * (qv[0] + th * (qv[1] + th * (qv[2] + th * qv[3]))))
            wt = w * hh * rr**N1
            au = abs(uu)
            i2 += wt * uu * uu
            ip += wt * au**p_exp
            iq += wt * au**q_exp
            idir += wt * vv * vv
        I2.append(I2[-1] + i2)
        Ip.append(Ip[-1] + ip)
        Iq.append(Iq[-1] + iq)
        Idir.append(Idir[-1] + idir)
        r, u, v, k1 = r_stop, u_new, v_new, k7
        if event is None:
            h *= min(10.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
    return I2, Ip, Iq, Idir


def _assert_norms_bitwise(t, params, a, r_max, tol):
    want = _inline_quadrature_integrate(params, a, r_max, tol)
    got = (t.norm_l2, t.norm_lp, t.norm_lq, t.norm_dir)
    for g, w in zip(got, want, strict=True):
        assert len(g) == len(t.radii)
        assert [x.hex() for x in g.tolist()] == [x.hex() for x in w]


@pytest.mark.parametrize("event", list(EVENT_CASES), ids=lambda e: e.value)
def test_panel_pass_matches_inline_quadrature_bitwise(event):
    a, r_max, tol = EVENT_CASES[event]
    tol = replace(tol, with_quadrature=True)
    t = integrate(R_ZERO_34, a, r_max, tol)
    assert t.terminal_event is event
    _assert_norms_bitwise(t, R_ZERO_34, a, r_max, tol)


@pytest.mark.parametrize("params", [
    ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
    ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
    ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
    ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
], ids=lambda p: p.family.value)
def test_golden_final_pass_matches_inline_quadrature_bitwise(params):
    from gslab import ShootControls, find_ground_state

    prof = find_ground_state(params)
    tol = replace(ShootControls().step, with_quadrature=True)
    t = integrate(params, prof.amplitude, prof.r_max_used, tol)
    _assert_norms_bitwise(t, params, prof.amplitude, prof.r_max_used, tol)


@pytest.mark.parametrize("tol", [
    StepControls(with_quadrature=True, max_steps=60),    # step budget, mid-run
    StepControls(with_quadrature=True, min_step=1.0),    # collapse before any step
], ids=["budget", "collapse"])
def test_failure_partial_norms_match_inline_quadrature_bitwise(tol):
    with pytest.raises(IntegrationFailure) as exc:
        integrate(R_ZERO_34, 3.3, 50.0, tol)
    _assert_norms_bitwise(exc.value.partial, R_ZERO_34, 3.3, 50.0, tol)


def test_float_power_rounds_like_python_pow():
    # the panel pass takes its powers from np.float_power because it calls
    # libm's pow, as Python's ** does; a numpy build that vectorizes it may
    # round differently and would move the golden bits, so it fails here.
    # The exponents: N - 1 for N = 3..6, then the p and q of the test and
    # benchmark inputs (and two of the drawn, non-integer kind)
    rng = np.random.default_rng(20121)
    x = np.exp(rng.uniform(math.log(1e-16), math.log(1e6), 20_000))
    for exponent in (2.0, 3.0, 4.0, 5.0,
                     3.0, 10.0 / 3.0, 4.0, 6.0, 8.0, 4.37,
                     5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 12.0, 13.61):
        got = np.float_power(x, exponent)
        want = np.array([v**exponent for v in x.tolist()])
        assert np.array_equal(got, want), exponent
