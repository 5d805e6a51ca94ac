import math
from dataclasses import replace

import numpy as np
import pytest

from gslab import (
    BracketNotFound,
    Classification,
    Family,
    IntegrationFailure,
    ProblemParams,
    ShootControls,
    TerminalEvent,
    Trajectory,
    classify,
    epsilon_star,
    find_ground_state,
    integrate,
)
from gslab import shooting

from conftest import route_shots

R_ZERO_34 = ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO)

# frozen from the independent DOP853 coarse-scan oracle (1e-3 spacing scan
# followed by 60 bisection steps, rtol 1e-12)
V0_AMPLITUDE_ORACLE = 4.337387679977


def _mk_traj(event, values=(1.0, 0.5, 0.1), slopes=(-0.1, -0.1, -0.05)):
    r = np.array([0.1, 1.0, 2.0])
    return Trajectory(
        radii=r,
        values=np.array(values, dtype=float),
        slopes=np.array(slopes, dtype=float),
        terminal_event=event,
    )


def test_classify_event_mapping():
    for event, c in ((TerminalEvent.ZERO_CROSSING, Classification.OVERSHOOT),
                     (TerminalEvent.SLOPE_SIGN_FLIP, Classification.UNDERSHOOT),
                     (TerminalEvent.UNDERFLOW, Classification.CONVERGED)):
        assert classify(_mk_traj(event), R_ZERO_34, 1.0) == c


def test_profile_without_norm_arrays_is_refused():
    # every profile the library builds carries the node rows with their norm
    # terms (the final pass integrates with quadrature); a hand-built grid
    # without them is rejected rather than read through a second norm route
    params = ProblemParams(3, 4.0, 6.0, 1e-2, Family.P_EPS)
    tail = shooting.TailModel("Exponential", 0.1, 1.0, 2.0, 3)
    with pytest.raises(ValueError, match="no node rows"):
        shooting.RadialProfile(params, 1.0, _mk_traj(TerminalEvent.REACHED_RMAX), tail)


def test_classify_rmax_threshold():
    t = _mk_traj(TerminalEvent.REACHED_RMAX, values=(1.0, 1e-8, 1e-15 * 1.0))
    assert classify(t, R_ZERO_34, 1.0) == Classification.CONVERGED


def test_r_zero_amplitude_matches_scan_oracle():
    prof = find_ground_state(R_ZERO_34)
    assert prof.amplitude == pytest.approx(V0_AMPLITUDE_ORACLE, rel=1e-6)


def test_bisection_bracket_endpoints_classify():
    prof = find_ground_state(R_ZERO_34)
    lo, hi = prof.bracket
    t_lo = integrate(R_ZERO_34, lo * (1.0 - 1e-7), prof.r_max_used)
    t_hi = integrate(R_ZERO_34, hi * (1.0 + 1e-7), prof.r_max_used)
    assert classify(t_lo, R_ZERO_34, lo) == Classification.UNDERSHOOT
    assert classify(t_hi, R_ZERO_34, hi) == Classification.OVERSHOOT


def test_epsilon_star_closed_case():
    # for (p, q) = (4, 6) the double root sits at u^2 = 3/4 and eps* = 3/16
    assert epsilon_star(4.0, 6.0) == pytest.approx(3.0 / 16.0, rel=1e-14)


def test_epsilon_star_against_nested_bisection_oracle():
    p, q = 3.5, 7.2

    def has_positive_zero(eps):
        # max of F on (0, 2) is positive iff a ground state window exists
        u = np.linspace(1e-4, 2.0, 4000)
        F = u**p / p - u**q / q - 0.5 * eps * u**2
        return F.max() > 0.0

    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if has_positive_zero(mid):
            lo = mid
        else:
            hi = mid
    assert epsilon_star(p, q) == pytest.approx(0.5 * (lo + hi), rel=1e-5)


def test_epsilon_star_continuity_toward_p_equals_2():
    vals = [epsilon_star(p, 6.0) for p in (2.4, 2.2, 2.1, 2.05)]
    assert all(v > 0.0 for v in vals)
    assert all(abs(a - b) < 0.2 for a, b in zip(vals, vals[1:]))


def test_bracketing_experiment_around_eps_star():
    # near eps* the trajectory must linger at the potential top long enough to
    # shed its excess energy through the 1/r friction, which pushes the
    # ground-state amplitude exponentially close to the largest root of f;
    # 0.90 eps* is the last comfortably resolvable point for this (p, q)
    es = epsilon_star(4.0, 6.0)
    ok = find_ground_state(ProblemParams(3, 4.0, 6.0, 0.90 * es, Family.P_EPS))
    assert ok.amplitude > 0.0
    with pytest.raises(BracketNotFound):
        find_ground_state(ProblemParams(3, 4.0, 6.0, 1.01 * es, Family.P_EPS))


def test_p_eps_amplitude_bounded_by_one(identity_solutions):
    for (N, p, q, eps, fam), sol in identity_solutions.items():
        if fam is Family.P_EPS:
            assert sol.amplitude <= 1.0 + 1e-12


def test_profile_monotone_positive(identity_solutions):
    for sol in identity_solutions.values():
        vals = sol.profile.grid.values
        assert np.all(vals > 0.0)
        # non-increasing everywhere (exact float ties allowed), strictly
        # decreasing overall
        assert np.all(np.diff(vals) <= 0.0)
        assert vals[-1] < vals[0]


def test_tail_mismatch_small(identity_solutions):
    for sol in identity_solutions.values():
        assert sol.profile.tail.mismatch < 1e-4
        assert sol.profile.tail.prefactor > 0.0


def test_tail_residual_at_twice_match_radius():
    # residual of the analytic tail against the numerical profile stays
    # below 1e-3 out to 2x the match radius (or the end of the grid)
    prof = find_ground_state(R_ZERO_34, ShootControls(amp_tol=5e-16))
    rm = prof.tail.match_radius
    r_end = prof.grid.radii[-1]
    r_chk = min(2.0 * rm, r_end)
    idx = np.argmin(np.abs(prof.grid.radii - r_chk))
    u_num = prof.grid.values[idx]
    u_tail = prof.tail.evaluate(prof.grid.radii[idx:idx + 1])[0][0]
    assert abs(u_tail - u_num) / u_num < 1e-3


def test_amplitude_continuous_in_eps():
    # along a 1.2x refined eps grid the amplitude moves by < 5% per step
    amps = []
    eps = 1e-3
    for _ in range(6):
        sol = find_ground_state(ProblemParams(3, 6.0, 10.0, eps, Family.P_EPS))
        amps.append(sol.amplitude)
        eps /= 1.2
    rel = np.abs(np.diff(amps)) / np.array(amps[:-1])
    assert np.all(rel < 0.05)
    # uniqueness + continuity: the amplitude moves monotonically with eps
    assert all(a > b for a, b in zip(amps, amps[1:]))


def test_r_eps_frame_consistency():
    # the R_eps ground state is the exact rescaling eps^(-1/(p-2)) u(x/sqrt(eps))
    eps = 1e-2
    p_sol = find_ground_state(ProblemParams(3, 4.0, 6.0, eps, Family.P_EPS))
    r_sol = find_ground_state(ProblemParams(3, 4.0, 6.0, eps, Family.R_EPS))
    assert r_sol.amplitude == pytest.approx(eps**-0.5 * p_sol.amplitude, rel=1e-9)


def test_supercritical_limit_family_solves(identity_solutions):
    sol = identity_solutions[(3, 8.0, 12.0, 0.0, Family.P_ZERO)]
    assert sol.profile.tail.kind == "Algebraic"
    assert sol.amplitude < 1.0


def test_exponential_tail_kind(identity_solutions):
    sol = identity_solutions[(3, 4.0, 6.0, 1e-2, Family.P_EPS)]
    assert sol.profile.tail.kind == "Exponential"
    assert sol.profile.tail.rate_or_power == pytest.approx(math.sqrt(1e-2))


def _plain_bisection(params, lo, hi, r_max, ctrl):
    """The amplitude bisection: integrate every geometric mid, all tight."""
    runs = 0
    while hi / lo - 1.0 > ctrl.amp_tol and runs < shooting._MAX_PROBES:
        runs += 1
        mid = math.sqrt(lo * hi)
        t = shooting.integrate(params, mid, r_max, ctrl.step)
        c = classify(t, params, mid)
        if c == Classification.OVERSHOOT:
            hi = mid
        elif c == Classification.UNDERSHOOT:
            lo = mid
        else:
            lo = hi = mid
            break
    return lo, hi, runs


def _solve_with_plain_reference(params):
    """(profile, (lo, hi, runs) of the plain bisection from its starting
    bracket, {amplitude: class} of the solve's tight shots and final pass).

    The bracket shots are the solve's first integrations at its own r_max and
    step controls, loose or tight: its lower end is the first Undershoot,
    its upper end the first Overshoot shot after it.
    """
    ctrl = ShootControls()
    loose, final = shooting._loose_step(ctrl.step), replace(ctrl.step, with_quadrature=True)
    shots, tight = [], {}

    def recorded(real, p, a, r_max, tol):
        t = real(p, a, r_max, tol)
        if tol in (ctrl.step, loose, final):
            c = classify(t, p, a)
            if tol == loose:
                shots.append((a, c))
            else:
                tight[a] = c
                if tol == ctrl.step:
                    shots.append((a, c))
        return t

    with pytest.MonkeyPatch.context() as m:
        route_shots(m, recorded)
        prof = find_ground_state(params, ctrl)
    classes = [c for _, c in shots]
    i = classes.index(Classification.UNDERSHOOT)
    j = classes.index(Classification.OVERSHOOT, i)
    return prof, _plain_bisection(params, shots[i][0], shots[j][0], prof.r_max_used, ctrl), tight


def _assert_within_amp_tol(prof, lo, hi, tight, tight_bracket):
    """The search's bracket keeps its contract (the tight_bracket fixture),
    and its amplitude is within amp_tol of the plain bisection's."""
    tight_bracket(prof, tight)
    amp_tol = ShootControls().amp_tol
    assert prof.amplitude == pytest.approx(math.sqrt(lo * hi), rel=amp_tol, abs=0.0)


GOLDEN_CASES = pytest.mark.parametrize("params", [
    ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
    ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
    R_ZERO_34,
    ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
], ids=["P_eps", "P_zero", "R_zero", "R_eps"])


@GOLDEN_CASES
def test_replay_matches_plain_bisection_bitwise(params, tight_bracket):
    # the Brent search lands within amp_tol of the plain bisection from the
    # same bracket (measured: 5.0e-13 at most), with far fewer probes
    prof, (lo, hi, runs), tight = _solve_with_plain_reference(params)
    _assert_within_amp_tol(prof, lo, hi, tight, tight_bracket)
    # same bracket shots and final pass: fewer integrations in between
    assert prof.bisection_iterations < runs


def test_replay_is_exact_and_bounded_under_a_misleading_proxy(monkeypatch, tight_bracket):
    # a proxy that always puts a* at the undershoot end of the bracket: the
    # search falls back on Brent's own bisection steps and still lands within
    # amp_tol of the plain bisection, in at most twice its integrations
    params = ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS)
    monkeypatch.setattr(shooting, "_shooting_proxy",
                        lambda p, t, c: -1e-300 if c == Classification.UNDERSHOOT else 1.0)
    prof, (lo, hi, runs), tight = _solve_with_plain_reference(params)
    _assert_within_amp_tol(prof, lo, hi, tight, tight_bracket)
    assert prof.bisection_iterations <= 2 * runs


@GOLDEN_CASES
def test_search_converges_under_zero_and_wrong_sign_proxies(params, monkeypatch, tight_bracket):
    # every third shot's proxy reads 0 and every third reads the wrong sign:
    # Brent reads each magnitude under its class's sign (the smallest
    # subnormal for a zero), so the search still closes within amp_tol
    monkeypatch.setattr(shooting, "_shooting_proxy", _flaky_proxy())
    prof, (lo, hi, runs), tight = _solve_with_plain_reference(params)
    _assert_within_amp_tol(prof, lo, hi, tight, tight_bracket)
    assert prof.bisection_iterations <= 2 * runs


def _flaky_proxy():
    """Every third proxy reads 0 and every third the wrong sign."""
    real, shots = shooting._shooting_proxy, []

    def flaky(p, t, c):
        shots.append(c)
        g = real(p, t, c)
        return (g, 0.0, -g)[len(shots) % 3]

    return flaky


@GOLDEN_CASES
@pytest.mark.parametrize("proxy", [
    lambda: lambda p, t, c: -1e-300 if c == Classification.UNDERSHOOT else 1.0,
    _flaky_proxy,
], ids=["misleading", "flaky"])
def test_adversarial_proxies_never_take_the_resolution_stop(params, proxy, monkeypatch,
                                                           tight_bracket):
    # the resolution stop needs the last three probes on one increasing line
    # and a secant step larger than Brent's tolerance nudge; under either
    # adversarial proxy the search ends on the class stop instead: the final
    # pass is the geometric mid of a tight Undershoot and a tight Overshoot
    # at most amp_tol apart, and no error is measured
    monkeypatch.setattr(shooting, "_shooting_proxy", proxy())
    prof, (lo, hi, runs), tight = _solve_with_plain_reference(params)
    _assert_within_amp_tol(prof, lo, hi, tight, tight_bracket)
    assert prof.amp_error == 0.0   # so the fixture checked the bracket at amp_tol
    under = [a for a, c in tight.items() if c == Classification.UNDERSHOOT]
    over = [a for a, c in tight.items() if c == Classification.OVERSHOOT]
    assert any(prof.amplitude == math.sqrt(u * o) and o / u - 1.0 <= ShootControls().amp_tol
               for u in under for o in over)


@GOLDEN_CASES
def test_integrator_gets_python_floats(params, monkeypatch):
    # numpy-scalar amplitudes give the same bits but run the shots' Python
    # slower, so every shot, the profile's amplitude and its bracket are floats
    types = set()

    def recorded(real, p, a, r_max, tol):
        types.add(type(a))
        return real(p, a, r_max, tol)

    route_shots(monkeypatch, recorded)
    prof = find_ground_state(params)
    assert types == {float}
    assert {type(x) for x in (prof.amplitude, *prof.bracket)} == {float}


@pytest.mark.parametrize("params", [
    ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
    ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
], ids=["P_eps", "P_zero"])
def test_classification_switches_once_across_amplitude(params):
    """The classification is monotone in the amplitude at the 1e-13 scale.

    Where it is, the amplitude search and the plain bisection bracket the
    same class switch, so their results agree within amp_tol.
    """
    ctrl = ShootControls()
    prof = find_ground_state(params, ctrl)
    classes = []
    for j in range(-5, 6):
        a = prof.amplitude * (1.0 + j * 1e-13)
        t = integrate(params, a, prof.r_max_used, ctrl.step)
        classes.append(classify(t, params, a))
    n_u = classes.count(Classification.UNDERSHOOT)
    assert 0 < n_u < len(classes)
    assert classes == [Classification.UNDERSHOOT] * n_u + [Classification.OVERSHOOT] * (11 - n_u)


@GOLDEN_CASES
def test_loose_class_matches_tight_class_away_from_amplitude(params):
    """At a*(1 +- 10^-k), k = 1..6, the loose step controls classify as the tight ones.

    This is what makes the loose shots pay: a loose end of the final
    bracket that misclassifies is integrated again tight and costs the
    all-tight second attempt of find_ground_state, so results hold either
    way, but the speed-up relies on far shots agreeing.
    """
    ctrl = ShootControls()
    prof = find_ground_state(params, ctrl)
    loose = shooting._loose_step(ctrl.step)
    for k in range(1, 7):
        for sign in (-1.0, 1.0):
            a = prof.amplitude * (1.0 + sign * 10.0 ** -k)
            tight_cls, loose_cls = (
                classify(integrate(params, a, prof.r_max_used, step), params, a)
                for step in (ctrl.step, loose))
            assert loose_cls == tight_cls, (k, sign)


def test_loose_scan_failure_runs_the_all_tight_attempt():
    # critical N=6 at eps = 1e-11: u_F0 = 1.5e-11 lies far below the loose
    # shots' atol (1e-9), and loose shots near it read their class where u
    # has fallen below that atol, where they misread (the second-order start
    # read the undershoots just above u_F0 as overshoots).  The lower scan's
    # first loose shot reads its class there, and the solve runs again all
    # tight at once: one loose shot before the all-tight attempt.  The pins
    # are the amplitude and worst residual of that solve.  The amplitude is
    # set by integration noise (4.2e-6 from a reference solve at atol 1e-16 /
    # rtol 1e-14): moving the second-order start's hand-off radius by 1e-9
    # of itself moved it by 8.4e-10, so the series start moves it by 6.2e-7
    # from the previous pin, kept below at 1e-6.
    from gslab import solve_ground_state

    sol = solve_ground_state(ProblemParams(6, 3.0, 5.0, 1e-11, Family.P_EPS))
    prof = sol.profile
    assert prof.fallbacks == 1
    assert prof.loose_integrations == 1
    assert prof.integrations <= 40
    amp = float.fromhex("0x1.0a715383164cap-10")
    assert abs(sol.amplitude - amp) <= ShootControls().amp_tol * amp
    assert float.fromhex("0x1.0a715e6202248p-10") == pytest.approx(amp, rel=1e-6, abs=0.0)
    worst = float.fromhex("0x1.015ed33cc24ddp-21")   # 4.8e-7
    assert max(sol.nehari_residual, sol.pokhozhaev_residual) <= worst


def test_all_tight_attempt_integrates_each_amplitude_once(monkeypatch):
    # the solve above: its one loose shot is the first call, every later
    # one is tight, and no amplitude is shot tight twice (from the
    # second-order start the lower scan shot u_F0 (1 + 1e-9) again tight
    # before the all-tight attempt shot it tight once more)
    calls = []

    def counted(real, p, a, r_max, tol):
        calls.append((a, tol))
        return real(p, a, r_max, tol)

    route_shots(monkeypatch, counted)
    prof = find_ground_state(ProblemParams(6, 3.0, 5.0, 1e-11, Family.P_EPS))
    loose = shooting._loose_step(ShootControls().step)
    assert prof.fallbacks == 1 and prof.integrations == len(calls)
    assert calls[0][1] == loose and all(tol != loose for _, tol in calls[1:])
    tight = [a for a, tol in calls[1:] if not tol.with_quadrature]
    assert len(tight) == len(set(tight))


def test_loose_shots_read_the_class_at_a_small_window_end():
    # critical N=6 at eps = 1e-9 (u_F0 = 1.5e-9, of the order of the loose
    # atol), where the Dormand-Prince 4(5) loose shots misread and ran the
    # all-tight attempt (23 integrations).  Near a* the shots read their
    # class where u ~ 1e-15, below even the tight atol, and loose shots
    # misread there from either start (at a* (1 + 1e-4) and (1 + 3.8e-4)).
    # The lower scan's first loose shot already reads its class below the
    # loose atol, so the solve runs the all-tight attempt (23 integrations;
    # the second-order start's 11 loose shots happened to read right, and
    # its search ended on a tight Converged probe after 18).  The amplitude
    # is within 1e-6 of a reference solve at atol 1e-15 / rtol 1e-13 (5.5e-8
    # measured; the DP45 reference solve is 2.3e-7 from it), where the DP45
    # solve's amplitude, pinned here before, was 4.6e-4 off.  The residual
    # sits at the truncation floor of the final trajectory (ROADMAP item 4):
    # 4.40e-7 measured, 4.0e-7 from the second-order start, whose own
    # hand-off radius moved by 1% or 2x gave 3.98e-7 and 3.93e-7 (and 43
    # integrations with a fallback at 2x).
    from gslab import solve_ground_state

    sol = solve_ground_state(ProblemParams(6, 3.0, 5.0, 1e-9, Family.P_EPS))
    prof = sol.profile
    assert prof.fallbacks == 1
    assert prof.integrations <= 24
    reference = float.fromhex("0x1.352a8c17e4f78p-8")
    assert sol.amplitude == pytest.approx(reference, rel=1e-6, abs=0.0)
    assert float.fromhex("0x1.354efdf86bd03p-8") == pytest.approx(reference, rel=5e-4, abs=0.0)
    assert max(sol.nehari_residual, sol.pokhozhaev_residual) <= 4.5e-7   # 4.40e-7 measured


CRITICAL_N5 = ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)


def _failing_integrate(monkeypatch, fails):
    """Route every shot (route_shots) so that one for which fails(a, tol)
    holds fails in the kernel (its step budget cut to 5 steps).  Returns the
    shots as (amplitude, tol, RHS evaluations, failed), a count kept apart
    from the solve's own: a failed shot counts its partial run's evaluations."""
    calls = []

    def patched(real, p, a, r_max, tol):
        if fails(a, tol):
            with pytest.raises(IntegrationFailure) as info:
                real(p, a, r_max, replace(tol, max_steps=5))
            calls.append((a, tol, info.value.partial.rhs_evals, True))
            raise info.value
        t = real(p, a, r_max, tol)
        calls.append((a, tol, t.rhs_evals, False))
        return t

    route_shots(monkeypatch, patched)
    return calls


def _assert_counted(prof, calls):
    assert prof.integrations == len(calls)
    assert prof.rhs_evals == sum(nfev for _, _, nfev, _ in calls)
    loose = shooting._loose_step(ShootControls().step)
    assert prof.loose_integrations == sum(tol == loose for _, tol, _, _ in calls)


@pytest.mark.parametrize("params", [R_ZERO_34, CRITICAL_N5], ids=["R_zero", "critical-N5"])
def test_failed_loose_shot_runs_again_tight(params, monkeypatch):
    # the first loose shot (the lower scan's first) fails: shoot runs it
    # again tight, and the solve counts the failed call with its partial
    # RHS evaluations
    want = find_ground_state(params)
    loose = shooting._loose_step(ShootControls().step)
    failed = []

    def first_loose(a, tol):
        if tol == loose and not failed:
            failed.append(a)
            return True
        return False

    calls = _failing_integrate(monkeypatch, first_loose)
    prof = find_ground_state(params)
    assert [(a, tol, bad) for a, tol, _, bad in calls[:2]] == [
        (failed[0], loose, True), (failed[0], ShootControls().step, False)]
    assert not any(bad for *_, bad in calls[2:])
    _assert_counted(prof, calls)
    assert prof.fallbacks == 0
    assert abs(prof.amplitude - want.amplitude) <= ShootControls().amp_tol * want.amplitude


def test_failed_hint_shot_rebuilds_the_bracket(monkeypatch):
    # every shot at the hint's lower end fails, loose and then tight: the
    # hint is dropped, and the scans build the bracket as in the unhinted
    # solve, shot for shot, after the two failed calls
    unhinted = _failing_integrate(monkeypatch, lambda a, tol: False)
    want = find_ground_state(CRITICAL_N5)
    monkeypatch.undo()
    hint = (0.99 * want.amplitude, 1.01 * want.amplitude)
    calls = _failing_integrate(monkeypatch, lambda a, tol: a == hint[0])
    prof = find_ground_state(CRITICAL_N5, ShootControls(bracket_hint=hint))
    loose = shooting._loose_step(ShootControls().step)
    assert [(a, tol, bad) for a, tol, _, bad in calls[:2]] == [
        (hint[0], loose, True), (hint[0], ShootControls().step, True)]
    assert [(a, tol) for a, tol, _, _ in calls[2:]] == [(a, tol) for a, tol, _, _ in unhinted]
    assert not any(bad for *_, bad in calls[2:])
    _assert_counted(prof, calls)
    assert abs(prof.amplitude - want.amplitude) <= ShootControls().amp_tol * want.amplitude


@pytest.mark.parametrize("params", [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS), id="P_eps"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO), id="P_zero"),
    pytest.param(R_ZERO_34, id="R_zero"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS), id="R_eps"),
])
def test_profile_past_its_grid_is_its_tail(params):
    # the golden profiles (tests/test_golden.py), three exponential tails and
    # one algebraic.  Past the last grid radius R, value and slope are
    # TailModel.evaluate's, bit for bit, on an array and on a float (its
    # value on a one-element array).  Just past R the value is within the
    # tail's fit mismatch of the grid's last value; the fit matches values, not slopes, and the slope gap is bounded
    # by twice the mismatch (P_eps's is 1.32 times it, the others' below 1)
    prof = find_ground_state(params)
    R = float(prof.grid.radii[-1])
    r = R * np.array([1.5, 2.0, 4.0])
    u, du = prof.tail.evaluate(r)
    assert prof.value(r).tobytes() == u.tobytes()
    assert prof.slope(r).tobytes() == du.tobytes()
    for x in r.tolist():
        u1, du1 = prof.tail.evaluate(np.array([x]))
        assert (prof.value(x), prof.slope(x)) == (float(u1[0]), float(du1[0]))
    past = float(np.nextafter(R, np.inf))
    mismatch = prof.tail.mismatch
    assert abs(prof.value(past) / prof.grid.values[-1] - 1.0) <= mismatch
    assert abs(prof.slope(past) / prof.grid.slopes[-1] - 1.0) <= 2.0 * mismatch


@pytest.mark.parametrize("params", [
    pytest.param(ProblemParams(5, 4.0, 6.0, 0.0, Family.P_ZERO), id="N5"),
    pytest.param(ProblemParams(6, 3.5, 5.0, 0.0, Family.P_ZERO), id="N6"),
])
def test_p_zero_profile_past_its_grid_is_its_tail(params):
    # an algebraic grid at N >= 5 ends at the last radius R where u is at
    # least _ALGEBRAIC_FIT_FLOOR atol, well inside r_max: past it the final
    # pass holds integrator noise, the constant mode B its amplitude error
    # leaves (while the grid ran on to r_max, value jumped ~1000x just past
    # it at N = 5).  Past R value and slope are TailModel.evaluate's, bit for
    # bit.  The tail's fit window ends at R, so the fit's worst residual,
    # the mismatch, is R's own, and just past R the value meets the grid's
    # last value within it up to the rounding of a ratio near 1 (6e-12 of
    # the gap at N = 5; the gaps are 9.4e-5 and 2.2e-5); the slope gap is
    # below it (8.6e-6 and 1.4e-6)
    prof = find_ground_state(params)
    atol = ShootControls().step.atol
    R = float(prof.grid.radii[-1])
    assert R < 1e-2 * prof.r_max_used
    assert prof.grid.values[-1] >= shooting._ALGEBRAIC_FIT_FLOOR * atol
    r = R * np.array([1.5, 2.0, 4.0, 100.0])
    u, du = prof.tail.evaluate(r)
    assert prof.value(r).tobytes() == u.tobytes()
    assert prof.slope(r).tobytes() == du.tobytes()
    past = float(np.nextafter(R, np.inf))
    mismatch = prof.tail.mismatch
    assert abs(prof.value(past) / prof.grid.values[-1] - 1.0) <= mismatch * (1.0 + 1e-9)
    assert abs(prof.slope(past) / prof.grid.slopes[-1] - 1.0) <= mismatch


def test_bracket_hint_is_clipped_to_the_admissible_window(misread_loose_shot):
    # critical N=5: a hint whose upper end lies above u_hi, the largest root
    # of f (there u''(0) > 0 and every shot reads Undershoot), is clipped to
    # u_hi (1 - 1e-9), the top of the window the upper scan starts from.
    # The solve is then the one the clipped hint gives, bitwise, and no shot
    # goes above the clip point.
    params = CRITICAL_N5
    a = find_ground_state(params).amplitude
    clip = shooting._f_positive_roots(params)[1] * (1.0 - 1e-9)
    assert a < clip < 5.0
    want = find_ground_state(params, ShootControls(bracket_hint=(0.75 * a, clip)))
    calls, _ = misread_loose_shot(lambda a, c: False)
    prof = find_ground_state(params, ShootControls(bracket_hint=(0.75 * a, 5.0)))
    assert [call[0] for call in calls[:2]] == [0.75 * a, clip]   # the hint checks
    assert max(call[0] for call in calls) <= clip
    for name in ("radii", "values", "slopes", "nodes"):
        assert getattr(prof.grid, name).tobytes() == getattr(want.grid, name).tobytes()
    assert prof.tail == want.tail
    assert prof.grid.series == want.grid.series
    fields = ("amplitude", "bracket", "amp_error", "integrations", "rhs_evals",
              "loose_integrations", "bisection_iterations", "fallbacks")
    assert [getattr(prof, f) for f in fields] == [getattr(want, f) for f in fields]


def test_p_zero_lower_scan_starts_at_the_pohozaev_root(delta_sweep, delta_sweep_small_q):
    # G(u) = N F(u) - (N-2)/2 u f(u) changes sign at u_P, and a shot at
    # a <= u_P cannot cross zero (the Pokhozhaev identity), so P_zero's lower
    # scan starts at u_P (1 + 1e-9).  That shot reads Undershoot and u_P < a*
    # for the golden P_zero solve and every exponent of both delta sweeps
    from gslab.params import critical_exponent

    params = ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO)
    cases = [(params, find_ground_state(params).amplitude)]
    for rep in (delta_sweep, delta_sweep_small_q):
        cases += [(ProblemParams(rep.N, critical_exponent(rep.N) + pt.x, rep.q, 0.0,
                                 Family.P_ZERO), pt.amplitude)
                  for pt in rep.points if pt.converged]
    assert len(cases) >= 20
    ctrl = ShootControls()
    for params, a_star in cases:
        u_p = shooting._pohozaev_root(params)
        N = params.N

        def G(u):
            return N * params.F(u) - 0.5 * (N - 2.0) * u * params.f(u)

        assert G(u_p * (1.0 - 1e-9)) < 0.0 < G(u_p * (1.0 + 1e-9))
        assert u_p < a_star, params
        a = u_p * (1.0 + 1e-9)
        t = integrate(params, a, 1e6, ctrl.step)
        assert classify(t, params, a) == Classification.UNDERSHOOT


def _p_zero_draws():
    """Every fifth of 120 P_zero draws (random.Random(5)): N = 3..6, 30 each,
    p = p* U(1.02, 1.6), q = p + U(0.3, 6)."""
    import random

    from gslab.params import critical_exponent

    rng = random.Random(5)
    draws = []
    for N in (3, 4, 5, 6):
        for _ in range(30):
            p = critical_exponent(N) * rng.uniform(1.02, 1.6)
            draws.append(ProblemParams(N, p, p + rng.uniform(0.3, 6.0), 0.0, Family.P_ZERO))
    return draws[::5]


def test_p_zero_draws_solve_or_raise_a_classified_error():
    # each draw returns identity residuals below 1e-9 or raises one of the
    # solver's own error types, never a builtin one and never a silent
    # residual above 1e-9.  Before search shots ended where B settles, two
    # N = 5 draws of these 24 returned residuals of 2.4e-7 and 5.4e-7 (runs
    # to r_max = 1e6 read B in integrator noise for N >= 4) and 7 raised
    # InconsistentSolution; then 22 solved (at most 7.4e-12), and an N = 5
    # and an N = 6 draw with p near p* raised it.  Since an algebraic run
    # reads its class from B before its terminal value, all 24 solve
    import gslab.errors
    from gslab import solve_ground_state

    classified = tuple(v for v in vars(gslab.errors).values()
                       if isinstance(v, type) and issubclass(v, Exception))
    solved = 0
    for params in _p_zero_draws():
        try:
            sol = solve_ground_state(params)
        except classified:
            continue
        assert max(sol.nehari_residual, sol.pokhozhaev_residual) < 1e-9, params
        solved += 1
    assert solved == 24


@pytest.mark.parametrize("p, q, drift", [
    pytest.param(3.3491403547350806, 8.417875958451788, 3e-3,
                 id="3.3491403547350806-8.417875958451788"),
    pytest.param(3.2602295230225344, 8.299038863613408, 8e-3,
                 id="3.2602295230225344-8.299038863613408"),
])
def test_absurd_algebraic_tail_fit_raises_inconsistent_solution(p, q, drift):
    # N = 6 with p near p* = 3.  While search shots read Converged on both
    # sides of a*, these draws' final passes decayed like the singular Emden
    # solution r^(-2/(p-2)), not like r^-4, and the algebraic tail fitted to
    # them had a prefactor of e^924 (math.exp overflowed in _fit_tail) or
    # 8e142 (its L^2 tail overflowed in TailModel.algebraic_norm).  The draws now
    # solve (test_p_zero_draws_that_read_converged_on_both_sides_solve), so
    # a synthetic far field just steeper than the singular one stands in:
    # r^2 u^(p-2) drifts so little that the fit's two columns are nearly
    # collinear, and its prefactor is e^869 or 3.0e142 (2.2e143 while the
    # window ran to r_max; the second far field falls below 1e5 atol first)
    from gslab import InconsistentSolution

    params = ProblemParams(6, p, q, 0.0, Family.P_ZERO)
    r = np.geomspace(1.0, 1e6, 200)
    u = r ** -((2.0 + drift) / (p - 2.0))
    t = Trajectory(radii=r, values=u, slopes=np.gradient(u, r),
                   terminal_event=TerminalEvent.REACHED_RMAX)
    with pytest.raises(InconsistentSolution, match="overflows"):
        shooting._fit_tail(params, t, 1.0, ShootControls().step.atol).algebraic_norm(
            2.0, float(r[-1]))


@pytest.mark.parametrize("N, p, q", [(5, 3.422389270243452, 6.840237355186352),
                                     (6, 3.0611494714759697, 5.671791238016732)])
def test_p_zero_draws_that_read_converged_on_both_sides_solve(N, p, q):
    # two P_zero draws with p near p* (1.027 p* and 1.02 p*): search shots
    # on both sides of a* end with |u| far below _CONVERGENCE_FACTOR * a, and
    # read as Converged they ended Brent's search 2.5% and 95% off a* with
    # residuals of 0.11 and 0.12 (InconsistentSolution).  Read from B's sign
    # they solve, at u(0) = 0.76017 and 0.68666
    from gslab import solve_ground_state

    sol = solve_ground_state(ProblemParams(N, p, q, 0.0, Family.P_ZERO))
    assert max(sol.nehari_residual, sol.pokhozhaev_residual) < 1e-9


@pytest.mark.parametrize("delta", [2e-2, 1e-2, 5e-3, 2e-3, 1e-3])
def test_p_zero_delta_ladder_solves(delta):
    # N = 3, q = 7, p = p* + delta.  Near p* the core radius u_P^(-(p-2)/2)
    # grows, and with r_max fixed at 1e6 delta = 5e-3, 2e-3 and 1e-3 raised
    # InconsistentSolution (residuals 4.6e-4, 3.1e-2, 0.11) and 1e-2 returned
    # 1.4e-6.  r_max = 1e4 core radii (2.2e7 to 7.5e9 here) solves every rung
    # below 2e-12
    from gslab import solve_ground_state
    from gslab.params import critical_exponent

    params = ProblemParams(3, critical_exponent(3) + delta, 7.0, 0.0, Family.P_ZERO)
    core = shooting._pohozaev_root(params) ** (-(params.p - 2.0) / 2.0)
    assert shooting._default_r_max(params, ShootControls()) == shooting._CORE_RADII * core > 1e6
    sol = solve_ground_state(params)
    assert max(sol.nehari_residual, sol.pokhozhaev_residual) <= 1e-9


@pytest.mark.parametrize("q", [9.0, 12.0, 16.0])
def test_p_zero_benchmark_draws_keep_r_max_1e6(q):
    # (3, 8, q in [9, 16]): u_P >= 0.75, so 1e4 core radii stay below 1e6
    params = ProblemParams(3, 8.0, q, 0.0, Family.P_ZERO)
    assert shooting._default_r_max(params, ShootControls()) == shooting._ALGEBRAIC_R_MAX
