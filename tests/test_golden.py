"""Bitwise golden values of one reference solve per family.

A speed-up of the solver counts only if its results match the old code
bitwise.  The values below are ``float.hex`` of the solution before the
Dormand-Prince dense output was made lazy (P_eps, P_zero) and before the
integrator's stages and quadrature panels were inlined (R_zero, R_eps, and
the panel totals of all four); the SHA-256 digests of the grid and norm
arrays were taken before the model probes ran at two step fidelities.  Any
change to the stepping, the error control, the event refinement or the
quadrature panels shows up here as an exact mismatch.  They were taken on
x86-64 Linux (CPython, glibc libm); a different libm may move the last bits
of ``**``.  The RHS totals of a whole solve (PANELS) count work, not
results: they move when the solver integrates less.
"""

import hashlib

import numpy as np
import pytest

from gslab import Family, ProblemParams, ShootControls, solve_ground_state

# (params, amplitude, level_S, nehari_residual, grid.rhs_evals)
GOLDEN = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "0x1.bb150da6fbff9p-1", "0x1.9e6885dd7cfa4p+2", "0x1.04baf7d290c66p-40",
                 2089, id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.f0dc838918c0ap-1", "0x1.0ba01b5de6b0bp+3", "0x1.24d6a8280ef52p-37",
                 3187, id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.1597c27ed3bbcp+2", "0x1.d83d9226f98e5p+3", "0x1.42744d35d06c6p-38",
                 2275, id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.0b612fe3fc8d8p+2", "0x1.eb9fac3e012bap+3", "0x1.699ac3bcd7472p-38",
                 2257, id="R_eps-N3-p4-q6-eps1e-2"),
]

# (params, grid.norm_lp[-1], grid.norm_dir[-1], profile.rhs_evals): the
# co-integrated Gauss panels of the final pass, and the RHS work of the solve
PANELS = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "0x1.cca5f50fa83dfp+0", "0x1.4fa95d4109083p+0", 13238,
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.ecb726ffcbf39p+1", "0x1.ecb6aeec0499ep+0", 25317,
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.80f8bd8d302c9p+2", "0x1.20ba7e5f5a43ap+2", 13464,
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.cc15a89056f7cp+2", "0x1.32af9c8f3707ep+2", 13608,
                 id="R_eps-N3-p4-q6-eps1e-2"),
]


@pytest.mark.parametrize("params, amplitude, level_S, nehari, rhs_evals", GOLDEN)
def test_solve_matches_golden_bitwise(params, amplitude, level_S, nehari, rhs_evals):
    sol = solve_ground_state(params)
    assert sol.amplitude.hex() == amplitude
    assert sol.level_S.hex() == level_S
    assert sol.nehari_residual.hex() == nehari
    assert sol.profile.grid.rhs_evals == rhs_evals


@pytest.mark.parametrize("params, norm_lp, norm_dir, rhs_evals", PANELS)
def test_panels_match_golden_bitwise(params, norm_lp, norm_dir, rhs_evals):
    prof = solve_ground_state(params).profile
    assert float(prof.grid.norm_lp[-1]).hex() == norm_lp
    assert float(prof.grid.norm_dir[-1]).hex() == norm_dir
    assert prof.rhs_evals == rhs_evals


# (params, SHA-256 of the final grid's radii, values, slopes, norm_l2,
# norm_lp, norm_lq and norm_dir as little-endian float64, in that order):
# every interior entry, not just the end values above
ARRAYS = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "4dc89c6c01342eca1d7fa150f40f62b4fde8cf10eebb7d4502bef3d876ca0087",
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "8abe3e42af5319cde3c74f5d757228816d2ca012dab66f5384f8e5be72055840",
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "6ff803efde055753721a56dab39f11773bf721ee47e0bc69462852a06832de23",
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "630af1bd13b4853d067e633d38fa5c823c3f69c783a87bc94375421f4d643ad5",
                 id="R_eps-N3-p4-q6-eps1e-2"),
]


@pytest.mark.parametrize("params, digest", ARRAYS)
def test_grid_arrays_match_golden_digest(params, digest):
    grid = solve_ground_state(params).profile.grid
    h = hashlib.sha256()
    for name in ("radii", "values", "slopes", "norm_l2", "norm_lp", "norm_lq", "norm_dir"):
        h.update(np.ascontiguousarray(getattr(grid, name), dtype="<f8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("params, amplitude, level_S, nehari, rhs_evals", GOLDEN)
def test_forced_loose_probes_fall_back_to_golden_bitwise(params, amplitude, level_S, nehari,
                                                         rhs_evals, monkeypatch):
    # every model probe loose, the ones next to a* included: a loose class
    # flips there, the edge check catches it and the fallback replay from
    # the tight shots still lands on the golden values bit for bit
    from gslab import shooting

    loose_step = shooting._loose_step(ShootControls().step)
    calls = []   # (amplitude, "loose" | "tight" | "final") per integrate call
    real = shooting.integrate

    def recorded(p, a, r_max, tol=None):
        kind = ("loose" if tol == loose_step
                else "final" if tol is not None and tol.with_quadrature else "tight")
        calls.append((a, kind))
        return real(p, a, r_max, tol)

    monkeypatch.setattr(shooting, "_runs_loose", lambda x, shift: True)
    monkeypatch.setattr(shooting, "integrate", recorded)
    sol = solve_ground_state(params)
    loose = {a for a, kind in calls if kind == "loose"}
    checks = [i for i, (a, kind) in enumerate(calls) if kind == "tight" and a in loose]
    assert checks, "no loose window edge was checked"
    # the fallback replay integrates tight mids after the check
    assert any(kind == "tight" for _, kind in calls[checks[-1] + 1:-1])
    assert calls[-1][1] == "final"
    assert sol.profile.loose_integrations == sum(kind == "loose" for _, kind in calls)
    assert sol.amplitude.hex() == amplitude
    assert sol.level_S.hex() == level_S
    assert sol.nehari_residual.hex() == nehari
    assert sol.profile.grid.rhs_evals == rhs_evals


# The read side, pinned before the tail quadratures evaluated all their
# panels in one numpy pass: (params, radial_norm(prof, p), dirichlet_norm,
# tail.norm_tail(2.0, R), tail.dirichlet_tail(R)) with R the last grid
# radius; None where the algebraic tail makes the L^2 norm diverge
READ_SIDE = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "0x1.69cad4a409f08p+4", "0x1.07a0f21ca46f6p+4",
                 "0x1.4d9aac8b7c168p-9", "0x1.d73b7de2812f6p-19",
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.82fa513c36de5p+5", "0x1.82fa513261effp+4",
                 None, "0x1.e04e1eab20874p-18",
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.2e5b2444afcf0p+6", "0x1.c588b65e47071p+5",
                 "0x1.894bc0e23b419p-19", "0x1.f951fa02465fap-19",
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.69597fa69024dp+6", "0x1.e1bde1ea1e5c7p+5",
                 "0x1.09cd39e25323ap-18", "0x1.55b2ba5fd41fbp-18",
                 id="R_eps-N3-p4-q6-eps1e-2"),
]


@pytest.mark.parametrize("params, norm_p, dirichlet, tail_l2, tail_dir", READ_SIDE)
def test_read_side_norms_match_golden_bitwise(params, norm_p, dirichlet, tail_l2, tail_dir):
    from gslab import DivergentNormError, dirichlet_norm, radial_norm

    prof = solve_ground_state(params).profile
    R = float(prof.grid.radii[-1])
    assert float(radial_norm(prof, params.p)).hex() == norm_p
    assert float(dirichlet_norm(prof)).hex() == dirichlet
    if tail_l2 is None:
        with pytest.raises(DivergentNormError):
            prof.tail.norm_tail(2.0, R)
    else:
        assert float(prof.tail.norm_tail(2.0, R)).hex() == tail_l2
    assert float(prof.tail.dirichlet_tail(R)).hex() == tail_dir


def test_critical_read_side_matches_golden_bitwise():
    # one critical N=5 solve in the minimizer frame: the concentration
    # radius, both distances of the rescaled profile to W_1 and the
    # kappa-identity residual of the frame's norms
    from gslab import EmdenFowlerProfile, concentration_lambda, kappa_identities, rescale_to_v
    from gslab.asymptotics import profile_distances

    params = ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)
    w = solve_ground_state(params).rescaled_to_frame()
    lam = concentration_lambda(w.profile)
    d1, dp = profile_distances(rescale_to_v(w.profile, lam), EmdenFowlerProfile(5, 1.0, "W"))
    assert lam.hex() == "0x1.5ffd4d5a19706p+0"
    assert d1.hex() == "0x1.3e79a141909c5p-2"
    assert dp.hex() == "0x1.c958ee13412a6p-5"
    assert kappa_identities(w, params.eps).lq_residual.hex() == "0x1.49cd75aa9edc8p-23"
    # the pins taken while the radius read Hermite prefix sums of the grid
    # panels, not the co-integrated mass: lambda moved by 2.2e-9 relative,
    # and at the old lambda the distances move only by rounding
    old_lam = float.fromhex("0x1.5ffd4d4d0787cp+0")
    assert lam == pytest.approx(old_lam, rel=1e-8, abs=0.0)
    d1_old, dp_old = profile_distances(rescale_to_v(w.profile, old_lam),
                                       EmdenFowlerProfile(5, 1.0, "W"))
    assert d1_old == pytest.approx(float.fromhex("0x1.3e79a16892f20p-2"), rel=1e-13, abs=0.0)
    assert dp_old == pytest.approx(float.fromhex("0x1.c958ee0f40d10p-5"), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("N, s_star, qs", [
    (3, "0x1.5e95fb08ca59bp+2", "0x1.5de4b9858e7bbp-1"),
    (4, "0x1.48552f88091a7p+3", "0x1.2f4a986a17eaep-1"),
    (5, "0x1.d9fb2e4995447p+3", "0x1.fa84254a892c2p-2"),
])
def test_emden_constants_match_golden_bitwise(N, s_star, qs):
    # __wrapped__ skips the lru_cache, so the quadrature runs here
    from gslab.emden import q_star, sobolev_constant

    assert float(sobolev_constant.__wrapped__(N)).hex() == s_star
    assert float(q_star.__wrapped__(N)).hex() == qs


# The amplitudes of two 8-point hinted N=3 subcritical sweeps, pinned before
# the bracket scans and hint checks ran at the loose step controls.  At grid
# ratio 1.5 every hint (0.75 a, 1.3 a) around the previous amplitude is
# accepted; at ratio 2 the amplitude falls faster than the hint's lower end,
# so every hint is rejected and the solve falls back to the window scans.
HINTED_SWEEPS = [
    pytest.param(1.5, ["0x1.abceb30662825p-2", "0x1.61b612d426cc7p-2", "0x1.23389d16fbe02p-2",
                       "0x1.de34e92e61575p-3", "0x1.87e5ff495d912p-3", "0x1.40c58b6cb2012p-3",
                       "0x1.0656a7d2bd2efp-3", "0x1.acdd747593ac7p-4"], 2, id="hints-accepted"),
    pytest.param(2.0, ["0x1.abceb30662825p-2", "0x1.343e8a905ab86p-2", "0x1.b805a1455fbb8p-3",
                       "0x1.389957fba7f47p-3", "0x1.bb1d3ef795c48p-4", "0x1.39b1d0f28a40dp-4",
                       "0x1.bbe3c7e821db1p-5", "0x1.39f80bd718799p-5"], 3, id="hints-rejected"),
]


@pytest.mark.parametrize("ratio, amplitudes, bracket_runs", HINTED_SWEEPS)
def test_hinted_sweep_matches_golden_bitwise(ratio, amplitudes, bracket_runs, monkeypatch):
    from gslab import SweepSpec, functionals, sweep

    hinted = []   # integrations before the model phase, per hinted solve
    real = functionals.find_ground_state

    def recorded(params, ctrl=ShootControls()):
        prof = real(params, ctrl)
        if ctrl.bracket_hint is not None:
            hinted.append(prof.integrations - prof.bisection_iterations - 1)
        return prof

    monkeypatch.setattr(functionals, "find_ground_state", recorded)
    rep = sweep(SweepSpec(regime="subcritical", N=3, p=4.0, q=6.0,
                          grid_min=1e-2 / ratio ** 7, grid_max=1e-2, ratio=ratio))
    assert [pt.amplitude.hex() for pt in rep.points] == amplitudes
    # an accepted hint costs its two checks; a rejected one its lower check
    # (an overshoot), then one shot at each end of the admissible window
    assert hinted == [bracket_runs] * 7


@pytest.mark.parametrize("params, amplitude, level_S, nehari, rhs_evals", GOLDEN)
@pytest.mark.parametrize("end", ["lower", "upper"])
def test_misread_scan_end_falls_back_to_golden_bitwise(params, amplitude, level_S, nehari,
                                                       rhs_evals, end, misread_loose_shot):
    # the loose shot that ends the lower (or upper) bracket scan reads the
    # wrong class: the exactness check catches it, the solve runs again as
    # the plain bisection and lands on the golden values bit for bit
    from gslab import Classification

    stop = Classification.UNDERSHOOT if end == "lower" else Classification.OVERSHOOT
    calls, misread = misread_loose_shot(lambda a, c: c == stop)
    sol = solve_ground_state(params)
    prof = sol.profile
    assert misread and prof.fallbacks == 1
    assert [misread[0], "tight"] in [call[:2] for call in calls]   # the re-run's tight scan
    # the counters sum over both attempts
    assert prof.integrations == len(calls)
    assert prof.loose_integrations == sum(kind == "loose" for _, kind, _ in calls)
    assert prof.rhs_evals == sum(n for _, _, n in calls)
    assert sol.amplitude.hex() == amplitude
    assert sol.level_S.hex() == level_S
    assert sol.nehari_residual.hex() == nehari
    assert prof.grid.rhs_evals == rhs_evals


def test_misread_hint_check_falls_back_to_golden_bitwise(misread_loose_shot, monkeypatch):
    # the hinted sweep whose hints are all accepted, with the loose lower
    # hint check of its first hinted solve misread as an overshoot
    from gslab import SweepSpec, functionals, sweep

    ratio, amplitudes, _ = HINTED_SWEEPS[0].values
    hint = [None]   # the bracket hint of the solve running
    calls, misread = misread_loose_shot(lambda a, c: hint[-1] is not None and a == hint[-1][0])
    solves = []   # (profile, its integrate calls)
    real = functionals.find_ground_state

    def recorded(params, ctrl=ShootControls()):
        hint.append(ctrl.bracket_hint)
        first = len(calls)
        prof = real(params, ctrl)
        solves.append((prof, calls[first:]))
        return prof

    monkeypatch.setattr(functionals, "find_ground_state", recorded)
    rep = sweep(SweepSpec(regime="subcritical", N=3, p=4.0, q=6.0,
                          grid_min=1e-2 / ratio ** 7, grid_max=1e-2, ratio=ratio))
    assert [pt.amplitude.hex() for pt in rep.points] == amplitudes
    # the reference solve and the first point run unhinted
    assert misread == [hint[3][0]]
    assert [prof.fallbacks for prof, _ in solves] == [0, 0, 1] + [0] * 6
    for prof, own in solves:
        assert prof.integrations == len(own)
        assert prof.loose_integrations == sum(kind == "loose" for _, kind, _ in own)
        assert prof.rhs_evals == sum(n for _, _, n in own)


def test_non_monotone_solve_falls_back_to_plain_bisection_golden():
    # critical N=4 at eps ~ 3.7e-9, hinted as in the crit4 sweep: here the
    # tight class is not monotone at the 1e-12 scale, a loose class fails
    # the exactness check, and the all-tight re-solve is the plain bisection,
    # whose amplitude (pinned at the parent) a re-solve with a model phase
    # would miss by ~1e-11 relative
    from gslab import shooting

    params = ProblemParams(4, 4.0, 8.0, 3.662109375e-09, Family.P_EPS)
    ctrl = ShootControls(bracket_hint=(0.10300182478482967, 0.17853649629370474))
    prof = shooting.find_ground_state(params, ctrl)
    assert prof.fallbacks == 1
    assert prof.amplitude.hex() == "0x1.f8c1d41b8d90cp-4"


def test_misread_edge_above_a_converged_stop_falls_back_to_golden_bitwise(misread_loose_shot,
                                                                          monkeypatch):
    # the loose upper scan end misreads as an undershoot, so it becomes the
    # window edge known_u, and the first mid the replay integrates above it
    # reads Converged: the replay stops with that edge below its bracket,
    # where only the tight check of the edges catches it
    from gslab import Classification, shooting

    params, amplitude, level_S, nehari, rhs_evals = GOLDEN[0].values
    calls, misread = misread_loose_shot(lambda a, c: c == Classification.OVERSHOOT)
    # no model probes: the window edges are the bracket shots
    monkeypatch.setattr(shooting, "_narrow_window", lambda lo, hi, seen, shoot, ctrl: tuple(
        a for a, _ in shooting._edges(lo, hi, seen)))
    misreading, stopped = shooting.classify, []

    def converged_once(t, params=None, amplitude=None, convergence_factor=1e-8):
        c = misreading(t, params, amplitude, convergence_factor)
        if not stopped and misread and calls[-1][1] == "tight" and amplitude > misread[0]:
            stopped.append(amplitude)
            return Classification.CONVERGED
        return c

    monkeypatch.setattr(shooting, "classify", converged_once)
    sol = solve_ground_state(params)
    assert stopped and sol.profile.fallbacks == 1
    assert sol.amplitude.hex() == amplitude
    assert sol.level_S.hex() == level_S
    assert sol.nehari_residual.hex() == nehari
    assert sol.profile.grid.rhs_evals == rhs_evals
