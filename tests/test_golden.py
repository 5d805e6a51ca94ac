"""Bitwise golden values of one reference solve per family.

A speed-up of the solver counts only if its results match the old code
bitwise, or if a stated tolerance covers the difference.  The values below
are ``float.hex`` of the solution and SHA-256 digests of its grid and norm
arrays, last taken when the amplitude search began to end at the
integrator's resolution (the secant of the tight proxy, verified by the
final pass).  Older pins stay asserted at a tolerance: those from when the
search closed a class bracket with Brent steps (BRENT_PINS), and those from
when the solve replayed the plain bisection (BISECTION_PINS); the search
lands within amp_tol of both.  Those from when f's roots came from a port
of scipy's brentq hold at a tolerance too; fed those roots (SCIPY_ROOTS),
the solve's amplitude is pinned bit for bit.  Any change to the stepping,
the error control, the event refinement, the quadrature panels or the
search shows up here as an exact mismatch.  They were taken on x86-64
Linux (CPython, glibc libm); a different libm may move the last bits of
``**``.  The RHS totals of a whole solve (PANELS) count work, not results:
they move when the solver integrates less.
"""

import hashlib

import numpy as np
import pytest

from gslab import Family, ProblemParams, ShootControls, solve_ground_state

# (params, amplitude, level_S, nehari_residual, grid.rhs_evals)
GOLDEN = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "0x1.bb150da6fbb5cp-1", "0x1.9e6885dd7cc33p+2", "0x1.fcf5503749d2fp-41",
                 2113, id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.f0dc83891881bp-1", "0x1.0ba01b5de5cf6p+3", "0x1.2dbbaa80e2e34p-37",
                 3187, id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.1597c27ed3706p+2", "0x1.d83d9226f9653p+3", "0x1.441cc5c2f29eep-38",
                 2323, id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.0b612fe3fce86p+2", "0x1.eb9fac3e016d2p+3", "0x1.67985d4edbdd3p-38",
                 2245, id="R_eps-N3-p4-q6-eps1e-2"),
]

# (params, grid.norm_lp[-1], grid.norm_dir[-1], profile.rhs_evals): the
# co-integrated Gauss panels of the final pass, and the RHS work of the solve
PANELS = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "0x1.cca5f50fa7384p+0", "0x1.4fa96eb273c59p+0", 9090,
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.ecb726ffc79adp+1", "0x1.ecb6aeec01597p+0", 25317,
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.80f8bd8d2fedfp+2", "0x1.20ba803c1394dp+2", 8950,
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.cc15a89057a23p+2", "0x1.32afa4efcf60ap+2", 13626,
                 id="R_eps-N3-p4-q6-eps1e-2"),
]


# The pins taken while the solve replayed the plain bisection bit for bit:
# (amplitude, level_S, radial_norm(prof, p), dirichlet_norm(prof)) per
# family.  The Brent search stays within amp_tol of that bisection, so the
# amplitude holds within 1e-12 relative (it moved by at most 5.0e-13) and
# the level and the norms within 1e-11 (at most 7.7e-13 and 2.1e-12).  The
# grid-end, digest and tail-piece pins get no such check: the truncation
# of the final trajectory moves by a grid point, which moves norm_dir[-1]
# by up to 7.9e-7 and the tail pieces by up to 39% while their sums stay.
BISECTION_PINS = {
    Family.P_EPS: ("0x1.bb150da6fbff9p-1", "0x1.9e6885dd7cfa4p+2",
                   "0x1.69cad4a409f08p+4", "0x1.07a0f21ca46f6p+4"),
    Family.P_ZERO: ("0x1.f0dc838918c0ap-1", "0x1.0ba01b5de6b0bp+3",
                    "0x1.82fa513c36de5p+5", "0x1.82fa513261effp+4"),
    Family.R_ZERO: ("0x1.1597c27ed3bbcp+2", "0x1.d83d9226f98e5p+3",
                    "0x1.2e5b2444afcf0p+6", "0x1.c588b65e47071p+5"),
    Family.R_EPS: ("0x1.0b612fe3fc8d8p+2", "0x1.eb9fac3e012bap+3",
                   "0x1.69597fa69024dp+6", "0x1.e1bde1ea1e5c7p+5"),
}


# The pins taken while the search closed a class bracket with Brent steps to
# amp_tol, a* its geometric mid: (amplitude, level_S, radial_norm(prof, p),
# dirichlet_norm(prof)).  The resolution secant is within amp_tol/2 of the
# class switch, so the amplitude and the level hold within 1e-12 relative
# (they moved by at most 2.5e-13 and 2.1e-13), the norms within 1e-11 (at
# most 8.5e-13 and 1.6e-12).  P_zero and R_eps still end on the class stop:
# P_zero keeps its bits, R_eps moved by 3 ulp when Brent's geometric mid
# became sqrt(b) * sqrt(c), which does not underflow.
BRENT_PINS = {
    Family.P_EPS: ("0x1.bb150da6fc2f8p-1", "0x1.9e6885dd7d218p+2",
                   "0x1.69cad4a40a765p+4", "0x1.07a0f21ca56b8p+4"),
    Family.P_ZERO: ("0x1.f0dc83891881bp-1", "0x1.0ba01b5de5cf6p+3",
                    "0x1.82fa513c33774p+5", "0x1.82fa51325fcf6p+4"),
    Family.R_ZERO: ("0x1.1597c27ed3241p+2", "0x1.d83d9226f93b0p+3",
                    "0x1.2e5b2444af682p+6", "0x1.c588b65e43a40p+5"),
    Family.R_EPS: ("0x1.0b612fe3fce89p+2", "0x1.eb9fac3e016bdp+3",
                   "0x1.69597fa6909f9p+6", "0x1.e1bde1ea2114fp+5"),
}


def _near(value, pin, rel):
    return value == pytest.approx(float.fromhex(pin), rel=rel, abs=0.0)


@pytest.mark.parametrize("params, amplitude, level_S, nehari, rhs_evals", GOLDEN)
def test_solve_matches_golden_bitwise(params, amplitude, level_S, nehari, rhs_evals):
    sol = solve_ground_state(params)
    assert sol.amplitude.hex() == amplitude
    assert sol.level_S.hex() == level_S
    assert sol.nehari_residual.hex() == nehari
    assert sol.profile.grid.rhs_evals == rhs_evals
    old_amplitude, old_level_S, _, _ = BISECTION_PINS[params.family]
    assert _near(sol.amplitude, old_amplitude, 1e-12)
    assert _near(sol.amplitude, SCIPY_ROOT_AMPLITUDES[params.family], 1e-12)
    assert _near(sol.level_S, old_level_S, 1e-11)
    brent_amplitude, brent_level_S, _, _ = BRENT_PINS[params.family]
    assert _near(sol.amplitude, brent_amplitude, 1e-12)
    assert _near(sol.level_S, brent_level_S, 1e-12)


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
                 "5fc3794c3cd92d8641a8c1f2aa1a13478e2b59d493f5466455d0d181532e8423",
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "6f213867760d5cbe5a0fa71dbb9af0dc4e42a77fce175f3662e60738f1861aa6",
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "fc4fc9078c523673009c330c5482b6fda588626c5e69d9d72bab6b50447d9b27",
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "ed576d30e292f3d6e6129f525b614b2ed4b9433a606fbdd5f0ddf134dbc53026",
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
                                                         rhs_evals, misread_loose_shot,
                                                         overturned, tight_bracket, monkeypatch):
    # every probe loose, the ones next to a* included: the loose ends of the
    # final bracket are integrated again tight, a loose class that flips
    # there sends the solve to its all-tight second attempt, and either way
    # the amplitude lands within amp_tol of the golden solve
    from gslab import shooting

    calls, _ = misread_loose_shot(lambda a, c: False)
    monkeypatch.setattr(shooting, "_LOOSE_SHIFT", -1.0)
    prof = solve_ground_state(params).profile
    loose = {a for a, kind, _, _ in calls if kind == "loose"}
    assert any(kind == "tight" and a in loose for a, kind, _, _ in calls), \
        "no loose end was integrated again tight"
    _assert_accounted(prof, calls, overturned, tight_bracket)
    assert _near(prof.amplitude, amplitude, ShootControls().amp_tol)


# The read side: (params, radial_norm(prof, p), dirichlet_norm,
# tail.norm_tail(2.0, R), tail.dirichlet_tail(R)) with R the last grid
# radius; None where the algebraic tail makes the L^2 norm diverge.  The
# exponential tails' Dirichlet terms were re-pinned when TailModel.slope
# became the closed-form derivative.
READ_SIDE = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "0x1.69cad4a40922bp+4", "0x1.07a0f21ca38f2p+4",
                 "0x1.d9baf4cd686cap-10", "0x1.4bb01ccb1738fp-19",
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.82fa513c33774p+5", "0x1.82fa51325fcf6p+4",
                 None, "0x1.e04e20d9c829bp-18",
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.2e5b2444af9bfp+6", "0x1.c588b65e455bdp+5",
                 "0x1.5b966db052fb6p-19", "0x1.bdbaad8e21797p-19",
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.69597fa690a01p+6", "0x1.e1bde1ea21172p+5",
                 "0x1.4584da243410cp-19", "0x1.9f52a0415f865p-19",
                 id="R_eps-N3-p4-q6-eps1e-2"),
]


# dirichlet_tail(R) while TailModel.slope was a central difference with the
# step 1e-6*max(1, r), with the amplitude of the profile it was pinned on
# (the solve fed SCIPY_ROOTS while the search closed a class bracket): on
# that profile the closed form moved it by at most 2.3e-11
DIFFERENCE_TAIL_DIR = {
    Family.P_EPS: ("0x1.bb150da6fc2f8p-1", "0x1.4bb00d4bceccbp-19"),
    Family.R_ZERO: ("0x1.1597c27ed3241p+2", "0x1.bdbaa436b7983p-19"),
    Family.R_EPS: ("0x1.0b612fe3fc55fp+2", "0x1.9f52b05304e2dp-19"),
}


def _profile_at(params, amplitude):
    """The profile packaged from a final pass at a pinned amplitude (an
    exponential family's r_max): the profile an older pin was taken on,
    wherever the search now lands."""
    from dataclasses import replace

    from gslab import shooting

    ctrl = ShootControls()
    a = float.fromhex(amplitude)
    r_max, _ = shooting._default_r_max(params, ctrl, a)
    t = shooting.integrate(params, a, r_max, replace(ctrl.step, with_quadrature=True))
    return shooting._package_profile(params, a, t, 0.5 * ctrl.amp_tol, r_max)


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
    for pins in (BISECTION_PINS, BRENT_PINS):
        _, _, old_norm_p, old_dirichlet = pins[params.family]
        assert _near(radial_norm(prof, params.p), old_norm_p, 1e-11)
        assert _near(dirichlet_norm(prof), old_dirichlet, 1e-11)


def test_critical_read_side_matches_golden_bitwise(monkeypatch):
    # one critical N=5 solve in the minimizer frame: the concentration
    # radius, both distances of the rescaled profile to W_1 and the
    # kappa-identity residual of the frame's norms
    from gslab import (EmdenFowlerProfile, analyze, concentration_lambda, kappa_identities,
                       rescale_to_v)
    from gslab.asymptotics import profile_distances

    params = ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)
    w = solve_ground_state(params).rescaled_to_frame()
    lam = concentration_lambda(w.profile)
    d1, dp = profile_distances(rescale_to_v(w.profile, lam), EmdenFowlerProfile(5, 1.0, "W"))
    assert lam.hex() == "0x1.5ffd4d5a19901p+0"
    assert d1.hex() == "0x1.3e79a1418ffcfp-2"
    assert dp.hex() == "0x1.c958ee133c9fcp-5"
    assert kappa_identities(w, params.eps).lq_residual.hex() == "0x1.49ccc2ca684b1p-23"
    # the pins taken while the search closed a class bracket: the profile
    # moved by 2.5e-13, lambda by 2.3e-13, d1 by 1.6e-12 and dp by 5.0e-12
    assert _near(lam, "0x1.5ffd4d5a19e8fp+0", 1e-11)
    assert _near(d1, "0x1.3e79a1418dd28p-2", 1e-11)
    assert _near(dp, "0x1.c958ee1332dbep-5", 1e-11)
    # the radius pinned while it was a bisection of the panel to 1e-13: on
    # the frame it was pinned on (the solve fed SCIPY_ROOTS while the search
    # closed a class bracket), Brent's lambda is within both stop widths of it
    w_old = analyze(_profile_at(params, "0x1.1aadc6ea9b41ap-1")).rescaled_to_frame()
    assert _near(concentration_lambda(w_old.profile), "0x1.5ffd4d5a193a4p+0", 2e-13)
    # the pins taken while the solve replayed the plain bisection: the
    # profile moved by ~1e-13, lambda by 1.4e-13, d1 by 5.0e-13, dp by 2.4e-12
    assert _near(lam, "0x1.5ffd4d5a19706p+0", 1e-11)
    assert _near(d1, "0x1.3e79a141909c5p-2", 1e-11)
    assert _near(dp, "0x1.c958ee13412a6p-5", 1e-11)
    # the pins taken while the radius read Hermite prefix sums of the grid
    # panels, not the co-integrated mass: lambda moved by 2.2e-9 relative,
    # and at the old lambda the distances moved only by rounding until the
    # profile itself moved with the Brent search (2.3e-13 and 2.4e-12)
    old_lam = float.fromhex("0x1.5ffd4d4d0787cp+0")
    assert lam == pytest.approx(old_lam, rel=1e-8, abs=0.0)
    d1_old, dp_old = profile_distances(rescale_to_v(w.profile, old_lam),
                                       EmdenFowlerProfile(5, 1.0, "W"))
    assert _near(d1_old, "0x1.3e79a16892f20p-2", 1e-11)
    assert _near(dp_old, "0x1.c958ee0f40d10p-5", 1e-11)


# f's roots (u_F0, u_hi) as the port of scipy's brentq found them, for the
# golden cases whose roots are not in closed form; _bracket_root's are 1-3
# ulp away
SCIPY_ROOTS = {
    ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS): ("0x1.df84fabbf2c9fp-3",
                                                      "0x1.ffdf2fd52b8b9p-1"),
    ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS): ("0x1.6c82aaabc90d0p+0",
                                                     "0x1.3e612b6e74d1cp+3"),
    ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS): ("0x1.0e4b5bd54408dp-7",
                                                            "0x1.ffceced9b6131p-1"),
}

# The amplitudes of the solves fed those roots.  P_eps and R_zero end on the
# resolution stop, which the roots' 1-3 ulp do not reach: they land on the
# golden bits.  P_zero and R_eps end on the class stop, R_eps 5.0e-13 from
# the golden amplitude.  Fed those roots while the search closed a class
# bracket, P_eps and R_zero landed on their BRENT_PINS bits.
SCIPY_ROOT_AMPLITUDES = {
    Family.P_EPS: "0x1.bb150da6fbb5cp-1",
    Family.P_ZERO: "0x1.f0dc83891881bp-1",
    Family.R_ZERO: "0x1.1597c27ed3706p+2",
    Family.R_EPS: "0x1.0b612fe3fc55fp+2",
}


def _solve_on_scipy_roots(params, monkeypatch):
    """solve_ground_state with f's roots from SCIPY_ROOTS where pinned."""
    from gslab import shooting

    real = shooting._f_positive_roots

    def roots(p):
        if p in SCIPY_ROOTS:
            return tuple(float.fromhex(x) for x in SCIPY_ROOTS[p])
        return real(p)

    monkeypatch.setattr(shooting, "_f_positive_roots", roots)
    return solve_ground_state(params)


@pytest.mark.parametrize("params", [pytest.param(p.values[0], id=p.id) for p in GOLDEN])
def test_scipy_roots_give_the_old_amplitudes_bitwise(params, monkeypatch):
    # fed the roots the old root finder found, the solve lands on its pinned
    # amplitude bit for bit; the tail's Dirichlet term of the profile its
    # difference-quotient pin was taken on is within 1e-10 of that pin
    prof = _solve_on_scipy_roots(params, monkeypatch).profile
    assert prof.amplitude.hex() == SCIPY_ROOT_AMPLITUDES[params.family]
    if params.family in DIFFERENCE_TAIL_DIR:
        amplitude, tail_dir = DIFFERENCE_TAIL_DIR[params.family]
        old = _profile_at(params, amplitude)
        assert _near(old.tail.dirichlet_tail(float(old.grid.radii[-1])), tail_dir, 1e-10)


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


# The amplitudes of two 8-point hinted N=3 subcritical sweeps.  At grid
# ratio 1.5 every hint (0.75 a, 1.3 a) around the previous amplitude is
# accepted; at ratio 2 the amplitude falls faster than the hint's lower end,
# so every hint is rejected and the solve falls back to the window scans.
HINTED_SWEEPS = [
    pytest.param(1.5, ["0x1.abceb30662a13p-2", "0x1.61b612d426e8bp-2", "0x1.23389d16fb885p-2",
                       "0x1.de34e92e6190ep-3", "0x1.87e5ff495dd27p-3", "0x1.40c58b6cb1f9cp-3",
                       "0x1.0656a7d2bd668p-3", "0x1.acdd747594186p-4"], 2, id="hints-accepted"),
    pytest.param(2.0, ["0x1.abceb30662a13p-2", "0x1.343e8a905a858p-2", "0x1.b805a1455fd92p-3",
                       "0x1.389957fba8422p-3", "0x1.bb1d3ef7960d9p-4", "0x1.39b1d0f28ac5dp-4",
                       "0x1.bbe3c7e821cdep-5", "0x1.39f80bd718bb8p-5"], 3, id="hints-rejected"),
]

# The same sweeps pinned while the search closed a class bracket; they hold
# within 1e-12 relative (the largest move is 5.0e-13)
BRENT_SWEEPS = {
    1.5: ["0x1.abceb3066316cp-2", "0x1.61b612d426877p-2", "0x1.23389d16fc288p-2",
          "0x1.de34e92e610d1p-3", "0x1.87e5ff495d66ep-3", "0x1.40c58b6cb1a21p-3",
          "0x1.0656a7d2bd1e7p-3", "0x1.acdd747593a39p-4"],
    2.0: ["0x1.abceb3066316cp-2", "0x1.343e8a905a30cp-2", "0x1.b805a1455f605p-3",
          "0x1.389957fba897ep-3", "0x1.bb1d3ef795946p-4", "0x1.39b1d0f28b1b3p-4",
          "0x1.bbe3c7e821542p-5", "0x1.39f80bd71865bp-5"],
}

# The same sweeps pinned while f's roots came from the port of scipy's
# brentq; the roots moved by 1-3 ulp, and the amplitudes by at most 5.0e-13
SCIPY_ROOT_SWEEPS = {
    1.5: ["0x1.abceb306622c0p-2", "0x1.61b612d427499p-2", "0x1.23389d16fb882p-2",
          "0x1.de34e92e610ddp-3", "0x1.87e5ff495d66ap-3", "0x1.40c58b6cb1a1ep-3",
          "0x1.0656a7d2bd1ecp-3", "0x1.acdd747593a32p-4"],
    2.0: ["0x1.abceb306622c0p-2", "0x1.343e8a905ad9fp-2", "0x1.b805a14560524p-3",
          "0x1.389957fba8983p-3", "0x1.bb1d3ef796874p-4", "0x1.39b1d0f28b1c0p-4",
          "0x1.bbe3c7e82153dp-5", "0x1.39f80bd71865bp-5"],
}

# The same sweeps pinned while the solve replayed the plain bisection, before
# the bracket scans and hint checks ran at the loose step controls; they
# hold within 1e-12 relative (the largest move is 6.4e-13)
BISECTION_SWEEPS = {
    1.5: ["0x1.abceb30662825p-2", "0x1.61b612d426cc7p-2", "0x1.23389d16fbe02p-2",
          "0x1.de34e92e61575p-3", "0x1.87e5ff495d912p-3", "0x1.40c58b6cb2012p-3",
          "0x1.0656a7d2bd2efp-3", "0x1.acdd747593ac7p-4"],
    2.0: ["0x1.abceb30662825p-2", "0x1.343e8a905ab86p-2", "0x1.b805a1455fbb8p-3",
          "0x1.389957fba7f47p-3", "0x1.bb1d3ef795c48p-4", "0x1.39b1d0f28a40dp-4",
          "0x1.bbe3c7e821db1p-5", "0x1.39f80bd718799p-5"],
}


@pytest.mark.parametrize("ratio, amplitudes, bracket_runs", HINTED_SWEEPS)
def test_hinted_sweep_matches_golden_bitwise(ratio, amplitudes, bracket_runs, monkeypatch):
    from gslab import SweepSpec, functionals, sweep

    hinted = []   # integrations before the Brent search, per hinted solve
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
    for old in (BRENT_SWEEPS[ratio], BISECTION_SWEEPS[ratio], SCIPY_ROOT_SWEEPS[ratio]):
        assert all(_near(pt.amplitude, pin, 1e-12)
                   for pt, pin in zip(rep.points, old, strict=True))
    # an accepted hint costs its two checks; a rejected one its lower check
    # (an overshoot), then one shot at each end of the admissible window
    assert hinted == [bracket_runs] * 7


def _assert_accounted(prof, calls, overturned, tight_bracket):
    """The misread tests' common checks on one solve and its integrate log.

    The second, all-tight attempt runs exactly when a loose end of the class
    bracket read another class tight; the counters sum over both attempts;
    the bracket keeps its contract (the tight_bracket fixture); the last
    final pass is at the amplitude and is the last call, or the last but one
    before the tight shot that closes the bracket of a resolution stop.
    """
    assert prof.fallbacks == int(overturned(calls))
    assert prof.integrations == len(calls)
    assert prof.loose_integrations == sum(kind == "loose" for _, kind, _, _ in calls)
    assert prof.rhs_evals == sum(n for _, _, n, _ in calls)
    tight_bracket(prof, {a: c for a, kind, _, c in calls if kind != "loose"})
    last = max(i for i, call in enumerate(calls) if call[1] == "final")
    assert calls[last][0] == prof.amplitude
    assert last == len(calls) - 1 or (last == len(calls) - 2 and calls[-1][1] == "tight"
                                      and calls[-1][0] in prof.bracket)


@pytest.mark.parametrize("params, amplitude, level_S, nehari, rhs_evals", GOLDEN)
@pytest.mark.parametrize("end", ["lower", "upper"])
def test_misread_scan_end_falls_back_to_golden_bitwise(params, amplitude, level_S, nehari,
                                                       rhs_evals, end, misread_loose_shot,
                                                       overturned, tight_bracket):
    # the loose shot that ends the lower (or upper) bracket scan reads the
    # wrong class, so the scan goes on past it.  If the search then starts
    # from it, it closes on it as an end of its bracket, where it is
    # integrated again tight and overturns; the all-tight second attempt
    # follows.  If a shot of the other class lies beyond it, the search
    # starts from the scan's own ends and never reads it again.  Either
    # way the amplitude lands within amp_tol of the golden solve.
    from gslab import Classification

    stop = Classification.UNDERSHOOT if end == "lower" else Classification.OVERSHOOT
    calls, misread = misread_loose_shot(lambda a, c: c == stop)
    prof = solve_ground_state(params).profile
    assert misread
    assert prof.fallbacks == ([misread[0], "tight"] in [call[:2] for call in calls])
    _assert_accounted(prof, calls, overturned, tight_bracket)
    assert _near(prof.amplitude, amplitude, ShootControls().amp_tol)


def test_misread_hint_check_falls_back_to_golden_bitwise(misread_loose_shot, overturned,
                                                         tight_bracket, monkeypatch):
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
    assert all(_near(pt.amplitude, want, ShootControls().amp_tol)
               for pt, want in zip(rep.points, amplitudes, strict=True))
    # the reference solve and the first point run unhinted
    assert misread == [hint[3][0]]
    assert [prof.fallbacks for prof, _ in solves] == [0, 0, 1] + [0] * 6
    for prof, own in solves:
        _assert_accounted(prof, own, overturned, tight_bracket)


def test_non_monotone_solve_falls_back_to_plain_bisection_golden(misread_loose_shot,
                                                                 overturned, tight_bracket):
    # critical N=4 at eps ~ 3.7e-9, hinted as in the crit4 sweep: here the
    # tight class is not monotone at the 1e-12 scale, so no result is the
    # bisection's bit for bit; the search still lands within amp_tol of the
    # amplitude the plain bisection gave (pinned while the solve replayed it)
    from gslab import shooting

    calls, _ = misread_loose_shot(lambda a, c: False)
    params = ProblemParams(4, 4.0, 8.0, 3.662109375e-09, Family.P_EPS)
    ctrl = ShootControls(bracket_hint=(0.10300182478482967, 0.17853649629370474))
    prof = shooting.find_ground_state(params, ctrl)
    _assert_accounted(prof, calls, overturned, tight_bracket)
    assert _near(prof.amplitude, "0x1.f8c1d41b8d90cp-4", ctrl.amp_tol)
    assert prof.bracket[1] / prof.bracket[0] - 1.0 <= ctrl.amp_tol


def test_misread_edge_above_a_converged_stop_falls_back_to_golden_bitwise(misread_loose_shot,
                                                                          overturned,
                                                                          tight_bracket,
                                                                          monkeypatch):
    # the loose upper scan end misreads as an undershoot, so the first
    # attempt closes on it and overturns it; in the all-tight second attempt
    # the first tight shot or final pass within amp_tol of a* reads
    # Converged and ends the search there, on that one shot
    from gslab import Classification, shooting

    params, amplitude, *_ = GOLDEN[0].values
    tol = ShootControls().amp_tol
    calls, misread = misread_loose_shot(lambda a, c: c == Classification.OVERSHOOT)
    misreading, stopped = shooting.classify, []

    def converged_once(t, params=None, amplitude_=None, convergence_factor=1e-8):
        c = misreading(t, params, amplitude_, convergence_factor)
        if not stopped and calls[-1][1] != "loose" and _near(amplitude_, amplitude, tol):
            stopped.append(amplitude_)
            calls[-1][3] = c = Classification.CONVERGED
        return c

    monkeypatch.setattr(shooting, "classify", converged_once)
    prof = solve_ground_state(params).profile
    assert misread and stopped and prof.fallbacks == 1
    assert prof.bracket == (stopped[0], stopped[0]) and prof.amplitude == stopped[0]
    _assert_accounted(prof, calls, overturned, tight_bracket)
    assert _near(prof.amplitude, amplitude, tol)
