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
                 "0x1.cca5f50fa83dfp+0", "0x1.4fa95d4109083p+0", 14624,
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.ecb726ffcbf39p+1", "0x1.ecb6aeec0499ep+0", 26319,
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.80f8bd8d302c9p+2", "0x1.20ba7e5f5a43ap+2", 16164,
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.cc15a89056f7cp+2", "0x1.32af9c8f3707ep+2", 15678,
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
    assert lam.hex() == "0x1.5ffd4d4d0787cp+0"
    assert d1.hex() == "0x1.3e79a16892f20p-2"
    assert dp.hex() == "0x1.c958ee0f40d10p-5"
    assert kappa_identities(w, params.eps).lq_residual.hex() == "0x1.49cd75aa9edc8p-23"


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
