"""Bitwise golden values of one reference solve per family.

A speed-up of the solver counts only if its results match the old code
bitwise.  The values below are ``float.hex`` of the solution before the
Dormand-Prince dense output was made lazy (P_eps, P_zero) and before the
integrator's stages and quadrature panels were inlined (R_zero, R_eps, and
the panel totals of all four); any change to the stepping, the error
control, the event refinement or the quadrature panels shows up here as an
exact mismatch.  They were taken on x86-64 Linux (CPython, glibc
libm); a different libm may move the last bits of ``**``.
"""

import pytest

from gslab import Family, ProblemParams, solve_ground_state

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
                 "0x1.cca5f50fa83dfp+0", "0x1.4fa95d4109083p+0", 20834,
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.ecb726ffcbf39p+1", "0x1.ecb6aeec0499ep+0", 51196,
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.80f8bd8d302c9p+2", "0x1.20ba7e5f5a43ap+2", 19722,
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.cc15a89056f7cp+2", "0x1.32af9c8f3707ep+2", 20382,
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
