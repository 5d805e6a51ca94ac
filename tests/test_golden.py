"""Bitwise golden values of two reference solves.

A speed-up of the solver counts only if its results match the old code
bitwise.  The values below are ``float.hex`` of the solution before the
Dormand-Prince dense output was made lazy; any change to the stepping, the
error control, the event refinement or the quadrature panels shows up here
as an exact mismatch.  They were taken on x86-64 Linux (CPython, glibc
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
]


@pytest.mark.parametrize("params, amplitude, level_S, nehari, rhs_evals", GOLDEN)
def test_solve_matches_golden_bitwise(params, amplitude, level_S, nehari, rhs_evals):
    sol = solve_ground_state(params)
    assert sol.amplitude.hex() == amplitude
    assert sol.level_S.hex() == level_S
    assert sol.nehari_residual.hex() == nehari
    assert sol.profile.grid.rhs_evals == rhs_evals
