"""How close the default solve is to the truth, and how close the read side's
integrals are to analyze's norms.

The amplitude search stops within amp_tol/2 of the root of the shooting
proxy, but the proxy is read off trajectories the integrator resolves only
to its own step tolerances.  These tests hold the whole solve to amp_tol
against a reference solve at atol 1e-15 / rtol 1e-13: the default tight
pair, atol 1e-14 / rtol 1e-12, was chosen by this test, a decade at a time
from 1e-12 / 1e-10 (which missed by up to 7.1e-12, and 1e-13 / 1e-11 by
1.2e-12; the Dormand-Prince 4(5) integrator at 1e-12 / 1e-10 missed by
3.6e-12 to 1.6e-11).  A second reference, at atol 1e-17 / rtol 1e-15,
starts every shot from the second-order Taylor piece the solver started
from before the series piece, so the check does not rest on the series.

The read side's integrals (radial_norm, dirichlet_norm, the profile
distances) sum their integrands against the weight row of the final pass's
node rows, u and u' from the seventh-order interpolant; analyze sums the
norm-term rows the final pass wrote on the same nodes.  On the same profiles
the two must match within 1e-13: the nodes and weights are the same, and
only the order of the products and the powers' rounding differ.
"""

import math

import pytest

from gslab import (
    Family,
    ProblemParams,
    ShootControls,
    StepControls,
    dirichlet_norm,
    radial_norm,
    solve_ground_state,
)

REFERENCE = ShootControls(step=StepControls(atol=1e-15, rtol=1e-13))
SECOND_ORDER_REFERENCE = ShootControls(step=StepControls(atol=1e-17, rtol=1e-15))

# the four golden families, and P_eps (3, 4, 6, 1e-3), the hardest of the
# five for the amplitude
CASES = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS), id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO), id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO), id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS), id="R_eps-N3-p4-q6-eps1e-2"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-3, Family.P_EPS), id="P_eps-N3-p4-q6-eps1e-3"),
]


@pytest.fixture(scope="module")
def solutions():
    cache = {}

    def get(params):
        if params not in cache:
            cache[params] = solve_ground_state(params)
        return cache[params]

    return get


@pytest.mark.parametrize("params", CASES)
def test_amplitude_within_amp_tol_of_reference(params, solutions):
    # measured: 6.5e-14, 3.5e-14, 2.8e-14, 8.8e-14 and 9.2e-14 (6.3e-14,
    # 4.1e-14, 3.4e-13, 8.5e-14 and 1.2e-13 from the second-order start)
    sol = solutions(params)
    ref = solve_ground_state(params, REFERENCE)
    assert sol.amplitude == pytest.approx(ref.amplitude, rel=ShootControls().amp_tol, abs=0.0)


@pytest.mark.parametrize("params", CASES)
def test_amplitude_within_amp_tol_of_second_order_reference(params, solutions, monkeypatch):
    # the same check against a reference that shares nothing with the
    # default solve's start: every shot of a solve at atol 1e-17 / rtol
    # 1e-15 starts from the second-order Taylor piece u = a - f(a) r^2/(2N)
    # at r0 = 1e-4 sqrt(a/|f(a)|) (at most 1e-3 r_max), the hand-off before
    # the series piece.  Measured: 7.2e-14, 4.0e-14, 1.5e-13, 1.0e-13 and
    # 1.1e-13; the two references are 4.2e-15 to 1.8e-13 apart.  The start
    # is patched into the Python shot's (dop853_reference._start), so every
    # shot runs there, the search shots on its Shot: the C kernel computes
    # its own series start
    import dop853_reference

    from gslab import ode, shooting

    sol = solutions(params)
    series = ode.series_coefficients
    handoffs = []

    def second_order_radius(coeffs, r_max):
        handoffs.append(r_max)
        a, fa = coeffs[0], -2.0 * params.N * coeffs[1]
        scale = 1e6 if fa == 0.0 else min(1e6, math.sqrt(a / abs(fa)))
        return min(1e-4 * scale, 1e-3 * r_max)

    monkeypatch.setattr(shooting, "integrate", dop853_reference.integrate)
    monkeypatch.setattr(shooting, "Shot", dop853_reference.Shot)
    monkeypatch.setattr(ode, "series_coefficients", lambda prm, a: series(prm, a)[:2])
    monkeypatch.setattr(ode, "default_handoff_radius", second_order_radius)
    ref = solve_ground_state(params, SECOND_ORDER_REFERENCE)
    assert len(handoffs) == ref.profile.integrations   # every shot started second-order
    assert len(ref.profile.grid.series) == 2
    assert sol.amplitude == pytest.approx(ref.amplitude, rel=ShootControls().amp_tol, abs=0.0)


@pytest.mark.parametrize("params", CASES)
def test_grid_route_norms_match_co_integrated(params, solutions):
    # measured: at most 6.7e-16, 1.0e-15, 2.2e-16, 6.7e-16 and 0 (1.8e-9,
    # 1.6e-9, 6.2e-9, 6.9e-9 and 8.6e-9 while they read a cubic Hermite of
    # the grid, held at 1e-8; at most 6.8e-9 on the Dormand-Prince 4(5)
    # step grid)
    sol = solutions(params)
    assert radial_norm(sol.profile, params.p) == pytest.approx(sol.norm_Lp_p, rel=1e-13, abs=0.0)
    assert dirichlet_norm(sol.profile) == pytest.approx(sol.dirichlet_sq, rel=1e-13, abs=0.0)
