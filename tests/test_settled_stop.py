"""The settled stop of the P_zero search shots against runs to r_max.

A search shot of an algebraic family (no quadrature) ends where the
far-field constant B of u ~ B + A r^-(N-2) has settled: |u + r u'/(N-2)|
exceeds ode._SETTLE_MARGIN times the drift D that B still takes on past r
(shooting._far_field_B, which reads B less D).  The oracle is the same shot
with no step allowed to settle, run to r_max as every shot ran before, at
a*(1 +- 10^-k), k = 1..12, on the golden solve and one case each of
N = 4, 5, 6:

* the stopped shot is a prefix of the full run, bit for bit;
* it reads the full run's class; where the full run reads Converged (u at
  r_max below _CONVERGENCE_FACTOR * a, or the underflow floor: N >= 4 close
  to a*), it reads the class of the full run's B;
* its B is within 1e-3 = 1 / _SETTLE_MARGIN of the full run's (the stop
  leaves less drift than that, D < |B| / _SETTLE_MARGIN), plus the drift
  the full run itself still takes on: past the stop an undershoot's u
  levels off at B, and that plateau drifts on by about
  r_max^2 B^(p-2) / (2(N-2)), relative, by r_max.  Far undershoots, where
  that reaches 1e-3, are left out.  Measured worst: 7.6e-4 relative (the
  golden undershoot at k = 3, whose plateau drift is 7.4e-4); overshoots,
  whose full run reads B at its zero crossing, 4.3e-4.  A margin of 1e2
  fails here.
"""

import numpy as np
import pytest

from gslab import Classification, Family, ProblemParams, ShootControls, solve_ground_state
from gslab import ode, shooting
from gslab.shooting import _far_field_B, classify

CASES = [
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO), id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(4, 5.0, 8.0, 0.0, Family.P_ZERO), id="P_zero-N4-p5-q8"),
    pytest.param(ProblemParams(5, 4.0, 7.0, 0.0, Family.P_ZERO), id="P_zero-N5-p4-q7"),
    pytest.param(ProblemParams(6, 4.0, 6.0, 0.0, Family.P_ZERO), id="P_zero-N6-p4-q6"),
]


@pytest.mark.parametrize("params", CASES)
def test_settled_stop_reads_the_class_and_B_of_the_run_to_r_max(params, monkeypatch):
    ctrl = ShootControls()
    r_max = shooting._default_r_max(params, ctrl)
    a_star = solve_ground_state(params).amplitude
    drift, n2 = 1e-3, params.N - 2.0   # 1 / ode._SETTLE_MARGIN
    stopped = 0
    for k in range(1, 13):
        for sign in (1.0, -1.0):
            a = a_star * (1.0 + sign * 10.0 ** -k)
            t = ode.integrate(params, a, r_max, ctrl.step)
            with monkeypatch.context() as m:
                m.setattr(ode, "_SETTLE_G", 0.0)   # no step settles
                full = ode.integrate(params, a, r_max, ctrl.step)
            n = len(t)
            assert np.array_equal(t.radii, full.radii[:n])
            assert np.array_equal(t.values, full.values[:n])
            if n == len(full):
                continue   # never settled: the run to r_max itself
            stopped += 1
            c, c_full = (classify(x, params, a) for x in (t, full))
            b, b_full = _far_field_B(params, t), _far_field_B(params, full)
            if c_full == Classification.CONVERGED:
                c_full = Classification.UNDERSHOOT if b_full > 0.0 else Classification.OVERSHOOT
            assert c == c_full, (k, sign)
            plateau = r_max ** 2 * abs(b) ** (params.p - 2.0) / (2.0 * n2)
            if c == Classification.UNDERSHOOT and plateau >= drift:
                continue
            if c == Classification.OVERSHOOT:
                plateau = 0.0
            assert abs(b - b_full) <= (drift + plateau) * abs(b_full), (k, sign)
    assert stopped >= 18
