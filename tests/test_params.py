import math

import pytest

from gslab import Family, InvalidParams, ProblemParams, Regime, sphere_area


def test_p_star_derived():
    prm = ProblemParams(3, 4.0, 6.0, 0.1, Family.P_EPS)
    assert prm.p_star() == 6.0
    assert ProblemParams(5, 4.0, 7.0, 0.0, Family.P_ZERO).p_star() == pytest.approx(10.0 / 3.0)


def test_regime_classification():
    assert ProblemParams(3, 4.0, 6.0, 0.1, Family.P_EPS).regime() is Regime.SUBCRITICAL
    assert ProblemParams(3, 6.0, 10.0, 0.1, Family.P_EPS).regime() is Regime.CRITICAL
    assert ProblemParams(3, 8.0, 12.0, 0.1, Family.P_EPS).regime() is Regime.SUPERCRITICAL


@pytest.mark.parametrize("bad", [
    dict(N=2, p=4.0, q=6.0, eps=0.1, family=Family.P_EPS),
    dict(N=3, p=2.0, q=6.0, eps=0.1, family=Family.P_EPS),
    dict(N=3, p=6.0, q=4.0, eps=0.1, family=Family.P_EPS),
    dict(N=3, p=4.0, q=6.0, eps=-0.1, family=Family.P_EPS),
    dict(N=3, p=4.0, q=6.0, eps=0.0, family=Family.P_ZERO),   # p <= p*
    dict(N=3, p=8.0, q=12.0, eps=0.1, family=Family.P_ZERO),  # eps != 0
    dict(N=3, p=8.0, q=12.0, eps=0.0, family=Family.R_ZERO),  # p >= p*
])
def test_invariants_rejected(bad):
    with pytest.raises(InvalidParams):
        ProblemParams(**bad)


@pytest.mark.parametrize("field, value", [("p", math.nan), ("q", math.inf), ("q", math.nan),
                                          ("eps", math.nan), ("eps", math.inf)])
def test_nonfinite_parameters_rejected(field, value):
    # nan passed every ordered check (nan < 0 is false), and q = inf made
    # eps* = 0: each is rejected by name
    kw = dict(N=3, p=4.0, q=6.0, eps=0.1, family=Family.P_EPS)
    kw[field] = value
    with pytest.raises(InvalidParams, match=f"{field} must be finite"):
        ProblemParams(**kw)


def test_family_coefficients():
    assert ProblemParams(3, 4.0, 6.0, 0.25, Family.P_EPS).linear_coeff == 0.25
    assert ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO).q_coeff == 1.0
    r_eps = ProblemParams(3, 4.0, 6.0, 0.04, Family.R_EPS)
    assert r_eps.linear_coeff == 1.0
    # eps^((q-p)/(p-2)) = 0.04^1
    assert r_eps.q_coeff == pytest.approx(0.04)
    assert ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO).q_coeff == 0.0


def test_potential_is_antiderivative():
    prm = ProblemParams(4, 3.5, 6.5, 0.07, Family.P_EPS)
    h = 1e-6
    for u in (0.2, 0.7, 1.3):
        dF = (prm.F(u + h) - prm.F(u - h)) / (2 * h)
        assert dF == pytest.approx(prm.f(u), rel=1e-8)


def test_sphere_area_values():
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2)


def test_numpy_scalar_inputs_are_stored_as_floats():
    # numpy scalars give the same bits but run ode.integrate ~3x slower, so
    # the public parameter tuple stores Python floats
    import numpy as np

    from gslab import solve_ground_state

    prm = ProblemParams(3, np.float64(6.0), np.float64(10.0), np.float64(1e-3), Family.P_EPS)
    assert [type(v) for v in (prm.p, prm.q, prm.eps)] == [float] * 3
    plain = ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS)
    assert solve_ground_state(prm).amplitude.hex() == solve_ground_state(plain).amplitude.hex()
