"""The batched concentration-radius bisection against the scalar one it replaced.

``asymptotics.concentration_lambda`` evaluates the ball mass at the mids of
several bisection levels in one numpy pass.  The loop below is the
reference: the same bisection with one Gauss sum per mid, bracketed by the
co-integrated mass of the grid (``grid.norm_lp``).  The radius must
be the same bit for bit, wherever the root lies: in the series piece below
the first grid radius, in the first grid panel, inside the grid and in the
last panel.  The radius reads only the sign of each mass minus Q*, so the
test also sets Q* to the mass at each mid the scalar bisection visits: the
decision there then compares equal values, and a mass one ulp off moves
the radius.
"""

import numpy as np
import pytest

from gslab import Family, ProblemParams, concentration_lambda, solve_ground_state
from gslab.asymptotics import _ball_mass_series
from gslab.emden import _leggauss, q_star
from gslab.params import sphere_area
from gslab.shooting import _hermite_eval


def _lambda_loop(w, Qstar, visits=None):
    N, p = w.params.N, w.params.p
    omega = sphere_area(N)
    cum = omega * w.grid.norm_lp
    idx = int(np.searchsorted(cum, Qstar))
    rg = w.grid.radii
    lo = 0.0 if idx == 0 else float(rg[idx - 1])
    hi = float(rg[idx])
    base = 0.0 if idx == 0 else float(cum[idx - 1])
    x, gw = _leggauss(24)

    def mass_to(r):
        if idx == 0:
            return base + _ball_mass_series(w, r) * omega
        mid, half = 0.5 * (lo + r), 0.5 * (r - lo)
        rr = mid + half * x
        uu = _hermite_eval(rg, w.grid.values, w.grid.slopes, rr, False)
        return base + omega * half * float(np.sum(gw * np.abs(uu) ** p * rr ** (N - 1)))

    f_lo = base - Qstar
    a_, b_ = lo, hi
    for _ in range(200):
        if b_ - a_ <= 1e-13 * max(1.0, b_):
            break
        m = 0.5 * (a_ + b_)
        mass = mass_to(m)
        if visits is not None:
            visits.append(mass)
        fm = mass - Qstar
        if (fm <= 0.0) == (f_lo <= 0.0):
            a_, f_lo = m, fm
        else:
            b_ = m
    return 0.5 * (a_ + b_)


CRITICAL = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS), id="N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(4, 4.0, 8.0, 1e-3, Family.P_EPS), id="N4-p4-q8-eps1e-3"),
    pytest.param(ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS), id="N5-p10/3-q6-eps1e-3"),
]


@pytest.fixture(scope="module")
def frames():
    cache = {}

    def get(params):
        if params not in cache:
            cache[params] = solve_ground_state(params).rescaled_to_frame().profile
        return cache[params]

    return get


def _same(got, want):
    assert type(got) is type(want) is float
    assert got.hex() == want.hex()


@pytest.mark.parametrize("params", CRITICAL)
def test_lambda_matches_scalar_bisection_bitwise(params, frames):
    w = frames(params)
    Qstar = q_star(params.N)
    _same(concentration_lambda(w), _lambda_loop(w, Qstar))
    _same(concentration_lambda(w, Qstar), _lambda_loop(w, Qstar))


@pytest.mark.parametrize("params", CRITICAL)
@pytest.mark.parametrize("where", ["series", "first_panel", "inner_panel", "last_panel"])
def test_lambda_matches_scalar_bisection_in_every_piece(params, where, frames):
    w = frames(params)
    cum = sphere_area(params.N) * w.grid.norm_lp
    # the last panel that adds more than rounding: further out the prefix sums
    # are flat, and a Q* there would not lie below the total mass
    last = int(np.nonzero(np.diff(cum) > 1e-12 * cum[-1])[0][-1]) + 1
    k = {"series": 0, "first_panel": 1, "inner_panel": last // 2, "last_panel": last}[where]
    Qstar = 0.5 * ((0.0 if k == 0 else float(cum[k - 1])) + float(cum[k]))
    assert int(np.searchsorted(cum, Qstar)) == k
    _same(concentration_lambda(w, Qstar), _lambda_loop(w, Qstar))


@pytest.mark.parametrize("params", CRITICAL)
def test_lambda_matches_scalar_bisection_with_qstar_at_each_mid(params, frames):
    w = frames(params)
    visits = []
    _lambda_loop(w, q_star(params.N), visits)
    assert len(visits) > 30
    for Qstar in visits:
        _same(concentration_lambda(w, Qstar), _lambda_loop(w, Qstar))
