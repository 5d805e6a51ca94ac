"""The concentration radius against the scalar bisection it replaced.

``asymptotics.concentration_lambda`` closes the grid panel that holds the
root with Brent's method (``shooting._bracket_root``) at a relative width of
1e-13.  The loop below is the reference: a bisection of the same panel with
one 24-point Gauss sum of the ball mass per mid, bracketed by the mass
at the grid radii (``Trajectory.cumulative`` of the final pass's w |u|^p
node row: summed over the series piece and each grid panel, then added up
in order; held against that row's sum over each truncated grid), down to
the width
1e-13 * max(1, b).  The two radii must agree within that stop width plus
2e-13 relative, wherever the root lies: in the series piece below the first
grid radius, in the first grid panel, inside the grid and in the last
panel.  The bisection's width is absolute below 1, so in the series piece
(r ~ 4e-5) the two differ by up to 6.5e-10 relative.  Each radius takes at
most 8 evaluations of the ball mass.  The test also sets Q* to the mass at
each mid the bisection visits, where the bisection decides on equal values.
"""

import math

import numpy as np
import pytest

from gslab import (Family, ProblemParams, asymptotics, concentration_lambda, ode,
                   solve_ground_state)
from gslab.emden import _leggauss, q_star
from gslab.params import sphere_area
from gslab.shooting import _hermite_eval


def _lambda_loop(w, Qstar, visits=None):
    N, p = w.params.N, w.params.p
    omega = sphere_area(N)
    cum = omega * w.grid.cumulative(5)
    idx = int(np.searchsorted(cum, Qstar))
    rg = w.grid.radii
    lo = 0.0 if idx == 0 else float(rg[idx - 1])
    hi = float(rg[idx])
    base = 0.0 if idx == 0 else float(cum[idx - 1])
    x, gw = _leggauss(24)

    def mass_to(r):
        mid, half = 0.5 * (lo + r), 0.5 * (r - lo)
        rr = mid + half * x
        if idx == 0:
            uu = w.value(rr)
        else:
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


@pytest.fixture
def mass_evaluations(monkeypatch):
    """Count the panel evaluations (one per ball mass) of a call: the cubic
    Hermite of the grid panel that holds the root, or the series piece when
    the root lies below the first grid radius."""
    calls = []
    for name in ("_hermite", "series_piece"):
        real = getattr(asymptotics, name)

        def counted(*args, real=real, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(asymptotics, name, counted)
    return calls


def _check(w, Qstar, calls, monkeypatch):
    """concentration_lambda against the bisection, and its mass evaluations,
    with Q* (asymptotics.q_star) set to Qstar."""
    want = _lambda_loop(w, Qstar)
    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(asymptotics, "q_star", lambda N: Qstar)
        got = concentration_lambda(w)
    assert 0 < len(calls) <= 8
    # the bisection reads base + mass - Q*, which rounds to 0 on a plateau of
    # width ~ulp(Q*) / m' around the root, m' the derivative of the ball mass
    N = w.params.N
    plateau = math.ulp(Qstar) / (sphere_area(N) * want ** (N - 1) * abs(w.value(want)) ** w.params.p)
    assert abs(got - want) <= 1e-13 * max(1.0, want) + 2e-13 * want + plateau, (got, want)
    return got


@pytest.mark.parametrize("params", CRITICAL)
def test_lambda_matches_scalar_bisection(params, frames, mass_evaluations, monkeypatch):
    w = frames(params)
    got = _check(w, q_star(params.N), mass_evaluations, monkeypatch)
    assert concentration_lambda(w) == got


@pytest.mark.parametrize("params", CRITICAL)
@pytest.mark.parametrize("where", ["series", "first_panel", "inner_panel", "last_panel"])
def test_lambda_matches_scalar_bisection_in_every_piece(params, where, frames,
                                                         mass_evaluations, monkeypatch):
    w = frames(params)
    cum = sphere_area(params.N) * w.grid.cumulative(5)
    # the last panel that adds more than rounding: further out the prefix sums
    # are flat, and a Q* there would not lie below the total mass
    last = int(np.nonzero(np.diff(cum) > 1e-12 * cum[-1])[0][-1]) + 1
    k = {"series": 0, "first_panel": 1, "inner_panel": last // 2, "last_panel": last}[where]
    Qstar = 0.5 * ((0.0 if k == 0 else float(cum[k - 1])) + float(cum[k]))
    assert int(np.searchsorted(cum, Qstar)) == k
    got = _check(w, Qstar, mass_evaluations, monkeypatch)
    assert (0.0 if k == 0 else w.grid.radii[k - 1]) < got <= w.grid.radii[k]


@pytest.mark.parametrize("params", CRITICAL)
def test_lambda_matches_scalar_bisection_with_qstar_at_each_mid(params, frames,
                                                                mass_evaluations,
                                                                monkeypatch):
    w = frames(params)
    visits = []
    _lambda_loop(w, q_star(params.N), visits)
    assert len(visits) > 30
    for Qstar in visits:
        _check(w, Qstar, mass_evaluations, monkeypatch)


@pytest.mark.parametrize("params", CRITICAL)
def test_grid_mass_is_the_term_row_summed_to_each_radius(params, frames):
    # concentration_lambda's mass at grid radius k, over omega, is the
    # w |u|^p row (node row 5) summed over the nodes of the grid truncated
    # there: the series piece alone at k = 0, then ball and panels up to k (reduceat's offsets shifted by one node
    # move the first two by 2.5e-4 relative or more; the last sums every
    # node either way)
    w = frames(params)
    cum = w.grid.cumulative(5)
    assert len(cum) == len(w.grid.radii)
    for k in (0, len(cum) // 3, len(cum) - 1):
        row = w.grid.truncated(k + 1).nodes[5]
        assert len(row) == ode._BALL_NODES + len(ode._GX) * k
        assert cum[k] == pytest.approx(float(np.sum(row)), rel=1e-14, abs=0.0)
