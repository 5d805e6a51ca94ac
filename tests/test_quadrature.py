"""The vectorized panel kernel against the per-panel loops it replaced.

``emden._panel_quad`` evaluates every Gauss panel of a tail quadrature in
one numpy pass.  The loops below are the reference: one numpy pass per
panel, accumulated in panel order.  Both quadratures built on the kernel
(``shooting._exp_tail_quad`` and ``emden.radial_quad``) must return the
loop's value bit for bit, with the same type.
"""

import math

import numpy as np
import pytest

from gslab import EmdenFowlerProfile, Family, ProblemParams, solve_ground_state
from gslab.emden import _leggauss, eval_U, eval_U_slope, radial_quad, sobolev_constant
from gslab.shooting import _exp_tail_quad


def _exp_tail_loop(g, N, R, decay):
    x, w = _leggauss(32)
    width = 60.0 / max(decay, 1e-300)
    edges = R + width * np.linspace(0.0, 1.0, 17) ** 2
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        r = mid + half * x
        total += half * float(np.sum(w * g(r) * r ** (N - 1)))
    return total


def _radial_quad_loop(g, N, r_lo=0.0, r_hi=math.inf, scale=1.0, panels=12, nodes=48):
    th_lo = math.atan2(r_lo, scale)
    th_hi = math.pi / 2.0 if math.isinf(r_hi) else math.atan2(r_hi, scale)
    if th_hi <= th_lo:
        return 0.0
    x, w = _leggauss(nodes)
    edges = np.linspace(th_lo, th_hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        th = mid + half * x
        r = scale * np.tan(th)
        jac = scale / np.cos(th) ** 2
        total += half * float(np.sum(w * g(r) * r ** (N - 1) * jac))
    return total


def _same(got, want):
    assert type(got) is type(want)
    assert float(got).hex() == float(want).hex()


GOLDEN = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS), id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO), id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO), id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS), id="R_eps-N3-p4-q6-eps1e-2"),
]


@pytest.fixture(scope="module")
def tails():
    cache = {}

    def get(params):
        if params not in cache:
            prof = solve_ground_state(params).profile
            cache[params] = (prof.tail, float(prof.grid.radii[-1]))
        return cache[params]

    return get


@pytest.mark.parametrize("params", GOLDEN)
def test_exp_tail_quad_matches_panel_loop_bitwise(params, tails):
    tail, R = tails(params)
    # the algebraic P_zero tail never reaches this quadrature in a solve;
    # over a nominal window it is one more smooth integrand for the kernel
    rate = tail.rate_or_power if tail.kind == "Exponential" else 1.0
    for s in (2.0, params.p, params.q):
        g = lambda r, s=s: np.abs(tail.predict(r)) ** s
        _same(_exp_tail_quad(g, params.N, R, s * rate), _exp_tail_loop(g, params.N, R, s * rate))
        if tail.kind == "Exponential":
            _same(tail.norm_tail(s, R), _exp_tail_loop(g, params.N, R, s * rate))
    g = lambda r: tail.slope(r) ** 2
    _same(_exp_tail_quad(g, params.N, R, 2.0 * rate), _exp_tail_loop(g, params.N, R, 2.0 * rate))
    if tail.kind == "Exponential":
        _same(tail.dirichlet_tail(R), _exp_tail_loop(g, params.N, R, 2.0 * rate))


@pytest.mark.parametrize("N", [3, 4, 5])
def test_radial_quad_matches_panel_loop_bitwise(N):
    p_star = 2.0 * N / (N - 2.0)
    c = math.sqrt(N * (N - 2.0))
    rt = math.sqrt(sobolev_constant(N))
    W = EmdenFowlerProfile(N, 0.7, "W")
    cases = [
        # (integrand, keyword arguments): infinite and finite r_hi, r_lo > 0
        (lambda r: eval_U_slope(N, 1.0, r) ** 2, dict(scale=c)),
        (lambda r: eval_U(N, 1.0, r) ** p_star, dict(scale=c)),
        *[(lambda r, lam=lam: eval_U(N, lam, r) ** p_star, dict(r_hi=rt, scale=lam * c))
          for lam in (0.4, 1.3, 3.0)],
        (lambda r: np.abs(W.value(r)) ** p_star, dict(r_lo=2.5, scale=max(c, 0.25))),
        (lambda r: W.slope(r) ** 2, dict(r_lo=0.5, r_hi=40.0, scale=c)),
        (lambda r: W.value(r) ** 2, dict(r_lo=1.0, r_hi=3.0, panels=5, nodes=7)),
    ]
    for g, kw in cases:
        _same(radial_quad(g, N, **kw), _radial_quad_loop(g, N, **kw))


@pytest.mark.parametrize("params", [GOLDEN[0], GOLDEN[3]])
def test_radial_quad_on_profile_distance_integrand_matches_loop(params, tails):
    # the beyond-the-grid integrand of profile_distances: W_1 against a solved tail
    tail, R = tails(params)
    ref = EmdenFowlerProfile(params.N, 1.0, "W")
    scale = max(math.sqrt(params.N * (params.N - 2.0)) / ref._stretch(), R / 10.0)
    g = lambda r: np.abs(ref.value(r) - tail.predict(r)) ** params.p
    _same(radial_quad(g, params.N, r_lo=R, scale=scale),
          _radial_quad_loop(g, params.N, r_lo=R, scale=scale))


@pytest.mark.parametrize("r_lo, r_hi", [(2.0, 1.0), (2.0, 2.0)])
def test_radial_quad_empty_range_is_zero(r_lo, r_hi):
    g = lambda r: eval_U(3, 1.0, r) ** 6
    got = radial_quad(g, 3, r_lo=r_lo, r_hi=r_hi)
    _same(got, _radial_quad_loop(g, 3, r_lo=r_lo, r_hi=r_hi))
    assert got == 0.0
