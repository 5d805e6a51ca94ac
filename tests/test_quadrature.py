"""The vectorized panel kernel against the per-panel loops it replaced,
and the exponential far field against a fine reference rule.

``emden._panel_sum`` adds up every Gauss panel of a tail quadrature in one
numpy pass.  The loops below are the reference: one numpy pass per panel,
accumulated in panel order.  Both quadratures built on it (the far field of
``shooting.TailModel`` and ``emden.radial_quad``) must return the loop's
value bit for bit, with the same type.  ``radial_quad`` and
``RadialProfile.quad`` also take a stack of integrands and return one
sum per row, each with the bits of its integrand passed alone.  The
evaluations the read side shares keep the bits of the routes they
replaced: the tail model's u from the pieces of the correction its u'
reuses, and ``quad``'s weights, r^(N-1) kept with the final pass's node
rows.  ``quad`` is held against the cubic-Hermite route it replaced
(``tests/hermite_reference.py``) at the Hermite's interpolation error.
"""

import math

import numpy as np
import pytest

from gslab import (EmdenFowlerProfile, Family, ProblemParams, emden, find_ground_state, ode,
                   solve_ground_state)
from gslab.emden import _leggauss, eval_U, eval_U_slope, radial_quad, sobolev_constant
from gslab.functionals import analyze, dirichlet_norm, radial_norm
from gslab.shooting import TailModel

import dop853_reference
import hermite_reference


def _exp_tail_loop(g, N, R, k):
    """16 Gauss nodes on each of 16 geometric panels over [R, R + 30/k]."""
    x, w = _leggauss(16)
    edges = R * ((R + 30.0 / k) / R) ** np.linspace(0.0, 1.0, 17)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        r = mid + half * x
        total += half * float(np.sum(w * r ** (N - 1) * g(r)))
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
def profiles():
    cache = {}

    def get(params):
        if params not in cache:
            cache[params] = solve_ground_state(params).profile
        return cache[params]

    return get


@pytest.mark.parametrize("params", GOLDEN)
def test_exp_tail_quad_matches_panel_loop_bitwise(params, profiles):
    prof = profiles(params)
    tail, R = prof.tail, float(prof.grid.radii[-1])
    N, k = params.N, tail.rate_or_power
    # the algebraic P_zero tail never reaches the far field in a solve (its
    # norms are closed forms); at its power as a nominal rate it is one more
    # smooth integrand for the panels
    far = tail.far_field(R)
    for s in (2.0, params.p, params.q):
        want = _exp_tail_loop(lambda r, s=s: np.abs(tail.evaluate(r)[0]) ** s, N, R, k)
        _same(far.norm(s), want)
        if tail.kind == "Exponential":
            _same(prof.norm_tail(s), want)
    want = _exp_tail_loop(lambda r: tail.evaluate(r)[1] ** 2, N, R, k)
    _same(far.dirichlet(), want)
    if tail.kind == "Exponential":
        _same(prof.dirichlet_tail(), want)


def _reference_tail(g, N, R, decay):
    """600 log-spaced 32-node Gauss panels over [R, R + 80/decay]."""
    x, w = _leggauss(32)
    edges = np.geomspace(R, R + 80.0 / decay, 601)
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    r = mid[:, None] + half[:, None] * x
    return float(np.sum(half * np.sum(w * g(r) * r ** (N - 1), axis=1)))


# The far field of the critical N = 6 (3, 5) solves ends at kR = 0.024 and
# 0.0052, where the 16 x 32 squared-linspace rule it replaced missed the
# Dirichlet tail by 6.9e-15 and 3.9e-8; the geometric panels stay within
# 3e-15 on every case here.
TAIL_ACCURACY = [
    pytest.param(ProblemParams(6, 3.0, 5.0, 1e-9, Family.P_EPS), id="crit6-eps1e-9"),
    pytest.param(ProblemParams(6, 3.0, 5.0, 1e-11, Family.P_EPS), id="crit6-eps1e-11"),
    pytest.param(ProblemParams(5, 10.0 / 3.0, 6.0, 1e-5, Family.P_EPS), id="crit5-eps1e-5"),
    pytest.param(ProblemParams(4, 4.0, 8.0, 1e-5, Family.P_EPS), id="crit4-eps1e-5"),
    GOLDEN[0],
    GOLDEN[2],
    GOLDEN[3],
]


@pytest.mark.parametrize("params", TAIL_ACCURACY)
def test_exp_tail_within_1e12_of_fine_reference(params):
    prof = find_ground_state(params)
    tail, R, N = prof.tail, float(prof.grid.radii[-1]), params.N
    k = tail.rate_or_power
    for s in (2.0, params.p, params.q):
        want = _reference_tail(lambda r, s=s: np.abs(tail.evaluate(r)[0]) ** s, N, R, s * k)
        assert prof.norm_tail(s) == pytest.approx(want, rel=1e-12, abs=0.0)
    want = _reference_tail(lambda r: tail.evaluate(r)[1] ** 2, N, R, 2.0 * k)
    assert prof.dirichlet_tail() == pytest.approx(want, rel=1e-12, abs=0.0)


def test_tail_model_is_evaluated_once_per_profile(monkeypatch):
    # analyze's four tail terms, radial_norm and dirichlet_norm all sum the
    # one far-field set of the profile: one evaluate call, one evaluation of
    # the linear mode, so the far field evaluates ode._kve once per node
    # (the pair K_nu for the mode, K_{nu+1} for its derivative)
    prof = find_ground_state(GOLDEN[0].values[0])
    calls = {"evaluate": 0, "_mode": 0}
    for name in calls:
        method = getattr(TailModel, name)

        def counted(self, r, *args, name=name, method=method, **kw):
            calls[name] += 1
            return method(self, r, *args, **kw)

        monkeypatch.setattr(TailModel, name, counted)
    analyze(prof)
    radial_norm(prof, prof.params.p)
    dirichlet_norm(prof)
    assert calls == {"evaluate": 1, "_mode": 1}


@pytest.mark.parametrize("N", [3, 4, 5])
def test_radial_quad_matches_panel_loop_bitwise(N, monkeypatch):
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
    ]
    for g, kw in cases:
        _same(radial_quad(g, N, **kw), _radial_quad_loop(g, N, **kw))
    # another panel and node count, set on the module's constants
    monkeypatch.setattr(emden, "_TAN_PANELS", 5)
    monkeypatch.setattr(emden, "_TAN_NODES", 7)
    g = lambda r: W.value(r) ** 2
    _same(radial_quad(g, N, r_lo=1.0, r_hi=3.0),
          _radial_quad_loop(g, N, r_lo=1.0, r_hi=3.0, panels=5, nodes=7))


@pytest.mark.parametrize("params", [GOLDEN[0], GOLDEN[3]])
def test_radial_quad_on_profile_distance_integrand_matches_loop(params, profiles):
    # the beyond-the-grid integrand of profile_distances: W_1 against a solved tail
    prof = profiles(params)
    tail, R = prof.tail, float(prof.grid.radii[-1])
    ref = EmdenFowlerProfile(params.N, 1.0, "W")
    scale = max(math.sqrt(params.N * (params.N - 2.0)) / ref._stretch(), R / 10.0)
    g = lambda r: np.abs(ref.value(r) - tail.evaluate(r)[0]) ** params.p
    _same(radial_quad(g, params.N, r_lo=R, scale=scale),
          _radial_quad_loop(g, params.N, r_lo=R, scale=scale))


@pytest.mark.parametrize("params", [GOLDEN[0], GOLDEN[3]])
def test_radial_quad_stacked_rows_match_loop_bitwise(params, profiles):
    # profile_distances' two integrands past the grid as the rows of one
    # stack, the tail model evaluated once: each row has the loop's bits of
    # its integrand alone
    prof = profiles(params)
    tail, R, N, p = prof.tail, float(prof.grid.radii[-1]), params.N, params.p
    ref = EmdenFowlerProfile(N, 1.0, "W")
    scale = max(math.sqrt(N * (N - 2.0)) / ref._stretch(), R / 10.0)

    def rows(r):
        u, du = tail.evaluate(r)
        return np.stack(((du - ref.slope(r)) ** 2, np.abs(u - ref.value(r)) ** p))

    got = radial_quad(rows, N, r_lo=R, scale=scale)
    assert len(got) == 2
    _same(got[0], _radial_quad_loop(lambda r: (ref.slope(r) - tail.evaluate(r)[1]) ** 2, N,
                                    r_lo=R, scale=scale))
    _same(got[1], _radial_quad_loop(lambda r: np.abs(ref.value(r) - tail.evaluate(r)[0]) ** p, N,
                                    r_lo=R, scale=scale))


@pytest.mark.parametrize("params", GOLDEN)
def test_grid_quad_stacked_rows_match_single_rows_bitwise(params, profiles):
    # a stack of integrands on the grid's Gauss panels and series nodes gives,
    # row by row, the bits of each integrand passed alone
    prof = profiles(params)
    p = params.p
    singles = [lambda r, u, du: du * du, lambda r, u, du: np.abs(u) ** p]
    got = prof.quad(lambda r, u, du: np.stack([g(r, u, du) for g in singles]))
    assert len(got) == 2
    for row, g in zip(got, singles):
        _same(row, prof.quad(g))


@pytest.mark.parametrize("r_lo, r_hi", [(2.0, 1.0), (2.0, 2.0)])
def test_radial_quad_empty_range_is_zero(r_lo, r_hi):
    g = lambda r: eval_U(3, 1.0, r) ** 6
    got = radial_quad(g, 3, r_lo=r_lo, r_hi=r_hi)
    _same(got, _radial_quad_loop(g, 3, r_lo=r_lo, r_hi=r_hi))
    assert got == 0.0
    stacked = radial_quad(lambda r: np.stack((g(r), g(r))), 3, r_lo=r_lo, r_hi=r_hi)
    for row in stacked:
        _same(row, got)
    assert len(stacked) == 2


def _tail_separately(tail, r):
    """(u, u') of a tail model as evaluate computed them before u and u'
    shared |base|^(p-2) and 1 + (k r)^2: u through its own regressor."""
    base, dbase = tail._mode(r)
    k = tail.rate_or_power if tail.kind == "Exponential" else 0.0
    g = np.abs(base) ** tail.corr_pm2 * r * r / (1.0 + (k * r) ** 2)
    kr2 = 1.0 + (k * r) ** 2
    cg = tail.corr * np.abs(base) ** tail.corr_pm2 * r * r / kr2
    du = dbase * (1.0 + cg) + cg * (tail.corr_pm2 * dbase + 2.0 * base / (r * kr2))
    return base * (1.0 + tail.corr * g), du


@pytest.mark.parametrize("params", GOLDEN)
def test_tail_evaluate_keeps_the_bits_of_separate_passes(params, profiles):
    # on the far-field node set and across the grid end, for the solved tail
    # and a rescaled copy's (the critical read side's v)
    prof = profiles(params)
    R = float(prof.grid.radii[-1])
    for tail in (prof.tail, prof.tail.scaled(1.7, 0.3)):
        for r in (np.geomspace(0.5 * R, 40.0 * R, 96).reshape(16, 6),
                  emden._gauss_panels(R * (1.0 + np.linspace(0.0, 3.0, 17)), 16)[0]):
            u, du = tail.evaluate(r)
            want_u, want_du = _tail_separately(tail, r)
            assert np.array_equal(u, want_u)
            assert np.array_equal(du, want_du)
            assert np.array_equal(u, tail._value(r, tail._mode(r)[0])[0])


@pytest.mark.parametrize("params", GOLDEN)
def test_grid_quad_kept_power_matches_recomputed(params, profiles):
    # quad multiplies by the weight kept with the node rows, whose r^(N-1)
    # the kernel formed by products: recomputed from the node radii and the
    # grid (the Gauss weight over _SUB times the step width times r, then
    # N - 2 more factors r; the series piece's from dop853_reference), the
    # same bits on every whole step the grid keeps; and quad is the sum of
    # integrand times weight, with the same bits and type
    prof = profiles(params)
    N, radii = params.N, prof.grid.radii
    r, u, du, w = prof.grid.nodes[:4]
    ball = ode._BALL_NODES
    rr, wt = dop853_reference._ball_nodes(N, float(radii[0]))
    assert r[:ball].tobytes() == rr.tobytes() and w[:ball].tobytes() == wt.tobytes()
    steps = (len(radii) - 1) // ode._SUB
    nodes = ode._SUB * len(ode._GX)
    assert len(r) >= ball + nodes * steps > ball
    width = radii[ode._SUB:ode._SUB * steps + 1:ode._SUB] - radii[:ode._SUB * steps:ode._SUB]
    rg = r[ball:ball + nodes * steps].reshape(steps, ode._SUB, len(ode._GX))
    want = ode._GW_SUB.ravel() * width[:, None, None] * rg
    for _ in range(N - 2):
        want = want * rg
    assert w[ball:ball + nodes * steps].tobytes() == want.tobytes()
    for g in (lambda r, u, du: du * du, lambda r, u, du: np.abs(u) ** params.p,
              lambda r, u, du: np.stack((u * u, np.abs(u) ** params.q))):
        vals = g(r, u, du) * w
        got = prof.quad(g)
        if vals.ndim == 1:
            _same(got, float(np.sum(vals)))
        else:
            for row, v in zip(got, vals, strict=True):
                _same(row, float(np.sum(v)))


@pytest.mark.parametrize("params", GOLDEN)
def test_grid_quad_matches_hermite_reference(params, profiles):
    # the node rows against the cubic Hermite of the grid on 6 Gauss nodes
    # per grid interval (tests/hermite_reference.py), the route quad took
    # before: they share no node, so they differ by the Hermite's own
    # interpolation error.  Measured on the L^p, L^q and Dirichlet
    # integrals: at most 8.7e-9 (R_eps's L^q), held at 1e-8; on L^2, 9.1e-9
    # on the exponential tails, and 1.4e-7 on P_zero's, whose grid reaches
    # r_max = 1e6 with u^2 r^2 falling only like 1/r^2 (its L^2 norm
    # diverges in N = 3), held at 2e-7
    prof = profiles(params)
    p, q = params.p, params.q
    integrands = {"L2": lambda r, u, du: u * u, "Lp": lambda r, u, du: np.abs(u) ** p,
                  "Lq": lambda r, u, du: np.abs(u) ** q, "dirichlet": lambda r, u, du: du * du}
    for name, g in integrands.items():
        rel = 2e-7 if name == "L2" and params.family is Family.P_ZERO else 1e-8
        assert prof.quad(g) == pytest.approx(hermite_reference.quad(prof, g), rel=rel, abs=0.0)
