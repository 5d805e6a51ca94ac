"""The one-pass W_1 distances against the two-pass routine they replaced.

``asymptotics.profile_distances`` sums ||grad(v - W_1)||_2^2 and
||v - W_1||_p^p as the two rows of one stack: one ``RadialProfile.quad``
on v's node rows and one ``emden.radial_quad`` past the grid, with W_1's
value and slope and the tail model's linear mode evaluated once per node
set.  The reference below is the routine before that: one quadrature per
distance on each node set, every integrand evaluated on its own.  The two
must agree bit for bit on the critical read side of ``tests/test_golden.py``
and on v at lambda in {0.5, 2, 9} for the critical N = 3, 4, 5 frames.  On
the same profiles the distances stay within the Hermite's interpolation
error of the cubic-Hermite route ``quad`` replaced
(``tests/hermite_reference.py``).
"""

import math

import numpy as np
import pytest

from gslab import (EmdenFowlerProfile, Family, ProblemParams, concentration_lambda, rescale_to_v,
                   solve_ground_state)
from gslab.asymptotics import profile_distances
from gslab.emden import radial_quad
from gslab.params import sphere_area

from hermite_reference import hermite_route


def _two_pass_distances(v, ref):
    N = v.params.N
    p = v.params.p
    omega = sphere_area(N)
    d1_sq = v.quad(lambda r, u, du: (du - ref.slope(r)) ** 2)
    lp = v.quad(lambda r, u, du: np.abs(u - ref.value(r)) ** p)
    R = float(v.grid.radii[-1])
    scale = math.sqrt(N * (N - 2.0)) * ref.lam / ref._stretch()
    d1_sq += radial_quad(lambda r: (ref.slope(r) - v.tail.evaluate(r)[1]) ** 2, N,
                         r_lo=R, scale=max(scale, R / 10.0))
    lp += radial_quad(lambda r: np.abs(ref.value(r) - v.tail.evaluate(r)[0]) ** p, N,
                      r_lo=R, scale=max(scale, R / 10.0))
    return math.sqrt(omega * d1_sq), (omega * lp) ** (1.0 / p)


def _same(got, want):
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w)
        assert float(g).hex() == float(w).hex()


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


def test_distances_match_two_pass_on_golden_read_side(frames):
    # test_golden.py's critical read side: v at the concentration radius of
    # the N = 5 frame, and at the radius pinned while it read Hermite prefix
    # sums of the grid panels
    w = frames(CRITICAL[2].values[0])
    ref = EmdenFowlerProfile(5, 1.0, "W")
    for lam in (concentration_lambda(w), float.fromhex("0x1.5ffd4d4d0787cp+0")):
        v = rescale_to_v(w, lam)
        _same(profile_distances(v, ref), _two_pass_distances(v, ref))


@pytest.mark.parametrize("params", CRITICAL)
@pytest.mark.parametrize("lam", [0.5, 2.0, 9.0])
def test_distances_match_two_pass_bitwise(params, lam, frames):
    v = rescale_to_v(frames(params), lam)
    ref = EmdenFowlerProfile(params.N, 1.0, "W")
    _same(profile_distances(v, ref), _two_pass_distances(v, ref))


# Measured against the Hermite route: 4.6e-8 (d1) and 4.1e-8 (dp) on the
# golden read side, at most 1.8e-8 and 1.5e-8 on the lambda ladder (N = 5 at
# lambda 2); a solve at 100x tighter step controls puts the golden d1 1.9e-8
# from the node rows' and 6.4e-8 from the Hermite route's
@pytest.mark.parametrize("params", CRITICAL)
def test_distances_match_hermite_route(params, frames, monkeypatch):
    w = frames(params)
    ref = EmdenFowlerProfile(params.N, 1.0, "W")
    lams = [0.5, 2.0, 9.0] + ([concentration_lambda(w)] if params.N == 5 else [])
    vs = [rescale_to_v(w, lam) for lam in lams]
    got = [profile_distances(v, ref) for v in vs]
    hermite_route(monkeypatch)
    for v, pair in zip(vs, got, strict=True):
        assert pair == pytest.approx(profile_distances(v, ref), rel=5e-8, abs=0.0)
