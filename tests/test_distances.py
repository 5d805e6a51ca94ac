"""The one-pass W_1 distances against the two-pass routine they replaced.

``asymptotics.profile_distances`` sums ||grad(v - W_1)||_2^2 and
||v - W_1||_p^p as the two rows of one stack: one ``RadialProfile.quad``
on v's Gauss panels and one ``emden.radial_quad`` past the grid, with W_1's
value and slope and the tail model's linear mode evaluated once per node
set.  The reference below is the routine before that: one quadrature per
distance on each node set, every integrand evaluated on its own.  The two
must agree bit for bit on the critical read side of ``tests/test_golden.py``
and on v at lambda in {0.5, 2, 9} for the critical N = 3, 4, 5 frames.
"""

import math

import numpy as np
import pytest

from gslab import (EmdenFowlerProfile, Family, ProblemParams, concentration_lambda, rescale_to_v,
                   solve_ground_state)
from gslab.asymptotics import profile_distances
from gslab.emden import radial_quad
from gslab.params import sphere_area


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
