"""The profile-scaling transform amp * u(lam y) behind the minimizer frame and
the concentration rescaling: its norms move by the closed-form powers, and a
rescaled profile stays continuous where its series piece meets the grid."""

import dataclasses
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gslab import (EmdenFowlerProfile, Family, ProblemParams, concentration_lambda, rescale_to_v,
                   solve_ground_state, to_minimizer_frame)
from gslab.asymptotics import profile_distances
from gslab.ode import series_coefficients
from gslab.functionals import _norms_from_trajectory, analyze, dirichlet_norm, radial_norm
from gslab.shooting import TailModel

# the four golden cases of tests/test_golden.py
CASES = [
    ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
    ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
    ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
    ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
]


@functools.cache
def _profile(params):
    return solve_ground_state(params).profile


_log_factor = st.floats(math.log(0.1), math.log(10.0))


@settings(derandomize=True, max_examples=24, deadline=None, database=None)
@given(params=st.sampled_from(CASES), log_amp=_log_factor, log_lam=_log_factor)
def test_scaled_norms_follow_the_closed_form_powers(params, log_amp, log_lam):
    # int |amp u(lam y)|^s dy = amp^s lam^-N int |u|^s, and the Dirichlet
    # integral gains amp^2 lam^(2-N).  The tail's Dirichlet term is checked
    # on its own too, since the bulk outweighs it in dirichlet_norm: it
    # scales exactly only if TailModel.evaluate's u' is the model's exact
    # derivative.
    u = _profile(params)
    amp, lam = math.exp(log_amp), math.exp(log_lam)
    N, p, q = params.N, params.p, params.q
    v = u.scaled(amp, lam * lam)
    vol = lam**-N
    factors = (amp**2 * vol, amp**p * vol, amp**q * vol, amp**2 * lam ** (2 - N))
    for got, base, fac in zip(_norms_from_trajectory(v), _norms_from_trajectory(u), factors):
        if math.isinf(base):   # L2 of an algebraic tail in N = 3
            assert math.isinf(got)
        else:
            assert got == pytest.approx(fac * base, rel=1e-13, abs=0.0)
    for s in (p, q):
        assert radial_norm(v, s) == pytest.approx(amp**s * vol * radial_norm(u, s),
                                                  rel=1e-13, abs=0.0)
    dir_fac = factors[3]
    assert dirichlet_norm(v) == pytest.approx(dir_fac * dirichlet_norm(u), rel=1e-13, abs=0.0)
    assert v.dirichlet_tail() == pytest.approx(dir_fac * u.dirichlet_tail(), rel=1e-13, abs=0.0)


# Before the series piece was scaled with the profile, evaluating just below
# the first grid radius r0 jumped, relative to the first node: by ~1e-9 in
# value and 66% in slope in the minimizer frame at S = 2.9, and by up to
# 9.4e-6 in value and 1.7e3-5.6e3 times in slope for v at lam = 9.
@pytest.mark.parametrize("params", [
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO), id="P_zero-algebraic"),
    pytest.param(ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS), id="P_eps-exponential"),
])
@pytest.mark.parametrize("rescale", [
    pytest.param(lambda u: to_minimizer_frame(u, 2.9), id="frame-S2.9"),
    pytest.param(lambda u: rescale_to_v(u, 9.0), id="v-lam9"),
])
def test_rescaled_profile_is_continuous_at_first_grid_radius(params, rescale):
    u = _profile(params)
    # the series is the final pass's own, and a rescaled grid carries the
    # rescaled one
    assert u.grid.series == series_coefficients(params, u.amplitude)
    v = rescale(u)
    below = np.nextafter(v.grid.radii[0], 0.0)
    assert v.value(below) == pytest.approx(v.grid.values[0], rel=1e-12, abs=0.0)
    assert v.slope(below) == pytest.approx(v.grid.slopes[0], rel=1e-12, abs=0.0)


# A rescaled profile carries its own node rows, the ones its integrals sum
# (RadialProfile.quad): its source's rows times the transform's factors
# (1/lam, amp, amp lam, lam_sq^(-N/2)) on r, u, u' and the weight and
# ProblemParams.norm_factors on the four norm terms, bit for bit, in an array
# of its own, the source's rows untouched.
@pytest.mark.parametrize("params", CASES)
@pytest.mark.parametrize("rescale, amp_lam_sq", [
    pytest.param(lambda u: to_minimizer_frame(u, 2.9), lambda N: (1.0, 2.9), id="frame-S2.9"),
    pytest.param(lambda u: rescale_to_v(u, 9.0), lambda N: (9.0 ** ((N - 2.0) / 2.0), 81.0),
                 id="v-lam9"),
    pytest.param(lambda u: u.scaled(0.3, 4.0), lambda N: (0.3, 4.0), id="amp0.3-lamsq4"),
])
def test_rescaled_profile_builds_its_own_panels(params, rescale, amp_lam_sq):
    u = _profile(params)
    before = u.grid.nodes.tobytes()
    v = rescale(u)
    assert not np.shares_memory(v.grid.nodes, u.grid.nodes)
    assert u.grid.nodes.tobytes() == before
    amp, lam_sq = amp_lam_sq(params.N)
    lam = math.sqrt(lam_sq)
    factors = (1.0 / lam, amp, amp * lam, lam_sq ** (-params.N / 2.0),
               *params.norm_factors(amp, lam_sq))
    assert v.grid.nodes.shape == u.grid.nodes.shape
    for got, row, fac in zip(v.grid.nodes, u.grid.nodes, factors, strict=True):
        assert got.tobytes() == (row * fac).tobytes()


# The far-field Gauss set of an exponential tail is cached on its profile
# too.  A rescaled copy builds its own set on its first read, at its own
# grid end from its own tail model, so the set is not its source's, and its
# tail norms carry the closed-form factors (an algebraic tail's closed forms
# do).
@pytest.mark.parametrize("params", CASES)
@pytest.mark.parametrize("rescale, amp_lam_sq", [
    pytest.param(lambda u: to_minimizer_frame(u, 2.9), lambda N: (1.0, 2.9), id="frame-S2.9"),
    pytest.param(lambda u: rescale_to_v(u, 9.0), lambda N: (9.0 ** ((N - 2.0) / 2.0), 81.0),
                 id="v-lam9"),
])
def test_rescaled_profile_builds_its_own_far_field(params, rescale, amp_lam_sq):
    u = _profile(params)
    built = u.far_field
    v = rescale(u)
    if built is None:
        assert u.tail.kind == "Algebraic" and v.far_field is None
    else:
        assert v.far_field is not built
        assert v.far_field.u.shape == built.u.shape
    l2, lp, lq, dir_ = params.norm_factors(*amp_lam_sq(params.N))
    pairs = [(params.p, lp), (params.q, lq)]
    if u.tail.kind == "Exponential":
        pairs.append((2.0, l2))
    for s, fac in pairs:
        assert v.norm_tail(s) == pytest.approx(fac * u.norm_tail(s), rel=1e-13, abs=0.0)
    assert v.dirichlet_tail() == pytest.approx(dir_ * u.dirichlet_tail(), rel=1e-13, abs=0.0)


# The critical read side -- analyze, the minimizer frame, the concentration
# radius, the rescaling to v and v's W_1 distances -- evaluates the tail
# model on its far-field panels once, for u's norms: the frame's norms are
# u's times closed-form factors, concentration_lambda reads no tail where
# the grid holds Q*, and the distances sum the tail model on tan panels.  A
# copy that reads a tail norm afterwards builds its own set.
@pytest.mark.parametrize("params", [CASES[0], ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3,
                                                            Family.P_EPS)])
def test_rescaled_chain_builds_the_far_field_once(params, monkeypatch):
    u = replace(_profile(params))   # a copy without the cached far field
    assert u.tail.kind == "Exponential"
    built = []
    real = TailModel.far_field

    def counted(self, R):
        built.append(self)
        return real(self, R)

    monkeypatch.setattr(TailModel, "far_field", counted)
    w = analyze(u).rescaled_to_frame().profile
    lam = concentration_lambda(w)
    v = rescale_to_v(w, lam)
    d1, dlp = profile_distances(v, EmdenFowlerProfile(params.N))
    assert math.isfinite(d1) and math.isfinite(dlp)
    assert len(built) == 1 and built[0] is u.tail
    w.norm_tail(params.p)
    assert len(built) == 2 and built[1] is w.tail


def test_scaled_copy_carries_every_other_field():
    # RadialProfile.scaled, TailModel.scaled and rescaled_to_frame build
    # their copies field by field: every field the transform does not move
    # is the source's
    sol = analyze(_profile(CASES[0]))
    u = sol.profile
    v = u.scaled(0.3, 4.0)
    moved = [
        (u, v, {"amplitude", "grid", "tail", "r_max_used"}),
        (u.grid, v.grid, {"radii", "values", "slopes", "series", "nodes"}),
        (u.tail, v.tail, {"rate_or_power", "prefactor", "match_radius", "corr"}),
    ]
    for src, copy, names in moved:
        for f in dataclasses.fields(src):
            if f.name not in names:
                assert getattr(copy, f.name) == getattr(src, f.name), f.name
    frame = replace(sol, level_S=2.9).rescaled_to_frame()
    assert (frame.nehari_residual, frame.pokhozhaev_residual) == (sol.nehari_residual,
                                                                  sol.pokhozhaev_residual)
