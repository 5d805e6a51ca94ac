import math

import numpy as np
import pytest

from gslab import (
    DivergentNormError,
    EmdenFowlerProfile,
    Family,
    ProblemParams,
    q_star,
    rhs_eval,
    sobolev_constant,
)
from gslab.emden import _gauss_panels, eval_U, eval_U_slope, q0_of_lambda, radial_quad


def test_eval_U_at_origin():
    assert eval_U(3, 1.0, 0.0) == 1.0


def test_eval_U_closed_form_point():
    # N(N-2) = 3, so U_1(sqrt(3)) = (1+1)^(-1/2)
    assert eval_U(3, 1.0, math.sqrt(3.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)


def test_eval_U_scaling_definition():
    # U_lam(r) = lam^(-(N-2)/2) U_1(r/lam)
    got = eval_U(5, 2.0, 2.0)
    assert got == pytest.approx(2.0 ** -1.5 * eval_U(5, 1.0, 1.0), rel=1e-14)


def test_slope_matches_finite_difference():
    h = 1e-6
    for r in (0.3, 1.7, 9.0):
        fd = (eval_U(4, 1.3, r + h) - eval_U(4, 1.3, r - h)) / (2 * h)
        assert eval_U_slope(4, 1.3, r) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_sobolev_routes_agree(N):
    from gslab.params import sphere_area

    s = sobolev_constant(N)
    p_star = 2.0 * N / (N - 2.0)
    u1 = EmdenFowlerProfile(N, 1.0, "U")
    route_p = u1.norm_s(p_star) ** (2.0 / N)
    assert abs(route_p - s) < 1e-8 * s


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_sobolev_against_gamma_closed_form(N):
    # independent Talenti evaluation: S* = N(N-2) pi (Gamma(N/2)/Gamma(N))^(2/N)
    closed = N * (N - 2.0) * math.pi * (math.gamma(N / 2.0) / math.gamma(N)) ** (2.0 / N)
    assert sobolev_constant(N) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_W1_is_normalized(N):
    w1 = EmdenFowlerProfile(N, 1.0, "W")
    p_star = 2.0 * N / (N - 2.0)
    assert w1.norm_s(p_star) == pytest.approx(1.0, abs=1e-8)
    assert w1.dirichlet_sq() == pytest.approx(sobolev_constant(N), rel=1e-10)


def test_sobolev_lambda_independence():
    # the constant computed from U_3 equals the lam = 1 value
    u3 = EmdenFowlerProfile(5, 3.0, "U")
    s = u3.dirichlet_sq() ** (2.0 / 5.0)
    assert s == pytest.approx(sobolev_constant(5), rel=1e-8)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_q_star_in_unit_interval(N):
    q = q_star(N)
    assert 0.0 < q < 1.0


def test_q_star_complementary_mass():
    N = 3
    w1 = EmdenFowlerProfile(N, 1.0, "W")
    p_star = 6.0
    interior = w1.norm_s(p_star, r_hi=1.0)
    from gslab.params import sphere_area

    s_ast = sobolev_constant(N)
    c = math.sqrt(N * (N - 2.0)) / math.sqrt(s_ast)
    exterior = sphere_area(N) * radial_quad(
        lambda r: np.abs(w1.value(r)) ** p_star, N, r_lo=1.0, scale=c
    )
    assert interior == pytest.approx(q_star(N), rel=1e-12)
    assert interior + exterior == pytest.approx(1.0, abs=1e-8)


def test_q0_monotone_decreasing_and_anchored():
    N = 4
    assert q0_of_lambda(N, 1.0) == pytest.approx(q_star(N), rel=1e-12)
    lams = [0.4, 0.8, 1.0, 1.7, 3.0]
    vals = [q0_of_lambda(N, lam) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def _U_closed(N, lam, r):
    """U_lam and its slope at r as eval_U and eval_U_slope wrote them before
    they shared x and 1 + x^2/c2: each its own pass over the nodes."""
    c2 = N * (N - 2.0)
    x = np.asarray(r, dtype=float) / lam
    u = lam ** (-(N - 2.0) / 2.0) * (1.0 + x * x / c2) ** (-(N - 2.0) / 2.0)
    x = np.asarray(r, dtype=float) / lam
    du = lam ** (-N / 2.0) * (-(N - 2.0) * x / c2) * (1.0 + x * x / c2) ** (-N / 2.0)
    return u, du


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("frame", ["U", "W"])
@pytest.mark.parametrize("lam", [0.37, 1.0, 2.5])
def test_evaluate_has_the_bits_of_value_and_slope(N, frame, lam):
    # EmdenFowlerProfile.evaluate, the one (value, slope) pass of
    # profile_distances, on node arrays: a (panels, 6) grid-like set and
    # radial_quad's tan nodes; each bit for bit value(r) and slope(r), and
    # the closed forms written out separately
    prof = EmdenFowlerProfile(N, lam, frame)
    grid = np.geomspace(1e-4, 50.0, 120).reshape(20, 6)
    th, _, _ = _gauss_panels(np.linspace(0.0, 0.5 * math.pi, 13), 48)
    for r in (grid, prof.tan_scale() * np.tan(th)):
        w, dw = prof.evaluate(r)
        assert np.array_equal(w, prof.value(r))
        assert np.array_equal(dw, prof.slope(r))
        k = math.sqrt(sobolev_constant(N)) if frame == "W" else 1.0
        u, du = _U_closed(N, lam, r * k)
        assert np.array_equal(w, u)
        assert np.array_equal(dw, k * du)


def test_U1_solves_emden_equation():
    # -Delta U_1 = U_1^(p*-1) pointwise: evaluate the radial operator through
    # rhs_eval (adding back its q-term) against the closed-form u''
    rng = np.random.default_rng(7)
    for N in (3, 5):
        p_star = 2.0 * N / (N - 2.0)
        prm = ProblemParams(N, p_star, p_star + 2.0, 0.0, Family.P_EPS)
        c2 = N * (N - 2.0)
        for r in rng.uniform(0.05, 30.0, size=100):
            u = eval_U(N, 1.0, r)
            du = eval_U_slope(N, 1.0, r)
            upp = rhs_eval(prm, r, u, du) - u ** (p_star + 1.0)
            w = 1.0 + r * r / c2
            upp_closed = -(N - 2.0) / c2 * w ** (-N / 2.0 - 1.0) * (w - N * r * r / c2)
            assert abs(upp - upp_closed) < 1e-10


@pytest.mark.parametrize("s_extra", [0.5, None])
def test_W_norm_scaling_law(s_extra):
    # ||W_lam||_s^s = lam^(-(N-2)(s-p*)/2) ||W_1||_s^s
    N, lam, q = 5, 1.9, 6.0
    p_star = 2.0 * N / (N - 2.0)
    s = p_star + 0.5 if s_extra else q
    w1 = EmdenFowlerProfile(N, 1.0, "W")
    wl = EmdenFowlerProfile(N, lam, "W")
    expect = lam ** (-(N - 2.0) * (s - p_star) / 2.0) * w1.norm_s(s)
    assert wl.norm_s(s) == pytest.approx(expect, rel=1e-8)


def test_W_l2_scaling_high_dimension():
    # ||W_lam||_2^2 = lam^2 ||W_1||_2^2 for N >= 5
    w1 = EmdenFowlerProfile(5, 1.0, "W")
    w2 = EmdenFowlerProfile(5, 2.0, "W")
    assert w2.norm_s(2.0) == pytest.approx(4.0 * w1.norm_s(2.0), rel=1e-8)


@pytest.mark.parametrize("N", [3, 4])
def test_W_l2_diverges_low_dimension(N):
    with pytest.raises(DivergentNormError):
        EmdenFowlerProfile(N, 1.0, "W").norm_s(2.0)
