import math

import numpy as np
import pytest

from gslab import (
    EmdenFowlerProfile,
    Family,
    IllConditionedFit,
    NotInAsymptoticRegime,
    ProblemParams,
    SweepSpec,
    concentration_lambda,
    fit_exponent,
    predict_exponents,
    radial_norm,
    dirichlet_norm,
    rescale_to_v,
    sphere_area,
    sweep,
)
from gslab import asymptotics
from gslab.asymptotics import profile_distances
from gslab.emden import q_star
from gslab.params import critical_exponent


def test_concentration_of_sobolev_minimizer():
    # Q_0(lambda) = Q* if and only if lambda = 1: W_1 holds Q* in B_1
    ps = critical_exponent(5)
    assert EmdenFowlerProfile(5, 1.0, "W").norm_s(ps, r_hi=1.0) == pytest.approx(
        q_star(5), rel=1e-14, abs=0.0)


def test_concentration_dilation_covariance():
    # W_mu holds Q* in B_mu: its concentration radius is mu
    ps = critical_exponent(5)
    for mu in (0.5, 2.0):
        assert EmdenFowlerProfile(5, mu, "W").norm_s(ps, r_hi=mu) == pytest.approx(
            q_star(5), rel=1e-14, abs=0.0)


def test_concentration_mass_check(identity_solutions):
    # the rescaled v profile carries exactly Q* of p-mass in the unit ball
    sol = identity_solutions[(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)]
    w = sol.rescaled_to_frame().profile
    lam = concentration_lambda(w)
    v = rescale_to_v(w, lam)
    # v's own concentration radius is exactly 1 when its B_1 mass equals Q*
    assert concentration_lambda(v) == pytest.approx(1.0, abs=1e-9)


def test_concentration_error_when_mass_too_small(identity_solutions, monkeypatch):
    sol = identity_solutions[(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)]
    w = sol.rescaled_to_frame().profile
    total = radial_norm(w, w.params.p)
    monkeypatch.setattr(asymptotics, "q_star", lambda N: total * 1.01)
    with pytest.raises(NotInAsymptoticRegime):
        concentration_lambda(w)


def test_concentration_error_when_radius_is_past_the_grid(identity_solutions, monkeypatch):
    # Q* above the grid's mass but below the total with the tail: the radius
    # lies past the stored grid
    sol = identity_solutions[(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)]
    w = sol.rescaled_to_frame().profile
    omega = sphere_area(5)
    grid = omega * float(w.grid.cumulative(5)[-1])
    Qstar = grid + 0.5 * omega * w.norm_tail(w.params.p)
    assert grid < Qstar
    monkeypatch.setattr(asymptotics, "q_star", lambda N: Qstar)
    with pytest.raises(NotInAsymptoticRegime, match="beyond the stored grid"):
        concentration_lambda(w)


def test_rescale_identity():
    prof = EmdenFowlerProfile(5, 1.0, "W")
    # lambda = 1 returns the same object for radial profiles
    from gslab import find_ground_state

    p = find_ground_state(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO))
    assert rescale_to_v(p, 1.0) is p


@pytest.mark.parametrize("lam", [0.3, 7.0])
def test_rescale_preserves_critical_norms(identity_solutions, lam):
    # ||v||_p = ||w||_p and ||grad v||_2 = ||grad w||_2 at the critical pairing
    sol = identity_solutions[(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)]
    w = sol.rescaled_to_frame().profile
    v = rescale_to_v(w, lam)
    assert radial_norm(v, w.params.p) == pytest.approx(radial_norm(w, w.params.p), rel=1e-8)
    assert dirichlet_norm(v) == pytest.approx(dirichlet_norm(w), rel=1e-8)


def test_predict_exponents_examples():
    # N=5 critical: amplitude 1/(q-2), lambda -(p-2)/(2q-4)
    got = predict_exponents("critical", 5, 10.0 / 3.0, 6.0)
    assert got["amplitude"] == pytest.approx((0.25, 0.0))
    assert got["lambda"][0] == pytest.approx(-1.0 / 6.0)
    # N=3 critical: amplitude 1/(2q-8), lambda -1/(q-4)
    got = predict_exponents("critical", 3, 6.0, 10.0)
    assert got["amplitude"][0] == pytest.approx(1.0 / 12.0)
    assert got["lambda"][0] == pytest.approx(-1.0 / 6.0)
    # subcritical: 1/(p-2), no log
    got = predict_exponents("subcritical", 4, 3.0, 6.0)
    assert got["amplitude"] == (1.0, 0.0)
    # N=4 carries the log correction
    got = predict_exponents("critical", 4, 4.0, 8.0)
    assert got["amplitude"] == pytest.approx((1.0 / 6.0, 1.0 / 6.0))


def test_predict_exponents_regime_mismatch():
    with pytest.raises(ValueError):
        predict_exponents("critical", 5, 3.0, 6.0)
    with pytest.raises(ValueError):
        predict_exponents("supercritical", 3, 4.0, 6.0)
    with pytest.raises(ValueError):
        predict_exponents("nonsense", 3, 4.0, 6.0)


def test_spec_rejects_unknown_regime_and_p_of_a_delta_regime():
    # an unknown regime must not fall back to another regime's problem, and a
    # delta regime sets p = p* +- delta itself, so a p given to it would be
    # reported by p_value() but never solved
    with pytest.raises(ValueError, match="known: subcritical, critical, supercritical"):
        SweepSpec(regime="nonsense", N=3, q=7.0)
    for regime in ("delta_supercritical", "p_up_subcritical"):
        with pytest.raises(ValueError, match="p must not be given"):
            SweepSpec(regime=regime, N=3, q=12.0, p=4.0)
        assert SweepSpec(regime=regime, N=3, q=12.0).p_value() == 6.0


def test_fit_exact_power():
    xs = np.geomspace(1e-4, 1e-1, 12)
    fit = fit_exponent([(x, 3.0 * x**0.25) for x in xs])
    assert fit.exponent == pytest.approx(0.25, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_log_corrected_synthetic():
    xs = np.geomspace(1e-7, 1e-2, 14)
    data = [(x, (x * math.log(1.0 / x)) ** (1.0 / 6.0)) for x in xs]
    fit = fit_exponent(data, with_log=True)
    assert fit.exponent == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert fit.log_power == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_fit_with_multiplicative_noise():
    rng = np.random.default_rng(42)
    xs = np.geomspace(1e-5, 1e-1, 24)
    ys = 2.0 * xs**0.4 * (1.0 + 0.01 * rng.standard_normal(xs.size))
    fit = fit_exponent(list(zip(xs, ys)))
    assert fit.exponent == pytest.approx(0.4, rel=0.02)


def test_fit_errors():
    with pytest.raises(IllConditionedFit):
        fit_exponent([(1e-3, 1.0), (2e-3, 1.1), (3e-3, 1.2), (3.5e-3, 1.2)])
    with pytest.raises(IllConditionedFit):
        fit_exponent([(1e-3, 1.0), (1e-2, 1.1), (1e-1, 1.2)])
    with pytest.raises(IllConditionedFit):
        fit_exponent([(1e-3, 1.0), (1e-2, -1.1), (1e-1, 1.2), (5e-1, 1.0)])


def test_sweep_tolerates_per_point_failures():
    # grid_max above eps* makes the first point fail; it is recorded, the
    # sweep proceeds
    from gslab import epsilon_star

    es = epsilon_star(4.0, 6.0)
    spec = SweepSpec(regime="subcritical", N=3, q=6.0, p=4.0,
                     grid_min=1.4e-3, grid_max=es * 1.05, ratio=2.0)
    report = sweep(spec)
    failed = [pt for pt in report.points if not pt.converged]
    assert len(failed) == 1
    assert "BracketNotFound" in failed[0].failure
    assert len(report.converged_points()) >= 6


def test_sweep_point_records_a_window_arithmetic_stop():
    # an admissible P_eps point whose admissible window divides by zero (p
    # close to 2) is a recorded failure, the solver's own BracketNotFound
    spec = SweepSpec(regime="subcritical", N=6, q=2.7591, p=2.020001478)
    pt = asymptotics._solve_point(spec, asymptotics.regime_row("subcritical"), 1.88e-7, None, {})
    assert not pt.converged
    assert pt.failure.startswith("BracketNotFound: arithmetic failed in the admissible window")


def test_sweep_point_records_a_window_below_the_float_range():
    # a subcritical P_eps point whose window starts below sqrt(float min)
    # (u_F0 = 1.9e-207) is a recorded failure, the solver's own
    # BracketNotFound, where the solve raised a bare ValueError
    spec = SweepSpec(regime="subcritical", N=5, q=2.4277106147499805, p=2.0409218385713364)
    pt = asymptotics._solve_point(spec, asymptotics.regime_row("subcritical"),
                                  3.4748803381085748e-09, None, {})
    assert not pt.converged
    assert pt.failure.startswith("BracketNotFound: the admissible window of P_eps")


def test_sweep_propagates_programming_errors(monkeypatch):
    # only the solver's own failure types are recorded per point; a
    # TypeError is a bug and must not turn into a silent "failed" point,
    # whether the solve raises it or the admissible window it reads first
    from gslab import functionals, shooting

    def broken(*args, **kwargs):
        raise TypeError("broken solver")

    monkeypatch.setattr(functionals, "solve_ground_state", broken)
    spec = SweepSpec(regime="critical", N=5, q=6.0, grid_min=1e-5, grid_max=1e-2)
    with pytest.raises(TypeError, match="broken solver"):
        sweep(spec)
    monkeypatch.undo()
    monkeypatch.setattr(shooting, "_f_positive_roots", broken)
    with pytest.raises(TypeError, match="broken solver"):
        sweep(spec)


def test_sweep_requires_enough_points():
    spec = SweepSpec(regime="subcritical", N=3, q=6.0, p=4.0,
                     grid_min=1e-3, grid_max=2e-3, ratio=2.0)
    with pytest.raises(ValueError, match="8 points"):
        sweep(spec)


def test_subcritical_sweep_fit(sub_sweep):
    fit = sub_sweep.fits["amplitude"]
    assert fit.predicted_exponent == pytest.approx(0.5)
    assert fit.exponent == pytest.approx(0.5, rel=0.05)
    assert fit.r2 > 0.999


def test_critical_sweep_lambda_bound(crit5_sweep):
    # two-sided bound: sigma^(-(p-2)/(2(q-p))) <~ lambda <~ eps^(-1/2) sigma^(1/2) / ||v||_2
    p, q = crit5_sweep.p, crit5_sweep.q
    lo_exp = -(p - 2.0) / (2.0 * (q - p))
    cs1, cs2 = [], []
    for pt in crit5_sweep.converged_points():
        lo = pt.sigma**lo_exp
        hi = pt.x**-0.5 * pt.sigma**0.5 / math.sqrt(pt.v_l2_sq)
        cs1.append(pt.lam / lo)
        cs2.append(pt.lam / hi)
    # a single constant per sweep covers each side
    assert max(cs1) / min(cs1) < 10.0
    assert all(0.1 <= c <= 10.0 for c in cs1)
    assert all(0.1 <= c <= 10.0 for c in cs2)


def test_critical_identity_residual_along_sweep(crit5_sweep):
    # lambda^(-2(q-p)/(p-2)) ||v||_q^q = kappa eps lambda^2 ||v||_2^2 is exact
    for pt in crit5_sweep.converged_points():
        assert pt.kappa_res < 1e-4


def test_critical_v_norms_bounded(crit5_sweep):
    vq = [pt.v_lq_q for pt in crit5_sweep.converged_points()]
    v2 = [pt.v_l2_sq for pt in crit5_sweep.converged_points()]
    assert max(vq) < 10.0 * min(vq)
    assert max(v2) < 10.0 * min(v2)


def test_critical_n3_l2_growth_bounded(crit3_sweep):
    # ||v||_2^2 grows no faster than eps^(-(q-6)/(2(q-4))) for N = 3
    q = crit3_sweep.q
    bound = -(q - 6.0) / (2.0 * (q - 4.0))
    pts = [(pt.x, pt.v_l2_sq) for pt in crit3_sweep.converged_points()]
    fit = fit_exponent(pts)
    assert fit.exponent > bound - 0.05


def test_distances_decrease_along_critical(crit5_sweep):
    pts = crit5_sweep.converged_points()[1:]
    d1 = [pt.dist_D1 for pt in pts]
    dlp = [pt.dist_Lp for pt in pts]
    assert all(b <= a * 1.05 for a, b in zip(d1, d1[1:]))
    assert all(b <= a * 1.05 for a, b in zip(dlp, dlp[1:]))


def test_distance_to_w1_vanishes_for_w1_itself(identity_solutions):
    # rescaled family at its own concentration radius approaches W_1, so the
    # distance functional evaluated on W_1's own samples is ~0
    sol = identity_solutions[(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)]
    w = sol.rescaled_to_frame().profile
    lam = concentration_lambda(w)
    v = rescale_to_v(w, lam)
    d1, dlp = profile_distances(v, EmdenFowlerProfile(5, 1.0, "W"))
    assert 0.0 < d1 < 1.0
    assert 0.0 < dlp < 1.0


def test_delta_sweep_level_excess_vanishes(delta_sweep):
    # 0 < S_0^delta - S* and it decreases to 0 as delta -> 0
    pts = sorted(delta_sweep.converged_points(), key=lambda pt: -pt.x)
    sig = [pt.sigma for pt in pts]
    assert all(s > 0.0 for s in sig)
    assert sig[-1] < sig[0]
    assert sig[-1] < 0.1 * sig[0]


def test_small_q_delta_sweep_solves_its_smallest_delta(delta_sweep_small_q):
    # delta = 5e-3 raised InconsistentSolution (residuals 4.6e-4) while
    # P_zero's r_max was 1e6 whatever its core radius
    pt = min(delta_sweep_small_q.points, key=lambda pt: pt.x)
    assert pt.x == pytest.approx(5e-3)
    assert pt.converged, pt.failure
    assert max(pt.nehari_res, pt.pokh_res) <= 1e-9


def test_n4_pure_power_fits_predict_their_entry_without_log(crit4_sweep):
    # the pure-power fits carry no log term, so they predict (b, 0); the
    # log-corrected fits keep the paper's (b, c)
    predicted = crit4_sweep.predicted
    for name, entry in (("lambda_pure_power", "lambda"), ("amplitude_pure_power", "amplitude")):
        fit = crit4_sweep.fits[name]
        assert fit.log_power == 0.0
        assert (fit.predicted_exponent, fit.predicted_log_power) == (predicted[entry][0], 0.0)
        log_fit = crit4_sweep.fits[entry]
        assert (log_fit.predicted_exponent, log_fit.predicted_log_power) == predicted[entry]
        assert predicted[entry][1] != 0.0


def test_p_up_subcritical_blowup_exponent():
    # the subcritical-limit amplitude blows up like delta^(-1/2) at N = 3 as
    # p rises to p*; the identity residuals gate out any strained points
    rep = sweep(SweepSpec(regime="p_up_subcritical", N=3, q=7.0,
                          grid_min=5e-3, grid_max=0.2, ratio=100.0 ** 0.1))
    fit = rep.fits["amplitude"]
    assert fit.predicted_exponent == pytest.approx(-0.5)
    assert fit.exponent == pytest.approx(-0.5, rel=0.10)
