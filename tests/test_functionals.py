import math
from dataclasses import replace

import numpy as np
import pytest

from gslab import (
    DivergentNormError,
    EmdenFowlerProfile,
    Family,
    InconsistentSolution,
    ProblemParams,
    dirichlet_norm,
    extract_level,
    identity_residuals,
    kappa_identities,
    limit_identities,
    concentration_lambda,
    radial_norm,
    rescale_to_v,
    sobolev_constant,
    solve_ground_state,
    to_minimizer_frame,
)
from gslab import shooting
from gslab.asymptotics import profile_distances
from gslab.functionals import GroundStateSolution, analyze, constraint_value, energy
from gslab.params import sphere_area


def test_u1_norm_is_sobolev_power():
    for N in (3, 4, 5):
        u1 = EmdenFowlerProfile(N, 1.0, "U")
        p_star = 2.0 * N / (N - 2.0)
        s = sobolev_constant(N)
        assert u1.norm_s(p_star) == pytest.approx(s ** (N / 2.0), rel=1e-10)
        assert u1.dirichlet_sq() == pytest.approx(s ** (N / 2.0), rel=1e-10)


def test_dirichlet_w1_is_sobolev_constant():
    assert EmdenFowlerProfile(4, 1.0, "W").dirichlet_sq() == pytest.approx(
        sobolev_constant(4), rel=1e-10
    )


def test_algebraic_profile_l2_divergence(identity_solutions):
    sol = identity_solutions[(3, 8.0, 12.0, 0.0, Family.P_ZERO)]
    with pytest.raises(DivergentNormError, match="<= N"):
        radial_norm(sol.profile, 2.0)
    assert math.isinf(sol.norm_L2_sq)


# P_eps tends to P_zero as eps -> 0, and at N >= 5 both have an L^2 norm.
# P_zero's at eps = 1e-10 is the oracle: at N = 5 the P_eps norm approaches
# it like sqrt(eps) (the r^-(N-2) tail cut off at the decay length
# eps^(-1/2) carries ~sqrt(eps) of the mass), 2.6e-4, 8.3e-5 and 2.6e-5 away
# at eps = 1e-9, 1e-10 and 1e-11; at N = 6 like eps (3.8e-7, 3.9e-8,
# 6.4e-10).  The bound, 2e-4, is 2.4x the largest gap at 1e-10.  While the
# P_zero grid ran on to r_max through integrator noise, (5, 4, 6) read
# 133,436 against 67,276 (off by 0.98).
@pytest.mark.parametrize("N, p, q", [(5, 4.0, 6.0), (6, 3.5, 5.0), (5, 3.6, 7.0)])
def test_p_zero_l2_norm_is_the_small_eps_limit(N, p, q):
    limit = solve_ground_state(ProblemParams(N, p, q, 0.0, Family.P_ZERO)).norm_L2_sq
    near = solve_ground_state(ProblemParams(N, p, q, 1e-10, Family.P_EPS)).norm_L2_sq
    assert limit == pytest.approx(near, rel=2e-4, abs=0.0)


def test_norm_requires_s_at_least_one(identity_solutions):
    sol = identity_solutions[(3, 4.0, 6.0, 1e-2, Family.P_EPS)]
    with pytest.raises(ValueError):
        radial_norm(sol.profile, 0.5)


def test_grid_norms_match_co_integrated(identity_solutions):
    # the read side's quadrature on the grid's node rows against the norms
    # analyze sums from the norm-term rows the final pass wrote on the same
    # nodes
    for key in [(3, 4.0, 6.0, 1e-2, Family.P_EPS), (5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)]:
        sol = identity_solutions[key]
        p = sol.params.p
        assert radial_norm(sol.profile, p) == pytest.approx(sol.norm_Lp_p, rel=1e-7)
        assert radial_norm(sol.profile, 2.0) == pytest.approx(sol.norm_L2_sq, rel=1e-7)
        assert dirichlet_norm(sol.profile) == pytest.approx(sol.dirichlet_sq, rel=1e-7)


def test_dirichlet_dilation_invariance(identity_solutions):
    # || grad u(lam .) ||^2 * lam^(N-2) is independent of lam
    sol = identity_solutions[(3, 6.0, 10.0, 1e-3, Family.P_EPS)]
    base = dirichlet_norm(sol.profile)
    N = sol.params.N
    for S in (0.25, 4.0):
        w = to_minimizer_frame(sol.profile, S)
        assert dirichlet_norm(w) * S ** ((N - 2.0) / 2.0) == pytest.approx(base, rel=1e-9)


def test_energy_zero_profile():
    prm = ProblemParams(3, 4.0, 6.0, 1e-2, Family.P_EPS)
    assert energy(prm, 0.0, 0.0, 0.0, 0.0) == 0.0


def test_energy_level_relation(identity_solutions):
    # E = (1/2 - 1/p*) S^(N/2) and independently ||grad u||^2 = S^(N/2)
    for sol in identity_solutions.values():
        prm = sol.params
        coef = 0.5 - 1.0 / prm.p_star()
        assert sol.energy == pytest.approx(coef * sol.level_S ** (prm.N / 2.0), rel=1e-9)
        assert sol.dirichlet_sq == pytest.approx(sol.level_S ** (prm.N / 2.0), rel=1e-7)


def test_extract_level_examples():
    # N=3 coefficient is 1/2 - 1/6 = 1/3, so energy 1/3 maps to S = 1
    prm = ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO)
    assert extract_level(prm, 1.0 / 3.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(InconsistentSolution):
        extract_level(prm, -0.1)


def test_identity_residuals_converged(identity_solutions):
    for key, sol in identity_solutions.items():
        assert sol.nehari_residual < 1e-6, key
        assert sol.pokhozhaev_residual < 1e-6, key


def test_identity_residuals_zero_convention(identity_solutions):
    base = identity_solutions[(3, 4.0, 6.0, 1e-2, Family.P_EPS)]
    zero = replace(base, norm_L2_sq=0.0, norm_Lp_p=0.0, norm_Lq_q=0.0, dirichlet_sq=0.0)
    assert identity_residuals(zero) == (0.0, 0.0)


def test_perturbed_profile_breaks_pokhozhaev(identity_solutions):
    # scaling the values by 1.01 scales each norm by its own power of 1.01,
    # which no longer satisfies the identities
    base = identity_solutions[(3, 4.0, 6.0, 1e-2, Family.P_EPS)]
    c = 1.01
    p, q = base.params.p, base.params.q
    pert = replace(
        base,
        norm_L2_sq=base.norm_L2_sq * c**2,
        norm_Lp_p=base.norm_Lp_p * c**p,
        norm_Lq_q=base.norm_Lq_q * c**q,
        dirichlet_sq=base.dirichlet_sq * c**2,
    )
    neh, pok = identity_residuals(pert)
    assert pok > 1e-3
    assert neh > 1e-3


def test_minimizer_frame_identity_at_unit_level(identity_solutions):
    prof = identity_solutions[(3, 4.0, 6.0, 1e-2, Family.P_EPS)].profile
    assert to_minimizer_frame(prof, 1.0) is prof


def test_minimizer_frame_norm_transforms(identity_solutions):
    # ||u||_s^s = S^(N/2) ||w||_s^s and ||grad u||^2 = S^((N-2)/2) ||grad w||^2
    sol = identity_solutions[(3, 6.0, 10.0, 1e-3, Family.P_EPS)]
    S = sol.level_S
    N = sol.params.N
    w = to_minimizer_frame(sol.profile, S)
    assert radial_norm(sol.profile, sol.params.p) == pytest.approx(
        S ** (N / 2.0) * radial_norm(w, sol.params.p), rel=1e-9
    )
    assert dirichlet_norm(sol.profile) == pytest.approx(
        S ** ((N - 2.0) / 2.0) * dirichlet_norm(w), rel=1e-9
    )


def test_minimizer_frame_constraint_is_one(identity_solutions):
    # p* int F(w) dx = 1 within 1e-5 for every P-family solve
    for (N, p, q, eps, fam), sol in identity_solutions.items():
        if fam in (Family.P_EPS, Family.P_ZERO):
            w = sol.rescaled_to_frame()
            assert constraint_value(w) == pytest.approx(1.0, abs=1e-5), (N, p, q, eps)


def test_r_frame_constraint_is_one(identity_solutions):
    # the R-family constraint functional is untruncated at eps = 0, so the
    # minimizer-frame amplitude > 1 is harmless and p* int G(w) = 1 holds
    sol = identity_solutions[(3, 4.0, 6.0, 0.0, Family.R_ZERO)]
    w = sol.rescaled_to_frame()
    assert w.amplitude > 1.0
    assert constraint_value(w) == pytest.approx(1.0, abs=1e-5)


def test_rescaled_frame_matches_requadrature(identity_solutions):
    # analytic norm scaling agrees with re-running the quadrature on the
    # reparameterized profile
    sol = identity_solutions[(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)]
    w = sol.rescaled_to_frame()
    fresh = analyze(w.profile)
    assert fresh.norm_Lp_p == pytest.approx(w.norm_Lp_p, rel=1e-8)
    assert fresh.dirichlet_sq == pytest.approx(w.dirichlet_sq, rel=1e-8)


def test_frame_energy_is_the_energy_of_its_own_norms(identity_solutions):
    # in the minimizer frame ||grad w||^2 = S and p* int F(w) = 1, so
    # E(w) = S/2 - 1/p*
    for key, sol in identity_solutions.items():
        w = sol.rescaled_to_frame()
        assert w.energy == energy(w.params, w.norm_L2_sq, w.norm_Lp_p, w.norm_Lq_q,
                                  w.dirichlet_sq), key
        assert w.energy == pytest.approx(w.level_S / 2.0 - 1.0 / w.params.p_star(),
                                         rel=1e-7), key


def test_read_side_builds_the_panels_once(identity_solutions, monkeypatch):
    # the read side builds no panels of its own: radial_norm, dirichlet_norm
    # and profile_distances sum their integrands against the final pass's
    # node rows, and the minimizer frame and v carry their source's rows times
    # the transform's factors (1/lam, amp, amp lam, lam_sq^(-N/2)) on r, u,
    # u' and the weight and ProblemParams.norm_factors on the four norm
    # terms, bit for bit; the concentration radius reads the w |u|^p term
    # row and takes no quad
    sol = identity_solutions[(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)]
    N, p = sol.params.N, sol.params.p
    u = sol.profile
    w = sol.rescaled_to_frame().profile
    quads = []
    real = shooting.RadialProfile.quad

    def counted(self, integrand):
        quads.append(self)
        return real(self, integrand)

    monkeypatch.setattr(shooting.RadialProfile, "quad", counted)
    lam = concentration_lambda(w)
    assert quads == []
    v = rescale_to_v(w, lam)
    for src, copy, (amp, lam_sq) in ((u, w, (1.0, sol.level_S)),
                                     (w, v, (lam ** ((N - 2.0) / 2.0), lam ** 2))):
        scale = math.sqrt(lam_sq)
        factors = (1.0 / scale, amp, amp * scale, lam_sq ** (-N / 2.0),
                   *sol.params.norm_factors(amp, lam_sq))
        for got, row, fac in zip(copy.grid.nodes, src.grid.nodes, factors, strict=True):
            assert got.tobytes() == (row * fac).tobytes()
    r, x, dx, weight = v.grid.nodes[:4]
    omega = sphere_area(N)
    assert radial_norm(v, p) == omega * (float(np.sum(np.abs(x) ** p * weight)) + v.norm_tail(p))
    assert dirichlet_norm(v) == omega * (float(np.sum(dx * dx * weight)) + v.dirichlet_tail())
    profile_distances(v, EmdenFowlerProfile(5, 1.0, "W"))
    assert quads == [v, v, v]


def _stub_solution(params: ProblemParams) -> GroundStateSolution:
    class _Prof:
        pass

    prof = _Prof()
    prof.params = params
    return GroundStateSolution(prof, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)


def test_kappa_arithmetic():
    # kappa = q(p-2)/(2(q-p)): 6*2/(2*2) = 3 and 10*4/(2*4) = 5
    sol = _stub_solution(ProblemParams(3, 4.0, 6.0, 1e-3, Family.P_EPS))
    assert kappa_identities(sol, 0.0).kappa == pytest.approx(3.0)
    sol = _stub_solution(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS))
    assert kappa_identities(sol, 0.0).kappa == pytest.approx(5.0)


def test_kappa_identities_on_critical_solve(identity_solutions):
    sol = identity_solutions[(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)]
    rep = kappa_identities(sol.rescaled_to_frame(), 1e-3)
    assert rep.kappa == pytest.approx(1.5)
    assert rep.lq_residual < 1e-4
    assert rep.lp_residual < 1e-4


def test_limit_identities_supercritical(identity_solutions):
    # (q-p*)p/((q-p)p*) = 2 and (p-p*)q/((q-p)p*) = 1 for N=3, p=8, q=12
    sol = identity_solutions[(3, 8.0, 12.0, 0.0, Family.P_ZERO)]
    rep = limit_identities(sol.rescaled_to_frame())
    assert rep.closed_form == pytest.approx((2.0, 1.0))
    assert max(rep.residuals) < 1e-6


def test_limit_identities_subcritical(identity_solutions):
    # lim ||w||_2^2 = 2(p*-p)/(p*(p-2)) = 1/3, lim ||w||_p^p = 4/3 for N=3, p=4
    sol = identity_solutions[(3, 4.0, 6.0, 0.0, Family.R_ZERO)]
    rep = limit_identities(sol.rescaled_to_frame())
    assert rep.closed_form == pytest.approx((1.0 / 3.0, 4.0 / 3.0))
    assert max(rep.residuals) < 1e-6


def test_limit_identities_frame_roundtrip(identity_solutions):
    # residuals are invariant under rescaling to another frame and back
    sol = identity_solutions[(3, 8.0, 12.0, 0.0, Family.P_ZERO)]
    w = sol.rescaled_to_frame()
    roundtripped = replace(replace(w, level_S=2.7).rescaled_to_frame(),
                           level_S=1.0 / 2.7).rescaled_to_frame()
    r1 = limit_identities(w).residuals
    r2 = limit_identities(roundtripped).residuals
    assert max(abs(a - b) for a, b in zip(r1, r2)) < 1e-9


def test_level_monotone_in_eps(sub_sweep):
    # S_eps is non-decreasing in eps along the sweep
    pts = sorted(sub_sweep.converged_points(), key=lambda pt: pt.x)
    S = [pt.S for pt in pts]
    assert all(b >= a - 1e-8 for a, b in zip(S, S[1:]))


def test_sigma_positive_along_critical(crit5_sweep):
    for pt in crit5_sweep.converged_points():
        assert pt.sigma > 0.0


def test_supercritical_level_cross_check(identity_solutions):
    # dirichlet norm of the minimizer-frame w0 equals S0 itself
    sol = identity_solutions[(3, 8.0, 12.0, 0.0, Family.P_ZERO)]
    w = sol.rescaled_to_frame()
    assert dirichlet_norm(w.profile) == pytest.approx(sol.level_S, rel=1e-5)


def test_extract_level_critical_limit_profile():
    # the energy of U_1 under the pure critical functional (no q-term, no
    # linear term) maps back to the Sobolev constant
    N = 3
    p_star = 6.0
    u1 = EmdenFowlerProfile(N, 1.0, "U")
    prm = ProblemParams(N, p_star, p_star + 2.0, 0.0, Family.P_EPS)
    E = energy(prm, 0.0, u1.norm_s(p_star), 0.0, u1.dirichlet_sq())
    assert extract_level(prm, E) == pytest.approx(sobolev_constant(N), rel=1e-9)
