"""Norms, energies, variational levels, and identity residuals.

For a ground state u of -Delta u + lin*u - u^(p-1) + qc*u^(q-1) = 0 two
exact integral identities hold and serve as solver correctness oracles:

    Nehari:     ||grad u||_2^2 = ||u||_p^p - qc ||u||_q^q - lin ||u||_2^2
    Pokhozhaev: ||grad u||_2^2 = p* (||u||_p^p/p - qc ||u||_q^q/q - lin ||u||_2^2/2)

Together they give E(u) = (1/2 - 1/p*) ||grad u||_2^2, so the variational
level is S = (E / (1/2 - 1/p*))^(2/N) and ||grad u||_2^2 = S^(N/2).  The
minimizer frame w(y) = u(sqrt(S) y) then satisfies ||grad w||_2^2 = S and
the constraint p* int F(w) = 1.  It is u.scaled(1, S), the one transform
amp*u(lam y) of shooting.RadialProfile that asymptotics.rescale_to_v uses
too.  Norms of a solved RadialProfile sum RadialProfile.quad on the grid
and norm_tail past it; the closed-form profiles of emden read their own
(EmdenFowlerProfile.norm_s and dirichlet_sq).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentNormError, InconsistentSolution
from .params import Family, ProblemParams, sphere_area
from .shooting import RadialProfile, ShootControls, find_ground_state

__all__ = [
    "GroundStateSolution",
    "radial_norm",
    "dirichlet_norm",
    "energy",
    "identity_residuals",
    "extract_level",
    "to_minimizer_frame",
    "kappa_identities",
    "limit_identities",
    "analyze",
    "solve_ground_state",
    "TRUSTED_RESIDUAL",
]


@dataclass
class GroundStateSolution:
    """A converged profile together with its computed functionals."""

    profile: RadialProfile
    norm_L2_sq: float
    norm_Lp_p: float
    norm_Lq_q: float
    dirichlet_sq: float
    energy: float
    level_S: float
    nehari_residual: float
    pokhozhaev_residual: float

    @property
    def params(self) -> ProblemParams:
        return self.profile.params

    @property
    def amplitude(self) -> float:
        return self.profile.amplitude

    def rescaled_to_frame(self) -> "GroundStateSolution":
        """Exact minimizer-frame copy at S = level_S; the norms take
        ProblemParams.norm_factors, and the energy is E of the frame's own
        norms (S/2 - 1/p* at the level)."""
        S = self.level_S
        w = to_minimizer_frame(self.profile, S)
        l2, lp, lq, dir_ = self.params.norm_factors(1.0, S)
        norms = (self.norm_L2_sq * l2, self.norm_Lp_p * lp, self.norm_Lq_q * lq,
                 self.dirichlet_sq * dir_)
        return GroundStateSolution(w, *norms, energy(self.params, *norms), S,
                                   self.nehari_residual, self.pokhozhaev_residual)


def radial_norm(profile: RadialProfile, s: float) -> float:
    """int |u|^s dx of a solved profile: its grid's node rows plus its tail.
    (An EmdenFowlerProfile reads its own, EmdenFowlerProfile.norm_s.)"""
    if s < 1.0:
        raise ValueError(f"need s >= 1, got {s}")
    # first: an algebraic tail raises DivergentNormError where s*(N-2) <= N
    tail = profile.norm_tail(s)
    bulk = profile.quad(lambda r, u, du: np.abs(u) ** s)
    return sphere_area(profile.params.N) * (bulk + tail)


def dirichlet_norm(profile: RadialProfile) -> float:
    """||grad u||_2^2 of a solved profile: its grid's node rows plus its tail.
    (An EmdenFowlerProfile reads its own, EmdenFowlerProfile.dirichlet_sq.)"""
    bulk = profile.quad(lambda r, u, du: du * du)
    tail = profile.dirichlet_tail()
    return sphere_area(profile.params.N) * (bulk + tail)


def _norms_from_trajectory(prof: RadialProfile) -> tuple[float, float, float, float]:
    """(L2^2, Lp^p, Lq^q, dirichlet^2) from co-integrated panels plus tail."""
    t = prof.grid
    omega = sphere_area(prof.params.N)
    try:
        l2 = omega * (float(t.norm_l2[-1]) + prof.norm_tail(2.0))
    except DivergentNormError:   # an algebraic tail r^-(N-2) with N <= 4
        l2 = math.inf
    lp = omega * (float(t.norm_lp[-1]) + prof.norm_tail(prof.params.p))
    lq = omega * (float(t.norm_lq[-1]) + prof.norm_tail(prof.params.q))
    dir_sq = omega * (float(t.norm_dir[-1]) + prof.dirichlet_tail())
    return l2, lp, lq, dir_sq


def energy(params: ProblemParams, l2_sq: float, lp_p: float, lq_q: float,
           dir_sq: float) -> float:
    """E = 1/2 ||grad u||^2 + lin/2 ||u||_2^2 - ||u||_p^p/p + qc ||u||_q^q/q."""
    lin_term = 0.0 if params.linear_coeff == 0.0 else 0.5 * params.linear_coeff * l2_sq
    return 0.5 * dir_sq + lin_term - lp_p / params.p + params.q_coeff * lq_q / params.q


def identity_residuals(sol: "GroundStateSolution") -> tuple[float, float]:
    """Relative Nehari and Pokhozhaev residuals (0 by convention for zero data)."""
    p = sol.params
    lin, qc = p.linear_coeff, p.q_coeff
    lin_l2 = 0.0 if lin == 0.0 else lin * sol.norm_L2_sq
    if sol.dirichlet_sq == 0.0:
        return 0.0, 0.0
    neh_rhs = sol.norm_Lp_p - qc * sol.norm_Lq_q - lin_l2
    pok_rhs = constraint_value(sol)   # p* int F(u) dx
    neh = abs(sol.dirichlet_sq - neh_rhs) / max(abs(sol.dirichlet_sq), abs(neh_rhs))
    pok = abs(sol.dirichlet_sq - pok_rhs) / max(abs(sol.dirichlet_sq), abs(pok_rhs))
    return neh, pok


def extract_level(params: ProblemParams, E: float) -> float:
    """S = (E / (1/2 - 1/p*))^(2/N); requires positive energy."""
    coef = 0.5 - 1.0 / params.p_star()
    if E <= 0.0:
        raise InconsistentSolution(f"energy {E} is not positive; cannot extract a level")
    return (E / coef) ** (2.0 / params.N)


def to_minimizer_frame(u: RadialProfile, S: float) -> RadialProfile:
    """w(y) = u(sqrt(S) y): u.scaled(1.0, S), S being the squared scale."""
    if S <= 0.0:
        raise ValueError(f"level must be positive, got {S}")
    if S == 1.0:
        return u
    return u.scaled(1.0, S)


def analyze(profile: RadialProfile) -> GroundStateSolution:
    """Assemble the functional report for a converged profile.

    A ground state has E = ||grad u||^2 / N > 0 (the Pokhozhaev identity), so
    a profile with E <= 0 fails its identities; the InconsistentSolution it
    raises names their residuals.
    """
    l2, lp, lq, dir_sq = _norms_from_trajectory(profile)
    E = energy(profile.params, l2, lp, lq, dir_sq)
    sol = GroundStateSolution(
        profile=profile,
        norm_L2_sq=l2,
        norm_Lp_p=lp,
        norm_Lq_q=lq,
        dirichlet_sq=dir_sq,
        energy=E,
        level_S=math.nan,
        nehari_residual=0.0,
        pokhozhaev_residual=0.0,
    )
    sol.nehari_residual, sol.pokhozhaev_residual = identity_residuals(sol)
    try:
        sol.level_S = extract_level(profile.params, E)
    except InconsistentSolution as exc:
        raise InconsistentSolution(
            f"{exc}: identity residuals nehari {sol.nehari_residual:.3e}, "
            f"pokhozhaev {sol.pokhozhaev_residual:.3e}") from exc
    return sol


# The largest Nehari or Pokhozhaev residual a trusted solution has:
# solve_ground_state raises above it, and sweeps fit only points below it
TRUSTED_RESIDUAL = 1e-5


def solve_ground_state(params: ProblemParams,
                       ctrl: ShootControls = ShootControls()) -> GroundStateSolution:
    """find_ground_state + functionals in one call.

    Raises InconsistentSolution if either identity residual exceeds
    TRUSTED_RESIDUAL: the profile does not solve the equation it was shot
    for, and is not returned as if it did.
    """
    sol = analyze(find_ground_state(params, ctrl))
    if not max(sol.nehari_residual, sol.pokhozhaev_residual) <= TRUSTED_RESIDUAL:
        raise InconsistentSolution(
            f"identity residuals nehari {sol.nehari_residual:.3e}, pokhozhaev "
            f"{sol.pokhozhaev_residual:.3e} exceed {TRUSTED_RESIDUAL:g} at u(0) = "
            f"{sol.amplitude:.6g}")
    return sol


def constraint_value(sol: GroundStateSolution) -> float:
    """p* int F(u) dx in the solution's own frame (1 in the minimizer frame)."""
    p = sol.params
    lin_l2 = 0.0 if p.linear_coeff == 0.0 else 0.5 * p.linear_coeff * sol.norm_L2_sq
    return p.p_star() * (sol.norm_Lp_p / p.p - p.q_coeff * sol.norm_Lq_q / p.q - lin_l2)


@dataclass
class KappaReport:
    kappa: float
    lq_lhs: float
    lq_rhs: float
    lp_lhs: float
    lp_rhs: float
    lq_residual: float
    lp_residual: float


def kappa_identities(w: GroundStateSolution, eps: float) -> KappaReport:
    """Critical-case identities ||w||_q^q = kappa*eps*||w||_2^2 and
    ||w||_p^p = 1 + (kappa+1)*eps*||w||_2^2, with kappa = q(p-2)/(2(q-p))."""
    p, q = w.params.p, w.params.q
    kappa = q * (p - 2.0) / (2.0 * (q - p))
    el2 = eps * w.norm_L2_sq
    lq_rhs = kappa * el2
    lp_rhs = 1.0 + (kappa + 1.0) * el2
    lq_res = abs(w.norm_Lq_q - lq_rhs) / max(abs(w.norm_Lq_q), abs(lq_rhs))
    lp_res = abs(w.norm_Lp_p - lp_rhs) / max(abs(w.norm_Lp_p), abs(lp_rhs))
    return KappaReport(kappa, w.norm_Lq_q, lq_rhs, w.norm_Lp_p, lp_rhs, lq_res, lp_res)


@dataclass
class LimitReport:
    names: tuple[str, str]
    computed: tuple[float, float]
    closed_form: tuple[float, float]
    residuals: tuple[float, float]


def limit_identities(w0: GroundStateSolution) -> LimitReport:
    """Closed-form norms of the eps = 0 minimizers.

    Supercritical (P_zero): ||w0||_p^p = (q-p*)p/((q-p)p*) and
    ||w0||_q^q = (p-p*)q/((q-p)p*).  Subcritical (R_zero):
    ||w0||_2^2 = 2(p*-p)/(p*(p-2)) and ||w0||_p^p = (p*-2)p/((p-2)p*).
    """
    prm = w0.params
    p, q, ps = prm.p, prm.q, prm.p_star()
    if prm.family is Family.P_ZERO:
        cf_a = (q - ps) * p / ((q - p) * ps)
        cf_b = (p - ps) * q / ((q - p) * ps)
        got = (w0.norm_Lp_p, w0.norm_Lq_q)
        names = ("||w0||_p^p", "||w0||_q^q")
        cf = (cf_a, cf_b)
    else:
        cf_a = 2.0 * (ps - p) / (ps * (p - 2.0))
        cf_b = (ps - 2.0) * p / ((p - 2.0) * ps)
        got = (w0.norm_L2_sq, w0.norm_Lp_p)
        names = ("||w0||_2^2", "||w0||_p^p")
        cf = (cf_a, cf_b)
    res = tuple(abs(g - c) / abs(c) for g, c in zip(got, cf))
    return LimitReport(names, got, cf, res)
