"""Ground-state solves by shooting on the initial amplitude u(0).

The shooting dichotomy: trajectories that cross zero overshoot the ground
state, trajectories that rebound (u' turns positive) undershoot it.  For
the eps = 0 supercritical family nothing rebounds -- sub-ground-state
trajectories decay at the slow Emden rate r^(-2/(p-2)) instead of the
Green-function rate r^(-(N-2)) -- so classification there uses the sign of
the far-field constant mode B in u ~ B + A r^(-(N-2)).  A search shot ends
where B has settled (ode's settled stop), the final pass at r_max, and
_far_field_B reads both less the drift B still takes on past them.

The amplitude search first brackets a* between an undershoot and an
overshoot, then runs Brent steps on a signed proxy of a - a* read off each
shot (the terminal state, see _shooting_proxy).  It ends at the
integrator's resolution: once Brent's next abscissa x is within
_RESOLUTION of a tight last probe, and the last three probes lie on one
increasing line, a* = x, the root of the secant (or inverse quadratic) of
the proxy.  The final pass runs at x (or _PAST_ROOT amp_tol past it, away
from the last probe, when that probe alone can close its bracket) and
verifies it: the secant through the final pass and the last probe must put
the root within amp_tol/2 of the final pass.  If it does not, the final
pass is one more Brent probe and the search closes a class bracket to a
relative width of amp_tol, a* its geometric mid.  Shots taken while the
prediction still moves -- the bracket scans, the hint checks and the far
probes -- run loose, at 1e5 times the solve's step tolerances
(_loose_step); a loose shot that reads Converged or fails runs again
tight.  Only tight shots decide the answer: the secant check
reads the final pass and the last probe, and a loose end of a class
bracket, like a loose Overshoot of the lower bracket scan, is integrated
again tight (if that reads another class, the solve runs again with every
shot tight, as it does once a loose shot reads its class where u has
fallen below the loose atol: loose shots do not resolve such a solve).
Where the tight class is monotone in the amplitude, the result is within
amp_tol of the plain bisection's.

The admissible amplitude window is (u_F0, u_hi): u_F0 is the first
positive zero of the potential F (below it the trajectory lacks the energy
to reach zero), u_hi the largest positive root of f (at or above it the
start is not monotone decreasing, since u''(0) = -f(a)/N).  For P_zero,
where u_F0 = 0, the lower scan starts at u_P, below which the Pokhozhaev
identity rules out a zero crossing (_pohozaev_root).  u_F0 and u_hi come
to 1e-15 relative from three Brent loops that the C kernel runs
(ode.admissible_window, through _f_positive_roots), step for step as
_bracket_root takes them and bit for bit with their Python reference,
tests/window_reference.py.  _bracket_root itself, gslab's one Python root
loop, runs the amplitude search and finds the concentration radii of
``asymptotics``.  A shot that fails (ode.IntegrationFailure: its step
budget, a collapsed step, or a power or division that failed) runs again
tight if it was loose, drops a bracket hint if it checked one, and
otherwise ends the solve with that error.

A solved profile is a RadialProfile, which owns its read side: its
integrals over the grid (quad, on the node rows of its final pass,
ode.Trajectory.nodes, whose four norm-term rows analyze sums), its copy
amp u(lam y) (scaled, which scales those rows), and u and u' anywhere
(value, slope: a cubic Hermite of the grid).  Beyond the grid it is its TailModel, whose evaluate gives (u, u')
from one evaluation of the decaying mode (K_nu e^x and K_{nu+1} e^x from
one ode._kve call) and of the correction's pieces.  An exponential tail is
evaluated once on 16 Gauss panels of 16 nodes with geometric edges over
[R, R + 30/k] (_FarField), kept on first read as RadialProfile.far_field;
norm_tail and dirichlet_tail sum it through the panel sum of ``emden``, or
take an algebraic tail's closed forms.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .emden import _gauss_panels, _panel_sum
from .errors import (BracketNotFound, DivergentNormError, InconsistentSolution,
                     InternalConsistencyError)
from .ode import (IntegrationFailure, Shot, ShotEnd, StepControls, TerminalEvent, Trajectory,
                  _drift_coeff, _kve, admissible_window, integrate, series_piece)
from .params import Family, ProblemParams

__all__ = [
    "Classification",
    "ShootControls",
    "TailModel",
    "RadialProfile",
    "classify",
    "find_ground_state",
    "epsilon_star",
]


class Classification:
    OVERSHOOT = "Overshoot"
    UNDERSHOOT = "Undershoot"
    CONVERGED = "Converged"


@dataclass(frozen=True)
class ShootControls:
    """Knobs for the amplitude search and its inner integrations.

    ``bracket_hint`` is a guessed (undershoot, overshoot) pair, checked by
    one shot at each end before the bracket scans; its upper end is clipped
    to the admissible window, u_hi (1 - 1e-9).
    """

    amp_tol: float = 1e-12           # the final pass verifies u(0) to amp_tol/2, relative
    bracket_hint: tuple[float, float] | None = None
    r_max: float | None = None
    step: StepControls = field(default_factory=lambda: StepControls(atol=1e-14, rtol=1e-12))


_MAX_PROBES = 200             # the most evaluations of f one _bracket_root call (or
                              # root loop of ode.admissible_window) makes
_CONVERGENCE_FACTOR = 1e-8    # an exponential run that reaches r_max below this * a is Converged
# the least u_F0 a solve takes: lo u_F0 in the lower scan's sqrt and the
# norms, of order u_F0^2, stay above the smallest normal float
_MIN_WINDOW = math.sqrt(sys.float_info.min)


@dataclass
class TailModel:
    """Analytic far-field model matched to the numerical profile.

    Exponential (rate k > 0): u(r) ~ prefactor * r^(-(N-1)/2) e^(-k r),
    realized through the exact linear-equation mode r^(1-N/2) K_nu(k r)
    (nu = N/2 - 1, K_nu e^x from _kve), whose asymptotic constant is the
    stored prefactor.
    Algebraic: u(r) ~ prefactor * r^(-(N-2)).  Both carry a fitted
    first-order correction ``corr`` for the residual nonlinearity.
    """

    kind: str                 # "Exponential" | "Algebraic"
    rate_or_power: float      # decay rate k, or the power N-2
    prefactor: float
    match_radius: float
    N: int
    corr: float = 0.0
    corr_pm2: float = 0.0     # correction regressor exponent, p - 2
    mismatch: float = 0.0     # max relative residual over the fit window

    def _mode(self, r):
        """The linear mode at r and its derivative, in closed form."""
        if self.kind == "Algebraic":
            base = self.prefactor * r ** -(self.N - 2.0)
            return base, -(self.N - 2.0) * base / r
        k = self.rate_or_power
        nu = 0.5 * self.N - 1.0
        cb = self.prefactor * math.sqrt(2.0 * k / math.pi)
        kr = k * r
        decay = np.exp(-kr)
        kv, kv1 = _kve(nu, kr)
        # d/dr [r^-nu K_nu(k r)] = -k r^-nu K_{nu+1}(k r)
        return (cb * r ** (1.0 - 0.5 * self.N) * kv * decay,
                -k * cb * r ** -nu * kv1 * decay)

    def _value(self, r, base):
        """The model at r from its linear mode ``base`` there, with the two
        pieces of the correction regressor g = |base|^(p-2) r^2 / (1 + (k r)^2)
        that its derivative reuses: (u, |base|^(p-2), 1 + (k r)^2)."""
        k = self.rate_or_power if self.kind == "Exponential" else 0.0
        kr2 = 1.0 + (k * r) ** 2
        pw = np.abs(base) ** self.corr_pm2
        return base * (1.0 + self.corr * (pw * r * r / kr2)), pw, kr2

    def evaluate(self, r: np.ndarray):
        """(u, u') of the model on the radii r, from one evaluation of the
        linear mode: u' is the product rule through the correction factor,
        with g'/g = (p-2) base'/base + 2 / (r (1 + (k r)^2))."""
        base, dbase = self._mode(r)
        u, pw, kr2 = self._value(r, base)
        cg = self.corr * pw * r * r / kr2
        du = dbase * (1.0 + cg) + cg * (self.corr_pm2 * dbase + 2.0 * base / (r * kr2))
        return u, du

    def scaled(self, amp: float, lam_sq: float) -> TailModel:
        """The model of amp * u(lam y), lam = sqrt(lam_sq) (RadialProfile.scaled).

        base(y) = amp * base_u(lam y): an exponential rate gains lam, the
        prefactor amp * lam^-power, and the correction regressor |base|^(p-2)
        r^2 / (1 + (k r)^2) amp^(p-2) lam^-2, which corr absorbs.
        """
        lam = math.sqrt(lam_sq)
        exponential = self.kind == "Exponential"
        power = (self.N - 1.0) / 2.0 if exponential else self.N - 2.0
        return TailModel(
            kind=self.kind,
            rate_or_power=self.rate_or_power * lam if exponential else self.rate_or_power,
            prefactor=self.prefactor * amp * lam ** -power,
            match_radius=self.match_radius / lam,
            N=self.N,
            corr=self.corr * (amp ** -self.corr_pm2 * lam_sq),
            corr_pm2=self.corr_pm2,
            mismatch=self.mismatch,
        )

    def far_field(self, R: float) -> _FarField:
        """The exponential model on the Gauss panels past R that every tail
        norm sums: _TAIL_PANELS panels with geometric edges over
        [R, R + 30/k], _TAIL_NODES nodes each."""
        k = self.rate_or_power
        edges = R * ((R + 30.0 / k) / R) ** _TAIL_EDGES
        r, half, w = _gauss_panels(edges, _TAIL_NODES)
        u, du = self.evaluate(r)
        return _FarField(w * r ** (self.N - 1), half, np.abs(u), du)

    def algebraic_norm(self, s: float, R: float) -> float:
        """int_R^inf |u_tail|^s r^(N-1) dr of an algebraic tail, in closed form
        (sphere factor excluded)."""
        N = self.N
        if s * (N - 2.0) <= N:
            raise DivergentNormError(
                f"s*(N-2) = {s * (N - 2.0):g} <= N = {N}: "
                f"the algebraic tail makes the L^{s:g} norm diverge"
            )
        try:
            C = abs(self.prefactor) ** s
            lead = C * R ** (N - s * (N - 2.0)) / (s * (N - 2.0) - N)
            gam = (N - 2.0) * self.corr_pm2 - 2.0
            corr = 0.0
            if self.corr != 0.0 and s * (N - 2.0) + gam > N:
                corr = (s * self.corr * abs(self.prefactor) ** (s + self.corr_pm2)
                        * R ** (N - s * (N - 2.0) - gam) / (s * (N - 2.0) + gam - N))
        except OverflowError:
            raise InconsistentSolution(
                f"the L^{s:g} tail of the algebraic tail model (prefactor "
                f"{self.prefactor:.3g}) overflows: the fit is not a ground-state tail"
            ) from None
        return lead + corr

    def algebraic_dirichlet(self, R: float) -> float:
        """int_R^inf u_tail'(r)^2 r^(N-1) dr of an algebraic tail, in closed
        form (sphere factor excluded)."""
        return self.prefactor**2 * (self.N - 2.0) * R ** -(self.N - 2.0)


# The far-field panels of an exponential tail.  Against 600 log-spaced
# 32-node panels over [R, R + 80/decay], on the 283 of 300 random admissible
# P_eps draws (N in {3, 4, 5, 6}, random.Random(5)) that solve_ground_state
# solves, 16 x 16 on geometric edges over [R, R + 30/k] stay within 1.6e-13
# of a tail and 1e-16 of a total norm; the 16 x 32 rule on squared-linspace
# edges over [R, R + 60/decay] before them missed a tail by up to 5.4e-6
# and a total by 2.5e-9 (N = 6 at kR = 0.0034, where its first panel was
# far wider than R).
_TAIL_PANELS = 16
_TAIL_NODES = 16
_TAIL_EDGES = np.linspace(0.0, 1.0, _TAIL_PANELS + 1)   # the edges' exponents


class _FarField(NamedTuple):
    """An exponential TailModel on its far-field Gauss panels (TailModel.far_field)."""

    wr: np.ndarray      # (panels, nodes) Gauss weights times r^(N-1)
    half: np.ndarray    # (panels,) half-widths
    u: np.ndarray       # |u| at the nodes
    du: np.ndarray      # u' at the nodes

    def norm(self, s: float) -> float:
        return _panel_sum(self.wr * self.u ** s, self.half)

    def dirichlet(self) -> float:
        return _panel_sum(self.wr * self.du ** 2, self.half)


@dataclass
class RadialProfile:
    """A converged radial ground state: grid + analytic tail."""

    params: ProblemParams
    amplitude: float
    grid: Trajectory
    tail: TailModel
    bisection_iterations: int = 0
    bracket: tuple[float, float] = (0.0, 0.0)
    r_max_used: float = 0.0
    integrations: int = 0     # every shot of the solve, final pass included
    rhs_evals: int = 0        # RHS evaluations summed over those shots
    loose_integrations: int = 0   # those of them at the loose step controls
    fallbacks: int = 0        # 1 if the loose first attempt failed: the solve re-ran all tight
    # the search's own measured relative error (of a resolution stop, else 0.0);
    # the integrator's error is not in it
    amp_error: float = 0.0

    def __post_init__(self):
        if self.grid.nodes is None:
            raise ValueError("profile grid has no node rows: its run had no quadrature")

    @functools.cached_property
    def far_field(self) -> _FarField | None:
        """The exponential tail model on its Gauss panels past the grid end
        (None for an algebraic tail), made once, on first read (a scaled
        copy makes its own).  A ground state decreases, so a model that
        rises above u(0) there is no ground-state tail: InconsistentSolution."""
        if self.tail.kind != "Exponential":
            return None
        R = float(self.grid.radii[-1])
        far = self.tail.far_field(R)
        top = far.u.max()
        if top > self.amplitude:
            raise InconsistentSolution(
                f"the exponential tail model past R = {R:.6g} reaches |u| = {top:.3g}, "
                f"above u(0) = {self.amplitude:.6g}: the fit is not a ground-state tail")
        return far

    def norm_tail(self, s: float) -> float:
        """int |u|^s r^(N-1) dr past the grid end: the far field's sum, or an
        algebraic tail's closed form."""
        far = self.far_field
        if far is None:
            return self.tail.algebraic_norm(s, float(self.grid.radii[-1]))
        return far.norm(s)

    def dirichlet_tail(self) -> float:
        """int u'^2 r^(N-1) dr past the grid end, as norm_tail."""
        far = self.far_field
        if far is None:
            return self.tail.algebraic_dirichlet(float(self.grid.radii[-1]))
        return far.dirichlet()

    def quad(self, integrand):
        """int integrand(r, u, u') r^(N-1) dr over [0, R], R the grid end:
        the sum of integrand times weight over the grid's node rows
        (Trajectory.nodes, rows 0-3: r, u, u' and the weight), with u and u'
        from the final pass's seventh-order interpolant.

        ``integrand`` may return a stack of k rows (shape (k,) + r.shape),
        several integrands on one node set: the result is then a list of k
        integrals, each summed from its own row alone, so it has the bits of
        that integrand passed by itself.
        """
        r, u, du, w = self.grid.nodes[:4]
        vals = integrand(r, u, du) * w
        if vals.ndim == 1:
            return float(np.sum(vals))
        return [float(np.sum(v)) for v in vals]

    def scaled(self, amp: float, lam_sq: float) -> RadialProfile:
        """amp * u(lam y), lam = sqrt(lam_sq): grid, series piece, node
        rows and tail (TailModel.scaled) reparameterized exactly, every other
        field (the counters) carried.  The node rows take the factors (1/lam,
        amp, amp lam, lam_sq^(-N/2)) of r, u, u' and the weight, and the
        norm terms ProblemParams.norm_factors; the copy builds its own far
        field.

        The scale enters squared so that both callers keep their bits: the
        minimizer frame passes S, so each factor is the power of S it always
        was, and rescale_to_v passes lam ** 2, whose square root is lam again.
        """
        lam = math.sqrt(lam_sq)
        t = self.grid
        fac = np.array([1.0 / lam, amp, amp * lam, lam_sq ** (-self.params.N / 2.0),
                        *self.params.norm_factors(amp, lam_sq)])
        grid = Trajectory(
            radii=t.radii / lam, values=t.values * amp, slopes=t.slopes * (amp * lam),
            terminal_event=t.terminal_event, rhs_evals=t.rhs_evals,
            series=tuple(amp * c * lam_sq ** k for k, c in enumerate(t.series)),
            nodes=t.nodes * fac[:, None])
        return RadialProfile(
            params=self.params, amplitude=self.amplitude * amp, grid=grid,
            tail=self.tail.scaled(amp, lam_sq), bisection_iterations=self.bisection_iterations,
            bracket=self.bracket, r_max_used=self.r_max_used / lam,
            integrations=self.integrations, rhs_evals=self.rhs_evals,
            loose_integrations=self.loose_integrations, fallbacks=self.fallbacks,
            amp_error=self.amp_error)

    def value(self, r):
        return _eval_profile(self, r, deriv=False)

    def slope(self, r):
        return _eval_profile(self, r, deriv=True)


def _hermite(t, h, u0, u1, v0, v1, deriv: bool):
    """Cubic Hermite value (or slope) at t in [0, 1] of a panel of width h."""
    if not deriv:
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return h00 * u0 + h10 * h * v0 + h01 * u1 + h11 * h * v1
    d00 = 6 * t * (t - 1) / h
    d10 = (1 - t) * (1 - 3 * t)
    d01 = -6 * t * (t - 1) / h
    d11 = t * (3 * t - 2)
    return d00 * u0 + d10 * v0 + d01 * u1 + d11 * v1


def _hermite_eval(rg, ug, vg, r, deriv: bool):
    """Piecewise-cubic Hermite evaluation on the stored (r, u, u') grid."""
    idx = np.clip(np.searchsorted(rg, r) - 1, 0, len(rg) - 2)
    r0, r1 = rg[idx], rg[idx + 1]
    h = r1 - r0
    t = (r - r0) / h
    return _hermite(t, h, ug[idx], ug[idx + 1], vg[idx], vg[idx + 1], deriv)


def _eval_profile(prof: RadialProfile, r, deriv: bool):
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r_arr)
    rg = prof.grid.radii
    inner = r_arr < rg[0]
    outer = r_arr > rg[-1]
    mid = ~(inner | outer)
    if inner.any():
        out[inner] = series_piece(prof.grid.series, r_arr[inner])[int(deriv)]
    if mid.any():
        out[mid] = _hermite_eval(rg, prof.grid.values, prof.grid.slopes,
                                 r_arr[mid], deriv)
    if outer.any():
        out[outer] = prof.tail.evaluate(r_arr[outer])[int(deriv)]
    return float(out[0]) if np.ndim(r) == 0 else out


def epsilon_star(p: float, q: float) -> float:
    """Largest eps for which F_eps still has a positive zero (double-root condition).

    Eliminating u from F(u) = 0, F'(u) = 0 gives
    u* = [q(p-2) / (p(q-2))]^(1/(q-p)), eps* = u*^(p-2) - u*^(q-2).
    """
    if not q > p > 2.0:
        raise ValueError(f"need q > p > 2, got p={p}, q={q}")
    u = (q * (p - 2.0) / (p * (q - 2.0))) ** (1.0 / (q - p))
    return u ** (p - 2.0) - u ** (q - 2.0)


def _far_field_B(params: ProblemParams, t: Trajectory | ShotEnd) -> float:
    """The constant mode B in u ~ B + A r^(-(N-2)), read at the end R of t.

    u + r u'/(N-2) is B up to the drift that dB/dr = -r f(u)/(N-2) still
    adds past R; with u ~ A r^(-(N-2)) that is -D, D = u^(p-1) R^2 /
    ((N-2)((N-2)(p-1)-2)) (ode._drift_coeff), so B is read as
    u + R u'/(N-2) - D (u > 0).  A
    search shot ends where ode._SETTLE_MARGIN D is below |u + R u'/(N-2)|,
    the final pass at r_max, where D is negligible: both read one B.
    """
    r, u, v = t.radii[-1], t.values[-1], t.slopes[-1]
    b = u + r * v / (params.N - 2.0)
    if u > 0.0:
        b -= _drift_coeff(params) * u * (u ** (params.p - 2.0) * r * r)
    return b


def classify(t: Trajectory | ShotEnd, params: ProblemParams, amplitude: float) -> str:
    """Map a shot from u(0) = amplitude to the shooting dichotomy: its
    trajectory, or a search shot's ShotEnd (its last two rows)."""
    ev = t.terminal_event
    if ev is TerminalEvent.ZERO_CROSSING:
        return Classification.OVERSHOOT
    if ev is TerminalEvent.SLOPE_SIGN_FLIP:
        return Classification.UNDERSHOOT
    if ev is TerminalEvent.UNDERFLOW:
        return Classification.CONVERGED
    # ReachedRmax.  An algebraic run reads B's sign: for N >= 5 near p* shots
    # on both sides of a* end with |u| far below _CONVERGENCE_FACTOR * a
    if params.is_algebraic():
        b = _far_field_B(params, t)
        return Classification.UNDERSHOOT if b > 0.0 else Classification.OVERSHOOT
    if abs(t.values[-1]) < _CONVERGENCE_FACTOR * amplitude:
        return Classification.CONVERGED
    # an exponential run out of window: compare the local decay rate against
    # the true one; slower decay means the positive growing mode (undershoot
    # side) is taking over
    slow = -t.slopes[-1] / t.values[-1] < 0.999 * params.decay_rate
    return Classification.UNDERSHOOT if slow else Classification.CONVERGED


def _shooting_proxy(params: ProblemParams, t: Trajectory | ShotEnd, c: str) -> float:
    """Signed stand-in for a - a*, read off one classified trajectory.

    Negative for an undershoot, positive for an overshoot, and close to
    linear in the amplitude a on both sides of the ground-state amplitude a*.

    Algebraic family: minus the far-field constant mode B.  Exponential
    families: past the core a trajectory is the ground state, a multiple of
    the decaying mode r^(-nu) K_nu(k r) (nu = N/2 - 1), plus delta times the
    growing mode r^(-nu) I_nu(k r), with delta proportional to a - a*.  At
    the terminal radius R (x = k R) the Wronskian of the two modes turns
    the terminal state into delta without the unknown ground-state
    prefactor: delta = -u'(R) R^nu x K_nu(x) / k at a zero crossing, and
    delta = -u(R) R^nu x K_{nu+1}(x) at a slope flip.  So
    R(a) ~ R0 - ln|a - a*| / (2k), and the terminal value or slope keeps the
    estimate honest for shots far from a*.  K e^x is one float call of _kve
    per shot, which stays in ``math``; the class picks the order it reads.
    """
    if params.is_algebraic():
        return -_far_field_B(params, t)
    k = params.decay_rate
    R = t.terminal_radius
    x = k * R
    nu = 0.5 * params.N - 1.0
    scale = R ** nu * x * math.exp(-x)
    kv, kv1 = _kve(nu, x)
    if c == Classification.OVERSHOOT:
        return -t.slopes[-1] * scale * kv / k
    return -t.values[-1] * scale * kv1


def _f_positive_roots(params: ProblemParams) -> tuple[float, float | None]:
    """(u_F0, u_hi): first positive zero of F and largest root of f (None = scan up).

    In closed form where lin = 0 (P_zero) or qc = 0 (R_zero); else
    ode.admissible_window finds them as tests/window_reference.py does, bit
    for bit: three Brent loops to 1e-15 relative, with the steps of
    _bracket_root.  It raises what the reference raises: BracketNotFound
    where f has no positive root, F no zero below it, or a power overflowed
    or a division was by zero, and InternalConsistencyError where a root
    bracket has no sign change or is not closed in _MAX_PROBES steps.
    """
    lin, qc = params.linear_coeff, params.q_coeff
    p, q = params.p, params.q

    if lin == 0.0:
        # P_zero-like: f > 0 on (0, u_hi), F > 0 immediately
        u_hi = qc ** (-1.0 / (q - p)) if qc > 0.0 else None
        return 0.0, u_hi

    if qc == 0.0:
        # R_zero-like: single root of f at lin^(1/(p-2)); F-zero in closed form
        u_f0 = (p * lin / 2.0) ** (1.0 / (p - 2.0))
        return u_f0, None

    return admissible_window(params, _MAX_PROBES)


def _pohozaev_root(params: ProblemParams) -> float:
    """u_P, the positive zero of G(u) = N F(u) - (N-2)/2 u f(u) with lin = 0
    and p > p* (family P_zero): no shot at a <= u_P overshoots.

    G(u) = u^p (N/p - (N-2)/2) - qc u^q (N/q - (N-2)/2) is negative on
    (0, u_P).  A shot at a <= u_P stays in (0, u_P] while it decreases, so
    the Pokhozhaev identity puts int_0^R r^(N-1) G(u) dr < 0 at any zero R
    of u, where it equals R^N u'(R)^2 / 2 > 0: the shot never reaches zero.
    """
    N, p, q = params.N, params.p, params.q
    h = 0.5 * (N - 2.0)
    return ((h - N / p) / (params.q_coeff * (h - N / q))) ** (1.0 / (q - p))


# The algebraic families' r_max.  It was min(1e6, max(1e3, 1e4 r_half)),
# r_half read off a probe shot; every P_zero solve measured took the 1e6 cap
# (32 solve_mix draws, both delta sweeps, (4, 5, 8), (5, 4, 7), (3, 6.5, 7)),
# and a search shot ends where B has settled (ode._SETTLE_MARGIN) long before
_ALGEBRAIC_R_MAX = 1e6
# P_zero's r_max is at least _CORE_RADII core radii u_P^(-(p-2)/2): near p*
# (the delta sweeps) u_P is small and the core wide, so 1e6 alone is too
# short for the Emden tail to separate the classes (N = 3, q = 7 lost
# delta = 5e-3 with residuals 4.6e-4 at 1e6)
_CORE_RADII = 1e4


def _default_r_max(params: ProblemParams, ctrl: ShootControls) -> float:
    """The outer radius of every shot: ctrl.r_max if set, else 50 decay
    lengths of an exponential tail, or _ALGEBRAIC_R_MAX, for P_zero at least
    _CORE_RADII core radii u_P^(-(p-2)/2) (_pohozaev_root)."""
    if ctrl.r_max is not None:
        return ctrl.r_max
    if params.family is Family.P_ZERO:
        core = _pohozaev_root(params) ** (-(params.p - 2.0) / 2.0)
        return max(_ALGEBRAIC_R_MAX, _CORE_RADII * core)
    return _ALGEBRAIC_R_MAX if params.is_algebraic() else 50.0 / params.decay_rate


def _zeroin(a: float, fa: float, b: float, fb: float, rtol: float):
    """Brent's zeroin root finder as a generator.

    Starts from f(a), f(b) of opposite signs, 0 < a, b.  It yields the next
    abscissa (inverse quadratic interpolation or secant; the geometric mid
    of the bracket when those are not shrinking fast enough; steps of at
    least rtol * |x|) and is sent back (x, f(x)) of the point actually
    evaluated.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = rtol * abs(b)
        xm = 0.5 * (c - b)
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                qa, r = fa / fc, fb / fc
                p = s * (2.0 * xm * qa * (qa - r) - (b - a) * (r - 1.0))
                q = (qa - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = math.sqrt(b) * math.sqrt(c) - b
        else:
            d = e = math.sqrt(b) * math.sqrt(c) - b
        a, fa = b, fb
        b, fb = yield b + (d if abs(d) > tol else math.copysign(tol, xm))


def _bracket_root(f, lo: float, f_lo: float, hi: float, f_hi: float,
                  rtol: float) -> tuple[float, float, int]:
    """Close a bracket of a root of f with Brent's steps: (lo, hi, evaluations).

    0 < lo < hi, and f_lo = f(lo), f_hi = f(hi) have opposite signs.  A step
    of _zeroin outside (lo, hi) is replaced by the geometric mid, and each
    probe replaces the end whose value has its sign.  f(x) returns f's value
    at x, or the pair (y, f(y)) of a point y in (lo, hi) it took instead.
    The loop stops when hi / lo - 1 <= rtol (the steps are at least half
    that, relative), when f reads 0 (then lo = hi = the probe), or after
    _MAX_PROBES evaluations.  An end where f is 0 is returned as both ends.
    """
    if f_lo == 0.0 or f_hi == 0.0:
        x = lo if f_lo == 0.0 else hi
        return x, x, 0
    zeroin = _zeroin(lo, f_lo, hi, f_hi, 0.5 * rtol)
    x, n = next(zeroin), 0
    while hi / lo - 1.0 > rtol and n < _MAX_PROBES:
        if not lo < x < hi:
            x = math.sqrt(lo) * math.sqrt(hi)
        n += 1
        fx = f(x)
        if type(fx) is tuple:
            x, fx = fx
        if fx == 0.0:
            return x, x, n
        if (fx > 0.0) == (f_lo > 0.0):
            lo = x
        else:
            hi = x
        x = zeroin.send((x, fx))
    return lo, hi, n


# a probe runs at the loose step controls while Brent's prediction still
# moves by more than this, relative, per probe
_LOOSE_SHIFT = 1e-3

# the search stops once Brent's next abscissa is this close, relative, to a
# tight last probe: the integrator resolves the proxy no finer than ~rtol
_RESOLUTION = 1e-8

# A final pass that needs the last probe to close its bracket lands this
# many amp_tol past Brent's abscissa, away from the probe.  Over 224
# solve_mix solves (seeds 1-8) Brent's abscissa fell short of the verified
# root by up to 2.2e-13 and past it by up to 5.0e-13, the most the check
# allows, so a nudge past a root it had already passed can miss the check
# and cost a class stop.  0 / 0.25 / 0.1 / 0.05 left 39 / 3 / 4 / 7 closing
# shots and took 7485 / 7298 / 7291 / 7256 RHS evaluations per solve on
# seeds 1-3, 7505 / 7307 / 7288 / 7320 on seeds 4-8.  It must stay below
# 1/4: Brent keeps its abscissa more than amp_tol/4 from the far end of its
# bracket (its tolerance step is amp_tol/2), so the final pass stays inside
_PAST_ROOT = 0.1


def _loose_step(step: StepControls) -> StepControls:
    """Step controls of the loose shots: 1e5 times the solve's own tolerances.

    At the default tight pair (atol 1e-14, rtol 1e-12), which holds the
    amplitude within amp_tol of a reference solve, that is 1e-9 / 1e-7:
    loose shots only steer the search.
    """
    return replace(step, atol=1e5 * step.atol, rtol=1e5 * step.rtol)


def _on_line(points) -> bool:
    """Whether three (a, value) points lie on one increasing line: both
    secant slopes positive and within 1% of each other."""
    (a0, g0), (a1, g1), (a2, g2) = points
    s0, s1 = (g1 - g0) / (a1 - a0), (g2 - g1) / (a2 - a1)
    return s0 > 0.0 and s1 > 0.0 and abs(s1 - s0) <= 1e-2 * max(s0, s1)


class _Runs:
    """The shots of one solve, counted over all its attempts: search shots
    on one tight and one loose Shot, final passes through integrate()."""

    def __init__(self, params: ProblemParams, ctrl: ShootControls, r_max: float):
        self.params, self.r_max = params, r_max
        self.loose = _loose_step(ctrl.step)
        self.shots = (Shot(params, r_max, ctrl.step), Shot(params, r_max, self.loose))   # [loose]
        self.final = replace(ctrl.step, with_quadrature=True)
        self.integrations = self.rhs_evals = self.loose_runs = 0
        self.bracket_runs = 0   # bracket scans and hint checks

    def __call__(self, a: float, quad: bool = False,
                 loose: bool = False) -> Trajectory | ShotEnd:
        self.integrations += 1
        self.loose_runs += loose
        try:
            t = (integrate(self.params, a, self.r_max, self.final) if quad
                 else self.shots[loose].end(a))
        except IntegrationFailure as exc:
            self.rhs_evals += exc.partial.rhs_evals
            raise
        self.rhs_evals += t.rhs_evals
        return t


class _Search(NamedTuple):
    """What one attempt of the amplitude search found."""

    amplitude: float
    final: Trajectory            # the final pass, with quadrature, at amplitude
    bracket: tuple[float, float]   # the final pass and the nearest tight shot of the other class
    error: float                 # measured relative error of a resolution stop, else 0.0


def find_ground_state(params: ProblemParams, ctrl: ShootControls = ShootControls()) -> RadialProfile:
    """Shoot for the unique ground-state amplitude a*.

    a* is the resolution secant: once Brent's next abscissa x is within
    _RESOLUTION of a tight last probe, by more than Brent's own tolerance
    step, and the last three probes' proxies lie on one increasing line,
    the final pass (tight, with quadrature) runs at x; if no tight shot of
    the other class than the last probe's exists yet, and x is more than two
    of Brent's tolerance steps from that probe, it runs _PAST_ROOT amp_tol
    past x, away from the probe, so that the probe closes its bracket.  a*
    is the final pass's amplitude if the secant through the final pass and
    the last probe puts the root within amp_tol/2 of it; ``amp_error`` is
    that measured relative distance, the search's error only (the proxy is
    exact to the step tolerances).  ``bracket`` is the final pass and the
    nearest tight shot of the other class; if there is none yet (the final
    pass fell short of the root), one more tight shot amp_tol/2 past it
    must read it.  A final pass that reads Converged is accepted
    (``bracket`` is (a*, a*)).
    Otherwise the final pass is one more Brent probe and the class stop
    follows: the search closes a bracket of a tight Undershoot and a tight
    Overshoot to a relative width of amp_tol (a loose end is integrated
    again tight), the final pass runs at its geometric mid (or at a tight
    Converged probe), and ``amp_error`` is 0.0 (_attempt).

    If a loose end of the class bracket or a loose Overshoot of the lower
    bracket scan reads another class tight, a loose shot reads its class
    where u is below the loose atol, or the loose bracket scans find no
    bracket, the solve runs again with every shot tight and ``fallbacks``
    is 1; the counters then sum over both attempts.
    ``bisection_iterations`` counts the integrations after the bracket, the
    final pass excepted, ``integrations`` and ``rhs_evals`` every shot of
    the solve, and ``loose_integrations`` those at the loose step controls.

    Raises BracketNotFound if no (undershoot, overshoot) pair exists in the
    admissible window, which for family P_eps signals eps >= eps*, or if the
    window starts below _MIN_WINDOW (0 < u_F0 < 1.49e-154).
    """
    if params.family is Family.P_EPS:
        if params.eps <= 0.0:
            raise BracketNotFound("family P_eps needs eps > 0 (use P_zero for the limit)")
        es = epsilon_star(params.p, params.q)
        if params.eps >= es:
            raise BracketNotFound(
                f"eps = {params.eps:g} >= eps* = {es:g}: no ground state exists"
            )

    u_f0, u_hi = _f_positive_roots(params)
    if 0.0 < u_f0 < _MIN_WINDOW:
        raise BracketNotFound(
            f"the admissible window of {params.family.value} (N={params.N}, p={params.p}, "
            f"q={params.q}, eps={params.eps}) starts at u_F0 = {u_f0:.6g}, below the float "
            "range of the search and the norms; R_eps, the rescaled family, solves it")
    lo_seed = (u_f0 if u_f0 > 0.0 else _pohozaev_root(params)) * (1.0 + 1e-9)
    hi_seed = u_hi * (1.0 - 1e-9) if u_hi is not None else None

    r_max = _default_r_max(params, ctrl)
    run = _Runs(params, ctrl, r_max)
    window = (u_f0, u_hi, lo_seed, hi_seed)
    try:
        search = _attempt(params, ctrl, window, run, loose_first=True)
    except BracketNotFound:   # loose shots misread amplitudes of the order of their atol
        run.bracket_runs = run.integrations
        search = None
    fallbacks = int(search is None)
    if search is None:
        search = _attempt(params, ctrl, window, run, loose_first=False)

    profile = _package_profile(params, search.amplitude, search.final, 0.5 * ctrl.amp_tol,
                               ctrl.step.atol)
    profile.bisection_iterations = run.integrations - run.bracket_runs - 1
    profile.bracket = search.bracket
    profile.amp_error = search.error
    profile.r_max_used = r_max
    profile.integrations = run.integrations
    profile.rhs_evals = run.rhs_evals
    profile.loose_integrations = run.loose_runs
    profile.fallbacks = fallbacks

    if params.family is Family.P_EPS and profile.amplitude > 1.0 + 1e-12:
        raise InternalConsistencyError(
            f"P_eps amplitude {profile.amplitude} exceeds the uniform bound 1"
        )
    return profile


def _attempt(params: ProblemParams, ctrl: ShootControls, window, run: _Runs,
             loose_first: bool) -> _Search | None:
    """Bracket, Brent search and final pass (see find_ground_state).

    The resolution stop is tried once: after a final pass that fails its
    check, the search goes on to the class stop.

    ``window`` is (u_f0, u_hi, lo_seed, hi_seed).  A bracket hint's upper end
    is clipped to hi_seed, the top of the admissible window, and the hint is
    taken if its two ends read Undershoot and Overshoot; otherwise the scans
    build the bracket.  With ``loose_first`` the scans, hint checks and the
    probes taken while Brent's prediction still moves run loose, and None is
    returned if a loose end of the class bracket reads another class tight;
    BracketNotFound is raised if a loose Overshoot of the lower scan does,
    or if a loose shot reads its class where u is below the loose atol
    (_last_level).  Without ``loose_first`` every shot runs tight.
    """
    u_f0, u_hi, lo_seed, hi_seed = window
    shots: dict[float, tuple[str, float, bool]] = {}   # amplitude -> (class, Brent's value, loose)
    runs_before = run.integrations
    final = None   # the final pass

    def shoot(a: float, loose: bool, quad: bool = False) -> str:
        """Class of a shot; a loose one that reads Converged or fails runs again
        tight.  With ``quad`` it is the final pass."""
        nonlocal final
        if loose:
            try:
                t = run(a, loose=True)
                c = classify(t, params, a)
                loose = c != Classification.CONVERGED
            except IntegrationFailure:
                loose = False
            if loose and _last_level(t) < run.loose.atol:
                raise BracketNotFound(f"a loose shot read the class of {a:g} below its atol")
        if not loose:
            t = run(a, quad=quad)
            c = classify(t, params, a)
        if quad:
            final = a, t
        # Brent reads the proxy's magnitude under the class's sign (near p = 2
        # an undershoot can end with u(R) < 0, and a zero would stop it), as
        # a float (the final pass's rows are arrays): numpy-scalar
        # predictions would run every later shot at numpy-scalar amplitudes
        g = abs(float(_shooting_proxy(params, t, c))) or math.ulp(0.0)
        shots[a] = c, -g if c == Classification.UNDERSHOOT else g, loose
        return c

    # establish the bracket, preferring a caller-supplied hint
    lo = hi = None
    if ctrl.bracket_hint is not None:
        h_lo, h_hi = ctrl.bracket_hint
        if hi_seed is not None:
            h_hi = min(h_hi, hi_seed)
        try:
            if (shoot(h_lo, loose_first) == Classification.UNDERSHOOT
                    and shoot(h_hi, loose_first) == Classification.OVERSHOOT):
                lo, hi = h_lo, h_hi
        except IntegrationFailure:
            pass  # a hint shot the integrator cannot finish; rebuild from scratch
    if lo is None:
        lo = lo_seed
        for _ in range(60):
            if shoot(lo, loose_first) == Classification.UNDERSHOOT:
                break
            if shots[lo][2] and shoot(lo, False) != Classification.OVERSHOOT:
                raise BracketNotFound(f"a loose shot misread the amplitude {lo:g}")
            lo = math.sqrt(lo * u_f0) if u_f0 > 0.0 else 0.5 * lo
        else:
            raise BracketNotFound(
                f"no undershoot amplitude found near {lo_seed:g} for "
                f"{params.family.value} (N={params.N}, p={params.p}, q={params.q})"
            )
        if hi_seed is None:
            hi = lo
            for _ in range(60):
                hi *= 1.5
                if shoot(hi, loose_first) == Classification.OVERSHOOT:
                    break
            else:
                raise BracketNotFound("upward amplitude scan found no overshoot")
        else:
            hi = hi_seed
            for _ in range(60):
                if shoot(hi, loose_first) == Classification.OVERSHOOT:
                    break
                hi = u_hi - 0.25 * (u_hi - hi)
            else:
                raise BracketNotFound(
                    f"no overshoot amplitude found below {hi_seed:g}; regime "
                    "violation, or eps so close to eps* that the ground-state "
                    "amplitude is degenerate with the largest root of f at "
                    "machine precision"
                )
    run.bracket_runs += run.integrations - runs_before

    # start from the largest Undershoot and the smallest Overshoot shot so
    # far, unless their classes are out of order (then from the bracket)
    inside = [(a, c) for a, (c, _, _) in shots.items() if lo <= a <= hi]
    u = max(a for a, c in inside if c == Classification.UNDERSHOOT)
    o = min(a for a, c in inside if c == Classification.OVERSHOOT)
    if u < o:
        lo, hi = u, o

    seq = []        # the probes, in order
    error = None    # set when a final pass ends the search

    def probe(x: float) -> float | tuple[float, float]:
        """Brent's value of a probe, 0 to stop (Converged, or a final pass that
        verifies x); loose while the prediction moves by more than _LOOSE_SHIFT
        (the first probe always).  A final pass returns (its amplitude, value):
        it may run past x."""
        nonlocal error
        p = seq[-1] if seq else None
        seq.append(x)
        if (final is None and len(seq) > 3 and not shots[p][2]
                and 0.5 * ctrl.amp_tol * x < abs(x - p) <= _RESOLUTION * x
                and _on_line([(a, shots[a][1]) for a in seq[-4:-1]])):
            if _tight_bracket(shots, p) is None and abs(x - p) > ctrl.amp_tol * x:
                # no tight shot of the other class than p's yet: land the final
                # pass past the root, away from p, so that p closes the bracket
                # (at Brent's tolerance step from p, x is past the root Brent
                # interpolates already)
                x = seq[-1] = x + math.copysign(_PAST_ROOT * ctrl.amp_tol * x, x - p)
            if shoot(x, False, quad=True) == Classification.CONVERGED:
                error = 0.0
                return x, 0.0
            gp, gx = shots[p][1], shots[x][1]
            dg = gx - gp
            # the secant through the final pass and the last probe puts the
            # root within amp_tol/2 of x
            if dg * (x - p) > 0.0 and abs(gx * (x - p)) <= 0.5 * ctrl.amp_tol * x * abs(dg):
                if _tight_bracket(shots, x) is None:
                    # the final pass fell short of the root: one amp_tol/2 past x
                    up = shots[x][0] == Classification.UNDERSHOOT
                    shoot(x * (1.0 + (0.5 if up else -0.5) * ctrl.amp_tol), False)
                if _tight_bracket(shots, x) is not None:
                    error = abs(gx * (x - p) / dg) / x
                    return x, 0.0
            return x, gx   # the final pass becomes a Brent probe; the class stop follows
        loose = loose_first and (p is None or abs(x - p) > _LOOSE_SHIFT * x)
        return 0.0 if shoot(x, loose) == Classification.CONVERGED else shots[x][1]

    lo, hi, probes = _bracket_root(probe, lo, shots[lo][1], hi, shots[hi][1], ctrl.amp_tol)
    if probes >= _MAX_PROBES:
        warnings.warn(
            f"amplitude search hit the {_MAX_PROBES}-probe cap at "
            f"width {hi / lo - 1.0:.3g}",
            RuntimeWarning,
        )
    if error is None:   # the class stop
        for a in (lo, hi):
            c, _, loose = shots[a]
            if loose and shoot(a, False) != c:
                return None
        shoot(math.sqrt(lo * hi), False, quad=True)
        error = 0.0
    a, t = final
    return _Search(a, t, _tight_bracket(shots, a), error)


def _last_level(t: Trajectory | ShotEnd) -> float:
    """|u| where a shot read its class: before the crossing of a zero
    crossing, at the end of any other run."""
    return abs(t.values[-2 if t.terminal_event is TerminalEvent.ZERO_CROSSING else -1])


def _tight_bracket(shots, a: float) -> tuple[float, float] | None:
    """The shot at a and the nearest tight shot of the other class, in order:
    (a, a) if a reads Converged, None if no such shot exists."""
    c = shots[a][0]
    if c == Classification.CONVERGED:
        return a, a
    others = [b for b, (cb, _, loose) in shots.items()
              if not loose and cb not in (c, Classification.CONVERGED)]
    if not others:
        return None
    b = min(others, key=lambda b: abs(b - a))
    return (a, b) if a < b else (b, a)


def _package_profile(params: ProblemParams, a: float, traj: Trajectory,
                     width: float, atol: float) -> RadialProfile:
    """Truncate the converged trajectory to its reliable range and fit the tail.

    ``width`` bounds the relative error of a: half of amp_tol, the stop width
    of the search, so the kept range does not depend on where it stopped.
    ``atol`` is the absolute step tolerance traj was integrated at.  An
    algebraic grid ends at the last radius where u is at least
    _ALGEBRAIC_FIT_FLOOR atol, where its tail fit window ends: past it u is
    integrator noise (for N >= 5 the constant mode B the amplitude error
    leaves, which doubled the L^2 norm of P_zero (5, 4, 6) when the grid ran
    on to r_max).
    """
    u = traj.values
    if params.is_algebraic():
        level = _ALGEBRAIC_FIT_FLOOR * atol
    else:
        # amplitude error delta*a grows like e^(+kr); relative contamination at
        # depth u is ~ width * (a/u)^2, so keep u/a above ~100*sqrt(width)
        level = a * min(1e-3, max(100.0 * math.sqrt(width), 1e-9))
    above = np.nonzero(u >= level)[0]
    keep = int(above[-1]) + 1 if len(above) else len(u)
    # enforce positivity and monotone decrease on the stored grid (exact
    # float ties are tolerated: near-flat starts move by less than an ulp)
    pos = np.nonzero(u[:keep] <= 0.0)[0]
    if len(pos):
        keep = int(pos[0])
    du = np.diff(u[:keep])
    bad = np.nonzero(du > 0.0)[0]
    if len(bad):
        keep = int(bad[0]) + 1
    if keep < 8:
        raise InternalConsistencyError(
            f"converged trajectory has no reliable monotone range (keep={keep})"
        )
    t = traj.truncated(keep)
    tail = _fit_tail(params, t, a, atol)
    return RadialProfile(params=params, amplitude=a, grid=t, tail=tail)


# An algebraic tail is fitted on [r_end/30, r_end], r_end the last radius
# where u is at least _ALGEBRAIC_FIT_FLOOR times the step controls' atol (a
# solved profile's grid ends there, _package_profile): below that u is
# integrator noise (~1e-18 at r_max = 1e6 for N >= 5), and for N = 3 the
# window still ends at r_max.  Over 120 P_zero draws the
# worst mismatch is 1.4e-2 at 1e5, 0.12 at 1e4 (noise) and 3.4e-2 at 1e6
# (nearer the core, where one correction term misses the tail near p*).
_ALGEBRAIC_FIT_FLOOR = 1e5


def _fit_tail(params: ProblemParams, t: Trajectory, a: float, atol: float) -> TailModel:
    N = params.N
    r, u = t.radii, t.values
    if params.is_algebraic():
        above = r[u >= _ALGEBRAIC_FIT_FLOOR * atol]   # u decreases on t
        r_end = above[-1] if len(above) else r[-1]
        mask = (r >= r_end / 30.0) & (r <= r_end)
        if mask.sum() < 6:
            mask = (r >= r_end / 100.0) & (r <= r_end)
        rm, um = r[mask], u[mask]
        psi = rm ** -(N - 2.0)
        g = um ** (params.p - 2.0) * rm ** 2
        kind, rate = "Algebraic", float(N - 2.0)
    else:
        frac = u / a
        mask = (frac >= max(3e-7, 1e-1 * frac[-1])) & (frac <= 1e-3)
        if mask.sum() < 6:
            mask = (frac >= frac[-1]) & (frac <= 1e-2)
        if mask.sum() < 6:
            mask = np.zeros_like(frac, dtype=bool)
            mask[-min(8, len(frac)):] = True
        k = params.decay_rate
        rm, um = r[mask], u[mask]
        krm = k * rm
        psi = rm ** (1.0 - 0.5 * N) * _kve(0.5 * N - 1.0, krm)[0] * np.exp(-krm)
        g = um ** (params.p - 2.0) * rm**2 / (1.0 + krm ** 2)
        kind, rate = "Exponential", float(k)

    y = np.log(um / psi)
    ones = np.ones_like(y)
    coef, *_ = np.linalg.lstsq(np.column_stack([ones, g]), y, rcond=None)
    log_c, d = float(coef[0]), float(coef[1])
    try:
        cb = math.exp(log_c)
    except OverflowError:
        raise InconsistentSolution(
            f"the {kind.lower()} tail fit's prefactor e^{log_c:.4g} overflows: "
            "the final trajectory has no such tail") from None
    if kind == "Exponential":
        prefactor = cb * math.sqrt(math.pi / (2.0 * rate))
    else:
        prefactor = cb

    model = TailModel(kind=kind, rate_or_power=rate, prefactor=prefactor,
                      match_radius=0.0, N=N, corr=d, corr_pm2=params.p - 2.0)

    # the model's linear mode on the window is the fitted cb * psi
    resid = np.abs(model._value(rm, cb * psi)[0] - um) / um
    model.mismatch = float(resid.max())
    if kind == "Algebraic":
        model.match_radius = float(rm[np.argmin(np.abs(rm - rm[-1] / 2.0))])
    else:   # a window radius: where u/a is nearest 2e-4 in log
        model.match_radius = float(rm[np.argmin(np.abs(np.log(frac[mask] / 2e-4)))])
    return model
