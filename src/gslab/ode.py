"""Radial ODE integration with adaptive Dormand-Prince 8(5,3) stepping.

The solution with u(0) = a, u'(0) = 0 is analytic in r^2.  On [0, r0] it is
the series piece, u = sum_k c_k r^(2k) to k = K (series_coefficients), and
r0 is where the first term the piece leaves out falls below 1e-16 a
(default_handoff_radius): 0.08 to 0.4 times the curvature radius
sqrt(a/|f(a)|), so the steps do not have to grow out of the origin, where
the (N-1)/r term holds them to h ~ r.  From r0
``integrate`` shoots u'' = -(N-1)/r u' - f(u) outward with DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, II.10): twelve stages per step, the FSAL
one included, and the 5th/3rd-order error norm with step exponent 1/8.
Events (zero crossing, slope sign flip, underflow, r_max) are refined on the
seventh-order dense output, whose three extra stages are paid only on the
step that refines one.  A run of an algebraic family without quadrature (a
P_zero search shot) also ends, as ReachedRmax at its own radius, once the
far-field constant B of u ~ B + A r^-(N-2) has settled (_SETTLE_MARGIN):
its class and B are those of the run to r_max, at a fraction of the steps.
A run with quadrature (the final pass of a solve) stores every step as _SUB
sub-intervals, each one Gauss panel, so the grid on which a profile's value
and slope read a cubic Hermite stays as dense as the steps are long, and
keeps the quadrature nodes of its grid as rows (Trajectory.nodes): the
series piece's on [0, r0], then each panel's on the same interpolant, with
r, u, u', the weight r^(N-1) dr and the four norm terms (u^2, |u|^p, |u|^q
and u'^2 times the weight), which every grid integral of the read side sums.
At the far end, past the core, u follows the decaying mode r^(-nu) K_nu(k r)
(nu = N/2 - 1) of the linear equation, the mode of the tail models and the
shooting proxy in ``shooting``: _kve gives K_nu(x) e^x and K_{nu+1}(x) e^x
together, by one upward recurrence from closed forms or two trapezoid sums,
so gslab imports no scipy.

Each shot is one call of a C kernel, ``_dop853.c``: the series start, the
step loop (the twelve stages, the error norm, step control, event detection,
the stage buffer of a run with quadrature and the settled stop) and the
refinement of the terminal event; a run with quadrature makes one more call,
for its dense pass.  The kernel writes into blocks its caller owns, and a
``Shot`` holds them for one (params, r_max, StepControls): a parameter block
of which a shot writes only the amplitude, the state, the counters and a
grid that only ever grows.  The amplitude search reuses one Shot per
fidelity for all its shots, and ``Shot.end`` returns what it reads of one,
the last two grid rows as Python floats (``ShotEnd``); ``integrate`` runs a
fresh Shot and returns its whole grid (a solve's final pass).  With
quadrature on, each accepted step only appends its stages to a flat buffer,
and the dense pass builds every step's interpolant, the interior grid points
and the node rows after the loop.  (The kernel's third entry point is not a
shot: ``admissible_window`` finds the window of an amplitude search for
``shooting._f_positive_roots``.)  Only this module reads the kernel's return
codes, and it reports each failure as the solver's own error: a shot's step
budget, collapsed step or failed power or division as an IntegrationFailure
with the partial run, the window's as BracketNotFound or
InternalConsistencyError.  The dense pass's powers are libm's ``pow``, and
every dot product of the interpolant runs left to right from 0.0, so no sum
goes through BLAS, whose kernels add in an order that depends on the CPU.  At
import ``_native.build`` compiles the file once into the cache directory
(the compiler CPython was built with, -O2 -ffp-contract=off) and ``ode``
loads it with ctypes; where it cannot be built or loaded, the import raises
ImportError.  ``tests/dop853_reference.py`` is the same shot in Python, with
the same float operations in the same order (``**`` as CPython's float_pow,
so an overflowing power shrinks a trial step as Python's OverflowError does,
and the shot fails wherever else Python's ``**`` or ``/`` raises):
``tests/test_kernel.py`` checks the kernel against it bit for bit,
``tests/test_golden.py`` pins the results, and ``tests/test_ode.py`` checks
the stepper against the Dormand-Prince 4(5) loop it replaced and the tables
against scipy's.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import math
import shlex
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _native
from .errors import BracketNotFound, InternalConsistencyError
from .params import ProblemParams

__all__ = [
    "TerminalEvent",
    "StepControls",
    "Trajectory",
    "IntegrationFailure",
    "rhs_eval",
    "series_coefficients",
    "series_piece",
    "series_start",
    "default_handoff_radius",
    "integrate",
    "Shot",
    "ShotEnd",
    "admissible_window",
]


class TerminalEvent(enum.Enum):
    ZERO_CROSSING = "ZeroCrossing"
    SLOPE_SIGN_FLIP = "SlopeSignFlip"
    REACHED_RMAX = "ReachedRmax"
    UNDERFLOW = "Underflow"


@dataclass(frozen=True)
class StepControls:
    """Tolerances for the embedded RK pair and its event machinery."""

    atol: float = 1e-10
    rtol: float = 1e-8
    max_steps: int = 5_000_000
    with_quadrature: bool = False


_EVENT_TOL = 1e-10   # an event radius is refined to this, relative to max(1, r)
_MIN_STEP = 1e-13    # a step below this, relative to max(1, r), collapses the run
_UNDERFLOW_FACTOR = 1e-14   # the Underflow floor, relative to the amplitude


@dataclass
class Trajectory:
    """Accepted-step grid of one outward integration.

    A run with quadrature also holds the dense output at _SUB - 1 interior
    points of every step, ``series``, the coefficients c_0..c_K of the
    series piece u = sum c_k r^(2k) on [0, radii[0]], and ``nodes``, 8 rows
    over the quadrature nodes of the grid: the series piece's _BALL_NODES
    nodes on [0, radii[0]], then the len(_GX) Gauss nodes of each grid
    interval in order, u and u' there from the seventh-order interpolant.
    The rows are r, u, u', the weight w (r^(N-1) dr included), then the norm
    terms w u^2, w |u|^p, w |u|^q and w u'^2.
    sum(g(r, u, u') * w) over the nodes is int_0^R g r^(N-1) dr, R the last
    radius, and the terms' sums over the first _BALL_NODES + len(_GX) i
    nodes are the norms' integrals from 0 to radii[i] (without the
    sphere-area factor).
    """

    radii: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    terminal_event: TerminalEvent
    rhs_evals: int = 0
    series: tuple[float, ...] | None = None
    nodes: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def terminal_radius(self) -> float:
        """Where the run ended: its last grid radius."""
        return float(self.radii[-1])

    def truncated(self, n: int) -> "Trajectory":
        """Keep the first n grid points (terminal event becomes ReachedRmax),
        and the node rows of the n - 1 grid intervals they span."""
        if n >= len(self.radii):
            return self
        return Trajectory(
            radii=self.radii[:n],
            values=self.values[:n],
            slopes=self.slopes[:n],
            terminal_event=TerminalEvent.REACHED_RMAX,
            rhs_evals=self.rhs_evals,
            series=self.series,
            nodes=(None if self.nodes is None
                   else self.nodes[:, :_BALL_NODES + len(_GX) * (n - 1)]),
        )

    def cumulative(self, row: int) -> np.ndarray:
        """Node row ``row`` summed from 0 to each grid radius: over the series
        piece's nodes, then over each grid interval's, added up in order."""
        starts = np.arange(_BALL_NODES - len(_GX), self.nodes.shape[1], len(_GX))
        starts[0] = 0
        return np.cumsum(np.add.reduceat(self.nodes[row], starts))


class IntegrationFailure(RuntimeError):
    """Step size collapsed, step budget exhausted, or a power overflowed or
    a division was by zero; carries the partial run: its Trajectory, or a
    search shot's ShotEnd (Shot.end), without rows where the series start
    failed."""

    def __init__(self, message: str, partial: Trajectory | ShotEnd):
        super().__init__(message)
        self.partial = partial


def rhs_eval(params: ProblemParams, r: float, u: float, du: float) -> float:
    """Second derivative u'' of the selected family at (r, u, u')."""
    if not (math.isfinite(r) and math.isfinite(u) and math.isfinite(du)) or r <= 0.0:
        raise ValueError(f"rhs_eval needs finite inputs with r > 0, got r={r}, u={u}, du={du}")
    au = abs(u)
    nonlin = 0.0
    if au > 0.0:
        nonlin = u * au ** (params.p - 2.0) - params.q_coeff * u * au ** (params.q - 2.0)
    return -(params.N - 1.0) / r * du + params.linear_coeff * u - nonlin


# The series piece on [0, r0] keeps the terms c_0..c_K of u = sum c_k r^(2k).
# A solve_mix solve (seeds 1-3) takes 8.94k RHS evaluations at K = 6, 8.67k
# at 8 and 8.44k at 12, while the coefficients cost ~K^2 (18 us at 8)
_SERIES_ORDER = 8


# The settled stop of an algebraic run without quadrature (a P_zero search
# shot).  Past the core u ~ B + A r^-(N-2), and dB/dr = -r f(u)/(N-2) leaves
# B = u + r u'/(N-2) the drift -D still to come, D = u g / ((N-2)((N-2)(p-1)
# - 2)) with g = u^(p-2) r^2; shooting._far_field_B reads B less D.  The run
# ends, as ReachedRmax at its own radius, once 0 < u < a/2, u' < 0,
# g < _SETTLE_G and |B| > _SETTLE_MARGIN D.  Undershoots on the Emden decay
# u ~ c r^(-2/(p-2)) keep g at c^(p-2) (2/9 at (3, 8)) and run to r_max.
# Measured on solve_mix's 12 P_zero solves (seeds 1-3), RHS evaluations per
# solve (16,974 with every shot run to r_max): _SETTLE_G 1e-1 or 3e-2 within
# 0.1% of 1e-2, 3e-3 0.7% more; _SETTLE_MARGIN 1e2 / 1e3 / 1e4 11,233 /
# 11,577 / 12,514.  1e3 keeps B within 1e-3 of the run to r_max
# (tests/test_settled_stop.py); without the drift taken off B, a margin of
# 1e6 took 13,023 and 1e3 ended the golden solve on its class stop (16,982)
_SETTLE_G = 1e-2
_SETTLE_MARGIN = 1e3


def _drift_coeff(params: ProblemParams) -> float:
    """D / (u g) = 1 / ((N-2)((N-2)(p-1) - 2)): the drift B still takes on
    past r, per u g (_SETTLE_MARGIN)."""
    n2 = params.N - 2.0
    return 1.0 / (n2 * (n2 * (params.p - 1.0) - 2.0))


def series_coefficients(params: ProblemParams, a: float) -> tuple[float, ...]:
    """c_0..c_K (K = _SERIES_ORDER) of u = sum_k c_k r^(2k), the solution with
    u(0) = a, u'(0) = 0.

    u'' + (N-1)/r u' = sum_k 2(k+1)(2k+N) c_(k+1) r^(2k) = -f(u), so
    c_(k+1) = -g_k / (2(k+1)(2k+N)), g_k being the r^(2k) coefficient of
    f(u) = u^(p-1) - qc u^(q-1) - lin u.  The powers w = u^m come from J.C.P.
    Miller's recurrence, w_0 = a^m and
    w_n = sum_(j=1..n) ((m+1) j - n) c_j w_(n-j) / (n a).
    """
    if a <= 0.0 or not math.isfinite(a):
        raise ValueError(f"amplitude must be positive, got {a}")
    N, p, q = params.N, params.p, params.q
    lin, qc = params.linear_coeff, params.q_coeff
    c = [a, -params.f(a) / (2.0 * N)]
    wp, wq = [a ** (p - 1.0)], [a ** (q - 1.0)]
    for n in range(1, _SERIES_ORDER):
        sp = sq = 0.0
        for j in range(1, n + 1):
            sp += (p * j - n) * c[j] * wp[n - j]
            sq += (q * j - n) * c[j] * wq[n - j]
        wp.append(sp / (n * a))
        wq.append(sq / (n * a))
        c.append((qc * wq[n] + lin * c[n] - wp[n]) / (2.0 * (n + 1) * (2 * n + N)))
    return tuple(c)


def series_piece(coeffs: tuple[float, ...], r):
    """(u, u') of u = sum_k coeffs[k] r^(2k) at r: floats, or arrays of radii."""
    x = r * r
    u, du = coeffs[-1], 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        du = du * x + 2.0 * k * coeffs[k]
        u = u * x + coeffs[k - 1]
    return u, du * r


def series_start(params: ProblemParams, a: float, r0: float) -> tuple[float, float]:
    """(u, u') at r0 of the series piece for u(0) = a, u'(0) = 0
    (series_coefficients): the 1/r term is never evaluated at the origin."""
    if r0 <= 0.0:
        raise ValueError(f"hand-off radius must be positive, got {r0}")
    return series_piece(series_coefficients(params, a), r0)


def default_handoff_radius(coeffs: tuple[float, ...], r_max: float) -> float:
    """r0 where the first term the series piece leaves out falls to 1e-16 u(0),
    capped at 1e-3 r_max.

    That term, c_(K+1) r^(2K+2), is estimated as a (r / rho)^(2K+2) with
    rho^(-2) = max |c_k / a|^(1/k) over k = 1..K, the growth the kept
    coefficients show, so that no single coefficient that happens to vanish
    moves r0.  Where every c_k with k >= 1 is 0 (f(a) = 0: u is constant)
    only the cap binds.
    """
    a = coeffs[0]
    growth = max(abs(c / a) ** (1.0 / k) for k, c in enumerate(coeffs) if k)
    r0 = 1e-3 * r_max
    if growth > 0.0:
        r0 = min(r0, (1e-16 ** (1.0 / len(coeffs)) / growth) ** 0.5)
    return r0


# --- the far end: K_nu(x) e^x of the decaying mode r^(-nu) K_nu(k r) -----------


def _kve(nu: float, x):
    """(K_nu(x) e^x, K_{nu+1}(x) e^x), the scaled modified Bessel function of
    the second kind at two neighbouring orders, for nu in {0, 1/2, 1, 3/2,
    ...} and x > 0: floats for a float x, else arrays of x's shape.

    The upward recurrence K_{m+1} = K_{m-1} + (2m/x) K_m, stable upward and
    unchanged by the e^x scaling, runs from the two lowest orders of nu's
    family: K_{1/2} e^x = sqrt(pi/2x) and K_{3/2} e^x = sqrt(pi/2x) (1 + 1/x)
    in closed form, K_0 e^x and K_1 e^x as trapezoid sums.  One run gives
    both orders of the pair, so the mode r^-nu K_nu(k r) and its derivative,
    -k r^-nu K_{nu+1}(k r), share one quadrature.  Floats stay in ``math``:
    the shooting proxy takes one pair per shot.
    """
    m = nu % 1.0   # the lowest order of nu's family
    if isinstance(x, float):
        x, sqrt, kve01 = float(x), math.sqrt, _kve01_float
    else:
        x, sqrt, kve01 = np.asarray(x, dtype=float), np.sqrt, _kve01_array
    if m:
        k0 = sqrt(0.5 * math.pi / x)
        k1 = k0 * (1.0 + 1.0 / x)
    else:
        k0, k1 = kve01(x)
    while m < nu:   # (k0, k1) = (K_m, K_{m+1}) e^x
        m += 1.0
        k0, k1 = k1, k0 + (2.0 * m / x) * k1
    return k0, k1


# K_0 e^x and K_1 e^x are trapezoid sums at step _KVE_H of one of two
# integrals.  The t-form, int_0^inf e^(-2x sinh^2(t/2)) (1, cosh t) dt, runs
# until the exponent passes _KVE_T_CUT: 13 nodes past t = 0 at x = 8, 115 at
# x = 1e-8, but above x ~ 10 its peak is too narrow for the step.  The
# s-form (s = sqrt(x) sinh(t/2)),
# int_0^inf 2 e^(-2 s^2) (1, 1 + 2 s^2/x) (x + s^2)^(-1/2) ds, sums
# _KVE_S_NODES fixed nodes, the last where e^(-2 s^2) < 1e-16, but below
# x ~ 1.4 the branch point s = i sqrt(x) comes too near them.  A float takes
# the t-form below _KVE_T_MAX, where it has fewer nodes; an array takes one
# form for all of it where one holds (the s-form from _KVE_S_MIN), else the
# s-form from _KVE_S_MIN and the t-form below.  Both are within 1e-15 of
# mpmath, and _kve within 1.5e-15 of scipy.special.kve, over x in
# [1e-8, 1e4] (tests/test_bessel.py).
_KVE_H = 0.2
_KVE_S_NODES = 23
_KVE_S_MIN = 2.0
_KVE_T_CUT = 45.0
_KVE_T_MAX = 8.0


@functools.cache
def _kve_s_rule():
    """The s-form's nodes: (s^2, weight) pairs, and as arrays s^2 and
    (nodes, 2) of weight and weight * s^2."""
    s2 = np.square(_KVE_H * np.arange(_KVE_S_NODES))
    w = 2.0 * _KVE_H * np.exp(-2.0 * s2)
    w[0] *= 0.5
    return tuple(zip(s2.tolist(), w.tolist())), s2, np.column_stack([w, w * s2])


@functools.cache
def _kve_t_rule(n: int):
    """The t-form's first n nodes past t = 0: (sinh^2(t/2), cosh t) pairs,
    and as arrays sinh^2(t/2) and (n, 2) of 1 and cosh t."""
    s2 = np.sinh(0.5 * _KVE_H * np.arange(1, n + 1)) ** 2
    g = 1.0 + 2.0 * s2
    return tuple(zip(s2.tolist(), g.tolist())), s2, np.column_stack([np.ones(n), g])


def _kve_t_nodes(x_min: float) -> tuple[int, int]:
    """Nodes of the t-form past t = 0 up to its cut at x_min, and the length
    of the table that holds them: a power of 2, so few tables are built."""
    n = int(math.asinh(math.sqrt(0.5 * _KVE_T_CUT / x_min)) * 2.0 / _KVE_H) + 1
    return n, 1 << max(n - 1, 31).bit_length()


def _kve01_float(x: float) -> tuple[float, float]:
    """(K_0(x) e^x, K_1(x) e^x) for a float x > 0."""
    if x >= _KVE_T_MAX:
        k0 = k1 = 0.0
        for s2, w in _kve_s_rule()[0]:
            c = w / math.sqrt(x + s2)
            k0 += c
            k1 += s2 * c
        return k0, k0 + 2.0 * k1 / x
    x2 = -2.0 * x
    k0 = k1 = 0.0
    for s2, g in _kve_t_rule(_kve_t_nodes(x)[1])[0]:
        e = x2 * s2
        if e < -_KVE_T_CUT:
            break
        c = math.exp(e)
        k0 += c
        k1 += c * g
    return _KVE_H * (0.5 + k0), _KVE_H * (0.5 + k1)


def _kve01_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K_0(x) e^x, K_1(x) e^x) elementwise for an array x > 0."""
    lo = float(x.min(initial=_KVE_S_MIN))   # an empty x takes the s-form
    if lo >= _KVE_S_MIN:
        return _kve01_s(x)
    if x.max() < _KVE_T_MAX:
        return _kve01_t(x, lo)
    far = x >= _KVE_S_MIN
    near = ~far
    k0, k1 = np.empty_like(x), np.empty_like(x)
    k0[far], k1[far] = _kve01_s(x[far])
    k0[near], k1[near] = _kve01_t(x[near], lo)
    return k0, k1


def _kve01_s(x: np.ndarray):
    _, s2, w = _kve_s_rule()
    k = (1.0 / np.sqrt(x[..., None] + s2)) @ w
    return k[..., 0], k[..., 0] + 2.0 * k[..., 1] / x


def _kve01_t(x: np.ndarray, x_min: float):
    # nodes past the cut of the smallest x add e^-45 or less at the others
    n, size = _kve_t_nodes(x_min)
    _, s2, g = _kve_t_rule(size)
    k = _KVE_H * (0.5 + np.exp(-2.0 * x[..., None] * s2[:n]) @ g[:n])
    return k[..., 0], k[..., 1]



# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10):
# nodes C, stage matrix A (row i holds A[i][0..i-1]; row 12 is the 8th-order
# weights B, rows 13-15 the three extra stages of the dense output), the 5th-
# and 3rd-order error weights E5 and E3 (13 entries, the last on the FSAL
# stage), and the rows D of the interpolant's coefficients 3-6.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_B = _A[12]
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)


# The dense output reads the stages 0 and 5-15 only (1-4 have no weight in
# the extra stages' rows or in D): _DENSE_STAGES, with the extra stages'
# (node, row) and D restricted to them.  The first nine are the step's own,
# the ninth the FSAL stage at its end (the step loop numbers the stages
# from 1: these are its 1, 6-13, then the extra 14-16).
_DENSE_STAGES = (0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_EXTRA = tuple((_C[s], tuple(_A[s][j] for j in _DENSE_STAGES if j < s)) for s in (13, 14, 15))
_D_DENSE = tuple(tuple(row[j] for j in _DENSE_STAGES) for row in _D)

# 4-point Gauss-Legendre on [0, 1] for the norm panels (exact to degree 7;
# 5 points move the golden norms by less than 1e-15 relative)
_GX = (0.06943184420297371, 0.33000947820757187, 0.6699905217924281, 0.9305681557970262)
_GW = (0.17392742256872679, 0.3260725774312732, 0.3260725774312732, 0.17392742256872679)

# Gauss-Legendre on [0, 1] for the series piece [0, r0] of the norms.  With
# r0 at a tenth of the curvature radius or more, 4 nodes (exact to degree 7)
# are off by up to 1e-4 of the piece and 6 by 3e-9; 10 nodes are within
# 1.1e-15 of 100 on draws over all four families
_BALL_NODES = 10
_BALL_X, _BALL_W = np.polynomial.legendre.leggauss(_BALL_NODES)
_BALL_X, _BALL_W = 0.5 * (_BALL_X + 1.0), 0.5 * _BALL_W

# The final pass stores each step as _SUB sub-intervals: the grid gains the
# interpolant at the _SUB - 1 interior points, and each sub-interval is one
# Gauss panel.  _FRACS are the fractions of the step at which the pass reads
# the interpolant: the interior grid points, then the Gauss nodes of each
# sub-interval in order.
_SUB = 3
_FRACS = np.concatenate((np.arange(1, _SUB) / _SUB,
                         ((np.arange(_SUB)[:, None] + np.array(_GX)) / _SUB).ravel()))[:, None]
_GW_SUB = np.array(_GW)[:, None] / _SUB


# --- the C kernel -------------------------------------------------------------

# The tableau as _dop853.c reads it: C (16), A (16 rows of 16), B, E5, E3, then
# the dense output's extra nodes and rows (_EXTRA) and D (_D_DENSE), then the
# dense pass's _FRACS and _GW_SUB and the series piece's _BALL_X and _BALL_W
_TABLEAU = (ctypes.c_double * 429)(
    *_C, *(x for row in _A for x in row + (0.0,) * (16 - len(row))), *_B, *_E5, *_E3,
    *(c for c, _ in _EXTRA), *(x for _, row in _EXTRA for x in row),
    *(x for row in _D_DENSE for x in row),
    *_FRACS.ravel().tolist(), *_GW_SUB.ravel().tolist(), *_BALL_X.tolist(), *_BALL_W.tolist())
_TAB = ctypes.addressof(_TABLEAU)

# what the kernel returns (the STOP_ codes of _dop853.c)
_ROOM = 0   # 1 and 2 are ReachedRmax: at r_max, and where B has settled
_REFINED = {3: TerminalEvent.ZERO_CROSSING, 4: TerminalEvent.SLOPE_SIGN_FLIP,
            5: TerminalEvent.UNDERFLOW}
# the failures as the solver's own errors: a shot's step budget, collapsed
# step and arithmetic stop (a ** or / where Python raises; one in the series
# start is at r = 0), each an IntegrationFailure, and admissible_window's
# arithmetic stop, no positive root of f, no zero of F below it, a bracket
# without a sign change and a root loop not closed in max_probes steps
_ARITH = 8
_SHOT_FAILED = {
    6: "step budget {max_steps} exhausted", 7: "step size collapsed at r={r:.6g}",
    _ARITH: "arithmetic failed at r={r:.6g}: a power overflowed or a division was by zero"}
_WINDOW_FAILED = {
    _ARITH: (BracketNotFound, "arithmetic failed in the admissible window of {family}: "
             "a power overflowed or a division was by zero"),
    9: (BracketNotFound, "f has no positive roots for {family}; no ground state in this regime"),
    10: (BracketNotFound, "potential F has no positive zero below the largest root of f"),
    11: (InternalConsistencyError,
         "root bracket [{0!r}, {1!r}] has no sign change: f = {2!r}, {3!r}"),
    12: (InternalConsistencyError,
         "root of f in [{0!r}, {1!r}] not found in {max_probes} steps: [{2!r}, {3!r}]"),
}
# the state (the S_ slots of _dop853.c): r, u, u', u'', h; (u, u') at the end
# of the step a refined event moved (5, 6); u'' at r0 (7); the settled
# stop's constants (8-10); then the series coefficients
_S_COEFFS = 11
_P_A = 8   # the amplitude's slot in the parameter block (P_A)
_GRID0 = 256   # grid points the first call has room for; each refill doubles it
_SOURCE = Path(__file__).with_name("_dop853.c")
_ZEROS = array("d", [0.0])


class _Kernel(NamedTuple):
    """The entry points of the loaded _dop853.c."""

    loop: Callable[..., int]     # dop853_loop: one shot
    dense: Callable[..., None]   # dop853_dense: its dense pass, with quadrature
    window: Callable[..., int]   # admissible_window: a search's window


class ShotEnd(NamedTuple):
    """The end of a search shot (Shot.end): the last two grid rows (one on a
    grid of one point) as Python floats, its terminal event and its RHS
    evaluations, read as a Trajectory's."""

    radii: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...]
    terminal_event: TerminalEvent
    rhs_evals: int

    @property
    def terminal_radius(self) -> float:
        """Where the run ended: its last grid radius."""
        return self.radii[-1]


class Shot:
    """The kernel's blocks for the shots of one (params, r_max, tol).

    The parameter block, of which a shot writes only the amplitude slot,
    the state, the counters, and a grid (with quadrature also a stage
    buffer) that a refill doubles and that the next shot reuses.  The module
    constants the kernel reads (_MIN_STEP, _UNDERFLOW_FACTOR, _SETTLE_G,
    _GRID0, ...) are read here, when the Shot is made.  ``end`` runs a
    search shot; ``integrate`` runs a fresh Shot, as its trajectory's arrays
    are views of the grid.
    """

    def __init__(self, params: ProblemParams, r_max: float, tol: StepControls = StepControls()):
        self.params, self.r_max, self.tol = params, r_max, tol
        ncoef = max(_SERIES_ORDER, 1) + 1   # as many as series_coefficients returns
        self._prm = array("d", (params.N - 1.0, params.linear_coeff, params.q_coeff,
                                params.p - 2.0, params.q - 2.0, params.p, params.q,
                                float(params.N), 0.0, r_max, _UNDERFLOW_FACTOR, tol.atol,
                                tol.rtol, _MIN_STEP, _SETTLE_G, _SETTLE_MARGIN, _EVENT_TOL))
        self._st = _ZEROS * (_S_COEFFS + ncoef)
        budget = math.floor(max(min(tol.max_steps, 2**62), -1))   # steps > budget fails
        self._cnt = array("q", (0, 0, 0, budget, tol.with_quadrature, ncoef, 0))
        self._cap = _GRID0
        self._grid = _ZEROS * (3 * self._cap)   # rows: radii, values, slopes
        # h, u' and u'' at the stages, per step
        self._stages = _ZEROS * (16 * self._cap) if tol.with_quadrature else None
        self._bind()

    def _bind(self) -> None:
        """The kernel's arguments: the tableau, the blocks, the grid's room."""
        stages = None if self._stages is None else self._stages.buffer_info()[0]
        self._args = (_TAB, self._prm.buffer_info()[0], self._st.buffer_info()[0],
                      self._cnt.buffer_info()[0], self._grid.buffer_info()[0], self._cap, stages)

    def _run(self, a: float) -> int:
        """Shoot from amplitude a into the blocks, the grid refilled as it
        fills: the kernel's stop code.  ValueError where r_max or a is not
        positive and finite."""
        if not self.r_max > 0.0:
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if a <= 0.0 or not math.isfinite(a):
            raise ValueError(f"amplitude must be positive, got {a}")
        self._prm[_P_A] = a
        cnt = self._cnt
        cnt[0] = cnt[1] = cnt[2] = cnt[6] = 0   # grid points, RHS evaluations, steps, overflows
        while (code := _kernel.loop(*self._args)) == _ROOM:
            n, cap, grid = cnt[0], self._cap, self._grid
            self._grid = _ZEROS * (6 * cap)
            for i in range(3):
                self._grid[2 * i * cap:2 * i * cap + n] = grid[i * cap:i * cap + n]
            self._cap = 2 * cap
            if self._stages is not None:
                self._stages.extend(_ZEROS * (16 * cap))
            self._bind()
        return code

    def _check(self, code: int, partial: Trajectory | ShotEnd) -> None:
        """Raise the IntegrationFailure of a run that failed, with its partial."""
        if code in _SHOT_FAILED:
            r = self._st[0] if self._cnt[0] else 0.0   # the start failed at r = 0
            raise IntegrationFailure(
                _SHOT_FAILED[code].format(max_steps=self.tol.max_steps, r=r), partial)

    def end(self, a: float) -> ShotEnd:
        """One shot from amplitude a, read at its end: what the amplitude
        search reads of it (the last two rows).  Its terminal radius and
        exceptions are integrate's, and so is a failure, whose partial is
        the ShotEnd.  A run with quadrature takes integrate."""
        code = self._run(a)
        j, cap, g = self._cnt[0] - 1, self._cap, self._grid
        event = _REFINED.get(code, TerminalEvent.REACHED_RMAX)
        if j > 0:
            i = j - 1
            end = ShotEnd((g[i], g[j]), (g[cap + i], g[cap + j]),
                          (g[2 * cap + i], g[2 * cap + j]), event, self._cnt[1])
        elif j == 0:   # a grid of one point
            end = ShotEnd((g[0],), (g[cap],), (g[2 * cap],), event, self._cnt[1])
        else:   # the start failed
            end = ShotEnd((), (), (), event, self._cnt[1])
        self._check(code, end)
        return end


def integrate(
    params: ProblemParams,
    a: float,
    r_max: float,
    tol: StepControls = StepControls(),
) -> Trajectory:
    """Shoot outward from amplitude a until the first terminal event.

    Halts at the first of: u crosses zero (ZeroCrossing), u' turns from
    negative to positive while u > 0 (SlopeSignFlip), r reaches r_max
    (ReachedRmax), or u drops below the underflow floor while still
    decreasing (Underflow).  The terminal radius is refined on the dense
    output to _EVENT_TOL relative accuracy.  An algebraic run without
    quadrature also ends as ReachedRmax where B has settled (_SETTLE_G).
    With tol.with_quadrature the grid also holds _SUB - 1 interior points of
    every step, and the series and node rows are filled.

    One call of the C kernel on a fresh Shot: the series start, the step
    loop and the event refinement, and for a run with quadrature one more
    call for its dense pass.
    """
    shot = Shot(params, r_max, tol)
    code = shot._run(a)
    n, nfev, cap = shot._cnt[0], shot._cnt[1], shot._cap
    # the grid ends at the terminal radius: r_max, the settled stop's or the
    # refined event's, or where a failure stopped
    radii, values, slopes = (np.frombuffer(shot._grid, count=n, offset=8 * i * cap)
                             for i in range(3))
    t = Trajectory(radii=radii, values=values, slopes=slopes,
                   terminal_event=_REFINED.get(code, TerminalEvent.REACHED_RMAX), rhs_evals=nfev)
    # the dense pass as one more call, into the rows of out and nodes (a
    # start that failed has no rows to pass over)
    if tol.with_quadrature and n:
        out = np.empty((3, _SUB * (n - 1) + 1))
        t.nodes = np.empty((8, _BALL_NODES + _SUB * len(_GX) * (n - 1)))
        _kernel.dense(*shot._args, code in _REFINED, out.ctypes.data, t.nodes.ctypes.data)
        t.radii, t.values, t.slopes = out
        t.rhs_evals += 3 * (n - 1)
        t.series = tuple(shot._st[_S_COEFFS:])
    shot._check(code, t)
    return t


def admissible_window(params: ProblemParams, max_probes: int) -> tuple[float, float]:
    """(u_F0, u_hi) where lin > 0 and qc > 0: the first positive zero of F
    and the largest root of f, from the kernel's three Brent loops to 1e-15
    relative of at most max_probes evaluations each.

    BracketNotFound where f has no positive root, F no zero below it, or a
    power overflowed or a division was by zero; InternalConsistencyError
    where a root bracket has no sign change or a loop did not close.
    """
    out = _ZEROS * 4
    code = _kernel.window(params.linear_coeff, params.q_coeff, params.p, params.q, max_probes,
                          out.buffer_info()[0])
    if code:
        exc, message = _WINDOW_FAILED[code]
        family = (f"{params.family.value} (N={params.N}, p={params.p}, q={params.q}, "
                  f"eps={params.eps})")
        raise exc(message.format(*out, family=family, max_probes=max_probes))
    return out[0], out[1]


def _load_kernel() -> _Kernel:
    """The entry points of _dop853.c, built into the cache directory.

    ImportError where it cannot be built (no compiler, an unwritable cache
    directory, a failing compiler) or loaded (a library that does not load
    or lacks an entry point): the message names the reason, the compiler
    command and the cache directory.
    """
    try:
        lib = ctypes.CDLL(str(_native.build(_SOURCE)))
        kernel = _Kernel(lib.dop853_loop, lib.dop853_dense, lib.admissible_window)
    except (OSError, AttributeError) as exc:
        path, cmd = _native.library_path(_SOURCE)
        raise ImportError(
            f"gslab cannot run without its C kernel {_SOURCE.name}: {exc}\n"
            f"It is built with `{shlex.join([*cmd, '-o', path.name, str(_SOURCE), '-lm'])}` "
            f"into the cache directory {path.parent} ($GSLAB_CACHE_DIR, else ~/.cache/gslab): "
            "a C compiler and a writable cache directory are required") from exc
    kernel.loop.restype = ctypes.c_int
    kernel.loop.argtypes = (ctypes.c_void_p,) * 5 + (ctypes.c_int64, ctypes.c_void_p)
    kernel.dense.restype = None   # the loop's arguments, a refined event's flag, out, nodes
    kernel.dense.argtypes = kernel.loop.argtypes + (ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p)
    kernel.window.restype = ctypes.c_int   # lin, qc, p, q, the probe cap, out
    kernel.window.argtypes = (ctypes.c_double,) * 4 + (ctypes.c_int, ctypes.c_void_p)
    return kernel


_kernel = _load_kernel()
