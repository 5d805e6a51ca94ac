"""Bitwise golden values of one reference solve per family.

A speed-up of the solver counts only if its results match the old code
bitwise, or if a stated tolerance covers the difference.  The values below
are ``float.hex`` of the solution and SHA-256 digests of its grid and norm
arrays.  The level and Nehari pins were last taken when the kernel's dense
pass stopped keeping running norm sums: it writes each node's norm terms as
node rows, and ``analyze`` sums those rows.  Their old pins
(CUMULATIVE_PINS) and every older one are held against the old route
(``_cumulative_route``), which still gives their bits; the grid-end norms
and the digests of the running sums are rebuilt from the rows in the
kernel's old order (``_cumulative``) and keep theirs.  The other pins were
last taken when the final pass's dense output began to sum every dot
product of its interpolant and every series-piece norm left to right (in
the C kernel, as ``_dot`` and the series-piece sums of its Python
reference, ``tests/dop853_reference.py``, did), so that no pin goes through
BLAS and the pins hold whichever kernel OpenBLAS picks for the CPU; before that, when the P_zero search shots began to end where the
far-field constant B has settled (``ode``'s settled stop, B read less its
drift still to come, r_max 1e6 without a probe shot) and a final pass that
needs the last probe to close its bracket began to land past Brent's
abscissa, on Dormand-Prince 8(5,3) at atol 1e-14 / rtol 1e-12, every shot
started from the series piece of ``ode`` (the power series in r^2 to
k = 8, handed off where its first omitted term falls below 1e-16 u(0)),
with K_nu e^x from ``ode._kve``.  The read-side norms and the W_1
distances were re-pinned since, when ``RadialProfile.quad`` began to sum the
final pass's own node rows.  Older pins stay asserted at a tolerance: those
taken while the read side summed a cubic Hermite of the grid (HERMITE_PINS;
they and every older read-side pin are also held against that route,
``tests/hermite_reference.py``, at their own tolerances), those taken while
the final pass summed its interpolant through OpenBLAS's gemv (GEMV_PINS),
those taken while K_nu e^x came from scipy.special.kve (SCIPY_KVE_PINS and
the like), those taken with every P_zero shot run to the r_max of a probe
shot (SERIES_PINS and the like),
those taken on the same integrator started from the second-order Taylor
piece at r0 = 1e-4 sqrt(a/|f(a)|) (SECOND_ORDER_PINS and the like), those
from the Dormand-Prince 4(5) integrator at atol 1e-12 / rtol 1e-10
(DP45_PINS), with the amplitude search ending at the integrator's
resolution; those from when the search closed a class bracket with Brent
steps (BRENT_PINS); and those from when the solve replayed the plain
bisection (BISECTION_PINS).  Those older pins were all taken on DP45
trajectories, and a reference solve at atol 1e-15 / rtol 1e-13 puts their
amplitudes 3.6e-12 to 1.5e-11 and their levels 1.0e-11 to 2.6e-11 from the
truth; they hold at 2e-11 and 3e-11.  Fed the roots of f that a port of
scipy's brentq found (SCIPY_ROOTS), the solve's amplitude is pinned bit for
bit.  Any change to the stepping, the error control, the event refinement,
the quadrature panels or the search shows up here as an exact mismatch.
The pins are taken on the C kernel, and ``test_kernel.py`` checks every
shot of these solves and sweeps against the reference bit for bit.  They
were taken on x86-64 Linux (CPython, glibc libm); a different libm may
move the last bits of ``**``, and the read side's ``np.power`` may round
differently where numpy dispatches it to other SIMD code.  The RHS totals
of a whole solve (PANELS) count work, not results: they move when the
solver integrates less.
"""

import hashlib

import numpy as np
import pytest

from gslab import Family, ProblemParams, ShootControls, SweepSpec, solve_ground_state

# (params, amplitude, level_S, nehari_residual, grid.rhs_evals); the final
# pass took 2110, 3703, 2119 and 2128 RHS evaluations from the second-order
# start
GOLDEN = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "0x1.bb150da6eea8fp-1", "0x1.9e6885dd5e48ep+2", "0x1.bacdfab1a2371p-45",
                 1795, id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.f0dc838910f40p-1", "0x1.0ba01b5dca211p+3", "0x1.f24d6fb3d425ap-42",
                 3277, id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.1597c27ee4ce0p+2", "0x1.d83d9226e4134p+3", "0x1.7a2f7dbd7ba0fp-45",
                 1639, id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.0b612fe40a280p+2", "0x1.eb9fac3de8d8dp+3", "0x1.e4a434d5ed434p-45",
                 1648, id="R_eps-N3-p4-q6-eps1e-2"),
]

# The pins taken while analyze read its four norms off the kernel's running
# sums (the route _cumulative_route restores, which still gives their bits):
# (level_S, nehari_residual).  As sums of the norm-term rows the levels moved
# by at most 6.7e-16 relative (held at 1e-14) and the Nehari residuals by at
# most 2.4e-15 absolute (held at 1e-14 absolute); amplitudes and RHS counts
# did not move.
CUMULATIVE_PINS = {
    Family.P_EPS: ("0x1.9e6885dd5e48bp+2", "0x1.b3093e27c7ca6p-45"),
    Family.P_ZERO: ("0x1.0ba01b5dca20ep+3", "0x1.efa805d663a19p-42"),
    Family.R_ZERO: ("0x1.d83d9226e4130p+3", "0x1.7d927eddbf380p-45"),
    Family.R_EPS: ("0x1.eb9fac3de8d89p+3", "0x1.e5b449297bd1cp-45"),
}
CUMULATIVE_TOL = 1e-14   # relative: the level
CUMULATIVE_NEHARI_ABS = 1e-14

# The pins taken while the final pass's dense output summed the dot
# products of its interpolant through OpenBLAS's gemv (its SkylakeX kernel;
# the Haswell, Zen and Prescott kernels gave other bits) and the series-piece
# norms in np.sum's pairwise order: (level_S, nehari_residual,
# grid.norm_lp[-1], grid.norm_dir[-1], radial_norm(prof, p),
# dirichlet_norm(prof)).  Amplitudes and RHS counts did not move.  Summed
# left to right, the levels moved by at most 2.7e-16, norm_lp[-1] and
# norm_dir[-1] by 2.0e-16, the read-side norms by 4.4e-16 (a few ulp; held
# at 1e-15), and the Nehari residuals, which cancel terms of order 10 to
# ~5e-14, by at most 2.5e-16 absolute (held at 1e-15 absolute).
GEMV_PINS = {
    Family.P_EPS: ("0x1.9e6885dd5e489p+2", "0x1.b1180f05512f5p-45", "0x1.cca5f50f5ef22p+0",
                   "0x1.4fa96e339dcfcp+0", "0x1.69cad497c3bfep+4", "0x1.07a0f219303d7p+4"),
    Family.P_ZERO: ("0x1.0ba01b5dca20ep+3", "0x1.efa805d663a19p-42", "0x1.ecb726ff2badbp+1",
                    "0x1.ecb6aeeba2333p+0", "0x1.82fa511c6b7d4p+5", "0x1.82fa51266a3b2p+4"),
    Family.R_ZERO: ("0x1.d83d9226e412ep+3", "0x1.7fd47f9dec477p-45", "0x1.80f8bd8d21627p+2",
                    "0x1.20ba7fe1957c5p+2", "0x1.2e5b244e332a7p+6", "0x1.c588b66f87276p+5"),
    Family.R_EPS: ("0x1.eb9fac3de8d8bp+3", "0x1.e39420825eb58p-45", "0x1.cc15a8904b17ap+2",
                   "0x1.32afa4255ad9dp+2", "0x1.69597fb5a859fp+6", "0x1.e1bde1ffa7304p+5"),
}
GEMV_TOL = 1e-15      # relative: the level, the grid-end norms, the read-side norms
GEMV_NEHARI_ABS = 1e-15

# The pins taken while every P_zero shot ran to the r_max of a probe shot
# (1e6 here) and a final pass that needed a closing shot ran at Brent's
# abscissa: (amplitude, level_S, grid.norm_lp[-1], grid.norm_dir[-1],
# radial_norm(prof, p), dirichlet_norm(prof)), for the two golden solves
# that moved.  P_eps's final pass now lands 1e-13 past that abscissa; the
# P_zero search now ends on its class stop, its amplitude 2.2e-13 from the
# old and its Nehari residual 4.4e-13 (was 1.8e-14).  Measured moves: the
# amplitudes 2.2e-13 (amp_tol), the levels 1.4e-12 (1e-11), norm_lp[-1]
# 3.9e-12 (1e-11), norm_dir[-1] 4.5e-11 (1e-10), the read-side norms
# 4.1e-12 (1e-11).  The tail pieces move with the truncation (P_eps 2.4e-5,
# P_zero 1.5e-7) and get no such check.
SERIES_PINS = {
    Family.P_EPS: ("0x1.bb150da6ee784p-1", "0x1.9e6885dd5e240p+2", "0x1.cca5f50f5e44bp+0",
                   "0x1.4fa96e33de4f0p+0", "0x1.69cad497c34e3p+4", "0x1.07a0f2192f861p+4"),
    Family.P_ZERO: ("0x1.f0dc8389107dap-1", "0x1.0ba01b5dc8868p+3", "0x1.ecb726ff23765p+1",
                    "0x1.ecb6aeeb9c0a0p+0", "0x1.82fa511c64b04p+5", "0x1.82fa5126663acp+4"),
}
SERIES_TOL = {"amplitude": 1e-12, "level_S": 1e-11, "norm_lp": 1e-11, "norm_dir": 1e-10,
              "read_side": 1e-11}

# The pins taken while K_nu e^x came from scipy.special.kve, for the golden
# solve whose amplitude _kve moved: (amplitude, level_S, grid.norm_lp[-1],
# grid.norm_dir[-1], radial_norm(prof, p), dirichlet_norm(prof)).  R_zero's
# proxy reads K_{1/2} e^x and K_{3/2} e^x in closed form, an ulp or two from
# scipy's, and its amplitude moved by 7 ulp (1.4e-15, held at amp_tol), its
# level by 2.8e-15 (1e-14), norm_lp[-1] by 1.9e-15 (1e-14), the read-side
# norms by 1.2e-14 (2e-14), and norm_dir[-1], which moves with the grid end
# of the final pass (7.071131 -> 7.071059), by 1.1e-10 (2e-10); its Nehari
# residual went 4.1e-14 -> 4.3e-14.  The other three golden solves are
# bitwise.
SCIPY_KVE_PINS = {
    Family.R_ZERO: ("0x1.1597c27ee4ce7p+2", "0x1.d83d9226e4145p+3", "0x1.80f8bd8d21634p+2",
                    "0x1.20ba7fe21cd99p+2", "0x1.2e5b244e332e8p+6", "0x1.c588b66f87297p+5"),
}
SCIPY_KVE_TOL = {"amplitude": 1e-12, "level_S": 1e-14, "norm_lp": 1e-14, "norm_dir": 2e-10,
                 "read_side": 2e-14}

# The pins taken on DOP853 while every shot started from the second-order
# Taylor piece at r0 = 1e-4 sqrt(a/|f(a)|): (amplitude, level_S,
# grid.norm_lp[-1], grid.norm_dir[-1], radial_norm(prof, p),
# dirichlet_norm(prof)).  The series start moved the amplitudes by at most
# 9.4e-14 and the levels by 6.4e-13 (both on P_zero, whose lower scan also
# starts elsewhere now), so they hold at amp_tol; the co-integrated L^p
# norm by 1.7e-12 (1e-11), the read-side norms by 2.3e-10 (1e-9), and
# norm_dir[-1], which moves with the truncation of the final trajectory
# (by a grid point), by 2.4e-7 (1e-6).
SECOND_ORDER_PINS = {
    Family.P_EPS: ("0x1.bb150da6ee77ap-1", "0x1.9e6885dd5e268p+2", "0x1.cca5f50f5e42bp+0",
                   "0x1.4fa968d3dcfcep+0", "0x1.69cad49665443p+4", "0x1.07a0f218d5527p+4"),
    Family.P_ZERO: ("0x1.f0dc838910b0cp-1", "0x1.0ba01b5dc941bp+3", "0x1.ecb726ff2706fp+1",
                    "0x1.ecb6aeeb9ec96p+0", "0x1.82fa511b268cep+5", "0x1.82fa512613b8fp+4"),
    Family.R_ZERO: ("0x1.1597c27ee4ce0p+2", "0x1.d83d9226e4140p+3", "0x1.80f8bd8d21631p+2",
                    "0x1.20ba8008ba90bp+2", "0x1.2e5b244e34074p+6", "0x1.c588b66f86327p+5"),
    Family.R_EPS: ("0x1.0b612fe40a27ap+2", "0x1.eb9fac3de8d7dp+3", "0x1.cc15a8904b16dp+2",
                   "0x1.32afa45be5982p+2", "0x1.69597fb5ae6f1p+6", "0x1.e1bde1ffaf919p+5"),
}
SECOND_ORDER_TOL = {"amplitude": 1e-12, "level_S": 1e-12, "norm_lp": 1e-11, "norm_dir": 1e-6,
                    "read_side": 1e-9}

# The pins taken with the Dormand-Prince 4(5) integrator at atol 1e-12 /
# rtol 1e-10, the search ending at its resolution: (amplitude, level_S).  The
# amplitudes moved by at most 1.5e-11 and the levels by 2.5e-11, which is
# their distance to a reference solve at atol 1e-15 / rtol 1e-13 too.
DP45_PINS = {
    Family.P_EPS: ("0x1.bb150da6fbb5cp-1", "0x1.9e6885dd7cc33p+2"),
    Family.P_ZERO: ("0x1.f0dc83891881bp-1", "0x1.0ba01b5de5cf6p+3"),
    Family.R_ZERO: ("0x1.1597c27ed3706p+2", "0x1.d83d9226f9653p+3"),
    Family.R_EPS: ("0x1.0b612fe3fce86p+2", "0x1.eb9fac3e016d2p+3"),
}

# (params, grid.norm_lp[-1], grid.norm_dir[-1], profile.rhs_evals): the
# Gauss panels of the final pass (the running sums, rebuilt from its
# norm-term rows by _cumulative), and the RHS work of the
# solve (8154, 25488, 9191 and 7540 from the second-order start, P_zero's
# lower scan from 1e-3 u_hi; 8212 and 15527 for P_eps and P_zero while it
# took a closing shot and P_zero's shots ran to r_max)
PANELS = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "0x1.cca5f50f5ef22p+0", "0x1.4fa96e339dcfdp+0", 6735,
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.ecb726ff2badbp+1", "0x1.ecb6aeeba2333p+0", 13537,
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.80f8bd8d21627p+2", "0x1.20ba7fe1957c6p+2", 5539,
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.cc15a8904b17bp+2", "0x1.32afa4255ad9dp+2", 5752,
                 id="R_eps-N3-p4-q6-eps1e-2"),
]


# The pins taken while the solve replayed the plain bisection bit for bit:
# (amplitude, level_S, radial_norm(prof, p), dirichlet_norm(prof)) per
# family.  The Brent search stays within amp_tol of that bisection, so on
# DP45 trajectories the amplitude held within 1e-12 relative (it moved by at
# most 5.0e-13) and the level and the norms within 1e-11 (at most 7.7e-13
# and 2.1e-12).  On DOP853 trajectories the amplitude holds within 2e-11 and
# the level within 3e-11 (see the module docstring), and the two norms, read
# by cubic Hermite on the grid, within 1e-8 (they moved by at most 5.1e-9,
# 3.9e-9 being the pins' distance to the reference solve).  The grid-end,
# digest and tail-piece pins get no such check: the truncation of the final
# trajectory moves by a grid point, which moves norm_dir[-1] by up to 7.9e-7
# and the tail pieces by up to 39% while their sums stay.
BISECTION_PINS = {
    Family.P_EPS: ("0x1.bb150da6fbff9p-1", "0x1.9e6885dd7cfa4p+2",
                   "0x1.69cad4a409f08p+4", "0x1.07a0f21ca46f6p+4"),
    Family.P_ZERO: ("0x1.f0dc838918c0ap-1", "0x1.0ba01b5de6b0bp+3",
                    "0x1.82fa513c36de5p+5", "0x1.82fa513261effp+4"),
    Family.R_ZERO: ("0x1.1597c27ed3bbcp+2", "0x1.d83d9226f98e5p+3",
                    "0x1.2e5b2444afcf0p+6", "0x1.c588b65e47071p+5"),
    Family.R_EPS: ("0x1.0b612fe3fc8d8p+2", "0x1.eb9fac3e012bap+3",
                   "0x1.69597fa69024dp+6", "0x1.e1bde1ea1e5c7p+5"),
}


# The pins taken while the search closed a class bracket with Brent steps to
# amp_tol, a* its geometric mid: (amplitude, level_S, radial_norm(prof, p),
# dirichlet_norm(prof)).  The resolution secant is within amp_tol/2 of the
# class switch, so on DP45 trajectories the amplitude and the level held
# within 1e-12 relative (they moved by at most 2.5e-13 and 2.1e-13), the
# norms within 1e-11 (at most 8.5e-13 and 1.6e-12); on DOP853 trajectories
# they hold at the tolerances of BISECTION_PINS.
BRENT_PINS = {
    Family.P_EPS: ("0x1.bb150da6fc2f8p-1", "0x1.9e6885dd7d218p+2",
                   "0x1.69cad4a40a765p+4", "0x1.07a0f21ca56b8p+4"),
    Family.P_ZERO: ("0x1.f0dc83891881bp-1", "0x1.0ba01b5de5cf6p+3",
                    "0x1.82fa513c33774p+5", "0x1.82fa51325fcf6p+4"),
    Family.R_ZERO: ("0x1.1597c27ed3241p+2", "0x1.d83d9226f93b0p+3",
                    "0x1.2e5b2444af682p+6", "0x1.c588b65e43a40p+5"),
    Family.R_EPS: ("0x1.0b612fe3fce89p+2", "0x1.eb9fac3e016bdp+3",
                   "0x1.69597fa6909f9p+6", "0x1.e1bde1ea2114fp+5"),
}


# the tolerances of the pins taken on DP45 trajectories (module docstring)
OLD_AMPLITUDE_TOL = 2e-11
OLD_LEVEL_TOL = 3e-11
OLD_GRID_NORM_TOL = 1e-8


def _near(value, pin, rel):
    return value == pytest.approx(float.fromhex(pin), rel=rel, abs=0.0)


def _cumulative(grid) -> np.ndarray:
    """The kernel's old running sums (norm_l2, norm_lp, norm_lq, norm_dir) at
    every grid point, rebuilt from the grid's norm-term rows in its order:
    the series piece's terms added left to right from 0.0, then each grid
    panel's as ((t0 + t1) + t2) + t3, added up in order."""
    from dop853_reference import _sum
    from gslab import ode

    rows, ball = grid.nodes[4:], ode._BALL_NODES
    panels = rows[:, ball:].reshape(4, len(grid.radii) - 1, len(ode._GX))
    sums = np.empty((4, len(grid.radii)))
    sums[:, 0] = [_sum(row[:ball].tolist()) for row in rows]
    sums[:, 1:] = ((panels[..., 0] + panels[..., 1]) + panels[..., 2]) + panels[..., 3]
    return np.add.accumulate(sums, axis=1)


def _cumulative_route(fn):
    """fn() with analyze's norms and concentration_lambda's grid mass
    (Trajectory.cumulative) read off the running sums (_cumulative), as
    before they summed the rows: a scaled copy's grid carries its source's
    sums times ProblemParams.norm_factors."""
    import math

    from gslab import DivergentNormError, functionals, ode, shooting
    from gslab.params import sphere_area

    def sums(grid):
        kept = grid.__dict__.get("running_sums")
        return _cumulative(grid) if kept is None else kept

    real = shooting.RadialProfile.scaled

    def scaled(self, amp, lam_sq):
        copy = real(self, amp, lam_sq)
        factors = np.array(self.params.norm_factors(amp, lam_sq))[:, None]
        copy.grid.running_sums = sums(self.grid) * factors
        return copy

    def norms(prof):
        l2, lp, lq, dir_ = sums(prof.grid)[:, -1].tolist()
        omega = sphere_area(prof.params.N)
        try:
            l2 = omega * (l2 + prof.norm_tail(2.0))
        except DivergentNormError:
            l2 = math.inf
        return (l2, omega * (lp + prof.norm_tail(prof.params.p)),
                omega * (lq + prof.norm_tail(prof.params.q)),
                omega * (dir_ + prof.dirichlet_tail()))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(shooting.RadialProfile, "scaled", scaled)
        m.setattr(functionals, "_norms_from_trajectory", norms)
        m.setattr(ode.Trajectory, "cumulative", lambda grid, row: sums(grid)[row - 4])
        return fn()


@pytest.mark.parametrize("params, amplitude, level_S, nehari, rhs_evals", GOLDEN)
def test_solve_matches_golden_bitwise(params, amplitude, level_S, nehari, rhs_evals):
    sol = solve_ground_state(params)
    assert sol.amplitude.hex() == amplitude
    assert sol.level_S.hex() == level_S
    assert sol.nehari_residual.hex() == nehari
    assert sol.profile.grid.rhs_evals == rhs_evals
    old_level_S, old_nehari = CUMULATIVE_PINS[params.family]
    assert _near(sol.level_S, old_level_S, CUMULATIVE_TOL)
    assert sol.nehari_residual == pytest.approx(float.fromhex(old_nehari), rel=0.0,
                                                abs=CUMULATIVE_NEHARI_ABS)
    # the older pins, on the running sums' route they were taken on
    sol = _cumulative_route(lambda: solve_ground_state(params))
    assert (sol.level_S.hex(), sol.nehari_residual.hex()) == (old_level_S, old_nehari)
    old_level_S, old_nehari = GEMV_PINS[params.family][:2]
    assert _near(sol.level_S, old_level_S, GEMV_TOL)
    assert sol.nehari_residual == pytest.approx(float.fromhex(old_nehari), rel=0.0,
                                                abs=GEMV_NEHARI_ABS)
    if params.family in SCIPY_KVE_PINS:
        old_amplitude, old_level_S = SCIPY_KVE_PINS[params.family][:2]
        assert _near(sol.amplitude, old_amplitude, SCIPY_KVE_TOL["amplitude"])
        assert _near(sol.level_S, old_level_S, SCIPY_KVE_TOL["level_S"])
    if params.family in SERIES_PINS:
        old_amplitude, old_level_S = SERIES_PINS[params.family][:2]
        assert _near(sol.amplitude, old_amplitude, SERIES_TOL["amplitude"])
        assert _near(sol.level_S, old_level_S, SERIES_TOL["level_S"])
    old_amplitude, old_level_S = SECOND_ORDER_PINS[params.family][:2]
    assert _near(sol.amplitude, old_amplitude, SECOND_ORDER_TOL["amplitude"])
    assert _near(sol.level_S, old_level_S, SECOND_ORDER_TOL["level_S"])
    for pins in (DP45_PINS, BISECTION_PINS, BRENT_PINS):
        old_amplitude, old_level_S = pins[params.family][:2]
        assert _near(sol.amplitude, old_amplitude, OLD_AMPLITUDE_TOL)
        assert _near(sol.level_S, old_level_S, OLD_LEVEL_TOL)
    assert _near(sol.amplitude, DP45_SCIPY_ROOT_AMPLITUDES[params.family], OLD_AMPLITUDE_TOL)


@pytest.mark.parametrize("params, norm_lp, norm_dir, rhs_evals", PANELS)
def test_panels_match_golden_bitwise(params, norm_lp, norm_dir, rhs_evals):
    prof = solve_ground_state(params).profile
    lp, dir_ = _cumulative(prof.grid)[[1, 3], -1].tolist()
    assert (lp.hex(), dir_.hex()) == (norm_lp, norm_dir)
    assert prof.rhs_evals == rhs_evals
    old_lp, old_dir = GEMV_PINS[params.family][2:4]
    assert _near(lp, old_lp, GEMV_TOL)
    assert _near(dir_, old_dir, GEMV_TOL)
    if params.family in SCIPY_KVE_PINS:
        old_lp, old_dir = SCIPY_KVE_PINS[params.family][2:4]
        assert _near(lp, old_lp, SCIPY_KVE_TOL["norm_lp"])
        assert _near(dir_, old_dir, SCIPY_KVE_TOL["norm_dir"])
    if params.family in SERIES_PINS:
        old_lp, old_dir = SERIES_PINS[params.family][2:4]
        assert _near(lp, old_lp, SERIES_TOL["norm_lp"])
        assert _near(dir_, old_dir, SERIES_TOL["norm_dir"])
    old_lp, old_dir = SECOND_ORDER_PINS[params.family][2:4]
    assert _near(lp, old_lp, SECOND_ORDER_TOL["norm_lp"])
    assert _near(dir_, old_dir, SECOND_ORDER_TOL["norm_dir"])


# (params, SHA-256 of the final grid's radii, values, slopes, norm_l2,
# norm_lp, norm_lq and norm_dir as little-endian float64, in that order; the
# four running sums rebuilt by _cumulative): every interior entry, not just
# the end values above.  Re-pinned with the
# values above when the final pass began to sum left to right (GEMV_PINS);
# a digest has no tolerance
ARRAYS = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "8c5643bccede60400c6d8bbaff3c33d9eb70a744d1905a0deede348b88a66ad6",
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "36f7991ee6825e65961f6f990f2b3ab01f8ada2f9ec876d6122d067eb522bdb7",
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "3d15c680fe197aef1acc4a785bfa223f5b2aae4449351b463e4137663d7e2332",
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "b907a2a417dec36a00525cfd8b56f93c5c3466e4808fda0f0f66033e6a6e2ffb",
                 id="R_eps-N3-p4-q6-eps1e-2"),
]


@pytest.mark.parametrize("params, digest", ARRAYS)
def test_grid_arrays_match_golden_digest(params, digest):
    grid = solve_ground_state(params).profile.grid
    h = hashlib.sha256()
    for array in (grid.radii, grid.values, grid.slopes, *_cumulative(grid)):
        h.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("params, amplitude, level_S, nehari, rhs_evals", GOLDEN)
def test_forced_loose_probes_fall_back_to_golden_bitwise(params, amplitude, level_S, nehari,
                                                         rhs_evals, misread_loose_shot,
                                                         overturned, tight_bracket, monkeypatch):
    # every probe loose, the ones next to a* included: the loose ends of the
    # final bracket are integrated again tight, a loose class that flips
    # there sends the solve to its all-tight second attempt, and either way
    # the amplitude lands within amp_tol of the golden solve
    from gslab import shooting

    calls, _ = misread_loose_shot(lambda a, c: False)
    monkeypatch.setattr(shooting, "_LOOSE_SHIFT", -1.0)
    prof = solve_ground_state(params).profile
    loose = {a for a, kind, _, _ in calls if kind == "loose"}
    assert any(kind == "tight" and a in loose for a, kind, _, _ in calls), \
        "no loose end was integrated again tight"
    _assert_accounted(prof, calls, overturned, tight_bracket)
    assert _near(prof.amplitude, amplitude, ShootControls().amp_tol)


# The read side: (params, radial_norm(prof, p), dirichlet_norm,
# prof.norm_tail(2.0), prof.dirichlet_tail()), the tail pieces past the last
# grid radius R; None where the algebraic tail makes the L^2 norm diverge.  The
# exponential tails' Dirichlet terms were re-pinned when TailModel.slope
# became the closed-form derivative.  The tail pieces moved by 1-11% when
# the start became the series piece (the truncation moved by a grid point).
# The exponential tail pieces were re-pinned again when the far field moved
# to 16 x 16 Gauss nodes on geometric panels; norm totals did not move.
# P_eps and P_zero were re-pinned with SERIES_PINS, and the three
# exponential tails again with SCIPY_KVE_PINS; the norms of all but R_zero
# with GEMV_PINS (the tail pieces did not move).  The norms were re-pinned
# again when RadialProfile.quad began to sum the final pass's own node rows
# instead of a cubic Hermite of the grid (HERMITE_PINS).
READ_SIDE = [
    pytest.param(ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS),
                 "0x1.69cad48b7d447p+4", "0x1.07a0f21290740p+4",
                 "0x1.df3f399f9ab63p-10", "0x1.4fa5830a22b81p-19",
                 id="P_eps-N3-p6-q10-eps1e-3"),
    pytest.param(ProblemParams(3, 8.0, 12.0, 0.0, Family.P_ZERO),
                 "0x1.82fa5125a5a7bp+5", "0x1.82fa5125a3dedp+4",
                 None, "0x1.e04e1cd0fe236p-18",
                 id="P_zero-N3-p8-q12"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 0.0, Family.R_ZERO),
                 "0x1.2e5b242e8b923p+6", "0x1.c588b645d1578p+5",
                 "0x1.6444062560801p-19", "0x1.c908723e288bap-19",
                 id="R_zero-N3-p4-q6"),
    pytest.param(ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS),
                 "0x1.69597f8bfebb6p+6", "0x1.e1bde1d080772p+5",
                 "0x1.590bc738dec93p-19", "0x1.b89ef560fa2b7p-19",
                 id="R_eps-N3-p4-q6-eps1e-2"),
]

# The read-side norms (radial_norm(prof, p), dirichlet_norm(prof)) while
# RadialProfile.quad read a cubic Hermite of the grid on 6 Gauss nodes per
# grid interval; tests/hermite_reference.py is that route, and gives these
# bits still.  Summed on the final pass's node rows (the interpolant the
# norms are co-integrated on) they moved by 2.0e-9 and 1.5e-9 (P_eps),
# 1.4e-9 and 1.2e-10 (P_zero), 6.2e-9 and 5.5e-9 (R_zero), 6.9e-9 and
# 5.8e-9 (R_eps), so they hold at 7e-9.  Every older read-side pin below
# was taken on the Hermite route and is held against it, at its own
# tolerance.
HERMITE_PINS = {
    Family.P_EPS: ("0x1.69cad497c3bfep+4", "0x1.07a0f219303d9p+4"),
    Family.P_ZERO: ("0x1.82fa511c6b7d3p+5", "0x1.82fa51266a3afp+4"),
    Family.R_ZERO: ("0x1.2e5b244e332a7p+6", "0x1.c588b66f87276p+5"),
    Family.R_EPS: ("0x1.69597fb5a859dp+6", "0x1.e1bde1ffa7304p+5"),
}
HERMITE_TOL = 7e-9


def _hermite_read_side(fn):
    """fn() with every grid integral on the cubic-Hermite route."""
    from hermite_reference import hermite_route

    with pytest.MonkeyPatch.context() as m:
        hermite_route(m)
        return fn()


# The exponential tail pieces (norm_tail(2.0), dirichlet_tail()) of the
# 16 x 32 Gauss rule on squared-linspace panels over [R, R + 60/decay]; the
# geometric panels moved them by at most 8.9e-16, so they hold at 2e-15 (on
# the profile they were taken on: P_eps's at its SERIES_PINS amplitude,
# R_zero's at its SCIPY_KVE_PINS one).
SQUARED_LINSPACE_TAIL_PINS = {
    Family.P_EPS: ("0x1.df3c6037453a3p-10", "0x1.4fa3778c776e1p-19"),
    Family.R_ZERO: ("0x1.643709a3ed5a3p-19", "0x1.c8f786f075bbbp-19"),
    Family.R_EPS: ("0x1.590bc738dec8cp-19", "0x1.b89ef560fa2afp-19"),
}
SQUARED_LINSPACE_TAIL_TOL = 2e-15

# The exponential tail pieces (norm_tail(2.0), dirichlet_tail()) while
# K_nu e^x came from scipy.special.kve.  On the profile they were taken on
# (R_zero's at its SCIPY_KVE_PINS amplitude: today's grid ends at another
# radius, which moved its pieces by 1.5e-4) _kve moved them by at most
# 8.9e-16, so they hold at 2e-15.
SCIPY_KVE_TAIL_PINS = {
    Family.P_EPS: ("0x1.df3f399f9ab62p-10", "0x1.4fa5830a22b80p-19"),
    Family.R_ZERO: ("0x1.643709a3ed59ep-19", "0x1.c8f786f075bb4p-19"),
    Family.R_EPS: ("0x1.590bc738dec8ep-19", "0x1.b89ef560fa2b4p-19"),
}
SCIPY_KVE_TAIL_TOL = 2e-15


def _profile_at(params, amplitude):
    """The profile packaged from a final pass at a pinned amplitude (an
    exponential family's r_max): the profile an older pin was taken on,
    wherever the search now lands, on today's integrator."""
    from dataclasses import replace

    from gslab import shooting

    ctrl = ShootControls()
    a = float.fromhex(amplitude)
    r_max = shooting._default_r_max(params, ctrl)
    t = shooting.integrate(params, a, r_max, replace(ctrl.step, with_quadrature=True))
    return shooting._package_profile(params, a, t, 0.5 * ctrl.amp_tol, ctrl.step.atol)


@pytest.mark.parametrize("params, norm_p, dirichlet, tail_l2, tail_dir", READ_SIDE)
def test_read_side_norms_match_golden_bitwise(params, norm_p, dirichlet, tail_l2, tail_dir):
    from gslab import DivergentNormError, dirichlet_norm, radial_norm

    prof = solve_ground_state(params).profile
    assert float(radial_norm(prof, params.p)).hex() == norm_p
    assert float(dirichlet_norm(prof)).hex() == dirichlet
    if tail_l2 is None:
        with pytest.raises(DivergentNormError):
            prof.norm_tail(2.0)
    else:
        assert float(prof.norm_tail(2.0)).hex() == tail_l2
    assert float(prof.dirichlet_tail()).hex() == tail_dir
    old_norm_p, old_dirichlet = HERMITE_PINS[params.family]
    assert _near(radial_norm(prof, params.p), old_norm_p, HERMITE_TOL)
    assert _near(dirichlet_norm(prof), old_dirichlet, HERMITE_TOL)
    # the older pins, on the Hermite route they were taken on
    norm_p_h, dirichlet_h = _hermite_read_side(
        lambda: (radial_norm(prof, params.p), dirichlet_norm(prof)))
    assert (float(norm_p_h).hex(), float(dirichlet_h).hex()) == (old_norm_p, old_dirichlet)
    old_norm_p, old_dirichlet = GEMV_PINS[params.family][4:]
    assert _near(norm_p_h, old_norm_p, GEMV_TOL)
    assert _near(dirichlet_h, old_dirichlet, GEMV_TOL)
    if params.family in SCIPY_KVE_TAIL_PINS:
        old_l2, old_dir = SCIPY_KVE_TAIL_PINS[params.family]
        old = (_profile_at(params, SCIPY_KVE_PINS[params.family][0])
               if params.family in SCIPY_KVE_PINS else prof)
        assert _near(old.norm_tail(2.0), old_l2, SCIPY_KVE_TAIL_TOL)
        assert _near(old.dirichlet_tail(), old_dir, SCIPY_KVE_TAIL_TOL)
    if params.family in SCIPY_KVE_PINS:
        old_norm_p, old_dirichlet = SCIPY_KVE_PINS[params.family][4:]
        assert _near(norm_p_h, old_norm_p, SCIPY_KVE_TOL["read_side"])
        assert _near(dirichlet_h, old_dirichlet, SCIPY_KVE_TOL["read_side"])
    if params.family in SQUARED_LINSPACE_TAIL_PINS:
        old_l2, old_dir = SQUARED_LINSPACE_TAIL_PINS[params.family]
        pinned = {**SCIPY_KVE_PINS, **SERIES_PINS}.get(params.family)
        old = prof if pinned is None else _profile_at(params, pinned[0])
        assert _near(old.norm_tail(2.0), old_l2, SQUARED_LINSPACE_TAIL_TOL)
        assert _near(old.dirichlet_tail(), old_dir, SQUARED_LINSPACE_TAIL_TOL)
    if params.family in SERIES_PINS:
        old_norm_p, old_dirichlet = SERIES_PINS[params.family][4:]
        assert _near(norm_p_h, old_norm_p, SERIES_TOL["read_side"])
        assert _near(dirichlet_h, old_dirichlet, SERIES_TOL["read_side"])
    old_norm_p, old_dirichlet = SECOND_ORDER_PINS[params.family][4:]
    assert _near(norm_p_h, old_norm_p, SECOND_ORDER_TOL["read_side"])
    assert _near(dirichlet_h, old_dirichlet, SECOND_ORDER_TOL["read_side"])
    for pins in (BISECTION_PINS, BRENT_PINS):
        _, _, old_norm_p, old_dirichlet = pins[params.family]
        assert _near(norm_p_h, old_norm_p, OLD_GRID_NORM_TOL)
        assert _near(dirichlet_h, old_dirichlet, OLD_GRID_NORM_TOL)


CRITICAL_READ_SIDE = ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS)


def test_critical_read_side_matches_golden_bitwise(monkeypatch):
    # one critical N=5 solve in the minimizer frame: the concentration
    # radius, both distances of the rescaled profile to W_1 and the
    # kappa-identity residual of the frame's norms
    from gslab import (EmdenFowlerProfile, analyze, concentration_lambda, kappa_identities,
                       rescale_to_v)
    from gslab.asymptotics import profile_distances

    params = CRITICAL_READ_SIDE
    W = EmdenFowlerProfile(5, 1.0, "W")

    def read_side():
        w = solve_ground_state(params).rescaled_to_frame()
        lam = concentration_lambda(w.profile)
        v = rescale_to_v(w.profile, lam)
        return (w, lam, v, *profile_distances(v, W), kappa_identities(w, params.eps).lq_residual)

    w, lam, v, d1, dp, kappa = read_side()
    assert lam.hex() == "0x1.5ffd4d6102b63p+0"
    assert d1.hex() == "0x1.3e799f3fc2fdbp-2"
    assert dp.hex() == "0x1.c958ebb92c6fap-5"
    assert kappa.hex() == "0x1.2597a30d35eb4p-23"
    # the pins taken while analyze and the grid mass read the kernel's
    # running sums (CUMULATIVE_PINS): as sums of the norm-term rows lambda
    # moved by 1.0e-15, d1 by 6.7e-15 and dp by 4.4e-16 relative, so they
    # hold at 1e-13, and the kappa residual by 2.4e-22 absolute (1e-14).  The
    # running sums' route still gives their bits, and every older pin below
    # is held against it
    assert _near(lam, "0x1.5ffd4d6102b69p+0", 1e-13)
    assert _near(d1, "0x1.3e799f3fc2fb6p-2", 1e-13)
    assert _near(dp, "0x1.c958ebb92c6f7p-5", 1e-13)
    assert kappa == pytest.approx(float.fromhex("0x1.2597a30d35ebdp-23"), rel=0.0, abs=1e-14)
    w, lam, v, d1, dp, kappa = _cumulative_route(read_side)
    assert lam.hex() == "0x1.5ffd4d6102b69p+0"
    assert d1.hex() == "0x1.3e799f3fc2fb6p-2"
    assert dp.hex() == "0x1.c958ebb92c6f7p-5"
    assert kappa.hex() == "0x1.2597a30d35ebdp-23"
    # the pins taken while RadialProfile.quad read a cubic Hermite of the
    # grid (HERMITE_PINS): lambda and the kappa residual did not move, d1
    # moved by 4.6e-8 and dp by 4.1e-8, so they hold at those; at a solve
    # with 100x tighter step controls d1 is 1.9e-8 from today's and 6.4e-8
    # from the Hermite route's.  The Hermite route still gives their bits,
    # and every older pin of the distances is held against it
    assert _near(d1, "0x1.3e79a032a28e3p-2", 4.6e-8)
    assert _near(dp, "0x1.c958ecf090a7ep-5", 4.1e-8)
    d1, dp = _hermite_read_side(lambda: profile_distances(v, W))
    assert d1.hex() == "0x1.3e79a032a28e3p-2"
    assert dp.hex() == "0x1.c958ecf090a7ep-5"
    # the pins taken while the final pass summed its interpolant through
    # gemv (GEMV_PINS): lambda and the kappa residual did not move, d1 moved
    # by 1.1e-15 and dp by 1.2e-16, so they hold at 3e-15
    assert _near(d1, "0x1.3e79a032a28ddp-2", 3e-15)
    assert _near(dp, "0x1.c958ecf090a7dp-5", 3e-15)
    # the pins taken while a final pass that needed a closing shot ran at
    # Brent's abscissa (SERIES_PINS): the final pass now lands 1e-13 past
    # it, and lambda moved by 9.7e-15, d1 by 1.1e-11, dp by 2.7e-12 and the
    # kappa residual by 3.8e-6, so they hold at 1e-13, 1e-10, 1e-11, 1e-5
    assert _near(lam, "0x1.5ffd4d6102ba5p+0", 1e-13)
    assert _near(d1, "0x1.3e79a032b1bf3p-2", 1e-10)
    assert _near(dp, "0x1.c958ecf095e85p-5", 1e-11)
    assert _near(kappa, "0x1.2597ece687f93p-23", 1e-5)
    # the pins taken on DOP853 from the second-order start: lambda moved by
    # 9.3e-11, d1 by 3.3e-8, dp by 2.2e-9 and the kappa residual (1.4e-7) by
    # 0.65%, so they hold at 1e-9, 1e-7, 1e-8 and 1e-2
    assert _near(lam, "0x1.5ffd4d618eb49p+0", 1e-9)
    assert _near(d1, "0x1.3e799f8102329p-2", 1e-7)
    assert _near(dp, "0x1.c958ecdfa6b33p-5", 1e-8)
    assert _near(kappa, "0x1.23ae6c89e22e0p-23", 1e-2)
    # The older pins below were taken on DP45 trajectories.  Against them
    # lambda moved by at most 1.3e-9, d1 by 8.4e-8 and dp by 4.0e-8; a
    # reference solve at atol 1e-15 / rtol 1e-13 is 1.2e-9, 1.0e-7 and
    # 6.5e-8 from them, so they hold at 2e-9, 2e-7 and 1e-7.
    # The pins taken with the DP45 integrator, the search ending at its
    # resolution
    assert _near(lam, "0x1.5ffd4d5a19901p+0", 2e-9)
    assert _near(d1, "0x1.3e79a1418ffcfp-2", 2e-7)
    assert _near(dp, "0x1.c958ee133c9fcp-5", 1e-7)
    # the pins taken while the search closed a class bracket: on DP45
    # trajectories the profile moved by 2.5e-13, lambda by 2.3e-13, d1 by
    # 1.6e-12 and dp by 5.0e-12
    assert _near(lam, "0x1.5ffd4d5a19e8fp+0", 2e-9)
    assert _near(d1, "0x1.3e79a1418dd28p-2", 2e-7)
    assert _near(dp, "0x1.c958ee1332dbep-5", 1e-7)
    # the radius pinned while it was a bisection of the panel to 1e-13: on
    # the frame at the amplitude it was pinned on (the solve fed SCIPY_ROOTS
    # while the search closed a class bracket), Brent's lambda was within
    # both stop widths of it on DP45 trajectories; on DOP853 ones, 8.0e-10
    w_old = analyze(_profile_at(params, "0x1.1aadc6ea9b41ap-1")).rescaled_to_frame()
    assert _near(concentration_lambda(w_old.profile), "0x1.5ffd4d5a193a4p+0", 1e-9)
    # the pins taken while the solve replayed the plain bisection: on DP45
    # trajectories the profile moved by ~1e-13, lambda by 1.4e-13, d1 by
    # 5.0e-13, dp by 2.4e-12
    assert _near(lam, "0x1.5ffd4d5a19706p+0", 2e-9)
    assert _near(d1, "0x1.3e79a141909c5p-2", 2e-7)
    assert _near(dp, "0x1.c958ee13412a6p-5", 1e-7)
    # the pins taken while the radius read Hermite prefix sums of the grid
    # panels, not the co-integrated mass: lambda moved by 2.2e-9 relative
    # (3.5e-9 now), and at the old lambda the distances moved only by
    # rounding until the profile itself moved with the Brent search (2.3e-13
    # and 2.4e-12) and with DOP853 (8.0e-8 and 4.0e-8)
    old_lam = float.fromhex("0x1.5ffd4d4d0787cp+0")
    assert lam == pytest.approx(old_lam, rel=1e-8, abs=0.0)
    d1_old, dp_old = _hermite_read_side(
        lambda: profile_distances(rescale_to_v(w.profile, old_lam), W))
    assert _near(d1_old, "0x1.3e79a16892f20p-2", 2e-7)
    assert _near(dp_old, "0x1.c958ee0f40d10p-5", 1e-7)


# f's roots (u_F0, u_hi) as the port of scipy's brentq found them, for the
# golden cases whose roots are not in closed form; _bracket_root's are 1-3
# ulp away
SCIPY_ROOTS = {
    ProblemParams(3, 6.0, 10.0, 1e-3, Family.P_EPS): ("0x1.df84fabbf2c9fp-3",
                                                      "0x1.ffdf2fd52b8b9p-1"),
    ProblemParams(3, 4.0, 6.0, 1e-2, Family.R_EPS): ("0x1.6c82aaabc90d0p+0",
                                                     "0x1.3e612b6e74d1cp+3"),
    ProblemParams(5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS): ("0x1.0e4b5bd54408dp-7",
                                                            "0x1.ffceced9b6131p-1"),
}

# The amplitudes of the solves fed those roots.  P_zero and R_zero land on
# the golden bits, P_eps 2.0e-15 and R_eps 1.3e-15 from them.  R_zero's,
# whose roots are in closed form, is its golden solve, and while K_nu e^x
# came from scipy.special.kve it landed on SCIPY_KVE_PINS' amplitude, 7 ulp
# from today's (held at amp_tol).  Before the
# P_zero settled stop and the final pass past Brent's abscissa
# (SERIES_SCIPY_ROOT_AMPLITUDES) P_eps landed 1.0e-13 and P_zero 2.2e-13
# from today's, so they hold at amp_tol.  From the second-order start (SECOND_ORDER_SCIPY_ROOT_AMPLITUDES) they landed within
# 9.4e-14 of today's and hold at amp_tol.  With the DP45
# integrator (DP45_SCIPY_ROOT_AMPLITUDES) P_eps and R_zero landed on their
# golden bits, and R_eps 5.0e-13 from them; fed those roots while the search
# closed a class bracket, P_eps and R_zero landed on their BRENT_PINS bits.
SCIPY_ROOT_AMPLITUDES = {
    Family.P_EPS: "0x1.bb150da6eea95p-1",
    Family.P_ZERO: "0x1.f0dc838910f40p-1",
    Family.R_ZERO: "0x1.1597c27ee4ce0p+2",
    Family.R_EPS: "0x1.0b612fe40a280p+2",
}
SERIES_SCIPY_ROOT_AMPLITUDES = {
    Family.P_EPS: "0x1.bb150da6ee78ap-1",
    Family.P_ZERO: "0x1.f0dc8389107dap-1",
}
SECOND_ORDER_SCIPY_ROOT_AMPLITUDES = {
    Family.P_EPS: "0x1.bb150da6ee777p-1",
    Family.P_ZERO: "0x1.f0dc838910b0cp-1",
    Family.R_ZERO: "0x1.1597c27ee4ce0p+2",
    Family.R_EPS: "0x1.0b612fe40a273p+2",
}
DP45_SCIPY_ROOT_AMPLITUDES = {
    Family.P_EPS: "0x1.bb150da6fbb5cp-1",
    Family.P_ZERO: "0x1.f0dc83891881bp-1",
    Family.R_ZERO: "0x1.1597c27ed3706p+2",
    Family.R_EPS: "0x1.0b612fe3fc55fp+2",
}


def _solve_on_scipy_roots(params, monkeypatch):
    """solve_ground_state with f's roots from SCIPY_ROOTS where pinned."""
    from gslab import shooting

    real = shooting._f_positive_roots

    def roots(p):
        if p in SCIPY_ROOTS:
            return tuple(float.fromhex(x) for x in SCIPY_ROOTS[p])
        return real(p)

    monkeypatch.setattr(shooting, "_f_positive_roots", roots)
    return solve_ground_state(params)


@pytest.mark.parametrize("params", [pytest.param(p.values[0], id=p.id) for p in GOLDEN])
def test_scipy_roots_give_the_old_amplitudes_bitwise(params, monkeypatch):
    # fed the roots the old root finder found, the solve lands on its pinned
    # amplitude bit for bit, and within the DP45 tolerance of the DP45 one
    prof = _solve_on_scipy_roots(params, monkeypatch).profile
    assert prof.amplitude.hex() == SCIPY_ROOT_AMPLITUDES[params.family]
    if params.family in SCIPY_KVE_PINS:
        assert _near(prof.amplitude, SCIPY_KVE_PINS[params.family][0], ShootControls().amp_tol)
    if params.family in SERIES_SCIPY_ROOT_AMPLITUDES:
        assert _near(prof.amplitude, SERIES_SCIPY_ROOT_AMPLITUDES[params.family],
                     ShootControls().amp_tol)
    assert _near(prof.amplitude, SECOND_ORDER_SCIPY_ROOT_AMPLITUDES[params.family],
                 ShootControls().amp_tol)
    assert _near(prof.amplitude, DP45_SCIPY_ROOT_AMPLITUDES[params.family], OLD_AMPLITUDE_TOL)


@pytest.mark.parametrize("N, s_star, qs", [
    (3, "0x1.5e95fb08ca59bp+2", "0x1.5de4b9858e7bbp-1"),
    (4, "0x1.48552f88091a7p+3", "0x1.2f4a986a17eaep-1"),
    (5, "0x1.d9fb2e4995447p+3", "0x1.fa84254a892c2p-2"),
])
def test_emden_constants_match_golden_bitwise(N, s_star, qs):
    # __wrapped__ skips the lru_cache, so the quadrature runs here
    from gslab.emden import q_star, sobolev_constant

    assert float(sobolev_constant.__wrapped__(N)).hex() == s_star
    assert float(q_star.__wrapped__(N)).hex() == qs


# The amplitudes of two 8-point hinted N=3 subcritical sweeps, at grid
# ratios 1.5 and 2.  Every point after the first is hinted around the
# amplitude its predecessors predict (asymptotics._amplitude_hint), and
# every hint is accepted: the solve pays its two checks, no window scan.
HINTED_SWEEPS = [
    pytest.param(1.5, ["0x1.abceb30676db7p-2", "0x1.61b612d4392c3p-2", "0x1.23389d170b7b6p-2",
                       "0x1.de34e92e7b740p-3", "0x1.87e5ff49740b3p-3", "0x1.40c58b6cc65fap-3",
                       "0x1.0656a7d2cfe63p-3", "0x1.acdd7475b9f27p-4"], id="ratio-1.5"),
    pytest.param(2.0, ["0x1.abceb30676db7p-2", "0x1.343e8a906ada1p-2", "0x1.b805a14578831p-3",
                       "0x1.389957fbbc3d1p-3", "0x1.bb1d3ef7c7dafp-4", "0x1.39b1d0f2c8bb2p-4",
                       "0x1.bbe3c7e9042e4p-5", "0x1.39f80bd8215c1p-5"], id="ratio-2"),
]


def hinted_sweep_spec(ratio: float) -> SweepSpec:
    """The sweep of HINTED_SWEEPS at this grid ratio: eps from 1e-2 down, 8 points."""
    return SweepSpec(regime="subcritical", N=3, p=4.0, q=6.0,
                     grid_min=1e-2 / ratio ** 7, grid_max=1e-2, ratio=ratio)


# The same sweeps pinned while K_nu e^x came from scipy.special.kve: _kve
# moved ten amplitudes, by 1.8e-15 at most, so they hold at amp_tol
SCIPY_KVE_SWEEPS = {
    1.5: ["0x1.abceb30676db7p-2", "0x1.61b612d4392cbp-2", "0x1.23389d170b7b7p-2",
          "0x1.de34e92e7b740p-3", "0x1.87e5ff49740acp-3", "0x1.40c58b6cc65f8p-3",
          "0x1.0656a7d2cfe5fp-3", "0x1.acdd7475b9f2bp-4"],
    2.0: ["0x1.abceb30676db7p-2", "0x1.343e8a906ada1p-2", "0x1.b805a14578833p-3",
          "0x1.389957fbbc3c7p-3", "0x1.bb1d3ef7c7dacp-4", "0x1.39b1d0f2c8bb2p-4",
          "0x1.bbe3c7e9042f0p-5", "0x1.39f80bd8215c1p-5"],
}

# The same sweeps pinned while every hint was (0.75 a, 1.3 a) around the
# previous amplitude: all accepted at ratio 1.5, all rejected at ratio 2
# (the amplitude fell below the lower end, and each solve scanned the
# admissible window).  The predicted hints moved them by 1.0e-13 at most,
# so they hold at amp_tol
FIXED_HINT_SWEEPS = {
    1.5: ["0x1.abceb30676db7p-2", "0x1.61b612d4392cdp-2", "0x1.23389d170b5b7p-2",
          "0x1.de34e92e7b73ep-3", "0x1.87e5ff4973df9p-3", "0x1.40c58b6cc63ccp-3",
          "0x1.0656a7d2cfe61p-3", "0x1.acdd7475b9f23p-4"],
    2.0: ["0x1.abceb30676db7p-2", "0x1.343e8a906ada1p-2", "0x1.b805a1457852dp-3",
          "0x1.389957fbbc4b8p-3", "0x1.bb1d3ef7c7dafp-4", "0x1.39b1d0f2c8bb3p-4",
          "0x1.bbe3c7e9042e9p-5", "0x1.39f80bd8215c6p-5"],
}

# The same sweeps pinned while a final pass that needed a closing shot ran
# at Brent's abscissa: four amplitudes moved, by 1.0e-13 at most, so they
# hold at amp_tol
SERIES_SWEEPS = {
    1.5: ["0x1.abceb30676ac6p-2", "0x1.61b612d4392cfp-2", "0x1.23389d170b5b5p-2",
          "0x1.de34e92e7b73ep-3", "0x1.87e5ff4973df9p-3", "0x1.40c58b6cc63ccp-3",
          "0x1.0656a7d2cfc93p-3", "0x1.acdd7475b9c33p-4"],
    2.0: ["0x1.abceb30676ac6p-2", "0x1.343e8a906ada1p-2", "0x1.b805a1457852dp-3",
          "0x1.389957fbbc4b8p-3", "0x1.bb1d3ef7c7dafp-4", "0x1.39b1d0f2c8bb3p-4",
          "0x1.bbe3c7e9042e9p-5", "0x1.39f80bd8215c6p-5"],
}

# The same sweeps pinned on DOP853 from the second-order start: the series
# start moved them by at most 3.2e-13 (ratio 1.5) and 7.6e-14 (ratio 2), so
# they hold at amp_tol
SECOND_ORDER_SWEEPS = {
    1.5: ["0x1.abceb30676ac4p-2", "0x1.61b612d4392dcp-2", "0x1.23389d170b550p-2",
          "0x1.de34e92e7bb5ap-3", "0x1.87e5ff49744cep-3", "0x1.40c58b6cc6352p-3",
          "0x1.0656a7d2cf6d1p-3", "0x1.acdd7475b9a5ap-4"],
    2.0: ["0x1.abceb30676ac4p-2", "0x1.343e8a906ad4fp-2", "0x1.b805a1457851fp-3",
          "0x1.389957fbbc4abp-3", "0x1.bb1d3ef7c7d81p-4", "0x1.39b1d0f2c8b9fp-4",
          "0x1.bbe3c7e904537p-5", "0x1.39f80bd821443p-5"],
}

# The older pins of these sweeps below were all taken on DP45 trajectories:
# against reference sweeps at atol 1e-15 / rtol 1e-13 (3.4e-13 from the
# sweeps above) they are off by up to 2.1e-11 at ratio 1.5 and 2.0e-10 at
# ratio 2, whose smallest amplitudes (0.04) the DP45 atol of 1e-12 limited;
# they hold at these tolerances
OLD_SWEEP_TOL = {1.5: 3e-11, 2.0: 3e-10}

# The same sweeps pinned with the DP45 integrator, the search ending at its
# resolution
DP45_SWEEPS = {
    1.5: ["0x1.abceb30662a13p-2", "0x1.61b612d426e8bp-2", "0x1.23389d16fb885p-2",
          "0x1.de34e92e6190ep-3", "0x1.87e5ff495dd27p-3", "0x1.40c58b6cb1f9cp-3",
          "0x1.0656a7d2bd668p-3", "0x1.acdd747594186p-4"],
    2.0: ["0x1.abceb30662a13p-2", "0x1.343e8a905a858p-2", "0x1.b805a1455fd92p-3",
          "0x1.389957fba8422p-3", "0x1.bb1d3ef7960d9p-4", "0x1.39b1d0f28ac5dp-4",
          "0x1.bbe3c7e821cdep-5", "0x1.39f80bd718bb8p-5"],
}

# The same sweeps pinned while the search closed a class bracket (on DP45
# trajectories they held within 1e-12 relative: the largest move was 5.0e-13)
BRENT_SWEEPS = {
    1.5: ["0x1.abceb3066316cp-2", "0x1.61b612d426877p-2", "0x1.23389d16fc288p-2",
          "0x1.de34e92e610d1p-3", "0x1.87e5ff495d66ep-3", "0x1.40c58b6cb1a21p-3",
          "0x1.0656a7d2bd1e7p-3", "0x1.acdd747593a39p-4"],
    2.0: ["0x1.abceb3066316cp-2", "0x1.343e8a905a30cp-2", "0x1.b805a1455f605p-3",
          "0x1.389957fba897ep-3", "0x1.bb1d3ef795946p-4", "0x1.39b1d0f28b1b3p-4",
          "0x1.bbe3c7e821542p-5", "0x1.39f80bd71865bp-5"],
}

# The same sweeps pinned while f's roots came from the port of scipy's
# brentq; the roots moved by 1-3 ulp, and on DP45 trajectories the
# amplitudes by at most 5.0e-13
SCIPY_ROOT_SWEEPS = {
    1.5: ["0x1.abceb306622c0p-2", "0x1.61b612d427499p-2", "0x1.23389d16fb882p-2",
          "0x1.de34e92e610ddp-3", "0x1.87e5ff495d66ap-3", "0x1.40c58b6cb1a1ep-3",
          "0x1.0656a7d2bd1ecp-3", "0x1.acdd747593a32p-4"],
    2.0: ["0x1.abceb306622c0p-2", "0x1.343e8a905ad9fp-2", "0x1.b805a14560524p-3",
          "0x1.389957fba8983p-3", "0x1.bb1d3ef796874p-4", "0x1.39b1d0f28b1c0p-4",
          "0x1.bbe3c7e82153dp-5", "0x1.39f80bd71865bp-5"],
}

# The same sweeps pinned while the solve replayed the plain bisection, before
# the bracket scans and hint checks ran at the loose step controls (on DP45
# trajectories they held within 1e-12 relative: the largest move was 6.4e-13)
BISECTION_SWEEPS = {
    1.5: ["0x1.abceb30662825p-2", "0x1.61b612d426cc7p-2", "0x1.23389d16fbe02p-2",
          "0x1.de34e92e61575p-3", "0x1.87e5ff495d912p-3", "0x1.40c58b6cb2012p-3",
          "0x1.0656a7d2bd2efp-3", "0x1.acdd747593ac7p-4"],
    2.0: ["0x1.abceb30662825p-2", "0x1.343e8a905ab86p-2", "0x1.b805a1455fbb8p-3",
          "0x1.389957fba7f47p-3", "0x1.bb1d3ef795c48p-4", "0x1.39b1d0f28a40dp-4",
          "0x1.bbe3c7e821db1p-5", "0x1.39f80bd718799p-5"],
}


@pytest.mark.parametrize("ratio, amplitudes", HINTED_SWEEPS)
def test_hinted_sweep_matches_golden_bitwise(ratio, amplitudes, monkeypatch):
    from gslab import functionals, sweep

    hinted = []   # integrations before the Brent search, per hinted solve
    real = functionals.find_ground_state

    def recorded(params, ctrl=ShootControls()):
        prof = real(params, ctrl)
        if ctrl.bracket_hint is not None:
            hinted.append(prof.integrations - prof.bisection_iterations - 1)
        return prof

    monkeypatch.setattr(functionals, "find_ground_state", recorded)
    rep = sweep(hinted_sweep_spec(ratio))
    assert [pt.amplitude.hex() for pt in rep.points] == amplitudes
    for old in (SCIPY_KVE_SWEEPS[ratio], FIXED_HINT_SWEEPS[ratio], SERIES_SWEEPS[ratio],
                SECOND_ORDER_SWEEPS[ratio]):
        assert all(_near(pt.amplitude, pin, ShootControls().amp_tol)
                   for pt, pin in zip(rep.points, old, strict=True))
    for old in (DP45_SWEEPS[ratio], BRENT_SWEEPS[ratio], BISECTION_SWEEPS[ratio],
                SCIPY_ROOT_SWEEPS[ratio]):
        assert all(_near(pt.amplitude, pin, OLD_SWEEP_TOL[ratio])
                   for pt, pin in zip(rep.points, old, strict=True))
    # an accepted hint costs its two checks and no window scan
    assert hinted == [2] * 7


def _assert_accounted(prof, calls, overturned, tight_bracket):
    """The misread tests' common checks on one solve and its log of shots.

    The second, all-tight attempt runs exactly when a loose end of the class
    bracket read another class tight; the counters sum over both attempts;
    the bracket keeps its contract (the tight_bracket fixture); the last
    final pass is at the amplitude and is the last call, or the last but one
    before the tight shot that closes the bracket of a resolution stop.
    """
    assert prof.fallbacks == int(overturned(calls))
    assert prof.integrations == len(calls)
    assert prof.loose_integrations == sum(kind == "loose" for _, kind, _, _ in calls)
    assert prof.rhs_evals == sum(n for _, _, n, _ in calls)
    tight_bracket(prof, {a: c for a, kind, _, c in calls if kind != "loose"})
    last = max(i for i, call in enumerate(calls) if call[1] == "final")
    assert calls[last][0] == prof.amplitude
    assert last == len(calls) - 1 or (last == len(calls) - 2 and calls[-1][1] == "tight"
                                      and calls[-1][0] in prof.bracket)


@pytest.mark.parametrize("params, amplitude, level_S, nehari, rhs_evals", GOLDEN)
@pytest.mark.parametrize("end", ["lower", "upper"])
def test_misread_scan_end_falls_back_to_golden_bitwise(params, amplitude, level_S, nehari,
                                                       rhs_evals, end, misread_loose_shot,
                                                       overturned, tight_bracket):
    # the loose shot that ends the lower (or upper) bracket scan reads the
    # wrong class, so the scan goes on past it.  If the search then starts
    # from it, it closes on it as an end of its bracket, where it is
    # integrated again tight and overturns; the all-tight second attempt
    # follows.  If a shot of the other class lies beyond it, the search
    # starts from the scan's own ends and never reads it again.  Either
    # way the amplitude lands within amp_tol of the golden solve.
    from gslab import Classification

    stop = Classification.UNDERSHOOT if end == "lower" else Classification.OVERSHOOT
    calls, misread = misread_loose_shot(lambda a, c: c == stop)
    prof = solve_ground_state(params).profile
    assert misread
    assert prof.fallbacks == ([misread[0], "tight"] in [call[:2] for call in calls])
    _assert_accounted(prof, calls, overturned, tight_bracket)
    assert _near(prof.amplitude, amplitude, ShootControls().amp_tol)


def test_misread_hint_check_falls_back_to_golden_bitwise(misread_loose_shot, overturned,
                                                         tight_bracket, monkeypatch):
    # the hinted sweep at ratio 1.5, with the loose lower hint check of its
    # first hinted solve misread as an overshoot
    from gslab import functionals, sweep

    ratio, amplitudes = HINTED_SWEEPS[0].values
    hint = [None]   # the bracket hint of the solve running
    calls, misread = misread_loose_shot(lambda a, c: hint[-1] is not None and a == hint[-1][0])
    solves = []   # (profile, its shots)
    real = functionals.find_ground_state

    def recorded(params, ctrl=ShootControls()):
        hint.append(ctrl.bracket_hint)
        first = len(calls)
        prof = real(params, ctrl)
        solves.append((prof, calls[first:]))
        return prof

    monkeypatch.setattr(functionals, "find_ground_state", recorded)
    rep = sweep(hinted_sweep_spec(ratio))
    assert all(_near(pt.amplitude, want, ShootControls().amp_tol)
               for pt, want in zip(rep.points, amplitudes, strict=True))
    # the reference solve and the first point run unhinted
    assert misread == [hint[3][0]]
    assert [prof.fallbacks for prof, _ in solves] == [0, 0, 1] + [0] * 6
    for prof, own in solves:
        _assert_accounted(prof, own, overturned, tight_bracket)


def test_non_monotone_solve_falls_back_to_plain_bisection_golden(misread_loose_shot,
                                                                 overturned, tight_bracket):
    # critical N=4 at eps ~ 3.7e-9, hinted as in the crit4 sweep: here the
    # DP45 tight class was not monotone at the 1e-12 scale, and its search
    # landed within amp_tol of the plain bisection's amplitude (pinned while
    # the solve replayed it).  That amplitude was 6.5e-7 off: the solve is
    # ill-conditioned here, and a reference solve at atol 1e-17 / rtol
    # 1e-15 moves by 2.1e-11 from the one at a tenth of those controls.  On
    # DOP853 trajectories the search lands within 2e-9 of the reference
    # (1.1e-9 measured), with its bracket contract kept
    from gslab import shooting

    calls, _ = misread_loose_shot(lambda a, c: False)
    params = ProblemParams(4, 4.0, 8.0, 3.662109375e-09, Family.P_EPS)
    ctrl = ShootControls(bracket_hint=(0.10300182478482967, 0.17853649629370474))
    prof = shooting.find_ground_state(params, ctrl)
    _assert_accounted(prof, calls, overturned, tight_bracket)
    reference = "0x1.f8c1be6db5975p-4"
    assert _near(prof.amplitude, reference, 2e-9)
    assert _near(float.fromhex("0x1.f8c1d41b8d90cp-4"), reference, 7e-7)


def test_misread_edge_above_a_converged_stop_falls_back_to_golden_bitwise(misread_loose_shot,
                                                                          overturned,
                                                                          tight_bracket,
                                                                          monkeypatch):
    # the loose upper scan end misreads as an undershoot, so the first
    # attempt closes on it and overturns it; in the all-tight second attempt
    # the first tight shot or final pass within amp_tol of a* reads
    # Converged and ends the search there, on that one shot
    from gslab import Classification, shooting

    params, amplitude, *_ = GOLDEN[0].values
    tol = ShootControls().amp_tol
    calls, misread = misread_loose_shot(lambda a, c: c == Classification.OVERSHOOT)
    misreading, stopped = shooting.classify, []

    def converged_once(t, params, amplitude_):
        c = misreading(t, params, amplitude_)
        if not stopped and calls[-1][1] != "loose" and _near(amplitude_, amplitude, tol):
            stopped.append(amplitude_)
            calls[-1][3] = c = Classification.CONVERGED
        return c

    monkeypatch.setattr(shooting, "classify", converged_once)
    prof = solve_ground_state(params).profile
    assert misread and stopped and prof.fallbacks == 1
    assert prof.bracket == (stopped[0], stopped[0]) and prof.amplitude == stopped[0]
    _assert_accounted(prof, calls, overturned, tight_bracket)
    assert _near(prof.amplitude, amplitude, tol)
