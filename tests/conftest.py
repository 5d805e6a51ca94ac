"""Shared solves and sweeps, computed once per session.

The sweep fixtures are the expensive part of the suite; acceptance and
regression tests both read from them.
"""

import time

import pytest

from gslab import Family, ProblemParams, ShootControls, SweepSpec, solve_ground_state, sweep

# wall-clock seconds per expensive fixture, for the acceptance runtime gates
TIMINGS: dict[str, float] = {}


def _timed(name, fn):
    t0 = time.perf_counter()
    out = fn()
    TIMINGS[name] = time.perf_counter() - t0
    return out

# Twelve parameter sets spanning all regimes (N in {3,4,5}); the identity
# suite and several regression tests run over these.
IDENTITY_SETS = [
    (3, 4.0, 6.0, 1e-2, Family.P_EPS),
    (3, 4.0, 6.0, 1e-4, Family.P_EPS),
    (3, 6.0, 10.0, 1e-3, Family.P_EPS),
    (3, 6.0, 10.0, 1e-5, Family.P_EPS),
    (3, 8.0, 12.0, 1e-3, Family.P_EPS),
    (3, 8.0, 12.0, 0.0, Family.P_ZERO),
    (4, 3.0, 6.0, 1e-3, Family.P_EPS),
    (4, 4.0, 8.0, 1e-4, Family.P_EPS),
    (4, 6.0, 9.0, 1e-3, Family.P_EPS),
    (5, 10.0 / 3.0, 6.0, 1e-3, Family.P_EPS),
    (5, 4.0, 7.0, 1e-2, Family.P_EPS),
    (3, 4.0, 6.0, 0.0, Family.R_ZERO),
]


@pytest.fixture(scope="session")
def identity_solutions():
    def run():
        out = {}
        for N, p, q, eps, fam in IDENTITY_SETS:
            params = ProblemParams(N, p, q, eps, fam)
            out[(N, p, q, eps, fam)] = solve_ground_state(params)
        return out

    return _timed("identity_solutions", run)


@pytest.fixture(scope="session")
def crit5_sweep():
    # the N >= 5 critical sweep over eps in [1e-5, 1e-2]
    return _timed("crit5_sweep", lambda: sweep(SweepSpec(
        regime="critical", N=5, q=6.0, grid_min=1e-5, grid_max=1e-2, ratio=2.0)))


@pytest.fixture(scope="session")
def crit3_sweep():
    return _timed("crit3_sweep", lambda: sweep(SweepSpec(
        regime="critical", N=3, q=10.0, grid_min=1.5e-9, grid_max=3e-6, ratio=2.0)))


@pytest.fixture(scope="session")
def crit4_sweep():
    return _timed("crit4_sweep", lambda: sweep(SweepSpec(
        regime="critical", N=4, q=8.0, grid_min=1e-9, grid_max=3e-5, ratio=2.0)))


@pytest.fixture(scope="session")
def super_sweep():
    return sweep(SweepSpec(regime="supercritical", N=3, p=8.0, q=12.0,
                           grid_min=5e-9, grid_max=2e-2, ratio=2.0))


@pytest.fixture(scope="session")
def sub_sweep():
    return sweep(SweepSpec(regime="subcritical", N=3, p=4.0, q=6.0,
                           grid_min=9e-5, grid_max=5e-2, ratio=2.0))


@pytest.fixture(scope="session")
def delta_sweep():
    return sweep(SweepSpec(regime="delta_supercritical", N=3, q=12.0,
                           grid_min=5e-3, grid_max=0.5, ratio=100.0 ** 0.1))


@pytest.fixture(scope="session")
def delta_sweep_small_q():
    # exploratory: q = 7 < N(N+2)/(2(N-2)) = 7.5, no exponent assertion
    return sweep(SweepSpec(regime="delta_supercritical", N=3, q=7.0,
                           grid_min=5e-3, grid_max=0.5, ratio=100.0 ** 0.1))


@pytest.fixture(scope="session")
def tight_ctrl():
    return ShootControls(amp_tol=1e-14)


def route_shots(monkeypatch, hook):
    """Send every shot of find_ground_state through hook(real, params, a,
    r_max, tol): the search shots, which run on shooting.Shot (Shot.end),
    and the final passes, which run through shooting.integrate.

    real(params, a, r_max, tol) runs the shot: a search shot on the solve's
    own Shot (on a fresh one at another tol), a final pass in integrate.
    """
    from gslab import shooting

    real_integrate, real_shot = shooting.integrate, shooting.Shot

    class Shot(real_shot):
        def end(self, a):
            def real(params, a, r_max, tol):
                if (params, r_max, tol) == (self.params, self.r_max, self.tol):
                    return real_shot.end(self, a)
                return real_shot(params, r_max, tol).end(a)

            return hook(real, self.params, a, self.r_max, self.tol)

    def integrate(params, a, r_max, tol):
        return hook(real_integrate, params, a, r_max, tol)

    monkeypatch.setattr(shooting, "Shot", Shot)
    monkeypatch.setattr(shooting, "integrate", integrate)


@pytest.fixture
def misread_loose_shot(monkeypatch):
    """Make one loose shot of the solver read the wrong class.

    ``arm(pick)`` wraps every shot (route_shots) and shooting.classify: the
    first shot at the loose step controls whose (amplitude, class) ``pick``
    accepts reads Overshoot for Undershoot and the reverse.  It returns the
    log of shots, [amplitude, "loose" | "tight" | "final", rhs_evals, class
    read] each (class None where the solver classifies nothing), and the
    list of amplitudes misread (at most one).
    """
    from gslab import Classification, shooting

    loose_step = shooting._loose_step(ShootControls().step)
    other = {Classification.UNDERSHOOT: Classification.OVERSHOOT,
             Classification.OVERSHOOT: Classification.UNDERSHOOT}
    real_classify = shooting.classify

    def arm(pick):
        calls, misread = [], []

        def recorded(real, p, a, r_max, tol):
            kind = ("loose" if tol == loose_step else "final" if tol.with_quadrature
                    else "tight")
            calls.append([a, kind, 0, None])
            t = real(p, a, r_max, tol)
            calls[-1][2] = t.rhs_evals
            return t

        def classify(t, params, amplitude):
            c = real_classify(t, params, amplitude)
            if (not misread and c in other and calls[-1][1] == "loose"
                    and pick(amplitude, c)):
                misread.append(amplitude)
                c = other[c]
            calls[-1][3] = c
            return c

        route_shots(monkeypatch, recorded)
        monkeypatch.setattr(shooting, "classify", classify)
        return calls, misread

    return arm


@pytest.fixture
def overturned():
    """Whether a solve's log (see misread_loose_shot) shows a loose Undershoot
    or Overshoot that read another class when it was shot again tight: the
    case in which find_ground_state runs its all-tight second attempt."""
    from gslab import Classification

    sides = (Classification.UNDERSHOOT, Classification.OVERSHOOT)

    def check(calls) -> bool:
        loose = {}
        for a, kind, _, c in calls:
            if kind == "loose" and c in sides:
                loose[a] = c
            elif kind == "tight" and a in loose and c != loose[a]:
                return True
        return False

    return check


@pytest.fixture
def tight_bracket():
    """Check a profile's bracket against the classes its tight shots read.

    ``check(prof, classes)`` takes {amplitude: class} of the solve's tight
    shots, the final pass included.  Both ends of ``prof.bracket`` are such
    shots, one of them the final pass at the amplitude, and they read the
    two classes (or the bracket is one Converged shot twice).  The measured
    error is at most amp_tol/2, and a bracket that the class stop closed
    (``amp_error`` 0.0) is at most amp_tol wide.
    """
    from gslab import Classification

    def check(prof, classes, amp_tol=ShootControls().amp_tol):
        lo, hi = prof.bracket
        assert prof.amplitude in (lo, hi)
        assert lo in classes and hi in classes
        if lo == hi:
            assert classes[lo] == Classification.CONVERGED
        else:
            assert {classes[lo], classes[hi]} == {Classification.UNDERSHOOT,
                                                   Classification.OVERSHOOT}
        assert 0.0 <= prof.amp_error <= 0.5 * amp_tol
        if prof.amp_error == 0.0:
            assert hi / lo - 1.0 <= amp_tol

    return check
