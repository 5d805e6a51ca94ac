"""ode._kve, gslab's scaled Bessel function K_nu(x) e^x, and the import
it saves.

The tail model and the shooting proxy need K_nu e^x at nu = N/2 - 1 and
N/2, the decaying mode of -Delta + eps.  ``_kve`` runs the upward
recurrence from closed forms (half-integer nu) or from two trapezoid sums
(integer nu), so gslab imports no scipy, and returns both orders,
(K_nu e^x, K_{nu+1} e^x), from one run.  Each entry has the bits of the
single-order route the pair replaced (written out below), at every order
of N = 3..12, as floats and arrays, on both trapezoid forms.
scipy.special.kve, which it replaced, is the oracle: within 4e-15 relative
at every order an N = 3..12 profile reads, as floats and as 2-D arrays (the
far field's shape).  The checks that need no scipy hold it against mpmath,
the closed form, the recurrence and the small- and large-x expansions of
the trapezoid sums.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gslab
from gslab import ode
from gslab.ode import _kve
from gslab.shooting import TailModel

ORDERS = sorted({N / 2.0 + d for N in range(3, 13) for d in (-1.0, 0.0)})
X = np.geomspace(1e-8, 1e4, 4000)


def K(nu, x):
    """K_nu(x) e^x: the first entry of _kve's pair."""
    return _kve(nu, x)[0]


def _kve_single(nu, x):
    """K_nu(x) e^x alone: the single-order route _kve's pair replaced, whose
    recurrence stops at the order asked for."""
    m = nu % 1.0
    if isinstance(x, float):
        x, sqrt, kve01 = float(x), math.sqrt, ode._kve01_float
    else:
        x, sqrt, kve01 = np.asarray(x, dtype=float), np.sqrt, ode._kve01_array
    if m:
        k0 = sqrt(0.5 * math.pi / x)
        k1 = k0 * (1.0 + 1.0 / x)
    else:
        k0, k1 = kve01(x)
    while m + 1.0 < nu:
        m += 1.0
        k0, k1 = k1, k0 + (2.0 * m / x) * k1
    return k0 if m == nu else k1


@pytest.mark.parametrize("N", range(3, 13))
def test_pair_has_the_single_order_bits(N):
    # both entries at nu = N/2 - 1, bit for bit: floats on the t-form (below
    # 8) and the s-form, arrays on the t-form alone (below 2), the s-form
    # alone, both (across 2) and 2-D
    nu = N / 2.0 - 1.0
    for x in (1e-8, 0.05, 1.9, 2.0, 7.99, 8.0, 37.5, 1e3):
        got = _kve(nu, x)
        want = (_kve_single(nu, x), _kve_single(nu + 1.0, x))
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in want]
    for x in (X, X[X < 2.0], X[X >= 2.0], X[(X >= 1.0) & (X < 16.0)], X.reshape(40, 100)):
        got = _kve(nu, x)
        assert np.array_equal(got[0], _kve_single(nu, x))
        assert np.array_equal(got[1], _kve_single(nu + 1.0, x))


@pytest.mark.parametrize("nu", ORDERS)
def test_matches_scipy_kve(nu):
    # the whole grid, 2-D, one decade at a time (arrays below x = 2, above
    # it and across it), [1, 16) (across both switches of the array path)
    # and as floats
    from scipy.special import kve

    want = kve(nu, X)
    assert np.max(np.abs(K(nu, X) / want - 1.0)) < 4e-15
    grid = X.reshape(40, 100)
    assert np.max(np.abs(K(nu, grid) / kve(nu, grid) - 1.0)) < 4e-15
    decade = np.floor(np.log10(X))
    for part in [decade == d for d in np.unique(decade)] + [(X >= 1.0) & (X < 16.0)]:
        assert np.max(np.abs(K(nu, X[part]) / want[part] - 1.0)) < 4e-15
    got = np.array([K(nu, float(x)) for x in X[::7]])
    assert np.max(np.abs(got / want[::7] - 1.0)) < 4e-15


def test_matches_mpmath_besselk():
    # the truth at 30 digits: within 1e-15 at every order of N = 3..6 (near
    # x = 2 scipy.special.kve itself is off by up to 3.5e-15 at order 0)
    import mpmath

    mpmath.mp.dps = 30
    x = np.geomspace(1e-8, 1e4, 97)
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        want = np.array([float(mpmath.besselk(nu, v) * mpmath.exp(v)) for v in x])
        assert np.max(np.abs(K(nu, x) / want - 1.0)) < 1e-15
        got = np.array([K(nu, float(v)) for v in x])
        assert np.max(np.abs(got / want - 1.0)) < 1.5e-15


def test_half_order_is_its_closed_form():
    for x in X[::50]:
        assert K(0.5, float(x)) == math.sqrt(math.pi / (2.0 * x))
    assert np.array_equal(K(0.5, X), np.sqrt(np.pi / (2.0 * X)))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_integer_orders_satisfy_the_recurrence(m):
    # K_{m+1} = K_{m-1} + (2m/x) K_m, e^x on every term
    for x in (X, X.reshape(80, 50)):
        lhs = K(m + 1.0, x)
        assert np.max(np.abs((K(m - 1.0, x) + 2.0 * m / x * K(m, x)) / lhs - 1.0)) < 1e-14


def test_trapezoid_sums_meet_their_expansions():
    # the two seeds of the integer orders against their limits, to O(x^4 ln x)
    # below x = 1e-4: K_0 = -(L + gamma)(1 + x^2/4) + x^2/4 and
    # x K_1 = 1 + (x^2/2)(L + gamma - 1/2), L = ln(x/2); and above x = 1e3
    # to six terms of K_nu e^x sqrt(2x/pi) = sum_j a_j(nu) / x^j
    small = X[X < 1e-4]
    c = np.log(0.5 * small) + np.euler_gamma
    x2 = small * small
    k0 = K(0.0, small) * np.exp(-small)
    assert np.max(np.abs(k0 / (x2 / 4.0 - c * (1.0 + x2 / 4.0)) - 1.0)) < 4e-15
    k1 = small * K(1.0, small) * np.exp(-small)
    assert np.max(np.abs(k1 / (1.0 + 0.5 * x2 * (c - 0.5)) - 1.0)) < 4e-15
    large = X[X > 1e3]
    for nu in (0.0, 1.0):
        term = series = np.ones_like(large)
        for j in range(1, 7):
            term = term * (4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j * large)
            series = series + term
        got = K(nu, large) * np.sqrt(2.0 * large / np.pi)
        assert np.max(np.abs(got / series - 1.0)) < 4e-15


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("x", [0.05, 1.9, 2.0, 37.5])
def test_float_in_float_out(nu, x):
    # shoot turns the proxy into a float because numpy scalars slow
    # ode.integrate ~3x; a numpy float in comes back a float too
    for got in (_kve(nu, x), _kve(nu, np.float64(x))):
        assert all(type(v) is float for v in got)
        assert got == _kve(nu, x)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_empty_node_set(N):
    # an empty array of x comes back empty at both orders an N profile
    # reads, integer (even N) and half-integer (odd N) alike, and so do the
    # tail model's value and slope on an empty node set
    for nu in (N / 2.0 - 1.0, N / 2.0):
        for out in _kve(nu, np.empty(0)):
            assert isinstance(out, np.ndarray) and out.shape == (0,)
    tail = TailModel("Exponential", 0.1, 1.0, 2.0, N, corr=0.01, corr_pm2=1.0)
    u, du = tail.evaluate(np.empty(0))
    assert u.shape == du.shape == (0,)


def test_import_loads_no_scipy():
    # gslab and its command line import no scipy module: not scipy.optimize
    # (the roots are Brent's steps of _bracket_root) and not scipy.special
    # (K_nu e^x is _kve)
    code = ("import sys, gslab, gslab.cli, gslab.asymptotics, gslab.records; "
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)")
    src = str(Path(gslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
