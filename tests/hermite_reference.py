"""The cubic-Hermite panel route of ``RadialProfile.quad``: the reference the
node-row quadrature is checked against, as ``dop853_reference.py`` is for
the kernel.

A solved profile's integrals over its grid once read a cubic Hermite of the
stored (r, u, u') grid on 6 Gauss nodes of every grid interval, and the
series piece on the ``_BALL_NODES`` in-ball nodes of [0, r0], r0 the first
grid radius.  ``quad`` here is that route, float for float: it shares no
node, value or weight with the node rows of the final pass, so the two
agree only as far as the Hermite's own interpolation error lets them.
``hermite_route`` patches it in as ``RadialProfile.quad``, so that
``radial_norm``, ``dirichlet_norm`` and ``profile_distances`` read the grid
as they did when the older golden pins were taken.
"""

from __future__ import annotations

import numpy as np

from gslab import shooting
from gslab.emden import _leggauss
from gslab.ode import series_piece
from gslab.shooting import _hermite

from dop853_reference import _ball_nodes


def quad(profile, integrand):
    """int integrand(r, u, u') r^(N-1) dr over [0, R] on 6 Gauss nodes of
    every grid interval, u and u' from the cubic Hermite of its ends, and on
    the series piece's in-ball nodes; a stack of k integrands gives a list
    of k sums."""
    N = profile.params.N
    rg, ug, vg = profile.grid.radii, profile.grid.values, profile.grid.slopes
    x, w = _leggauss(6)
    t = 0.5 * (x[None, :] + 1.0)
    h = np.diff(rg)[:, None]
    rr = rg[:-1, None] + h * t
    ends = ug[:-1, None], ug[1:, None], vg[:-1, None], vg[1:, None]
    uu = _hermite(t, h, *ends, deriv=False)
    dd = _hermite(t, h, *ends, deriv=True)
    bulk = integrand(rr, uu, dd) * rr ** (N - 1) * (0.5 * w)[None, :] * h
    r0, w0 = _ball_nodes(N, float(rg[0]))
    series = w0 * integrand(r0, *series_piece(profile.grid.series, r0))
    if bulk.ndim == 2:
        return float(np.sum(bulk)) + float(np.sum(series))
    return [float(np.sum(b)) + float(np.sum(s)) for b, s in zip(bulk, series)]


def hermite_route(monkeypatch) -> None:
    """Read every solved profile's grid integrals by ``quad`` (this module's)."""
    monkeypatch.setattr(shooting.RadialProfile, "quad", quad)
