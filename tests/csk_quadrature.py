"""Test oracle: c_sK by adaptive 2-d quadrature of the base integral.

``csk_quadrature(p0)`` integrates int_{CP^1} (i/2) dz dz* / |z(z-1)(z-p0)|
directly over the sphere.  It shares no code with the production theta
closed form (``hitchinlab.toymodel.csk``) or with the period contour
integrals (``hitchinlab.toymodel.periods``), so the three routes check
each other.  It costs 0.2-3 s per call and fails within about 0.01 of a
puncture, which is why it lives here and not in the library.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

from hitchinlab.toymodel import _validate_p0


class QuadratureToleranceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


def _chi01(s):
    """Smooth transition, = 1 for s <= 1/2, = 0 for s >= 1 (bump quotient), vectorized."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s <= 0.5] = 1.0
    mid = (s > 0.5) & (s < 1.0)
    if np.any(mid):
        sm = s[mid]
        up = np.exp(-1.0 / (1.0 - sm))
        dn = np.exp(-1.0 / (sm - 0.5))
        out[mid] = up / (up + dn)
    return out


@lru_cache(maxsize=8)
def _gauss_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _tile_estimates(f, x0, x1, y0, y1):
    """Gauss product estimates of int f over the rectangle at orders 12 and 24."""
    vals = []
    for n in (12, 24):
        x, wx = _gauss_nodes(n)
        gx = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * x
        gy = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * x
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        W = np.multiply.outer(wx, wx) * (0.25 * (x1 - x0) * (y1 - y0))
        vals.append(float(np.sum(W * f(X, Y))))
    return vals[1], abs(vals[1] - vals[0])


def _adaptive_tiles(f, xbreaks, ybreaks, tol_abs: float, max_splits: int = 4000):
    """Adaptive tile quadrature of a smooth vectorized integrand f(X, Y).

    Starts from the feature-aligned rectangle grid given by the breakpoints
    and quadtree-refines the worst tiles until the summed Gauss 12-vs-24
    error estimate drops below ``tol_abs``.
    """
    xb = np.unique(np.asarray(xbreaks, dtype=float))
    yb = np.unique(np.asarray(ybreaks, dtype=float))
    heap = []
    total = 0.0
    err = 0.0
    counter = 0
    for i in range(len(xb) - 1):
        for j in range(len(yb) - 1):
            v, e = _tile_estimates(f, xb[i], xb[i + 1], yb[j], yb[j + 1])
            total += v
            err += e
            heapq.heappush(heap, (-e, counter, xb[i], xb[i + 1], yb[j], yb[j + 1], v))
            counter += 1
    splits = 0
    while err > tol_abs and heap and splits < max_splits:
        ne, _, x0, x1, y0, y1, v = heapq.heappop(heap)
        total -= v
        err += ne  # ne is negative
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        for (a0, a1, b0, b1) in ((x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)):
            v2, e2 = _tile_estimates(f, a0, a1, b0, b1)
            total += v2
            err += e2
            heapq.heappush(heap, (-e2, counter, a0, a1, b0, b1, v2))
            counter += 1
        splits += 1
    return total, err


def csk_quadrature(p0: complex, rel_tol: float = 1e-9) -> float:
    """The base integral int_{CP^1} (i/2) dz dz*/|z(z-1)(z-p0)|.

    The plane is split by a smooth partition of unity into polar patches of
    radius d/4 around 0, 1, p0 (d = min pairwise puncture distance; the
    polar Jacobian removes the 1/|z-a| singularity), a patch around infinity
    in the w = 1/z chart (integrand 1/(|w| |(1-w)(1-p0 w)|), again polar),
    and a smooth compactly supported remainder in Cartesian coordinates.
    Every piece is integrated by adaptive feature-aligned Gauss tiles;
    QuadratureToleranceError is raised when the summed error estimate
    exceeds 50 rel_tol times the total.
    """
    p0 = _validate_p0(p0)
    pts = [0.0 + 0.0j, 1.0 + 0.0j, p0]
    d = min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:])
    rad = d / 4.0
    r_out = 2.0 * max(1.0, abs(p0)) + 2.0
    w_rad = 1.0 / r_out
    # rough scale for converting the relative tolerance to per-piece absolutes
    scale = 30.0
    tol_piece = rel_tol * scale / 6.0

    total = 0.0
    err_total = 0.0
    for a in pts:
        others = [b for b in pts if b != a]

        def g(RHO, TH, a=a, o0=others[0], o1=others[1]):
            z = a + RHO * np.exp(1j * TH)
            return _chi01(RHO / rad) / np.abs((z - o0) * (z - o1))

        v, e = _adaptive_tiles(
            g, [0.0, rad / 2, rad], np.linspace(0.0, 2.0 * np.pi, 9), tol_piece
        )
        total += v
        err_total += e

    def g_inf(RHO, TH):
        w = RHO * np.exp(1j * TH)
        return _chi01(RHO / w_rad) / np.abs((1.0 - w) * (1.0 - p0 * w))

    v, e = _adaptive_tiles(
        g_inf, [0.0, w_rad / 2, w_rad], np.linspace(0.0, 2.0 * np.pi, 9), tol_piece
    )
    total += v
    err_total += e

    def remainder(X, Y):
        Z = X + 1j * Y
        AZ = np.abs(Z)
        cut = np.ones_like(X)
        for a in pts:
            cut -= _chi01(np.abs(Z - a) / rad)
        with np.errstate(divide="ignore"):
            cut -= _chi01(1.0 / (AZ * w_rad))
        cut = np.clip(cut, 0.0, 1.0)
        out = np.zeros_like(X)
        live = cut > 0.0
        if np.any(live):
            zl = Z[live]
            out[live] = cut[live] / np.abs(zl * (zl - 1.0) * (zl - p0))
        return out

    box = 2.0 * r_out  # the infinity patch transition lives in [r_out, 2 r_out]
    breaks = {-box, box, 0.0, -r_out, r_out}
    xbreaks = set(breaks)
    ybreaks = set(breaks)
    for a in pts:
        for s in (rad, rad / 2):
            xbreaks.update((a.real - s, a.real + s))
            ybreaks.update((a.imag - s, a.imag + s))
    xbreaks = [v for v in xbreaks if -box <= v <= box]
    ybreaks = [v for v in ybreaks if -box <= v <= box]
    v, e = _adaptive_tiles(remainder, sorted(xbreaks), sorted(ybreaks), tol_piece)
    total += v
    err_total += e

    if err_total > max(50.0 * rel_tol * total, 1e-12):
        raise QuadratureToleranceError(
            f"csk quadrature error estimate {err_total:.2e} exceeds tolerance", total
        )
    return total
