"""Radial sinh-Gordon (Painleve III) boundary-value solver.

The universal equation on the half line,

    m'' + m'/rho = (1/2) sinh(2 m),

has a one-parameter family of decaying solutions indexed by the log-slope
sigma in (-1, 1) at the origin: m ~ sigma log(rho) near 0 and m ~ A K_0(rho)
at infinity.  Both fiducial profiles are members of this family after the
power map rho = c t r^alpha:

  * simple-zero profile ell_t(r):   rho = (8/3) t r^{3/2},  sigma = -1/3,
  * simple-pole profile m_t(r):     rho = 8 t r^{1/2},      sigma = 1 + 2(a1 - a2).

Every solve is the same one, in the one frame x = log rho, where the radial
Laplacian collapses to d^2/dx^2:

    m_xx = (rho^2 / 2) sinh(2 m),

relaxed by Newton steps on second-order central differences over the
requested nodes (log-spaced for every caller here).  Newton starts from
-sigma K_0(rho), which has the log-slope sigma at 0 and the tail shape.
``special.damped_newton`` stops at ``NEWTON_TOL`` or at the residual's
rounding floor, scaled by the largest centre weight of the stencil.  Each
step's Jacobian is tridiagonal apart from the one-sided Robin rows and is
solved by ``grids.solve_three_point`` (one LAPACK ``dgtsv``).  The solve
also returns m_x on the same stencils, from which the profile's derivative
is read.

Residuals are reported in this scale-invariant form (the radial operator
multiplied by rho^2).  The unweighted pointwise residual carries an
irreducible eps/h^2 double-precision floor near the inner boundary
(~1e-5 on grids reaching rho ~ 1e-3), so only the log-frame residual can
meet tight tolerances honestly.

Boundary conditions are Robin on both sides: m_x = sigma at the inner
cutoff and m_x = (d log K_0(rho)/dx) m at the outer cutoff; both are
insensitive to the unknown amplitude constants.  ``ell_profile`` and
``m_profile`` solve on the requested r nodes mapped to rho, extended inward
at the same log spacing until rho <= ``RHO_INNER_TARGET``, where the
log-slope condition is valid; the returned profile is the restriction, so
the discrete residual measured on the returned nodes is the Newton residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import fd_first_boundary, fd_second, interior_weights, solve_three_point
from .special import bessel_k, bessel_k_ratio, damped_newton

__all__ = [
    "RadialProfile",
    "ParabolicWeights",
    "solve_mtw",
    "ell_profile",
    "m_profile",
    "ode_residual",
    "GridCoarseWarning",
]


class GridCoarseWarning(UserWarning):
    """Doubling the grid changed the solution more than the advertised bound."""


@dataclass
class RadialProfile:
    """A scalar radial function with its first derivative on an increasing grid.

    The sinh-Gordon solves return it and the field builders read it.
    ``sigma`` is the log-slope at the origin: values ~ sigma * log(r) as
    r -> 0 (for the profiles produced here; zero for identically-zero
    profiles).
    """

    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    sigma: float = 0.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if self.grid.ndim != 1 or np.any(np.diff(self.grid) <= 0) or self.grid[0] <= 0:
            raise ValueError("grid must be strictly increasing and positive")
        if self.values.shape != self.grid.shape or self.derivs.shape != self.grid.shape:
            raise ValueError("values/derivs must match the grid")


@dataclass(frozen=True)
class ParabolicWeights:
    """Parabolic weight pair (alpha1, alpha2) with alpha1 + alpha2 = 1."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if not (0.0 <= self.alpha1 < self.alpha2 < 1.0):
            raise ValueError("need 0 <= alpha1 < alpha2 < 1")
        if abs(self.alpha1 + self.alpha2 - 1.0) > 1e-12:
            raise ValueError("weights must satisfy alpha1 + alpha2 = 1")

    @property
    def difference(self) -> float:
        return self.alpha1 - self.alpha2


# ----------------------------------------------------------------------
# Newton relaxation core (log-radial variable)
# ----------------------------------------------------------------------

# the log-frame residual sup at which Newton stops, its step limit, and the
# rho down to which the fiducial profiles extend their grid inward
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 80
RHO_INNER_TARGET = 0.02


def _solve(sigma: float, rho: np.ndarray):
    """The universal solution at log-slope ``sigma`` on the increasing nodes ``rho``.

    Solves m_xx = (rho^2/2) sinh(2m) in x = log rho with the Robin rows
    m_x = sigma at rho[0] and m_x = -(rho K_1/K_0)(rho[-1]) m at rho[-1],
    from the seed -sigma K_0(rho).  Returns the solution m and its first
    derivative m_x, taken with the stencils of :func:`grids.fd_first` (bit
    for bit the same values).
    """
    n = len(rho)
    if sigma == 0.0:  # m = 0 solves the problem exactly
        return np.zeros(n), np.zeros(n)
    x = np.log(rho)
    gfun = 0.5 * rho[1:-1] ** 2
    robin_outer = -bessel_k_ratio(1, 0, rho[-1]) * rho[-1]
    (b_l, b_c, b_r), (a_l, a_c, a_r) = interior_weights(x)
    (i0, i1, i2), (w0, w1, w2) = fd_first_boundary(x, "left")
    (j0, j1, j2), (v0, v1, v2) = fd_first_boundary(x, "right")

    def residual(m):
        res = np.empty(n)
        res[0] = (w0 * m[i0] + w1 * m[i1] + w2 * m[i2]) - sigma
        res[1:-1] = a_l * m[:-2] + a_c * m[1:-1] + a_r * m[2:] - gfun * np.sinh(2.0 * m[1:-1])
        res[-1] = (v0 * m[j0] + v1 * m[j1] + v2 * m[j2]) - robin_outer * m[-1]
        return res, np.max(np.abs(res))

    def step(m, res):
        diag = a_c - 2.0 * gfun * np.cosh(2.0 * m[1:-1])
        return solve_three_point(a_l, diag, a_r, (w0, w1, w2), (v0 - robin_outer, v1, v2), -res)

    m = damped_newton(-sigma * bessel_k(0, rho), residual, step, NEWTON_TOL, NEWTON_MAX_ITER,
                      np.max(np.abs(a_c)))
    m_x = np.empty(n)
    m_x[1:-1] = b_l * m[:-2] + b_c * m[1:-1] + b_r * m[2:]
    m_x[0] = w0 * m[i0] + w1 * m[i1] + w2 * m[i2]
    m_x[-1] = v0 * m[j0] + v1 * m[j1] + v2 * m[j2]
    return m, m_x


# ----------------------------------------------------------------------
# public solvers
# ----------------------------------------------------------------------

def solve_mtw(
    sigma: float,
    rho_min: float,
    rho_max: float,
    n_points: int,
    *,
    check_grid: bool = True,
) -> RadialProfile:
    """Decaying solution of m'' + m'/rho = (1/2) sinh(2m) with log-slope sigma at 0.

    Newton relaxation of second-order central differences on a log-spaced
    grid (in the log-radial frame); Robin conditions rho m' = sigma (inner)
    and m'/m = K0'/K0 (outer).  Warns when a nonzero-sigma solution changes
    sign (the decaying solution has one sign), and emits
    :class:`GridCoarseWarning` when doubling ``n_points`` moves the solution
    by more than 1e-4.
    """
    if not (-1.0 < sigma < 1.0):
        raise ValueError("sigma must lie in (-1, 1)")
    if not (0.0 < rho_min < rho_max):
        raise ValueError("need 0 < rho_min < rho_max")
    if n_points < 64:
        raise ValueError("need at least 64 grid points")

    rho = np.geomspace(rho_min, rho_max, n_points)
    m, m_x = _solve(sigma, rho)
    nz = m[np.abs(m) > 0]
    if nz.size and (np.sign(nz) != np.sign(nz[0])).any():
        warnings.warn("profile changes sign; solver output is suspect")
    if check_grid and sigma != 0.0:
        from scipy.interpolate import CubicSpline

        rho2 = np.geomspace(rho_min, rho_max, 2 * n_points - 1)
        drift = np.max(np.abs(CubicSpline(rho2, _solve(sigma, rho2)[0])(rho) - m))
        if drift > 1e-4:
            warnings.warn(
                f"grid too coarse: doubling n_points moves sup|m| by {drift:.2e}",
                GridCoarseWarning,
            )
    return RadialProfile(rho, m, m_x / rho, sigma)


def _fiducial_profile(t: float, r_grid, sigma: float, c: float, alpha: float) -> RadialProfile:
    """The universal solution at ``sigma`` in rho = c t r^alpha, on ``r_grid``.

    The solve grid extends rho(r_grid) inward at the log ratio
    q = max(r_1/r_0, 1.0005)^alpha by the least number of nodes,
    ceil(log(rho_0/RHO_INNER_TARGET)/log q), that takes the first node to
    rho <= ``RHO_INNER_TARGET``.  The returned profile is the restriction to
    ``r_grid``, with sigma and dm/dr = alpha m_x / r in r.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(np.diff(r_grid) <= 0) or r_grid[0] <= 0:
        raise ValueError("r_grid must be strictly increasing and positive")
    if r_grid[-1] > 1.0 + 1e-12:
        raise ValueError("fiducial profiles are defined on (0, 1]")
    if not (math.isfinite(t) and t >= 1.0):
        raise ValueError(f"profiles require a finite t >= 1, got {t}")

    rho = c * t * r_grid**alpha
    q = max(r_grid[1] / r_grid[0], 1.0005) ** alpha
    n_ext = max(0, math.ceil(math.log(rho[0] / RHO_INNER_TARGET) / math.log(q)))
    m, m_x = _solve(sigma, np.concatenate([rho[0] * q ** -np.arange(n_ext, 0, -1.0), rho]))
    return RadialProfile(r_grid, m[n_ext:], alpha * m_x[n_ext:] / r_grid, alpha * sigma)


def ell_profile(t: float, r_grid) -> RadialProfile:
    """Simple-zero profile: (d^2/dr^2 + r^-1 d/dr) ell = 8 t^2 r sinh(2 ell).

    Equals the universal solution at sigma = -1/3 in rho = (8/3) t r^{3/2};
    near zero ell ~ -(1/2) log r, at infinity ell ~ (1/pi) K0((8/3) t r^{3/2}).
    """
    return _fiducial_profile(t, r_grid, -1.0 / 3.0, 8.0 / 3.0, 1.5)


def m_profile(t: float, weights: ParabolicWeights, r_grid) -> RadialProfile:
    """Simple-pole profile: (d^2/dr^2 + r^-1 d/dr) m = 8 t^2 r^-1 sinh(2 m).

    Universal solution at sigma = 1 + 2(alpha1 - alpha2) in rho = 8 t r^{1/2};
    near zero m ~ (1/2 + alpha1 - alpha2) log r.
    """
    return _fiducial_profile(t, r_grid, 1.0 + 2.0 * weights.difference, 8.0, 0.5)


def ode_residual(p: RadialProfile) -> float:
    """sup over interior nodes of the discrete sinh-Gordon residual.

    Central differences on the log-spaced grid, in the scale-invariant
    log-radial frame: |m_xx - (rho^2/2) sinh(2m)| with x = log rho (the
    radial operator m'' + m'/rho collapses to rho^-2 m_xx, so this is the
    pointwise residual multiplied by rho^2).
    """
    if len(p.grid) < 3:
        raise ValueError("need at least 3 grid points")
    x = np.log(p.grid)
    d2 = fd_second(x, p.values)
    res = d2 - 0.5 * p.grid**2 * np.sinh(2.0 * p.values)
    return float(np.max(np.abs(res[1:-1])))
