"""Radial sinh-Gordon (Painleve III) boundary-value solver.

The universal equation on the half line,

    m'' + m'/rho = (1/2) sinh(2 m),

has a one-parameter family of decaying solutions indexed by the log-slope
sigma in (-1, 1) at the origin: m ~ sigma log(rho) near 0 and m ~ A K_0(rho)
at infinity.  Both fiducial profiles are members of this family in disguise:

  * simple-zero profile ell_t(r):   s   = (8/3) t r^{3/2},  sigma = -1/3,
  * simple-pole profile m_t(r):     rho = 8 t r^{1/2},      sigma = 1 + 2(a1 - a2).

All solves relax Newton steps on second-order central differences over a
log-spaced grid, written in the log-radial variable x = log rho where the
radial Laplacian collapses to d^2/dx^2:

    m_xx = rho^2 W(rho) sinh(2 m),          W = 1/2 for the universal equation.

Each step's Jacobian is tridiagonal apart from the one-sided Robin rows and
is solved by ``grids.solve_three_point`` (one LAPACK ``dgtsv``).  The solve
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
``m_profile`` solve directly in r on the requested grid (extended inward
until the log-slope condition is valid), so the discrete residual measured
on the returned nodes is the Newton residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import fd_first_boundary, fd_second, interior_weights, solve_three_point
from .profiles import RadialProfile
from .special import ConvergenceError, bessel_k, bessel_k_ratio

__all__ = [
    "ParabolicWeights",
    "solve_mtw",
    "ell_profile",
    "m_profile",
    "ode_residual",
    "GridCoarseWarning",
]


class GridCoarseWarning(UserWarning):
    """Doubling the grid changed the solution more than the advertised bound."""


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


def _newton_log_solve(x, gfun, sigma_inner, robin_outer, m0):
    """Solve m_xx = gfun sinh(2m) with Robin rows m_x(x0)=sigma, m_x(xN)=robin*m(xN).

    Returns the solution m and its first derivative m_x, taken with the
    stencils of :func:`grids.fd_first` (bit for bit the same values).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    (b_l, b_c, b_r), (a_l, a_c, a_r) = interior_weights(x)
    (i0, i1, i2), (w0, w1, w2) = fd_first_boundary(x, "left")
    (j0, j1, j2), (v0, v1, v2) = fd_first_boundary(x, "right")

    def residual(m):
        res = np.empty(n)
        res[0] = (w0 * m[i0] + w1 * m[i1] + w2 * m[i2]) - sigma_inner
        res[1:-1] = a_l * m[:-2] + a_c * m[1:-1] + a_r * m[2:] - gfun * np.sinh(2.0 * m[1:-1])
        res[-1] = (v0 * m[j0] + v1 * m[j1] + v2 * m[j2]) - robin_outer * m[-1]
        return res

    def solution(m):
        m_x = np.empty(n)
        m_x[1:-1] = b_l * m[:-2] + b_c * m[1:-1] + b_r * m[2:]
        m_x[0] = w0 * m[i0] + w1 * m[i1] + w2 * m[i2]
        m_x[-1] = v0 * m[j0] + v1 * m[j1] + v2 * m[j2]
        return m, m_x

    m = np.asarray(m0, dtype=float).copy()
    res = residual(m)
    best = np.max(np.abs(res))
    eps = np.finfo(float).eps
    a_c_max = np.max(np.abs(a_c))
    for _ in range(NEWTON_MAX_ITER):
        # evaluation floor of the residual itself: second differences of
        # rounded nodal values plus the sinh term
        floor = 8.0 * eps * (a_c_max * np.max(np.abs(m)) + np.max(np.abs(res)))
        if best < max(NEWTON_TOL, floor):
            return solution(m)
        diag = a_c - 2.0 * gfun * np.cosh(2.0 * m[1:-1])
        step = solve_three_point(a_l, diag, a_r, (w0, w1, w2), (v0 - robin_outer, v1, v2), -res)
        lam = 1.0
        for _ in range(9):
            trial = m + lam * step
            trial_res = residual(trial)
            trial_norm = np.max(np.abs(trial_res))
            if trial_norm < best or not np.isfinite(best):
                m, res, best = trial, trial_res, trial_norm
                break
            lam *= 0.5
        else:
            # stalled at the rounding floor; accept if converged loosely
            if best < max(20.0 * floor, 1e-9):
                return solution(m)
            raise ConvergenceError("Newton damping failed to reduce the residual")
    if best < NEWTON_TOL:
        return solution(m)
    raise ConvergenceError(f"Newton did not converge: residual {best:.3e} > {NEWTON_TOL:.1e}")


def _initial_guess(sigma_rho: float, rho: np.ndarray) -> np.ndarray:
    # -sigma K0(rho) has the correct log slope at 0 and the correct tail shape.
    return -sigma_rho * bessel_k(0, rho)


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

    def solve_on(n):
        rho = np.geomspace(rho_min, rho_max, n)
        if sigma == 0.0:
            return rho, np.zeros(n), np.zeros(n)
        x = np.log(rho)
        m, m_x = _newton_log_solve(
            x,
            0.5 * rho[1:-1] ** 2,
            sigma,
            -bessel_k_ratio(1, 0, rho_max) * rho_max,
            _initial_guess(sigma, rho),
        )
        return rho, m, m_x

    rho, m, m_x = solve_on(n_points)
    nz = m[np.abs(m) > 0]
    if nz.size and (np.sign(nz) != np.sign(nz[0])).any():
        warnings.warn("profile changes sign; solver output is suspect")
    if check_grid and sigma != 0.0:
        from scipy.interpolate import CubicSpline

        rho2, m2, _ = solve_on(2 * n_points - 1)
        drift = np.max(np.abs(CubicSpline(rho2, m2)(rho) - m))
        if drift > 1e-4:
            warnings.warn(
                f"grid too coarse: doubling n_points moves sup|m| by {drift:.2e}",
                GridCoarseWarning,
            )
    return RadialProfile(rho, m, m_x / rho, sigma)


def _inward_extension(r0, ratio, rho_of_r, rho_x_factor, rho_target) -> np.ndarray:
    """r0/ratio, r0/ratio^2, ... down to the first node where rho <= rho_target.

    Each node is the previous one divided by ``ratio``, in sequence, as when
    stepping inward node by node while rho(r) > rho_target.  The node count
    comes from the power law rho(r) = rho(r0) (r/r0)^rho_x_factor; rounding
    can move the crossing by one node, so ``rho_of_r`` (increasing) settles
    it on the nodes next to the boundary.
    """
    steps = math.log(rho_of_r(r0) / rho_target) / (rho_x_factor * math.log(ratio))
    n = max(0, math.ceil(steps))
    # divide.accumulate divides in sequence: nodes[k] = (...(r0/ratio)...)/ratio
    nodes = np.divide.accumulate(np.concatenate([[r0], np.full(n + 1, ratio)]))
    while n > 0 and not rho_of_r(nodes[n - 1]) > rho_target:
        n -= 1
    while rho_of_r(nodes[n]) > rho_target:
        n += 1
    return nodes[1 : n + 1]


def _transformed_profile(
    t: float,
    r_grid: np.ndarray,
    sigma_r: float,
    rho_of_r,
    g_of_r,
    rho_x_factor: float,
) -> RadialProfile:
    """Solve the fiducial ODE in the log of r on ``r_grid``.

    ``g_of_r`` is r^2 W(r) for the equation m'' + m'/r = W(r) sinh(2m);
    ``rho_x_factor`` is d(log rho)/d(log r).  The solve grid is extended
    below r_grid (same log spacing) until rho(r) <= ``RHO_INNER_TARGET``,
    small enough for the log-slope boundary condition; the returned profile
    is the restriction to ``r_grid``.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(np.diff(r_grid) <= 0) or r_grid[0] <= 0:
        raise ValueError("r_grid must be strictly increasing and positive")
    if r_grid[-1] > 1.0 + 1e-12:
        raise ValueError("fiducial profiles are defined on (0, 1]")
    if not (math.isfinite(t) and t >= 1.0):
        raise ValueError(f"profiles require a finite t >= 1, got {t}")

    ratio = max(r_grid[1] / r_grid[0], 1.0005)
    ext = _inward_extension(r_grid[0], ratio, rho_of_r, rho_x_factor, RHO_INNER_TARGET)
    full = np.concatenate([ext[::-1], r_grid])
    n_ext = len(ext)

    if sigma_r == 0.0:
        m = m_x = np.zeros(len(full))
    else:
        x = np.log(full)
        rho = rho_of_r(full)
        m, m_x = _newton_log_solve(
            x,
            g_of_r(full[1:-1]),
            sigma_r,
            -bessel_k_ratio(1, 0, rho[-1]) * rho[-1] * rho_x_factor,
            _initial_guess(2.0 * sigma_r, rho),
        )
    dm = m_x / full
    return RadialProfile(r_grid, m[n_ext:], dm[n_ext:], sigma_r)


def ell_profile(t: float, r_grid) -> RadialProfile:
    """Simple-zero profile: (d^2/dr^2 + r^-1 d/dr) ell = 8 t^2 r sinh(2 ell).

    Equals the universal solution at sigma = -1/3 in s = (8/3) t r^{3/2};
    near zero ell ~ -(1/2) log r, at infinity ell ~ (1/pi) K0((8/3) t r^{3/2}).
    """
    return _transformed_profile(
        t,
        r_grid,
        -0.5,
        lambda r: (8.0 / 3.0) * t * np.asarray(r) ** 1.5,
        lambda r: 8.0 * t**2 * r**3,
        1.5,
    )


def m_profile(t: float, weights: ParabolicWeights, r_grid) -> RadialProfile:
    """Simple-pole profile: (d^2/dr^2 + r^-1 d/dr) m = 8 t^2 r^-1 sinh(2 m).

    Universal solution at sigma = 1 + 2(alpha1 - alpha2) in rho = 8 t r^{1/2};
    near zero m ~ (1/2 + alpha1 - alpha2) log r.
    """
    sigma_r = 0.5 + weights.difference
    return _transformed_profile(
        t,
        r_grid,
        sigma_r,
        lambda r: 8.0 * t * np.sqrt(np.asarray(r)),
        lambda r: 8.0 * t**2 * r,
        0.5,
    )


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
