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

    m_xx = (rho^2 / 2) sinh(2 m).

The known tail is factored out of the unknown (Boyd, *Chebyshev and Fourier
Spectral Methods*, 2nd ed., Dover 2001).  With K = K_0(rho), g = K_x/K =
-rho K_1/K_0 and K_xx = rho^2 K, the quotient q = m/K solves

    q_xx + 2 g q_x = rho^2 q (sinh(2Kq)/(2Kq) - 1),

whose right side has the Jacobian 2 rho^2 sinh^2(Kq).  q is O(1)
everywhere, so an absolute error in q is a relative error in m, also in
the exponentially small tail that the glued metric's exp(-mu t) law is read
from.  K and g come from the scaled Bessel functions, so nothing
underflows, and sinh(y)/y - 1 is taken by its series below |y| = 1e-2.

Boundary rows: q_x + g q = sigma/K (m_x = sigma) at the inner end and
q_x = 0 (m_x = g m, the K_0 tail's log-derivative) at rho_max; both are
insensitive to the unknown amplitude.  The interval is
[min(``RHO_INNER_TARGET``, rho_0), rho_max] for nodes rho_0 < ... < rho_max,
so the log-slope row sits at rho <= 0.02.

q is collocated on the Chebyshev-Gauss-Lobatto nodes of that interval in x
(Trefethen, *Spectral Methods in MATLAB*, SIAM 2000), with ``grids``'s
nodes, differentiation matrix and doubling rule, which ``lebrun`` shares:
64 intervals, doubled while the trailing Chebyshev coefficients of q exceed
1e-12 of the largest.  ``special.damped_newton`` relaxes it from q = -sigma
(m = -sigma K_0 has the log-slope sigma at 0 and the tail shape), one dense
solve per step, and stops at ``NEWTON_TOL`` or at the rounding floor of the
collocation matrix.

The profile and its derivative are returned as two arrays at the
requested nodes only, with no Bessel function evaluated there: q, q_x,
S = log(e^rho K_0) and S_x = g + rho are interpolated on the collocation
nodes and summed from their Chebyshev coefficients by one
Chebyshev-Vandermonde product, and K = e^(S - rho), g = S_x - rho,
m = K q, m_x = K (q_x + g q).  S is smoother in x than q:
on every interval tried, from [1e-120, 2.7] to [0.02, 1e6], the node count
that resolves q leaves S's trailing coefficients below 1e-14 of its
largest, and K within 1e-13 relative of K_0 (a Bessel evaluation at 4096
nodes would cost about as much as the whole collocation).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import chebyshev, chebyshev_solve, chebyshev_vandermonde
from .special import bessel_k, damped_newton

__all__ = [
    "ParabolicWeights",
    "solve_mtw",
    "ell_profile",
    "m_profile",
]


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
# Chebyshev collocation of q = m / K_0 in x = log rho
# ----------------------------------------------------------------------

# the residual sup at which Newton stops, its step limit, and the rho at or
# below which every solve imposes the log-slope
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 80
RHO_INNER_TARGET = 0.02


def _sinhc_minus_one(y: np.ndarray) -> np.ndarray:
    """sinh(y)/y - 1, by its series below |y| = 1e-2."""
    out = np.empty_like(y)
    small = np.abs(y) < 1e-2
    y2 = y[small] ** 2
    out[small] = y2 / 6.0 * (1.0 + y2 / 20.0 * (1.0 + y2 / 42.0))
    out[~small] = np.sinh(y[~small]) / y[~small] - 1.0
    return out


def _collocate(sigma: float, a: float, b: float, n: int):
    """Chebyshev coefficients of q, q_x, S = log(e^rho K_0) and S_x on n intervals of [a, b] in x = log rho.

    Solves q_xx + 2 g q_x = rho^2 q (sinh(2Kq)/(2Kq) - 1) with the rows
    q_x + g q = sigma/K at a and q_x = 0 at b, by ``special.damped_newton``
    from q = -sigma, one dense solve per step; K, g and S come from the
    scaled Bessel functions on the nodes.  Returns the (n + 1, 4)
    coefficients and, for the tail rule, those of q.
    """
    x, D, to_coeffs = chebyshev(a, b, n)
    rho = np.exp(x)
    k0 = bessel_k(0, rho, scaled=True)
    K, g = k0 * np.exp(-rho), -rho * bessel_k(1, rho, scaled=True) / k0
    A = D @ D + 2.0 * g[:, None] * D
    A[0], A[-1] = D[0], D[-1]
    A[0, 0] += g[0]
    weight = rho**2
    weight[[0, -1]] = 0.0  # the boundary rows carry no nonlinear term
    rhs = np.zeros(n + 1)
    rhs[0] = sigma / K[0]

    def residual(q):
        res = A @ q - weight * q * _sinhc_minus_one(2.0 * K * q) - rhs
        return res, np.max(np.abs(res))

    def step(q, res):
        return np.linalg.solve(A - np.diag(2.0 * weight * np.sinh(K * q) ** 2), -res)

    q = damped_newton(np.full(n + 1, -sigma), residual, step, NEWTON_TOL, NEWTON_MAX_ITER, np.max(np.abs(A)))
    coeffs = to_coeffs @ np.column_stack([q, D @ q, np.log(k0), g + rho])
    return coeffs, coeffs[:, 0]


def _solve(sigma: float, rho: np.ndarray):
    """The universal solution at log-slope ``sigma`` and its m_x at the increasing nodes ``rho``.

    Collocates q on [log min(RHO_INNER_TARGET, rho[0]), log rho[-1]], sized
    by ``grids.chebyshev_solve``, and sums q, q_x, S and S_x at log rho by
    one Chebyshev-Vandermonde product: with K = e^(S - rho) and
    g = S_x - rho, m = K q and m_x = K (q_x + g q).
    """
    if sigma == 0.0:  # m = 0 solves the problem exactly
        return np.zeros(len(rho)), np.zeros(len(rho))
    a, b = math.log(min(RHO_INNER_TARGET, rho[0])), math.log(rho[-1])
    coeffs, n = chebyshev_solve(lambda n: _collocate(sigma, a, b, n))
    q, q_x, S, S_x = coeffs.T @ chebyshev_vandermonde(a, b, n, np.log(rho))
    K = np.exp(S - rho)
    return K * q, K * (q_x + (S_x - rho) * q)


# ----------------------------------------------------------------------
# public solvers
# ----------------------------------------------------------------------

def solve_mtw(sigma: float, rho) -> tuple[np.ndarray, np.ndarray]:
    """(m, dm/drho) on the nodes ``rho``: the decaying m'' + m'/rho = (1/2) sinh(2m) with log-slope sigma at 0.

    ``rho`` holds at least two finite, positive, strictly increasing nodes;
    the log-slope is imposed at min(``RHO_INNER_TARGET``, rho[0]) and the
    K_0 tail's log-derivative at rho[-1].  Warns when a nonzero-sigma
    solution changes sign (the decaying solution has one sign).
    """
    if not (-1.0 < sigma < 1.0):
        raise ValueError("sigma must lie in (-1, 1)")
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or len(rho) < 2 or not np.all(np.isfinite(rho)) or rho[0] <= 0 or np.any(np.diff(rho) <= 0):
        raise ValueError("rho must hold at least 2 finite, positive, strictly increasing nodes")
    m, m_x = _solve(sigma, rho)
    nz = m[np.abs(m) > 0]
    if nz.size and (np.sign(nz) != np.sign(nz[0])).any():
        warnings.warn("profile changes sign; solver output is suspect")
    return m, m_x / rho


def _fiducial_profile(t: float, r_grid, sigma: float, c: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`solve_mtw` at ``sigma`` in rho = c t r^alpha, on ``r_grid``: the profile and its r-derivative."""
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(np.diff(r_grid) <= 0) or r_grid[0] <= 0:
        raise ValueError("r_grid must be strictly increasing and positive")
    if r_grid[-1] > 1.0 + 1e-12:
        raise ValueError("fiducial profiles are defined on (0, 1]")
    if not (math.isfinite(t) and t >= 1.0):
        raise ValueError(f"profiles require a finite t >= 1, got {t}")

    rho = c * t * r_grid**alpha
    m, dm = solve_mtw(sigma, rho)
    return m, alpha * rho * dm / r_grid


def ell_profile(t: float, r_grid) -> tuple[np.ndarray, np.ndarray]:
    """Simple-zero profile (ell, d ell/dr): (d^2/dr^2 + r^-1 d/dr) ell = 8 t^2 r sinh(2 ell).

    Equals the universal solution at sigma = -1/3 in rho = (8/3) t r^{3/2};
    near zero ell ~ -(1/2) log r, at infinity ell ~ (1/pi) K0((8/3) t r^{3/2}).
    """
    return _fiducial_profile(t, r_grid, -1.0 / 3.0, 8.0 / 3.0, 1.5)


def m_profile(t: float, weights: ParabolicWeights, r_grid) -> tuple[np.ndarray, np.ndarray]:
    """Simple-pole profile (m, dm/dr): (d^2/dr^2 + r^-1 d/dr) m = 8 t^2 r^-1 sinh(2 m).

    Universal solution at sigma = 1 + 2(alpha1 - alpha2) in rho = 8 t r^{1/2};
    near zero m ~ (1/2 + alpha1 - alpha2) log r.
    """
    return _fiducial_profile(t, r_grid, 1.0 + 2.0 * weights.difference, 8.0, 0.5)
