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

Collocating and evaluating are separate steps, so one collocation serves
every node set inside its interval.  ``ell_profiles``/``m_profiles`` use
this over a sweep in t: t values whose intervals share the inner end (every
t with rho_t(r_0) >= 0.02) are collocated once, out to the largest rho of
the run, which moves each profile by the outer row's e^(-2 rho_max)
defect (at most 2.7e-10 relative in the criterion-5 residuals).  A shared
interval ends at or below ``RHO_UNDERFLOW``, where every profile has
underflowed to 0.
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
    "ell_profiles",
    "m_profiles",
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


def _collocation(sigma: float, rho_lo: float, rho_hi: float):
    """The universal solution at log-slope ``sigma`` collocated on [log rho_lo, log rho_hi].

    Returns (a, b, n, coeffs): the interval in x, the interval count that
    ``grids.chebyshev_solve`` sized and the coefficients of q, q_x, S and
    S_x there; None at sigma = 0, where m = 0 solves the problem exactly.
    """
    if sigma == 0.0:
        return None
    a, b = math.log(rho_lo), math.log(rho_hi)
    coeffs, n = chebyshev_solve(lambda n: _collocate(sigma, a, b, n))
    return a, b, n, coeffs


def _solve(collocation, rho: np.ndarray):
    """m and m_x at the increasing nodes ``rho`` inside a :func:`_collocation`'s interval.

    Sums q, q_x, S and S_x at log rho by one Chebyshev-Vandermonde product:
    with K = e^(S - rho) and g = S_x - rho, m = K q and m_x = K (q_x + g q).
    """
    if collocation is None:
        return np.zeros(len(rho)), np.zeros(len(rho))
    a, b, n, coeffs = collocation
    q, q_x, S, S_x = coeffs.T @ chebyshev_vandermonde(a, b, n, np.log(rho))
    K = np.exp(S - rho)
    return K * q, K * (q_x + (S_x - rho) * q)


def _warn_on_sign_change(m: np.ndarray) -> None:
    """Warn when m changes sign: the decaying solution has one sign."""
    nz = m[np.abs(m) > 0]
    if nz.size and (np.sign(nz) != np.sign(nz[0])).any():
        warnings.warn("profile changes sign; solver output is suspect")


def _check_nodes(x, name: str) -> np.ndarray:
    """``x`` as a float array; ValueError unless it holds at least 2 finite, positive, strictly increasing nodes."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 2 or not np.all(np.isfinite(x)) or x[0] <= 0 or np.any(np.diff(x) <= 0):
        raise ValueError(f"{name} must hold at least 2 finite, positive, strictly increasing nodes")
    return x


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
    rho = _check_nodes(rho, "rho")
    m, m_x = _solve(_collocation(sigma, min(RHO_INNER_TARGET, rho[0]), rho[-1]), rho)
    _warn_on_sign_change(m)
    return m, m_x / rho


# a collocation shared by several t ends at or below this rho: from
# rho = 745 on e^(-rho), and with it every profile, is at most the smallest
# subnormal 2^-1074, so a shared interval never reaches past where its
# profiles are nonzero, and 128 Chebyshev intervals resolve it
RHO_UNDERFLOW = 745.0


def _fiducial_profiles(t_values, r_grid, sigma: float, c: float, alpha: float):
    """:func:`solve_mtw` at ``sigma`` in rho = c t r^alpha on ``r_grid``, for each t in turn: the profile and its r-derivative.

    Each t's interval is [min(``RHO_INNER_TARGET``, rho_t(r_0)), rho_t(r_max)]
    for the grid ends r_0 and r_max.  A run of consecutive t values with
    the same inner end is collocated once, out to the largest rho_t(r_max)
    of the run when the first of them is asked for, and evaluated at each
    t's nodes in turn; a t whose rho_t(r_max) passes
    ``RHO_UNDERFLOW`` keeps its own collocation.  A run of one t computes
    exactly what :func:`solve_mtw` on its rho would.
    """
    r_grid = _check_nodes(r_grid, "r_grid")
    if r_grid[-1] > 1.0 + 1e-12:
        raise ValueError("fiducial profiles are defined on (0, 1]")
    t_values = [float(t) for t in t_values]
    power = r_grid**alpha
    for t in t_values:
        if not (t >= 1.0 and math.isfinite(c * t * power[-1])):
            raise ValueError(f"profiles require a finite t >= 1 with a finite rho_t(r_max), got {t}")
    runs = []  # [inner end, outer end, t values]
    for t in t_values:
        lo, hi = min(RHO_INNER_TARGET, c * t * power[0]), c * t * power[-1]
        if runs and runs[-1][0] == lo and max(runs[-1][1], hi) <= RHO_UNDERFLOW:
            runs[-1][1] = max(runs[-1][1], hi)
            runs[-1][2].append(t)
        else:
            runs.append([lo, hi, [t]])
    for lo, hi, ts in runs:
        collocation = _collocation(sigma, lo, hi)
        for t in ts:
            rho = c * t * power
            m, m_x = _solve(collocation, rho)
            _warn_on_sign_change(m)
            yield m, alpha * rho * (m_x / rho) / r_grid


def ell_profiles(t_values, r_grid):
    """:func:`ell_profile` at each t of ``t_values`` in turn, sharing collocations as ``_fiducial_profiles`` does."""
    return _fiducial_profiles(t_values, r_grid, -1.0 / 3.0, 8.0 / 3.0, 1.5)


def m_profiles(t_values, weights: ParabolicWeights, r_grid):
    """:func:`m_profile` at each t of ``t_values`` in turn, sharing collocations as ``_fiducial_profiles`` does."""
    return _fiducial_profiles(t_values, r_grid, 1.0 + 2.0 * weights.difference, 8.0, 0.5)


def ell_profile(t: float, r_grid) -> tuple[np.ndarray, np.ndarray]:
    """Simple-zero profile (ell, d ell/dr): (d^2/dr^2 + r^-1 d/dr) ell = 8 t^2 r sinh(2 ell).

    Equals the universal solution at sigma = -1/3 in rho = (8/3) t r^{3/2};
    near zero ell ~ -(1/2) log r, at infinity ell ~ (1/pi) K0((8/3) t r^{3/2}).
    """
    return next(ell_profiles([t], r_grid))


def m_profile(t: float, weights: ParabolicWeights, r_grid) -> tuple[np.ndarray, np.ndarray]:
    """Simple-pole profile (m, dm/dr): (d^2/dr^2 + r^-1 d/dr) m = 8 t^2 r^-1 sinh(2 m).

    Universal solution at sigma = 1 + 2(alpha1 - alpha2) in rho = 8 t r^{1/2};
    near zero m ~ (1/2 + alpha1 - alpha2) log r.
    """
    return next(m_profiles([t], weights, r_grid))
