"""Independent oracles for the tests, the acceptance gate and the demos.

Each routine recomputes a quantity that a production module computes, by a
route that shares no solver with it:

  shooting_solution          adaptive Runge-Kutta shooting for the radial
                             sinh-Gordon family (``painleve`` relaxes Newton
                             steps on finite differences);
  solve_mode_bvp             one banded solve per torus mode (``lebrun``
                             solves one band per distinct |mu| with stacked
                             right-hand sides);
  solve_mode_inhomogeneous   variation of parameters by nested quadrature;
  matrix_residual            the self-duality residual from the assembled
                             2x2 matrices (``fiducial.hitchin_residual``
                             uses the scalar reduction of the ansatz).

No module of the package imports this one, so the command line never
loads it or ``scipy.integrate``.  The spectral-curve periods, the oracle
for ``c_sK``, live in ``toymodel``, where the benchmark's toymodel gate
imports them.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .fiducial import _ID2, FieldSample
from .grids import fd_first
from .lebrun import _mode_band, _phi_log_deriv, linear_mode_solution
from .special import ConvergenceError, bessel_k

__all__ = [
    "shooting_solution",
    "solve_mode_bvp",
    "solve_mode_inhomogeneous",
    "matrix_residual",
    "DivergenceError",
]


class DivergenceError(RuntimeError):
    """The variation-of-parameters outer integral grows; a = infinity invalid."""


# ----------------------------------------------------------------------
# radial sinh-Gordon: shooting
# ----------------------------------------------------------------------

def shooting_solution(sigma: float, rho_grid, *, rtol: float = 1e-11) -> np.ndarray:
    """Adaptive Runge-Kutta solution shot from rho_max inward.

    Starts on the K0 tail with unknown amplitude and bisects the amplitude to
    match the log-slope condition rho m' = sigma at rho_min.  Entirely
    independent of the finite-difference relaxation path.
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    if sigma == 0.0:
        return np.zeros_like(rho_grid)
    if sigma > 0.0:
        return -shooting_solution(-sigma, rho_grid, rtol=rtol)

    rho_min, rho_max = rho_grid[0], rho_grid[-1]
    k0 = bessel_k(0, rho_max)
    k1 = bessel_k(1, rho_max)

    def rhs(rho, y):
        return (y[1], -y[1] / rho + 0.5 * np.sinh(2.0 * y[0]))

    def defect(amp):
        sol = solve_ivp(
            rhs, (rho_max, rho_min), (amp * k0, -amp * k1),
            method="DOP853", rtol=rtol, atol=1e-300,
        )
        return rho_min * sol.y[1, -1] - sigma

    lo, hi = 1e-8, 0.5
    while defect(hi) > 0:
        hi *= 2.0
        if hi > 1e6:
            raise ConvergenceError("shooting bracket not found")
    amp = brentq(defect, lo, hi, xtol=1e-15, rtol=8.9e-16)
    sol = solve_ivp(
        rhs, (rho_max, rho_min), (amp * k0, -amp * k1),
        method="DOP853", rtol=rtol, atol=1e-300, t_eval=rho_grid[::-1],
    )
    return sol.y[0][::-1].copy()


# ----------------------------------------------------------------------
# reduced-equation torus modes: per-mode banded solve, variation of parameters
# ----------------------------------------------------------------------

def _banded_mode_solve(mu_abs: float, rho: np.ndarray, rhs_interior, bc_inner, robin_rhs=0.0):
    """Solve L_mu v = rhs with v(rho0) = bc_inner and (v' - g v)(rhoN) = robin_rhs.

    g is the K_1 log-derivative at rho_max, exact for the decaying solution.
    """
    ab = _mode_band(mu_abs, rho, _phi_log_deriv([mu_abs], rho[-1])[0])
    rhs = np.empty(len(rho), dtype=complex)
    rhs[0] = bc_inner
    rhs[1:-1] = rhs_interior
    rhs[-1] = robin_rhs
    return solve_banded((2, 2), ab, rhs)


def solve_mode_bvp(mu, f_samples, rho, bc_inner=0.0):
    """Direct banded finite-difference solve of L_mu v = f with decay conditions.

    Dirichlet value at rho_min, Robin matched to the K_1 log-derivative at
    rho_max (exact for the decaying homogeneous solution).
    """
    rho = np.asarray(rho, dtype=float)
    f = np.asarray(f_samples, dtype=complex)
    mu_abs = float(np.linalg.norm(mu)) if np.ndim(mu) else float(abs(mu))
    return _banded_mode_solve(mu_abs, rho, f[1:-1], bc_inner)


def solve_mode_inhomogeneous(mu, f_samples, rho, a=None):
    """Variation-of-parameters particular solution of L_mu v = f on the grid.

    v(rho) = -phi(rho) int_a^rho phi(s)^{-2} s^{-3} [int_s^inf phi f s ds] ds,
    evaluated by nested adaptive quadrature on cubic splines of the sampled
    integrands (the outer integral truncates at rho_max where f decays).
    With a = inf the outer integral starts at infinity; a divergence
    diagnostic rejects that choice when the outer integrand grows.
    """
    rho = np.asarray(rho, dtype=float)
    f = np.asarray(f_samples, dtype=float)
    mu_abs = float(np.linalg.norm(mu)) if np.ndim(mu) else float(abs(mu))
    if np.all(f == 0.0):
        return np.zeros_like(rho)
    phi = linear_mode_solution(mu_abs, rho)
    inner_spline = CubicSpline(rho, phi * f * rho)
    F = np.zeros_like(rho)
    for i in range(len(rho) - 2, -1, -1):
        seg, _ = quad(inner_spline, rho[i], rho[i + 1], limit=100)
        F[i] = F[i + 1] + seg
    outer = F / (phi**2 * rho**3)
    if a is not None and np.isinf(a):
        # interior probes: the truncated top end of F is not representative
        i_lo, i_hi = len(rho) // 4, (3 * len(rho)) // 4
        if abs(outer[i_hi]) > abs(outer[i_lo]):
            raise DivergenceError(
                "outer integrand grows toward rho_max; a = infinity is invalid here"
            )
        H = np.zeros_like(rho)
        outer_spline = CubicSpline(rho, outer)
        for i in range(len(rho) - 2, -1, -1):
            seg, _ = quad(outer_spline, rho[i], rho[i + 1], limit=100)
            H[i] = H[i + 1] + seg
        return phi * H
    if a is None:
        a = rho[0]
    if abs(a - rho[0]) > 1e-12 * rho[0]:
        raise ValueError("finite lower limits other than rho_min are not supported")
    G = np.zeros_like(rho)
    outer_spline = CubicSpline(rho, outer)
    for i in range(1, len(rho)):
        seg, _ = quad(outer_spline, rho[i - 1], rho[i], limit=100)
        G[i] = G[i - 1] + seg
    return -phi * G


# ----------------------------------------------------------------------
# local model fields: the matrix self-duality residual
# ----------------------------------------------------------------------

def matrix_residual(sample: FieldSample, t: float) -> float:
    """Cross-check residual from the assembled matrices (no analytic split).

    Same log-frame measure as ``fiducial.hitchin_residual``; loses accuracy
    once the profile is exponentially small (cancellation against the
    constant part of the connection), so it is a validation tool, not the
    production path.
    """
    r = sample.grid.r
    x = np.log(r)
    nr = len(r)
    dA = fd_first(x, sample.A_theta.reshape(nr, 4).T).T.reshape(nr, 2, 2)
    dA = dA - 0.5 * np.trace(dA, axis1=-2, axis2=-1)[:, None, None] * _ID2
    P = sample.Phi
    Pd = np.conj(np.swapaxes(P, -1, -2))
    comm = P @ Pd - Pd @ P
    resid = dA[:, None, :, :] - 2j * (t**2) * ((r**2)[:, None, None, None]) * comm
    vals = np.linalg.norm(resid, ord=2, axis=(-2, -1)).max(axis=1)
    return float(np.max(vals[1:-1]))
