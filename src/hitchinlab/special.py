"""Special functions used across the library.

Modified Bessel functions K0, K1, K2 (the only orders the geometry needs),
Jacobi theta constants, the elliptic modular lambda function lambda(tau) =
theta2^4/theta3^4 and its inverse, and shortest-vector search on the lattice
Z + tau Z.

K_nu is evaluated by two independent routes:
  * x < 2   : the classical power series (accumulated in extended precision,
              the log/psi form for integer order),
  * x >= 2  : trapezoidal evaluation of the integral representation
              K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt.
The integrand is even and analytic in a strip, so the trapezoid rule
converges geometrically; with step 0.1 the relative error is far below
1e-13 throughout [2, 60].  All terms are positive, so there is no
cancellation; the plain asymptotic series cannot reach 1e-12 below
x ~ 14 and is not used.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606065121

__all__ = [
    "HalfPlanePoint",
    "bessel_k",
    "bessel_k_ratio",
    "jacobi_theta",
    "modular_lambda",
    "lambda_orbit",
    "inverse_lambda",
    "reduce_to_fundamental_domain",
    "lattice_shortest",
    "ConvergenceError",
]


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach its tolerance."""


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point tau in the upper half plane.

    ``lam_orbit`` is populated by :func:`inverse_lambda` with the six-element
    lambda-orbit of the inverted value, for documentation of the branch.
    """

    tau: complex
    lam_orbit: tuple | None = None

    def __post_init__(self):
        if not (self.tau.imag > 0):
            raise ValueError(f"tau must satisfy Im(tau) > 0, got {self.tau}")


# ----------------------------------------------------------------------
# modified Bessel functions
# ----------------------------------------------------------------------

def _harmonic(k: int) -> float:
    return sum(1.0 / j for j in range(1, k + 1))


def _bessel_k_series(nu: int, x: np.ndarray) -> np.ndarray:
    """Power series for K_nu, nu in {0,1,2}, intended for 0 < x < 2.

    DLMF 10.31 with integer order; extended-precision accumulation keeps the
    mild cancellation of the log terms below 1e-15 relative on (0, 2].
    """
    x = np.asarray(x, dtype=np.longdouble)
    t = x / 2.0
    t2 = t * t
    logt = np.log(t)
    out = np.zeros_like(x)

    # I_nu series values, needed by the log term.
    def i_series(n: int) -> np.ndarray:
        term = t**n / math.factorial(n)
        acc = term.copy()
        for k in range(1, 60):
            term = term * t2 / (k * (k + n))
            acc += term
            if np.all(np.abs(term) < 1e-24 * np.abs(acc)):
                break
        return acc

    if nu == 0:
        acc = np.zeros_like(x)
        term = np.ones_like(x)
        for k in range(1, 60):
            term = term * t2 / (k * k)
            acc += term * _harmonic(k)
            if np.all(term < 1e-24 * (1.0 + acc)):
                break
        out = -(logt + EULER_GAMMA) * i_series(0) + acc
    else:
        n = nu
        # finite sum: (1/2) t^{-n} sum_{k=0}^{n-1} (n-k-1)!/k! (-t^2)^k
        fin = np.zeros_like(x)
        for k in range(n):
            fin += math.factorial(n - k - 1) / math.factorial(k) * (-t2) ** k
        fin *= 0.5 * t ** (-n)
        # psi-series: (-1)^n (1/2) t^n sum_k (psi(k+1)+psi(n+k+1))/(k!(n+k)!) t^{2k}
        def psi(m: int) -> float:
            return -EULER_GAMMA + _harmonic(m - 1)

        term = np.ones_like(x) / math.factorial(n)
        acc = term * (psi(1) + psi(n + 1))
        for k in range(1, 60):
            term = term * t2 / (k * (k + n))
            acc += term * (psi(k + 1) + psi(n + k + 1))
            if np.all(np.abs(term) * 4.0 < 1e-24 * np.maximum(np.abs(acc), 1.0)):
                break
        out = fin + (-1.0) ** (n + 1) * logt * i_series(n) + (-1.0) ** n * 0.5 * t**n * acc
    return out


def _bessel_k_quadrature(nu: int, x: np.ndarray, scaled: bool) -> np.ndarray:
    """Trapezoid rule on K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt.

    Returns e^x K_nu(x) when ``scaled`` (no underflow for large x).
    """
    x = np.asarray(x, dtype=float)
    xmin = float(np.min(x))
    h = 0.1 if xmin < 60.0 else (0.05 if xmin < 200.0 else 0.025)
    # truncate when x (cosh T - 1) ~ 55 (relative tail below 1e-20)
    tmax = float(np.arccosh(1.0 + (55.0 + 4.0 * nu) / xmin)) + h
    n = int(np.ceil(tmax / h)) + 1
    t = h * np.arange(n)
    # scaled integrand: exp(-x (cosh t - 1)) cosh(nu t)
    c = np.cosh(t) - 1.0
    f = np.exp(-np.multiply.outer(x, c)) * np.cosh(nu * t)
    val = h * (0.5 * f[..., 0] + f[..., 1:].sum(axis=-1))
    if not scaled:
        val = val * np.exp(-x)
    return val


def bessel_k(nu: int, x, scaled: bool = False):
    """Modified Bessel function K_nu(x) for nu in {0, 1, 2} and x > 0.

    With ``scaled=True`` returns e^x K_nu(x).  Accepts scalars or arrays;
    relative accuracy is better than 1e-13 on [1e-3, 60] (and degrades
    gracefully outside).
    """
    if nu not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {nu!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("argument of K_nu must be positive and finite")
    out = np.empty_like(arr)
    small = arr < 2.0
    if np.any(small):
        v = _bessel_k_series(nu, arr[small])
        if scaled:
            v = v * np.exp(np.asarray(arr[small], dtype=np.longdouble))
        out[small] = v.astype(float)
    if np.any(~small):
        out[~small] = _bessel_k_quadrature(nu, arr[~small], scaled)
    if out.ndim == 0 or np.isscalar(x):
        return float(out)
    return out


def bessel_k_ratio(nu_num: int, nu_den: int, x: float) -> float:
    """K_{nu_num}(x) / K_{nu_den}(x), stable for large x."""
    return float(bessel_k(nu_num, x, scaled=True) / bessel_k(nu_den, x, scaled=True))


# ----------------------------------------------------------------------
# theta constants and the modular lambda function
# ----------------------------------------------------------------------

_THETA_MAX_TERMS = 600


def jacobi_theta(kind: int, tau) -> complex:
    """Jacobi theta constant theta_kind(0 | tau), kind in {2, 3, 4}.

    Nome series in q = exp(i pi tau), truncated when a term drops below
    1e-16 in magnitude.
    """
    tau = _as_tau(tau)
    q = cmath.exp(1j * cmath.pi * tau)
    if kind == 2:
        # 2 q^{1/4} sum_{n>=0} q^{n(n+1)}
        q4 = cmath.exp(0.25j * cmath.pi * tau)
        s = 0.0 + 0.0j
        for n in range(_THETA_MAX_TERMS):
            term = q ** (n * (n + 1))
            s += term
            if abs(term) < 1e-16:
                break
        else:
            raise ConvergenceError("theta2 series did not converge")
        return 2.0 * q4 * s
    if kind in (3, 4):
        sgn = 1.0 if kind == 3 else -1.0
        s = 1.0 + 0.0j
        for n in range(1, _THETA_MAX_TERMS):
            term = 2.0 * (sgn**n) * q ** (n * n)
            s += term
            if abs(term) < 1e-16:
                break
        else:
            raise ConvergenceError("theta series did not converge")
        return s
    raise ValueError(f"theta kind must be 2, 3 or 4, got {kind!r}")


def _as_tau(tau) -> complex:
    if isinstance(tau, HalfPlanePoint):
        tau = tau.tau
    tau = complex(tau)
    if not (tau.imag > 0):
        raise ValueError(f"tau must lie in the upper half plane, got {tau}")
    return tau


def modular_lambda(tau) -> complex:
    """Elliptic modular lambda function, lambda(tau) = theta2(tau)^4 / theta3(tau)^4."""
    tau = _as_tau(tau)
    t2 = jacobi_theta(2, tau)
    t3 = jacobi_theta(3, tau)
    return (t2 / t3) ** 4


def lambda_orbit(p0: complex) -> tuple:
    """The six-element orbit of p0 under the anharmonic group.

    lambda values of the same curve over the six choices of level-2 structure.
    """
    p0 = complex(p0)
    return (p0, 1 - p0, 1 / p0, 1 / (1 - p0), p0 / (p0 - 1), (p0 - 1) / p0)


def reduce_to_fundamental_domain(tau: complex, tol: float = 1e-12) -> complex:
    """Reduce tau to {|tau| >= 1, -1/2 < Re tau <= 1/2} under PSL(2, Z)."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    for _ in range(256):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1.0 - tol:
            tau = -1.0 / tau
        else:
            break
    else:
        raise ConvergenceError("fundamental-domain reduction did not terminate")
    if abs(tau.real + 0.5) < tol:
        tau += 1.0
    if abs(abs(tau) - 1.0) < tol and tau.real < -tol:
        tau = -1.0 / tau
    return tau


def _lambda_newton(target: complex, seed: complex, max_iter: int = 80) -> complex | None:
    tau = seed
    h = 1e-7
    for _ in range(max_iter):
        if not (0.05 < tau.imag < 1e4):
            return None
        f = modular_lambda(tau) - target
        if abs(f) < 1e-13:
            return tau
        df = (modular_lambda(tau + h) - modular_lambda(tau - h)) / (2 * h)
        if df == 0:
            return None
        step = f / df
        # keep steps sane; lambda varies fast near the real axis
        if abs(step) > 0.8:
            step *= 0.8 / abs(step)
        tau = tau - step
    return None


_INVERSE_SEEDS = tuple(
    complex(re, im)
    for im in (1.0, 0.8, 1.4, 2.2, 3.5)
    for re in (0.0, 0.49, -0.35, 0.25, -0.15)
)


def _polish_log_lambda(tau: complex, target: complex) -> complex:
    """Two Newton steps on log lambda(tau) = log target, d log lambda/dtau = i pi theta4^4.

    Run at a fundamental-domain tau, where the theta series converge fast
    and lambda is far from the cusps, this brings the relative defect of
    lambda to rounding level (the seeding Newton stops at an absolute
    1e-13, which is only 1e-10 relative for a target of size 1e-3).
    """
    for _ in range(2):
        tau -= cmath.log(modular_lambda(tau) / target) / (1j * cmath.pi * jacobi_theta(4, tau) ** 4)
    return tau


def inverse_lambda(p0: complex) -> HalfPlanePoint:
    """Invert the modular lambda function.

    Returns tau in the fundamental domain with lambda(tau) in the six-element
    lambda-orbit of p0 (the orbit is recorded on the result).  Newton
    iteration on lambda(tau) - s, seeded from a coarse grid, then modular
    reduction and a log-form Newton polish towards the nearest orbit value;
    orbit targets are tried in order of closeness to the literal input.
    """
    p0 = complex(p0)
    if min(abs(p0), abs(p0 - 1.0)) < 1e-12:
        raise ValueError("p0 must avoid the degenerate values 0 and 1")
    orbit = lambda_orbit(p0)
    targets = sorted(orbit, key=lambda s: abs(s - p0))
    for s in targets:
        for seed in _INVERSE_SEEDS:
            tau = _lambda_newton(s, seed)
            if tau is None:
                continue
            tau = reduce_to_fundamental_domain(tau)
            lam = modular_lambda(tau)
            nearest = min(orbit, key=lambda v: abs(lam - v))
            if abs(lam - nearest) < 1e-9:
                tau = reduce_to_fundamental_domain(_polish_log_lambda(tau, nearest))
                return HalfPlanePoint(tau, lam_orbit=orbit)
    raise ConvergenceError(f"inverse_lambda failed to converge for p0 = {p0}")


# ----------------------------------------------------------------------
# lattice search
# ----------------------------------------------------------------------

def lattice_shortest(tau) -> float:
    """min over (m, n) != (0, 0) of |m + n tau|, searched on |m|,|n| <= ceil(2 + 2/Im tau)."""
    tau = _as_tau(tau)
    bound = int(np.ceil(2.0 + 2.0 / tau.imag))
    best = np.inf
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            if m == 0 and n == 0:
                continue
            best = min(best, abs(m + n * tau))
    return best


def lattice_shortest_multiplicity(tau, rel_tol: float = 1e-9) -> int:
    """Number of shortest lattice vectors up to sign (1 means unique geodesic)."""
    tau = _as_tau(tau)
    bound = int(np.ceil(2.0 + 2.0 / tau.imag))
    best = lattice_shortest(tau)
    reps = []
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            if m == 0 and n == 0:
                continue
            if abs(abs(m + n * tau) - best) < rel_tol * best:
                if not any(mm == -m and nn == -n for (mm, nn) in reps):
                    reps.append((m, n))
    return len(reps)
