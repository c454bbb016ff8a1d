"""Special functions used across the library.

Modified Bessel functions K0, K1, K2 (the only orders the geometry needs),
Jacobi theta constants, the elliptic modular lambda function lambda(tau) =
theta2^4/theta3^4 and its inverse, and the shortest vectors of a planar
lattice.

K_nu is scipy's ``kv``/``kve`` behind a wrapper that restricts the order
and rejects non-positive or non-finite arguments.  Shortest vectors come
from Lagrange-Gauss reduction, which is exact for 2-d lattices however
skewed the basis.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.special

__all__ = [
    "HalfPlanePoint",
    "bessel_k",
    "bessel_k_ratio",
    "jacobi_theta",
    "modular_lambda",
    "inverse_lambda",
    "reduce_to_fundamental_domain",
    "shortest_vectors",
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

def bessel_k(nu: int, x, scaled: bool = False):
    """Modified Bessel function K_nu(x) for nu in {0, 1, 2} and x > 0.

    With ``scaled=True`` returns e^x K_nu(x).  Accepts scalars or arrays
    and returns a float for a scalar.
    """
    if nu not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {nu!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("argument of K_nu must be positive and finite")
    out = (scipy.special.kve if scaled else scipy.special.kv)(nu, arr)
    return float(out) if out.ndim == 0 else out


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
    # lambda values of the same curve over the six choices of level-2 structure
    orbit = (p0, 1 - p0, 1 / p0, 1 / (1 - p0), p0 / (p0 - 1), (p0 - 1) / p0)
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
# shortest lattice vectors
# ----------------------------------------------------------------------

def shortest_vectors(w1, w2):
    """Shortest nonzero vectors of the planar lattice Z w1 + Z w2.

    ``w1`` and ``w2`` are independent plane vectors written as complex
    numbers.  Lagrange-Gauss reduction on integer coordinates yields a
    basis (u, v) with |u| <= |v| and |2 u.v| <= |u|^2; every other lattice
    vector is at least sqrt(3) |u| long, so the shortest vectors lie
    among +-u, +-v, +-(u + v), +-(u - v).  Returns the shortest length and
    the sorted coordinates (m, n) of the vectors m w1 + n w2 within a
    relative 1e-9 of it (1 entry: a unique shortest geodesic), keeping the
    lexicographically smaller of each +- pair; the length is that of the
    first entry.
    """
    w1, w2 = complex(w1), complex(w2)
    if not (w1.conjugate() * w2).imag:
        raise ValueError("lattice generators must be linearly independent")

    def vec(mn):
        return mn[0] * w1 + mn[1] * w2

    u, v = (1, 0), (0, 1)
    if abs(w1) > abs(w2):
        u, v = v, u
    while True:
        uu = vec(u)
        q = round((vec(v) * uu.conjugate()).real / abs(uu) ** 2)
        v = (v[0] - q * u[0], v[1] - q * u[1])
        if abs(vec(v)) >= abs(uu):
            break
        u, v = v, u
    candidates = (u, v, (u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1]))
    lengths = {min(mn, (-mn[0], -mn[1])): abs(vec(mn)) for mn in candidates}
    best = min(lengths.values())
    reps = sorted(mn for mn, s in lengths.items() if s - best < 1e-9 * best)
    return lengths[reps[0]], reps
