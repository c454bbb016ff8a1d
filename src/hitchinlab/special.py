"""Special functions used across the library, and its one damped-Newton loop.

Modified Bessel functions K0, K1, K2 (the only orders the geometry needs),
Gauss's arithmetic-geometric mean and the closed-form inverse of the
elliptic modular lambda function, and the Jacobi theta constants with
lambda(tau) = theta2^4/theta3^4 itself.
The inverse is tau = i M(1, k')/M(1, k) with k^2 = lambda, k'^2 = 1 - lambda
and M the arithmetic-geometric mean, reduced to the fundamental domain; it
reads no theta series.  The theta constants and ``modular_lambda`` are the
reference that the tests and the acceptance gate check the inverse against,
and no production path calls them.

K_nu is scipy's behind a wrapper that restricts the order and rejects
non-positive or non-finite arguments.  Orders 0 and 1 call the Cephes
Chebyshev expansions ``k0``/``k1``/``k0e``/``k1e`` (DLMF 10.25, 10.40),
about four times faster on arrays than the general-order AMOS ``kv``/``kve``
and within 1e-13 of them.  Order 2 calls ``kve``; unscaled it is
``kve(2, x) e^-x``, because ``kv`` flushes to zero above x ~ 697.9, where
K_2 is still a normal double.  ``reduce_to_fundamental_domain`` is the
Gauss reduction of the lattice Z + tau Z: on its output the shortest
vectors are known in closed form (``toymodel.TorusLattice``), so no
lattice search runs in the package.  ``damped_newton`` is the iteration
both boundary-value solvers run: the sinh-Gordon profiles of ``painleve``
and the LeBrun reduction of ``lebrun``.
"""

from __future__ import annotations

import cmath

import numpy as np
import scipy.special

__all__ = [
    "bessel_k",
    "jacobi_theta",
    "modular_lambda",
    "inverse_lambda",
    "reduce_to_fundamental_domain",
    "ConvergenceError",
    "damped_newton",
]


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach its tolerance."""


def damped_newton(x, residual, step, tol: float, max_iter: int, scale: float = 0.0):
    """Drive ``residual(x)`` to zero by Newton steps with a halving line search.

    ``residual(x)`` returns ``(res, sup)``: what ``step(x, res)`` reads to
    return the correction, and the sup norm.  Stops when sup < max(tol,
    8 eps (scale max|x| + sup)), the rounding floor of a residual whose
    linear part has entries up to ``scale``.  A step is halved up to 9 times
    until a trial lowers sup (the first is taken while sup is not finite);
    a stalled search, or ``max_iter`` steps, raises ConvergenceError.
    """
    res, sup = residual(x)
    eps = np.finfo(float).eps
    for _ in range(max_iter):
        if sup < max(tol, 8.0 * eps * (scale * np.max(np.abs(x)) + sup)):
            return x
        dx = step(x, res)
        lam = 1.0
        for _ in range(9):
            trial = x + lam * dx
            trial_res, trial_sup = residual(trial)
            if trial_sup < sup or not np.isfinite(sup):
                x, res, sup = trial, trial_res, trial_sup
                break
            lam *= 0.5
        else:
            raise ConvergenceError(f"damped Newton stalled at residual {sup:.3e}")
    raise ConvergenceError(f"damped Newton did not reach tol={tol:.1e} in {max_iter} steps")


# ----------------------------------------------------------------------
# modified Bessel functions
# ----------------------------------------------------------------------

_BESSEL_K = {
    (0, False): scipy.special.k0,
    (0, True): scipy.special.k0e,
    (1, False): scipy.special.k1,
    (1, True): scipy.special.k1e,
    (2, False): lambda x: scipy.special.kve(2, x) * np.exp(-x),
    (2, True): lambda x: scipy.special.kve(2, x),
}


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
    out = _BESSEL_K[nu, bool(scaled)](arr)
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# theta constants and the modular lambda function
# ----------------------------------------------------------------------

_THETA_MAX_TERMS = 600
# the distance within which reduce_to_fundamental_domain treats tau as on the domain's boundary
_REDUCE_TOL = 1e-12


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


def reduce_to_fundamental_domain(tau: complex) -> complex:
    """Reduce tau to {|tau| >= 1, -1/2 < Re tau <= 1/2} under PSL(2, Z)."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    for _ in range(256):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1.0 - _REDUCE_TOL:
            tau = -1.0 / tau
        else:
            break
    else:
        raise ConvergenceError("fundamental-domain reduction did not terminate")
    if abs(tau.real + 0.5) < _REDUCE_TOL:
        tau += 1.0
    if abs(abs(tau) - 1.0) < _REDUCE_TOL and tau.real < -_REDUCE_TOL:
        tau = -1.0 / tau
    return tau


_AGM_MAX_ITER = 64


def _agm(a: complex, b: complex) -> complex:
    """Gauss's arithmetic-geometric mean M(a, b) on its optimal branch.

    Each geometric mean takes the square-root sign with |a - b| <= |a + b|.
    The iteration converges quadratically once a and b agree to a few
    digits; it stops when they agree to a relative 1e-10, where the next
    arithmetic mean is already exact to rounding.
    """
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= 1e-10 * abs(a):
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
    raise ConvergenceError(f"arithmetic-geometric mean did not converge in {_AGM_MAX_ITER} steps")


def _period_agms(p0: complex) -> tuple[complex, complex]:
    """a = M(1, sqrt p0) and b = M(1, sqrt(1 - p0)).

    The periods of dz/sqrt(z(z-1)(z-p0)) are (2 pi/a, 2 pi i/b), so tau
    (:func:`_tau_from_agms`) and ``toymodel``'s c_sK both read off this one
    pair, which ``ToyConfig.from_p0`` computes once for the two.
    """
    return _agm(1.0, cmath.sqrt(p0)), _agm(1.0, cmath.sqrt(1.0 - p0))


def _tau_from_agms(a: complex, b: complex) -> complex:
    """tau = i b/a of the :func:`_period_agms` pair, reduced to the fundamental domain."""
    return reduce_to_fundamental_domain(1j * b / a)


def inverse_lambda(p0: complex) -> complex:
    """Invert the modular lambda function.

    Returns tau in the fundamental domain with lambda(tau) in the six-element
    lambda-orbit of p0.  With k = sqrt(p0) and k' = sqrt(1 - p0),
    tau = i K'/K = i M(1, k')/M(1, k), since K(k) = pi / (2 M(1, k'))
    (DLMF 19.8), reduced by PSL(2, Z); no theta series is evaluated.
    """
    p0 = complex(p0)
    if not cmath.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    if min(abs(p0), abs(p0 - 1.0)) < 1e-12:
        raise ValueError("p0 must avoid the degenerate values 0 and 1")
    return _tau_from_agms(*_period_agms(p0))
