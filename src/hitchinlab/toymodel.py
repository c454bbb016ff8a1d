"""The four-punctured-sphere moduli space.

Strongly parabolic rank-2 Higgs bundles on CP^1 with punctures 0, 1, p0,
infinity.  The Hitchin base is the line of quadratic differentials
q = B dz^2 / (z(z-1)(z-p0)); the fiber over B != 0 is the elliptic curve
B x(x-1)(x-p0) + u^2 = 0, a torus of modulus tau with p0 = lambda(tau).

This module computes the derived constants of that geometry:

  c_sK      base normalization, int_{CP^1} (i/2) dz dz* / |z(z-1)(z-p0)|,
            so the special Kahler metric is (dr^2 + r^2 dtheta^2)/r in the
            rescaled polar coordinate r e^{i theta} = c_sK B; in closed form
            half the area of the period lattice (2 pi/a, 2 pi i/b), with
            a = M(1, sqrt p0) and b = M(1, sqrt(1 - p0)) arithmetic-geometric
            means;
  tau       spectral-torus modulus, the fundamental-domain modulus of that
            lattice, i b/a reduced by PSL(2,Z) (or, as an oracle, from the
            contour periods);
  c_fib     fiber lattice scale pi sqrt(2/Im tau) (fiber area 2 pi^2);
  lambda_T  sqrt of the smallest positive eigenvalue of -Laplace on the
            fiber torus, sqrt(2/Im tau);
  M_B       length of the shortest spectral-torus geodesic,
            sqrt(2 |B| c_sK / Im tau);
  Omega(n)  BPS indices 8, -2, 0 for n = 1, 2, > 2;

together with the conjectured leading correction to the moduli-space
metric on the Hitchin section,
-(2/pi) 8 K0(2 sqrt(2 r / Im tau)) (dr^2 + r^2 dtheta^2) / (2 r Im tau),
at one r or a whole array of them.  The semiflat metric g_sf itself is
``oracles.semiflat_metric``.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from .special import (
    ConvergenceError,
    _period_agms,
    _tau_from_agms,
    bessel_k,
    reduce_to_fundamental_domain,
    shortest_vectors,
)

__all__ = [
    "ToyConfig",
    "csk",
    "periods",
    "fiber_area",
    "lambda_T",
    "shortest_geodesic",
    "bps_omega",
    "gmn_correction",
    "NonGenericTorusWarning",
]


class NonGenericTorusWarning(UserWarning):
    """The spectral torus has several inequivalent shortest geodesics (Im tau = 1 wall)."""


def _validate_p0(p0: complex) -> complex:
    """p0 as a complex number: finite and at least 1e-3 from the punctures 0 and 1.

    Every such p0 is in the domain of :func:`csk` and :func:`ToyConfig.from_p0`.
    """
    p0 = complex(p0)
    if not cmath.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    d = min(abs(p0), abs(p0 - 1.0))
    if d < 1e-3:
        raise ValueError(
            f"p0 = {p0} is within 1e-3 of a degenerate configuration (punctures collide)"
        )
    return p0


# ----------------------------------------------------------------------
# special Kahler constant
# ----------------------------------------------------------------------

def csk(p0: complex) -> float:
    """The base integral int_{CP^1} (i/2) dz dz*/|z(z-1)(z-p0)|, in closed form.

    With a = M(1, sqrt p0) and b = M(1, sqrt(1 - p0)) the periods of
    dz/sqrt(z(z-1)(z-p0)) are (2 pi/a, 2 pi i/b), since
    K(k) = pi / (2 M(1, k')) (DLMF 19.8).  By the Riemann bilinear relation
    the integral is half the flat area Im(conj(omega1) omega2) of that
    lattice, c_sK = 2 pi^2 Re(1/(a conj b)).  Domain: every finite p0 at
    least 1e-3 from the punctures 0 and 1 (ValueError otherwise).
    """
    return _csk_from_agms(*_period_agms(_validate_p0(p0)))


def _csk_from_agms(a: complex, b: complex) -> float:
    """c_sK = 2 pi^2 Re(1/(a conj b)) of the ``special._period_agms`` pair."""
    return float(2.0 * np.pi**2 * (1.0 / (a * b.conjugate())).real)


# ----------------------------------------------------------------------
# periods of the spectral curve: the oracle for c_sK and tau, called by the
# tests and the benchmark's toymodel gate, never by the package
# ----------------------------------------------------------------------

def _segment_distance(p: complex, a: complex, b: complex) -> float:
    """Distance from p to the segment [a, b]."""
    ab = b - a
    t = ((p - a) * np.conj(ab)).real / abs(ab) ** 2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def _choose_cycles(p0: complex):
    """Two branch-point pairs sharing a point, with the best clearances.

    A contour around two finite branch points is closed for the square root;
    two pair-cycles sharing a point form a homology basis.  The third point
    must stay outside the surrounding ellipse, so each pair is scored by the
    distance from the remaining point to the pair's segment.
    """
    pts = [0.0 + 0.0j, 1.0 + 0.0j, complex(p0)]
    pairs = [(0, 1), (1, 2), (0, 2)]

    def clearance(i, j):
        k = 3 - i - j
        return _segment_distance(pts[k], pts[i], pts[j])

    combos = [((0, 1), (1, 2)), ((0, 1), (0, 2)), ((1, 2), (0, 2))]
    best = max(combos, key=lambda c: min(clearance(*c[0]), clearance(*c[1])))
    return [(pts[i], pts[j], pts[3 - i - j]) for i, j in best]


def _dumbbell_period(a: complex, b: complex, other: complex, p0: complex, n: int) -> complex | None:
    """Contour integral of dz/sqrt(z(z-1)(z-p0)) around the pair {a, b}.

    Ellipse surrounding the segment [a, b] with clearance from the remaining
    branch point; the square root is tracked continuously along the contour.
    Returns None when n nodes are too few to track the branch around the
    closed contour.
    """
    center = 0.5 * (a + b)
    span = 0.5 * abs(b - a)
    clear = _segment_distance(other, a, b)
    if clear <= 0:
        raise RuntimeError("branch points are collinear and unseparable")
    direction = (b - a) / abs(b - a)
    major = span + 0.3 * clear
    minor = 0.3 * clear

    s = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    z = center + direction * (major * np.cos(s) + 1j * minor * np.sin(s))
    dz = direction * (-major * np.sin(s) + 1j * minor * np.cos(s))

    f = 1.0 / np.sqrt(z * (z - 1.0) * (z - p0))
    # branch tracking: each node flips relative to its predecessor when
    # continuity of the raw roots prefers it; the signs accumulate
    flip = np.abs(f[1:] - f[:-1]) > np.abs(f[1:] + f[:-1])
    f[1:] *= np.cumprod(np.where(flip, -1.0, 1.0))
    # closed contour around two branch points: no monodromy, check closure
    if abs(f[0] - f[-1]) > abs(f[0] + f[-1]):
        return None
    return complex(np.sum(f * dz) * (2.0 * np.pi / n))


def periods(p0: complex, *, n_start: int = 256, tol: float = 1e-10):
    """Periods (omega1, omega2) of dz/sqrt(z(z-1)(z-p0)), Im(omega2/omega1) > 0.

    Dumbbell contours around two adjacent branch-point pairs (chosen by
    clearance among {0,1}, {1,p0}, {0,p0}); trapezoid sums on the smooth
    closed contours, doubled until converged; the square root branch is
    tracked continuously, and a contour on which the tracking fails to
    close is retried with doubled n within the same budget of 8 doublings.

    Domain: |p0| <= 1e3, where half the lattice area matches :func:`csk` to
    about 1e-14.  From |p0| of about 1.12e3 the sums on the long contours
    can fail to settle within the budget, and it raises ConvergenceError.
    """
    p0 = _validate_p0(p0)
    cycles = _choose_cycles(p0)

    def converge(a, b, other):
        n = n_start
        prev = _dumbbell_period(a, b, other, p0, n)
        for _ in range(8):
            n *= 2
            cur = _dumbbell_period(a, b, other, p0, n)
            if None not in (cur, prev) and abs(cur - prev) < tol * max(1.0, abs(cur)):
                return cur
            prev = cur
        raise ConvergenceError(f"period quadrature did not converge at p0 = {p0} (n = {n})")

    om1 = converge(*cycles[0])
    om2 = converge(*cycles[1])
    if (om2 / om1).imag < 0:
        om2 = -om2
    return om1, om2


def tau_from_periods(p0: complex) -> complex:
    """Fundamental-domain modulus of the spectral torus computed from periods."""
    om1, om2 = periods(p0)
    return reduce_to_fundamental_domain(om2 / om1)


# ----------------------------------------------------------------------
# configuration and derived constants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ToyConfig:
    """Derived constants of the four-punctured-sphere geometry at p0.

    ``tau`` is the fundamental-domain modulus of :func:`special.inverse_lambda`
    and ``c_sk`` is :func:`csk`; both come from one pair of
    arithmetic-geometric means, computed once.
    """

    p0: complex
    tau: complex
    c_sk: float
    c_fib: float
    lambda_t: float

    @classmethod
    def from_p0(cls, p0: complex) -> "ToyConfig":
        p0 = _validate_p0(p0)
        a, b = _period_agms(p0)
        tau = _tau_from_agms(a, b)
        lambda_t = lambda_T(tau)
        cfg = cls(p0=p0, tau=tau, c_sk=_csk_from_agms(a, b),
                  c_fib=float(np.pi * lambda_t), lambda_t=lambda_t)
        if len(shortest_vectors(1.0, tau)[1]) > 1:
            warnings.warn(
                "spectral torus has several inequivalent shortest geodesics "
                f"(tau = {tau}); the leading BPS correction is degenerate",
                NonGenericTorusWarning,
            )
        return cfg


# ----------------------------------------------------------------------
# semiflat geometry
# ----------------------------------------------------------------------

def fiber_area() -> float:
    """Area of every regular semiflat torus fiber: 2 pi^2."""
    return 2.0 * np.pi**2


def lambda_T(tau) -> float:
    """sqrt of the smallest nonzero eigenvalue of -Laplace on the fiber torus.

    The fiber is C / c_fib(Z + tau Z) with c_fib = pi sqrt(2/Im tau); the
    smallest dual-lattice vector has length 1/(c_fib Im tau), giving
    lambda_T = sqrt(2 / Im tau).
    """
    t = complex(tau)
    if not t.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    return float(np.sqrt(2.0 / t.imag))


def shortest_geodesic(cfg: ToyConfig, B: complex) -> float:
    """M_B = sqrt(2 |B| c_sK / Im tau), the shortest spectral-torus geodesic."""
    if B == 0:
        raise ValueError("B must be nonzero")
    return float(np.sqrt(2.0 * abs(B) * cfg.c_sk / cfg.tau.imag))


def bps_omega(n: int) -> int:
    """BPS index of n times a primitive charge: 8, -2, 0 for n = 1, 2, > 2."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return 8 if n == 1 else (-2 if n == 2 else 0)


def gmn_correction(cfg: ToyConfig, r) -> np.ndarray:
    """Predicted leading correction g_L2 - g_sf on the Hitchin section.

    Base block -(2/pi) 8 K0(2 sqrt(2 r / Im tau)) (dr^2 + r^2 dtheta^2)
    / (2 r Im tau) in the rescaled polar coordinates.  ``r`` is a scalar or
    an array, every element positive and finite (ValueError otherwise).
    Returns the coefficient array of shape ``r.shape + (2, 2)`` (indices
    r, theta), one 2x2 block for a scalar; each block equals the scalar
    call at its ``r`` bit for bit.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or not np.all(np.isfinite(r)):
        raise ValueError("r must be positive and finite")
    im = cfg.tau.imag
    coeff = -(2.0 / np.pi) * bps_omega(1) * bessel_k(0, 2.0 * np.sqrt(2.0 * r / im)) / (2.0 * r * im)
    g = np.zeros(r.shape + (2, 2))
    g[..., 0, 0] = coeff
    g[..., 1, 1] = coeff * (r * r)
    return g
