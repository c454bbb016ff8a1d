"""The four-punctured-sphere moduli space.

Strongly parabolic rank-2 Higgs bundles on CP^1 with punctures 0, 1, p0,
infinity.  The Hitchin base is the line of quadratic differentials
q = B dz^2 / (z(z-1)(z-p0)); the fiber over B != 0 is the elliptic curve
B x(x-1)(x-p0) + u^2 = 0, a torus of modulus tau with p0 = lambda(tau).

This module computes the derived constants of that geometry:

  c_sK      base normalization, int_{CP^1} (i/2) dz dz* / |z(z-1)(z-p0)|,
            so the special Kahler metric is (dr^2 + r^2 dtheta^2)/r in the
            rescaled polar coordinate r e^{i theta} = c_sK B; in closed form
            2 pi^2 |theta3(tau)|^4 Im tau, with the fundamental-domain tau
            lifted by a coset of SL(2,Z)/Gamma(2) to lambda(tau) = p0;
  tau       spectral-torus modulus, from lambda inversion or from periods;
  c_fib     fiber lattice scale pi sqrt(2/Im tau) (fiber area 2 pi^2);
  lambda_T  sqrt of the smallest positive eigenvalue of -Laplace on the
            fiber torus, sqrt(2/Im tau);
  M_B       length of the shortest spectral-torus geodesic,
            sqrt(2 |B| c_sK / Im tau);
  Omega(n)  BPS indices 8, -2, 0 for n = 1, 2, > 2;

together with the semiflat metric and the conjectured leading correction
to the moduli-space metric on the Hitchin section,
-(2/pi) 8 K0(2 sqrt(2 r / Im tau)) (dr^2 + r^2 dtheta^2) / (2 r Im tau).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .metrics import MetricComponents
from .special import (
    ConvergenceError,
    HalfPlanePoint,
    bessel_k,
    inverse_lambda,
    jacobi_theta,
    modular_lambda,
    reduce_to_fundamental_domain,
    shortest_vectors,
)

__all__ = [
    "ToyConfig",
    "BasePoint",
    "csk",
    "periods",
    "fiber_area",
    "lambda_T",
    "shortest_geodesic",
    "bps_omega",
    "gmn_correction",
    "semiflat_metric",
    "NonGenericTorusWarning",
]


class NonGenericTorusWarning(UserWarning):
    """The spectral torus has several inequivalent shortest geodesics (Im tau = 1 wall)."""


def _validate_p0(p0: complex) -> complex:
    p0 = complex(p0)
    d = min(abs(p0), abs(p0 - 1.0))
    if d < 1e-3:
        raise ValueError(
            f"p0 = {p0} is within 1e-3 of a degenerate configuration (punctures collide)"
        )
    return p0


# ----------------------------------------------------------------------
# special Kahler constant
# ----------------------------------------------------------------------

def _lifted_tau(t: complex, p0: complex) -> complex:
    """The tau with lambda(tau) = p0 itself, not another member of its orbit.

    ``t`` is the fundamental-domain tau from :func:`inverse_lambda`, whose
    lambda value is some member of the six-element orbit of p0; the six coset
    representatives of SL(2, Z)/Gamma(2) applied to it realize the whole
    orbit, and the one whose lambda value is p0 is kept.
    """
    cosets = (t, t + 1.0, -1.0 / t, -1.0 / (t + 1.0), (t - 1.0) / t, t / (1.0 - t))
    lifted = min(cosets, key=lambda g: abs(modular_lambda(g) - p0))
    defect = abs(modular_lambda(lifted) - p0)
    if defect > 1e-9 * max(1.0, abs(p0)):  # lambda is known to relative, not absolute, precision
        raise ConvergenceError(
            f"no coset lift of tau = {t} has lambda = p0 = {p0} (defect {defect:.2e})"
        )
    return lifted


def _csk_from_tau(p0: complex, t: complex) -> float:
    """:func:`csk` at a validated p0 whose fundamental-domain tau ``t`` is known."""
    tau = _lifted_tau(t, p0)
    return float(2.0 * np.pi**2 * abs(jacobi_theta(3, tau)) ** 4 * tau.imag)


def csk(p0: complex) -> float:
    """The base integral int_{CP^1} (i/2) dz dz*/|z(z-1)(z-p0)|, in closed form.

    By the Riemann bilinear relations the integral is half the flat area
    Im(conj(omega1) omega2) of the spectral torus, and with
    K = (pi/2) theta3(tau)^2 (DLMF 20.9) this is
    c_sK = 2 pi^2 |theta3(tau)|^4 Im tau for the tau with lambda(tau) = p0
    exactly.  The expression is invariant under Gamma(2) but not under
    SL(2, Z) (c_sK(1/p0) = |p0| c_sK(p0)), hence the coset lift.
    """
    p0 = _validate_p0(p0)
    return _csk_from_tau(p0, inverse_lambda(p0).tau)


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
    """Derived constants of the four-punctured-sphere geometry at p0."""

    p0: complex
    tau: HalfPlanePoint
    c_sk: float
    c_fib: float
    lambda_t: float

    @classmethod
    def from_p0(cls, p0: complex) -> "ToyConfig":
        p0 = _validate_p0(p0)
        tau = inverse_lambda(p0)
        im = tau.tau.imag
        cfg = cls(
            p0=p0,
            tau=tau,
            c_sk=_csk_from_tau(p0, tau.tau),
            c_fib=float(np.pi * np.sqrt(2.0 / im)),
            lambda_t=float(np.sqrt(2.0 / im)),
        )
        if len(shortest_vectors(1.0, tau.tau)[1]) > 1:
            warnings.warn(
                "spectral torus has several inequivalent shortest geodesics "
                f"(tau = {tau.tau}); the leading BPS correction is degenerate",
                NonGenericTorusWarning,
            )
        return cfg


@dataclass(frozen=True)
class BasePoint:
    """A nonzero point B of the Hitchin base with its rescaled polar coordinates."""

    B: complex
    c_sk: float

    def __post_init__(self):
        if self.B == 0:
            raise ValueError("base point must be nonzero")

    @property
    def r(self) -> float:
        return self.c_sk * abs(self.B)

    @property
    def theta(self) -> float:
        return float(np.angle(self.B))


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
    t = tau.tau if isinstance(tau, HalfPlanePoint) else complex(tau)
    if not t.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    return float(np.sqrt(2.0 / t.imag))


def shortest_geodesic(cfg: ToyConfig, B: complex) -> float:
    """M_B = sqrt(2 |B| c_sK / Im tau), the shortest spectral-torus geodesic."""
    if B == 0:
        raise ValueError("B must be nonzero")
    return float(np.sqrt(2.0 * abs(B) * cfg.c_sk / cfg.tau.tau.imag))


def bps_omega(n: int) -> int:
    """BPS index of n times a primitive charge: 8, -2, 0 for n = 1, 2, > 2."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return 8 if n == 1 else (-2 if n == 2 else 0)


def gmn_correction(cfg: ToyConfig, r: float) -> MetricComponents:
    """Predicted leading correction g_L2 - g_sf on the Hitchin section.

    Base block -(2/pi) 8 K0(2 sqrt(2 r / Im tau)) (dr^2 + r^2 dtheta^2)
    / (2 r Im tau) in the rescaled polar coordinates.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    im = cfg.tau.tau.imag
    coeff = -(2.0 / np.pi) * bps_omega(1) * bessel_k(0, 2.0 * np.sqrt(2.0 * r / im)) / (2.0 * r * im)
    return MetricComponents(("r", "theta"), np.diag([coeff, coeff * r**2]))


def semiflat_metric(cfg: ToyConfig, base: BasePoint) -> MetricComponents:
    """Block-diagonal semiflat metric at a base point, coordinates (r, theta, x, y).

    Base block diag(1/r, r) (the flat cone of angle pi); fiber block the
    Euclidean metric dx^2 + dy^2 on C / c_fib(Z + tau Z), total area 2 pi^2.
    """
    r = base.r
    if r <= 0:
        raise ValueError("base point must have positive radius")
    g = np.diag([1.0 / r, r, 1.0, 1.0])
    return MetricComponents(("r", "theta", "x", "y"), g)
