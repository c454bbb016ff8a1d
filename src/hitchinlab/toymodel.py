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
            lattice, i b/a reduced by PSL(2,Z);
  c_fib     fiber lattice scale pi lambda_T (fiber area 2 pi^2);
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

``TorusLattice``, shared with ``lebrun``, is the one fiber torus
R^2 / c_fib (Z + tau Z) of a tau in the fundamental domain: lambda_T,
c_fib, the dual lattice and its shortest shell, in closed form (no lattice
search).  A degenerate shortest shell warns ``NonGenericTorusWarning``
once, when the torus is built.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .special import (
    ConvergenceError,
    _period_agms,
    _tau_from_agms,
    bessel_k,
)

__all__ = [
    "ToyConfig",
    "TorusLattice",
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
    """The fiber torus has several inequivalent shortest dual vectors (tau on the arc |tau| = 1).

    The leading BPS correction is then degenerate, and decay fits use the
    combined shell.
    """


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
# periods of the spectral curve: the oracle for c_sK (and, through
# oracles.tau_from_periods, for tau), called by the tests and the benchmark's
# toymodel gate, never by the package
# ----------------------------------------------------------------------

# the trapezoid nodes each period sum starts from, and the relative change that ends the doubling
_PERIOD_N_START, _PERIOD_TOL = 256, 1e-10


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


def periods(p0: complex):
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
        n = _PERIOD_N_START
        prev = _dumbbell_period(a, b, other, p0, n)
        for _ in range(8):
            n *= 2
            cur = _dumbbell_period(a, b, other, p0, n)
            if None not in (cur, prev) and abs(cur - prev) < _PERIOD_TOL * max(1.0, abs(cur)):
                return cur
            prev = cur
        raise ConvergenceError(f"period quadrature did not converge at p0 = {p0} (n = {n})")

    om1 = converge(*cycles[0])
    om2 = converge(*cycles[1])
    if (om2 / om1).imag < 0:
        om2 = -om2
    return om1, om2


# ----------------------------------------------------------------------
# configuration and derived constants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ToyConfig:
    """Derived constants of the four-punctured-sphere geometry at p0.

    ``c_sk`` is :func:`csk` and ``torus`` the fiber torus of tau = i b/a
    reduced to the fundamental domain, the modulus with lambda(tau) = p0;
    both come from one pair of arithmetic-geometric means, computed once.
    ``tau``, ``c_fib`` and ``lambda_t`` are the torus's own.
    """

    p0: complex
    c_sk: float
    torus: TorusLattice

    @classmethod
    def from_p0(cls, p0: complex) -> "ToyConfig":
        p0 = _validate_p0(p0)
        a, b = _period_agms(p0)
        return cls(p0=p0, c_sk=_csk_from_agms(a, b), torus=TorusLattice.from_tau(_tau_from_agms(a, b)))

    tau = property(lambda self: self.torus.tau)
    c_fib = property(lambda self: self.torus.c_fib)
    lambda_t = property(lambda self: self.torus.lambda_t)


# ----------------------------------------------------------------------
# semiflat geometry
# ----------------------------------------------------------------------

def fiber_area() -> float:
    """Area of every regular semiflat torus fiber: 2 pi^2."""
    return 2.0 * np.pi**2


def _reduced(tau) -> complex:
    """tau as a complex number, checked to lie in the fundamental domain (to 1e-12)."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half plane")
    if abs(tau.real) > 0.5 + 1e-12 or abs(tau) < 1.0 - 1e-12:
        raise ValueError(
            f"tau = {tau} is outside the fundamental domain |Re tau| <= 1/2, |tau| >= 1; "
            "map it there with special.reduce_to_fundamental_domain"
        )
    return tau


def lambda_T(tau) -> float:
    """sqrt of the smallest nonzero eigenvalue of -Laplace on the fiber torus.

    The fiber is C / c_fib(Z + tau Z) with c_fib = pi lambda_T; for tau in
    the fundamental domain the smallest dual-lattice vector is the mode
    (0, 1), of length 1/(c_fib Im tau), giving lambda_T = sqrt(2 / Im tau).
    Any other tau raises ValueError.
    """
    return float(np.sqrt(2.0 / _reduced(tau).imag))


@dataclass(frozen=True)
class TorusLattice:
    """The fiber torus R^2 / c_fib (Z + tau Z), tau in the fundamental domain, and its dual lattice."""

    tau: complex

    @classmethod
    def from_tau(cls, tau: complex) -> "TorusLattice":
        """The torus of a reduced ``tau`` (ValueError otherwise); warns if its shortest dual shell is degenerate."""
        torus = cls(_reduced(tau))
        reps = torus.min_dual_norm()[1]
        if len(reps) > 1:
            warnings.warn(
                f"fiber torus at tau = {torus.tau} has {len(reps)} inequivalent shortest dual "
                "vectors; the leading BPS correction is degenerate and decay fits use the combined shell",
                NonGenericTorusWarning,
            )
        return torus

    @property
    def lambda_t(self) -> float:
        return lambda_T(self.tau)

    @property
    def c_fib(self) -> float:
        return float(np.pi * self.lambda_t)

    @property
    def basis(self) -> np.ndarray:
        """Columns are the lattice vectors a, b in R^2."""
        return self.c_fib * np.array([[1.0, self.tau.real], [0.0, self.tau.imag]])

    @cached_property
    def dual_basis(self) -> np.ndarray:
        """Columns are the dual vectors ahat, bhat (ahat . a = 1 etc.); computed once, read-only.

        The transposed inverse of the upper-triangular ``basis`` c_fib [[1,
        Re tau], [0, Im tau]], by back substitution with the reciprocal
        diagonal: the operations, and so the bits, of ``numpy.linalg.inv``'s
        LAPACK solve, without its cost.
        """
        c = self.c_fib
        ia, id_ = 1.0 / c, 1.0 / (c * self.tau.imag)
        dual = np.array([[ia, 0.0], [(0.0 - c * self.tau.real * id_) * ia, id_]])
        dual.flags.writeable = False
        return dual

    def min_dual_norm(self):
        """Smallest nonzero |mu| and the modes (m, n) attaining it, up to sign.

        The dual vector of (m, n) has length |m tau - n| / (c_fib Im tau),
        so on a reduced tau the shortest is (0, 1), joined by (1, 0) on the
        arc |tau| = 1 and by (1, 1) or (1, -1) at the corner e^{i pi/3} or
        e^{2 i pi/3}: only these four are measured.  The modes within a
        relative 1e-9 of the shortest are returned sorted, each as the
        lexicographically smaller of its +- pair; the length is that of the
        first.
        """
        (x1, x2), (y1, y2) = self.dual_basis.tolist()
        w1, w2 = complex(x1, y1), complex(x2, y2)
        lengths = {mn: abs(mn[0] * w1 + mn[1] * w2) for mn in ((-1, -1), (-1, 0), (-1, 1), (0, -1))}
        best = min(lengths.values())
        reps = [mn for mn, s in lengths.items() if s - best < 1e-9 * best]
        return lengths[reps[0]], reps


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
