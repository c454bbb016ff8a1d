"""Model fields near simple zeros, strongly and weakly parabolic points.

Unitary-gauge radial ansatz on a punctured disk (conformal factor Q = 1
throughout; Q is a smooth positive factor that drops out of every quantity
tested here).  With F(r) the radial connection function,

  simple zero   : A = 2 F diag(i,-i) dtheta,  F = (1/4)(+1/2 + r ell'),
                  Phi = [[0, r^{1/2} e^{ell}], [z r^{-1/2} e^{-ell}, 0]] dz,
                  h = diag(r^{1/2} e^{ell}, r^{-1/2} e^{-ell}),
  strong pole   : A = (i/2)(a1+a2) I dtheta + 2 F diag(i,-i) dtheta,
                  F = (1/4)(-1/2 + r m'),
                  Phi = [[0, r^{-1/2} e^{m}], [z^{-1} r^{1/2} e^{-m}, 0]] dz,
                  h = r^{a1+a2} diag(r^{-1/2} e^{m}, r^{1/2} e^{-m}),
  weak pole     : A = diag(i a1, i a2) dtheta,  Phi = (s/z) diag(1,-1) dz,
                  h = diag(r^{2 a1}, r^{2 a2})      (t-independent).

The self-duality residual F^perp + t^2 [Phi, Phi*] reduces on this ansatz to
a scalar radial quantity; ``hitchin_residual`` measures it in the
log-radial frame (coefficient of the residual two-form against
d(log r) ^ dtheta), which is free of the eps/h^2 rounding floor that the
flat-frame pointwise norm suffers near r = 0.  The curvature term is
central-differenced from the connection coefficient, independently of the
stencil the profile solver satisfied, so the measured residual of an exact
model decreases at second order under grid refinement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import fd_first
from .painleve import ParabolicWeights, ell_profile, m_profile
from .profiles import RadialProfile

__all__ = [
    "CaseKind",
    "LocalCase",
    "PolarGrid",
    "FieldSample",
    "polar_grid",
    "fiducial_fields",
    "assemble_fields",
    "hitchin_residual",
    "mphi_eigenvalues",
    "indicial_roots",
    "quadratic_differential",
    "expected_quadratic_differential",
]


class CaseKind(str, Enum):
    SIMPLE_ZERO = "simple_zero"
    STRONG_POLE = "strong_pole"
    WEAK_POLE = "weak_pole"


@dataclass(frozen=True)
class LocalCase:
    """One of the three local models; weights for poles, residue for weak poles."""

    kind: CaseKind
    weights: ParabolicWeights | None = None
    residue: complex | None = None

    def __post_init__(self):
        kind = CaseKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in (CaseKind.STRONG_POLE, CaseKind.WEAK_POLE):
            if self.weights is None:
                raise ValueError(f"{kind.value} requires parabolic weights")
        if kind is CaseKind.WEAK_POLE:
            if self.residue is None or abs(complex(self.residue)) == 0.0:
                raise ValueError("weak pole requires a nonzero residue")
        elif self.residue is not None:
            raise ValueError("residue is only meaningful for a weak pole")


@dataclass(frozen=True)
class PolarGrid:
    """Polar grid (r_i, theta_j); r excludes the origin, theta uniform on [0, 2pi)."""

    r: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if self.r[0] <= 0 or np.any(np.diff(self.r) <= 0):
            raise ValueError("radial grid must be positive and increasing")
        if len(self.theta) < 1:
            raise ValueError("need at least one angular node")

    @property
    def z(self) -> np.ndarray:
        return self.r[:, None] * np.exp(1j * self.theta[None, :])


def polar_grid(r_min: float = 1e-3, r_max: float = 1.0, n_r: int = 1024, n_theta: int = 16) -> PolarGrid:
    if n_r < 4 or n_theta < 8:
        raise ValueError("need at least 4 radial and 8 angular nodes")
    if not 0.0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got r_min={r_min}, r_max={r_max}")
    return PolarGrid(np.geomspace(r_min, r_max, n_r), np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False))


@dataclass
class FieldSample:
    """Connection, Higgs field and Hermitian metric of a radial local model.

    ``A_theta`` and ``h`` are radial (shape (nr, 2, 2)); ``Phi`` carries the
    angular dependence (shape (nr, ntheta, 2, 2)).  ``xi``/``dxi`` are the
    radial exponent profile (ell or m, possibly cut off) and its derivative;
    they are the data from which the stable residual is evaluated and, with
    the case, t and grid, all that :meth:`to_json` stores.
    """

    grid: PolarGrid
    A_theta: np.ndarray
    Phi: np.ndarray
    h: np.ndarray
    case: LocalCase
    t: float
    xi: np.ndarray
    dxi: np.ndarray

    def __post_init__(self):
        nr, nth = len(self.grid.r), len(self.grid.theta)
        if self.A_theta.shape != (nr, 2, 2) or self.h.shape != (nr, 2, 2):
            raise ValueError("A_theta and h must have shape (nr, 2, 2)")
        if self.Phi.shape != (nr, nth, 2, 2):
            raise ValueError("Phi must have shape (nr, ntheta, 2, 2)")
        if np.max(np.abs(self.A_theta + np.conj(np.swapaxes(self.A_theta, -1, -2)))) > 1e-12:
            raise ValueError("A_theta must be anti-Hermitian")
        tr = np.abs(self.Phi[..., 0, 0] + self.Phi[..., 1, 1])
        if np.max(tr) > 1e-12 * max(1.0, float(np.max(np.abs(self.Phi)))):
            raise ValueError("Phi must be trace free")
        if np.any(self.h[:, 0, 0].real <= 0) or np.any(np.linalg.det(self.h).real <= 0):
            raise ValueError("h must be positive definite")

    @property
    def f_values(self) -> np.ndarray:
        """F(r) = (1/4)(c + r xi'), c = +1/2 (zero), -1/2 (pole), 0 (weak)."""
        c = _f_offset(self.case.kind)
        return 0.25 * (c + self.grid.r * self.dxi)

    def to_json(self) -> str:
        """The data the fields are built from: case, t, grid and (xi, dxi).

        :meth:`from_json` rebuilds ``A_theta``, ``Phi`` and ``h`` from these
        through :func:`assemble_fields`, bit for bit for any sample that
        function produced.
        """
        case = {
            "kind": self.case.kind.value,
            "weights": None
            if self.case.weights is None
            else [self.case.weights.alpha1, self.case.weights.alpha2],
            "residue": None
            if self.case.residue is None
            else [complex(self.case.residue).real, complex(self.case.residue).imag],
        }
        doc = {
            "case": case,
            "t": self.t,
            "grid": {"r": self.grid.r.tolist(), "theta": self.grid.theta.tolist()},
            "xi": self.xi.tolist(),
            "dxi": self.dxi.tolist(),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FieldSample":
        doc = json.loads(text)
        c = doc["case"]
        case = LocalCase(
            CaseKind(c["kind"]),
            None if c["weights"] is None else ParabolicWeights(*c["weights"]),
            None if c["residue"] is None else complex(c["residue"][0], c["residue"][1]),
        )
        grid = PolarGrid(np.asarray(doc["grid"]["r"]), np.asarray(doc["grid"]["theta"]))
        return assemble_fields(case, doc["t"], grid, np.asarray(doc["xi"]), np.asarray(doc["dxi"]))


def _f_offset(kind: CaseKind) -> float:
    return {CaseKind.SIMPLE_ZERO: 0.5, CaseKind.STRONG_POLE: -0.5, CaseKind.WEAK_POLE: 0.0}[kind]


# ----------------------------------------------------------------------
# field assembly
# ----------------------------------------------------------------------

_PAULI3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])
_ID2 = np.eye(2, dtype=complex)


def assemble_fields(case: LocalCase, t: float, grid: PolarGrid, xi: np.ndarray, dxi: np.ndarray) -> FieldSample:
    """Build the unitary-gauge fields from an exponent profile (xi, dxi).

    Passing the raw solver profile gives the fiducial solution; passing the
    cut-off profile gives the glued approximate solution.
    """
    r = grid.r
    z = grid.z
    nr, nth = len(r), len(grid.theta)
    xi = np.asarray(xi, dtype=float)
    dxi = np.asarray(dxi, dtype=float)
    Phi = np.zeros((nr, nth, 2, 2), dtype=complex)
    h = np.zeros((nr, 2, 2), dtype=complex)

    kind = case.kind
    if kind is CaseKind.SIMPLE_ZERO:
        F = 0.25 * (0.5 + r * dxi)
        A = 2.0 * F[:, None, None] * (1j * _PAULI3)
        Phi[..., 0, 1] = (np.sqrt(r) * np.exp(xi))[:, None]
        Phi[..., 1, 0] = z * (np.exp(-xi) / np.sqrt(r))[:, None]
        h[:, 0, 0] = np.sqrt(r) * np.exp(xi)
        h[:, 1, 1] = np.exp(-xi) / np.sqrt(r)
    elif kind is CaseKind.STRONG_POLE:
        w = case.weights
        asum = w.alpha1 + w.alpha2
        F = 0.25 * (-0.5 + r * dxi)
        A = (0.5j * asum) * _ID2 + 2.0 * F[:, None, None] * (1j * _PAULI3)
        Phi[..., 0, 1] = (np.exp(xi) / np.sqrt(r))[:, None]
        Phi[..., 1, 0] = (np.sqrt(r) * np.exp(-xi))[:, None] / z
        h[:, 0, 0] = r**asum * np.exp(xi) / np.sqrt(r)
        h[:, 1, 1] = r**asum * np.sqrt(r) * np.exp(-xi)
    elif kind is CaseKind.WEAK_POLE:
        w = case.weights
        sigma = complex(case.residue)
        A = np.tile(np.diag([1j * w.alpha1, 1j * w.alpha2]), (nr, 1, 1))
        Phi[..., 0, 0] = sigma / z
        Phi[..., 1, 1] = -sigma / z
        h[:, 0, 0] = r ** (2.0 * w.alpha1)
        h[:, 1, 1] = r ** (2.0 * w.alpha2)
    else:  # pragma: no cover
        raise ValueError(kind)
    return FieldSample(grid, np.ascontiguousarray(A), Phi, h, case, float(t), xi, dxi)


def fiducial_fields(case: LocalCase, t: float, grid: PolarGrid, profile: RadialProfile | None = None) -> FieldSample:
    """The exact model solution on ``grid`` (the weak-pole model is t-independent)."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    kind = case.kind
    if kind is CaseKind.WEAK_POLE:
        zeros = np.zeros_like(grid.r)
        return assemble_fields(case, t, grid, zeros, zeros)
    if profile is None:
        if kind is CaseKind.SIMPLE_ZERO:
            profile = ell_profile(t, grid.r)
        else:
            profile = m_profile(t, case.weights, grid.r)
    return assemble_fields(case, t, grid, profile.values, profile.derivs)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

def hitchin_residual(sample: FieldSample, t: float, window: tuple[float, float] | None = None) -> float:
    """sup over interior nodes of |F^perp + t^2 [Phi, Phi*]| on the ansatz.

    The curvature is central-differenced from the connection coefficient on
    the polar grid; the pointwise value is the operator norm of the residual
    two-form against d(log r) ^ dtheta.  Restricting to a radial ``window``
    measures the same sup on a sub-annulus (the glue module uses this where
    the residual of a glued metric is supported).
    """
    if len(sample.grid.r) < 4 or len(sample.grid.theta) < 8:
        raise ValueError("grid too small: need >= 4 radial and >= 8 angular nodes")
    r = sample.grid.r
    x = np.log(r)
    kind = sample.case.kind
    if kind is CaseKind.WEAK_POLE:
        dA = fd_first(x, sample.A_theta.reshape(len(r), 4).T).T
        curv = np.abs(dA).max(axis=1)
        vals = curv + (t**2) * (r**2) * _phi_commutator_norm(sample)
    else:
        # difference r*xi' rather than F = (c + r*xi')/4: the constant c is
        # the limiting connection (curvature-free) and would anchor an
        # absolute eps/h rounding floor that swamps exponentially small
        # profiles; dropping it analytically keeps the evaluation accurate
        # relative to the local profile magnitude
        two_f_x = 0.5 * fd_first(x, r * sample.dxi)
        if kind is CaseKind.SIMPLE_ZERO:
            nonlin = 4.0 * t**2 * r**3 * np.sinh(2.0 * sample.xi)
        else:
            nonlin = 4.0 * t**2 * r * np.sinh(2.0 * sample.xi)
        vals = np.abs(two_f_x - nonlin)
    # exclude two nodes per end: the boundary one-sided stencil enters the
    # neighbouring central difference with a different error constant,
    # polluting those nodes at first order
    mask = np.zeros_like(r, dtype=bool)
    mask[2:-2] = True
    if window is not None:
        lo, hi = window
        mask &= (r >= lo) & (r <= hi)
    if not mask.any():
        raise ValueError("window contains no interior nodes")
    return float(np.max(vals[mask]))


def _phi_commutator_norm(sample: FieldSample) -> np.ndarray:
    """sup over theta of the spectral norm of Phi Phi* - Phi* Phi, per radius.

    The commutator C is Hermitian and trace free, so its eigenvalues are
    +-sqrt(c00^2 + |c01|^2); its entries are written out from those of Phi.
    """
    P = sample.Phi
    a, b, c, d = P[..., 0, 0], P[..., 0, 1], P[..., 1, 0], P[..., 1, 1]
    c00 = (b.real**2 + b.imag**2) - (c.real**2 + c.imag**2)
    c01 = a * c.conj() + b * d.conj() - a.conj() * b - c.conj() * d
    return np.hypot(c00, np.abs(c01)).max(axis=1)


def mphi_eigenvalues(case: LocalCase, t: float, r: float, profile: RadialProfile | None = None):
    """Eigenvalues of the Higgs-field bracket operator -i * M_Phi at radius r.

    Simple zero : (16 r cosh 2ell, 8 r (cosh 2ell - 1), 8 r (cosh 2ell + 1))
    Strong pole : (16/r cosh 2m,  8/r (cosh 2m - 1),  8/r (cosh 2m + 1))
    Weak pole   : (0, 16|s|^2/r^2, 16|s|^2/r^2)
    """
    if r <= 0:
        raise ValueError("r must be positive")
    kind = case.kind
    if kind is CaseKind.WEAK_POLE:
        lam = 16.0 * abs(complex(case.residue)) ** 2 / r**2
        return (0.0, lam, lam)
    xi = profile.value(r) if profile is not None else 0.0
    c = math.cosh(2.0 * xi)
    if kind is CaseKind.SIMPLE_ZERO:
        return (16.0 * r * c, 8.0 * r * (c - 1.0), 8.0 * r * (c + 1.0))
    return (16.0 / r * c, 8.0 / r * (c - 1.0), 8.0 / r * (c + 1.0))


def indicial_roots(case: LocalCase, window: tuple[float, float]):
    """Indicial roots of the linearized operator in the closed window [lo, hi].

    Integers (diagonal part) plus the case's off-diagonal family: simple
    zero (limiting operator) Z + 1/2; strong pole +-(l + a1 - a2); weak pole
    +-sqrt((l + a1 - a2)^2 + 16 |s|^2).  Sorted, deduplicated.
    """
    lo, hi = window
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError("window must be a finite interval")
    bound = int(np.ceil(max(abs(lo), abs(hi)))) + 2
    roots = {float(k) for k in range(math.ceil(lo), math.floor(hi) + 1)}
    ls = np.arange(-bound - 1, bound + 2, dtype=float)
    kind = case.kind
    if kind is CaseKind.SIMPLE_ZERO:
        fam = ls + 0.5
    elif kind is CaseKind.STRONG_POLE:
        fam = ls + case.weights.difference
        fam = np.concatenate([fam, -fam])
    else:
        base = (ls + case.weights.difference) ** 2 + 16.0 * abs(complex(case.residue)) ** 2
        fam = np.sqrt(base)
        fam = np.concatenate([fam, -fam])
    out = sorted({float(v) for v in fam if lo - 1e-12 <= v <= hi + 1e-12} | roots)
    dedup: list[float] = []
    for v in out:
        if not dedup or abs(v - dedup[-1]) > 1e-12:
            dedup.append(v)
    return dedup


def quadratic_differential(sample: FieldSample) -> np.ndarray:
    """-det(Phi/dz) on the grid: equals z, z^{-1} or residue^2 z^{-2} by case."""
    P = sample.Phi
    return -(P[..., 0, 0] * P[..., 1, 1] - P[..., 0, 1] * P[..., 1, 0])


def expected_quadratic_differential(case: LocalCase, z: np.ndarray) -> np.ndarray:
    kind = case.kind
    if kind is CaseKind.SIMPLE_ZERO:
        return z
    if kind is CaseKind.STRONG_POLE:
        return 1.0 / z
    return complex(case.residue) ** 2 / z**2
