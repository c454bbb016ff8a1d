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

A model is radial, so it is stored as what ``fields.json`` holds: the
case, t, the radial nodes r (a plain 1-d array: finite, positive, strictly
increasing) and the exponent profile xi (ell, m, or 0 for the weak pole)
with its derivative.  The 2x2 matrices A, Phi and h on an (r, theta) grid
are built from these by ``oracles.local_fields``, which the tests read; no
command builds them.

The self-duality residual F^perp + t^2 [Phi, Phi*] reduces on this ansatz to
a scalar radial quantity; ``hitchin_residual`` measures it in the
log-radial frame (coefficient of the residual two-form against
d(log r) ^ dtheta), which is free of the eps/h^2 rounding floor that the
flat-frame pointwise norm suffers near r = 0, and reads only xi and its
derivative.  The curvature term is central-differenced from the connection
coefficient, independently of the Chebyshev collocation that the profile
solver satisfies, so the measured residual of an exact model decreases at
second order under grid refinement.  ``residual_nodes`` alone states
which nodes it reads: all but ``RESIDUAL_SKIP`` at each end of the grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import fd_first
from .painleve import ParabolicWeights, ell_profile, ell_profiles, m_profile, m_profiles

__all__ = [
    "CaseKind",
    "LocalCase",
    "FieldSample",
    "RESIDUAL_SKIP",
    "polar_grid",
    "check_nodes",
    "fiducial_fields",
    "profile_sweep",
    "assemble_fields",
    "residual_nodes",
    "hitchin_residual",
    "mphi_eigenvalues",
    "indicial_roots",
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


def polar_grid(r_min: float = 1e-3, r_max: float = 1.0, n_r: int = 1024) -> np.ndarray:
    if n_r < 4:
        raise ValueError("need at least 4 radial nodes")
    if not 0.0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got r_min={r_min}, r_max={r_max}")
    return np.geomspace(r_min, r_max, n_r)


def check_nodes(r) -> np.ndarray:
    """``r`` as a float array; ValueError unless it is a finite, positive, strictly increasing 1-d array."""
    r = np.asarray(r, dtype=float)
    if not (r.ndim == 1 and r.size and np.all(np.isfinite(r)) and r[0] > 0 and np.all(np.diff(r) > 0)):
        raise ValueError("radial nodes must be a finite, positive, strictly increasing 1-d array")
    return r


@dataclass
class FieldSample:
    """A radial local model: the case, t, the nodes ``r`` and the exponent profile there.

    ``xi``/``dxi`` are ell or m (possibly cut off) and its derivative; these
    five are all the sample holds, all that :meth:`to_json` writes and all
    that :func:`hitchin_residual` reads.
    """

    r: np.ndarray
    case: LocalCase
    t: float
    xi: np.ndarray
    dxi: np.ndarray

    def __post_init__(self):
        r = self.r = check_nodes(self.r)
        self.t = float(self.t)
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        for name in ("xi", "dxi"):
            v = np.asarray(getattr(self, name))
            if v.dtype.kind not in "iuf" or v.shape != r.shape or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite real array of shape ({len(r)},)")
            setattr(self, name, v.astype(float, copy=False))

    @property
    def f_values(self) -> np.ndarray:
        """F(r) = (1/4)(c + r xi'), c = +1/2 (zero), -1/2 (pole), 0 (weak)."""
        c = _f_offset(self.case.kind)
        return 0.25 * (c + self.r * self.dxi)

    def to_json(self) -> str:
        """The data the sample holds: case, t, radial nodes (under ``grid``) and (xi, dxi).

        A sample built from these equals the original bit for bit.
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
            "grid": {"r": self.r.tolist()},
            "xi": self.xi.tolist(),
            "dxi": self.dxi.tolist(),
        }
        return json.dumps(doc, sort_keys=True)


def _f_offset(kind: CaseKind) -> float:
    return {CaseKind.SIMPLE_ZERO: 0.5, CaseKind.STRONG_POLE: -0.5, CaseKind.WEAK_POLE: 0.0}[kind]


def assemble_fields(case: LocalCase, t: float, r: np.ndarray, xi: np.ndarray, dxi: np.ndarray) -> FieldSample:
    """The local model with exponent profile (xi, dxi) at the nodes r.

    Passing the raw solver profile gives the fiducial solution; passing the
    cut-off profile gives the glued approximate solution.
    """
    return FieldSample(r, case, t, xi, dxi)


def fiducial_fields(case: LocalCase, t: float, r: np.ndarray) -> FieldSample:
    """The exact model solution at the nodes r (the weak-pole model is t-independent)."""
    if case.kind is CaseKind.WEAK_POLE:
        xi = dxi = np.zeros_like(r)
    elif case.kind is CaseKind.SIMPLE_ZERO:
        xi, dxi = ell_profile(t, r)
    else:
        xi, dxi = m_profile(t, case.weights, r)
    return assemble_fields(case, t, r, xi, dxi)


def profile_sweep(case: LocalCase, t_values, r: np.ndarray):
    """The exponent profile (xi, dxi) of :func:`fiducial_fields` at the nodes r, for each t of ``t_values`` in turn.

    The profiles come from ``painleve.ell_profiles``/``m_profiles``, which
    collocate once for each run of t values sharing an interval's inner end;
    a t collocated on its own interval gets :func:`fiducial_fields`'s bit for bit.
    """
    t_values = list(t_values)
    if case.kind is CaseKind.WEAK_POLE:
        return ((np.zeros_like(r),) * 2 for _ in t_values)
    if case.kind is CaseKind.SIMPLE_ZERO:
        return ell_profiles(t_values, r)
    return m_profiles(t_values, case.weights, r)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

# the residual skips this many nodes at each grid end: the boundary
# one-sided stencil enters the neighbouring central difference with a
# different error constant, polluting those nodes at first order
RESIDUAL_SKIP = 2


def residual_nodes(r: np.ndarray, window: tuple[float, float] | None = None) -> np.ndarray:
    """Indices of a sample's nodes r where ``hitchin_residual`` reads: all but ``RESIDUAL_SKIP`` per end.

    Only those in the closed ``window``, if one is given; ``ValueError`` if none is left.
    """
    if len(r) <= 2 * RESIDUAL_SKIP:
        raise ValueError(f"grid too small: need >= {2 * RESIDUAL_SKIP + 1} radial nodes (no interior nodes)")
    lo, hi = (-np.inf, np.inf) if window is None else window
    inner = r[RESIDUAL_SKIP : len(r) - RESIDUAL_SKIP]
    nodes = RESIDUAL_SKIP + np.flatnonzero((inner >= lo) & (inner <= hi))
    if nodes.size == 0:
        raise ValueError("window contains no interior nodes")
    return nodes


def hitchin_residual(sample: FieldSample, window: tuple[float, float] | None = None) -> float:
    """sup over ``residual_nodes`` of |F^perp + t^2 [Phi, Phi*]| at the sample's t.

    On the radial ansatz the residual two-form against d(log r) ^ dtheta is
    |(1/2) d/dx (r xi') - 4 t^2 r^p sinh 2 xi|, x = log r, with p = 3 at the
    simple zero and p = 1 at either pole; the derivative is central-differenced
    on the radial nodes.  The weak pole has a constant A and a diagonal Phi, so
    F = 0 and [Phi, Phi*] = 0: its profile xi = 0 makes the residual exactly
    0.  Restricting to a radial ``window`` measures the same sup on a
    sub-annulus (the glue module uses this where the residual of a glued
    metric is supported).
    """
    r = sample.r
    nodes = residual_nodes(r, window)
    # difference r*xi' rather than F = (c + r*xi')/4: the constant c is
    # the limiting connection (curvature-free) and would anchor an
    # absolute eps/h rounding floor that swamps exponentially small
    # profiles; dropping it analytically keeps the evaluation accurate
    # relative to the local profile magnitude
    two_f_x = 0.5 * fd_first(np.log(r), r * sample.dxi)
    p = 3 if sample.case.kind is CaseKind.SIMPLE_ZERO else 1
    vals = np.abs(two_f_x - 4.0 * sample.t**2 * r**p * np.sinh(2.0 * sample.xi))
    return float(np.max(vals[nodes]))


def mphi_eigenvalues(case: LocalCase, r: float, xi: float = 0.0):
    """Eigenvalues of the Higgs-field bracket operator -i * M_Phi at radius r.

    ``xi`` is the exponent profile (ell or m) at r; the weak pole has none.
    The operator holds no t (the self-duality equation multiplies the
    bracket by t^2), so t enters only through the profile value xi.

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
