"""Cutoff gluing of the fiducial metrics and the exponential error law.

The approximate metric replaces the exponent profile xi (ell_t or m_t) by
xi * chi for a smooth cutoff chi that is exactly 1 below r_on and exactly 0
above r_off, so the glued fields coincide bitwise with the fiducial
solution on the inner region and with the power-law limiting configuration
on the outer region.  The self-duality residual is then supported on the
transition annulus and decays exponentially in t; ``approx_residual``
measures its sup there and ``fit_exponential_decay`` extracts the rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fiducial import (
    CaseKind,
    FieldSample,
    LocalCase,
    PolarGrid,
    assemble_fields,
    hitchin_residual,
    polar_grid,
)
from .painleve import ell_profile, m_profile

__all__ = [
    "CutoffSpec",
    "DecayFit",
    "cutoff_chi",
    "cutoff_chi_deriv",
    "approx_metric",
    "approx_residual",
    "decay_sweep",
    "fit_exponential_decay",
    "DegenerateFitError",
]


class DegenerateFitError(ValueError):
    """The decay samples carry no usable log-linear signal."""


@dataclass(frozen=True)
class CutoffSpec:
    """Transition annulus [r_on, r_off] of the gluing cutoff."""

    r_on: float = 0.5
    r_off: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.r_on < self.r_off < np.inf):
            raise ValueError(f"need 0 < r_on < r_off < inf, got r_on={self.r_on}, r_off={self.r_off}")


def _bump(x):
    """exp(-1/x) for x > 0, 0 otherwise; all orders vanish at 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _cutoff_radii(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)  # a NaN radius fails the check too
    if not np.all(r >= 0):
        raise ValueError("r must be nonnegative")
    return r


def cutoff_chi(spec: CutoffSpec, r):
    """C-infinity cutoff: exactly 1 for r <= r_on, exactly 0 for r >= r_off.

    chi = f((r_off - r)/w) / (f((r_off - r)/w) + f((r - r_on)/w)) with
    f(x) = exp(-1/x) and w = r_off - r_on; monotone nonincreasing.
    """
    r = _cutoff_radii(r)
    w = spec.r_off - spec.r_on
    up = _bump((spec.r_off - r) / w)
    dn = _bump((r - spec.r_on) / w)
    out = np.empty_like(r)
    lo = r <= spec.r_on
    hi = r >= spec.r_off
    mid = ~(lo | hi)
    out[lo] = 1.0
    out[hi] = 0.0
    out[mid] = up[mid] / (up[mid] + dn[mid])
    return float(out) if np.ndim(r) == 0 else out


def cutoff_chi_deriv(spec: CutoffSpec, r):
    """d chi / d r, exact (quotient rule on the bump pair); 0 outside the annulus."""
    r = _cutoff_radii(r)
    w = spec.r_off - spec.r_on
    out = np.zeros_like(r)
    mid = (r > spec.r_on) & (r < spec.r_off)
    if np.any(mid):
        a = (spec.r_off - r[mid]) / w  # argument of the numerator bump
        b = (r[mid] - spec.r_on) / w
        fa, fb = _bump(a), _bump(b)
        dfa = -fa / (a * a) / w  # d/dr f((r_off-r)/w)
        dfb = fb / (b * b) / w
        out[mid] = (dfa * fb - fa * dfb) / (fa + fb) ** 2
    return float(out) if np.ndim(r) == 0 else out


def approx_metric(
    case: LocalCase,
    t: float,
    grid: PolarGrid,
    spec: CutoffSpec = CutoffSpec(),
) -> FieldSample:
    """Glued fields: the fiducial exponent profile multiplied by the cutoff.

    Equals the fiducial solution bitwise for r <= r_on and the limiting
    power-law configuration for r >= r_off; the F-functions pick up the
    d(xi chi)/dr term.
    """
    if case.kind is CaseKind.WEAK_POLE:
        raise ValueError("the weak-pole model is exact; nothing to glue")
    if grid.r[-1] < spec.r_off:
        raise ValueError("grid must cover the transition annulus (0, r_off]")
    if case.kind is CaseKind.SIMPLE_ZERO:
        prof = ell_profile(t, grid.r)
    else:
        prof = m_profile(t, case.weights, grid.r)
    chi = cutoff_chi(spec, grid.r)
    dchi = cutoff_chi_deriv(spec, grid.r)
    xi = prof.values * chi
    dxi = prof.derivs * chi + prof.values * dchi
    return assemble_fields(case, t, grid, xi, dxi)


def approx_residual(
    case: LocalCase,
    t: float,
    spec: CutoffSpec = CutoffSpec(),
    grid: PolarGrid | None = None,
) -> float:
    """Self-duality residual of the glued metric, sup over the cutoff annulus.

    In exact arithmetic the residual vanishes off [r_on, r_off] (fiducial
    solution inside, limiting configuration outside), so the annulus sup
    equals the global sup; restricting the measured sup keeps the deep
    interior's rounding floor out of the exponentially small signal.
    """
    if grid is None:
        grid = polar_grid(n_r=4096)
    sample = approx_metric(case, t, grid, spec)
    return hitchin_residual(sample, window=(spec.r_on, spec.r_off))


def decay_sweep(
    case: LocalCase,
    t_values,
    spec: CutoffSpec = CutoffSpec(),
    grid: PolarGrid | None = None,
):
    """(t, residual) samples of the glued-metric error over a t sweep."""
    t_values = [float(t) for t in t_values]
    if sorted(t_values) != t_values:
        raise ValueError("t values must be increasing")
    return [(t, approx_residual(case, t, spec, grid)) for t in t_values]


@dataclass
class DecayFit:
    """Least-squares fit of residual ~ c exp(-mu t)."""

    samples: list
    c: float
    mu: float
    r2: float


def fit_exponential_decay(samples) -> DecayFit:
    """Ordinary least squares of log(e) on t for samples (t, e), e > 0."""
    samples = [(float(t), float(e)) for t, e in samples]
    if len(samples) < 4:
        raise ValueError("need at least 4 samples")
    t = np.array([s[0] for s in samples])
    e = np.array([s[1] for s in samples])
    if np.any(e <= 0):
        raise ValueError("residual samples must be positive")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t values must be strictly increasing")
    y = np.log(e)
    if np.ptp(y) < 1e-14:
        raise DegenerateFitError("all residuals equal; no decay to fit")
    A = np.column_stack([t, np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return DecayFit(samples, c=float(np.exp(coef[1])), mu=float(-coef[0]), r2=r2)
