"""Cutoff gluing of the fiducial metrics and the exponential error law.

The approximate metric replaces the exponent profile xi (ell_t or m_t) by
xi * chi for a smooth cutoff chi that is exactly 1 below r_on and exactly 0
above r_off, so the glued fields coincide bitwise with the fiducial
solution on the inner region and with the power-law limiting configuration
on the outer region.  The self-duality residual is then supported on the
transition annulus and decays exponentially in t; ``decay_sweep``
measures its sup there over a sweep in t, and ``fit_exponential_decay``
extracts the rate.  ``approx_residual`` is the sweep's one-t case.  A sweep
checks its grid, picks the nodes the residual reads (``fiducial.residual_nodes``
with a halo, and the grid ends) and evaluates the cutoff there once; the
profiles are evaluated only at those nodes, from one collocation per run of
t values whose profile intervals share an inner end
(``painleve.ell_profiles``/``m_profiles``).  A radial grid is a plain array
of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fiducial import (
    RESIDUAL_SKIP,
    CaseKind,
    FieldSample,
    LocalCase,
    assemble_fields,
    check_nodes,
    fiducial_fields,
    hitchin_residual,
    polar_grid,
    profile_sweep,
    residual_nodes,
)

__all__ = [
    "CutoffSpec",
    "DecayFit",
    "cutoff",
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


def cutoff(spec: CutoffSpec, r):
    """The C-infinity cutoff chi and d chi/dr at r: chi is exactly 1 for r <= r_on, exactly 0 for r >= r_off.

    chi = f(a) / (f(a) + f(b)) with a = (r_off - r)/w, b = (r - r_on)/w,
    f(x) = exp(-1/x) and w = r_off - r_on; monotone nonincreasing.  d chi/dr
    is exact, by the quotient rule on the bump pair, and 0 outside the
    annulus.  ``r`` must be nonnegative (ValueError otherwise); a scalar
    gives two floats.
    """
    r = np.asarray(r, dtype=float)  # a NaN radius fails the check too
    if not np.all(r >= 0):
        raise ValueError("r must be nonnegative")
    w = spec.r_off - spec.r_on
    chi = np.array(r <= spec.r_on, dtype=float)
    dchi = np.zeros_like(r)
    mid = (r > spec.r_on) & (r < spec.r_off)
    a = (spec.r_off - r[mid]) / w
    b = (r[mid] - spec.r_on) / w
    fa, fb = np.exp(-1.0 / a), np.exp(-1.0 / b)
    chi[mid] = fa / (fa + fb)
    dfa = -fa / (a * a) / w  # d/dr f((r_off - r)/w)
    dfb = fb / (b * b) / w
    dchi[mid] = (dfa * fb - fa * dfb) / (fa + fb) ** 2
    return (float(chi), float(dchi)) if r.ndim == 0 else (chi, dchi)


def _check_gluable(case: LocalCase, r: np.ndarray, spec: CutoffSpec) -> None:
    """ValueError unless the case has a profile to cut off and r covers the annulus."""
    if case.kind is CaseKind.WEAK_POLE:
        raise ValueError("the weak-pole model is exact; nothing to glue")
    if r[-1] < spec.r_off:
        raise ValueError("grid must cover the transition annulus (0, r_off]")


def _glued(case: LocalCase, t: float, r: np.ndarray, xi, dxi, chi, dchi) -> FieldSample:
    """The model with exponent profile xi chi at the nodes r; the F-functions pick up the xi d chi/dr term."""
    return assemble_fields(case, t, r, xi * chi, dxi * chi + xi * dchi)


def approx_metric(
    case: LocalCase,
    t: float,
    r: np.ndarray,
    spec: CutoffSpec = CutoffSpec(),
) -> FieldSample:
    """Glued fields: the fiducial exponent profile multiplied by the cutoff.

    Equals the fiducial solution bitwise for r <= r_on and the limiting
    power-law configuration for r >= r_off; the F-functions pick up the
    d(xi chi)/dr term.
    """
    _check_gluable(case, r, spec)
    fiducial = fiducial_fields(case, t, r)
    return _glued(case, t, fiducial.r, fiducial.xi, fiducial.dxi, *cutoff(spec, fiducial.r))


def _annulus_residuals(case: LocalCase, t_values, spec: CutoffSpec, r: np.ndarray | None):
    """The glued metric's annulus residual at each t of ``t_values`` in turn, on r (default 4096 nodes from ``polar_grid``).

    The read nodes are the annulus nodes of ``residual_nodes`` with a halo
    of ``RESIDUAL_SKIP`` nodes each side, so that each keeps its
    central-difference neighbours, and both grid ends, which set the
    profiles' collocation intervals.
    """
    r = check_nodes(polar_grid(n_r=4096) if r is None else r)
    window = (spec.r_on, spec.r_off)
    inside = residual_nodes(r, window)
    _check_gluable(case, r, spec)
    read = np.zeros(len(r), dtype=bool)
    read[[0, -1]] = True
    read[inside[0] - RESIDUAL_SKIP : inside[-1] + RESIDUAL_SKIP + 1] = True
    nodes = r[read]
    chi, dchi = cutoff(spec, nodes)
    for t, (xi, dxi) in zip(t_values, profile_sweep(case, t_values, nodes)):
        yield hitchin_residual(_glued(case, t, nodes, xi, dxi, chi, dchi), window)


def approx_residual(
    case: LocalCase,
    t: float,
    spec: CutoffSpec = CutoffSpec(),
    r: np.ndarray | None = None,
) -> float:
    """Self-duality residual of the glued metric, sup over the cutoff annulus.

    In exact arithmetic the residual vanishes off [r_on, r_off] (fiducial
    solution inside, limiting configuration outside), so the annulus sup
    equals the global sup; restricting the measured sup keeps the deep
    interior's rounding floor out of the exponentially small signal.

    The one-t case of :func:`decay_sweep`: the glued profile is evaluated
    only at the nodes of r (default 4096 from ``polar_grid``) that the
    residual reads, the annulus with a two-node halo and both grid ends, and
    the result equals the glued metric's residual on all of r bit for bit.
    """
    return next(_annulus_residuals(case, [t], spec, r))


def decay_sweep(
    case: LocalCase,
    t_values,
    spec: CutoffSpec = CutoffSpec(),
    r: np.ndarray | None = None,
):
    """(t, residual) samples of the glued-metric error over a t sweep.

    Checks the grid, and finds the nodes the residual reads and the cutoff
    there, once.  Consecutive t values whose profile intervals share the
    inner end min(0.02, rho_t(r_0)) share one collocation
    (``painleve.ell_profiles``/``m_profiles``).  On the default grid that is
    every pole t up to 93: rho_t(r_0) = 8 t r_0^(1/2) > 0.02, and
    rho_t(1) = 8t stays below ``painleve.RHO_UNDERFLOW``.  Each simple-zero
    t below 238 keeps its own collocation, since its
    rho_t(r_0) = (8/3) t r_0^(3/2) < 0.02 moves with t.  A t collocated on
    its own interval gets exactly :func:`approx_residual`; the others move
    by rounding and the outer row's e^(-2 rho_max) defect (at most 2.7e-10
    relative on the criterion-5 sweeps).

    The residual decays like exp(-mu t) and underflows to 0 at large t,
    where no log-linear fit can read it; the sweep stops there with
    ``DegenerateFitError`` rather than solve the rest of the t values.
    """
    t_values = [float(t) for t in t_values]
    if any(b <= a for a, b in zip(t_values, t_values[1:])):
        raise ValueError("t values must be strictly increasing")
    samples = []
    for t, e in zip(t_values, _annulus_residuals(case, t_values, spec, r)):
        if e == 0.0:
            before = f"last positive at t = {samples[-1][0]:g}" if samples else "no earlier t"
            raise DegenerateFitError(f"glued residual underflows to 0 at t = {t:g} ({before})")
        samples.append((t, e))
    return samples


@dataclass
class DecayFit:
    """Least-squares fit of residual ~ c exp(-mu t)."""

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
    return DecayFit(c=float(np.exp(coef[1])), mu=float(-coef[0]), r2=r2)
