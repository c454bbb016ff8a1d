"""Radial profile container shared by the ODE solvers and the field builders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline

__all__ = ["RadialProfile"]


@dataclass
class RadialProfile:
    """A scalar radial function with its first derivative on an increasing grid.

    ``sigma`` is the log-slope at the origin: values ~ sigma * log(r) as
    r -> 0 (for the profiles produced here; zero for identically-zero
    profiles).
    """

    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    sigma: float = 0.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if self.grid.ndim != 1 or np.any(np.diff(self.grid) <= 0) or self.grid[0] <= 0:
            raise ValueError("grid must be strictly increasing and positive")
        if self.values.shape != self.grid.shape or self.derivs.shape != self.grid.shape:
            raise ValueError("values/derivs must match the grid")

    def _spline(self):
        return CubicHermiteSpline(self.grid, self.values, self.derivs)

    def _check_domain(self, r):
        r = np.asarray(r, dtype=float)
        tol = 1e-12 * self.grid[-1]
        if np.any(r < self.grid[0] - tol) or np.any(r > self.grid[-1] + tol):
            raise ValueError(
                f"radius outside profile domain [{self.grid[0]}, {self.grid[-1]}]"
            )
        return np.clip(r, self.grid[0], self.grid[-1])

    def value(self, r):
        """Profile value at r (cubic Hermite interpolation, exact at nodes)."""
        r = self._check_domain(r)
        out = self._spline()(r)
        return float(out) if out.ndim == 0 else out

    def deriv(self, r):
        """First derivative at r."""
        r = self._check_domain(r)
        out = self._spline().derivative()(r)
        # Hermite data is exact at the nodes; prefer the stored derivative there.
        idx = np.searchsorted(self.grid, np.atleast_1d(r))
        idx = np.clip(idx, 0, len(self.grid) - 1)
        at_node = np.isclose(np.atleast_1d(r), self.grid[idx], rtol=0, atol=1e-14)
        out = np.atleast_1d(out)
        out[at_node] = self.derivs[idx[at_node]]
        return float(out[0]) if np.isscalar(r) or np.asarray(r).ndim == 0 else out
