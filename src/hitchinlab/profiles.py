"""The one radial profile container: the sinh-Gordon solves return it, the field builders read it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
