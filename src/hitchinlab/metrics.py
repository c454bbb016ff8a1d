"""Sampled metric tensors in coordinate blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MetricComponents"]


@dataclass
class MetricComponents:
    """Symmetric metric coefficients g_ij sampled on a grid.

    ``coords`` labels the coordinate basis (e.g. ("r", "theta", "x", "y"));
    ``g`` has shape (..., k, k) with k = len(coords), symmetric per node.
    """

    coords: tuple
    g: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        k = len(self.coords)
        if self.g.shape[-2:] != (k, k):
            raise ValueError(f"matrix block must be {k}x{k}")
        if not np.allclose(self.g, np.swapaxes(self.g, -1, -2), rtol=0, atol=1e-12 * max(1.0, float(np.max(np.abs(self.g))))):
            raise ValueError("metric blocks must be symmetric")

    def is_positive_definite(self) -> bool:
        try:
            np.linalg.cholesky(self.g)
            return True
        except np.linalg.LinAlgError:
            return False
