"""Grid utilities: non-uniform finite differences and the 3-point solve.

The 3-point stencils below are exact on quadratics for arbitrary node
spacing; on smoothly graded (e.g. log-spaced) grids they are second-order
accurate.  The same stencils are used by the solvers and by the residual
checks, so a converged solve has a matching discrete residual by
construction.  An operator built from them is tridiagonal except for one
corner entry in each one-sided boundary row.  :func:`solve_three_point`
solves a real one directly, folding each corner into its neighbouring row
and calling the tridiagonal LAPACK ``dgtsv``, which is what ``painleve``'s
Newton steps use.  ``oracles.banded_three_point`` stores the same operator
as a (2, 2) band for the general band solve the tests compare against.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

__all__ = [
    "fd_first",
    "fd_second",
    "fd_first_boundary",
    "interior_weights",
    "solve_three_point",
    "cumulative_from_right",
]


def interior_weights(x: np.ndarray):
    """3-point weights of the first and second derivative at interior nodes.

    Returns ((b_l, b_c, b_r), (a_l, a_c, a_r)), arrays of length len(x) - 2:
    y'(x_i) ~ b_l y_{i-1} + b_c y_i + b_r y_{i+1} and likewise a for y''.
    """
    x = np.asarray(x, dtype=float)
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("grid must be strictly increasing")
    hl, hr = h[:-1], h[1:]
    first = (-hr / (hl * (hl + hr)), (hr - hl) / (hl * hr), hl / (hr * (hl + hr)))
    second = (2.0 / (hl * (hl + hr)), -2.0 / (hl * hr), 2.0 / (hr * (hl + hr)))
    return first, second


def _apply(weights, y: np.ndarray) -> np.ndarray:
    w_l, w_c, w_r = weights
    return w_l * y[..., :-2] + w_c * y[..., 1:-1] + w_r * y[..., 2:]


def fd_first(x: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """First derivative, interior central, one-sided 3-point at the ends."""
    y = np.moveaxis(np.asarray(y), axis, -1)
    out = np.empty_like(y)
    out[..., 1:-1] = _apply(interior_weights(x)[0], y)
    for side, end in (("left", 0), ("right", -1)):
        idx, w = fd_first_boundary(x, side)
        out[..., end] = w[0] * y[..., idx[0]] + w[1] * y[..., idx[1]] + w[2] * y[..., idx[2]]
    return np.moveaxis(out, -1, axis)


def fd_first_boundary(x: np.ndarray, side: str):
    """One-sided 3-point first-derivative weights at an endpoint.

    Returns (indices, weights) into the full grid.
    """
    x = np.asarray(x, dtype=float)
    if side == "left":
        i0, i1, i2 = 0, 1, 2
    elif side == "right":
        i0, i1, i2 = len(x) - 1, len(x) - 2, len(x) - 3
    else:
        raise ValueError("side must be 'left' or 'right'")
    a, b = x[i1] - x[i0], x[i2] - x[i0]
    w0 = -(a + b) / (a * b)
    w1 = b / (a * (b - a))
    w2 = -a / (b * (b - a))
    return (i0, i1, i2), (w0, w1, w2)


def fd_second(x: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Second derivative at interior nodes; endpoints copy their neighbours.

    Endpoint values are placeholders only; every consumer restricts to
    interior nodes.
    """
    y = np.moveaxis(np.asarray(y), axis, -1)
    out = np.empty_like(y)
    out[..., 1:-1] = _apply(interior_weights(x)[1], y)
    out[..., 0] = out[..., 1]
    out[..., -1] = out[..., -2]
    return np.moveaxis(out, -1, axis)


def solve_three_point(lower, diag, upper, first, last, rhs) -> np.ndarray:
    """Solve a real 3-point operator with one-sided end rows against ``rhs``.

    Interior row i (1 <= i <= n-2) holds lower[i-1], diag[i-1], upper[i-1] in
    columns i-1, i, i+1; row 0 holds the weights ``first`` in columns 0, 1, 2
    and row n-1 the weights ``last`` in columns n-1, n-2, n-3, the index
    order of :func:`fd_first_boundary`.

    Row 0's entry in column 2 is eliminated against interior row 1, and row
    n-1's entry in column n-3 against row n-2; that leaves a tridiagonal
    system for one LAPACK ``dgtsv`` (Gaussian elimination with partial
    pivoting).  The pivots of the two eliminations are upper[0] and
    lower[-1], which must be nonzero; for second-difference weights on a
    strictly increasing grid they are positive.  As ``solve_banded``, it
    raises ValueError for a non-finite operator or right-hand side and
    LinAlgError for a singular system.
    """
    lower, diag, upper, rhs, corners = (
        np.asarray(a, dtype=float) for a in (lower, diag, upper, rhs, (*first, *last))
    )
    if not all(np.isfinite(a).all() for a in (lower, diag, upper, rhs, corners)):
        raise ValueError("array must not contain infs or NaNs")
    f0, f1, f2, l0, l1, l2 = corners
    n = len(diag) + 2
    b = rhs.copy()
    c = f2 / upper[0]
    b[0] -= c * b[1]
    e = l2 / lower[-1]
    b[-1] -= e * b[-2]
    d = np.empty(n)
    d[0], d[1:-1], d[-1] = f0 - c * lower[0], diag, l0 - e * upper[-1]
    du = np.empty(n - 1)
    du[0], du[1:] = f1 - c * diag[0], upper
    dl = np.empty(n - 1)
    dl[:-1], dl[-1] = lower, l1 - e * diag[-1]
    *_, x, info = dgtsv(dl, d, du, b, True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def cumulative_from_right(x: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Trapezoid cumulative integral C(x_i) = int_{x_i}^{x_N} y dx."""
    x = np.asarray(x, dtype=float)
    y = np.moveaxis(np.asarray(y), axis, -1)
    seg = 0.5 * np.diff(x) * (y[..., :-1] + y[..., 1:])
    out = np.zeros_like(y)
    out[..., :-1] = seg[..., ::-1].cumsum(axis=-1)[..., ::-1]
    return np.moveaxis(out, -1, axis)
