"""Grid utilities: non-uniform finite differences and the Chebyshev toolkit.

The 3-point stencils below are exact on quadratics for arbitrary node
spacing; on smoothly graded (e.g. log-spaced) grids they are second-order
accurate.  ``fiducial.hitchin_residual`` differences the radial connection
coefficient r xi' with them, and ``oracles`` builds its matrix residual,
its banded finite-difference solves and its second difference from them.

Both radial solvers discretize by Chebyshev collocation (Trefethen,
*Spectral Methods in MATLAB*, SIAM 2000): ``painleve`` in x = log rho and
``lebrun`` in rho.  They share the Chebyshev-Gauss-Lobatto nodes of an
interval, the differentiation matrix, the cosine matrix taking node values
to Chebyshev coefficients, and the rule that sizes the node set
(:func:`chebyshev_solve`): start on ``CHEB_INTERVALS`` intervals and double
them while Newton fails or the trailing coefficients exceed
``CHEB_TAIL_TOL`` of the largest, up to ``CHEB_MAX_INTERVALS``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .special import ConvergenceError

__all__ = [
    "fd_first",
    "fd_first_boundary",
    "interior_weights",
    "chebyshev_nodes",
    "chebyshev",
    "chebyshev_vandermonde",
    "chebyshev_solve",
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


def fd_first(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First derivative along the last axis of y, interior central, one-sided 3-point at the ends."""
    y = np.asarray(y)
    out = np.empty_like(y)
    b_l, b_c, b_r = interior_weights(x)[0]
    out[..., 1:-1] = b_l * y[..., :-2] + b_c * y[..., 1:-1] + b_r * y[..., 2:]
    for side, end in (("left", 0), ("right", -1)):
        idx, w = fd_first_boundary(x, side)
        out[..., end] = w[0] * y[..., idx[0]] + w[1] * y[..., idx[1]] + w[2] * y[..., idx[2]]
    return out


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


# ----------------------------------------------------------------------
# Chebyshev collocation
# ----------------------------------------------------------------------

# A solve starts on CHEB_INTERVALS intervals and doubles them while Newton
# fails or the trailing n/8 Chebyshev coefficients of its solution exceed
# CHEB_TAIL_TOL of the largest one, up to CHEB_MAX_INTERVALS.  For lebrun,
# 64 intervals resolve the default rho_max = max(3 / lambda_T, 4) for |p0|
# up to about 1e7; a user-set rho_max of about 5 or more takes 128, and
# p0 = 1e300 (rho_max 31.5) takes 256.  For painleve, 64 resolve rho_max up
# to about 150 (every criterion-5 profile reaches 128), and 128 reach past
# rho_max = 1e6.
CHEB_INTERVALS = 64
CHEB_MAX_INTERVALS = 256
CHEB_TAIL_TOL = 1e-12


@lru_cache(maxsize=None)
def _chebyshev_standard(n: int):
    """-cos(j pi / n), j = 0..n, on [-1, 1], with the differentiation and cosine matrices there; read-only."""
    j = np.arange(n + 1)
    s = np.sin(0.5 * np.pi * (2 * j - n) / n)  # -cos(j pi / n), symmetric about 0
    ends = np.where((j == 0) | (j == n), 2.0, 1.0)
    c = ends * (-1.0) ** j
    D = np.outer(c, 1.0 / c) / (s[:, None] - s[None, :] + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    # a_k = (2/n) sum'' f_j T_k(s_j), T_k(s_j) = cos(k (n - j) pi / n); a_0, a_n halved
    to_coeffs = np.cos(np.pi * np.outer(j, n - j) / n) / np.outer(ends, ends) * (2.0 / n)
    for a in (s, D, to_coeffs):
        a.flags.writeable = False
    return s, D, to_coeffs


def chebyshev_nodes(a: float, b: float, n: int) -> np.ndarray:
    """The increasing Chebyshev-Gauss-Lobatto nodes a + (b - a)(1 - cos(j pi / n)) / 2, j = 0..n."""
    x = a + 0.5 * (b - a) * (_chebyshev_standard(n)[0] + 1.0)
    x[0], x[-1] = a, b
    return x


def chebyshev(a: float, b: float, n: int):
    """Chebyshev-Gauss-Lobatto nodes of [a, b] with n intervals, and their matrices.

    Returns the nodes of :func:`chebyshev_nodes`, the differentiation
    matrix D of the interpolant through them (Trefethen, ``cheb``, with the
    negative row sums on the diagonal), and the (n + 1, n + 1) cosine
    matrix taking node values to the interpolant's Chebyshev coefficients
    on [a, b].  The matrices on [-1, 1] are memoized per n; the cosine
    matrix is that one, read-only.
    """
    _, D, to_coeffs = _chebyshev_standard(n)
    return chebyshev_nodes(a, b, n), D * (2.0 / (b - a)), to_coeffs


def chebyshev_vandermonde(a: float, b: float, n: int, x: np.ndarray) -> np.ndarray:
    """(n + 1, len(x)) matrix of T_0..T_n on [a, b] at x, by the three-term recurrence.

    Coefficients (k along the last axis) times it sum their series at x;
    the error is about eps times the sum of their magnitudes, an absolute
    error, since |T_k| <= 1 on [a, b].  Row k is T_k, so the product is one
    contiguous matrix product.
    """
    s = (2.0 * np.asarray(x, dtype=float) - (a + b)) / (b - a)
    V = np.empty((n + 1, len(s)))
    V[0] = 1.0
    if n:
        V[1] = s
    s2 = 2.0 * s
    for k in range(2, n + 1):
        np.multiply(s2, V[k - 1], out=V[k])
        V[k] -= V[k - 2]
    return V


def chebyshev_solve(solve_on):
    """Size a Chebyshev solve by doubling its intervals.

    ``solve_on(n)`` solves on n intervals and returns (solution, its
    Chebyshev coefficients along the last axis).  Starting at
    ``CHEB_INTERVALS``, the intervals double while ``solve_on`` raises
    ``ConvergenceError`` or the trailing n/8 coefficients exceed
    ``CHEB_TAIL_TOL`` of the largest one; past ``CHEB_MAX_INTERVALS`` the
    error is raised.  Returns (solution, n).
    """
    n = CHEB_INTERVALS
    while True:
        try:
            out, coeffs = solve_on(n)
            spectrum = np.abs(coeffs)
            if np.max(spectrum[..., -(n // 8):], initial=0.0) <= CHEB_TAIL_TOL * np.max(spectrum, initial=0.0):
                return out, n
            raise ConvergenceError(f"radial Chebyshev tail above {CHEB_TAIL_TOL:.0e} at {n} intervals")
        except ConvergenceError:
            if n >= CHEB_MAX_INTERVALS:
                raise
        n *= 2
