"""The grid toolkit: the band storage of 3-point operators, and the shared Chebyshev tools."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded

from hitchinlab.grids import chebyshev, chebyshev_vandermonde, fd_first_boundary, interior_weights
from hitchinlab.oracles import banded_three_point


def random_system(seed: int, n: int, grading: float):
    """A 3-point operator with one-sided Robin rows on a graded grid.

    The interior rows are a second difference, a convection term of local
    cell Peclet number up to 2.5 (negative off-diagonals, so some rows are not
    diagonally dominant) and a diagonal shift of 1 to 10 times the local
    second-difference scale, which keeps the condition number bounded in n.
    The two rows next to the corners keep the positive second-difference
    off-diagonals.  The Robin coefficients take either sign.
    """
    rng = np.random.default_rng(seed)
    # spacings grow geometrically by ``grading`` from the first cell to the last
    cells = np.concatenate([[0.0], np.cumsum(grading ** np.linspace(0.0, 1.0, n - 1))])
    x = rng.uniform(-5.0, 5.0) + rng.uniform(0.5, 20.0) * cells / cells[-1]
    (b_l, b_c, b_r), (a_l, a_c, a_r) = interior_weights(x)
    h = np.diff(x)
    drift = rng.uniform(-2.5, 2.5, n - 2) * 4.0 / (h[:-1] + h[1:])
    drift[[0, -1]] = 0.0
    shift = 10.0 ** rng.uniform(0.0, 1.0, n - 2)
    lower, diag, upper = a_l + drift * b_l, (a_c + drift * b_c) * (1.0 + shift), a_r + drift * b_r
    _, (w0, w1, w2) = fd_first_boundary(x, "left")
    _, (v0, v1, v2) = fd_first_boundary(x, "right")
    first = (w0 - rng.uniform(-3.0, 3.0) / h[0], w1, w2)
    last = (v0 - rng.uniform(-3.0, 3.0) / h[-1], v1, v2)
    return lower, diag, upper, first, last, rng.normal(size=n)


def oracle(lower, diag, upper, first, last, rhs):
    return solve_banded((2, 2), banded_three_point(lower, diag, upper, first, last), rhs)


def dense(lower, diag, upper, first, last):
    """The same operator as a dense matrix, row by row."""
    n = len(diag) + 2
    A = np.zeros((n, n))
    i = np.arange(1, n - 1)
    A[i, i - 1], A[i, i], A[i, i + 1] = lower, diag, upper
    A[0, [0, 1, 2]] = first
    A[-1, [n - 1, n - 2, n - 3]] = last
    return A


class TestSolveThreePoint:
    # the band storage of oracles.banded_three_point, which the per-mode
    # finite-difference oracle solves, against a dense solve

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 500),
        log_grading=st.floats(-3.0, 3.0),
    )
    def test_matches_band_solve(self, seed, n, log_grading):
        system = random_system(seed, n, 10.0**log_grading)
        x = np.linalg.solve(dense(*system[:5]), system[5])
        ref = oracle(*system)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_some_rows_not_diagonally_dominant(self):
        lower, diag, upper, *_ = random_system(0, 200, 10.0)
        assert np.any(np.abs(diag) < np.abs(lower) + np.abs(upper))

    @pytest.mark.parametrize("where", ["lower", "diag", "upper", "first", "last", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, where, bad):
        args = dict(zip(["lower", "diag", "upper", "first", "last", "rhs"], random_system(1, 40, 3.0)))
        value = np.array(args[where], dtype=float)
        value[len(value) // 2] = bad
        args[where] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            oracle(**args)

    def test_singular_system(self):
        lower, diag, upper, first, last, rhs = random_system(2, 40, 3.0)
        lower[10] = diag[10] = upper[10] = 0.0  # a zero row
        with pytest.raises(LinAlgError):
            oracle(lower, diag, upper, first, last, rhs)

    def test_input_left_unchanged(self):
        system = random_system(3, 30, 0.5)
        copies = [np.array(a, dtype=float) for a in system]
        oracle(*system)
        for a, b in zip(system, copies):
            assert np.array_equal(np.asarray(a, dtype=float), b)


class TestChebyshevToolkit:
    @pytest.mark.parametrize("n", [1, 4, 64, 128])
    def test_vandermonde_sums_the_series(self, n):
        # the recurrence builds numpy's Chebyshev-Vandermonde matrix on the
        # mapped interval, and its product with the cosine matrix
        # interpolates node values
        from numpy.polynomial import chebyshev as C

        a, b = np.log(0.02), np.log(600.0)
        x = np.linspace(a, b, 301)
        V = chebyshev_vandermonde(a, b, n, x)
        assert np.max(np.abs(V.T - C.chebvander((2.0 * x - a - b) / (b - a), n))) < 1e-13
        nodes, _, to_coeffs = chebyshev(a, b, n)
        f = np.cos(0.3 * nodes)
        assert np.max(np.abs((to_coeffs @ f) @ chebyshev_vandermonde(a, b, n, nodes) - f)) < 1e-13
