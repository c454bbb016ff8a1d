"""Radial sinh-Gordon solver and fiducial profiles."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from hitchinlab import painleve
from hitchinlab.grids import fd_first, fd_second
from hitchinlab.oracles import shooting_solution, tail_amplitude
from hitchinlab.painleve import (
    RHO_INNER_TARGET,
    GridCoarseWarning,
    ParabolicWeights,
    RadialProfile,
    ell_profile,
    m_profile,
    ode_residual,
    solve_mtw,
)
from hitchinlab.special import bessel_k


def log_frame_residual(grid, values, gfun):
    """|m_xx - g(r) sinh(2m)| at interior nodes, x = log grid."""
    x = np.log(grid)
    res = fd_second(x, values) - gfun * np.sinh(2.0 * values)
    return np.max(np.abs(res[1:-1]))


class TestSolveMTW:
    def test_sigma_zero_trivial(self):
        p = solve_mtw(0.0, 1e-3, 15.0, 128)
        assert np.all(p.values == 0.0)
        assert ode_residual(p) == 0.0

    def test_derivs_are_fd_first_bit_for_bit(self):
        # the Newton solve returns m_x from the stencils of fd_first itself
        p = solve_mtw(-0.4, 1e-3, 15.0, 512, check_grid=False)
        assert np.array_equal(p.derivs, fd_first(np.log(p.grid), p.values) / p.grid)
        solves, solve = [], painleve._solve

        def recording(sigma, rho):
            m, m_x = solve(sigma, rho)
            solves.append((np.log(rho), m, m_x))
            return m, m_x

        with mock.patch.object(painleve, "_solve", recording):
            r = np.geomspace(1e-3, 1.0, 300)
            ell_profile(4.0, r)
            m_profile(4.0, ParabolicWeights(0.2, 0.8), r)
        assert len(solves) == 2
        for x, m, m_x in solves:
            assert np.array_equal(m_x, fd_first(x, m))

    def test_reference_sigma(self):
        p = solve_mtw(-1.0 / 3.0, 1e-3, 15.0, 1024)
        assert np.all(p.values > 0)
        assert np.all(np.diff(p.values) < 0)
        assert ode_residual(p) < 1e-8

    def test_shooting_oracle(self):
        p = solve_mtw(-1.0 / 3.0, 1e-3, 15.0, 2048, check_grid=False)
        sh = shooting_solution(-1.0 / 3.0, p.grid)
        assert np.max(np.abs(sh - p.values)) < 1e-5

    def test_tail_is_bessel_shaped(self):
        # m/K0 settles to a constant; for the simple-zero slope the measured
        # amplitude is 1/pi (the fiducial tail normalization)
        p = solve_mtw(-1.0 / 3.0, 1e-3, 15.0, 2048, check_grid=False)
        amp, spread = tail_amplitude(p)
        assert spread < 0.01
        assert amp == pytest.approx(1.0 / np.pi, rel=5e-3)

    def test_tail_amplitude_tracks_connection_formula(self):
        # measured, not asserted by the profile builders: the family's tail
        # amplitude follows (2/pi) sin(-pi sigma / 2)
        for sigma in (-0.2, 0.6):
            p = solve_mtw(sigma, 1e-3, 15.0, 2048, check_grid=False)
            amp, _ = tail_amplitude(p)
            assert amp == pytest.approx(2.0 / np.pi * np.sin(-np.pi * sigma / 2.0), rel=5e-3)

    def test_refinement_second_order(self):
        sols = {}
        for n in (512, 1024, 2048):
            sols[n] = solve_mtw(-0.4, 1e-3, 15.0, n, check_grid=False)
        d1 = np.max(np.abs(CubicSpline(sols[1024].grid, sols[1024].values)(sols[512].grid) - sols[512].values))
        d2 = np.max(np.abs(CubicSpline(sols[2048].grid, sols[2048].values)(sols[1024].grid) - sols[1024].values))
        order = np.log2(d1 / d2)
        assert 1.7 < order < 2.3

    def test_odd_symmetry(self):
        plus = solve_mtw(0.35, 0.01, 12.0, 512, check_grid=False)
        minus = solve_mtw(-0.35, 0.01, 12.0, 512, check_grid=False)
        assert np.max(np.abs(plus.values + minus.values)) < 1e-12

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_coarse_grid_warning(self):
        with pytest.warns(GridCoarseWarning):
            solve_mtw(-0.6, 1e-3, 15.0, 64)

    def test_sign_change_warning(self, monkeypatch):
        # the decaying solution keeps one sign; a solver output that does not
        # is flagged, and sigma = 0 (the zero solution, no Newton step) is not
        with monkeypatch.context() as patch:
            patch.setattr(
                painleve, "_solve", lambda sigma, rho: (np.linspace(-1.0, 1.0, len(rho)), np.ones(len(rho)))
            )
            with pytest.warns(UserWarning, match="changes sign"):
                solve_mtw(-0.3, 1e-3, 15.0, 64, check_grid=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_mtw(0.0, 1e-3, 15.0, 64, check_grid=False)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_mtw(1.2, 1e-3, 15.0, 128)
        with pytest.raises(ValueError):
            solve_mtw(0.3, 1.0, 0.5, 128)
        with pytest.raises(ValueError):
            solve_mtw(0.3, 1e-3, 15.0, 32)


class TestOdeResidual:
    def test_zero_profile(self):
        grid = np.geomspace(0.1, 10, 200)
        p = RadialProfile(grid, np.zeros(200), np.zeros(200), 0.0)
        assert ode_residual(p) == 0.0

    def test_converged_output(self):
        p = solve_mtw(-0.2, 1e-3, 15.0, 512, check_grid=False)
        assert ode_residual(p) < 1e-8

    def test_single_node_perturbation(self):
        p = solve_mtw(-0.2, 1e-3, 15.0, 512, check_grid=False)
        vals = p.values.copy()
        vals[len(vals) // 2] += 0.01
        q = RadialProfile(p.grid, vals, p.derivs, -0.2)
        assert ode_residual(q) > 1e-3


class TestParabolicWeights:
    def test_validation(self):
        ParabolicWeights(0.2, 0.8)
        with pytest.raises(ValueError):
            ParabolicWeights(0.5, 0.5)
        with pytest.raises(ValueError):
            ParabolicWeights(0.8, 0.2)
        with pytest.raises(ValueError):
            ParabolicWeights(0.2, 0.7)


class TestEllProfile:
    def test_ode_residual(self):
        t = 4.0
        r = np.geomspace(1e-3, 1.0, 800)
        ell = ell_profile(t, r)
        assert log_frame_residual(r, ell.values, 8.0 * t**2 * r**3) < 1e-6

    def test_log_singularity_bounded(self):
        ell = ell_profile(4.0, np.geomspace(1e-3, 1.0, 600))
        shifted = ell.values + 0.5 * np.log(ell.grid)
        assert np.max(np.abs(shifted[: len(shifted) // 3])) < 2.0

    @pytest.mark.parametrize("t", [1.0, 4.0, 16.0])
    def test_shooting_oracle(self, t):
        # rho(1e-3) <= 0.02 for these t, so the solve runs on r itself
        r = np.geomspace(1e-3, 1.0, 4096)
        ell = ell_profile(t, r)
        sh = shooting_solution(-1.0 / 3.0, (8.0 / 3.0) * t * r**1.5)
        assert np.max(np.abs(sh - ell.values)) < 1e-6

    def test_t_doubling_covariance(self):
        r = np.geomspace(1e-3, 1.0, 700)
        lam = 2.0 ** (2.0 / 3.0)
        a = ell_profile(4.0, r)
        b = ell_profile(8.0, r / lam)
        assert np.max(np.abs(a.values - b.values)) < 1e-8

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            ell_profile(0.5, np.geomspace(1e-3, 1.0, 128))
        with pytest.raises(ValueError):
            ell_profile(4.0, np.geomspace(0.1, 2.0, 128))
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ell_profile(t, np.geomspace(1e-3, 1.0, 128))
            with pytest.raises(ValueError, match="finite"):
                m_profile(t, ParabolicWeights(0.2, 0.8), np.geomspace(1e-3, 1.0, 128))


class TestMProfile:
    def test_ode_residual(self):
        t = 4.0
        w = ParabolicWeights(0.2, 0.8)
        r = np.geomspace(1e-3, 1.0, 800)
        m = m_profile(t, w, r)
        assert log_frame_residual(r, m.values, 8.0 * t**2 * r) < 1e-6

    @pytest.mark.parametrize("alpha1", [0.2, 0.4])
    def test_shooting_oracle(self, alpha1):
        # rho(1e-7) = 32e-3.5 <= 0.02 at t = 4, so the solve runs on r itself
        w = ParabolicWeights(alpha1, 1.0 - alpha1)
        r = np.geomspace(1e-7, 1.0, 4096)
        m = m_profile(4.0, w, r)
        sh = shooting_solution(1.0 + 2.0 * w.difference, 32.0 * np.sqrt(r))
        assert np.max(np.abs(sh - m.values)) < 1e-6

    def test_near_zero_log_slope(self):
        # two-point log slope at the deep end; the additive constant in
        # m ~ sigma log r + c makes the raw ratio m/log r converge only
        # logarithmically, so the slope is what is testable
        w = ParabolicWeights(0.2, 0.8)
        r = np.geomspace(1e-8, 1.0, 1200)
        m = m_profile(1.0, w, r)
        slope = (m.values[1] - m.values[0]) / (np.log(r[1]) - np.log(r[0]))
        expected = 0.5 + w.difference
        assert slope == pytest.approx(expected, abs=0.02 * abs(expected))

    def test_sigma_zero_limit(self):
        w = ParabolicWeights(0.25, 0.75)  # difference -1/2 => zero profile
        m = m_profile(4.0, w, np.geomspace(1e-3, 1.0, 256))
        assert np.max(np.abs(m.values)) == 0.0
        with pytest.raises(ValueError):
            ParabolicWeights(0.5, 0.5)


class TestInwardExtension:
    @given(
        st.floats(min_value=1.0, max_value=64.0),
        st.integers(min_value=64, max_value=8192),
        st.sampled_from(["ell", "m"]),
        st.floats(min_value=0.05, max_value=0.45),
    )
    # t where rho lands within an ulp of the target on the last node, the
    # widest and narrowest grids, and the smallest pole slope
    @example(12.257903530758002, 64, "m", 0.2)
    @example(1.2257903530758072, 64, "m", 0.2)
    @example(64.0, 8192, "m", 0.05)
    @example(1.0, 64, "m", 0.45)
    @example(64.0, 8192, "ell", 0.2)
    @settings(max_examples=60)
    def test_closed_form_extension(self, t, n_r, kind, alpha1):
        r = np.geomspace(1e-3, 1.0, n_r)
        if kind == "ell":
            build, alpha = (lambda: ell_profile(t, r)), 1.5
        else:
            build, alpha = (lambda: m_profile(t, ParabolicWeights(alpha1, 1.0 - alpha1), r)), 0.5
        grids, solve = [], painleve._solve

        def recording(sigma, rho):
            grids.append(rho)
            return solve(sigma, rho)

        with mock.patch.object(painleve, "_solve", recording):
            build()
        (rho,) = grids
        n_ext = len(rho) - n_r
        # the extension continues the requested grid's log step, which is
        # (r_1/r_0)^alpha in rho
        step = np.log(rho[1:]) - np.log(rho[:-1])
        assert np.allclose(step, alpha * np.log(r[1] / r[0]), rtol=1e-9, atol=0.0)
        # it stops at the first node inside the target, and not one later
        assert rho[0] <= RHO_INNER_TARGET * (1.0 + 1e-12)
        if n_ext > 0:
            assert rho[1] > RHO_INNER_TARGET * (1.0 - 1e-12)
        # at r_min = 1e-3 the simple zero's rho = (8/3) t 10^-4.5 stays below
        # 0.02 for t <= 64, so it needs no extension; the pole always does
        assert (n_ext == 0) == (kind == "ell")
