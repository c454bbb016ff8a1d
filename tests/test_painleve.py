"""Radial sinh-Gordon solver and fiducial profiles."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hitchinlab import grids, painleve
from hitchinlab.fiducial import polar_grid
from hitchinlab.grids import fd_first
from hitchinlab.oracles import fd_second, shooting_solution, tail_amplitude
from hitchinlab.painleve import (
    RHO_INNER_TARGET,
    ParabolicWeights,
    ell_profile,
    m_profile,
    solve_mtw,
)
from hitchinlab.special import ConvergenceError, bessel_k


def log_frame_residual(grid, values, gfun):
    """|m_xx - g(r) sinh(2m)| at interior nodes, x = log grid."""
    x = np.log(grid)
    res = fd_second(x, values) - gfun * np.sinh(2.0 * values)
    return np.max(np.abs(res[1:-1]))


def shooting_from_inner_point(sigma, rho):
    """The shooting oracle on ``rho``, shot to the solve's inner point min(RHO_INNER_TARGET, rho[0])."""
    if rho[0] <= RHO_INNER_TARGET:
        return shooting_solution(sigma, rho)
    return shooting_solution(sigma, np.r_[RHO_INNER_TARGET, rho])[1:]


def relative_error(values, reference):
    return np.max(np.abs(values / reference - 1.0))


def residual_order(profile, gfun):
    """Convergence order of the log-frame finite-difference residual of an exact profile, 800 -> 1600 nodes."""
    res = []
    for n in (800, 1600):
        r = np.geomspace(1e-3, 1.0, n)
        res.append(log_frame_residual(r, profile(r)[0], gfun(r)))
    return math.log2(res[0] / res[1])


class TestSolveMTW:
    def test_sigma_zero_trivial(self):
        m, dm = solve_mtw(0.0, np.geomspace(1e-3, 15.0, 128))
        assert np.all(m == 0.0)
        assert np.all(dm == 0.0)

    def test_derivs_are_the_derivative(self):
        # the boundary rows hold to rounding, m_x = sigma at the inner end and
        # m_x = -(rho K_1/K_0) m at rho_max, and a second-order difference of
        # the values converges to m_x at second order
        sigma = -0.4
        rho = np.geomspace(1e-3, 15.0, 512)
        m, dm = solve_mtw(sigma, rho)
        assert rho[0] * dm[0] == pytest.approx(sigma, abs=1e-11)
        tail = -15.0 * bessel_k(1, 15.0) / bessel_k(0, 15.0)
        assert rho[-1] * dm[-1] / m[-1] == pytest.approx(tail, rel=1e-11)
        errs = []
        for n in (1024, 2048):
            rho = np.geomspace(1e-3, 15.0, n)
            m, dm = solve_mtw(sigma, rho)
            errs.append(np.max(np.abs(fd_first(np.log(rho), m) - rho * dm)))
        assert 1.9 < math.log2(errs[0] / errs[1]) < 2.1

    def test_reference_sigma(self):
        m, dm = solve_mtw(-1.0 / 3.0, np.geomspace(1e-3, 15.0, 1024))
        assert np.all(m > 0)
        assert np.all(np.diff(m) < 0)
        assert np.all(dm < 0)

    def test_shooting_oracle(self):
        rho = np.geomspace(1e-3, 15.0, 2048)
        m, _ = solve_mtw(-1.0 / 3.0, rho)
        sh = shooting_solution(-1.0 / 3.0, rho)
        assert np.max(np.abs(sh - m)) < 1e-9
        assert relative_error(m, sh) < 1e-9

    @pytest.mark.parametrize("sigma, rho_max", [(-0.998, 600.0), (-1.0 / 3.0, 300.0), (0.6, 100.0)])
    def test_large_rho_max_relative_accuracy(self, sigma, rho_max):
        # q = m/K_0 carries the exponentially small tail with relative
        # accuracy; 300 and 600 take 128 intervals by the tail rule.  Each
        # slope and each rho_max is paired once: a shot to rho = 600 takes 2-3 s
        rho = np.geomspace(RHO_INNER_TARGET, rho_max, 2000)
        m, _ = solve_mtw(sigma, rho)
        tail = rho >= 1.0
        assert relative_error(m[tail], shooting_solution(sigma, rho)[tail]) < 1e-8

    def test_unresolved_tail_past_the_cap(self, monkeypatch):
        # rho_max = 300 needs 128 intervals; capped at 64 the tail rule raises
        rho = np.geomspace(RHO_INNER_TARGET, 300.0, 200)
        monkeypatch.setattr(grids, "CHEB_MAX_INTERVALS", 64)
        with pytest.raises(ConvergenceError, match="Chebyshev tail"):
            solve_mtw(-1.0 / 3.0, rho)

    def test_doubled_intervals_agree(self, monkeypatch):
        # the tail rule's 64 intervals are converged: 128 move q by rounding only
        rho = np.geomspace(1e-3, 15.0, 512)
        m, _ = solve_mtw(-0.4, rho)
        monkeypatch.setattr(grids, "CHEB_INTERVALS", 128)
        assert relative_error(m, solve_mtw(-0.4, rho)[0]) < 1e-11

    def test_tail_is_bessel_shaped(self):
        # m/K0 settles to a constant; for the simple-zero slope the measured
        # amplitude is 1/pi (the fiducial tail normalization)
        rho = np.geomspace(1e-3, 15.0, 2048)
        amp, spread = tail_amplitude(rho, solve_mtw(-1.0 / 3.0, rho)[0])
        assert spread < 0.01
        assert amp == pytest.approx(1.0 / np.pi, rel=5e-3)

    def test_tail_amplitude_tracks_connection_formula(self):
        # measured, not asserted by the profile builders: the family's tail
        # amplitude follows (2/pi) sin(-pi sigma / 2)
        for sigma in (-0.2, 0.6):
            rho = np.geomspace(1e-3, 15.0, 2048)
            amp, _ = tail_amplitude(rho, solve_mtw(sigma, rho)[0])
            assert amp == pytest.approx(2.0 / np.pi * np.sin(-np.pi * sigma / 2.0), rel=5e-3)

    def test_odd_symmetry(self):
        rho = np.geomspace(0.01, 12.0, 512)
        plus, _ = solve_mtw(0.35, rho)
        minus, _ = solve_mtw(-0.35, rho)
        assert np.max(np.abs(plus + minus)) < 1e-12

    def test_sign_change_warning(self, monkeypatch):
        # the decaying solution keeps one sign; a solver output that does not
        # is flagged, and sigma = 0 (the zero solution, no Newton step) is not
        rho = np.geomspace(1e-3, 15.0, 64)
        with monkeypatch.context() as patch:
            patch.setattr(
                painleve, "_solve", lambda collocation, rho: (np.linspace(-1.0, 1.0, len(rho)), np.ones(len(rho)))
            )
            with pytest.warns(UserWarning, match="changes sign"):
                solve_mtw(-0.3, rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_mtw(0.0, rho)

    def test_validation(self):
        rho = np.geomspace(1e-3, 15.0, 128)
        with pytest.raises(ValueError):
            solve_mtw(1.2, rho)
        for bad in (rho[::-1], rho[:1], np.r_[rho, np.inf], np.r_[0.0, rho], rho.reshape(2, -1)):
            with pytest.raises(ValueError, match="nodes"):
                solve_mtw(0.3, bad)


class TestOdeResidual:
    # log_frame_residual, the finite-difference residual the profile tests read
    def test_zero_profile(self):
        grid = np.geomspace(0.1, 10, 200)
        assert log_frame_residual(grid, np.zeros(200), 0.5 * grid**2) == 0.0

    def test_single_node_perturbation(self):
        rho = np.geomspace(1e-3, 15.0, 512)
        vals, _ = solve_mtw(-0.2, rho)
        vals[len(vals) // 2] += 0.01
        assert log_frame_residual(rho, vals, 0.5 * rho**2) > 1e-3


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
        # the finite-difference residual of the exact profile is truncation
        # only: it falls at second order when the nodes double
        t = 4.0
        order = residual_order(lambda r: ell_profile(t, r), lambda r: 8.0 * t**2 * r**3)
        assert 1.9 < order < 2.1

    def test_log_singularity_bounded(self):
        r = np.geomspace(1e-3, 1.0, 600)
        ell, _ = ell_profile(4.0, r)
        shifted = ell + 0.5 * np.log(r)
        assert np.max(np.abs(shifted[: len(shifted) // 3])) < 2.0

    @pytest.mark.parametrize("t", [1.0, 4.0, 16.0])
    def test_shooting_oracle(self, t):
        # rho(1e-3) <= 0.02 for these t, so the solve starts at r[0] itself
        r = np.geomspace(1e-3, 1.0, 4096)
        ell, _ = ell_profile(t, r)
        sh = shooting_solution(-1.0 / 3.0, (8.0 / 3.0) * t * r**1.5)
        assert np.max(np.abs(sh - ell)) < 1e-9

    def test_t_doubling_covariance(self):
        r = np.geomspace(1e-3, 1.0, 700)
        lam = 2.0 ** (2.0 / 3.0)
        a, _ = ell_profile(4.0, r)
        b, _ = ell_profile(8.0, r / lam)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            ell_profile(0.5, np.geomspace(1e-3, 1.0, 128))
        with pytest.raises(ValueError):
            ell_profile(4.0, np.geomspace(0.1, 2.0, 128))
        for t in (float("nan"), float("inf"), 1e308):  # 1e308: rho_t(1) overflows
            with pytest.raises(ValueError, match="finite"):
                ell_profile(t, np.geomspace(1e-3, 1.0, 128))
            with pytest.raises(ValueError, match="finite"):
                m_profile(t, ParabolicWeights(0.2, 0.8), np.geomspace(1e-3, 1.0, 128))

    @pytest.mark.parametrize("kind", ["ell", "m"])
    def test_two_dimensional_grid_rejected(self, kind):
        # the node shape is checked before any node is compared
        r = np.geomspace(1e-3, 1.0, 128)
        build = ell_profile if kind == "ell" else (lambda t, g: m_profile(t, ParabolicWeights(0.2, 0.8), g))
        with pytest.raises(ValueError, match="r_grid must hold at least 2 finite, positive, strictly increasing nodes"):
            build(4.0, np.stack([r, r]))

    def test_shared_collocation_stops_below_underflow(self):
        # pole t values on the default grid share the inner end 0.02; t = 90
        # reaches rho = 720 and joins t = 4, while t = 100 reaches 800, past
        # RHO_UNDERFLOW, and keeps its own collocation
        r = polar_grid(n_r=512)
        intervals, collocation = [], painleve._collocation

        def recording(sigma, lo, hi):
            intervals.append((lo, hi))
            return collocation(sigma, lo, hi)

        with mock.patch.object(painleve, "_collocation", recording):
            profiles = list(painleve.m_profiles([4.0, 90.0, 100.0], ParabolicWeights(0.2, 0.8), r))
        assert intervals == [(RHO_INNER_TARGET, 720.0), (RHO_INNER_TARGET, 800.0)]
        assert painleve.RHO_UNDERFLOW == 745.0
        assert len(profiles) == 3 and all(xi.shape == dxi.shape == r.shape for xi, dxi in profiles)


class TestMProfile:
    def test_ode_residual(self):
        t = 4.0
        w = ParabolicWeights(0.2, 0.8)
        order = residual_order(lambda r: m_profile(t, w, r), lambda r: 8.0 * t**2 * r)
        assert 1.9 < order < 2.1

    @pytest.mark.parametrize("alpha1", [0.2, 0.4])
    def test_shooting_oracle(self, alpha1):
        # rho(1e-7) = 32e-3.5 <= 0.02 at t = 4, so the solve starts at r[0] itself
        w = ParabolicWeights(alpha1, 1.0 - alpha1)
        r = np.geomspace(1e-7, 1.0, 4096)
        m, _ = m_profile(4.0, w, r)
        sh = shooting_solution(1.0 + 2.0 * w.difference, 32.0 * np.sqrt(r))
        assert np.max(np.abs(sh - m)) < 1e-9

    def test_near_zero_log_slope(self):
        # two-point log slope at the deep end; the additive constant in
        # m ~ sigma log r + c makes the raw ratio m/log r converge only
        # logarithmically, so the slope is what is testable
        w = ParabolicWeights(0.2, 0.8)
        r = np.geomspace(1e-8, 1.0, 1200)
        m, _ = m_profile(1.0, w, r)
        slope = (m[1] - m[0]) / (np.log(r[1]) - np.log(r[0]))
        expected = 0.5 + w.difference
        assert slope == pytest.approx(expected, abs=0.02 * abs(expected))

    def test_sigma_zero_limit(self):
        w = ParabolicWeights(0.25, 0.75)  # difference -1/2 => zero profile
        m, dm = m_profile(4.0, w, np.geomspace(1e-3, 1.0, 256))
        assert np.max(np.abs(m)) == 0.0 and np.max(np.abs(dm)) == 0.0
        with pytest.raises(ValueError):
            ParabolicWeights(0.5, 0.5)


@pytest.mark.parametrize("t", [4.0, 8.0, 16.0])
def test_glue_annulus_relative_accuracy(t):
    # on the glue annulus [0.5, 1] of the criterion-5 grid both profiles keep
    # 1e-9 relative accuracy in their exponentially small tails, against
    # shooting from the solve's inner point
    r = polar_grid(n_r=4096)
    annulus = (r >= 0.5) & (r <= 1.0)
    rho = (8.0 / 3.0) * t * r**1.5
    ell, _ = ell_profile(t, r)
    assert relative_error(ell[annulus], shooting_from_inner_point(-1.0 / 3.0, rho)[annulus]) < 1e-9
    for alpha1 in (0.2, 0.4):
        w = ParabolicWeights(alpha1, 1.0 - alpha1)
        m, _ = m_profile(t, w, r)
        sh = shooting_from_inner_point(1.0 + 2.0 * w.difference, 8.0 * t * np.sqrt(r))
        assert relative_error(m[annulus], sh[annulus]) < 1e-9


class TestInwardExtension:
    @given(
        st.floats(min_value=1.0, max_value=64.0),
        st.integers(min_value=64, max_value=8192),
        st.sampled_from(["ell", "m"]),
        st.floats(min_value=0.05, max_value=0.45),
    )
    # the widest and narrowest grids, the smallest pole slope, and the largest
    # simple-zero rho(r_0), 64 x 8/3 x 10^-4.5 = 0.0054
    @example(64.0, 8192, "m", 0.05)
    @example(1.0, 64, "m", 0.45)
    @example(64.0, 8192, "ell", 0.2)
    @settings(max_examples=60)
    def test_closed_form_extension(self, t, n_r, kind, alpha1):
        # the solve interval in x = log rho reaches inward to the first of
        # rho(r_0) and RHO_INNER_TARGET, and outward to rho(r_max) itself
        r = np.geomspace(1e-3, 1.0, n_r)
        if kind == "ell":
            build, rho = (lambda: ell_profile(t, r)), 8.0 / 3.0 * t * r**1.5
        else:
            build, rho = (lambda: m_profile(t, ParabolicWeights(alpha1, 1.0 - alpha1), r)), 8.0 * t * r**0.5
        intervals, collocate = [], painleve._collocate

        def recording(sigma, a, b, n):
            intervals.append((a, b))
            return collocate(sigma, a, b, n)

        with mock.patch.object(painleve, "_collocate", recording):
            xi, dxi = build()
        assert set(intervals) == {(math.log(min(RHO_INNER_TARGET, rho[0])), math.log(rho[-1]))}
        assert xi.shape == dxi.shape == r.shape
        # at r_min = 1e-3 the simple zero's rho stays below 0.02 for t <= 64,
        # so its interval starts at rho(r_0); the pole's always extends
        assert (intervals[0][0] == math.log(rho[0])) == (kind == "ell")
