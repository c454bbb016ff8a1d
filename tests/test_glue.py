"""Cutoff gluing and the exponential error law."""

import numpy as np
import pytest

from hitchinlab.fiducial import CaseKind, LocalCase, fiducial_fields, hitchin_residual, polar_grid
from hitchinlab.glue import (
    CutoffSpec,
    DegenerateFitError,
    approx_metric,
    approx_residual,
    cutoff_chi,
    cutoff_chi_deriv,
    decay_sweep,
    fit_exponential_decay,
)
from hitchinlab.painleve import ParabolicWeights

ZERO = LocalCase(CaseKind.SIMPLE_ZERO)
POLE_02 = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.4, 0.6))
POLE_06 = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.2, 0.8))


class TestCutoff:
    def test_plateaus_exact(self):
        spec = CutoffSpec()
        assert cutoff_chi(spec, 0.25) == 1.0
        assert cutoff_chi(spec, 0.5) == 1.0
        assert cutoff_chi(spec, 1.0) == 0.0
        assert cutoff_chi(spec, 1.5) == 0.0

    def test_midpoint_symmetry(self):
        spec = CutoffSpec()
        assert cutoff_chi(spec, 0.75) == pytest.approx(0.5, abs=1e-15)

    def test_monotone(self):
        spec = CutoffSpec(0.3, 0.9)
        r = np.linspace(0.0, 1.2, 500)
        assert np.all(np.diff(cutoff_chi(spec, r)) <= 0)

    def test_smooth_at_junctions(self):
        # one-sided FD derivatives up to order 3 vanish at both plateau edges
        spec = CutoffSpec()
        h = 0.01
        for r0, side in ((0.5, -1.0), (1.0, +1.0)):
            pts = r0 + side * h * np.arange(5)
            vals = cutoff_chi(spec, pts) - cutoff_chi(spec, r0)
            d1 = (vals[1] - vals[0]) / h
            d2 = (vals[2] - 2 * vals[1] + vals[0]) / h**2
            d3 = (vals[3] - 3 * vals[2] + 3 * vals[1] - vals[0]) / h**3
            for d in (d1, d2, d3):
                assert abs(d) < 1e-4

    def test_deriv_consistent(self):
        spec = CutoffSpec(0.4, 1.1)
        r = np.linspace(0.45, 1.05, 200)
        h = 1e-6
        fd = (cutoff_chi(spec, r + h) - cutoff_chi(spec, r - h)) / (2 * h)
        assert np.max(np.abs(fd - cutoff_chi_deriv(spec, r))) < 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            CutoffSpec(1.0, 0.5)
        with pytest.raises(ValueError, match="r_off < inf"):
            CutoffSpec(0.5, np.inf)
        with pytest.raises(ValueError):
            cutoff_chi(CutoffSpec(), -0.1)

    @pytest.mark.parametrize("fn", [cutoff_chi, cutoff_chi_deriv])
    @pytest.mark.parametrize("r", [-1.0, np.nan, [0.7, -1.0], np.array([0.2, np.nan, 0.8])])
    @pytest.mark.filterwarnings("error")
    def test_negative_or_nan_radius_rejected(self, fn, r):
        # the cutoff and its derivative share one check, with no RuntimeWarning first
        with pytest.raises(ValueError, match="nonnegative"):
            fn(CutoffSpec(), r)


@pytest.fixture(scope="module")
def grid():
    return polar_grid(n_r=2048, n_theta=16)


class TestApproxMetric:
    def test_inner_region_bitwise(self, grid):
        spec = CutoffSpec()
        am = approx_metric(ZERO, 8.0, grid, spec)
        fid = fiducial_fields(ZERO, 8.0, grid)
        inner = grid.r <= spec.r_on
        assert np.array_equal(am.Phi[inner], fid.Phi[inner])
        assert np.array_equal(am.h[inner], fid.h[inner])
        assert np.array_equal(am.A_theta[inner], fid.A_theta[inner])

    def test_outer_region_power_law(self, grid):
        spec = CutoffSpec()
        am = approx_metric(ZERO, 8.0, grid, spec)
        outer = grid.r >= spec.r_off
        r = grid.r[outer]
        assert np.allclose(am.h[outer, 0, 0].real, np.sqrt(r))
        assert np.allclose(am.h[outer, 1, 1].real, 1.0 / np.sqrt(r))
        # limiting connection: F = 1/8
        assert np.allclose(am.A_theta[outer, 0, 0].imag, 0.25)

    def test_continuity_across_junctions(self, grid):
        spec = CutoffSpec()
        am = approx_metric(POLE_06, 8.0, grid, spec)
        h00 = am.h[:, 0, 0].real
        jumps = np.abs(np.diff(np.log(h00)))
        assert jumps.max() < 0.05  # no discontinuity anywhere on the log grid

    def test_weak_pole_rejected(self, grid):
        weak = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 1.0)
        with pytest.raises(ValueError):
            approx_metric(weak, 4.0, grid)


class TestApproxResidual:
    def test_exact_region_below_floor(self):
        grid = polar_grid(n_r=2048, n_theta=16)
        am = approx_metric(ZERO, 8.0, grid)
        inner = hitchin_residual(am, window=(grid.r[1], 0.25))
        assert inner < 1e-5

    def test_strictly_decreasing_sweep(self):
        samples = decay_sweep(ZERO, [4, 6, 8, 10, 12])
        vals = [e for _, e in samples]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_angular_resolution_insensitive(self):
        e1 = approx_residual(ZERO, 8.0, grid=polar_grid(n_r=2048, n_theta=16))
        e2 = approx_residual(ZERO, 8.0, grid=polar_grid(n_r=2048, n_theta=32))
        assert abs(e1 - e2) <= 0.05 * e1


class TestDecayFit:
    def test_exact_exponential(self):
        ts = np.arange(1.0, 9.0)
        samples = [(t, 3.0 * np.exp(-2.0 * t)) for t in ts]
        fit = fit_exponential_decay(samples)
        assert fit.c == pytest.approx(3.0, abs=1e-10)
        assert fit.mu == pytest.approx(2.0, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_exponential_decay([(1.0, 2.0), (2.0, 2.0), (3.0, 2.0), (4.0, 2.0)])

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([(1.0, 1.0), (2.0, 0.5)])
        with pytest.raises(ValueError):
            fit_exponential_decay([(1.0, 1.0), (2.0, -0.5), (3.0, 1.0), (4.0, 1.0)])

    @pytest.mark.parametrize("case", [ZERO, POLE_02, POLE_06], ids=["zero", "pole02", "pole06"])
    def test_end_to_end_decay(self, case):
        samples = decay_sweep(case, [4, 6, 8, 10, 12, 14, 16])
        fit = fit_exponential_decay(samples)
        vals = [e for _, e in samples]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert fit.mu > 0
        assert fit.r2 > 0.99

    def test_mu_lower_bound_across_weights(self):
        # positivity asserted; values recorded for the log
        mus = {}
        for diff in (0.2, 0.4, 0.6, 0.8):
            a1 = (1.0 - diff) / 2.0
            case = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(a1, 1.0 - a1))
            fit = fit_exponential_decay(decay_sweep(case, [4, 6, 8, 10, 12]))
            mus[diff] = fit.mu
        assert min(mus.values()) > 1.0
        print("fitted strong-pole decay rates by weight difference:", mus)
