"""Cutoff gluing and the exponential error law."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hitchinlab import grids, painleve
from hitchinlab.fiducial import CaseKind, LocalCase, fiducial_fields, hitchin_residual, polar_grid
from hitchinlab.glue import (
    CutoffSpec,
    DegenerateFitError,
    approx_metric,
    approx_residual,
    cutoff,
    decay_sweep,
    fit_exponential_decay,
)
from hitchinlab.oracles import ANGLES, local_fields, matrix_residual
from hitchinlab.painleve import ParabolicWeights

ZERO = LocalCase(CaseKind.SIMPLE_ZERO)
POLE_02 = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.4, 0.6))
POLE_06 = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.2, 0.8))


def _no_solve(*args):
    raise AssertionError("a profile was solved")


def _recording_collocations(intervals):
    """A stand-in for ``painleve._collocation`` that records each collocated (rho_lo, rho_hi)."""
    collocation = painleve._collocation

    def recording(sigma, lo, hi):
        intervals.append((lo, hi))
        return collocation(sigma, lo, hi)

    return recording


class TestCutoff:
    def test_plateaus_exact(self):
        spec = CutoffSpec()
        assert cutoff(spec, 0.25) == (1.0, 0.0)
        assert cutoff(spec, 0.5) == (1.0, 0.0)
        assert cutoff(spec, 1.0) == (0.0, 0.0)
        assert cutoff(spec, 1.5) == (0.0, 0.0)
        assert all(type(x) is float for x in cutoff(spec, 0.7))

    def test_midpoint_symmetry(self):
        spec = CutoffSpec()
        assert cutoff(spec, 0.75)[0] == pytest.approx(0.5, abs=1e-15)

    def test_monotone(self):
        spec = CutoffSpec(0.3, 0.9)
        r = np.linspace(0.0, 1.2, 500)
        chi, dchi = cutoff(spec, r)
        assert np.all(np.diff(chi) <= 0) and np.all(dchi <= 0)

    def test_smooth_at_junctions(self):
        # one-sided FD derivatives up to order 3 vanish at both plateau edges
        spec = CutoffSpec()
        h = 0.01
        for r0, side in ((0.5, -1.0), (1.0, +1.0)):
            pts = r0 + side * h * np.arange(5)
            vals = cutoff(spec, pts)[0] - cutoff(spec, r0)[0]
            d1 = (vals[1] - vals[0]) / h
            d2 = (vals[2] - 2 * vals[1] + vals[0]) / h**2
            d3 = (vals[3] - 3 * vals[2] + 3 * vals[1] - vals[0]) / h**3
            for d in (d1, d2, d3):
                assert abs(d) < 1e-4

    def test_deriv_consistent(self):
        spec = CutoffSpec(0.4, 1.1)
        r = np.linspace(0.45, 1.05, 200)
        h = 1e-6
        fd = (cutoff(spec, r + h)[0] - cutoff(spec, r - h)[0]) / (2 * h)
        assert np.max(np.abs(fd - cutoff(spec, r)[1])) < 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            CutoffSpec(1.0, 0.5)
        with pytest.raises(ValueError, match="r_off < inf"):
            CutoffSpec(0.5, np.inf)
        with pytest.raises(ValueError):
            cutoff(CutoffSpec(), -0.1)

    @pytest.mark.parametrize("part", [0, 1], ids=["cutoff_chi", "cutoff_chi_deriv"])
    @pytest.mark.parametrize("r", [-1.0, np.nan, [0.7, -1.0], np.array([0.2, np.nan, 0.8])])
    @pytest.mark.filterwarnings("error")
    def test_negative_or_nan_radius_rejected(self, part, r):
        # rejected before chi or its derivative is formed, with no RuntimeWarning first
        with pytest.raises(ValueError, match="nonnegative"):
            cutoff(CutoffSpec(), r)[part]


@pytest.fixture(scope="module")
def grid():
    return polar_grid(n_r=2048)


class TestApproxMetric:
    def test_inner_region_bitwise(self, grid):
        spec = CutoffSpec()
        A, Phi, h = local_fields(approx_metric(ZERO, 8.0, grid, spec), ANGLES)
        fid_A, fid_Phi, fid_h = local_fields(fiducial_fields(ZERO, 8.0, grid), ANGLES)
        inner = grid <= spec.r_on
        assert np.array_equal(Phi[inner], fid_Phi[inner])
        assert np.array_equal(h[inner], fid_h[inner])
        assert np.array_equal(A[inner], fid_A[inner])

    def test_outer_region_power_law(self, grid):
        spec = CutoffSpec()
        A, _, h = local_fields(approx_metric(ZERO, 8.0, grid, spec), ANGLES)
        outer = grid >= spec.r_off
        r = grid[outer]
        assert np.allclose(h[outer, 0, 0].real, np.sqrt(r))
        assert np.allclose(h[outer, 1, 1].real, 1.0 / np.sqrt(r))
        # limiting connection: F = 1/8
        assert np.allclose(A[outer, 0, 0].imag, 0.25)

    def test_continuity_across_junctions(self, grid):
        spec = CutoffSpec()
        h00 = local_fields(approx_metric(POLE_06, 8.0, grid, spec), ANGLES)[2][:, 0, 0].real
        jumps = np.abs(np.diff(np.log(h00)))
        assert jumps.max() < 0.05  # no discontinuity anywhere on the log grid

    def test_weak_pole_rejected(self, grid):
        weak = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 1.0)
        with pytest.raises(ValueError):
            approx_metric(weak, 4.0, grid)


class TestApproxResidual:
    def test_exact_region_below_floor(self):
        grid = polar_grid(n_r=2048)
        am = approx_metric(ZERO, 8.0, grid)
        inner = hitchin_residual(am, window=(grid[1], 0.25))
        assert inner < 1e-5

    @settings(max_examples=60)
    @given(
        case=st.sampled_from([ZERO, POLE_02, POLE_06]),
        t=st.floats(1.0, 20.0),
        n_r=st.integers(5, 3000),
        r_min=st.floats(1e-4, 0.1),
        r_on=st.floats(5e-5, 0.95),
        at_end=st.booleans(),
        frac=st.floats(0.01, 0.99),
    )
    @example(case=ZERO, t=8.0, n_r=2048, r_min=1e-3, r_on=5e-4, at_end=False, frac=0.3)  # r_on < r_min
    @example(case=POLE_06, t=8.0, n_r=64, r_min=1e-3, r_on=0.8, at_end=True, frac=0.5)  # window at the grid's end
    @example(case=POLE_02, t=4.0, n_r=5, r_min=0.1, r_on=0.05, at_end=True, frac=0.5)  # every node read
    def test_matches_full_grid_residual(self, case, t, n_r, r_min, r_on, at_end, frac):
        # the residual read on the annulus, its halo and the grid ends is, bit
        # for bit, that of the glued metric on the whole grid
        spec = CutoffSpec(r_on, 1.0 if at_end else r_on + frac * (1.0 - r_on))
        grid = polar_grid(r_min, 1.0, n_r)
        try:
            want = hitchin_residual(approx_metric(case, t, grid, spec), window=(spec.r_on, spec.r_off))
        except ValueError as exc:
            assert "no interior nodes" in str(exc)
            with pytest.raises(ValueError, match="no interior nodes"):
                approx_residual(case, t, spec, grid)
            return
        assert approx_residual(case, t, spec, grid) == want

    def test_profiles_solved_only_where_read(self, monkeypatch):
        grid, spec = polar_grid(n_r=4096), CutoffSpec()
        sizes = []
        evaluate = painleve._solve

        def recording(collocation, rho):
            sizes.append(len(rho))
            return evaluate(collocation, rho)

        monkeypatch.setattr(painleve, "_solve", recording)
        decay_sweep(ZERO, [4, 6, 8, 10], spec, grid)
        window = np.count_nonzero((grid >= spec.r_on) & (grid <= spec.r_off))
        assert len(sizes) == 4
        assert max(sizes) <= window + 6 < len(grid)

    @pytest.mark.parametrize(
        "case, t_values, sizings",
        [(POLE_02, [4, 6, 8, 10, 12, 14, 16], 1), (POLE_06, [4, 6, 8, 10, 12, 14, 16], 1), (ZERO, [4, 6, 8, 10], 4)],
        ids=["pole02", "pole06", "zero"],
    )
    def test_one_collocation_per_shared_inner_end(self, monkeypatch, case, t_values, sizings):
        # on the default grid every pole t starts its interval at 0.02, so the
        # criterion-5 sweep collocates once; each simple-zero t starts at its
        # own rho_t(r_0) < 0.02 and keeps its own collocation
        starts = []
        collocate = painleve._collocate

        def recording(sigma, a, b, n):
            if n == grids.CHEB_INTERVALS:  # each sizing starts here
                starts.append((a, b))
            return collocate(sigma, a, b, n)

        monkeypatch.setattr(painleve, "_collocate", recording)
        decay_sweep(case, t_values)
        assert len(starts) == sizings

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from([ZERO, POLE_02, POLE_06]),
        t_values=st.lists(st.floats(2.0, 20.0), min_size=2, max_size=5, unique=True).map(sorted),
        n_r=st.integers(64, 4096),
        log_r_min=st.floats(-8.0, -1.0),
    )
    @example(case=POLE_06, t_values=[4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0], n_r=4096, log_r_min=-3.0)  # one run
    @example(case=POLE_02, t_values=[2.0, 3.0, 20.0], n_r=4096, log_r_min=-8.0)  # rho_t(r_0) < 0.02: runs of one
    @example(case=ZERO, t_values=[4.0, 6.0, 8.0, 10.0], n_r=4096, log_r_min=-3.0)  # runs of one
    def test_sweep_matches_one_t_residual(self, case, t_values, n_r, log_r_min):
        # a t collocated on its own interval (a run of one, or a run's last t)
        # gets approx_residual bit for bit; inside a shared run the longer
        # interval moves the residual by rounding and the outer row's e^(-2 rho)
        # defect: at most 4.0e-9 relative over 3000 draws of this domain
        grid, spec = polar_grid(10.0**log_r_min, 1.0, n_r), CutoffSpec()
        shared = []
        with mock.patch.object(painleve, "_collocation", _recording_collocations(shared)):
            samples = decay_sweep(case, t_values, spec, grid)
        for t, e in samples:
            own = []
            with mock.patch.object(painleve, "_collocation", _recording_collocations(own)):
                want = approx_residual(case, t, spec, grid)
            if own[0] in shared:
                assert e == want
            else:
                assert abs(e / want - 1.0) < 5e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "swap"])
    def test_bad_node_outside_read_set_rejected(self, bad):
        # r[5] of a 64-node grid lies below the annulus and its halo, so no
        # profile is evaluated there; the grid is still checked as a whole
        grid = polar_grid(n_r=64)
        if bad == "swap":
            grid[[5, 6]] = grid[[6, 5]]
        else:
            grid[5] = bad
        with pytest.raises(ValueError, match="radial nodes must be a finite, positive, strictly increasing"):
            approx_residual(ZERO, 4.0, CutoffSpec(), grid)
        with pytest.raises(ValueError, match="radial nodes must be a finite, positive, strictly increasing"):
            decay_sweep(POLE_02, [4, 6, 8, 10], CutoffSpec(), grid)

    def test_empty_window_rejected_before_solving(self, monkeypatch):
        monkeypatch.setattr(painleve, "_collocation", _no_solve)
        grid = polar_grid(n_r=16)
        spec = CutoffSpec(1.001 * grid[8], 0.999 * grid[9])  # between two nodes
        with pytest.raises(ValueError, match="window contains no interior nodes"):
            approx_residual(ZERO, 4.0, spec, grid)

    def test_repeated_t_rejected_before_solving(self, monkeypatch):
        monkeypatch.setattr(painleve, "_collocation", _no_solve)
        with pytest.raises(ValueError, match="t values must be strictly increasing"):
            decay_sweep(ZERO, [4, 4, 6, 8])

    def test_strictly_decreasing_sweep(self):
        samples = decay_sweep(ZERO, [4, 6, 8, 10, 12])
        vals = [e for _, e in samples]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_angular_resolution_insensitive(self):
        # the glued model is radial: the oracle's matrix residual, a sup over
        # the angles it samples, reads the same at 16 and at 32 of them
        am = approx_metric(ZERO, 8.0, polar_grid(n_r=2048))
        e1 = matrix_residual(am, 8.0, np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
        e2 = matrix_residual(am, 8.0, np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False))
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
