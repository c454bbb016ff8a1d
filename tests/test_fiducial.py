"""Local model fields and their diagnostics."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hitchinlab.fiducial import (
    CaseKind,
    FieldSample,
    LocalCase,
    assemble_fields,
    expected_quadratic_differential,
    fiducial_fields,
    hitchin_residual,
    indicial_roots,
    mphi_eigenvalues,
    polar_grid,
    quadratic_differential,
    _phi_commutator_norm,
)
from hitchinlab.oracles import matrix_residual
from hitchinlab.painleve import ParabolicWeights, ell_profile, m_profile
from hitchinlab.profiles import RadialProfile

ZERO = LocalCase(CaseKind.SIMPLE_ZERO)
POLE = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.25, 0.75))
POLE2 = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.2, 0.8))
WEAK = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 0.5)


@pytest.fixture(scope="module")
def grid():
    return polar_grid(n_r=1024, n_theta=16)


@pytest.fixture(scope="module")
def zero_sample(grid):
    return fiducial_fields(ZERO, 4.0, grid)


@pytest.fixture(scope="module")
def pole_sample(grid):
    return fiducial_fields(POLE2, 4.0, grid)


@pytest.fixture(scope="module")
def weak_sample(grid):
    return fiducial_fields(WEAK, 4.0, grid)


class TestLocalCase:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalCase(CaseKind.STRONG_POLE)
        with pytest.raises(ValueError):
            LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 0.0)
        with pytest.raises(ValueError):
            LocalCase(CaseKind.SIMPLE_ZERO, residue=1.0)


class TestFFunctions:
    # F(r) = (1/4)(c + r xi') of the assembled fields, at the ends of the grid
    def test_f_zero_limits(self):
        g = polar_grid(1e-6, 1.0, 900, 8)
        f = fiducial_fields(ZERO, 6.0, g).f_values
        assert abs(f[0]) < 5e-3  # r ell' -> -1/2
        assert f[-1] == pytest.approx(0.125, abs=np.exp(-6.0))
        flat = np.zeros_like(g.r)
        assert np.all(assemble_fields(ZERO, 6.0, g, flat, flat).f_values == 0.125)

    def test_f_pole_limits(self):
        g = polar_grid(1e-8, 1.0, 1100, 8)
        f = fiducial_fields(POLE2, 2.0, g).f_values
        assert f[0] == pytest.approx(POLE2.weights.difference / 4.0, abs=2e-3)
        assert f[-1] == pytest.approx(-0.125, abs=np.exp(-2.0 * 8.0) + 1e-6)
        flat = np.zeros_like(g.r)
        assert np.all(assemble_fields(POLE2, 2.0, g, flat, flat).f_values == -0.125)


class TestFieldAssembly:
    def test_simple_zero_entries(self, grid, zero_sample):
        s = zero_sample
        r = grid.r
        z = grid.z
        assert np.allclose(s.Phi[..., 0, 1], (np.sqrt(r) * np.exp(s.xi))[:, None])
        assert np.allclose(s.Phi[..., 1, 0], z * (np.exp(-s.xi) / np.sqrt(r))[:, None])
        assert np.allclose(np.linalg.det(s.h).real, 1.0)
        q = quadratic_differential(s)
        assert np.max(np.abs(q - expected_quadratic_differential(ZERO, z))) < 1e-12

    def test_strong_pole_entries(self, grid):
        s = fiducial_fields(POLE, 4.0, grid)
        r = grid.r
        asum = 1.0
        assert np.allclose(s.h[:, 0, 0].real, r ** (asum - 0.5) * np.exp(s.xi))
        assert np.allclose(s.h[:, 1, 1].real, r ** (asum + 0.5) * np.exp(-s.xi))
        assert np.allclose(np.linalg.det(s.h).real, r ** (2.0 * asum))
        q = quadratic_differential(s)
        ref = expected_quadratic_differential(POLE, grid.z)
        assert np.max(np.abs((q - ref) / ref)) < 1e-12

    def test_weak_pole_entries(self, grid, weak_sample):
        s = weak_sample
        assert np.allclose(s.A_theta[:, 0, 0], 1j * 0.3)
        assert np.allclose(s.A_theta[:, 1, 1], 1j * 0.7)
        q = quadratic_differential(s)
        ref = expected_quadratic_differential(WEAK, grid.z)
        assert np.max(np.abs((q - ref) / ref)) < 1e-12

    def test_weak_pole_t_independent(self, grid):
        a = fiducial_fields(WEAK, 3.0, grid)
        b = fiducial_fields(WEAK, 7.0, grid)
        assert np.array_equal(a.Phi, b.Phi)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.A_theta, b.A_theta)

    @pytest.mark.parametrize("name", ["zero_sample", "pole_sample", "weak_sample"])
    def test_json_round_trip(self, request, name):
        sample = request.getfixturevalue(name)
        back = FieldSample.from_json(sample.to_json())
        for attr in ("A_theta", "Phi", "h", "xi", "dxi"):
            assert np.array_equal(getattr(back, attr), getattr(sample, attr)), attr
        assert np.array_equal(back.grid.r, sample.grid.r)
        assert np.array_equal(back.grid.theta, sample.grid.theta)
        assert back.case == sample.case
        assert back.t == sample.t


class TestHitchinResidual:
    def test_weak_pole_exact(self, weak_sample):
        assert hitchin_residual(weak_sample, 4.0) < 1e-10

    def test_zero_and_pole_discretization(self, zero_sample, pole_sample):
        assert hitchin_residual(zero_sample, 4.0) < 1e-5
        assert hitchin_residual(pole_sample, 4.0) < 1e-5

    def test_second_order_refinement(self):
        res = {}
        for n in (1024, 2047):
            g = polar_grid(n_r=n)
            res[n] = hitchin_residual(fiducial_fields(ZERO, 4.0, g), 4.0)
        order = np.log2(res[1024] / res[2047])
        assert 1.7 < order < 2.3

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-6.0, max_value=6.0),
    )
    def test_commutator_norm_closed_form(self, nr, nth, seed, log_scale):
        # random trace-free complex Phi against the spectral norm from the SVD
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(3, nr, nth)) + 1j * rng.normal(size=(3, nr, nth))) * 10.0**log_scale
        Phi = np.array([[a, b], [c, -a]]).transpose(2, 3, 0, 1)
        sample = SimpleNamespace(Phi=Phi)
        Pd = np.conj(np.swapaxes(Phi, -1, -2))
        C = Phi @ Pd - Pd @ Phi
        want = np.linalg.norm(C, ord=2, axis=(-2, -1)).max(axis=1)
        got = _phi_commutator_norm(sample)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_matrix_path_agrees(self, zero_sample):
        a = hitchin_residual(zero_sample, 4.0)
        b = matrix_residual(zero_sample, 4.0)
        assert 0.3 < a / b < 3.0

    def test_profile_sensitivity(self, grid):
        # a 1% profile error must stand far above the converged floor; the
        # scaling perturbation cancels at linear order where m is small, so
        # probe at t = 1 where the profile is O(1) on the grid
        prof = m_profile(1.0, POLE2.weights, grid.r)
        base = hitchin_residual(fiducial_fields(POLE2, 1.0, grid, prof), 1.0)
        bumped_prof = RadialProfile(prof.grid, 1.01 * prof.values, 1.01 * prof.derivs, prof.sigma)
        bumped = hitchin_residual(fiducial_fields(POLE2, 1.0, grid, bumped_prof), 1.0)
        assert bumped > 1e-6
        assert bumped > 20.0 * base

    def test_grid_size_guard(self):
        g = polar_grid(n_r=16, n_theta=8)
        s = fiducial_fields(WEAK, 1.0, g)
        bad = polar_grid(n_r=16, n_theta=8)
        object.__setattr__(bad, "theta", bad.theta[:4])
        with pytest.raises(ValueError):
            hitchin_residual(
                FieldSample(bad, s.A_theta, s.Phi[:, :4], s.h, WEAK, 1.0, s.xi, s.dxi), 1.0
            )


def _bracket_matrix(P):
    """Numeric h-variation bracket operator on trace-free Hermitian matrices."""
    basis = [
        np.diag([1.0 + 0j, -1.0 + 0j]),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, 1j], [-1j, 0]], dtype=complex),
    ]
    Pd = P.conj().T
    out = np.zeros((3, 3))
    for j, gj in enumerate(basis):
        C = P @ gj - gj @ P
        C2 = Pd @ gj - gj @ Pd
        img = 2.0 * ((Pd @ C - C @ Pd) + (P @ C2 - C2 @ P))
        for i, gi in enumerate(basis):
            out[i, j] = np.real(np.trace(img @ gi.conj().T)) / np.real(np.trace(gi @ gi.conj().T))
    return out


class TestMphiEigenvalues:
    def test_limiting_zero(self):
        lam = mphi_eigenvalues(ZERO, 1.0, 2.0)
        assert lam == (32.0, 0.0, 32.0)

    def test_weak_example(self):
        case = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 1.0)
        assert mphi_eigenvalues(case, 1.0, 2.0) == (0.0, 4.0, 4.0)

    def test_nonnegative(self, grid):
        prof = ell_profile(4.0, grid.r)
        for r in (1e-3, 0.1, 0.9):
            for case, p in ((ZERO, prof), (POLE2, None), (WEAK, None)):
                lams = mphi_eigenvalues(case, 4.0, r, p if case is ZERO else None)
                assert all(v >= 0 for v in lams)

    @pytest.mark.parametrize("theta", [0.0, 0.9, 2.5])
    def test_against_bracket_oracle(self, theta):
        r = 0.37
        z = r * np.exp(1j * theta)
        ell = 0.2
        P = np.array(
            [[0, np.sqrt(r) * np.exp(ell)], [z * np.exp(-ell) / np.sqrt(r), 0]], dtype=complex
        )
        got = np.sort(np.linalg.eigvalsh(_bracket_matrix(P)))
        prof = RadialProfile(np.array([0.1, r, 1.0]), np.full(3, ell), np.zeros(3))
        want = np.sort(mphi_eigenvalues(ZERO, 1.0, r, prof))
        assert np.max(np.abs(got - want)) < 1e-10

        m = -0.3
        P = np.array(
            [[0, np.exp(m) / np.sqrt(r)], [np.sqrt(r) * np.exp(-m) / z, 0]], dtype=complex
        )
        got = np.sort(np.linalg.eigvalsh(_bracket_matrix(P)))
        prof = RadialProfile(np.array([0.1, r, 1.0]), np.full(3, m), np.zeros(3))
        want = np.sort(mphi_eigenvalues(POLE2, 1.0, r, prof))
        assert np.max(np.abs(got - want)) < 1e-10

        sigma = 0.5 + 0.2j
        P = (sigma / z) * np.diag([1.0 + 0j, -1.0 + 0j])
        got = np.sort(np.linalg.eigvalsh(_bracket_matrix(P)))
        case = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), sigma)
        want = np.sort(mphi_eigenvalues(case, 1.0, r))
        assert np.max(np.abs(got - want)) < 1e-10


class TestIndicialRoots:
    def test_strong_pole_window(self):
        case = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.3, 0.7))
        got = indicial_roots(case, (-0.99, 0.99))
        assert got == pytest.approx([-0.6, -0.4, 0.0, 0.4, 0.6], abs=1e-12)

    def test_simple_zero_window(self):
        got = indicial_roots(ZERO, (0.25, 2.0))
        assert got == pytest.approx([0.5, 1.0, 1.5, 2.0], abs=1e-12)

    def test_weak_pole_window(self):
        case = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 0.25)
        got = indicial_roots(case, (0.01, 1.5))
        expected = [1.0, np.sqrt(0.16 + 1.0), np.sqrt(0.36 + 1.0)]
        assert got == pytest.approx(sorted(expected), abs=1e-12)

    def test_negation_symmetry(self):
        for case in (ZERO, POLE2, WEAK):
            roots = indicial_roots(case, (-1.8, 1.8))
            assert roots == pytest.approx(sorted(-v for v in roots), abs=1e-12)
