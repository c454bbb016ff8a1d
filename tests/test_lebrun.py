"""Reduced circle-invariant equation: modes, nonlinear solve, metric difference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded

from hitchinlab import lebrun
from hitchinlab.grids import fd_first, fd_second
from hitchinlab.lebrun import (
    AliasingError,
    PerturbativeRegimeError,
    TorusFourierField,
    TorusLattice,
    UnderflowWindowError,
    connection_from_w,
    default_colloc,
    fit_decay,
    linear_mode_solution,
    make_modes,
    metric_difference_full,
    nonlinear_residual,
    section_profiles,
    solve_nonlinear,
)
from hitchinlab.lebrun import (
    RADIAL_BLOCK,
    _analyze,
    _factor_band,
    _grouped_bands,
    _grouped_mode_solve,
    _march_mean_mode,
    _mode_band,
    _mode_rows,
    _phase_blocks,
    _radial_blocks,
    _synthesize,
    _trig_factor,
)
from hitchinlab.oracles import (
    DivergenceError,
    _banded_mode_solve,
    hitchin_section_difference,
    solve_mode_bvp,
    solve_mode_inhomogeneous,
)
from hitchinlab.special import bessel_k, inverse_lambda

# criterion 9 (p0 = 0.3, amplitude 0.1, m_cut = 3): the fitted rate and
# prefactor power, which the solver's rounding-level changes must not move
CRITERION_9_RATE = 2.5613039647794227
CRITERION_9_POWER = -1.5692736689970173


def _synthesize_fft(modes, coeffs, n):
    """Oracle: per-mode scatter into an n x n spectrum and an inverse 2-d FFT."""
    spec = np.zeros((coeffs.shape[1], n, n), dtype=complex)
    for idx in range(len(modes)):
        spec[:, modes[idx, 0] % n, modes[idx, 1] % n] += coeffs[idx]
    return np.fft.ifft2(spec, axes=(1, 2)) * (n * n)


def _analyze_fft(values, modes):
    """Oracle: 2-d FFT of the samples, read at the retained modes."""
    n = values.shape[-1]
    spec = np.fft.fft2(values, axes=(1, 2)) / (n * n)
    return np.stack([spec[:, m % n, mn % n] for (m, mn) in modes], axis=0)


def _residual_whole_grid(v, n_colloc):
    """Oracle: 4 rho^2 Delta_T v + L_0 (e^v - 1), e^v - 1 projected on the whole grid by the FFT oracles."""
    rho = v.rho
    ev = _analyze_fft(np.expm1(_synthesize_fft(v.modes, v.coeffs, n_colloc).real), v.modes)
    radial = rho**2 * fd_second(rho, ev) + 3.0 * rho * fd_first(rho, ev)
    return radial - 16.0 * np.pi**2 * v.mu_norms()[:, None] ** 2 * rho**2 * v.coeffs


def _residual_product_form(v, n_colloc):
    """Oracle: L v - Q(v) with Q(v) = (1 - e^v) L_0 v - e^v (rho v_r)^2, the expanded discretization."""
    rho = v.rho
    d1, d2 = fd_first(rho, v.coeffs), fd_second(rho, v.coeffs)
    radial = rho**2 * d2 + 3.0 * rho * d1
    lin = radial - 16.0 * np.pi**2 * v.mu_norms()[:, None] ** 2 * rho**2 * v.coeffs
    A = _synthesize_fft(v.modes, radial, n_colloc).real
    RV = _synthesize_fft(v.modes, rho * d1, n_colloc).real
    ev = np.exp(_synthesize_fft(v.modes, v.coeffs, n_colloc).real)
    return lin - _analyze_fft((1.0 - ev) * A - ev * RV**2, v.modes)


def _march_numpy_scalars(rho, f_interior):
    """Oracle: the inward march of L_0 v = f, one numpy scalar at a time."""
    c_l, c_c, c_r = _mode_rows(0.0, rho)
    v = np.zeros(len(rho), dtype=complex)
    for i in range(len(rho) - 2, 0, -1):
        v[i - 1] = (f_interior[i - 1] - c_c[i - 1] * v[i] - c_r[i - 1] * v[i + 1]) / c_l[i - 1]
    return v


def _metric_difference_hand_expanded(sol, n_colloc):
    """Oracle: (r, g_L2 - g_sf) with every term of the dr coframe written out."""
    rho = sol.rho
    V = sol.v.values(n_colloc)
    W = sol.w.values(n_colloc)
    RW = TorusFourierField(sol.w.lattice, sol.w.modes, rho, sol.w.coeffs * rho**2).values(n_colloc)
    EU = np.exp(V) * RW
    WA2 = sol.wa2.values(n_colloc)
    WA3 = sol.wa3.values(n_colloc)
    A2 = WA2 / W
    A3 = WA3 / W
    r = rho[:, None, None] ** 2 * np.exp(V)
    rweff = r * W  # = e^v (1 + rhat v_rhat) pointwise

    g = np.zeros(V.shape + (4, 4))
    # w drhat^2 with drhat = (rw)^{-1} dr + a2 dx + a3 dy
    c1 = 1.0 / rweff
    g[..., 0, 0] += W * c1**2
    g[..., 0, 2] += W * c1 * A2
    g[..., 0, 3] += W * c1 * A3
    g[..., 2, 2] += W * A2**2
    g[..., 3, 3] += W * A3**2
    g[..., 2, 3] += W * A2 * A3
    # w^{-1} omega^2 with omega = dtheta - w a3 dx + w a2 dy
    g[..., 1, 1] += 1.0 / W
    g[..., 1, 2] += -A3
    g[..., 1, 3] += A2
    g[..., 2, 2] += W * A3**2
    g[..., 3, 3] += W * A2**2
    g[..., 2, 3] += -W * A2 * A3
    # e^u w (dx^2 + dy^2)
    g[..., 2, 2] += EU
    g[..., 3, 3] += EU
    for (i, j) in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        g[..., j, i] = g[..., i, j]
    g[..., 0, 0] -= 1.0 / r
    g[..., 1, 1] -= r
    g[..., 2, 2] -= 1.0
    g[..., 3, 3] -= 1.0
    return r, g


def _plus_semiflat(md):
    """g_L2 = (g_L2 - g_sf) + diag(1/r, r, 1, 1), node-wise."""
    g = md.difference.copy()
    g[..., 0, 0] += 1.0 / md.r
    g[..., 1, 1] += md.r
    g[..., 2, 2] += 1.0
    g[..., 3, 3] += 1.0
    return g


def _hermitian_coeffs(modes, n_rho, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(len(modes), n_rho)) + 1j * rng.normal(size=(len(modes), n_rho))
    where = {(int(m), int(n)): k for k, (m, n) in enumerate(modes)}
    neg = [where[(-int(m), -int(n))] for (m, n) in modes]
    return 0.5 * (c + np.conj(c[neg]))


@pytest.fixture(scope="module")
def lattice():
    return TorusLattice.from_tau(inverse_lambda(0.3))


@pytest.fixture(scope="module")
def mu0_data(lattice):
    mu0, reps = lattice.min_dual_norm()
    return mu0, reps[0]


@pytest.fixture(scope="module")
def solution(lattice, mu0_data):
    _, (m, n) = mu0_data
    return solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 3, lattice)


class TestLattice:
    def test_dual_basis(self, lattice):
        B = lattice.basis
        D = lattice.dual_basis
        assert np.allclose(D.T @ B, np.eye(2), atol=1e-14)

    def test_min_dual_matches_lambda(self, lattice):
        mu0, _ = lattice.min_dual_norm()
        im = lattice.tau.imag
        assert 2.0 * np.pi * mu0 == pytest.approx(np.sqrt(2.0 / im), rel=1e-12)

    def test_min_dual_norm_skewed_tau(self):
        # tau = 10 + 0.1j spans the same lattice as 0.1j; its shortest dual
        # vector has coordinates (-1, -10), outside a fixed search box
        mu0, reps = TorusLattice.from_tau(10 + 0.1j).min_dual_norm()
        assert mu0 == pytest.approx(TorusLattice.from_tau(0.1j).min_dual_norm()[0], rel=1e-12)
        assert mu0 == pytest.approx(0.0712, abs=1e-4)
        assert reps == [(-1, -10)]


class TestTransforms:
    @given(
        m_cut=st.integers(1, 6),
        extra=st.integers(0, 10),
        n_rho=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_synthesis_matches_fft_oracle(self, m_cut, extra, n_rho, seed):
        modes = make_modes(m_cut)
        n = 2 * m_cut + extra  # n = 2 m_cut aliases the outermost modes
        c = _hermitian_coeffs(modes, n_rho, seed)
        ref = _synthesize_fft(modes, c, n)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(ref.imag)) <= 1e-12 * scale
        assert np.max(np.abs(_synthesize(modes, c, n) - ref.real)) <= 1e-12 * scale
        vals = np.random.default_rng(seed).normal(size=(n_rho, n, n))
        ref = _analyze_fft(vals, modes)
        assert np.max(np.abs(_analyze(vals, modes) - ref)) <= 1e-12 * np.max(np.abs(ref))
        if n >= 2 * m_cut + 1:
            back = _analyze(_synthesize(modes, c, n), modes)
            assert np.max(np.abs(back - c)) <= 1e-12 * np.max(np.abs(c))

    def test_phase_blocks_are_shared_and_read_only(self):
        first = _phase_blocks(3, 16)
        assert _phase_blocks(3, 16) is first
        for block in first:
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 0.0

    def test_subset_of_modes(self):
        # the leading-shell synthesis passes a few modes with a smaller cutoff
        modes = np.array([[0, 1], [0, -1], [1, -1], [-1, 1]])
        c = np.array([[0.3 + 0.2j], [0.3 - 0.2j], [-0.1j], [0.1j]])
        ref = _synthesize_fft(modes, c, 16)
        assert np.max(np.abs(_synthesize(modes, c, 16) - ref.real)) < 1e-15


class TestLinearModes:
    def test_mode_equation_residual(self, lattice, mu0_data):
        mu0, (m, n) = mu0_data
        rho = np.linspace(0.5, 3.0, 8001)
        mu = lattice.mu_vector(m, n)
        phi = linear_mode_solution(mu, rho)
        res = (
            rho**2 * fd_second(rho, phi)
            + 3 * rho * fd_first(rho, phi)
            - 16 * np.pi**2 * mu0**2 * rho**2 * phi
        )
        rel = np.abs(res[2:-2]) / (16 * np.pi**2 * mu0**2 * rho[2:-2] ** 2 * phi[2:-2])
        assert rel.max() < 1e-6

    def test_mean_mode_exact_cancellation(self):
        # rho^2 (6 rho^-4) + 3 rho (-2 rho^-3) = 0 identically
        rho = np.linspace(0.5, 4.0, 7)
        assert np.allclose(rho**2 * 6 * rho**-4 + 3 * rho * (-2 * rho**-3), 0.0)
        assert np.allclose(linear_mode_solution(0.0, rho), rho**-2)

    def test_tail_shape(self):
        # unit dual vector: the rho^{-3/2} exp(-4 pi rho) envelope to < 1%
        rho = np.linspace(3.0, 6.0, 400)
        phi = linear_mode_solution(np.array([1.0, 0.0]), rho)
        ratio = phi / (rho**-1.5 * np.exp(-4 * np.pi * rho))
        assert (ratio.max() - ratio.min()) / ratio.mean() < 0.01


class TestInhomogeneousSolve:
    def test_manufactured_solution(self, lattice, mu0_data):
        import sympy as sp

        mu0, (m, n) = mu0_data
        rho = np.linspace(0.5, 4.0, 1601)
        mu = lattice.mu_vector(m, n)
        rs = sp.symbols("r", positive=True)
        gs = sp.exp(-6 * rs) / rs
        Ls = rs**2 * sp.diff(gs, rs, 2) + 3 * rs * sp.diff(gs, rs) - 16 * sp.pi**2 * mu0**2 * rs**2 * gs
        f = sp.lambdify(rs, Ls, "numpy")(rho)
        g = np.exp(-6 * rho) / rho
        phi = linear_mode_solution(mu, rho)
        v = solve_mode_inhomogeneous(mu, f, rho)
        c = (v[-1] - g[-1]) / phi[-1]
        assert np.max(np.abs(v - g - c * phi)) < 1e-5

    def test_zero_rhs(self, lattice, mu0_data):
        _, (m, n) = mu0_data
        rho = np.linspace(0.5, 4.0, 101)
        assert np.all(solve_mode_inhomogeneous(lattice.mu_vector(m, n), np.zeros(101), rho) == 0)

    def test_against_direct_bvp(self, lattice, mu0_data):
        mu0, (m, n) = mu0_data
        rho = np.linspace(0.5, 4.0, 2001)
        mu = lattice.mu_vector(m, n)
        f = np.exp(-5.0 * rho) * np.sin(rho)
        v = solve_mode_inhomogeneous(mu, f, rho)
        bvp = solve_mode_bvp(mu, f, rho, bc_inner=v[0])
        assert np.max(np.abs(bvp.real - v)) < 1e-5

    def test_divergence_diagnostic(self, lattice, mu0_data):
        _, (m, n) = mu0_data
        rho = np.linspace(0.5, 4.0, 801)
        slow = np.exp(-0.3 * rho)  # decays slower than phi_mu
        with pytest.raises(DivergenceError):
            solve_mode_inhomogeneous(lattice.mu_vector(m, n), slow, rho, a=np.inf)


class TestNonlinearResidual:
    def test_zero_field(self, lattice):
        rho = np.linspace(0.5, 4.0, 101)
        modes = make_modes(2)
        v = TorusFourierField(lattice, modes, rho, np.zeros((len(modes), 101), dtype=complex))
        res = nonlinear_residual(v)
        assert np.max(np.abs(res.coeffs)) == 0.0

    def test_linearization_quadratic(self, lattice, mu0_data):
        # discrete decaying mode: the linear part is annihilated by
        # construction, leaving the quadratic remainder
        mu0, (m, n) = mu0_data
        rho = np.linspace(0.5, 4.0, 801)
        modes = make_modes(2)
        phi0 = linear_mode_solution(lattice.mu_vector(m, n), rho)
        disc = _banded_mode_solve(mu0, rho, np.zeros(len(rho) - 2), phi0[0]).real
        ratios = []
        for eps in (1e-4, 1e-5, 1e-6):
            coeffs = np.zeros((len(modes), len(rho)), dtype=complex)
            v = TorusFourierField(lattice, modes, rho, coeffs)
            coeffs[v.index(m, n)] = 0.5 * eps * disc
            coeffs[v.index(-m, -n)] = 0.5 * eps * disc
            res = nonlinear_residual(v)
            sup = np.max(np.abs(_synthesize(res.modes, res.coeffs[:, 1:-1], 16)))
            ratios.append(sup / eps**2)
        assert max(ratios) / min(ratios) < 1.5

    def test_mean_mode_pure_quadratic(self, lattice):
        rho = np.linspace(0.5, 4.0, 801)
        modes = make_modes(1)
        coeffs = np.zeros((len(modes), len(rho)), dtype=complex)
        v = TorusFourierField(lattice, modes, rho, coeffs)
        amp = 0.01
        coeffs[v.index(0, 0)] = amp * rho**-2.0
        res = nonlinear_residual(v)
        # L phi_0 = 0, so the residual is -Q(v); compare against Q directly
        d1 = fd_first(rho, coeffs[v.index(0, 0)]).real
        d2 = fd_second(rho, coeffs[v.index(0, 0)]).real
        vv = amp * rho**-2.0
        A = rho**2 * d2 + 3 * rho * d1
        Q = (1 - np.exp(vv)) * A - np.exp(vv) * (rho * d1) ** 2
        got = res.coeffs[v.index(0, 0), 2:-2].real
        assert np.max(np.abs(got + Q[2:-2])) < 5e-3 * np.max(np.abs(Q))

    @given(
        n_rho=st.one_of(
            st.integers(5, RADIAL_BLOCK - 1),
            st.sampled_from([RADIAL_BLOCK, RADIAL_BLOCK + 1]),
            st.integers(2 * RADIAL_BLOCK + 1, 4 * RADIAL_BLOCK),
        ),
        m_cut=st.integers(1, 4),
        extra=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_matches_whole_grid(self, lattice, n_rho, m_cut, extra, seed):
        # radial blocks change where the products are formed, not their values
        modes = make_modes(m_cut)
        rho = np.linspace(0.5, 4.0, n_rho)
        v = TorusFourierField(lattice, modes, rho, 0.02 * _hermitian_coeffs(modes, n_rho, seed))
        n_colloc = 2 * m_cut + extra
        ref = _residual_whole_grid(v, n_colloc)
        got = nonlinear_residual(v, n_colloc).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_conservative_form_is_second_order_close_to_product_form(self, lattice):
        # L_0(e^v - 1) and e^v (L_0 v + (rho v_r)^2) discretize the same
        # operator; on a smooth field they differ at O(h^2) between the end rows
        modes = make_modes(2)
        a = _hermitian_coeffs(modes, 1, 7)
        k = np.abs(modes).sum(axis=1)[:, None]
        diffs = []
        for n_rho in (201, 401):
            rho = np.linspace(0.5, 4.0, n_rho)
            v = TorusFourierField(lattice, modes, rho, 0.1 * a * np.exp(-(1 + k) * rho) * np.cos(rho))
            diff = nonlinear_residual(v).coeffs - _residual_product_form(v, default_colloc(2))
            diffs.append(np.max(np.abs(diff[:, 1:-1])))
        assert 3.0 < diffs[0] / diffs[1] < 5.0

    @pytest.mark.parametrize("n_rho", [5, RADIAL_BLOCK, RADIAL_BLOCK + 1, 1401])
    def test_one_synthesis_per_block(self, monkeypatch, lattice, n_rho):
        # v is synthesized once per radial block, and nothing else is
        calls = []
        synthesize = lebrun._synthesize

        def counting(*args, **kwargs):
            calls.append(1)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(lebrun, "_synthesize", counting)
        modes = make_modes(2)
        rho = np.linspace(0.5, 4.0, n_rho)
        nonlinear_residual(TorusFourierField(lattice, modes, rho, 0.02 * _hermitian_coeffs(modes, n_rho, 3)))
        assert len(calls) == len(_radial_blocks(n_rho))

    def test_memory_stays_blocked(self, solution):
        # one criterion-9 residual peaks at 2.6 MB of new allocations; the
        # product form's three syntheses per block took it to 4.8 MB, and
        # whole-grid (1401, 16, 16) temporaries to 18.9 MB
        nonlinear_residual(solution.v)
        tracemalloc.start()
        try:
            nonlinear_residual(solution.v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_aliasing_guard(self, lattice):
        rho = np.linspace(0.5, 4.0, 101)
        modes = make_modes(3)
        v = TorusFourierField(lattice, modes, rho, np.zeros((len(modes), 101), dtype=complex))
        with pytest.raises(AliasingError):
            nonlinear_residual(v, n_colloc=4)

    def test_layout_guard(self, lattice):
        # the half-lattice rows are those of the make_modes order
        rho = np.linspace(0.5, 4.0, 11)
        modes = make_modes(2)[::-1]
        v = TorusFourierField(lattice, modes, rho, np.zeros((len(modes), 11), dtype=complex))
        with pytest.raises(ValueError, match="make_modes"):
            nonlinear_residual(v)
        norms = v.mu_norms()
        with pytest.raises(ValueError, match="make_modes"):
            _grouped_bands(np.roll(norms, 1), rho)

    @settings(max_examples=40)
    @given(m_cut=st.integers(1, 4), n_rho=st.integers(5, 600), seed=st.integers(0, 2**32 - 1))
    def test_half_lattice_is_exact(self, lattice, m_cut, n_rho, seed):
        # one mode of each +-mu pair is computed and its partner is the
        # conjugate, bit for bit; both agree with the per-mode computation
        modes = make_modes(m_cut)
        rho = np.linspace(0.5, 4.0, n_rho)
        conj = len(modes) - 1 - np.arange(len(modes))  # row of -mu
        v = TorusFourierField(lattice, modes, rho, 0.02 * _hermitian_coeffs(modes, n_rho, seed))
        assert np.array_equal(v.coeffs[conj], np.conj(v.coeffs))
        res = nonlinear_residual(v).coeffs
        assert np.array_equal(res[conj], np.conj(res))
        ref = _residual_whole_grid(v, default_colloc(m_cut))
        assert np.max(np.abs(res - ref)) <= 1e-13 * np.max(np.abs(ref))

        norms = v.mu_norms()
        _, bands = _grouped_bands(norms, rho)
        rhs = _hermitian_coeffs(modes, n_rho, seed + 1)
        step = _grouped_mode_solve(bands, rhs)
        assert np.array_equal(step[conj], np.conj(step))
        for k in np.nonzero(norms > 0)[0]:
            ref = _banded_mode_solve(norms[k], rho, rhs[k, 1:-1], rhs[k, 0], rhs[k, -1])
            assert np.max(np.abs(step[k] - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSolveNonlinear:
    def test_zero_data(self, lattice):
        sol = solve_nonlinear({}, None, 2, lattice)
        assert np.max(np.abs(sol.v.coeffs)) == 0.0
        # w = 1/rhat exactly
        w00 = sol.w.coeffs[sol.w.index(0, 0)]
        assert np.allclose(w00.real, sol.rho**-2.0)

    def test_mode_concentration(self, lattice, solution, mu0_data):
        mu0, _ = mu0_data
        normsq = np.abs(solution.v.coeffs[:, -1]) ** 2
        norms = solution.v.mu_norms()
        shell = np.abs(norms - mu0) < 1e-9 * mu0
        assert normsq[shell].sum() / normsq.sum() > 0.99

    def test_conjugate_index_matches_index_scan(self, lattice):
        # the map agrees with a scan of index() per mode, and symmetrizing
        # through it is the per-mode loop bit for bit
        rho = np.linspace(0.5, 4.0, 5)
        rng = np.random.default_rng(5)
        for modes in (make_modes(3), make_modes(2)[rng.permutation(25)]):
            c = rng.normal(size=(len(modes), 5)) + 1j * rng.normal(size=(len(modes), 5))
            f = TorusFourierField(lattice, modes, rho, c)
            ref = [f.index(-m, -n) for (m, n) in f.modes]
            assert f._conjugate_index().tolist() == ref
            out = c.copy()
            for k, j in enumerate(ref):
                out[k] = 0.5 * (c[k] + np.conj(c[j]))
            assert np.array_equal(f.symmetrized().coeffs, out)
            worst = max(float(np.max(np.abs(c[k] - np.conj(c[j])))) for k, j in enumerate(ref))
            assert f.reality_defect() == worst

    def test_missing_conjugate_raises(self, lattice):
        f = TorusFourierField(lattice, [[0, 0], [1, 2]], np.linspace(0.5, 4.0, 5), np.ones((2, 5)))
        for call in (f.symmetrized, f.reality_defect):
            with pytest.raises(KeyError, match=r"mode \(-1, -2\) not present"):
                call()

    def test_reality(self, solution):
        assert solution.v.reality_defect() < 1e-12
        # the production synthesis forms the real part only; the FFT oracle
        # shows the discarded imaginary part is at rounding level
        vals = _synthesize_fft(solution.v.modes, solution.v.coeffs, 16)
        assert np.max(np.abs(vals.imag)) < 1e-12

    def test_grouped_solve_matches_per_mode(self, lattice):
        # one band per distinct |mu| with stacked right-hand sides gives the
        # per-mode banded solve of every mode
        rho = np.linspace(0.5, 4.0, 301)
        modes = make_modes(3)
        norms = TorusFourierField(lattice, modes, rho, np.zeros((len(modes), len(rho)))).mu_norms()
        _, bands = _grouped_bands(norms, rho)
        assert len(bands) == len(np.unique(norms)) - 1 < len(modes) // 2
        rhs = _hermitian_coeffs(modes, len(rho), 7)
        step = _grouped_mode_solve(bands, rhs)
        for k in np.nonzero(norms > 0)[0]:
            ref = _banded_mode_solve(norms[k], rho, rhs[k, 1:-1], rhs[k, 0], rhs[k, -1])
            assert np.max(np.abs(step[k] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_factored_bands_match_solve_banded(self, solution):
        # every band of the criterion-9 solve, factored once, solves a
        # complex right-hand side bit for bit as solve_banded (zgbsv) does
        rho = solution.rho
        norms = solution.v.mu_norms()
        g, bands = _grouped_bands(norms, rho)
        rhs = _hermitian_coeffs(solution.v.modes, len(rho), 11)
        step = _grouped_mode_solve(bands, rhs)
        for members, _, _ in bands:
            ab = _mode_band(norms[members[0]], rho, g[members[0]])
            ref = solve_banded((2, 2), ab, rhs[members].T).T
            assert np.array_equal(step[members], ref)

    def test_bands_fail_typed(self, solution):
        rho = solution.rho
        _, bands = _grouped_bands(solution.v.mu_norms(), rho)
        # the mean mode, which is in no band, and a banded mode
        for row in (solution.v.index(0, 0), solution.v.index(1, 0)):
            rhs = np.zeros((len(solution.v.modes), len(rho)), dtype=complex)
            rhs[row, 3] = np.nan
            with pytest.raises(ValueError, match="infs or NaNs"):
                _grouped_mode_solve(bands, rhs)
        with pytest.raises(LinAlgError, match="singular"):
            _factor_band(np.zeros((5, 8)))
        with pytest.raises(ValueError, match="infs or NaNs"):
            _factor_band(np.full((5, 8), np.inf))

    def test_mean_mode_march_matches_numpy_scalars(self, solution):
        rng = np.random.default_rng(3)
        f = rng.normal(size=len(solution.rho) - 2) + 1j * rng.normal(size=len(solution.rho) - 2)
        assert np.array_equal(_march_mean_mode(solution.rho, f), _march_numpy_scalars(solution.rho, f))

    def test_spectral_convergence(self, lattice, solution, mu0_data):
        _, (m, n) = mu0_data
        bigger = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 6, lattice)
        a = solution.v.coeffs[solution.v.index(m, n)]
        b = bigger.v.coeffs[bigger.v.index(m, n)]
        assert np.max(np.abs(a - b)) < 1e-8

    def test_non_hermitian_inner_data_fails_fast(self, lattice, mu0_data, monkeypatch):
        _, (m, n) = mu0_data

        def unreachable(*args, **kwargs):
            raise AssertionError("inner data reached the solver")

        monkeypatch.setattr(TorusLattice, "min_dual_norm", unreachable)
        pattern = rf"c\({-m}, {-n}\) = \(?0\.03.* is not the conjugate of c\({m}, {n}\) = \(?0\.07"
        with pytest.raises(ValueError, match=pattern):
            solve_nonlinear({(m, n): 0.07, (-m, -n): 0.03}, None, 3, lattice)
        with pytest.raises(ValueError, match=r"c\(0, 0\)"):
            solve_nonlinear({(0, 0): 0.01j}, None, 3, lattice)
        with pytest.raises(ValueError, match="conjugate"):
            solve_nonlinear({(m, n): 0.05 + 0.01j, (-m, -n): 0.05 + 0.01j}, None, 3, lattice)

    def test_missing_conjugate_is_filled(self, lattice, mu0_data):
        _, (m, n) = mu0_data
        one = solve_nonlinear({(m, n): 0.04 + 0.02j}, None, 2, lattice)
        both = solve_nonlinear({(m, n): 0.04 + 0.02j, (-m, -n): 0.04 - 0.02j}, None, 2, lattice)
        assert np.array_equal(one.v.coeffs, both.v.coeffs)
        assert one.v.coeffs[one.v.index(-m, -n), 0] == 0.04 - 0.02j

    def test_perturbative_guard(self, lattice, mu0_data):
        _, (m, n) = mu0_data
        with pytest.raises(PerturbativeRegimeError):
            solve_nonlinear({(m, n): 0.3, (-m, -n): 0.3}, None, 2, lattice)

    def test_spectral_truncation_diagnostic(self, solution):
        # last retained shell below 1e-10 of the leading shell
        assert solution.v.truncation_diagnostic() < 1e-10

    def test_w_consistency(self, solution):
        # w - 1/rhat = (2 rho)^{-1} dv/drho, by construction and recomputed
        rho = solution.rho
        d1 = fd_first(rho, solution.v.coeffs)
        w_again = d1 / (2 * rho)[None, :]
        w_again[solution.v.index(0, 0)] += rho**-2.0
        assert np.max(np.abs(w_again - solution.w.coeffs)) < 1e-14


class TestFitDecay:
    def test_synthetic_mode(self, lattice, mu0_data):
        mu0, (m, n) = mu0_data
        rho = np.linspace(2.0, 12.0, 3000)
        modes = make_modes(1)
        coeffs = np.zeros((len(modes), len(rho)), dtype=complex)
        f = TorusFourierField(lattice, modes, rho, coeffs)
        phi = linear_mode_solution(lattice.mu_vector(m, n), rho)
        coeffs[f.index(m, n)] = 0.5 * phi
        coeffs[f.index(-m, -n)] = 0.5 * phi
        from hitchinlab.lebrun import LeBrunSolution, _w_from_v

        sol = LeBrunSolution(v=f, w=_w_from_v(f), lambda_t=2 * np.pi * mu0)
        rate, power = fit_decay(sol)
        assert rate == pytest.approx(4 * np.pi * mu0, rel=0.005)
        assert power == pytest.approx(-1.5, rel=0.05)

    def test_solved_rate(self, solution, mu0_data):
        mu0, _ = mu0_data
        rate, power = fit_decay(solution)
        assert rate == pytest.approx(2.0 * (2 * np.pi * mu0), rel=0.03)
        assert power == pytest.approx(-1.5, rel=0.10)

    def test_criterion_9_figures(self, solution):
        rate, power = fit_decay(solution)
        assert rate == pytest.approx(CRITERION_9_RATE, rel=1e-10)
        assert power == pytest.approx(CRITERION_9_POWER, rel=1e-10)

    def test_amplitude_universality(self, lattice, mu0_data):
        _, (m, n) = mu0_data
        rates = []
        for amp in (0.05, 0.1, 0.2):
            sol = solve_nonlinear({(m, n): amp / 2, (-m, -n): amp / 2}, None, 3, lattice)
            rates.append(fit_decay(sol)[0])
        assert (max(rates) - min(rates)) / min(rates) < 0.01

    def test_constant_field_degenerate(self, lattice):
        rho = np.linspace(0.5, 4.0, 200)
        modes = make_modes(1)
        coeffs = np.zeros((len(modes), len(rho)), dtype=complex)
        f = TorusFourierField(lattice, modes, rho, coeffs)
        coeffs[f.index(0, 1)] = 1.0
        coeffs[f.index(0, -1)] = 1.0
        from hitchinlab.lebrun import LeBrunSolution, _w_from_v

        sol = LeBrunSolution(v=f, w=_w_from_v(f), lambda_t=1.0)
        with pytest.raises(UnderflowWindowError):
            fit_decay(sol)


class TestConnectionAndMetric:
    def test_zero_field_connection(self, lattice):
        sol = solve_nonlinear({}, None, 2, lattice)
        connection_from_w(sol)
        assert np.max(np.abs(sol.wa2.coeffs)) == 0.0
        assert np.max(np.abs(sol.wa3.coeffs)) == 0.0

    def test_leading_behaviour(self, solution, mu0_data):
        mu0, _ = mu0_data
        lam = 2 * np.pi * mu0
        connection_from_w(solution)
        rho = solution.rho
        N = 16
        WA3 = solution.wa3.values(N).real
        T, Tx, Ty = _trig_factor(solution, N)
        pred = -bessel_k(1, 2 * lam * rho)[:, None, None] / rho[:, None, None] * Ty[None]
        mask = (rho > 1.2) & (rho < 2.4)
        dev = np.max(np.abs(WA3[mask] - pred[mask])) / np.max(np.abs(pred[mask]))
        assert dev < 0.05
        # near rho_max the shell tail normalization carries the connection
        mask = rho > 3.0
        dev = np.max(np.abs(WA3[mask] - pred[mask])) / np.max(np.abs(pred[mask]))
        assert dev < 1e-3
        # the canonical lattice has mu0 along y, so wa2 is comparatively tiny
        WA2 = solution.wa2.values(N).real
        assert np.max(np.abs(WA2[mask])) < 0.01 * np.max(np.abs(WA3[mask]))

    def test_third_curvature_relation_refines(self, lattice, mu0_data):
        _, (m, n) = mu0_data
        sups = []
        for n_rho in (501, 1001):
            # a generous rho_max keeps the connection's tail truncation far
            # below the h^2 discretization part being measured
            sol = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, 6.0, 2, lattice, n_rho=n_rho)
            connection_from_w(sol)
            mu_vecs = sol.v.mu_vectors()
            dx_wa2 = (2j * np.pi * mu_vecs[:, 0])[:, None] * sol.wa2.coeffs
            dy_wa3 = (2j * np.pi * mu_vecs[:, 1])[:, None] * sol.wa3.coeffs
            # w e^u = e^v (1 + rhat v_rhat) in real space, back to modes
            N = 16
            rho = sol.rho
            V = sol.v.values(N).real
            RW = np.einsum(
                "k,kij->kij",
                rho**2,
                np.moveaxis(sol.w.values(N).real, 0, 0),
            )
            EU = np.exp(V) * RW
            # FD in rhat per collocation point
            rhat = rho**2
            dEU = np.moveaxis(fd_first(rhat, np.moveaxis(EU, 0, -1)), -1, 0)
            lhs = _synthesize(sol.v.modes, dx_wa2 + dy_wa3, N).real
            resid = lhs - dEU
            mask = (rho > 1.0) & (rho < 3.0)
            sups.append(np.max(np.abs(resid[mask])))
        assert sups[1] < 0.5 * sups[0]

    def test_semiflat_matches_toymodel(self, lattice):
        # node-for-node agreement of the zero-field metric with the
        # four-punctured-sphere semiflat metric at r = rhat
        from hitchinlab.oracles import BasePoint, semiflat_metric
        from hitchinlab.toymodel import ToyConfig

        cfg = ToyConfig.from_p0(0.3)
        md = metric_difference_full(solve_nonlinear({}, None, 2, lattice))
        g = _plus_semiflat(md)
        for i in (0, len(md.r) // 2, len(md.r) - 1):
            r = md.r[i, 0, 0]
            ref = semiflat_metric(cfg, BasePoint(r / cfg.c_sk, cfg.c_sk))
            assert np.max(np.abs(g[i, 0, 0] - ref.g)) < 1e-12

    def test_positive_definite(self, solution):
        ev = np.linalg.eigvalsh(_plus_semiflat(metric_difference_full(solution)))
        assert ev.min() > 0

    def test_radial_change(self, lattice, solution, mu0_data):
        # r = rhat e^v: the identity at zero field, monotone in rhat and
        # led by the K1 shell otherwise
        sol0 = solve_nonlinear({}, None, 2, lattice)
        r = metric_difference_full(sol0).r
        assert np.max(np.abs(r - sol0.rhat[:, None, None])) == 0.0
        mu0, _ = mu0_data
        lam = 2 * np.pi * mu0
        rhat, r = solution.rhat, metric_difference_full(solution).r
        assert np.all(np.diff(r, axis=0) > 0)
        N = r.shape[-1]
        T, _, _ = _trig_factor(solution, N)
        pred = np.sqrt(rhat)[:, None, None] * bessel_k(1, 2 * lam * np.sqrt(rhat))[:, None, None] * T[None]
        mask = (solution.rho > 1.2) & (solution.rho < 2.4)
        dev = np.max(np.abs((r - rhat[:, None, None]) - pred)[mask]) / np.max(np.abs(pred)[mask])
        assert dev < 0.05


class TestSectionAndDifference:
    def test_zero_field(self, lattice):
        sol = solve_nonlinear({}, None, 2, lattice)
        hd = hitchin_section_difference(sol, [1.0, 2.0])
        assert np.max(np.abs(hd.g)) == 0.0
        md = metric_difference_full(sol)
        assert np.max(np.abs(md.difference)) < 1e-13

    def test_section_coefficient(self, solution, mu0_data):
        mu0, _ = mu0_data
        lam = 2 * np.pi * mu0
        r00, rw, t00 = section_profiles(solution)
        r_q = np.linspace(r00[len(r00) // 2], r00[-2], 40)
        hd = hitchin_section_difference(solution, r_q)
        got = hd.g[..., 0, 0] * r_q
        pred = lam * bessel_k(0, 2 * lam * np.sqrt(r_q)) * t00
        assert np.max(np.abs(got - pred) / np.abs(pred)) < 0.05
        assert np.allclose(hd.g[..., 1, 1], got * r_q, rtol=1e-12)

    def test_section_difference_rate(self, solution, mu0_data):
        mu0, _ = mu0_data
        lam = 2 * np.pi * mu0
        r00, rw, _ = section_profiles(solution)
        coeff = np.abs(1.0 / rw - 1.0)
        live = coeff > 1e-15
        x = np.sqrt(r00[live])
        y = np.log(coeff[live])
        window = coeff[live] <= 10 * coeff[live][-1]
        A = np.column_stack([x[window], np.ones(window.sum())])
        slope, _ = np.linalg.lstsq(A, y[window], rcond=None)[0:2][0]
        assert -slope >= 0.97 * 2 * lam

    def test_rw_identity_remainder(self, solution, mu0_data):
        # rw - 1 + lam K0(2 lam sqrt(r)) T(0,0) decays strictly faster
        mu0, _ = mu0_data
        lam = 2 * np.pi * mu0
        r00, rw, t00 = section_profiles(solution)
        resid = np.abs(rw - 1.0 + lam * bessel_k(0, 2 * lam * np.sqrt(r00)) * t00)
        live = resid > 1e-15
        x = np.sqrt(r00[live])
        y = np.log(resid[live])
        window = resid[live] <= 10 * resid[live][-1]
        A = np.column_stack([x[window], np.ones(window.sum())])
        coef, *_ = np.linalg.lstsq(A, y[window], rcond=None)
        assert -coef[0] > 2 * lam

    def test_full_difference_structure(self, solution, mu0_data):
        mu0, (m, n) = mu0_data
        lam = 2 * np.pi * mu0
        md = metric_difference_full(solution)
        rho = solution.rho
        fro = np.sqrt((md.remainder**2).sum(axis=(-2, -1))).max(axis=(1, 2))
        mask = (rho > 1.0) & (rho < 2.5)
        A = np.column_stack([rho[mask], np.ones(mask.sum())])
        coef, *_ = np.linalg.lstsq(A, np.log(fro[mask]), rcond=None)
        assert -coef[0] > 2 * lam
        # cross term dtheta-adjacent block concentrates on the mu0 shell
        N = md.difference.shape[1]
        d = md.difference[..., 0, 3]
        spec = np.fft.fft2(d, axes=(1, 2)) / (N * N)
        tot = (np.abs(spec) ** 2).sum(axis=(1, 2)) - np.abs(spec[:, 0, 0]) ** 2
        sh = np.abs(spec[:, m % N, n % N]) ** 2 + np.abs(spec[:, -m % N, -n % N]) ** 2
        mid = len(rho) // 2
        assert (sh / tot)[mid] > 0.99

    def test_lazy_predicted_parts(self, lattice, mu0_data):
        # built on first access, bit for bit the formulas of the eager split
        _, (m, n) = mu0_data
        sol = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 2, lattice, n_rho=201)
        md = metric_difference_full(sol)
        assert "predicted_k0" not in vars(md) and "remainder" not in vars(md)
        lam = sol.lambda_t
        r = md.r
        T, Tx, Ty = _trig_factor(sol, md.difference.shape[1])
        z = 2.0 * lam * np.sqrt(r)
        K0, K1 = bessel_k(0, z), bessel_k(1, z)
        pk0 = np.zeros_like(md.difference)
        amp = lam * K0 * T[None, :, :]
        pk0[..., 0, 0] = amp / r
        pk0[..., 1, 1] = amp * r
        pk0[..., 2, 2] = -amp
        pk0[..., 3, 3] = -amp
        pk1 = np.zeros_like(md.difference)
        cross = K1 / np.sqrt(r)
        pk1[..., 0, 2] = pk1[..., 2, 0] = -cross * Tx[None, :, :]
        pk1[..., 0, 3] = pk1[..., 3, 0] = -cross * Ty[None, :, :]
        pk1[..., 1, 2] = pk1[..., 2, 1] = np.sqrt(r) * K1 * Ty[None, :, :]
        pk1[..., 1, 3] = pk1[..., 3, 1] = -np.sqrt(r) * K1 * Tx[None, :, :]
        assert np.array_equal(md.predicted_k0, pk0)
        assert np.array_equal(md.predicted_k1, pk1)
        assert np.array_equal(md.remainder, md.difference - pk0 - pk1)
        assert md.remainder is md.remainder

    def test_builder_matches_hand_expansion(self, lattice, solution):
        # the builder against the written-out formulas, to 1e-13 of the
        # largest entry (d_23 cancels to exactly 0 in the oracle and to
        # rounding noise in the builder); the fixture has wa2 ~ 0, so a
        # small solve seeded along both dual directions follows
        seeded = {(1, 0): 0.02, (-1, 0): 0.02, (0, 1): 0.02, (0, -1): 0.02}
        for sol in (solution, solve_nonlinear(seeded, None, 2, lattice, n_rho=201)):
            connection_from_w(sol)
            md = metric_difference_full(sol)
            r, g = _metric_difference_hand_expanded(sol, md.n_colloc)
            assert np.array_equal(md.r, r)
            assert np.max(np.abs(md.difference - g)) <= 1e-13 * np.max(np.abs(g))

    def test_bessel_identity_chain_on_window(self, solution, mu0_data):
        # the identities used to assemble the K0 coefficient hold at the
        # evaluated arguments
        mu0, _ = mu0_data
        lam = 2 * np.pi * mu0
        z = 2 * lam * np.sqrt(solution.rhat)
        k0, k1, k2 = (bessel_k(nu, z) for nu in (0, 1, 2))
        assert np.max(np.abs(k0 - k2 + 2.0 / z * k1)) < 1e-10
        h = 1e-6
        d1 = (bessel_k(1, z + h) - bessel_k(1, z - h)) / (2 * h)
        assert np.max(np.abs(z * d1 - k1 + z * k2)) < 1e-5


class TestDegenerateShell:
    def test_hexagonal_lattice_warns_and_fits(self):
        # three inequivalent shortest dual vectors; the fit uses the
        # combined shell and still lands on 2 lambda_T
        lat = TorusLattice.from_tau(np.exp(1j * np.pi / 3))
        mu0, reps = lat.min_dual_norm()
        assert len(reps) == 3
        from hitchinlab.lebrun import DegenerateShellWarning

        m, n = reps[0]
        with pytest.warns(DegenerateShellWarning):
            sol = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 3, lat)
        rate, _ = fit_decay(sol)
        assert rate == pytest.approx(4 * np.pi * mu0, rel=0.03)


class TestCrossModuleShape:
    def test_section_difference_matches_predicted_correction_shape(self):
        # the solved metric difference on the section and the predicted
        # base-block correction are built by disjoint code paths; their
        # r-dependence must agree (the overall constant is the seeded
        # amplitude times the BPS weight, which neither side determines)
        import warnings

        import hitchinlab.toymodel as toy

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = toy.ToyConfig.from_p0(0.3)
        lattice = TorusLattice.from_tau(cfg.tau)
        mu0, reps = lattice.min_dual_norm()
        m, n = reps[0]
        sol = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 3, lattice)
        r0, rw, _ = section_profiles(sol)
        r_q = np.linspace(r0[len(r0) // 2], r0[-2], 24)
        measured = hitchin_section_difference(sol, r_q).g[..., 0, 0]
        predicted = toy.gmn_correction(cfg, r_q).g[:, 0, 0]
        ratio = measured / predicted
        assert np.max(np.abs(ratio / ratio.mean() - 1.0)) < 0.05
