"""Reduced circle-invariant equation: modes, nonlinear solve, metric difference."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from hitchinlab import grids, lebrun
from hitchinlab.grids import chebyshev_nodes, fd_first, fd_first_boundary
from hitchinlab.lebrun import (
    AliasingError,
    LeBrunSolution,
    PerturbativeRegimeError,
    TorusFourierField,
    TorusLattice,
    UnderflowWindowError,
    default_colloc,
    fit_decay,
    linear_mode_solution,
    make_modes,
    metric_difference_full,
    nonlinear_residual,
    solve_nonlinear,
)
from hitchinlab.lebrun import (
    _analyze,
    _barycentric,
    _chebyshev,
    _half_lattice_product,
    _in_span,
    _mode_inverses,
    _phase_blocks,
    _phi_log_deriv,
    _synthesize,
)
from hitchinlab.oracles import (
    DivergenceError,
    _banded_mode_solve,
    _mode_rows,
    _trig_factor,
    fd_second,
    hitchin_section_difference,
    predicted_bessel_parts,
    section_profiles,
    solve_mode_bvp,
    solve_mode_inhomogeneous,
    truncation_diagnostic,
)
from hitchinlab.special import ConvergenceError, bessel_k, inverse_lambda
from hitchinlab.toymodel import NonGenericTorusWarning, ToyConfig

# criterion 9 (p0 = 0.3, amplitude 0.1, m_cut = 3): the fitted rate and
# prefactor power, which the solver's rounding-level changes must not move
CRITERION_9_RATE = 2.5610958756389617
CRITERION_9_POWER = -1.5699960184039439


def _square(modes, coeffs):
    """Oracle: a real field's whole (2 m_cut + 1)^2 square, m-major, from its half lattice.

    The rows before the stored half are -mu with the conjugate coefficients,
    so row K-1-k of the square holds -mu of row k.
    """
    return np.concatenate([-modes[:0:-1], modes]), np.concatenate([np.conj(coeffs[:0:-1]), coeffs])


def _synthesize_fft(modes, coeffs, n):
    """Oracle: per-mode scatter into an n x n spectrum and an inverse 2-d FFT (pass every mode, e.g. a ``_square``)."""
    spec = np.zeros((coeffs.shape[1], n, n), dtype=complex)
    for idx in range(len(modes)):
        spec[:, modes[idx, 0] % n, modes[idx, 1] % n] += coeffs[idx]
    return np.fft.ifft2(spec, axes=(1, 2)) * (n * n)


def _analyze_fft(values, modes):
    """Oracle: 2-d FFT of the samples, read at the retained modes."""
    n = values.shape[-1]
    spec = np.fft.fft2(values, axes=(1, 2)) / (n * n)
    return np.stack([spec[:, m % n, mn % n] for (m, mn) in modes], axis=0)


def _chebyshev_field(lattice, n, coeffs, rho_min=0.5, rho_max=4.0):
    """A field on the n-interval Chebyshev nodes of [rho_min, rho_max]."""
    rho = _chebyshev(rho_min, rho_max, n)[0]
    return TorusFourierField(lattice, rho, coeffs)


def _residual_whole_lattice(v, n_colloc):
    """Oracle: 4 rho^2 Delta_T v + L_0 (e^v - 1) on every mode of the square, e^v - 1 projected by the FFT oracles."""
    rho = v.rho
    l0 = _chebyshev(rho[0], rho[-1], len(rho) - 1)[2]
    modes, coeffs = _square(v.modes, v.coeffs)
    norms = np.linalg.norm(modes @ v.lattice.dual_basis.T, axis=1)
    ev = _analyze_fft(np.expm1(_synthesize_fft(modes, coeffs, n_colloc).real), modes)
    return ev @ l0.T - 16.0 * np.pi**2 * norms[:, None] ** 2 * rho**2 * coeffs


def _residual_fd(v, n_colloc):
    """Oracle: the residual with second-order finite differences on v's own grid, whole-grid FFT transforms."""
    rho = v.rho
    ev = _analyze_fft(np.expm1(_synthesize_fft(*_square(v.modes, v.coeffs), n_colloc).real), v.modes)
    radial = rho**2 * fd_second(rho, ev) + 3.0 * rho * fd_first(rho, ev)
    return radial - 16.0 * np.pi**2 * v.mu_norms()[:, None] ** 2 * rho**2 * v.coeffs


def _residual_product_form(v, n_colloc):
    """Oracle: L v - Q(v) with Q(v) = (1 - e^v) L_0 v - e^v (rho v_r)^2, the expanded form."""
    rho = v.rho
    _, D, l0, _ = _chebyshev(rho[0], rho[-1], len(rho) - 1)
    radial = v.coeffs @ l0.T
    lin = radial - 16.0 * np.pi**2 * v.mu_norms()[:, None] ** 2 * rho**2 * v.coeffs
    A = _synthesize_fft(*_square(v.modes, radial), n_colloc).real
    RV = _synthesize_fft(*_square(v.modes, rho * (v.coeffs @ D.T)), n_colloc).real
    ev = np.exp(_synthesize_fft(*_square(v.modes, v.coeffs), n_colloc).real)
    return lin - _analyze_fft((1.0 - ev) * A - ev * RV**2, v.modes)


def _collocation_matrix(mu_abs, rho, D):
    """Oracle: one mode's collocation matrix on Chebyshev nodes, built from D alone.

    Interior rows rho^2 D^2 + 3 rho D - 16 pi^2 |mu|^2 rho^2; row 0 is the
    Dirichlet row at rho_min and the last row v' - g v at rho_max, g the
    log-derivative of rho^-1 K_1(4 pi |mu| rho) by scipy.special; the mean
    mode takes the Cauchy rows v(rho_max) = 0 and v'(rho_max) = 0.
    """
    from scipy.special import kv, kvp

    A = rho[:, None] ** 2 * (D @ D) + 3.0 * rho[:, None] * D - 16.0 * np.pi**2 * mu_abs**2 * np.diag(rho**2)
    unit = np.eye(len(rho))
    if mu_abs == 0.0:
        A[0], A[-1] = unit[-1], D[-1]
    else:
        x = 4.0 * np.pi * mu_abs * rho[-1]
        g = (-1.0 + x * kvp(1, x) / kv(1, x)) / rho[-1]
        A[0], A[-1] = unit[0], D[-1] - g * unit[-1]
    return A


def _march_numpy_scalars(rho, f_interior):
    """Oracle: the inward march of L_0 v = f from zero data at the last two nodes."""
    c_l, c_c, c_r = _mode_rows(0.0, rho)
    v = np.zeros(len(rho), dtype=complex)
    for i in range(len(rho) - 2, 0, -1):
        v[i - 1] = (f_interior[i - 1] - c_c[i - 1] * v[i] - c_r[i - 1] * v[i + 1]) / c_l[i - 1]
    return v


def _fd_reference(sol, bc, n_colloc, steps=3):
    """Oracle: the second-order finite-difference solution on ``sol``'s grid.

    Mode-decoupled Newton steps on the whole-grid finite-difference
    residual, started from ``sol``: one banded solve per mode with the
    Dirichlet row at rho_min and the one-sided K_1 Robin row at rho_max, and
    the inward march of the mean mode.  Returns the iterate and the sup of
    its interior residual.
    """
    v = sol.v
    rho = v.rho
    norms = v.mu_norms()
    mean = v.index(0, 0)
    (j0, j1, j2), (w0, w1, w2) = fd_first_boundary(rho, "right")
    for i in range(steps + 1):
        res = _residual_fd(v, n_colloc)
        sup = float(np.max(np.abs(res[:, 1:-1])))
        if i == steps:
            break
        step = np.zeros_like(v.coeffs)
        for k in np.nonzero(norms > 0)[0]:
            c = v.coeffs[k]
            g = _phi_log_deriv([norms[k]], rho[-1])[0]
            robin = w0 * c[j0] + w1 * c[j1] + w2 * c[j2] - g * c[-1]
            step[k] = _banded_mode_solve(norms[k], rho, -res[k, 1:-1], bc[k] - c[0], -robin)
        step[mean] = _march_numpy_scalars(rho, -res[mean, 1:-1])
        v = TorusFourierField(v.lattice, rho, v.coeffs + step)
    return v, sup


def _metric_difference_hand_expanded(sol, n_colloc):
    """Oracle: (r, g_L2 - g_sf) with every term of the dr coframe written out."""
    rho = sol.rho
    V = sol.v.values(n_colloc)
    W = sol.w.values(n_colloc)
    RW = TorusFourierField(sol.w.lattice, rho, sol.w.coeffs * rho**2).values(n_colloc)
    EU = np.exp(V) * RW
    WA2, WA3 = (-f.values(n_colloc) for f in sol.v.gradient())  # w a2 = -v_x, w a3 = -v_y
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
    """Random coefficients of a real field on the half lattice ``modes``: the half of a random Hermitian square."""
    K = 2 * len(modes) - 1
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(K, n_rho)) + 1j * rng.normal(size=(K, n_rho))
    return 0.5 * (c + np.conj(c[::-1]))[len(modes) - 1 :]


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


@pytest.fixture(scope="module")
def nodal(lattice, mu0_data):
    """The criterion-9 solution on its Chebyshev nodes: the last field the solve took a residual of."""
    _, (m, n) = mu0_data
    seen = []
    residual = lebrun.nonlinear_residual

    def keep(v, *args):
        seen.append(v)
        return residual(v, *args)

    lebrun.nonlinear_residual = keep
    try:
        solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 3, lattice)
    finally:
        lebrun.nonlinear_residual = residual
    return seen[-1]


class TestLattice:
    def test_dual_basis(self, lattice):
        B = lattice.basis
        D = lattice.dual_basis
        assert np.allclose(D.T @ B, np.eye(2), atol=1e-14)
        assert lattice.dual_basis is D  # computed once

    def test_min_dual_matches_lambda(self, lattice):
        mu0, _ = lattice.min_dual_norm()
        im = lattice.tau.imag
        assert 2.0 * np.pi * mu0 == pytest.approx(np.sqrt(2.0 / im), rel=1e-12)


class TestModeLayout:
    @given(m_cut=st.integers(1, 6), rows=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
    @example(m_cut=1, rows=9, seed=0)
    @example(m_cut=3, rows=49, seed=0)
    @example(m_cut=4, rows=81, seed=0)
    def test_square_layout(self, lattice, m_cut, rows, seed):
        # the rows are the half of the (2 m_cut + 1)^2 square that a real
        # field needs, from its mean mode on: the mean, then m = 0 and n > 0,
        # then m > 0, m-major.  index is the row of (m, n) there, the other
        # half is not present, and no other row count constructs: the
        # examples pass the whole square (m_cut = 2's 25 rows are m_cut =
        # 3's half)
        modes = make_modes(m_cut)
        H = len(modes)
        assert H == 2 * m_cut * (m_cut + 1) + 1
        square = [[m, n] for m in range(-m_cut, m_cut + 1) for n in range(-m_cut, m_cut + 1)]
        assert modes.tolist() == square[H - 1 :]
        rng = np.random.default_rng(seed)
        rho = [0.5, 1.0, 2.0]
        c = rng.normal(size=(H, 3)) + 1j * rng.normal(size=(H, 3))
        f = TorusFourierField(lattice, rho, c)
        assert f.m_cut == m_cut and f.modes is modes and not modes.flags.writeable
        for k, (m, n) in enumerate(modes.tolist()):
            assert f.index(m, n) == k
            if k:
                with pytest.raises(KeyError, match="not present"):
                    f.index(-m, -n)
        for m, n in ((m_cut + 1, 0), (0, m_cut + 1), (1, -m_cut - 1)):
            with pytest.raises(KeyError, match="not present"):
                f.index(m, n)
        mu = modes[:, :1] * lattice.dual_basis[:, 0] + modes[:, 1:] * lattice.dual_basis[:, 1]
        assert np.max(np.abs(f.mu_vectors() - mu)) <= 1e-15 * np.max(np.abs(mu))
        halves = {2 * j * (j + 1) + 1: j for j in range(1, 10)}
        if rows in halves:
            assert TorusFourierField(lattice, rho, np.zeros((rows, 3))).m_cut == halves[rows]
        else:
            with pytest.raises(ValueError, match="m_cut"):
                TorusFourierField(lattice, rho, np.zeros((rows, 3)))

    def test_dual_vectors_are_shared(self, lattice):
        # one computation per (lattice, m_cut), whichever field asks
        f = TorusFourierField(lattice, [1.0], np.zeros((25, 1)))
        g = TorusFourierField(TorusLattice(lattice.tau), [2.0], np.ones((25, 1)))
        assert f.mu_norms() is g.mu_norms() and f.mu_vectors() is g.mu_vectors()
        for a in (f.mu_norms(), f.mu_vectors(), lattice.dual_basis):
            assert not a.flags.writeable


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
        ref = _synthesize_fft(*_square(modes, c), n)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(ref.imag)) <= 1e-12 * scale
        assert np.max(np.abs(_synthesize(c, n) - ref.real)) <= 1e-12 * scale
        vals = np.random.default_rng(seed).normal(size=(n_rho, n, n))
        ref = _analyze_fft(vals, modes)
        assert np.max(np.abs(_analyze(vals, m_cut) - ref)) <= 1e-12 * np.max(np.abs(ref))
        if n >= 2 * m_cut + 1:
            back = _analyze(_synthesize(c, n), m_cut)
            assert np.max(np.abs(back - c)) <= 1e-12 * np.max(np.abs(c))

    def test_phase_blocks_are_shared_and_read_only(self):
        first = _phase_blocks(3, 16)
        assert _phase_blocks(3, 16) is first
        for block in first:
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 0.0

    def test_gradient_matches_finite_difference(self, lattice):
        # d/dx and d/dy of a random real field, by central differences of
        # its Fourier sum in real space, at the collocation points
        # X_jk = (j a + k b)/N where values() samples it
        modes = make_modes(2)
        c = _hermitian_coeffs(modes, 1, 5)
        f = TorusFourierField(lattice, [1.0], c)
        square, c_square = _square(modes, c)
        mu = square @ lattice.dual_basis.T
        N, h = 8, 1e-6

        def value(x):
            return np.sum(c_square[:, 0] * np.exp(2j * np.pi * (mu @ x))).real

        grads = [g.values(N)[0] for g in f.gradient()]
        for j, k in ((0, 0), (1, 3), (5, 2)):
            x = lattice.basis @ np.array([j, k]) / N
            assert value(x) == pytest.approx(f.values(N)[0, j, k], abs=1e-12)
            for axis in (0, 1):
                e = h * np.eye(2)[axis]
                fd = (value(x + e) - value(x - e)) / (2.0 * h)
                assert abs(grads[axis][j, k] - fd) < 1e-6 * np.max(np.abs(grads[axis]))


class TestChebyshev:
    @pytest.mark.parametrize("n", [4, 7, 64])
    def test_matrices_match_numpy_polynomial(self, n):
        # the nodes are the increasing, symmetric Chebyshev-Gauss-Lobatto
        # points; D differentiates and the barycentric matrix evaluates a
        # degree-n polynomial exactly, and the cosine matrix gives its
        # Chebyshev coefficients
        from numpy.polynomial import chebyshev as C

        rho, D, l0, to_coeffs = _chebyshev(0.5, 4.0, n)
        x = (2.0 * rho - 4.5) / 3.5
        assert np.all(np.diff(rho) > 0) and rho[0] == 0.5 and rho[-1] == 4.0
        assert np.max(np.abs(x + x[::-1])) < 1e-15
        series = np.random.default_rng(n).normal(size=n + 1)
        p = C.chebval(x, series)
        dp = C.chebval(x, C.chebder(series)) * 2.0 / 3.5
        d2p = C.chebval(x, C.chebder(series, 2)) * (2.0 / 3.5) ** 2
        assert np.max(np.abs(to_coeffs @ p - series)) < 1e-13
        assert np.max(np.abs(D @ p - dp)) < 1e-12 * np.max(np.abs(dp))
        assert np.max(np.abs(l0 @ p - (rho**2 * d2p + 3.0 * rho * dp))) < 1e-11 * np.max(np.abs(rho**2 * d2p))
        grid = np.linspace(0.5, 4.0, 33)
        P = _barycentric(rho, grid)
        assert np.max(np.abs(P @ p - C.chebval((2.0 * grid - 4.5) / 3.5, series))) < 1e-12 * np.max(np.abs(p))
        assert np.array_equal(_barycentric(rho, rho), np.eye(n + 1))

    def test_barycentric_keeps_tail_accuracy(self):
        # the output evaluation errs in proportion to the local size of the
        # interpolant: exp(-2.5 rho), close to the criterion-9 decay, falls
        # by 2e-4 across [0.5, 4] and keeps 6e-14 relative accuracy on the
        # 1401 output nodes; Chebyshev polynomials times the cosine matrix
        # err by about eps sup|f|, 1.9e-11 relative at the tail
        rho = _chebyshev(0.5, 4.0, 64)[0]
        grid = np.linspace(0.5, 4.0, 1401)
        out = _barycentric(rho, grid) @ np.exp(-2.5 * rho)
        assert np.max(np.abs(out / np.exp(-2.5 * grid) - 1.0)) < 1e-12


class TestLinearModes:
    def test_mode_equation_residual(self, mu0_data):
        mu0, _ = mu0_data
        rho = np.linspace(0.5, 3.0, 8001)
        phi = linear_mode_solution(mu0, rho)
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
        # |mu| = 1: the rho^{-3/2} exp(-4 pi rho) envelope to < 1%
        rho = np.linspace(3.0, 6.0, 400)
        phi = linear_mode_solution(1.0, rho)
        ratio = phi / (rho**-1.5 * np.exp(-4 * np.pi * rho))
        assert (ratio.max() - ratio.min()) / ratio.mean() < 0.01

    @pytest.mark.parametrize("mu", [0.2, 0.5, 0.8, 1.1, 1.5])
    def test_chebyshev_mode_matches_bessel(self, mu):
        # 65 Chebyshev nodes: the discrete decaying mode with phi's inner
        # value is phi itself, and it agrees with the banded
        # finite-difference solve at second order in the uniform spacing
        rho = _chebyshev(0.5, 4.0, 64)[0]
        phi = linear_mode_solution(mu, rho)
        inverses, _ = _mode_inverses([mu], 0.5, 4.0, 64)
        v = inverses[0][:, 0] * phi[0]
        assert np.max(np.abs(v - phi)) < 1e-10 * np.max(np.abs(phi))
        errs = []
        for n_rho in (401, 801):
            grid = np.linspace(0.5, 4.0, n_rho)
            fd = solve_mode_bvp(mu, np.zeros(n_rho), grid, bc_inner=phi[0]).real
            errs.append(np.max(np.abs(_barycentric(rho, grid) @ v - fd)))
        assert 3.5 < errs[0] / errs[1] < 4.5


class TestInhomogeneousSolve:
    def test_manufactured_solution(self, mu0_data):
        import sympy as sp

        mu0, _ = mu0_data
        rho = np.linspace(0.5, 4.0, 1601)
        rs = sp.symbols("r", positive=True)
        gs = sp.exp(-6 * rs) / rs
        Ls = rs**2 * sp.diff(gs, rs, 2) + 3 * rs * sp.diff(gs, rs) - 16 * sp.pi**2 * mu0**2 * rs**2 * gs
        f = sp.lambdify(rs, Ls, "numpy")(rho)
        g = np.exp(-6 * rho) / rho
        phi = linear_mode_solution(mu0, rho)
        v = solve_mode_inhomogeneous(mu0, f, rho)
        c = (v[-1] - g[-1]) / phi[-1]
        assert np.max(np.abs(v - g - c * phi)) < 1e-5

    def test_zero_rhs(self, mu0_data):
        rho = np.linspace(0.5, 4.0, 101)
        assert np.all(solve_mode_inhomogeneous(mu0_data[0], np.zeros(101), rho) == 0)

    def test_against_direct_bvp(self, mu0_data):
        mu0, _ = mu0_data
        rho = np.linspace(0.5, 4.0, 2001)
        f = np.exp(-5.0 * rho) * np.sin(rho)
        v = solve_mode_inhomogeneous(mu0, f, rho)
        bvp = solve_mode_bvp(mu0, f, rho, bc_inner=v[0])
        assert np.max(np.abs(bvp.real - v)) < 1e-5

    def test_divergence_diagnostic(self, mu0_data):
        rho = np.linspace(0.5, 4.0, 801)
        slow = np.exp(-0.3 * rho)  # decays slower than phi_mu
        with pytest.raises(DivergenceError):
            solve_mode_inhomogeneous(mu0_data[0], slow, rho, a=np.inf)


class TestNonlinearResidual:
    def test_zero_field(self, lattice):
        modes = make_modes(2)
        v = _chebyshev_field(lattice, 64, np.zeros((len(modes), 65), dtype=complex))
        res = nonlinear_residual(v)
        assert np.max(np.abs(res.coeffs)) == 0.0

    def test_linearization_quadratic(self, lattice, mu0_data):
        # discrete decaying mode: the linear part is annihilated by
        # construction, leaving the quadratic remainder
        mu0, (m, n) = mu0_data
        modes = make_modes(2)
        inverse = _mode_inverses([mu0], 0.5, 4.0, 64)[0][0]
        rho = _chebyshev(0.5, 4.0, 64)[0]
        disc = inverse[:, 0] * linear_mode_solution(mu0, rho[0])
        ratios = []
        for eps in (1e-4, 1e-5, 1e-6):
            v = _chebyshev_field(lattice, 64, np.zeros((len(modes), len(rho)), dtype=complex))
            v.coeffs[v.index(-m, -n)] = 0.5 * eps * disc  # and its conjugate at (m, n)
            res = nonlinear_residual(v)
            sup = np.max(np.abs(_synthesize(res.coeffs[:, 1:-1], 16)))
            ratios.append(sup / eps**2)
        assert max(ratios) / min(ratios) < 1.5

    def test_mean_mode_pure_quadratic(self, lattice):
        modes = make_modes(1)
        v = _chebyshev_field(lattice, 64, np.zeros((len(modes), 65), dtype=complex))
        rho = v.rho
        amp = 0.01
        v.coeffs[v.index(0, 0)] = amp * rho**-2.0
        res = nonlinear_residual(v)
        # L phi_0 = 0, so the residual is -Q(v); compare against Q from the exact derivatives
        vv = amp * rho**-2.0
        d1, d2 = -2.0 * amp * rho**-3.0, 6.0 * amp * rho**-4.0
        A = rho**2 * d2 + 3 * rho * d1
        Q = (1 - np.exp(vv)) * A - np.exp(vv) * (rho * d1) ** 2
        got = res.coeffs[v.index(0, 0), 2:-2].real
        assert np.max(np.abs(got + Q[2:-2])) < 5e-3 * np.max(np.abs(Q))

    def test_conservative_form_is_spectrally_close_to_product_form(self, lattice):
        # L_0(e^v - 1) and e^v (L_0 v + (rho v_r)^2) are the same operator;
        # collocated, they differ by the interpolation error of e^v - 1,
        # which falls spectrally with the node count
        modes = make_modes(2)
        a = _hermitian_coeffs(modes, 1, 7)
        k = np.abs(modes).sum(axis=1)[:, None]
        diffs = []
        for n in (16, 48):
            rho = _chebyshev(0.5, 4.0, n)[0]
            v = _chebyshev_field(lattice, n, 0.1 * a * np.exp(-(1 + k) * rho) * np.cos(rho))
            diff = nonlinear_residual(v).coeffs - _residual_product_form(v, default_colloc(2))
            diffs.append(np.max(np.abs(diff[:, 1:-1])))
        assert diffs[1] < 1e-6 * diffs[0]
        assert diffs[1] < 1e-11 * np.max(np.abs(nonlinear_residual(v).coeffs))

    @pytest.mark.parametrize("n_rho", [5, 256, 257, 1401])
    def test_one_synthesis_per_block(self, monkeypatch, lattice, n_rho):
        # the n_rho Chebyshev nodes are one radial block: v is synthesized
        # once per residual evaluation, and nothing else is
        calls = []
        synthesize = lebrun._synthesize

        def counting(*args, **kwargs):
            calls.append(1)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(lebrun, "_synthesize", counting)
        modes = make_modes(2)
        n = n_rho - 1
        try:
            nonlinear_residual(_chebyshev_field(lattice, n, 0.02 * _hermitian_coeffs(modes, n_rho, 3)))
        finally:
            _chebyshev.cache_clear()  # the 1401-node matrices hold 63 MB
        assert len(calls) == 1

    def test_residual_memory_bound(self, nodal):
        # one criterion-9 residual on its 65 Chebyshev nodes peaks at about
        # 0.2 MB of new allocations; the 1401-node grid took 2.6 MB in radial
        # blocks and whole-grid (1401, 16, 16) temporaries 18.9 MB
        nonlinear_residual(nodal)
        tracemalloc.start()
        try:
            nonlinear_residual(nodal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_aliasing_guard(self, lattice):
        modes = make_modes(3)
        v = _chebyshev_field(lattice, 64, np.zeros((len(modes), 65), dtype=complex))
        with pytest.raises(AliasingError):
            nonlinear_residual(v, n_colloc=4)

    def test_chebyshev_node_guard(self, lattice):
        # the radial nodes are the Chebyshev nodes of their interval; a grid
        # that is not is rejected before its matrices are built and cached
        _chebyshev.cache_clear()
        nodes = chebyshev_nodes(0.5, 4.0, 10)

        def moved(k, rel):
            grid = nodes.copy()
            grid[k] *= 1.0 + rel
            return grid

        nan_node, inf_end = nodes.copy(), nodes.copy()
        nan_node[4], inf_end[-1] = np.nan, np.inf
        rejected = [np.linspace(0.5, 4.0, 11), moved(3, 1e-9), moved(3, 2e-12), moved(7, -2e-12), nan_node, inf_end]
        for grid in rejected:
            v = TorusFourierField(lattice, grid, np.zeros((25, 11), dtype=complex))
            with pytest.raises(ValueError, match="Chebyshev"), np.errstate(invalid="ignore"):  # inf - inf
                nonlinear_residual(v)
            assert _chebyshev.cache_info().currsize == 0
        # within 1e-12 of each node, relative to it, a grid is accepted
        for grid in (moved(3, 5e-13), moved(7, -5e-13)):
            res = nonlinear_residual(TorusFourierField(lattice, grid, np.zeros((25, 11), dtype=complex)))
            assert np.all(res.coeffs == 0.0)

    @settings(max_examples=40)
    @given(
        m_cut=st.integers(1, 4),
        n=st.integers(4, 160),
        extra=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_half_lattice_is_exact(self, lattice, m_cut, n, extra, seed):
        # the residual and the step hold one mode of each +-mu pair; the
        # residual, expanded to the whole square, is the per-mode computation
        # of every mode, the whole-lattice residual oracle, and the step
        # solves each mode's own collocation system to a backward error at
        # rounding level (a forward comparison would measure the
        # conditioning, about n^4)
        modes = make_modes(m_cut)
        v = _chebyshev_field(lattice, n, 0.02 * _hermitian_coeffs(modes, n + 1, seed))
        n_colloc = 2 * m_cut + extra
        res = nonlinear_residual(v, n_colloc).coeffs
        assert res.shape == v.coeffs.shape
        ref = _residual_whole_lattice(v, n_colloc)
        assert np.max(np.abs(_square(modes, res)[1] - ref)) <= 1e-13 * np.max(np.abs(ref))

        norms = v.mu_norms()
        distinct, group = np.unique(norms, return_inverse=True)
        inverses = _mode_inverses(distinct, 0.5, 4.0, n)[0][group]
        rhs = _hermitian_coeffs(modes, n + 1, seed + 1)
        step = _half_lattice_product(inverses, rhs)
        assert step.shape == rhs.shape
        D = _chebyshev(0.5, 4.0, n)[1]
        for k in range(len(modes)):
            A = _collocation_matrix(norms[k], v.rho, D)
            scale = np.max(np.abs(A).sum(axis=1)) * np.max(np.abs(step[k]))
            assert np.max(np.abs(A @ step[k] - rhs[k])) <= 1e-14 * scale


def _near(z, log_distance, angle):
    return z + 10.0**log_distance * np.exp(1j * angle)


# the validated p0 domain: generic points, points 1e-3 to 0.1 from a
# puncture, and |p0| from 1e3 to 1e12, where rho_max = max(3 / lambda_T, 4)
# grows from 4 to about 6.6
_P0 = st.one_of(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    st.builds(_near, st.sampled_from([0.0, 1.0]), st.floats(-3.0, -1.0), st.floats(-np.pi, np.pi)),
    st.builds(_near, st.just(0.0), st.floats(3.0, 12.0), st.floats(-np.pi, np.pi)),
).filter(lambda p: min(abs(p), abs(p - 1.0)) >= 1e-3)


class TestSolveNonlinear:
    def test_zero_data(self, lattice):
        sol = solve_nonlinear({}, None, 2, lattice)
        assert np.max(np.abs(sol.v.coeffs)) == 0.0
        # w = 1/rhat exactly
        w00 = sol.w.coeffs[sol.w.index(0, 0)]
        assert np.allclose(w00.real, sol.rho**-2.0)

    def test_output_grid(self, lattice, solution):
        # n_rho uniform nodes of [rho_min, rho_max], whatever the Chebyshev nodes
        assert np.array_equal(solution.rho, np.linspace(0.5, 4.0, 1401))
        sol = solve_nonlinear({}, 3.0, 2, lattice, n_rho=5)
        assert np.array_equal(sol.rho, np.linspace(0.5, 3.0, 5))
        with pytest.raises(ValueError, match="n_rho"):
            solve_nonlinear({}, 3.0, 2, lattice, n_rho=4)

    def test_mode_concentration(self, lattice, solution, mu0_data):
        mu0, _ = mu0_data
        normsq = np.abs(solution.v.coeffs[:, -1]) ** 2
        norms = solution.v.mu_norms()
        shell = np.abs(norms - mu0) < 1e-9 * mu0
        assert normsq[shell].sum() / normsq.sum() > 0.99

    def test_reality(self, solution):
        # the production synthesis forms the real part only; the FFT oracle
        # of the whole square shows the discarded imaginary part, that of
        # the mean mode included, is at rounding level
        vals = _synthesize_fft(*_square(solution.v.modes, solution.v.coeffs), 16)
        assert np.max(np.abs(vals.imag)) < 1e-12

    def test_grouped_solve_matches_per_mode(self, lattice):
        # one inverse per distinct |mu|, applied to the stacked half-lattice
        # rows, gives the dense solve of every mode's own collocation system
        modes = make_modes(3)
        rho, D, _, _ = _chebyshev(0.5, 4.0, 64)
        norms = TorusFourierField(lattice, rho, np.zeros((len(modes), len(rho)))).mu_norms()
        distinct, group = np.unique(norms, return_inverse=True)
        assert len(distinct) < len(modes)
        inverses, g = _mode_inverses(distinct, 0.5, 4.0, 64)
        rhs = _hermitian_coeffs(modes, len(rho), 7)
        step = _half_lattice_product(inverses[group], rhs)
        for k in range(len(modes)):
            A = _collocation_matrix(norms[k], rho, D)
            if norms[k] > 0.0:
                assert g[group[k]] == pytest.approx(D[-1, -1] - A[-1, -1], rel=1e-13)
            ref = np.linalg.solve(A, rhs[k])
            assert np.max(np.abs(step[k] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_non_finite_step_fails_typed(self, monkeypatch, lattice, mu0_data):
        # a NaN in the per-|mu| inverses makes every trial residual NaN; the
        # line search accepts none of them and the solve raises
        inverses = lebrun._mode_inverses

        def poisoned(*args):
            inv, g = inverses(*args)
            inv = inv.copy()
            inv[:, 3, 3] = np.nan
            return inv, g

        monkeypatch.setattr(lebrun, "_mode_inverses", poisoned)
        _, (m, n) = mu0_data
        with pytest.raises(ConvergenceError, match="stalled"):
            solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 2, lattice)

    def test_mean_mode_cauchy_rows(self, nodal):
        # the mean mode of the solution is the decaying particular solution:
        # zero value and derivative at rho_max, and on a finer grid its
        # correction agrees with the finite-difference inward march at
        # second order
        D = _chebyshev(0.5, 4.0, len(nodal.rho) - 1)[1]
        v00 = nodal.coeffs[nodal.index(0, 0)]
        assert v00[-1] == 0.0
        assert abs(D[-1] @ v00) < 1e-12
        rho = _chebyshev(0.5, 4.0, 64)[0]
        f = np.exp(-3.0 * rho) * np.cos(2.0 * rho)
        rhs = f.copy()
        rhs[0] = rhs[-1] = 0.0
        v = _mode_inverses([0.0], 0.5, 4.0, 64)[0][0] @ rhs
        errs = []
        for n_rho in (401, 801):
            grid = np.linspace(0.5, 4.0, n_rho)
            march = _march_numpy_scalars(grid, np.exp(-3.0 * grid[1:-1]) * np.cos(2.0 * grid[1:-1])).real
            errs.append(np.max(np.abs(_barycentric(rho, grid) @ v - march)))
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_spectral_convergence(self, lattice, solution, mu0_data):
        _, (m, n) = mu0_data
        bigger = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 6, lattice)
        a = solution.v.coeffs[solution.v.index(-m, -n)]
        b = bigger.v.coeffs[bigger.v.index(-m, -n)]
        assert np.max(np.abs(a - b)) < 1e-8

    def test_matches_finite_difference_reference(self, lattice, mu0_data, solution):
        # the 5601-node second-order solution is 6.9e-8 sup-relative from the
        # Chebyshev one (its own O(h^2) error; the 1401-node grid was 1.0e-6
        # away), and the finite-difference residual of the interpolated
        # Chebyshev solution falls at second order in the spacing
        _, (m, n) = mu0_data
        data = {(m, n): 0.05, (-m, -n): 0.05}
        n_colloc = default_colloc(3)
        sups = []
        for n_rho in (1401, 2801):
            v = solve_nonlinear(data, None, 3, lattice, n_rho=n_rho).v
            sups.append(np.max(np.abs(_residual_fd(v, n_colloc)[:, 1:-1])))
        assert 3.5 < sups[0] / sups[1] < 4.5
        fine = solve_nonlinear(data, None, 3, lattice, n_rho=5601)
        bc = np.array([data.get((int(a), int(b)), 0.0) for a, b in fine.v.modes])
        ref, sup = _fd_reference(fine, bc, n_colloc)
        assert sup < 1e-3 * sups[1]
        dev = np.max(np.abs(ref.coeffs[:, ::4] - solution.v.coeffs)) / np.max(np.abs(ref.coeffs))
        assert dev < 2e-7

    def test_node_count_doubles_at_large_rho_max(self, monkeypatch, lattice, mu0_data):
        # at rho_max = 12 the 64-interval tail is 1.4e-8 of the largest
        # Chebyshev coefficient, so the solve moves to 128 intervals, which
        # agree with a 256-interval solve to the rule's tolerance; past the
        # cap the solve fails typed
        _, (m, n) = mu0_data
        data = {(m, n): 0.05, (-m, -n): 0.05}
        nodes = []
        residual = lebrun.nonlinear_residual

        def recording(v, *args):
            nodes.append(len(v.rho))
            return residual(v, *args)

        monkeypatch.setattr(lebrun, "nonlinear_residual", recording)
        sol = solve_nonlinear(data, 12.0, 3, lattice)
        assert sorted(set(nodes)) == [65, 129]
        monkeypatch.setattr(grids, "CHEB_INTERVALS", 256)
        finer = solve_nonlinear(data, 12.0, 3, lattice)
        scale = np.max(np.abs(finer.v.coeffs))
        assert np.max(np.abs(sol.v.coeffs - finer.v.coeffs)) < grids.CHEB_TAIL_TOL * scale
        monkeypatch.setattr(grids, "CHEB_INTERVALS", 64)
        monkeypatch.setattr(grids, "CHEB_MAX_INTERVALS", 64)
        with pytest.raises(ConvergenceError, match="Chebyshev tail"):
            solve_nonlinear(data, 12.0, 3, lattice)

    def test_stall_doubles_the_intervals(self, monkeypatch, lattice, mu0_data):
        # at rho_max = 40 Newton stalls on 64 intervals (residual 2.2e-2);
        # the stall moves the solve to 128 intervals and the tail rule on to
        # 256, where it meets the sharp rate; past the cap the stall is final
        _, (m, n) = mu0_data
        data = {(m, n): 0.05, (-m, -n): 0.05}
        nodes = []
        residual = lebrun.nonlinear_residual

        def recording(v, *args):
            nodes.append(len(v.rho))
            return residual(v, *args)

        monkeypatch.setattr(lebrun, "nonlinear_residual", recording)
        sol = solve_nonlinear(data, 40.0, 3, lattice)
        assert sorted(set(nodes)) == [65, 129, 257]
        rate, _ = fit_decay(sol)
        assert rate == pytest.approx(2.0 * sol.lambda_t, rel=0.03)
        monkeypatch.setattr(grids, "CHEB_MAX_INTERVALS", 64)
        with pytest.raises(ConvergenceError, match="stalled"):
            solve_nonlinear(data, 40.0, 3, lattice)

    @settings(max_examples=30, deadline=None)
    @given(p0=_P0, amp=st.floats(1e-6, 0.2), m_cut=st.integers(2, 4))
    def test_whole_p0_domain(self, p0, amp, m_cut):
        # every validated p0 either solves, with the sharp rate 2 lambda_T,
        # or fails typed;
        # amplitudes below about 1e-9 leave the whole field under
        # fit_decay's 1e-13 underflow floor
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericTorusWarning)
            lattice = ToyConfig.from_p0(p0).torus
        m, n = lattice.min_dual_norm()[1][0]
        try:
            sol = solve_nonlinear({(m, n): amp / 2, (-m, -n): amp / 2}, None, m_cut, lattice)
        except (PerturbativeRegimeError, ConvergenceError):
            return
        rate, _ = fit_decay(sol)
        assert rate == pytest.approx(2.0 * sol.lambda_t, rel=0.03)

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

    @pytest.mark.filterwarnings("error")
    def test_non_finite_data_or_no_modes_fail_fast(self, lattice, mu0_data, monkeypatch):
        _, (m, n) = mu0_data

        def unreachable(*args, **kwargs):
            raise AssertionError("inner data reached the solver")

        monkeypatch.setattr(TorusLattice, "min_dual_norm", unreachable)
        for c in (np.nan, np.inf, complex(0.01, -np.inf)):
            with pytest.raises(ValueError, match="inner data must be finite"):
                solve_nonlinear({(m, n): c}, None, 3, lattice)
        # checked before the data, which would otherwise lie outside cutoff 0
        with pytest.raises(ValueError, match="mode cutoff must be >= 1"):
            solve_nonlinear({(m, n): 0.05}, None, 0, lattice)
        for mode in ((0.5, 1), (4, 0)):
            with pytest.raises(ValueError, match="integer mode within cutoff 3"):
                solve_nonlinear({mode: 0.05}, None, 3, lattice)

    def test_missing_conjugate_is_filled(self, lattice, mu0_data):
        _, (m, n) = mu0_data
        one = solve_nonlinear({(m, n): 0.04 + 0.02j}, None, 2, lattice)
        both = solve_nonlinear({(m, n): 0.04 + 0.02j, (-m, -n): 0.04 - 0.02j}, None, 2, lattice)
        assert np.array_equal(one.v.coeffs, both.v.coeffs)
        floats = solve_nonlinear({(float(m), float(n)): 0.04 + 0.02j}, None, 2, lattice)
        assert np.array_equal(one.v.coeffs, floats.v.coeffs)
        stored = solve_nonlinear({(-m, -n): 0.04 - 0.02j}, None, 2, lattice)
        assert np.array_equal(one.v.coeffs, stored.v.coeffs)
        assert one.v.coeffs[one.v.index(-m, -n), 0] == 0.04 - 0.02j

    def test_perturbative_guard(self, lattice, mu0_data):
        _, (m, n) = mu0_data
        with pytest.raises(PerturbativeRegimeError):
            solve_nonlinear({(m, n): 0.3, (-m, -n): 0.3}, None, 2, lattice)

    def test_spectral_truncation_diagnostic(self, solution):
        # last retained shell below 1e-10 of the leading shell
        assert truncation_diagnostic(solution.v) < 1e-10

    def test_w_consistency(self, solution, nodal):
        # w - 1/rhat = (2 rho)^{-1} dv/drho: by construction, the nodal
        # derivative interpolated onto the output grid; and recomputed in
        # the Chebyshev basis of numpy.polynomial, where differentiating the
        # degree-64 series costs about n^2 eps
        from numpy.polynomial import chebyshev as C

        rho = solution.rho
        mean = solution.v.index(0, 0)
        _, D, _, _ = _chebyshev(nodal.rho[0], nodal.rho[-1], len(nodal.rho) - 1)
        P = _barycentric(nodal.rho, rho)
        w_again = (nodal.coeffs @ D.T / (2.0 * nodal.rho)) @ P.T
        w_again[mean] += rho**-2.0
        assert np.max(np.abs(nodal.coeffs @ P.T - solution.v.coeffs)) < 1e-14
        assert np.max(np.abs(w_again - solution.w.coeffs)) < 1e-14
        rho_min, rho_max = nodal.rho[0], nodal.rho[-1]
        to_x = lambda r: (2.0 * r - rho_min - rho_max) / (rho_max - rho_min)  # noqa: E731
        series = C.chebfit(to_x(nodal.rho), nodal.coeffs.T, len(nodal.rho) - 1)
        v = C.chebval(to_x(rho), series)
        w_again = C.chebval(to_x(rho), C.chebder(series)) / ((rho_max - rho_min) * rho)
        w_again[mean] += rho**-2.0
        assert np.max(np.abs(v - solution.v.coeffs)) < 1e-14
        assert np.max(np.abs(w_again - solution.w.coeffs)) < 1e-12


def _span_mod_n(generators, n):
    """Oracle: the subgroup of (Z/n)^2 that ``generators`` generate, by closing {0} under adding each one."""
    group, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        m, k = frontier.pop()
        for a, b in generators:
            point = ((m + a) % n, (k + b) % n)
            if point not in group:
                group.add(point)
                frontier.append(point)
    return group


def _every_row(modes, generators, n):
    """``_in_span`` replaced: every row solved, the oracle of the support restriction."""
    return np.ones(len(modes), dtype=bool)


def _pair_data(pairs):
    """Inner data of +- pairs: c at mu and conj c at -mu."""
    data = {}
    for (m, n), c in pairs:
        data[(m, n)], data[(-m, -n)] = c, np.conj(c)
    return data


def _support_against_every_row(lattice, data, m_cut):
    """The solve on its support and the every-row oracle, and the support mask."""
    sol = solve_nonlinear(data, None, m_cut, lattice, n_rho=65)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lebrun, "_in_span", _every_row)
        oracle = solve_nonlinear(data, None, m_cut, lattice, n_rho=65)
    on = _in_span(make_modes(m_cut), [mode for mode, c in data.items() if c != 0], default_colloc(m_cut))
    return sol, oracle, on


def _assert_support_matches(sol, oracle, on):
    # the support rows agree with the oracle, whose other rows of v hold
    # rounding only (those of w hold its radial derivative, up to 1e3 times
    # larger), and the restricted solve leaves those rows exactly 0
    assert np.max(np.abs(oracle.v.coeffs[~on]), initial=0.0) <= 1e-15
    assert np.max(np.abs(oracle.w.coeffs[~on]), initial=0.0) <= 1e-12
    for f, ref in ((sol.v, oracle.v), (sol.w, oracle.w)):
        assert np.max(np.abs(f.coeffs[on] - ref.coeffs[on])) <= 1e-12
        assert np.all(f.coeffs[~on] == 0.0)


_DATA_MODE = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda mode: mode != (0, 0))


class TestSupport:
    """``solve_nonlinear`` solves only the rows in the integer span of its data's modes and the grid's period."""

    @settings(max_examples=200, deadline=None)
    @given(
        generators=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=3),
        m_cut=st.integers(1, 4),
        n=st.sampled_from([7, 12, 16, 20]),
    )
    def test_in_span_matches_closure(self, generators, m_cut, n):
        # the Hermite normal form decides membership as the closure of the
        # generators in (Z/n)^2 does, also where a point of the span needs an
        # intermediate sum outside the box
        modes = make_modes(m_cut)
        group = _span_mod_n(generators, n)
        expected = [(int(m) % n, int(k) % n) in group for m, k in modes]
        assert _in_span(modes, generators, n).tolist() == expected

    def test_in_span_reaches_outside_the_box(self):
        # (3, 2) and (2, 3) span a sublattice of index 5, which with 16 Z^2
        # is all of Z^2; sums that stay inside the m_cut 3 box reach only
        # 0, +-(3, 2), +-(2, 3) and +-k (1, -1), k <= 3
        assert _in_span(make_modes(3), [(3, 2), (2, 3)], 16).all()
        assert _in_span(make_modes(3), [(2, 0)], 16).tolist() == [m % 2 == 0 and k == 0 for m, k in make_modes(3)]

    @settings(max_examples=40, deadline=None)
    @given(
        p0=st.one_of(
            st.floats(0.05, 0.95).map(complex),
            st.builds(complex, st.floats(-1.0, 2.0), st.floats(0.05, 1.5)),
        ),
        pairs=st.lists(
            st.tuples(_DATA_MODE, st.complex_numbers(max_magnitude=0.05, allow_nan=False, allow_infinity=False)),
            min_size=1,
            max_size=2,
        ),
        m_cut=st.integers(1, 3),
    )
    def test_matches_every_row_solve(self, p0, pairs, m_cut):
        pairs = [((max(-m_cut, min(m_cut, m)), max(-m_cut, min(m_cut, n))), c) for (m, n), c in pairs]
        pairs = [(mode, c) for mode, c in pairs if mode != (0, 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericTorusWarning)
            lattice = ToyConfig.from_p0(p0).torus
        _assert_support_matches(*_support_against_every_row(lattice, _pair_data(pairs), m_cut))

    def test_empty_and_mean_only_data(self, lattice):
        # only the mean mode is in the support; it is solved, all else is 0
        for data in ({}, {(0, 0): 0.05}, {(0, 0): -0.03}):
            sol, oracle, on = _support_against_every_row(lattice, data, 2)
            assert on.tolist() == [True] + [False] * (len(on) - 1)
            _assert_support_matches(sol, oracle, on)

    def test_spanning_pairs_drop_no_row(self, lattice):
        # (2, 1) and (1, 1) span Z^2, so every row is solved
        data = _pair_data([((2, 1), 0.04 + 0.01j), ((1, 1), -0.03j)])
        sol, oracle, on = _support_against_every_row(lattice, data, 2)
        assert on.all()
        _assert_support_matches(sol, oracle, on)

    def test_criterion_9_support(self, lattice, mu0_data, solution):
        # the leading pair (0, +-1) reaches the four rows (0, 0..3), so four
        # distinct norms are inverted instead of sixteen
        _, (m, n) = mu0_data
        on = _in_span(make_modes(3), [(m, n)], default_colloc(3))
        assert make_modes(3)[on].tolist() == [[0, 0], [0, 1], [0, 2], [0, 3]]
        assert np.all(solution.v.coeffs[~on] == 0.0)
        assert np.all(solution.w.coeffs[~on] == 0.0)


class TestFitDecay:
    def test_synthetic_mode(self, lattice, mu0_data):
        mu0, (m, n) = mu0_data
        rho = np.linspace(2.0, 12.0, 3000)
        modes = make_modes(1)
        coeffs = np.zeros((len(modes), len(rho)), dtype=complex)
        f = TorusFourierField(lattice, rho, coeffs)
        phi = linear_mode_solution(mu0, rho)
        coeffs[f.index(-m, -n)] = 0.5 * phi  # and its conjugate at (m, n)
        sol = LeBrunSolution(v=f, w=f)  # fit_decay reads v only
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

    @pytest.mark.parametrize("n_rho", [5, 7])
    def test_too_short_grid_is_not_underflow(self, lattice, mu0_data, n_rho):
        # a grid shorter than the fit window is named as such, not as a
        # field that underflowed (its shell amplitude here is about 0.1)
        _, (m, n) = mu0_data
        sol = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 2, lattice, n_rho=n_rho)
        assert sol.v.shell_amplitude().max() > 0.05
        with pytest.raises(ValueError, match=f"at least 8 radial nodes, got {n_rho}") as err:
            fit_decay(sol)
        assert not isinstance(err.value, UnderflowWindowError)

    def test_constant_field_degenerate(self, lattice):
        rho = np.linspace(0.5, 4.0, 200)
        modes = make_modes(1)
        coeffs = np.zeros((len(modes), len(rho)), dtype=complex)
        f = TorusFourierField(lattice, rho, coeffs)
        coeffs[f.index(0, 1)] = 1.0  # and its conjugate at (0, -1)
        sol = LeBrunSolution(v=f, w=f)  # fit_decay reads v only
        with pytest.raises(UnderflowWindowError):
            fit_decay(sol)


class TestConnectionAndMetric:
    def test_zero_field_connection(self, lattice):
        sol = solve_nonlinear({}, None, 2, lattice)
        for v_i in sol.v.gradient():  # w a2 = -v_x, w a3 = -v_y
            assert np.max(np.abs(v_i.coeffs)) == 0.0

    def test_connection_matches_trapezoid_integral(self, lattice):
        # independent of the closed form: integrate d(w a_i)/drhat = -w_i
        # inward by the trapezoid rule, drhat = 2 rho drho, from the decay
        # value -v_i(rho_max); seeded along both dual directions so that
        # wa2 and wa3 are both of order the data
        seeded = {(1, 0): 0.02, (-1, 0): 0.02, (0, 1): 0.02, (0, -1): 0.02}
        errs = []
        for n_rho in (1401, 2801):
            sol = solve_nonlinear(seeded, None, 2, lattice, n_rho=n_rho)
            rho = sol.rho
            err = 0.0
            for w_i, v_i in zip(sol.w.gradient(), sol.v.gradient()):
                wa = -v_i.coeffs  # the closed form w a2 = -v_x, w a3 = -v_y
                C = cumulative_trapezoid(-w_i.coeffs * (2.0 * rho), rho, axis=1, initial=0.0)
                ref = C - C[:, -1:] - v_i.coeffs[:, -1:]
                assert np.max(np.abs(wa)) > 0.02
                err = max(err, np.max(np.abs(ref - wa)))
            errs.append(err)
        # the quadrature's O(h^2) error, 7.9e-7 and 2.0e-7: a 1 % error in
        # the connection would read 3e-4 at both sizes
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert errs[1] < 1e-6

    def test_leading_behaviour(self, solution, mu0_data):
        mu0, _ = mu0_data
        lam = 2 * np.pi * mu0
        rho = solution.rho
        N = 16
        WA2, WA3 = (-f.values(N) for f in solution.v.gradient())
        T, Tx, Ty = _trig_factor(solution, N)
        pred = -bessel_k(1, 2 * lam * rho)[:, None, None] / rho[:, None, None] * Ty[None]
        mask = (rho > 1.2) & (rho < 2.4)
        dev = np.max(np.abs(WA3[mask] - pred[mask])) / np.max(np.abs(pred[mask]))
        assert dev < 0.05
        # near rho_max, where T-hat is calibrated, the leading shell is
        # nearly all of v, so wa3 = -v_y is its K1 profile
        mask = rho > 3.0
        dev = np.max(np.abs(WA3[mask] - pred[mask])) / np.max(np.abs(pred[mask]))
        assert dev < 1e-3
        # the canonical lattice has mu0 along y, so wa2 is comparatively tiny
        assert np.max(np.abs(WA2[mask])) < 0.01 * np.max(np.abs(WA3[mask]))

    def test_third_curvature_relation_reads_torus_floor(self, lattice, mu0_data):
        # d_x(w a2) + d_y(w a3) = d_rhat(e^u w) is the reduced equation
        # itself once w a_i = -v_i, so its defect reads the torus
        # truncation: 1.3e-7 to 1.4e-7 at m_cut = 3 for 501 to 2001 nodes,
        # 2.3e-9 at m_cut = 4, on 1 < rho < 3.  The rhat derivative is a
        # fourth-order difference in rho (rhat = rho^2), whose error is
        # below that floor on 1001 nodes
        _, (m, n) = mu0_data
        sups = {}
        for m_cut in (3, 4):
            sol = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, 6.0, m_cut, lattice, n_rho=1001)
            vx, vy = sol.v.gradient()
            N = 16
            rho = sol.rho
            h = rho[1] - rho[0]
            # w e^u = e^v rhat w in real space
            EU = np.exp(sol.v.values(N)) * rho[:, None, None] ** 2 * sol.w.values(N)
            dEU = np.full_like(EU, np.nan)
            dEU[2:-2] = (EU[:-4] - 8.0 * EU[1:-3] + 8.0 * EU[3:-1] - EU[4:]) / (12.0 * h)
            dEU /= 2.0 * rho[:, None, None]
            lhs = -(vx.gradient()[0].values(N) + vy.gradient()[1].values(N))  # w a2 = -v_x, w a3 = -v_y
            mask = (rho > 1.0) & (rho < 3.0)
            sups[m_cut] = np.max(np.abs((lhs - dEU)[mask]))
        # against |lhs| of about 1.5e-2 there: a 1 % error in wa3 reads 1.5e-4
        assert sups[3] < 3e-7
        assert sups[4] < 0.1 * sups[3]

    def test_semiflat_matches_toymodel(self, lattice):
        # node-for-node agreement of the zero-field metric with the
        # four-punctured-sphere semiflat metric at r = rhat
        from hitchinlab.oracles import BasePoint, semiflat_metric

        cfg = ToyConfig.from_p0(0.3)
        md = metric_difference_full(solve_nonlinear({}, None, 2, lattice))
        g = _plus_semiflat(md)
        for i in (0, len(md.r) // 2, len(md.r) - 1):
            r = md.r[i, 0, 0]
            ref = semiflat_metric(BasePoint(r / cfg.c_sk, cfg.c_sk))
            assert np.max(np.abs(g[i, 0, 0] - ref)) < 1e-12

    def test_positive_definite(self, solution):
        ev = np.linalg.eigvalsh(_plus_semiflat(metric_difference_full(solution)))
        assert ev.min() > 0

    def test_radial_change(self, lattice, solution, mu0_data):
        # r = rhat e^v: the identity at zero field, monotone in rhat and
        # led by the K1 shell otherwise
        sol0 = solve_nonlinear({}, None, 2, lattice)
        r = metric_difference_full(sol0).r
        assert np.max(np.abs(r - sol0.rho[:, None, None] ** 2)) == 0.0
        mu0, _ = mu0_data
        lam = 2 * np.pi * mu0
        rhat, r = solution.rho**2, metric_difference_full(solution).r
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
        assert np.max(np.abs(hd)) == 0.0
        md = metric_difference_full(sol)
        assert np.max(np.abs(md.difference)) < 1e-13

    def test_section_coefficient(self, solution, mu0_data):
        mu0, _ = mu0_data
        lam = 2 * np.pi * mu0
        r00, rw, t00 = section_profiles(solution)
        r_q = np.linspace(r00[len(r00) // 2], r00[-2], 40)
        hd = hitchin_section_difference(solution, r_q)
        got = hd[..., 0, 0] * r_q
        pred = lam * bessel_k(0, 2 * lam * np.sqrt(r_q)) * t00
        assert np.max(np.abs(got - pred) / np.abs(pred)) < 0.05
        assert np.allclose(hd[..., 1, 1], got * r_q, rtol=1e-12)

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
        pk0, pk1 = predicted_bessel_parts(solution, md.r, md.difference.shape[1])
        fro = np.sqrt(((md.difference - pk0 - pk1) ** 2).sum(axis=(-2, -1))).max(axis=(1, 2))
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

    def test_predicted_parts_formulas(self, lattice, mu0_data):
        # the metric difference holds its two arrays only, and the predicted
        # parts are bit for bit the K0 and K1 formulas
        _, (m, n) = mu0_data
        sol = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 2, lattice, n_rho=201)
        md = metric_difference_full(sol)
        assert set(vars(md)) == {"r", "difference"}
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
        got_k0, got_k1 = predicted_bessel_parts(sol, r, md.difference.shape[1])
        assert np.array_equal(got_k0, pk0)
        assert np.array_equal(got_k1, pk1)

    @pytest.mark.parametrize("n_colloc", [None, 4])
    @pytest.mark.parametrize("nodes", [np.s_[::58], np.array([0, 5, 700, 1399])], ids=["stride", "index"])
    def test_node_subset_matches_full_evaluation(self, solution, n_colloc, nodes):
        # a radial subset short of the last node is the whole-grid result at
        # those nodes, bit for bit, T-hat still calibrated at the outermost node
        assert len(solution.rho) - 1 not in np.arange(len(solution.rho))[nodes]
        full = metric_difference_full(solution, n_colloc)
        part = metric_difference_full(solution, n_colloc, nodes=nodes)
        for name in ("r", "difference"):
            assert np.array_equal(getattr(part, name), getattr(full, name)[nodes]), name
        n = full.r.shape[-1]
        for got, whole in zip(predicted_bessel_parts(solution, part.r, n), predicted_bessel_parts(solution, full.r, n)):
            assert np.array_equal(got, whole[nodes])

    def test_builder_matches_hand_expansion(self, lattice, solution):
        # the builder against the written-out formulas, to 1e-13 of the
        # largest entry (d_23 cancels to exactly 0 in both); the fixture
        # has wa2 ~ 0, so a small solve seeded along both dual directions
        # follows
        seeded = {(1, 0): 0.02, (-1, 0): 0.02, (0, 1): 0.02, (0, -1): 0.02}
        for sol in (solution, solve_nonlinear(seeded, None, 2, lattice, n_rho=201)):
            md = metric_difference_full(sol)
            r, g = _metric_difference_hand_expanded(sol, default_colloc(sol.v.m_cut))
            assert np.array_equal(md.r, r)
            assert np.max(np.abs(md.difference - g)) <= 1e-13 * np.max(np.abs(g))

    def test_builder_is_pure_with_exact_cancellations(self, lattice):
        # the builder reads sol and writes nothing back; the closed-form
        # connection makes d_23 vanish and d_22 equal d_33 exactly
        seeded = {(1, 0): 0.02, (-1, 0): 0.02, (0, 1): 0.02, (0, -1): 0.02}
        sol = solve_nonlinear(seeded, None, 2, lattice, n_rho=201)
        v, w, names = sol.v, sol.w, set(vars(sol))
        v_coeffs, w_coeffs = v.coeffs.copy(), w.coeffs.copy()
        md = metric_difference_full(sol)
        assert set(vars(sol)) == names and sol.v is v and sol.w is w
        assert np.array_equal(v.coeffs, v_coeffs) and np.array_equal(w.coeffs, w_coeffs)
        d = md.difference
        assert np.max(np.abs(d[..., 0, 3])) > 1e-3  # the cross terms are live
        assert np.all(d[..., 2, 3] == 0.0) and np.all(d[..., 3, 2] == 0.0)
        assert np.array_equal(d[..., 2, 2], d[..., 3, 3])

    def test_bessel_identity_chain_on_window(self, solution, mu0_data):
        # the identities used to assemble the K0 coefficient hold at the
        # evaluated arguments
        mu0, _ = mu0_data
        lam = 2 * np.pi * mu0
        z = 2 * lam * solution.rho
        k0, k1, k2 = (bessel_k(nu, z) for nu in (0, 1, 2))
        assert np.max(np.abs(k0 - k2 + 2.0 / z * k1)) < 1e-10
        h = 1e-6
        d1 = (bessel_k(1, z + h) - bessel_k(1, z - h)) / (2 * h)
        assert np.max(np.abs(z * d1 - k1 + z * k2)) < 1e-5


class TestDegenerateShell:
    @pytest.mark.parametrize("p0, n_reps", [(0.5, 2), (complex(0.5, 0.75**0.5), 3)], ids=["square", "hexagonal"])
    def test_shell_rows_one_per_rep(self, p0, n_reps):
        # p0 = 1/2 gives tau = i, two shortest dual vectors, and e^{i pi/3}
        # the hexagonal torus, three: the shell holds one stored row per
        # rep, the partner of each, and its amplitude is the |coeff| sum
        # over +-reps of the whole square
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericTorusWarning)
            lat = ToyConfig.from_p0(p0).torus
            reps = lat.min_dual_norm()[1]
        assert len(reps) == n_reps
        m, n = reps[0]
        sol = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 3, lat)
        rows = sol.v.shell_rows()
        assert [tuple(sol.v.modes[k]) for k in rows] == [(-a, -b) for a, b in reps]
        modes, coeffs = _square(sol.v.modes, sol.v.coeffs)
        shell = [k for k, mn in enumerate(modes.tolist()) if tuple(mn) in reps or (-mn[0], -mn[1]) in reps]
        assert len(shell) == 2 * n_reps
        ref = np.abs(coeffs[shell]).sum(axis=0)
        assert np.max(np.abs(sol.v.shell_amplitude() / ref - 1.0)) <= 1e-15

    def test_hexagonal_lattice_warns_and_fits(self):
        # three inequivalent shortest dual vectors; the fit uses the
        # combined shell and still lands on 2 lambda_T
        with pytest.warns(NonGenericTorusWarning):
            lat = TorusLattice.from_tau(np.exp(1j * np.pi / 3))
        mu0, reps = lat.min_dual_norm()
        assert len(reps) == 3
        m, n = reps[0]
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
        measured = hitchin_section_difference(sol, r_q)[..., 0, 0]
        predicted = toy.gmn_correction(cfg, r_q)[:, 0, 0]
        ratio = measured / predicted
        assert np.max(np.abs(ratio / ratio.mean() - 1.0)) < 0.05
