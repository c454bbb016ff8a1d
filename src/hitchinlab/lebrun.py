"""Circle-invariant hyperkahler metrics from a scalar reduction on T^2 x R+.

A 4d hyperkahler metric with a triholomorphic-plus-rotating circle action is
determined by a potential u(x, y, rhat) with

    Delta_T u + d^2/drhat^2 (e^u) = 0,        w = du/drhat > 0,

through g = e^u w (dx^2 + dy^2) + w drhat^2 + w^{-1} omega^2, where omega =
dtheta - w a3 dx + w a2 dy and the connection functions solve
d(w a2)/drhat = -w_x, d(w a3)/drhat = -w_y.  The flat (semiflat) solution is
u = log(rhat), w = 1/rhat.

Writing u = log(rhat) + v and rhat = rho^2, the deviation solves

    L v := rho^2 v_rr + 3 rho v_r + 4 rho^2 Delta_T v = Q(v),
    Q(v) = (1 - e^v)(rho^2 v_rr + 3 rho v_r) - e^v (rho v_r)^2,

whose torus modes decouple in the linear part:

    L_mu = rho^2 d^2/drho^2 + 3 rho d/drho - 16 pi^2 |mu|^2 rho^2,

with decaying solutions phi_mu = |mu|^{1/2} rho^{-1} K_1(4 pi |mu| rho)
(phi_0 = rho^{-2}).  Hence every decaying perturbation is dominated by the
shortest dual-lattice shell: |v| ~ rho^{-3/2} e^{-2 lambda_T rho} with
lambda_T = 2 pi |mu_0|, i.e. rhat^{-3/4} e^{-2 lambda_T sqrt(rhat)}.

``solve_nonlinear`` runs an inexact Newton iteration whose correction steps
solve the decoupled systems L_mu dv = -residual (banded), with Dirichlet
data at rho_min and a Robin condition matched to the K_1 log-derivative at
rho_max.  L_mu depends on |mu| only, so one band is built per distinct norm
before the iteration, and each step solves it once for all the modes of
that norm, their right-hand sides stacked as columns.  Nonlinear terms are
evaluated pseudospectrally on a collocation grid; every field is real
(Hermitian coefficients), so synthesis and projection are separable real
matmuls against the collocation phases.  ``fit_decay`` measures the
realized decay rate and prefactor power.  ``metric_difference_full``
evaluates g - g_sf in the coframe of the radial change r = rhat e^v; its
predicted Bessel parts and remainder are built only when read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from .grids import (
    banded_three_point,
    cumulative_from_right,
    fd_first,
    fd_first_boundary,
    fd_second,
    interior_weights,
)
from .metrics import MetricComponents
from .special import ConvergenceError, bessel_k, shortest_vectors

__all__ = [
    "TorusLattice",
    "TorusFourierField",
    "LeBrunSolution",
    "nonlinear_residual",
    "linear_mode_solution",
    "solve_nonlinear",
    "fit_decay",
    "connection_from_w",
    "hitchin_section_difference",
    "metric_difference_full",
    "MetricDifference",
    "AliasingError",
    "DegenerateShellWarning",
    "PerturbativeRegimeError",
    "UnderflowWindowError",
]


class AliasingError(ValueError):
    """Collocation grid too small for the requested mode cutoff."""


class PerturbativeRegimeError(ValueError):
    """Inner data too large for the perturbative solver."""


class UnderflowWindowError(RuntimeError):
    """No resolved decade available for the decay fit."""


class DegenerateShellWarning(UserWarning):
    """Several inequivalent dual vectors attain |mu_0|; fits use the combined shell."""


# ----------------------------------------------------------------------
# torus geometry and Fourier fields
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TorusLattice:
    """The flat torus R^2 / c_fib (Z + tau Z) and its dual lattice."""

    tau: complex
    c_fib: float

    @classmethod
    def from_tau(cls, tau: complex) -> "TorusLattice":
        tau = complex(tau)
        if not tau.imag > 0:
            raise ValueError("tau must lie in the upper half plane")
        return cls(tau, float(np.pi * np.sqrt(2.0 / tau.imag)))

    @property
    def basis(self) -> np.ndarray:
        """Columns are the lattice vectors a, b in R^2."""
        return self.c_fib * np.array(
            [[1.0, self.tau.real], [0.0, self.tau.imag]]
        )

    @property
    def dual_basis(self) -> np.ndarray:
        """Columns are the dual vectors ahat, bhat (ahat . a = 1 etc.)."""
        return np.linalg.inv(self.basis).T

    def mu_vector(self, m: int, n: int) -> np.ndarray:
        d = self.dual_basis
        return m * d[:, 0] + n * d[:, 1]

    def min_dual_norm(self):
        """Smallest nonzero |mu| and the modes attaining it (up to sign)."""
        d = self.dual_basis
        return shortest_vectors(complex(d[0, 0], d[1, 0]), complex(d[0, 1], d[1, 1]))


@dataclass
class TorusFourierField:
    """Fourier data over the dual lattice, per radial node.

    ``modes`` is an (K, 2) integer array of (m, n); ``coeffs`` has shape
    (K, NR).  Real fields satisfy coeff(-mu) = conj(coeff(mu)).
    """

    lattice: TorusLattice
    modes: np.ndarray
    rho: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=int)
        self.rho = np.asarray(self.rho, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (len(self.modes), len(self.rho)):
            raise ValueError("coefficient array must be (n_modes, n_rho)")
        if np.any(np.diff(self.rho) <= 0) or self.rho[0] <= 0:
            raise ValueError("rho grid must be positive increasing")

    # -- mode bookkeeping --------------------------------------------------
    def index(self, m: int, n: int) -> int:
        hits = np.nonzero((self.modes[:, 0] == m) & (self.modes[:, 1] == n))[0]
        if len(hits) != 1:
            raise KeyError(f"mode ({m}, {n}) not present")
        return int(hits[0])

    @property
    def m_cut(self) -> int:
        return int(np.max(np.abs(self.modes)))

    def mu_norms(self) -> np.ndarray:
        d = self.lattice.dual_basis
        vecs = self.modes @ d.T
        return np.linalg.norm(vecs, axis=1)

    def mu_vectors(self) -> np.ndarray:
        return self.modes @ self.lattice.dual_basis.T

    def _conjugate_index(self) -> np.ndarray:
        """Row of -mu for each mode mu; KeyError when a conjugate is missing."""
        row = {(m, n): k for k, (m, n) in enumerate(self.modes.tolist())}
        try:
            return np.array([row[(-m, -n)] for (m, n) in self.modes.tolist()], dtype=int)
        except KeyError as exc:
            raise KeyError(f"mode {exc.args[0]} not present") from None

    def reality_defect(self) -> float:
        conj = np.conj(self.coeffs[self._conjugate_index()])
        return float(np.max(np.abs(self.coeffs - conj), initial=0.0))

    def symmetrized(self) -> "TorusFourierField":
        out = 0.5 * (self.coeffs + np.conj(self.coeffs[self._conjugate_index()]))
        return TorusFourierField(self.lattice, self.modes, self.rho, out)

    # -- transforms ---------------------------------------------------------
    def values(self, n_colloc: int) -> np.ndarray:
        """Real-space samples, shape (NR, N, N), at X_{jk} = (j a + k b)/N."""
        return _synthesize(self.modes, self.coeffs, n_colloc)

    def shell_amplitude(self) -> np.ndarray:
        """Summed |coeff| over the shortest nonzero dual shell, per radius."""
        _, shell = _leading_shell(self.mu_norms())
        return np.abs(self.coeffs[shell]).sum(axis=0)

    def truncation_diagnostic(self, rho_index: int = -1) -> float:
        """Outermost retained shell over leading shell, at one radial node.

        A small ratio certifies that the mode cutoff resolves the field
        (spectral accuracy); evaluated at the outer boundary by default,
        where the shell hierarchy is steepest.
        """
        cut = self.m_cut
        outer = np.max(np.abs(self.modes), axis=1) == cut
        _, shell = _leading_shell(self.mu_norms())
        lead = float(np.max(np.abs(self.coeffs[shell, rho_index])))
        if lead == 0.0:
            return 0.0
        return float(np.max(np.abs(self.coeffs[outer, rho_index]))) / lead


def _leading_shell(norms: np.ndarray):
    """The smallest nonzero |mu| and the mask of the norms on its shell."""
    mu0 = norms[norms > 0].min()
    return mu0, np.abs(norms - mu0) < 1e-9 * mu0


def make_modes(m_cut: int) -> np.ndarray:
    if m_cut < 1:
        raise ValueError("mode cutoff must be >= 1")
    grid = np.arange(-m_cut, m_cut + 1)
    mm, nn = np.meshgrid(grid, grid, indexing="ij")
    return np.column_stack([mm.ravel(), nn.ravel()])


def _phase_blocks(m_cut: int, n: int):
    """Real blocks of E[m, j] = exp(2 pi i j m / n), m = -m_cut..m_cut.

    With E = P + i S returns B = [[P, S], [-S, P]], shape (2M, 2n) with
    M = 2 m_cut + 1, and A = [P^T, -S^T] restricted to the rows m >= 0,
    shape (n, 2H) with H = m_cut + 1; complex contractions against E and
    conj(E) are then real matmuls with these.
    """
    ang = (2.0 * np.pi / n) * np.outer(np.arange(-m_cut, m_cut + 1), np.arange(n))
    P, S = np.cos(ang), np.sin(ang)
    B = np.block([[P, S], [-S, P]])
    A = np.concatenate([P[m_cut:].T, -S[m_cut:].T], axis=1)
    return B, A


def _fold(T: np.ndarray) -> np.ndarray:
    """(NR, X, 2, Y) -> (NR, 2X, Y): stack the real/imaginary halves along axis 1."""
    nr, x, _, y = T.shape
    return T.transpose(0, 2, 1, 3).reshape(nr, 2 * x, y)


def _synthesize(modes: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Real samples of sum_mu c_mu e^{2 pi i x . mu} on the N x N collocation grid.

    At X_{jk} = (j a + k b)/n the phase is exp(2 pi i (jm + kn)/n) for any
    lattice shape, so the sum is separable: one fancy-index assignment
    scatters the coefficients into an (NR, m, re/im, n) array, which is
    contracted against E[n, k] and then E[m, j] with real matmuls.  Every
    field here is Hermitian (coeff(-mu) = conj coeff(mu)), so the samples
    are real and only the real part is formed; the rows -m of the first
    contraction are the conjugates of the rows m, so only m >= 0 is kept,
    with weight 2 on m > 0.
    """
    m_cut = int(np.max(np.abs(modes)))
    M = 2 * m_cut + 1
    half = modes[:, 0] >= 0
    i, j = modes[half, 0], modes[half, 1] + m_cut
    C = np.zeros((coeffs.shape[1], m_cut + 1, 2, M))
    C[:, i, 0, j] = coeffs[half].real.T
    C[:, i, 1, j] = coeffs[half].imag.T
    B, A = _phase_blocks(m_cut, n)
    weight = np.tile(np.r_[1.0, np.full(m_cut, 2.0)], 2)
    return (A * weight) @ _fold((C.reshape(-1, 2 * M) @ B).reshape(-1, m_cut + 1, 2, n))


def _analyze(values: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Project real collocation samples (NR, N, N) back onto the retained modes.

    The adjoint of :func:`_synthesize`: contraction against conj(E) over k,
    then j, divided by N^2.  The samples are real, so only the columns n >= 0
    are formed and the rest are read as c(m, n) = conj c(-m, -n).  Returns
    (K, NR) complex coefficients.
    """
    n = values.shape[-1]
    m_cut = int(np.max(np.abs(modes)))
    M = 2 * m_cut + 1
    B, A = _phase_blocks(m_cut, n)
    spec = (B @ _fold((values.reshape(-1, n) @ A).reshape(-1, n, 2, m_cut + 1))) / (n * n)
    sign = np.where(modes[:, 1] >= 0, 1, -1)
    i, j = sign * modes[:, 0] + m_cut, sign * modes[:, 1]
    return (spec[:, i, j] + 1j * sign * spec[:, M + i, j]).T


def default_colloc(m_cut: int) -> int:
    # 3/2-rule with margin: products of retained modes stay alias-free
    return max(16, 4 * m_cut + 4)


# ----------------------------------------------------------------------
# the reduced equation
# ----------------------------------------------------------------------

def nonlinear_residual(v: TorusFourierField, n_colloc: int | None = None) -> TorusFourierField:
    """L v - Q(v): zero exactly at solutions of the reduced equation.

    Radial derivatives by central differences; the nonlinear products are
    evaluated in real arithmetic on the collocation grid and projected back
    (pseudospectral).
    """
    if len(v.rho) < 5:
        raise ValueError("need at least 5 radial nodes")
    m_cut = v.m_cut
    if n_colloc is None:
        n_colloc = default_colloc(m_cut)
    if n_colloc < 2 * m_cut:
        raise AliasingError(f"collocation grid {n_colloc} < 2 x m_cut = {2 * m_cut}")
    rho = v.rho
    d1, d2 = fd_first(rho, v.coeffs), fd_second(rho, v.coeffs)
    radial = rho**2 * d2 + 3.0 * rho * d1  # per mode
    mu2 = v.mu_norms() ** 2
    lin = radial - 16.0 * np.pi**2 * mu2[:, None] * rho[None, :] ** 2 * v.coeffs

    A = _synthesize(v.modes, radial, n_colloc)
    RV = _synthesize(v.modes, rho[None, :] * d1, n_colloc)
    ev = np.exp(_synthesize(v.modes, v.coeffs, n_colloc))
    Q = (1.0 - ev) * A - ev * RV**2
    q_modes = _analyze(Q, v.modes)
    return TorusFourierField(v.lattice, v.modes, rho, lin - q_modes)


def linear_mode_solution(mu, rho):
    """Decaying solution of L_mu: |mu|^{1/2} rho^{-1} K_1(4 pi |mu| rho); rho^{-2} at mu = 0."""
    rho = np.asarray(rho, dtype=float)
    mu_abs = float(np.linalg.norm(mu)) if np.ndim(mu) else float(abs(mu))
    if mu_abs == 0.0:
        out = rho**-2.0
    else:
        out = np.sqrt(mu_abs) * bessel_k(1, 4.0 * np.pi * mu_abs * rho) / rho
    return float(out) if out.ndim == 0 else out


def _phi_log_deriv(mu_abs, rho: float) -> np.ndarray:
    """d log phi_mu / d rho at rho for an array of |mu|, stably (scaled Bessel ratios)."""
    mu_abs = np.asarray(mu_abs, dtype=float)
    out = np.full(mu_abs.shape, -2.0 / rho)
    live = mu_abs > 0.0
    c = 4.0 * np.pi * mu_abs[live]
    k0, k1, k2 = (bessel_k(nu, c * rho, scaled=True) for nu in (0, 1, 2))
    out[live] = -1.0 / rho - 0.5 * c * (k0 + k2) / k1
    return out


def _mode_rows(mu_abs: float, rho: np.ndarray):
    """Banded rows of L_mu on the grid (interior central differences)."""
    (b_l, b_c, b_r), (a_l, a_c, a_r) = interior_weights(rho)
    ri = rho[1:-1]
    c_l = ri**2 * a_l + 3.0 * ri * b_l
    c_c = ri**2 * a_c + 3.0 * ri * b_c - 16.0 * np.pi**2 * mu_abs**2 * ri**2
    c_r = ri**2 * a_r + 3.0 * ri * b_r
    return c_l, c_c, c_r


def _mode_band(mu_abs: float, rho: np.ndarray, g: float) -> np.ndarray:
    """(5, n) band of L_mu with v(rho0) and (v' - g v)(rhoN) in the end rows."""
    _, (w0, w1, w2) = fd_first_boundary(rho, "right")
    return banded_three_point(*_mode_rows(mu_abs, rho), (1.0, 0.0, 0.0), (w0 - g, w1, w2))


def _grouped_bands(norms: np.ndarray, rho: np.ndarray):
    """Robin coefficients per mode and one (members, band) pair per distinct |mu| > 0.

    L_mu depends on |mu| only, so modes of equal norm share one band; the
    grouping is by exact equality, which always keeps +-mu together.
    """
    distinct, group = np.unique(norms, return_inverse=True)
    g = _phi_log_deriv(distinct, rho[-1])
    bands = [
        (np.nonzero(group == i)[0], _mode_band(mu, rho, g[i]))
        for i, mu in enumerate(distinct)
        if mu > 0.0
    ]
    return g[group], bands


def _grouped_mode_solve(bands, rhs: np.ndarray) -> np.ndarray:
    """Solve each band against the (K, n) ``rhs`` rows of its modes, stacked as columns.

    Each row holds the inner value, the interior right-hand side and the
    Robin value.  Rows of modes in no band stay zero.
    """
    out = np.zeros_like(rhs)
    for members, ab in bands:
        out[members] = solve_banded((2, 2), ab, rhs[members].T).T
    return out


def _march_mean_mode(rho: np.ndarray, f_interior) -> np.ndarray:
    """Exponentially decaying particular solution of L_0 v = f.

    The homogeneous solutions of L_0 are 1 and rho^-2, so a Robin row cannot
    remove both; instead the discrete interior equations are marched inward
    from zero Cauchy data at rho_max (the decaying particular is below
    rounding there).  Inward marching only excites the mild rho^-2 growth,
    so the recursion is stable.
    """
    n = len(rho)
    c_l, c_c, c_r = _mode_rows(0.0, rho)
    v = np.zeros(n, dtype=complex)
    for i in range(n - 2, 0, -1):
        v[i - 1] = (f_interior[i - 1] - c_c[i - 1] * v[i] - c_r[i - 1] * v[i + 1]) / c_l[i - 1]
    return v


# ----------------------------------------------------------------------
# the nonlinear solve
# ----------------------------------------------------------------------

@dataclass
class LeBrunSolution:
    """Solved deviation field and derived data on T^2 x [rho_min, rho_max]."""

    v: TorusFourierField
    w: TorusFourierField
    lambda_t: float
    wa2: TorusFourierField | None = None
    wa3: TorusFourierField | None = None

    @property
    def rho(self) -> np.ndarray:
        return self.v.rho

    @property
    def rhat(self) -> np.ndarray:
        return self.v.rho**2


def _w_from_v(v: TorusFourierField) -> TorusFourierField:
    """w = 1/rhat + (2 rho)^{-1} dv/drho (the mean mode carries 1/rhat)."""
    rho = v.rho
    d1 = fd_first(rho, v.coeffs)
    coeffs = d1 / (2.0 * rho)[None, :]
    coeffs[v.index(0, 0)] += rho**-2.0
    return TorusFourierField(v.lattice, v.modes, rho, coeffs)


def solve_nonlinear(
    inner_data: dict,
    rho_max: float | None,
    m_cut: int,
    lattice: TorusLattice,
    *,
    rho_min: float = 0.5,
    n_rho: int = 1401,
    n_colloc: int | None = None,
    tol: float = 1e-9,
    max_iter: int = 60,
) -> LeBrunSolution:
    """Perturbative solve of the reduced equation with Dirichlet inner data.

    ``inner_data`` maps modes (m, n) to coefficients of v at rho_min
    (conjugate modes are filled in automatically); sup |data| <= 0.2.
    Newton iteration with mode-decoupled banded corrections
    L_mu dv = -residual; Dirichlet at rho_min, K_1 log-derivative Robin at
    rho_max.  L_mu depends on |mu| only, so one band is built per distinct
    norm before the iteration, and each Newton step makes one banded solve
    per norm with the modes' right-hand sides stacked as columns.  The mean
    mode is special: its homogeneous solutions (1 and 1/rhat) are not
    exponentially decaying, so its correction is the decaying particular
    solution (inward march from rho_max) and its inner value is dictated by
    decay rather than prescribed; a nonzero mean-mode offset in the data
    must be small and is not enforced pointwise.
    """
    mu0, reps = lattice.min_dual_norm()
    if len(reps) > 1:
        warnings.warn(
            f"{len(reps)} inequivalent dual vectors attain |mu_0|; decay fits "
            "use the combined shell",
            DegenerateShellWarning,
        )
    lambda_t = 2.0 * np.pi * mu0
    if rho_max is None:
        rho_max = max(6.0 / (2.0 * lambda_t), 4.0)
    if not rho_min < rho_max:
        raise ValueError("need rho_min < rho_max")
    if n_colloc is None:
        n_colloc = default_colloc(m_cut)
    if n_colloc < 2 * m_cut:
        raise AliasingError(f"collocation grid {n_colloc} < 2 x m_cut = {2 * m_cut}")

    modes = make_modes(m_cut)
    rho = np.linspace(rho_min, rho_max, n_rho)

    data = dict()
    for (m, n), c in inner_data.items():
        if max(abs(m), abs(n)) > m_cut:
            raise ValueError(f"inner mode ({m},{n}) beyond cutoff {m_cut}")
        data[(m, n)] = data.get((m, n), 0.0) + complex(c)
    for (m, n), c in list(data.items()):
        conj_key = (-m, -n)
        if conj_key not in data:
            data[conj_key] = np.conj(c)
    if abs(data.get((0, 0), 0.0)) > 0.05:
        raise PerturbativeRegimeError("mean-mode offset must be small")

    coeffs = np.zeros((len(modes), n_rho), dtype=complex)
    v = TorusFourierField(lattice, modes, rho, coeffs)
    bc = np.zeros(len(modes), dtype=complex)
    norms = v.mu_norms()
    for k, (m, n) in enumerate(modes):
        c = data.get((int(m), int(n)), 0.0)
        bc[k] = c
        if c != 0.0:
            shape = linear_mode_solution(norms[k], rho)
            coeffs[k] = c * shape / shape[0]
    sup0 = float(np.max(np.abs(_synthesize(modes, bc[:, None], n_colloc))))
    if sup0 > 0.2:
        raise PerturbativeRegimeError(f"sup |inner data| = {sup0:.3f} > 0.2")

    (j0, j1, j2), (w0, w1, w2) = fd_first_boundary(rho, "right")
    idx00 = int(np.nonzero((modes[:, 0] == 0) & (modes[:, 1] == 0))[0][0])
    g, bands = _grouped_bands(norms, rho)

    def robin_defects(c):
        return w0 * c[:, j0] + w1 * c[:, j1] + w2 * c[:, j2] - g * c[:, -1]

    def bc_defects(field):
        inner = np.abs(field.coeffs[:, 0] - bc)
        inner[idx00] = 0.0  # mean-mode inner value is dictated by decay
        outer = np.abs(robin_defects(field.coeffs))
        outer[idx00] = abs(field.coeffs[idx00, -1])
        return max(float(inner.max()), float(outer.max()))

    def residual(field):
        """The residual of ``field`` and the larger of its sup and the boundary defects."""
        res = nonlinear_residual(field, n_colloc)
        sup = float(np.max(np.abs(_synthesize(res.modes, res.coeffs[:, 1:-1], n_colloc))))
        return res, max(sup, bc_defects(field))

    res, current = residual(v)
    for _ in range(max_iter):
        if current < tol:
            break
        rhs = np.empty_like(v.coeffs)
        rhs[:, 0] = bc - v.coeffs[:, 0]
        rhs[:, 1:-1] = -res.coeffs[:, 1:-1]
        rhs[:, -1] = -robin_defects(v.coeffs)
        step = _grouped_mode_solve(bands, rhs)
        step[idx00] = _march_mean_mode(rho, rhs[idx00, 1:-1])
        lam = 1.0
        for _ in range(9):
            trial = TorusFourierField(lattice, modes, rho, v.coeffs + lam * step).symmetrized()
            trial_res, trial_norm = residual(trial)
            if trial_norm < current or trial_norm < tol:
                v, res, current = trial, trial_res, trial_norm  # reused by the next step
                break
            lam *= 0.5
        else:
            raise ConvergenceError("mode-decoupled Newton stalled")
    else:
        raise ConvergenceError(f"nonlinear solve did not reach tol={tol:.1e}")
    return LeBrunSolution(v=v, w=_w_from_v(v), lambda_t=float(lambda_t))


# ----------------------------------------------------------------------
# decay measurement
# ----------------------------------------------------------------------

def fit_decay(sol: LeBrunSolution, lambda_t: float | None = None):
    """Fit log(shell amplitude) ~ -rate * rho + power * log(rho) + const.

    Uses the last resolved decade above the 1e-13 underflow floor; returns
    (rate, power) with rate expected near 2 lambda_T and power near -3/2.
    """
    amp = sol.v.shell_amplitude()
    rho = sol.rho
    live = amp > 1e-13
    if live.sum() < 8 or amp.max() < 1e-12:
        raise UnderflowWindowError("no resolved window above the underflow floor")
    rho_live = rho[live]
    amp_live = amp[live]
    a_end = amp_live[-1]
    window = amp_live <= 10.0 * a_end
    if window.sum() < 8:
        window = amp_live <= 100.0 * a_end
    if window.sum() < 8:
        raise UnderflowWindowError("resolved decade contains too few nodes")
    x = rho_live[window]
    y = np.log(amp_live[window])
    if np.ptp(y) < 1e-12:
        raise UnderflowWindowError("field shows no decay on the fit window")
    A = np.column_stack([x, np.log(x), np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(-coef[0]), float(coef[1])


# ----------------------------------------------------------------------
# connection, section profiles, metric difference
# ----------------------------------------------------------------------

def connection_from_w(sol: LeBrunSolution) -> LeBrunSolution:
    """Integrate d(w a2)/drhat = -w_x, d(w a3)/drhat = -w_y from rho_max inward.

    Decay normalization at rho_max: the leading shell carries the closed-form
    tail int_rhat^inf lam s^{-1} K_2(2 lam sqrt(s)) ds = rhat^{-1/2}
    K_1(2 lam sqrt(rhat)), so the shell modes start from that asymptote and
    all faster modes start from zero.  Per mode the remaining integral is a
    radial quadrature int_rhat^rhat_max (w_x)_mu ds with ds = 2 rho drho.
    """
    w = sol.w
    rho = w.rho
    mu_vecs = w.mu_vectors()
    wx = (2j * np.pi * mu_vecs[:, 0])[:, None] * w.coeffs
    wy = (2j * np.pi * mu_vecs[:, 1])[:, None] * w.coeffs
    wa2 = cumulative_from_right(rho, wx * (2.0 * rho)[None, :])
    wa3 = cumulative_from_right(rho, wy * (2.0 * rho)[None, :])
    # leading-shell tail beyond rho_max: (wa_i)_mu -> -(i mu_i 2 pi T-hat) K1/rho,
    # and T-hat K1/rho at rho_max is the shell coefficient v_mu(rho_max) itself
    _, shell = _leading_shell(np.linalg.norm(mu_vecs, axis=1))
    tail = -sol.v.coeffs[shell, -1]
    wa2[shell] += ((2j * np.pi * mu_vecs[shell, 0]) * tail)[:, None]
    wa3[shell] += ((2j * np.pi * mu_vecs[shell, 1]) * tail)[:, None]
    sol.wa2 = TorusFourierField(w.lattice, w.modes, rho, wa2)
    sol.wa3 = TorusFourierField(w.lattice, w.modes, rho, wa3)
    return sol


def _shell_t_hat(sol: LeBrunSolution):
    """The leading-shell mask and T-hat, calibrated at the outermost node.

    T-hat is the shell coefficients of v over rho^{-1} K_1(2 lambda_T rho)
    there, where subleading corrections are smallest.
    """
    rho = sol.rho
    mu0, shell = _leading_shell(sol.v.mu_norms())
    phi_ref = bessel_k(1, 4.0 * np.pi * mu0 * rho[-1]) / rho[-1]
    return shell, sol.v.coeffs[shell, -1] / phi_ref


def section_profiles(sol: LeBrunSolution):
    """On the section (x, y) = (0, 0): r(rho), rw(rho), and the T(0,0) estimate.

    rw = e^v (1 + rhat v_rhat); T(0,0) is the sum of the leading-shell T-hat.
    """
    rho = sol.rho
    v00 = np.sum(sol.v.coeffs, axis=0).real
    d1 = fd_first(rho, sol.v.coeffs)
    rvr = np.sum((0.5 * rho)[None, :] * d1, axis=0).real  # rhat v_rhat = (rho/2) v_rho
    rw = np.exp(v00) * (1.0 + rvr)
    r = rho**2 * np.exp(v00)
    _, t_hat = _shell_t_hat(sol)
    return r, rw, float(np.sum(t_hat).real)


def hitchin_section_difference(sol: LeBrunSolution, r_query) -> MetricComponents:
    """(1/(rw) - 1) diag(1/r, r) on the section, at requested r values."""
    r, rw, _ = section_profiles(sol)
    r_query = np.atleast_1d(np.asarray(r_query, dtype=float))
    if np.any(r_query < r[0]) or np.any(r_query > r[-1]):
        raise ValueError("requested radius outside the solved range")
    rw_at = CubicSpline(r, rw)(r_query)
    coeff = 1.0 / rw_at - 1.0
    g = np.zeros(r_query.shape + (2, 2))
    g[..., 0, 0] = coeff / r_query
    g[..., 1, 1] = coeff * r_query
    return MetricComponents(("r", "theta"), g)


@dataclass
class MetricDifference:
    """g_L2 - g_sf, split on demand into the predicted Bessel parts and a remainder.

    ``r`` and ``difference`` are computed up front; ``predicted_k0``,
    ``predicted_k1`` and ``remainder`` are built on first access, from the
    trigonometric factor T(x, y) measured on the solution.
    """

    r: np.ndarray
    difference: np.ndarray
    sol: LeBrunSolution
    n_colloc: int
    coords: tuple = ("r", "theta", "x", "y")

    @cached_property
    def _trig(self):
        return _trig_factor(self.sol, self.n_colloc)

    @cached_property
    def predicted_k0(self) -> np.ndarray:
        """lam K0(2 lam sqrt r) T times diag(1/r, r, -1, -1)."""
        r, lam = self.r, self.sol.lambda_t
        amp = lam * bessel_k(0, 2.0 * lam * np.sqrt(r)) * self._trig[0][None, :, :]
        pk0 = np.zeros_like(self.difference)
        pk0[..., 0, 0] = amp / r
        pk0[..., 1, 1] = amp * r
        pk0[..., 2, 2] = -amp
        pk0[..., 3, 3] = -amp
        return pk0

    @cached_property
    def predicted_k1(self) -> np.ndarray:
        """The K1(2 lam sqrt r) cross terms carried by the gradient of T."""
        r = self.r
        _, Tx, Ty = self._trig
        K1 = bessel_k(1, 2.0 * self.sol.lambda_t * np.sqrt(r))
        pk1 = np.zeros_like(self.difference)
        cross = K1 / np.sqrt(r)
        pk1[..., 0, 2] = pk1[..., 2, 0] = -cross * Tx[None, :, :]
        pk1[..., 0, 3] = pk1[..., 3, 0] = -cross * Ty[None, :, :]
        pk1[..., 1, 2] = pk1[..., 2, 1] = np.sqrt(r) * K1 * Ty[None, :, :]
        pk1[..., 1, 3] = pk1[..., 3, 1] = -np.sqrt(r) * K1 * Tx[None, :, :]
        return pk1

    @cached_property
    def remainder(self) -> np.ndarray:
        return self.difference - self.predicted_k0 - self.predicted_k1


def metric_difference_full(sol: LeBrunSolution, n_colloc: int | None = None) -> MetricDifference:
    """g_L2 - g_sf over the whole grid, in the (dr, dtheta, dx, dy) coframe.

    g = w drhat^2 + w^{-1} omega^2 + e^u w (dx^2 + dy^2) with omega = dtheta
    - w a3 dx + w a2 dy, r = rhat e^v and e^u w = rhat w e^v = rw pointwise;
    drhat = d0 dr + a2 dx + a3 dy with d0 = (rw)^{-1} and a_i = (w a_i)/w.
    g_sf(r) = diag(1/r, r, 1, 1) is subtracted on the diagonal.  Nodes are
    (rho_i, x_j, y_k).  The predicted K0 (diagonal) and K1 (cross) Bessel
    terms, built from the measured trigonometric factor T(x, y), and the
    remainder are computed when first read.
    """
    if sol.wa2 is None or sol.wa3 is None:
        connection_from_w(sol)
    if n_colloc is None:
        n_colloc = default_colloc(sol.v.m_cut)
    V, W, WA2, WA3 = (f.values(n_colloc) for f in (sol.v, sol.w, sol.wa2, sol.wa3))
    r = sol.rho[:, None, None] ** 2 * np.exp(V)
    RW = r * W
    d0, a2, a3 = 1.0 / RW, WA2 / W, WA3 / W
    g = np.zeros(V.shape + (4, 4))
    g[..., 0, 0] = W * d0**2 - 1.0 / r
    g[..., 0, 2] = g[..., 2, 0] = W * d0 * a2
    g[..., 0, 3] = g[..., 3, 0] = W * d0 * a3
    g[..., 1, 1] = 1.0 / W - r
    g[..., 1, 2] = g[..., 2, 1] = -WA3 / W
    g[..., 1, 3] = g[..., 3, 1] = WA2 / W
    g[..., 2, 2] = W * a2**2 + WA3**2 / W + RW - 1.0
    g[..., 3, 3] = W * a3**2 + WA2**2 / W + RW - 1.0
    g[..., 2, 3] = g[..., 3, 2] = W * a2 * a3 - WA2 * WA3 / W
    return MetricDifference(r=r, difference=g, sol=sol, n_colloc=n_colloc)


def _trig_factor(sol: LeBrunSolution, n_colloc: int):
    """T(x, y) and its gradient from the shortest-shell coefficients.

    v ~ rhat^{-1/2} K_1(2 lambda_T sqrt(rhat)) T(x, y), T the synthesis of
    the leading-shell T-hat.
    """
    shell, t_hat = _shell_t_hat(sol)
    modes = sol.v.modes[shell]
    mu_vecs = modes @ sol.v.lattice.dual_basis.T
    T = _synthesize(modes, t_hat[:, None], n_colloc)[0]
    Tx = _synthesize(modes, (2j * np.pi * mu_vecs[:, 0] * t_hat)[:, None], n_colloc)[0]
    Ty = _synthesize(modes, (2j * np.pi * mu_vecs[:, 1] * t_hat)[:, None], n_colloc)[0]
    return T, Tx, Ty
