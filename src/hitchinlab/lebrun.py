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
With L_0 = rho^2 d^2 + 3 rho d, L_0(e^v) = e^v (L_0 v + (rho v_r)^2), so the
same equation in conservative form is

    L v - Q(v) = 4 rho^2 Delta_T v + L_0 (e^v - 1) = 0,

which is 4 rho^2 (Delta_T u + d^2/drhat^2 (e^u)) itself.

``solve_nonlinear`` runs an inexact Newton iteration whose correction steps
solve the decoupled systems L_mu dv = -residual (banded), with Dirichlet
data at rho_min and a Robin condition matched to the K_1 log-derivative at
rho_max.  L_mu depends on |mu| only, so one band is built and LU-factored
per distinct norm before the iteration, and each step makes only the
triangular solves, once for all the modes of that norm, their right-hand
sides stacked as columns.  Every field is real (Hermitian coefficients),
and the iterates, residuals and steps are exactly so: in the
``make_modes`` order row K-1-k holds -mu of row k, so the coefficient-space
work (radial stencil, torus part, banded solves) is done on the half
lattice m > 0 or m = 0, n >= 0, and the other half is its conjugate.  The
residual is evaluated in the conservative form: per block of
``RADIAL_BLOCK`` radial nodes, v is synthesized once on a collocation grid,
e^v - 1 is formed in place and projected back (pseudospectral), so the
(N, block, N) temporaries stay in cache; the 3-point stencil of L_0, built
once per grid, is applied once to the projected coefficients.  Synthesis
and projection are separable real matmuls, one 2-d matmul per contraction,
against memoized collocation phases.  ``fit_decay`` measures the realized
decay rate and prefactor power.  ``metric_difference_full`` evaluates
g - g_sf in the coframe of the radial change r = rhat e^v; its predicted
Bessel parts and remainder are built only when read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .grids import (
    banded_three_point,
    cumulative_from_right,
    fd_first,
    fd_first_boundary,
    interior_weights,
)
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


@lru_cache(maxsize=None)
def _phase_blocks(m_cut: int, n: int):
    """Read-only real blocks of E[m, j] = exp(2 pi i j m / n), m = -m_cut..m_cut.

    With E = P + i S, M = 2 m_cut + 1 and H = m_cut + 1, let B = [[P, S],
    [-S, P]], shape (2M, 2n), and A = [P^T, -S^T] restricted to the rows
    m >= 0, shape (n, 2H).  Returns

    - ``B_split``: B's column halves stacked, shape (2, 2M, n), so that one
      matmul puts the real/imaginary part outermost;
    - ``A_weighted``: A with weight 2 on the columns m > 0, shape (n, 2H);
    - ``A_split``: A's column halves stacked, shape (2, n, H);
    - ``B`` itself.

    Complex contractions against E and conj(E) are then real matmuls with
    these.  Memoized: every transform of a solve uses the same few blocks.
    """
    ang = (2.0 * np.pi / n) * np.outer(np.arange(-m_cut, m_cut + 1), np.arange(n))
    P, S = np.cos(ang), np.sin(ang)
    B = np.block([[P, S], [-S, P]])
    A = np.concatenate([P[m_cut:].T, -S[m_cut:].T], axis=1)
    weight = np.tile(np.r_[1.0, np.full(m_cut, 2.0)], 2)
    blocks = (
        np.stack([B[:, :n], B[:, n:]]),
        A * weight,
        np.stack([A[:, : m_cut + 1], A[:, m_cut + 1 :]]),
        B,
    )
    for block in blocks:
        block.flags.writeable = False
    return blocks


def _synthesize(modes: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Real samples of sum_mu c_mu e^{2 pi i x . mu} on the N x N collocation grid.

    At X_{jk} = (j a + k b)/n the phase is exp(2 pi i (jm + kn)/n) for any
    lattice shape, so the sum is separable: the coefficients are scattered
    into an (m, NR, re/im, n) array, contracted against E[n, k] by one
    matmul that puts re/im outermost, and then against E[m, j] over
    (re/im, m) by one 2-d matmul.  Every field here is Hermitian (coeff(-mu)
    = conj coeff(mu)), so the samples are real and only the real part is
    formed; the rows -m of the first contraction are the conjugates of the
    rows m, so only m >= 0 is kept, with weight 2 on m > 0.  Returns shape
    (NR, N, N) as a view of a (j, NR, k)-ordered array, the layout
    :func:`_analyze` contracts without a copy.
    """
    m_cut = int(np.max(np.abs(modes)))
    M = 2 * m_cut + 1
    half = modes[:, 0] >= 0
    i, j = modes[half, 0], modes[half, 1] + m_cut
    C = np.zeros((m_cut + 1, coeffs.shape[1], 2 * M))
    C[i, :, j] = coeffs[half].real
    C[i, :, M + j] = coeffs[half].imag
    B_split, A_weighted, _, _ = _phase_blocks(m_cut, n)
    X = C.reshape(-1, 2 * M) @ B_split  # (re/im, m, NR, k)
    out = A_weighted @ X.reshape(2 * (m_cut + 1), -1)
    return out.reshape(n, -1, n).transpose(1, 0, 2)


@lru_cache(maxsize=64)
def _gather(m_cut: int, n: int, key: bytes):
    """Where :func:`_analyze` reads each mode in its n >= 0 half spectrum.

    ``key`` is the bytes of an int (K, 2) mode array.  A mode with n < 0 is
    read as the conjugate of (-m, -n).  Returns the row and column indices
    and the (K, 1) divisors of the imaginary parts, +-N^2 with the sign of
    that conjugation.  Memoized next to :func:`_phase_blocks`.
    """
    modes = np.frombuffer(key, dtype=int).reshape(-1, 2)
    sign = np.where(modes[:, 1] >= 0, 1, -1)
    gather = (sign * modes[:, 0] + m_cut, sign * modes[:, 1], (sign * float(n * n))[:, None])
    for a in gather:
        a.flags.writeable = False
    return gather


def _analyze(values: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Project real collocation samples (NR, N, N) back onto the retained modes.

    The adjoint of :func:`_synthesize`: contraction against conj(E) over k,
    then over (re/im, j), each one 2-d matmul, divided by N^2.  The samples
    are real, so only the columns n >= 0 are formed and the rest are read as
    c(m, n) = conj c(-m, -n).  The real and imaginary parts are written
    straight into the (K, NR) complex result.
    """
    n = values.shape[-1]
    m_cut = int(np.max(np.abs(modes)))
    M = 2 * m_cut + 1
    _, _, A_split, B = _phase_blocks(m_cut, n)
    i, j, im_div = _gather(m_cut, n, np.ascontiguousarray(modes, dtype=int).tobytes())
    Y = values.transpose(1, 0, 2).reshape(-1, n) @ A_split  # (re/im, j, NR, n >= 0)
    spec = (B @ Y.reshape(2 * n, -1)).reshape(2, M, -1, m_cut + 1)
    out = np.empty((len(i), spec.shape[2]), dtype=complex)
    np.divide(spec[0, i, :, j], n * n, out=out.real)
    np.divide(spec[1, i, :, j], im_div, out=out.imag)
    return out


def default_colloc(m_cut: int) -> int:
    # 3/2-rule with margin: products of retained modes stay alias-free
    return max(16, 4 * m_cut + 4)


# Radial nodes per transform block.  At N = 16 each (N, block, N) sample
# array is 512 kB, so a block's synthesis, exponential and projection stay
# in cache instead of streaming whole-grid temporaries through memory.
RADIAL_BLOCK = 256


def _radial_blocks(n_rho: int):
    """Slices of at most RADIAL_BLOCK consecutive radial nodes covering 0..n_rho."""
    return [slice(a, min(a + RADIAL_BLOCK, n_rho)) for a in range(0, n_rho, RADIAL_BLOCK)]


# ----------------------------------------------------------------------
# the reduced equation
# ----------------------------------------------------------------------

@lru_cache(maxsize=8)
def _radial_stencils(grid: bytes):
    """The 3-point stencil of L_0 = rho^2 d^2 + 3 rho d on one radial grid, and rho^2.

    ``grid`` is the bytes of the float rho array.  Row i weighs the nodes
    i-1, i, i+1, and the end rows the windows 0..2 and n-3..n-1, where the
    first derivative is one-sided and the second is copied from the
    neighbouring node (the end rows of ``fd_first`` and ``fd_second``).
    The stencil is a (3, 2n) array and rho^2 a (2n,) one, each value
    repeated for the real and the imaginary part, to act on the float view
    of complex rows.  Memoized: one solve keeps one grid.
    """
    rho = np.frombuffer(grid)
    (b_l, b_c, b_r), (a_l, a_c, a_r) = interior_weights(rho)
    first, second = np.empty((3, len(rho))), np.empty((3, len(rho)))
    first[:, 1:-1], second[:, 1:-1] = (b_l, b_c, b_r), (a_l, a_c, a_r)
    first[:, 0] = fd_first_boundary(rho, "left")[1]
    first[:, -1] = fd_first_boundary(rho, "right")[1][::-1]
    second[:, 0], second[:, -1] = second[:, 1], second[:, -2]
    stencils = (
        np.repeat(rho**2 * second + 3.0 * rho * first, 2, axis=1),
        np.repeat(rho**2, 2),
    )
    for a in stencils:
        a.flags.writeable = False
    return stencils


def _apply_stencil(w: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """Write the :func:`_radial_stencils` stencil ``w`` applied to the rows of ``y`` into ``out``.

    ``y`` and ``out`` are complex (H, n) arrays with contiguous rows; the
    weights are real, so the work is done on their float views.
    """
    y, o = y.view(float), out.view(float)
    np.multiply(w[0, 2:-2], y[:, :-4], out=o[:, 2:-2])
    o[:, 2:-2] += w[1, 2:-2] * y[:, 2:-2]
    o[:, 2:-2] += w[2, 2:-2] * y[:, 4:]
    o[:, :2] = w[0, :2] * y[:, :2] + w[1, :2] * y[:, 2:4] + w[2, :2] * y[:, 4:6]
    o[:, -2:] = w[0, -2:] * y[:, -6:-4] + w[1, -2:] * y[:, -4:-2] + w[2, -2:] * y[:, -2:]


def nonlinear_residual(v: TorusFourierField, n_colloc: int | None = None) -> TorusFourierField:
    """L v - Q(v) in conservative form: 4 rho^2 Delta_T v + L_0 (e^v - 1).

    Since L_0(e^v) = e^v (L_0 v + (rho v_r)^2), this equals the expanded
    L v - Q(v).  Per block of radial nodes, v is synthesized once on the
    collocation grid, e^v - 1 is formed in place by ``expm1`` and projected
    back onto the half lattice (pseudospectral); L_0 is radial, so it
    commutes with the projection and its 3-point stencil is applied once to
    the projected coefficients.  The torus part -16 pi^2 |mu|^2 rho^2 v is
    added in coefficient space.  This discretizes the operator differently
    from the expanded product form, at O(h^2): the criterion-9 solution
    moved by about 1e-8 sup-relative, its fitted rate and prefactor power
    by about 1e-12 and 5e-12 relative, and against a 4x finer radial grid
    it is slightly closer than the product form was.  ``v`` must be real
    (Hermitian coefficients) in the ``make_modes(m_cut)`` order, where row
    K-1-k holds -mu of row k: the coefficient-space work is done for the
    rows from K // 2 on (m > 0, or m = 0 and n >= 0) and the other rows are
    their conjugates.
    """
    if len(v.rho) < 5:
        raise ValueError("need at least 5 radial nodes")
    m_cut = v.m_cut
    if n_colloc is None:
        n_colloc = default_colloc(m_cut)
    if n_colloc < 2 * m_cut:
        raise AliasingError(f"collocation grid {n_colloc} < 2 x m_cut = {2 * m_cut}")
    modes = v.modes
    if not np.array_equal(modes, make_modes(m_cut)):
        raise ValueError("modes must be in the make_modes(m_cut) order")
    rho = v.rho
    l0, rho2 = _radial_stencils(rho.tobytes())
    # rows c.. are the half lattice; rows lo.. (m >= 0) are what synthesis reads
    c = len(modes) // 2
    lo = c - m_cut
    ev = np.empty((len(modes) - c, len(rho)), dtype=complex)  # P_N[e^v - 1]
    for b in _radial_blocks(len(rho)):
        E = _synthesize(modes[lo:], v.coeffs[lo:, b], n_colloc)
        np.expm1(E, out=E)
        ev[:, b] = _analyze(E, modes[c:])
    out = np.empty(v.coeffs.shape, dtype=complex)
    _apply_stencil(l0, ev, out[c:])
    # minus the torus part 16 pi^2 |mu|^2 rho^2 v, on float views
    torus = np.multiply((16.0 * np.pi**2 * v.mu_norms()[c:] ** 2)[:, None], rho2)
    torus *= np.ascontiguousarray(v.coeffs[c:]).view(float)
    half = out[c:].view(float)
    half -= torus
    np.conjugate(out[:c:-1], out=out[:c])
    return TorusFourierField(v.lattice, v.modes, rho, out)


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


def _factor_band(ab: np.ndarray):
    """LAPACK LU (``zgbtrf``) of a (5, n) band with two sub- and superdiagonals.

    The factors are those ``solve_banded`` (``zgbsv``) forms on a complex
    right-hand side, so solving with them reproduces it bit for bit.
    Raises ``ValueError`` for a non-finite band and ``LinAlgError`` for a
    singular one.
    """
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    work = np.zeros((7, ab.shape[1]), dtype=complex)  # 2 extra rows for the pivoting fill-in
    work[2:] = ab
    lu, piv, info = zgbtrf(work, 2, 2, overwrite_ab=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    return lu, piv


def _grouped_bands(norms: np.ndarray, rho: np.ndarray):
    """Robin coefficients per mode and one (members, lu, pivots) triple per distinct |mu| > 0.

    ``norms`` are in the ``make_modes`` order (ValueError otherwise).  L_mu
    depends on |mu| only, so modes of equal norm share one band; the
    grouping is by exact equality, which keeps +-mu together, and the
    members are only the half-lattice rows (K // 2 on), whose conjugates
    :func:`_grouped_mode_solve` fills in.  Each band is factored here, once
    per solve.
    """
    if len(norms) % 2 == 0 or not np.array_equal(norms, norms[::-1]):
        raise ValueError("norms must be in the make_modes order")
    distinct, group = np.unique(norms, return_inverse=True)
    own = np.arange(len(norms)) >= len(norms) // 2
    g = _phi_log_deriv(distinct, rho[-1])
    bands = [
        (np.nonzero((group == i) & own)[0], *_factor_band(_mode_band(mu, rho, g[i])))
        for i, mu in enumerate(distinct)
        if mu > 0.0
    ]
    return g[group], bands


def _grouped_mode_solve(bands, rhs: np.ndarray) -> np.ndarray:
    """Solve each factored band against the (K, n) ``rhs`` rows of its modes, stacked as columns.

    Each row holds the inner value, the interior right-hand side and the
    Robin value.  Only the half-lattice rows are solved; ``rhs`` is
    Hermitian and the bands are real, so row K-1-k of the result is the
    conjugate of row k.  Rows of modes in no band stay zero.  A non-finite
    right-hand side raises ``ValueError``, as ``solve_banded`` does.
    """
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    out = np.zeros_like(rhs)
    for members, lu, piv in bands:
        x, _ = zgbtrs(lu, 2, 2, rhs[members].T, piv, overwrite_b=True)
        out[members] = x.T
    c = len(out) // 2
    np.conjugate(out[:c:-1], out=out[:c])
    return out


def _march_mean_mode(rho: np.ndarray, f_interior) -> np.ndarray:
    """Exponentially decaying particular solution of L_0 v = f.

    The homogeneous solutions of L_0 are 1 and rho^-2, so a Robin row cannot
    remove both; instead the discrete interior equations are marched inward
    from zero Cauchy data at rho_max (the decaying particular is below
    rounding there).  Inward marching only excites the mild rho^-2 growth,
    so the recursion is stable.
    """
    c_l, c_c, c_r = _mode_rows(0.0, rho)
    # Python scalars: numpy scalar arithmetic costs twice as much per node.
    # numpy divides a complex by a real through its reciprocal, so
    # multiplying by 1 / c_l keeps the values those of the array form.
    inv_l, c_c, c_r = (1.0 / c_l).tolist(), c_c.tolist(), c_r.tolist()
    f = np.asarray(f_interior, dtype=complex).tolist()
    v = [0j] * len(rho)
    for i in range(len(rho) - 2, 0, -1):
        v[i - 1] = (f[i - 1] - c_c[i - 1] * v[i] - c_r[i - 1] * v[i + 1]) * inv_l[i - 1]
    return np.array(v)


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

    ``inner_data`` maps modes (m, n) to coefficients of v at rho_min; a
    missing conjugate mode is filled in, and a supplied pair with
    c(-mu) != conj c(mu) raises ValueError before any work; sup |data| <= 0.2.
    Newton iteration with mode-decoupled banded corrections
    L_mu dv = -residual; Dirichlet at rho_min, K_1 log-derivative Robin at
    rho_max.  L_mu depends on |mu| only, so one band is built and factored
    per distinct norm before the iteration, and each Newton step makes the
    triangular solves per norm with the right-hand sides of one mode of each
    +-mu pair stacked as columns.  The iterates, residuals and steps are
    exactly Hermitian, so no step symmetrizes them.  The mean
    mode is special: its homogeneous solutions (1 and 1/rhat) are not
    exponentially decaying, so its correction is the decaying particular
    solution (inward march from rho_max) and its inner value is dictated by
    decay rather than prescribed; a nonzero mean-mode offset in the data
    must be small and is not enforced pointwise.
    """
    data = dict()
    for (m, n), c in inner_data.items():
        if max(abs(m), abs(n)) > m_cut:
            raise ValueError(f"inner mode ({m},{n}) beyond cutoff {m_cut}")
        data[(m, n)] = data.get((m, n), 0.0) + complex(c)
    for (m, n), c in list(data.items()):
        conj_key = (-m, -n)
        if conj_key not in data:
            data[conj_key] = np.conj(c)
        elif data[conj_key] != np.conj(c):
            raise ValueError(
                f"inner data is not real: c({-m}, {-n}) = {data[conj_key]} is not the "
                f"conjugate of c({m}, {n}) = {c}"
            )
    if abs(data.get((0, 0), 0.0)) > 0.05:
        raise PerturbativeRegimeError("mean-mode offset must be small")

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
    if not 0.0 < rho_min < rho_max < np.inf:
        raise ValueError(f"need 0 < rho_min < rho_max < inf, got rho_min={rho_min}, rho_max={rho_max}")
    if n_colloc is None:
        n_colloc = default_colloc(m_cut)
    if n_colloc < 2 * m_cut:
        raise AliasingError(f"collocation grid {n_colloc} < 2 x m_cut = {2 * m_cut}")

    modes = make_modes(m_cut)
    rho = np.linspace(rho_min, rho_max, n_rho)

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
        interior = res.coeffs[:, 1:-1]
        sup = max(
            float(np.max(np.abs(_synthesize(modes, interior[:, b], n_colloc))))
            for b in _radial_blocks(interior.shape[1])
        )
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
            trial = TorusFourierField(lattice, modes, rho, v.coeffs + lam * step)
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
    zero = np.zeros_like(V)
    g_rx, g_ry = W * d0 * a2, W * d0 * a3
    g_tx, g_ty = -WA3 / W, WA2 / W
    g_xy = W * a2 * a3 - WA2 * WA3 / W
    # stacked component-major, each component one contiguous write; the
    # (..., 4, 4) result is a view of that (4, 4, ...) array
    g = np.stack(
        [
            W * d0**2 - 1.0 / r, zero, g_rx, g_ry,
            zero, 1.0 / W - r, g_tx, g_ty,
            g_rx, g_tx, W * a2**2 + WA3**2 / W + RW - 1.0, g_xy,
            g_ry, g_ty, g_xy, W * a3**2 + WA2**2 / W + RW - 1.0,
        ]
    ).reshape((4, 4) + V.shape)
    return MetricDifference(r=r, difference=np.moveaxis(g, (0, 1), (-2, -1)), sol=sol, n_colloc=n_colloc)


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
