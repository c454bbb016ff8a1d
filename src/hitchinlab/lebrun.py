"""Circle-invariant hyperkahler metrics from a scalar reduction on T^2 x R+.

A 4d hyperkahler metric with a triholomorphic-plus-rotating circle action is
determined by a potential u(x, y, rhat) with

    Delta_T u + d^2/drhat^2 (e^u) = 0,        w = du/drhat > 0,

through g = e^u w (dx^2 + dy^2) + w drhat^2 + w^{-1} omega^2, where omega =
dtheta - w a3 dx + w a2 dy and the connection functions solve
d(w a2)/drhat = -w_x, d(w a3)/drhat = -w_y.  Since w_x = d/drhat u_x, the
connection that decays as rhat -> infinity is w a2 = -u_x, w a3 = -u_y in
closed form.  The flat (semiflat) solution is u = log(rhat), w = 1/rhat.

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

``solve_nonlinear`` discretizes rho by Chebyshev collocation on
[rho_min, rho_max] (Trefethen, *Spectral Methods in MATLAB*, SIAM 2000)
and runs an inexact Newton iteration whose correction steps solve the
decoupled systems L_mu dv = -residual, with Dirichlet data at rho_min and a
Robin condition matched to the K_1 log-derivative at rho_max.  L_mu depends
on |mu| only, so one dense collocation matrix is built and inverted per
distinct norm before the iteration, and each step is one batched product.
Every field holds the (2 m_cut + 1)^2 modes of the ``make_modes(m_cut)``
square, where row K-1-k holds -mu of row k, and is real (Hermitian
coefficients); the iterates, residuals and steps are exactly so, and the
coefficient-space work (radial operator, torus part, solves) is done on the
half lattice m > 0 or m = 0, n >= 0, the other half being its conjugate.
The residual is evaluated in the conservative form: v is synthesized once
on a collocation grid, e^v - 1 is formed in place and projected back
(pseudospectral), and the dense matrix of L_0 is applied once to the
projected coefficients.  Synthesis and projection are separable
real matmuls, one 2-d matmul per contraction, against memoized collocation
phases.  The node count doubles from 64 intervals until the trailing
Chebyshev coefficients of v are negligible; the solution is returned on a
uniform radial grid, evaluated there by one barycentric interpolation
matrix (Berrut and Trefethen, SIAM Review 46, 2004).  ``fit_decay``
measures the realized decay rate and prefactor power.
The connection w a2 = -v_x, w a3 = -v_y is read off v by the torus gradient
(``TorusFourierField.gradient``), with no radial quadrature.
``metric_difference_full`` evaluates g - g_sf in the coframe of the radial
change r = rhat e^v; its predicted Bessel parts and remainder are built
only when read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .special import ConvergenceError, bessel_k, shortest_vectors

__all__ = [
    "TorusLattice",
    "TorusFourierField",
    "LeBrunSolution",
    "nonlinear_residual",
    "linear_mode_solution",
    "solve_nonlinear",
    "fit_decay",
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

def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: they are memoized and shared."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
        return self.c_fib * np.array([[1.0, self.tau.real], [0.0, self.tau.imag]])

    @cached_property
    def dual_basis(self) -> np.ndarray:
        """Columns are the dual vectors ahat, bhat (ahat . a = 1 etc.); computed once."""
        return _read_only(np.linalg.inv(self.basis).T)[0]

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

    ``coeffs`` has shape (K, NR): its K = (2 m_cut + 1)^2 rows, m_cut >= 1,
    are the modes of the ``make_modes(m_cut)`` square, read off K.  Real
    fields satisfy coeff(-mu) = conj(coeff(mu)).
    """

    lattice: TorusLattice
    rho: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        side = math.isqrt(len(self.coeffs)) if self.coeffs.ndim == 2 else 0
        if side % 2 == 0 or side < 3 or self.coeffs.shape != (side * side, len(self.rho)):
            raise ValueError("coefficient array must be ((2 m_cut + 1)^2, n_rho) with m_cut >= 1")
        if np.any(np.diff(self.rho) <= 0) or self.rho[0] <= 0:
            raise ValueError("rho grid must be positive increasing")

    # -- mode bookkeeping --------------------------------------------------
    @property
    def m_cut(self) -> int:
        return (math.isqrt(len(self.coeffs)) - 1) // 2

    @property
    def modes(self) -> np.ndarray:
        return make_modes(self.m_cut)

    def index(self, m: int, n: int) -> int:
        """The row of (m, n): (m + m_cut)(2 m_cut + 1) + n + m_cut; row K-1-k holds -mu of row k."""
        if max(abs(m), abs(n)) > self.m_cut:
            raise KeyError(f"mode ({m}, {n}) not present")
        return (m + self.m_cut) * (2 * self.m_cut + 1) + n + self.m_cut

    def mu_norms(self) -> np.ndarray:
        return _dual_vectors(self.lattice, self.m_cut)[1]

    def mu_vectors(self) -> np.ndarray:
        return _dual_vectors(self.lattice, self.m_cut)[0]

    def gradient(self) -> tuple["TorusFourierField", "TorusFourierField"]:
        """(d/dx, d/dy) of the field: the coefficients times 2 pi i mu_x and 2 pi i mu_y."""
        k = 2j * np.pi * self.mu_vectors()
        return tuple(replace(self, coeffs=k[:, i, None] * self.coeffs) for i in (0, 1))

    def reality_defect(self) -> float:
        return float(np.max(np.abs(self.coeffs - np.conj(self.coeffs[::-1]))))

    # -- transforms ---------------------------------------------------------
    def values(self, n_colloc: int) -> np.ndarray:
        """Real-space samples, shape (NR, N, N), at X_{jk} = (j a + k b)/N."""
        return _synthesize(self.coeffs, n_colloc)

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
        outer = np.max(np.abs(self.modes), axis=1) == self.m_cut
        _, shell = _leading_shell(self.mu_norms())
        lead = float(np.max(np.abs(self.coeffs[shell, rho_index])))
        if lead == 0.0:
            return 0.0
        return float(np.max(np.abs(self.coeffs[outer, rho_index]))) / lead


def _leading_shell(norms: np.ndarray):
    """The smallest nonzero |mu| and the mask of the norms on its shell."""
    mu0 = norms[norms > 0].min()
    return mu0, np.abs(norms - mu0) < 1e-9 * mu0


@lru_cache(maxsize=None)
def make_modes(m_cut: int) -> np.ndarray:
    """The (K, 2) modes (m, n), |m|, |n| <= m_cut, m-major (see ``TorusFourierField.index``); read-only."""
    if m_cut < 1:
        raise ValueError("mode cutoff must be >= 1")
    grid = np.arange(-m_cut, m_cut + 1)
    mm, nn = np.meshgrid(grid, grid, indexing="ij")
    return _read_only(np.column_stack([mm.ravel(), nn.ravel()]))[0]


@lru_cache(maxsize=64)
def _dual_vectors(lattice: TorusLattice, m_cut: int):
    """The (K, 2) dual vectors mu of ``make_modes(m_cut)`` and their norms; read-only."""
    vecs = make_modes(m_cut) @ lattice.dual_basis.T
    return _read_only(vecs, np.linalg.norm(vecs, axis=1))


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
    return _read_only(
        np.stack([B[:, :n], B[:, n:]]),
        A * weight,
        np.stack([A[:, : m_cut + 1], A[:, m_cut + 1 :]]),
        B,
    )


def _synthesize(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Real samples of sum_mu c_mu e^{2 pi i x . mu} on the N x N collocation grid.

    At X_{jk} = (j a + k b)/n the phase is exp(2 pi i (jm + kn)/n) for any
    lattice shape, so the sum is separable: the rows m >= 0, the last
    m_cut + 1 blocks of the ``make_modes`` square, are reshaped to (m, NR,
    re/im, n), contracted against E[n, k] by one matmul that puts re/im
    outermost, and then against E[m, j] over (re/im, m) by one 2-d matmul.
    Every field here is Hermitian (coeff(-mu) = conj coeff(mu)), so the
    samples are real and only the real part is formed; the rows -m of the
    first contraction are the conjugates of the rows m, so only m >= 0 is
    kept, with weight 2 on m > 0.  Returns shape (NR, N, N) as a view of a
    (j, NR, k)-ordered array, the layout :func:`_analyze` contracts without
    a copy.
    """
    m_cut = (math.isqrt(len(coeffs)) - 1) // 2
    M = 2 * m_cut + 1
    half = np.ascontiguousarray(coeffs[m_cut * M :]).view(float)  # (re, im) pairs
    C = half.reshape(m_cut + 1, M, -1, 2).transpose(0, 2, 3, 1).reshape(-1, 2 * M)
    B_split, A_weighted, _, _ = _phase_blocks(m_cut, n)
    X = C @ B_split  # (re/im, m, NR, k)
    out = A_weighted @ X.reshape(2 * (m_cut + 1), -1)
    return out.reshape(n, -1, n).transpose(1, 0, 2)


@lru_cache(maxsize=None)
def _half_gather(m_cut: int):
    """Row, column and conjugation sign at which :func:`_analyze` reads each half-lattice mode; read-only."""
    m, n = make_modes(m_cut)[(2 * m_cut + 1) ** 2 // 2 :].T
    sign = np.where(n >= 0, 1, -1)  # (m, n < 0) is read as conj (-m, -n)
    return _read_only(sign * m + m_cut, sign * n, sign[:, None])


def _analyze(values: np.ndarray, m_cut: int) -> np.ndarray:
    """Project real collocation samples (NR, N, N) onto the half lattice of ``make_modes(m_cut)``.

    The adjoint of :func:`_synthesize`: contraction against conj(E) over k,
    then over (re/im, j), each one 2-d matmul, divided by N^2.  The samples
    are real, so only the columns n >= 0 are formed and the rest are read as
    c(m, n) = conj c(-m, -n).  The real and imaginary parts are written
    straight into the complex result, the rows K // 2 on of the square.
    """
    n = values.shape[-1]
    M = 2 * m_cut + 1
    _, _, A_split, B = _phase_blocks(m_cut, n)
    i, j, sign = _half_gather(m_cut)
    Y = values.transpose(1, 0, 2).reshape(-1, n) @ A_split  # (re/im, j, NR, n >= 0)
    spec = (B @ Y.reshape(2 * n, -1)).reshape(2, M, -1, m_cut + 1)
    out = np.empty((len(i), spec.shape[2]), dtype=complex)
    np.divide(spec[0, i, :, j], n * n, out=out.real)
    np.divide(spec[1, i, :, j], sign * float(n * n), out=out.imag)
    return out


def default_colloc(m_cut: int) -> int:
    # 3/2-rule with margin: products of retained modes stay alias-free
    return max(16, 4 * m_cut + 4)


# A solve starts on CHEB_INTERVALS Chebyshev intervals and doubles them
# while the trailing Chebyshev coefficients of the converged v exceed
# CHEB_TAIL_TOL of its largest one, up to CHEB_MAX_INTERVALS.  64 intervals
# resolve the default rho_max = max(3 / lambda_T, 4) for |p0| up to about
# 1e7 (rho_max 5.2); larger |p0|, or a user-set rho_max of about 5 or more,
# take 128, and p0 = 1e300 (rho_max 31.5) takes 256.
CHEB_INTERVALS = 64
CHEB_MAX_INTERVALS = 256
CHEB_TAIL_TOL = 1e-12


def _chebyshev_nodes(rho_min: float, rho_max: float, n: int) -> np.ndarray:
    """The increasing Chebyshev-Gauss-Lobatto nodes rho_min + (rho_max - rho_min)(1 - cos(j pi / n)) / 2, j = 0..n."""
    x = np.sin(0.5 * np.pi * (2 * np.arange(n + 1) - n) / n)  # -cos(j pi / n), symmetric about 0
    rho = rho_min + 0.5 * (rho_max - rho_min) * (x + 1.0)
    rho[0], rho[-1] = rho_min, rho_max
    return rho


@lru_cache(maxsize=8)
def _chebyshev(rho_min: float, rho_max: float, n: int):
    """Chebyshev-Gauss-Lobatto nodes of [rho_min, rho_max] with n intervals, and their matrices.

    Returns the nodes of :func:`_chebyshev_nodes`, the differentiation
    matrix D of the interpolant through them (Trefethen, *Spectral Methods
    in MATLAB*, ``cheb``, with the negative row sums on the diagonal), L_0 =
    rho^2 D^2 + 3 rho D, and the (n + 1, n + 1) cosine matrix taking node
    values to the interpolant's Chebyshev coefficients.  Read-only and
    memoized: a solve and its residuals keep one set of nodes.
    """
    j = np.arange(n + 1)
    rho = _chebyshev_nodes(rho_min, rho_max, n)
    x = np.sin(0.5 * np.pi * (2 * j - n) / n)
    ends = np.where((j == 0) | (j == n), 2.0, 1.0)
    c = ends * (-1.0) ** j
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    D *= 2.0 / (rho_max - rho_min)
    l0 = rho[:, None] ** 2 * (D @ D) + 3.0 * rho[:, None] * D
    # a_k = (2/n) sum'' f_j T_k(x_j), T_k(x_j) = cos(k (n - j) pi / n); a_0, a_n halved
    to_coeffs = np.cos(np.pi * np.outer(j, n - j) / n) / np.outer(ends, ends) * (2.0 / n)
    return _read_only(rho, D, l0, to_coeffs)


def _barycentric(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(len(x), len(nodes)) matrix evaluating the interpolant through Chebyshev-Gauss-Lobatto nodes at x.

    The second barycentric form with the weights (-1)^j, halved at both
    ends (Berrut and Trefethen, SIAM Review 46, 2004); a point that is a
    node takes that node's value.  Its rounding error follows the local
    size of the interpolant, so the decaying tail that ``fit_decay`` reads
    keeps about 1e-13 relative accuracy; a sum of Chebyshev polynomials
    times the cosine transform errs by about eps sup|v|, 4e-10 of the
    criterion-9 tail.
    """
    w = (-1.0) ** np.arange(len(nodes))
    w[[0, -1]] *= 0.5
    diff = x[:, None] - nodes[None, :]
    hit = diff == 0.0
    diff[hit] = 1.0
    P = w / diff
    P /= P.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    P[on_node] = hit[on_node]
    return P


# ----------------------------------------------------------------------
# the reduced equation
# ----------------------------------------------------------------------

def nonlinear_residual(v: TorusFourierField, n_colloc: int | None = None) -> TorusFourierField:
    """L v - Q(v) in conservative form: 4 rho^2 Delta_T v + L_0 (e^v - 1).

    Since L_0(e^v) = e^v (L_0 v + (rho v_r)^2), this equals the expanded
    L v - Q(v).  ``v`` lives on the Chebyshev-Gauss-Lobatto nodes of
    [rho[0], rho[-1]] (ValueError otherwise).  It is synthesized once on the
    collocation grid, e^v - 1 is formed in place by ``expm1`` and projected
    back onto the half lattice (pseudospectral); L_0 is radial, so it
    commutes with the projection, and its dense collocation matrix is
    applied once to the projected coefficients.  The torus part -16 pi^2
    |mu|^2 rho^2 v is added in coefficient space.  ``v`` must be real
    (Hermitian coefficients): the coefficient-space work is done for the
    rows from K // 2 on (m > 0, or m = 0 and n >= 0) and row K-1-k is the
    conjugate of row k.
    """
    if len(v.rho) < 5:
        raise ValueError("need at least 5 radial nodes")
    m_cut = v.m_cut
    if n_colloc is None:
        n_colloc = default_colloc(m_cut)
    if n_colloc < 2 * m_cut:
        raise AliasingError(f"collocation grid {n_colloc} < 2 x m_cut = {2 * m_cut}")
    rho_min, rho_max, n = float(v.rho[0]), float(v.rho[-1]), len(v.rho) - 1
    if not np.allclose(v.rho, _chebyshev_nodes(rho_min, rho_max, n), rtol=1e-12, atol=0.0):
        raise ValueError("rho must be the Chebyshev-Gauss-Lobatto nodes of [rho[0], rho[-1]]")
    rho, _, l0, _ = _chebyshev(rho_min, rho_max, n)
    c = len(v.coeffs) // 2  # rows c.. are the half lattice
    E = _synthesize(v.coeffs, n_colloc)
    np.expm1(E, out=E)
    out = np.empty(v.coeffs.shape, dtype=complex)
    out[c:] = _analyze(E, m_cut) @ l0.T
    out[c:] -= (16.0 * np.pi**2 * v.mu_norms()[c:] ** 2)[:, None] * rho**2 * v.coeffs[c:]
    np.conjugate(out[:c:-1], out=out[:c])
    return TorusFourierField(v.lattice, v.rho, out)


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


def _mode_inverses(mu_abs: np.ndarray, rho_min: float, rho_max: float, n: int):
    """Inverses of the collocation matrices of L_mu on n Chebyshev intervals, one per |mu|, and their Robin g.

    Row 0 is the Dirichlet row v(rho_min) and row n the Robin row v' - g v
    at rho_max, g the K_1 log-derivative there (exact for the decaying
    solution).  At mu = 0 the homogeneous solutions 1 and 1/rhat do not
    decay, so the mean mode takes the Cauchy rows v(rho_max) = 0 (row 0)
    and v'(rho_max) = 0 (row n): the decaying particular solution.  Each
    matrix is LU-factored and inverted once by ``numpy.linalg.inv``, so a
    Newton step is one matrix-vector product per mode.  g is 0 at mu = 0.
    Raises ``LinAlgError`` for a singular matrix.
    """
    mu_abs = np.asarray(mu_abs, dtype=float)
    mean = mu_abs == 0.0
    g = np.where(mean, 0.0, _phi_log_deriv(mu_abs, rho_max))
    rho, D, l0, _ = _chebyshev(rho_min, rho_max, n)
    A = l0 - (16.0 * np.pi**2 * mu_abs**2)[:, None, None] * np.diag(rho**2)
    A[:, 0] = 0.0
    A[:, 0, 0] = 1.0
    A[:, -1] = D[-1]
    A[:, -1, -1] -= g
    A[mean, 0, 0], A[mean, 0, -1] = 0.0, 1.0
    return np.linalg.inv(A), g


def _half_lattice_product(matrices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Real ``matrices`` (one per row, or one for all) applied to the complex (H, n) half-lattice ``rows``.

    Each complex row is taken as its (re, im) column pair, so all H
    products are one batched real matmul.  Returns all K = 2H - 1 rows in
    the ``make_modes`` order: ``rows`` are the rows K // 2 on, and row
    K-1-k of the result is the conjugate of row k.
    """
    H = len(rows)
    half = matrices @ np.ascontiguousarray(rows).view(float).reshape(H, -1, 2)
    half = half.reshape(H, -1).view(complex)
    out = np.empty((2 * H - 1, half.shape[1]), dtype=complex)
    out[H - 1 :] = half
    np.conjugate(half[:0:-1], out=out[: H - 1])
    return out


# ----------------------------------------------------------------------
# the nonlinear solve
# ----------------------------------------------------------------------

# the residual sup at which Newton stops, and its step limit
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 60


@dataclass
class LeBrunSolution:
    """Solved deviation field and derived data on T^2 x [rho_min, rho_max]."""

    v: TorusFourierField
    w: TorusFourierField
    lambda_t: float

    @property
    def wa2(self) -> TorusFourierField:
        """The connection w a2 = -v_x (see the module docstring)."""
        vx, _ = self.v.gradient()
        return replace(vx, coeffs=-vx.coeffs)

    @property
    def wa3(self) -> TorusFourierField:
        """The connection w a3 = -v_y."""
        _, vy = self.v.gradient()
        return replace(vy, coeffs=-vy.coeffs)

    @property
    def rho(self) -> np.ndarray:
        return self.v.rho

    @property
    def rhat(self) -> np.ndarray:
        return self.v.rho**2


def solve_nonlinear(
    inner_data: dict,
    rho_max: float | None,
    m_cut: int,
    lattice: TorusLattice,
    *,
    rho_min: float = 0.5,
    n_rho: int = 1401,
) -> LeBrunSolution:
    """Perturbative solve of the reduced equation with Dirichlet inner data.

    ``inner_data`` maps modes (m, n) to coefficients of v at rho_min; a
    missing conjugate mode is filled in, and a non-finite coefficient or a
    supplied pair with c(-mu) != conj c(mu) raises ValueError before any
    work, as does m_cut < 1; sup |data| <= 0.2.
    The radial variable is discretized by Chebyshev collocation on
    [rho_min, rho_max]: Newton iteration with mode-decoupled corrections
    L_mu dv = -residual, Dirichlet at rho_min and the K_1 log-derivative
    Robin condition at rho_max.  L_mu depends on |mu| only, so one dense
    matrix is built and inverted per distinct norm before the iteration, and
    each Newton step, up to ``NEWTON_MAX_ITER`` until the residual is below
    ``NEWTON_TOL``, is one batched product with the right-hand sides of one
    mode of each +-mu pair.  The iterates, residuals and steps are exactly
    Hermitian, so no step symmetrizes them.  The mean mode is special: its
    homogeneous solutions (1 and 1/rhat) are not exponentially decaying, so
    its correction is the decaying particular solution (zero value and
    derivative at rho_max) and its inner value is dictated by decay rather
    than prescribed; a nonzero mean-mode offset in the data must be small
    and is not enforced pointwise.  The solve starts on ``CHEB_INTERVALS``
    intervals and doubles them while the trailing Chebyshev coefficients of
    the converged v exceed ``CHEB_TAIL_TOL`` of its largest one, raising
    ``ConvergenceError`` past ``CHEB_MAX_INTERVALS``.  The returned v and w
    = 1/rhat + v'/(2 rho), v' taken by the differentiation matrix on the
    nodes, are the interpolants evaluated on ``n_rho`` uniform nodes of
    [rho_min, rho_max].
    """
    if m_cut < 1:
        raise ValueError("mode cutoff must be >= 1")
    if n_rho < 5:
        raise ValueError(f"need at least 5 output nodes, got n_rho={n_rho}")
    data = dict()
    for (m, n), c in inner_data.items():
        if (m, n) != (int(m), int(n)) or max(abs(m), abs(n)) > m_cut:
            raise ValueError(f"inner mode ({m},{n}) is not an integer mode within cutoff {m_cut}")
        if not np.isfinite(complex(c)):
            raise ValueError(f"inner data must be finite, got c({m}, {n}) = {c}")
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
    rho_min, rho_max = float(rho_min), float(rho_max)
    n_colloc = default_colloc(m_cut)

    dirichlet = TorusFourierField(lattice, [rho_min], np.zeros(((2 * m_cut + 1) ** 2, 1), dtype=complex))
    for (m, n), value in data.items():
        dirichlet.coeffs[dirichlet.index(int(m), int(n)), 0] = value
    sup0 = float(np.max(np.abs(dirichlet.values(n_colloc))))
    if not sup0 <= 0.2:
        raise PerturbativeRegimeError(f"sup |inner data| = {sup0:.3f} > 0.2")
    bc, norms = dirichlet.coeffs[:, 0], dirichlet.mu_norms()
    c = len(bc) // 2  # rows c.. are the half lattice, row c the mean mode
    distinct, group = np.unique(norms[c:], return_inverse=True)

    def solve_on(n: int) -> TorusFourierField:
        rho, D, _, _ = _chebyshev(rho_min, rho_max, n)
        inverses, g = _mode_inverses(distinct, rho_min, rho_max, n)
        inverses, g = inverses[group], g[group]
        coeffs = np.zeros((len(bc), n + 1), dtype=complex)
        for k in np.nonzero(bc)[0]:
            shape = linear_mode_solution(norms[k], rho)
            coeffs[k] = bc[k] * shape / shape[0]

        def boundary_defects(half):
            """Row 0 and row n of the half-lattice system, as defects."""
            inner = half[:, 0] - bc[c:]
            inner[0] = half[0, -1]  # the mean mode's v(rho_max)
            return inner, half @ D[-1] - g * half[:, -1]

        def residual(field):
            """The residual of ``field`` and the larger of its sup and the boundary defects."""
            res = nonlinear_residual(field, n_colloc)
            sup = float(np.max(np.abs(_synthesize(res.coeffs[:, 1:-1], n_colloc))))
            inner, outer = boundary_defects(field.coeffs[c:])
            return res, max(sup, float(np.abs(inner).max()), float(np.abs(outer).max()))

        v = TorusFourierField(lattice, rho, coeffs)
        res, current = residual(v)
        for _ in range(NEWTON_MAX_ITER):
            if current < NEWTON_TOL:
                return v
            rhs = -res.coeffs[c:]
            inner, outer = boundary_defects(v.coeffs[c:])
            rhs[:, 0], rhs[:, -1] = -inner, -outer
            step = _half_lattice_product(inverses, rhs)
            lam = 1.0
            for _ in range(9):
                trial = TorusFourierField(lattice, rho, v.coeffs + lam * step)
                trial_res, trial_norm = residual(trial)
                if trial_norm < current or trial_norm < NEWTON_TOL:
                    v, res, current = trial, trial_res, trial_norm  # reused by the next step
                    break
                lam *= 0.5
            else:
                raise ConvergenceError("mode-decoupled Newton stalled")
        raise ConvergenceError(f"nonlinear solve did not reach tol={NEWTON_TOL:.1e}")

    n = CHEB_INTERVALS
    while True:
        v = solve_on(n)
        spectrum = np.abs(v.coeffs[c:] @ _chebyshev(rho_min, rho_max, n)[3].T)
        if np.max(spectrum[:, -(n // 8):], initial=0.0) <= CHEB_TAIL_TOL * np.max(spectrum, initial=0.0):
            break
        n *= 2
        if n > CHEB_MAX_INTERVALS:
            raise ConvergenceError(
                f"radial Chebyshev tail above {CHEB_TAIL_TOL:.0e} at {CHEB_MAX_INTERVALS} intervals"
            )

    # v and v'/(2 rho) on the nodes, evaluated on the uniform output grid
    rho, D, _, _ = _chebyshev(rho_min, rho_max, n)
    rho_out = np.linspace(rho_min, rho_max, n_rho)
    P = _barycentric(rho, rho_out)
    w = _half_lattice_product(P, v.coeffs[c:] @ D.T / (2.0 * rho))
    w[c] += rho_out**-2.0
    return LeBrunSolution(
        v=TorusFourierField(lattice, rho_out, _half_lattice_product(P, v.coeffs[c:])),
        w=TorusFourierField(lattice, rho_out, w),
        lambda_t=float(lambda_t),
    )


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
# section profiles, metric difference
# ----------------------------------------------------------------------

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
    rvr = rho**2 * (np.sum(sol.w.coeffs, axis=0).real - rho**-2.0)  # rhat v_rhat = rhat w - 1
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
    - w a3 dx + w a2 dy, r = rhat e^v and e^u w = rhat w e^v = rw pointwise.
    The connection is w a2 = -v_x, w a3 = -v_y in closed form, so drhat =
    d0 dr - (v_x dx + v_y dy)/w with d0 = (rw)^{-1}, omega = dtheta + (v_y dx
    - v_x dy)/w, and g collects to

        g_rr = w d0^2,            g_theta theta = 1/w,
        g_rx = -v_x d0,           g_ry = -v_y d0,
        g_theta x = v_y/w,        g_theta y = -v_x/w,
        g_xx = g_yy = (v_x^2 + v_y^2)/w + rw,        g_xy = 0,

    the cross terms v_x v_y/w of w drhat^2 and w^{-1} omega^2 cancelling.
    g_sf(r) = diag(1/r, r, 1, 1) is subtracted on the diagonal.  Nodes are
    (rho_i, x_j, y_k).  The predicted K0 (diagonal) and K1 (cross) Bessel
    terms, built from the measured trigonometric factor T(x, y), and the
    remainder are computed when first read.
    """
    if n_colloc is None:
        n_colloc = default_colloc(sol.v.m_cut)
    vx, vy = sol.v.gradient()
    V, W, VX, VY = (f.values(n_colloc) for f in (sol.v, sol.w, vx, vy))
    r = sol.rho[:, None, None] ** 2 * np.exp(V)
    RW = r * W
    d0 = 1.0 / RW
    zero = np.zeros_like(V)
    g_rx, g_ry = -VX * d0, -VY * d0
    g_tx, g_ty = VY / W, -VX / W
    g_xx = (VX**2 + VY**2) / W + RW - 1.0
    # stacked component-major, each component one contiguous write; the
    # (..., 4, 4) result is a view of that (4, 4, ...) array
    g = np.stack(
        [
            W * d0**2 - 1.0 / r, zero, g_rx, g_ry,
            zero, 1.0 / W - r, g_tx, g_ty,
            g_rx, g_tx, g_xx, zero,
            g_ry, g_ty, zero, g_xx,
        ]
    ).reshape((4, 4) + V.shape)
    return MetricDifference(r=r, difference=np.moveaxis(g, (0, 1), (-2, -1)), sol=sol, n_colloc=n_colloc)


def _trig_factor(sol: LeBrunSolution, n_colloc: int):
    """T(x, y) and its gradient from the shortest-shell coefficients.

    v ~ rhat^{-1/2} K_1(2 lambda_T sqrt(rhat)) T(x, y), T the synthesis of
    the leading-shell T-hat (zero on the other modes of the square).
    """
    shell, t_hat = _shell_t_hat(sol)
    coeffs = np.zeros((len(shell), 1), dtype=complex)
    coeffs[shell, 0] = t_hat
    t = TorusFourierField(sol.v.lattice, sol.rho[-1:], coeffs)
    return tuple(f.values(n_colloc)[0] for f in (t, *t.gradient()))
