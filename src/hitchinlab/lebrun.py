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
lambda_T = 2 pi |mu_0|, i.e. rhat^{-3/4} e^{-2 lambda_T sqrt(rhat)}.  The
torus, lambda_T and that shell (the modes +-reps of
``TorusLattice.min_dual_norm``, in closed form) are ``toymodel``'s.
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
Newton reaches only the modes in the integer span of the data's modes and
of the collocation grid's period; only those are solved, and the others
are exactly 0.
Every field is real, so it holds one mode of each +-mu pair: the half
lattice ``make_modes(m_cut)`` of the modes m > 0, or m = 0 and n >= 0, whose
partners -mu carry the conjugate coefficients and are not stored.  The
coefficient-space work (radial operator, torus part, solves) is done on
these rows only.
The residual is evaluated in the conservative form: v is synthesized once
on a collocation grid, e^v - 1 is formed in place and projected back
(pseudospectral), and the dense matrix of L_0 is applied once to the
projected coefficients.  Synthesis and projection are separable
real matmuls, one 2-d matmul per contraction, against memoized collocation
phases.  The Chebyshev nodes, D and the doubling rule are ``grids``'s,
shared with ``painleve``: the node count doubles from 64 intervals until
the trailing Chebyshev coefficients of v are negligible.  The solution is
returned on a uniform radial grid, evaluated there by one barycentric
interpolation matrix (Berrut and Trefethen, SIAM Review 46, 2004), which
keeps the relative accuracy of the decaying tail.  ``fit_decay``
measures the realized decay rate and prefactor power.
The connection w a2 = -v_x, w a3 = -v_y is read off v by the torus gradient
(``TorusFourierField.gradient``), with no radial quadrature.
``metric_difference_full`` evaluates g - g_sf in the coframe of the radial
change r = rhat e^v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grids import chebyshev, chebyshev_nodes, chebyshev_solve
from .special import bessel_k, damped_newton
from .toymodel import TorusLattice

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
    "PerturbativeRegimeError",
    "UnderflowWindowError",
]


class AliasingError(ValueError):
    """Collocation grid too small for the requested mode cutoff."""


class PerturbativeRegimeError(ValueError):
    """Inner data too large for the perturbative solver."""


class UnderflowWindowError(RuntimeError):
    """No resolved decade available for the decay fit."""


# ----------------------------------------------------------------------
# Fourier fields on the torus
# ----------------------------------------------------------------------

def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: they are memoized and shared."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass
class TorusFourierField:
    """Fourier data of a real field over the dual lattice, per radial node.

    ``coeffs`` has shape (H, NR): its H = 2 m_cut (m_cut + 1) + 1 rows,
    m_cut >= 1, are the half lattice ``make_modes(m_cut)``, and m_cut is
    read off H.  The field is real: coeff(-mu) = conj coeff(mu) gives the
    other half, which is not stored.
    """

    lattice: TorusLattice
    rho: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        rows = len(self.coeffs) if self.coeffs.ndim == 2 else 0
        side = math.isqrt(max(2 * rows - 1, 0))
        if side < 3 or side * side != 2 * rows - 1 or self.coeffs.shape != (rows, len(self.rho)):
            raise ValueError("coefficient array must be (2 m_cut (m_cut + 1) + 1, n_rho) with m_cut >= 1")
        if np.any(np.diff(self.rho) <= 0) or self.rho[0] <= 0:
            raise ValueError("rho grid must be positive increasing")

    # -- mode bookkeeping --------------------------------------------------
    @property
    def m_cut(self) -> int:
        return _m_cut(len(self.coeffs))

    @property
    def modes(self) -> np.ndarray:
        return make_modes(self.m_cut)

    def index(self, m: int, n: int) -> int:
        """The row of (m, n) on the stored half: m (2 m_cut + 1) + n."""
        if max(abs(m), abs(n)) > self.m_cut or m < 0 or (m == 0 and n < 0):
            raise KeyError(f"mode ({m}, {n}) not present: the half lattice holds m > 0, or m = 0 and n >= 0")
        return m * (2 * self.m_cut + 1) + n

    def mu_norms(self) -> np.ndarray:
        return _dual_vectors(self.lattice, self.m_cut)[1]

    def mu_vectors(self) -> np.ndarray:
        return _dual_vectors(self.lattice, self.m_cut)[0]

    def gradient(self) -> tuple["TorusFourierField", "TorusFourierField"]:
        """(d/dx, d/dy) of the field: the coefficients times 2 pi i mu_x and 2 pi i mu_y."""
        k = 2j * np.pi * self.mu_vectors()
        return tuple(replace(self, coeffs=k[:, i, None] * self.coeffs) for i in (0, 1))

    # -- transforms ---------------------------------------------------------
    def values(self, n_colloc: int) -> np.ndarray:
        """Real-space samples, shape (NR, N, N), at X_{jk} = (j a + k b)/N."""
        return _synthesize(self.coeffs, n_colloc)

    def shell_rows(self) -> list:
        """The shortest nonzero dual shell's rows: the stored partner -rep of each ``min_dual_norm`` rep, in order."""
        return [self.index(-m, -n) for m, n in self.lattice.min_dual_norm()[1]]

    def shell_amplitude(self) -> np.ndarray:
        """Summed |coeff| over the shortest nonzero dual shell, both modes of each pair, per radius."""
        return 2.0 * np.abs(self.coeffs[self.shell_rows()]).sum(axis=0)


def _m_cut(rows: int) -> int:
    """The cutoff of a half lattice of ``rows`` = 2 m_cut (m_cut + 1) + 1 modes."""
    return (math.isqrt(2 * rows - 1) - 1) // 2


@lru_cache(maxsize=None)
def make_modes(m_cut: int) -> np.ndarray:
    """The (H, 2) half lattice (m, n), |m|, |n| <= m_cut: (0, 0), m = 0 < n, then m > 0, m-major; read-only."""
    if m_cut < 1:
        raise ValueError("mode cutoff must be >= 1")
    n = range(-m_cut, m_cut + 1)
    modes = [(0, k) for k in range(m_cut + 1)] + [(m, k) for m in range(1, m_cut + 1) for k in n]
    return _read_only(np.array(modes))[0]


@lru_cache(maxsize=64)
def _dual_vectors(lattice: TorusLattice, m_cut: int):
    """The (H, 2) dual vectors mu of ``make_modes(m_cut)`` and their norms; read-only."""
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
    lattice shape, so the sum is separable: the rows m >= 0, n = -m_cut..m_cut
    (the half lattice ``coeffs``, after the rows m = 0, n < 0, the
    conjugates of m = 0, n > 0), are reshaped to (m, NR, re/im, n),
    contracted against E[n, k] by one matmul that puts re/im outermost, and
    then against E[m, j] over (re/im, m) by one 2-d matmul.  The field is
    real (coeff(-mu) = conj coeff(mu)), so only the real part is formed;
    the rows -m of the first contraction are the conjugates of the rows m,
    so only m >= 0 is kept, with weight 2 on m > 0.  Returns shape
    (NR, N, N) as a view of a (j, NR, k)-ordered array, the layout
    :func:`_analyze` contracts without a copy.
    """
    m_cut = _m_cut(len(coeffs))
    M = 2 * m_cut + 1
    half = np.ascontiguousarray(np.concatenate([np.conj(coeffs[m_cut:0:-1]), coeffs])).view(float)  # (re, im) pairs
    C = half.reshape(m_cut + 1, M, -1, 2).transpose(0, 2, 3, 1).reshape(-1, 2 * M)
    B_split, A_weighted, _, _ = _phase_blocks(m_cut, n)
    X = C @ B_split  # (re/im, m, NR, k)
    out = A_weighted @ X.reshape(2 * (m_cut + 1), -1)
    return out.reshape(n, -1, n).transpose(1, 0, 2)


@lru_cache(maxsize=None)
def _half_gather(m_cut: int):
    """Row, column and conjugation sign at which :func:`_analyze` reads each half-lattice mode; read-only."""
    m, n = make_modes(m_cut).T
    sign = np.where(n >= 0, 1, -1)  # (m, n < 0) is read as conj (-m, -n)
    return _read_only(sign * m + m_cut, sign * n, sign[:, None])


def _analyze(values: np.ndarray, m_cut: int) -> np.ndarray:
    """Project real collocation samples (NR, N, N) onto the half lattice of ``make_modes(m_cut)``.

    The adjoint of :func:`_synthesize`: contraction against conj(E) over k,
    then over (re/im, j), each one 2-d matmul, divided by N^2.  The samples
    are real, so only the columns n >= 0 are formed and the rest are read as
    c(m, n) = conj c(-m, -n).  The real and imaginary parts are written
    straight into the complex result.
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


def _in_span(modes: np.ndarray, generators, n: int) -> np.ndarray:
    """Which rows of the integer ``modes`` lie in the integer span of ``generators``, (n, 0) and (0, n).

    The span is a full-rank sublattice of Z^2; Euclid on the first entries
    folds each generator into its Hermite normal form, the rows (a, b) and
    (0, d) with a, d > 0 dividing n.  Then (m, k) lies in it exactly when
    a | m and d | k - (m / a) b.
    """
    a, b, d = n, 0, n
    for m, k in generators:
        m, k = int(m), int(k)
        while m:
            q = a // m
            a, b, m, k = m, k, a - q * m, b - q * k
        if a < 0:
            a, b = -a, -b
        d = math.gcd(d, k)
    m, k = np.asarray(modes).T
    return (m % a == 0) & ((k - (m // a) * b) % d == 0)


@lru_cache(maxsize=8)
def _chebyshev(rho_min: float, rho_max: float, n: int):
    """``grids.chebyshev`` of [rho_min, rho_max] with n intervals, and L_0 = rho^2 D^2 + 3 rho D.

    Returns the nodes, D, L_0 and the cosine matrix.  Read-only and
    memoized: a solve and its residuals keep one set of nodes.
    """
    rho, D, to_coeffs = chebyshev(rho_min, rho_max, n)
    l0 = rho[:, None] ** 2 * (D @ D) + 3.0 * rho[:, None] * D
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
    |mu|^2 rho^2 v is added in coefficient space, on the half lattice that
    ``v`` holds.
    """
    if len(v.rho) < 5:
        raise ValueError("need at least 5 radial nodes")
    m_cut = v.m_cut
    if n_colloc is None:
        n_colloc = default_colloc(m_cut)
    if n_colloc < 2 * m_cut:
        raise AliasingError(f"collocation grid {n_colloc} < 2 x m_cut = {2 * m_cut}")
    rho_min, rho_max, n = float(v.rho[0]), float(v.rho[-1]), len(v.rho) - 1
    if not np.allclose(v.rho, chebyshev_nodes(rho_min, rho_max, n), rtol=1e-12, atol=0.0):
        raise ValueError("rho must be the Chebyshev-Gauss-Lobatto nodes of [rho[0], rho[-1]]")
    rho, _, l0, _ = _chebyshev(rho_min, rho_max, n)
    E = _synthesize(v.coeffs, n_colloc)
    np.expm1(E, out=E)
    out = _half_lattice_product(l0, _analyze(E, m_cut))
    out -= (16.0 * np.pi**2 * v.mu_norms() ** 2)[:, None] * rho**2 * v.coeffs
    return TorusFourierField(v.lattice, v.rho, out)


def linear_mode_solution(mu_abs: float, rho):
    """Decaying solution of L_mu: |mu|^{1/2} rho^{-1} K_1(4 pi |mu| rho); rho^{-2} at mu = 0."""
    rho = np.asarray(rho, dtype=float)
    mu_abs = float(mu_abs)
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
    ``solve_nonlinear`` asks only for the norms of its support, the rows its
    data can reach.  Raises ``LinAlgError`` for a singular matrix.
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
    products are one batched real matmul.
    """
    H = len(rows)
    out = matrices @ np.ascontiguousarray(rows).view(float).reshape(H, -1, 2)
    return out.reshape(H, -1).view(complex)


# ----------------------------------------------------------------------
# the nonlinear solve
# ----------------------------------------------------------------------

# the residual sup at which Newton stops, and its step limit
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 60


@dataclass
class LeBrunSolution:
    """Solved deviation field and derived data on T^2 x [rho_min, rho_max]; lambda_t is the lattice's."""

    v: TorusFourierField
    w: TorusFourierField

    @property
    def lambda_t(self) -> float:
        return self.v.lattice.lambda_t

    @property
    def rho(self) -> np.ndarray:
        return self.v.rho


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

    ``inner_data`` maps modes (m, n) to coefficients of v at rho_min; either
    mode of a +-mu pair stands for both, and a non-finite coefficient or a
    supplied pair with c(-mu) != conj c(mu) raises ValueError before any
    work, as does m_cut < 1; sup |data| <= 0.2.
    The radial variable is discretized by Chebyshev collocation on
    [rho_min, rho_max]: ``special.damped_newton`` with mode-decoupled
    corrections L_mu dv = -residual, Dirichlet at rho_min and the K_1
    log-derivative Robin condition at rho_max.
    Newton works on the support of the data: the rows of the half lattice in
    the integer span of the modes with nonzero data and of (n_colloc, 0) and
    (0, n_colloc), which closes it under aliasing on the collocation grid.
    The grid translations that fix every data phase commute with the
    residual, so every iterate vanishes off the support, and there the
    solution is exactly 0.  L_mu depends on |mu| only, so one dense matrix
    is built and inverted per distinct norm of the support before the
    iteration, and each Newton step, up to ``NEWTON_MAX_ITER`` until the
    residual (on the whole half lattice) is below ``NEWTON_TOL``, is one
    batched product with the right-hand sides of the support rows.
    The mean mode, row 0, is special: its
    homogeneous solutions (1 and 1/rhat) are not exponentially decaying, so
    its correction is the decaying particular solution (zero value and
    derivative at rho_max) and its inner value is dictated by decay rather
    than prescribed; it starts at 0, and a nonzero mean-mode offset in the
    data must be small and is not enforced.  ``grids.chebyshev_solve`` sizes the
    node set: it starts on 64 intervals and doubles them when Newton fails
    or the trailing Chebyshev coefficients of the converged v exceed 1e-12
    of its largest one, raising ``ConvergenceError`` past 256.  The
    returned v and w = 1/rhat + v'/(2 rho), v' taken by the differentiation
    matrix on the nodes, are the interpolants evaluated on ``n_rho`` uniform
    nodes of [rho_min, rho_max].
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
    for (m, n), c in data.items():
        partner = data.get((-m, -n), np.conj(c))
        if partner != np.conj(c):
            raise ValueError(
                f"inner data is not real: c({-m}, {-n}) = {partner} is not the "
                f"conjugate of c({m}, {n}) = {c}"
            )
    if abs(data.get((0, 0), 0.0)) > 0.05:
        raise PerturbativeRegimeError("mean-mode offset must be small")

    if rho_max is None:
        rho_max = max(3.0 / lattice.lambda_t, 4.0)
    if not 0.0 < rho_min < rho_max < np.inf:
        raise ValueError(f"need 0 < rho_min < rho_max < inf, got rho_min={rho_min}, rho_max={rho_max}")
    rho_min, rho_max = float(rho_min), float(rho_max)
    n_colloc = default_colloc(m_cut)

    dirichlet = TorusFourierField(lattice, [rho_min], np.zeros((len(make_modes(m_cut)), 1), dtype=complex))
    for (m, n), value in data.items():
        m, n = int(m), int(n)
        if m < 0 or (m == 0 and n < 0):  # stored as the conjugate of -mu
            m, n, value = -m, -n, np.conj(value)
        dirichlet.coeffs[dirichlet.index(m, n), 0] = value
    sup0 = float(np.max(np.abs(dirichlet.values(n_colloc))))
    if not sup0 <= 0.2:
        raise PerturbativeRegimeError(f"sup |inner data| = {sup0:.3f} > 0.2")
    bc, norms = dirichlet.coeffs[:, 0], dirichlet.mu_norms()
    # the rows Newton can reach from the data; the others stay exactly 0
    support = np.flatnonzero(_in_span(dirichlet.modes, dirichlet.modes[bc != 0], n_colloc))
    distinct, group = np.unique(norms[support], return_inverse=True)

    def solve_on(n: int):
        """The solution on n intervals, and its Chebyshev coefficients."""
        rho, D, _, to_coeffs = _chebyshev(rho_min, rho_max, n)
        inverses, g = _mode_inverses(distinct, rho_min, rho_max, n)
        inverses, g = inverses[group], g[group]
        coeffs = np.zeros((len(bc), n + 1), dtype=complex)
        # the mean mode starts at 0: its inner value is not prescribed, and
        # mean-only data solves to v = 0 exactly
        for k in np.nonzero(bc[1:])[0] + 1:
            shape = linear_mode_solution(norms[k], rho)
            coeffs[k] = bc[k] * shape / shape[0]

        def boundary_defects(x):
            """Row 0 and row n of the system on the support, as defects; off it they are 0."""
            x = x[support]
            inner = x[:, 0] - bc[support]
            inner[0] = x[0, -1]  # the mean mode's v(rho_max)
            return inner, x @ D[-1] - g * x[:, -1]

        def residual(x):
            """The residual at coefficients ``x`` and the larger of its sup and the boundary defects."""
            res = nonlinear_residual(TorusFourierField(lattice, rho, x), n_colloc)
            sup = float(np.max(np.abs(_synthesize(res.coeffs[:, 1:-1], n_colloc))))
            inner, outer = boundary_defects(x)
            return res, max(sup, float(np.abs(inner).max()), float(np.abs(outer).max()))

        def step(x, res):
            rhs = -res.coeffs[support]
            inner, outer = boundary_defects(x)
            rhs[:, 0], rhs[:, -1] = -inner, -outer
            dx = np.zeros_like(x)
            dx[support] = _half_lattice_product(inverses, rhs)
            return dx

        v = TorusFourierField(lattice, rho, damped_newton(coeffs, residual, step, NEWTON_TOL, NEWTON_MAX_ITER))
        return v, v.coeffs @ to_coeffs.T

    # an unresolved tail or a failed Newton solve doubles the intervals, up to the cap
    v, n = chebyshev_solve(solve_on)

    # v and v'/(2 rho) on the nodes, evaluated on the uniform output grid
    rho, D, _, _ = _chebyshev(rho_min, rho_max, n)
    rho_out = np.linspace(rho_min, rho_max, n_rho)
    P = _barycentric(rho, rho_out)
    w = _half_lattice_product(P, v.coeffs @ D.T / (2.0 * rho))
    w[0] += rho_out**-2.0
    return LeBrunSolution(
        v=TorusFourierField(lattice, rho_out, _half_lattice_product(P, v.coeffs)),
        w=TorusFourierField(lattice, rho_out, w),
    )


# ----------------------------------------------------------------------
# decay measurement
# ----------------------------------------------------------------------

def fit_decay(sol: LeBrunSolution):
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
# metric difference
# ----------------------------------------------------------------------

@dataclass
class MetricDifference:
    """r, shape (NR, N, N), and g_L2 - g_sf, shape (NR, N, N, 4, 4), at the nodes (rho_i, x_j, y_k) asked for."""

    r: np.ndarray
    difference: np.ndarray


def metric_difference_full(sol: LeBrunSolution, n_colloc: int | None = None, nodes=np.s_[:]) -> MetricDifference:
    """g_L2 - g_sf at the radial nodes ``sol.rho[nodes]``, in the (dr, dtheta, dx, dy) coframe.

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
    (rho_i, x_j, y_k), rho_i over ``sol.rho[nodes]`` (a slice or an
    increasing index array; the default is every node).  Only those nodes
    are synthesized, and the result is bit for bit the whole-grid one there.
    """
    if n_colloc is None:
        n_colloc = default_colloc(sol.v.m_cut)
    v, w = (replace(f, rho=f.rho[nodes], coeffs=f.coeffs[:, nodes]) for f in (sol.v, sol.w))
    vx, vy = v.gradient()
    V, W, VX, VY = (f.values(n_colloc) for f in (v, w, vx, vy))
    r = v.rho[:, None, None] ** 2 * np.exp(V)
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
    return MetricDifference(r=r, difference=np.moveaxis(g, (0, 1), (-2, -1)))

