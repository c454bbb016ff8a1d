"""Independent oracles for the tests, the acceptance gate and the demos.

Each routine recomputes a quantity that a production module computes, by a
route that shares no solver with it:

  shooting_solution          adaptive Runge-Kutta shooting for the radial
                             sinh-Gordon family (``painleve`` collocates
                             m/K_0 on Chebyshev nodes in log rho);
  tail_amplitude             the K0-tail amplitude a solved profile reaches,
                             measured as m/K0 on a window (``painleve``
                             imposes only the tail's log-derivative);
  solve_mode_bvp             one second-order finite-difference banded
                             solve per torus mode, on any grid (``lebrun``
                             solves by Chebyshev collocation, one dense
                             inverse per distinct |mu|);
  solve_mode_inhomogeneous   variation of parameters by nested quadrature;
  hitchin_section_difference the metric difference on the section (0, 0),
                             read off a cubic spline of ``section_profiles``
                             (``lebrun.metric_difference_full`` evaluates
                             the whole collocation grid);
  local_fields               the 2x2 matrices (A_theta, Phi, h) of a radial
                             ``fiducial.FieldSample`` on an (r, theta) grid,
                             checked anti-Hermitian, trace free and positive
                             definite (the package stores the profile only);
  matrix_residual            the self-duality residual from those matrices
                             (``fiducial.hitchin_residual`` uses the scalar
                             reduction of the ansatz);
  quadratic_differential     -det(Phi/dz) of those matrices, against the
                             case's expected_quadratic_differential;
  semiflat_metric            the paper's g_sf at a BasePoint of the Hitchin
                             base (``lebrun.metric_difference_full``
                             subtracts it in closed form);
  fd_second                  the 3-point second difference the tests'
                             finite-difference residuals read (no package
                             module differentiates twice on a grid);
  shortest_vectors           Lagrange-Gauss reduction of any planar lattice
                             basis (``toymodel.TorusLattice`` reads the
                             shortest dual vectors of a reduced tau in
                             closed form, and ``toymodel.shortest_geodesic``
                             is M_B in closed form);
  tau_from_periods           tau from the ratio of the contour periods
                             (``toymodel.ToyConfig`` reads it off two
                             arithmetic-geometric means);

and the references, computed by no command, that the tests hold the LeBrun
solve against: ``section_profiles`` (r, rw and T(0, 0) on the section),
``predicted_bessel_parts`` (the predicted K0 and K1 parts of g_L2 - g_sf,
from the leading-shell T-hat) and ``truncation_diagnostic`` (a torus
field's outermost retained shell over its leading one).

No module of the package imports this one, so the command line never
loads it or ``scipy.integrate``.  The spectral-curve periods, the oracle
for ``c_sK``, live in ``toymodel``, where the benchmark's toymodel gate
imports them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .fiducial import CaseKind, FieldSample, LocalCase
from .grids import fd_first, fd_first_boundary, interior_weights
from .lebrun import LeBrunSolution, TorusFourierField, _phi_log_deriv, linear_mode_solution
from .special import ConvergenceError, bessel_k, reduce_to_fundamental_domain
from .toymodel import periods

__all__ = [
    "fd_second",
    "shooting_solution",
    "tail_amplitude",
    "banded_three_point",
    "solve_mode_bvp",
    "solve_mode_inhomogeneous",
    "section_profiles",
    "predicted_bessel_parts",
    "truncation_diagnostic",
    "hitchin_section_difference",
    "ANGLES",
    "local_fields",
    "matrix_residual",
    "quadratic_differential",
    "expected_quadratic_differential",
    "BasePoint",
    "semiflat_metric",
    "shortest_vectors",
    "tau_from_periods",
    "DivergenceError",
]


class DivergenceError(RuntimeError):
    """The variation-of-parameters outer integral grows; a = infinity invalid."""


def fd_second(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivative along the last axis at interior nodes, by ``grids.interior_weights``.

    The end values copy their neighbours; they are placeholders, and every
    check reads interior nodes only.
    """
    a_l, a_c, a_r = interior_weights(x)[1]
    out = np.empty_like(y)
    out[..., 1:-1] = a_l * y[..., :-2] + a_c * y[..., 1:-1] + a_r * y[..., 2:]
    out[..., 0], out[..., -1] = out[..., 1], out[..., -2]
    return out


# ----------------------------------------------------------------------
# radial sinh-Gordon: shooting
# ----------------------------------------------------------------------

def shooting_solution(sigma: float, rho_grid, *, rtol: float = 1e-11) -> np.ndarray:
    """Adaptive Runge-Kutta solution shot from rho_max inward.

    Starts on the K0 tail with unknown amplitude and bisects the amplitude to
    match the log-slope condition rho m' = sigma at rho_min.  Entirely
    independent of the Chebyshev collocation path.
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    if sigma == 0.0:
        return np.zeros_like(rho_grid)
    if sigma > 0.0:
        return -shooting_solution(-sigma, rho_grid, rtol=rtol)

    rho_min, rho_max = rho_grid[0], rho_grid[-1]
    k0 = bessel_k(0, rho_max)
    k1 = bessel_k(1, rho_max)

    def rhs(rho, y):
        return (y[1], -y[1] / rho + 0.5 * np.sinh(2.0 * y[0]))

    def defect(amp):
        sol = solve_ivp(
            rhs, (rho_max, rho_min), (amp * k0, -amp * k1),
            method="DOP853", rtol=rtol, atol=1e-300,
        )
        return rho_min * sol.y[1, -1] - sigma

    lo, hi = 1e-8, 0.5
    while defect(hi) > 0:
        hi *= 2.0
        if hi > 1e6:
            raise ConvergenceError("shooting bracket not found")
    amp = brentq(defect, lo, hi, xtol=1e-15, rtol=8.9e-16)
    sol = solve_ivp(
        rhs, (rho_max, rho_min), (amp * k0, -amp * k1),
        method="DOP853", rtol=rtol, atol=1e-300, t_eval=rho_grid[::-1],
    )
    return sol.y[0][::-1].copy()


def tail_amplitude(rho, m, window: tuple[float, float] = (10.0, 15.0)):
    """Measured K0-tail amplitude of the profile m on the nodes rho: mean and relative spread of m/K0 on the window.

    The decaying family has m ~ A(sigma) K0(rho); A is reported, not
    assumed (numerically A tracks (2/pi) sin(-pi sigma/2), which is 1/pi
    at sigma = -1/3, the simple-zero member).
    """
    rho, m = np.asarray(rho, dtype=float), np.asarray(m, dtype=float)
    mask = (rho >= window[0]) & (rho <= window[1])
    if mask.sum() < 4:
        raise ValueError("profile does not cover the requested tail window")
    ratio = m[mask] / bessel_k(0, rho[mask])
    spread = float((ratio.max() - ratio.min()) / abs(ratio.mean())) if ratio.mean() else np.inf
    return float(ratio.mean()), spread


# ----------------------------------------------------------------------
# reduced-equation torus modes: per-mode banded solve, variation of parameters
# ----------------------------------------------------------------------

def banded_three_point(lower, diag, upper, first, last) -> np.ndarray:
    """(5, n) band storage, for ``solve_banded((2, 2), ...)``, of a 3-point operator.

    Interior row i (1 <= i <= n-2) holds lower[i-1], diag[i-1], upper[i-1] in
    columns i-1, i, i+1; row 0 holds the weights ``first`` in columns 0, 1, 2
    and row n-1 the weights ``last`` in columns n-1, n-2, n-3, the index
    order of ``grids.fd_first_boundary``.
    """
    diag = np.asarray(diag)
    n = len(diag) + 2
    ab = np.zeros((5, n), dtype=np.result_type(lower, diag, upper, *first, *last))
    ab[2, 1:-1] = diag
    ab[3, :-2] = lower
    ab[1, 2:] = upper
    ab[2, 0], ab[1, 1], ab[0, 2] = first
    ab[2, -1], ab[3, -2], ab[4, -3] = last
    return ab


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


def _banded_mode_solve(mu_abs: float, rho: np.ndarray, rhs_interior, bc_inner, robin_rhs=0.0):
    """Solve L_mu v = rhs with v(rho0) = bc_inner and (v' - g v)(rhoN) = robin_rhs.

    g is the K_1 log-derivative at rho_max, exact for the decaying solution.
    """
    ab = _mode_band(mu_abs, rho, _phi_log_deriv([mu_abs], rho[-1])[0])
    rhs = np.empty(len(rho), dtype=complex)
    rhs[0] = bc_inner
    rhs[1:-1] = rhs_interior
    rhs[-1] = robin_rhs
    return solve_banded((2, 2), ab, rhs)


def solve_mode_bvp(mu_abs: float, f_samples, rho, bc_inner=0.0):
    """Direct banded finite-difference solve of L_mu v = f with decay conditions.

    Dirichlet value at rho_min, Robin matched to the K_1 log-derivative at
    rho_max (exact for the decaying homogeneous solution).
    """
    rho = np.asarray(rho, dtype=float)
    f = np.asarray(f_samples, dtype=complex)
    return _banded_mode_solve(float(mu_abs), rho, f[1:-1], bc_inner)


def solve_mode_inhomogeneous(mu_abs: float, f_samples, rho, a=None):
    """Variation-of-parameters particular solution of L_mu v = f on the grid.

    v(rho) = -phi(rho) int_a^rho phi(s)^{-2} s^{-3} [int_s^inf phi f s ds] ds,
    evaluated by nested adaptive quadrature on cubic splines of the sampled
    integrands (the outer integral truncates at rho_max where f decays).
    With a = inf the outer integral starts at infinity; a divergence
    diagnostic rejects that choice when the outer integrand grows.
    """
    rho = np.asarray(rho, dtype=float)
    f = np.asarray(f_samples, dtype=float)
    if np.all(f == 0.0):
        return np.zeros_like(rho)
    phi = linear_mode_solution(mu_abs, rho)
    inner_spline = CubicSpline(rho, phi * f * rho)
    F = np.zeros_like(rho)
    for i in range(len(rho) - 2, -1, -1):
        seg, _ = quad(inner_spline, rho[i], rho[i + 1], limit=100)
        F[i] = F[i + 1] + seg
    outer = F / (phi**2 * rho**3)
    if a is not None and np.isinf(a):
        # interior probes: the truncated top end of F is not representative
        i_lo, i_hi = len(rho) // 4, (3 * len(rho)) // 4
        if abs(outer[i_hi]) > abs(outer[i_lo]):
            raise DivergenceError(
                "outer integrand grows toward rho_max; a = infinity is invalid here"
            )
        H = np.zeros_like(rho)
        outer_spline = CubicSpline(rho, outer)
        for i in range(len(rho) - 2, -1, -1):
            seg, _ = quad(outer_spline, rho[i], rho[i + 1], limit=100)
            H[i] = H[i + 1] + seg
        return phi * H
    if a is None:
        a = rho[0]
    if abs(a - rho[0]) > 1e-12 * rho[0]:
        raise ValueError("finite lower limits other than rho_min are not supported")
    G = np.zeros_like(rho)
    outer_spline = CubicSpline(rho, outer)
    for i in range(1, len(rho)):
        seg, _ = quad(outer_spline, rho[i - 1], rho[i], limit=100)
        G[i] = G[i - 1] + seg
    return -phi * G


# ----------------------------------------------------------------------
# LeBrun references: torus-field diagnostics, section profiles, Bessel prediction
# ----------------------------------------------------------------------

def truncation_diagnostic(field: TorusFourierField) -> float:
    """Outermost retained shell over leading shell, at the outermost radial node.

    A small ratio certifies that the mode cutoff resolves the field
    (spectral accuracy); it is read at the outer boundary, where the shell
    hierarchy is steepest.  The half lattice holds one mode of each +-mu
    pair, and |coeff(-mu)| = |coeff(mu)|.
    """
    outer = np.max(np.abs(field.modes), axis=1) == field.m_cut
    lead = float(np.max(np.abs(field.coeffs[field.shell_rows(), -1])))
    if lead == 0.0:
        return 0.0
    return float(np.max(np.abs(field.coeffs[outer, -1]))) / lead


def _shell_t_hat(sol: LeBrunSolution):
    """The leading-shell rows and T-hat, calibrated at the outermost node.

    T-hat is the shell coefficients of v over rho^{-1} K_1(4 pi |mu_0| rho)
    there, where subleading corrections are smallest.
    """
    rho = sol.rho
    shell = sol.v.shell_rows()
    phi_ref = bessel_k(1, 4.0 * np.pi * sol.v.lattice.min_dual_norm()[0] * rho[-1]) / rho[-1]
    return shell, sol.v.coeffs[shell, -1] / phi_ref


def _at_origin(coeffs: np.ndarray) -> np.ndarray:
    """A real field's value at (x, y) = (0, 0), the sum over every mode: c_0 + 2 Re of the rest of the half lattice."""
    return coeffs[0].real + 2.0 * np.sum(coeffs[1:], axis=0).real


def section_profiles(sol: LeBrunSolution):
    """On the section (x, y) = (0, 0): r(rho), rw(rho), and the T(0,0) estimate.

    rw = e^v (1 + rhat v_rhat); T(0,0) is the sum of the leading-shell T-hat
    over both modes of each pair.
    """
    rho = sol.rho
    v00 = _at_origin(sol.v.coeffs)
    rvr = rho**2 * (_at_origin(sol.w.coeffs) - rho**-2.0)  # rhat v_rhat = rhat w - 1
    rw = np.exp(v00) * (1.0 + rvr)
    r = rho**2 * np.exp(v00)
    _, t_hat = _shell_t_hat(sol)
    return r, rw, 2.0 * float(np.sum(t_hat).real)


def _trig_factor(sol: LeBrunSolution, n_colloc: int):
    """T(x, y) and its gradient on the n_colloc grid, from the shortest-shell coefficients.

    v ~ rhat^{-1/2} K_1(2 lambda_T sqrt(rhat)) T(x, y), T the synthesis of
    the leading-shell T-hat (zero on the other modes).
    """
    shell, t_hat = _shell_t_hat(sol)
    coeffs = np.zeros((len(sol.v.coeffs), 1), dtype=complex)
    coeffs[shell, 0] = t_hat
    t = TorusFourierField(sol.v.lattice, sol.rho[-1:], coeffs)
    return tuple(f.values(n_colloc)[0] for f in (t, *t.gradient()))


def predicted_bessel_parts(sol: LeBrunSolution, r: np.ndarray, n_colloc: int):
    """The predicted K0 and K1 parts of g_L2 - g_sf at the r (NR, n_colloc, n_colloc) of ``metric_difference_full``.

    K0: lam K0(2 lam sqrt r) T diag(1/r, r, -1, -1); K1: the cross terms
    carried by the gradient of T; each of shape r.shape + (4, 4).  T-hat is
    calibrated at the outermost node of ``sol`` whatever nodes ``r`` holds,
    so a node subset gets the whole grid's parts there, bit for bit.  The
    remainder is the difference minus both parts.
    """
    lam = sol.lambda_t
    T, Tx, Ty = _trig_factor(sol, n_colloc)
    sqrt_r = np.sqrt(r)
    K0, K1 = (bessel_k(nu, 2.0 * lam * sqrt_r) for nu in (0, 1))
    amp = lam * K0 * T
    pk0, pk1 = np.zeros((2,) + r.shape + (4, 4))
    pk0[..., 0, 0], pk0[..., 1, 1], pk0[..., 2, 2], pk0[..., 3, 3] = amp / r, amp * r, -amp, -amp
    pk1[..., 0, 2] = pk1[..., 2, 0] = -K1 / sqrt_r * Tx
    pk1[..., 0, 3] = pk1[..., 3, 0] = -K1 / sqrt_r * Ty
    pk1[..., 1, 2] = pk1[..., 2, 1] = sqrt_r * K1 * Ty
    pk1[..., 1, 3] = pk1[..., 3, 1] = -sqrt_r * K1 * Tx
    return pk0, pk1


def hitchin_section_difference(sol: LeBrunSolution, r_query) -> np.ndarray:
    """(1/(rw) - 1) diag(1/r, r) on the section: an array of shape ``(len(r_query), 2, 2)``."""
    r, rw, _ = section_profiles(sol)
    r_query = np.atleast_1d(np.asarray(r_query, dtype=float))
    if np.any(r_query < r[0]) or np.any(r_query > r[-1]):
        raise ValueError("requested radius outside the solved range")
    rw_at = CubicSpline(r, rw)(r_query)
    coeff = 1.0 / rw_at - 1.0
    g = np.zeros(r_query.shape + (2, 2))
    g[..., 0, 0] = coeff / r_query
    g[..., 1, 1] = coeff * r_query
    return g


# ----------------------------------------------------------------------
# local model fields: the matrix self-duality residual and the quadratic differential
# ----------------------------------------------------------------------

_PAULI3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])
_ID2 = np.eye(2, dtype=complex)
# the angular nodes the matrix checks sample by default
ANGLES = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)


def local_fields(sample: FieldSample, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A_theta, Phi, h) of the radial model in unitary gauge, built from its profile and validated.

    ``A_theta`` and ``h`` are radial, shape (nr, 2, 2); ``Phi`` has shape
    (nr, len(theta), 2, 2), at z = r e^{i theta}.  The ansatz of each case is
    in the ``fiducial`` module docstring.  Raises ``ValueError`` unless A is
    anti-Hermitian, Phi trace free and h positive definite.
    """
    r = sample.r
    theta = np.asarray(theta, dtype=float)
    z = r[:, None] * np.exp(1j * theta[None, :])
    nr = len(r)
    xi = sample.xi
    Phi = np.zeros((nr, len(theta), 2, 2), dtype=complex)
    h = np.zeros((nr, 2, 2), dtype=complex)

    kind = sample.case.kind
    if kind is CaseKind.SIMPLE_ZERO:
        A = 2.0 * sample.f_values[:, None, None] * (1j * _PAULI3)
        Phi[..., 0, 1] = (np.sqrt(r) * np.exp(xi))[:, None]
        Phi[..., 1, 0] = z * (np.exp(-xi) / np.sqrt(r))[:, None]
        h[:, 0, 0] = np.sqrt(r) * np.exp(xi)
        h[:, 1, 1] = np.exp(-xi) / np.sqrt(r)
    elif kind is CaseKind.STRONG_POLE:
        asum = sample.case.weights.alpha1 + sample.case.weights.alpha2
        A = (0.5j * asum) * _ID2 + 2.0 * sample.f_values[:, None, None] * (1j * _PAULI3)
        Phi[..., 0, 1] = (np.exp(xi) / np.sqrt(r))[:, None]
        Phi[..., 1, 0] = (np.sqrt(r) * np.exp(-xi))[:, None] / z
        h[:, 0, 0] = r**asum * np.exp(xi) / np.sqrt(r)
        h[:, 1, 1] = r**asum * np.sqrt(r) * np.exp(-xi)
    else:  # weak pole
        w = sample.case.weights
        sigma = complex(sample.case.residue)
        A = np.tile(np.diag([1j * w.alpha1, 1j * w.alpha2]), (nr, 1, 1))
        Phi[..., 0, 0] = sigma / z
        Phi[..., 1, 1] = -sigma / z
        h[:, 0, 0] = r ** (2.0 * w.alpha1)
        h[:, 1, 1] = r ** (2.0 * w.alpha2)

    if np.max(np.abs(A + np.conj(np.swapaxes(A, -1, -2)))) > 1e-12:
        raise ValueError("A_theta must be anti-Hermitian")
    tr = np.abs(Phi[..., 0, 0] + Phi[..., 1, 1])
    if np.max(tr) > 1e-12 * max(1.0, float(np.max(np.abs(Phi)))):
        raise ValueError("Phi must be trace free")
    if np.any(h[:, 0, 0].real <= 0) or np.any(np.linalg.det(h).real <= 0):
        raise ValueError("h must be positive definite")
    return A, Phi, h


def matrix_residual(sample: FieldSample, t: float, theta=ANGLES) -> float:
    """Cross-check residual from the ``local_fields`` matrices (no analytic split).

    Same log-frame measure as ``fiducial.hitchin_residual``, sup over the
    angles ``theta`` too; loses accuracy once the profile is exponentially
    small (cancellation against the constant part of the connection), so it
    is a validation tool, not the production path.
    """
    r = sample.r
    x = np.log(r)
    nr = len(r)
    A, P, _ = local_fields(sample, theta)
    dA = fd_first(x, A.reshape(nr, 4).T).T.reshape(nr, 2, 2)
    dA = dA - 0.5 * np.trace(dA, axis1=-2, axis2=-1)[:, None, None] * _ID2
    Pd = np.conj(np.swapaxes(P, -1, -2))
    comm = P @ Pd - Pd @ P
    resid = dA[:, None, :, :] - 2j * (t**2) * ((r**2)[:, None, None, None]) * comm
    vals = np.linalg.norm(resid, ord=2, axis=(-2, -1)).max(axis=1)
    return float(np.max(vals[1:-1]))


def quadratic_differential(sample: FieldSample, theta=ANGLES) -> np.ndarray:
    """-det(Phi/dz) at z = r e^{i theta}: equals z, z^{-1} or residue^2 z^{-2} by case."""
    P = local_fields(sample, theta)[1]
    return -(P[..., 0, 0] * P[..., 1, 1] - P[..., 0, 1] * P[..., 1, 0])


def expected_quadratic_differential(case: LocalCase, z: np.ndarray) -> np.ndarray:
    kind = case.kind
    if kind is CaseKind.SIMPLE_ZERO:
        return z
    if kind is CaseKind.STRONG_POLE:
        return 1.0 / z
    return complex(case.residue) ** 2 / z**2


# ----------------------------------------------------------------------
# four-punctured sphere: the semiflat metric g_sf
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BasePoint:
    """A nonzero point B of the Hitchin base with its rescaled polar coordinates."""

    B: complex
    c_sk: float

    def __post_init__(self):
        if self.B == 0:
            raise ValueError("base point must be nonzero")

    @property
    def r(self) -> float:
        return self.c_sk * abs(self.B)

    @property
    def theta(self) -> float:
        return float(np.angle(self.B))


def semiflat_metric(base: BasePoint) -> np.ndarray:
    """Block-diagonal semiflat metric at a base point: a 4x4 array in (r, theta, x, y).

    Base block diag(1/r, r) (the flat cone of angle pi); fiber block the
    Euclidean metric dx^2 + dy^2 on C / c_fib(Z + tau Z), total area 2 pi^2.
    """
    r = base.r
    if r <= 0:
        raise ValueError("base point must have positive radius")
    return np.diag([1.0 / r, r, 1.0, 1.0])


def shortest_vectors(w1, w2):
    """Shortest nonzero vectors of the planar lattice Z w1 + Z w2.

    ``w1`` and ``w2`` are independent plane vectors written as complex
    numbers.  Lagrange-Gauss reduction on integer coordinates yields a
    basis (u, v) with |u| <= |v| and |2 u.v| <= |u|^2; every other lattice
    vector is at least sqrt(3) |u| long, so the shortest vectors lie
    among +-u, +-v, +-(u + v), +-(u - v).  Returns the shortest length and
    the sorted coordinates (m, n) of the vectors m w1 + n w2 within a
    relative 1e-9 of it (1 entry: a unique shortest geodesic), keeping the
    lexicographically smaller of each +- pair; the length is that of the
    first entry.
    """
    w1, w2 = complex(w1), complex(w2)
    if not (w1.conjugate() * w2).imag:
        raise ValueError("lattice generators must be linearly independent")

    def vec(mn):
        return mn[0] * w1 + mn[1] * w2

    u, v = (1, 0), (0, 1)
    if abs(w1) > abs(w2):
        u, v = v, u
    while True:
        uu = vec(u)
        q = round((vec(v) * uu.conjugate()).real / abs(uu) ** 2)
        v = (v[0] - q * u[0], v[1] - q * u[1])
        if abs(vec(v)) >= abs(uu):
            break
        u, v = v, u
    candidates = (u, v, (u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1]))
    lengths = {min(mn, (-mn[0], -mn[1])): abs(vec(mn)) for mn in candidates}
    best = min(lengths.values())
    reps = sorted(mn for mn, s in lengths.items() if s - best < 1e-9 * best)
    return lengths[reps[0]], reps


def tau_from_periods(p0: complex) -> complex:
    """Fundamental-domain modulus of the spectral torus from the contour ``toymodel.periods``."""
    om1, om2 = periods(p0)
    return reduce_to_fundamental_domain(om2 / om1)
