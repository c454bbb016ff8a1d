"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Residual norms are measured in the scale-invariant log-radial frame (the
radial operator multiplied by rho^2); the unweighted pointwise sup carries
an irreducible eps/h^2 double-precision rounding floor near the puncture
(about 1e-5 on these grids), so only the log-frame measure can meet the
stated tolerances in double precision.
"""

import cmath
import json
import time
import warnings

import numpy as np
import pytest
from lambda_orbit import lambda_orbit

import hitchinlab.toymodel as toy
from hitchinlab.cli import ExperimentConfig, run
from hitchinlab.fiducial import (
    CaseKind,
    LocalCase,
    fiducial_fields,
    hitchin_residual,
    polar_grid,
)
from hitchinlab.glue import decay_sweep, fit_exponential_decay
from hitchinlab.grids import fd_first, fd_second
from hitchinlab.lebrun import (
    TorusLattice,
    fit_decay,
    linear_mode_solution,
    section_profiles,
    solve_nonlinear,
)
from hitchinlab.oracles import shooting_solution, solve_mode_bvp, solve_mode_inhomogeneous
from hitchinlab.painleve import ParabolicWeights, ode_residual, solve_mtw
from hitchinlab.special import bessel_k, inverse_lambda, modular_lambda

warnings.filterwarnings("ignore", category=toy.NonGenericTorusWarning)


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {name} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def test_criterion_01_bessel_identities():
    t0 = time.time()
    zs = np.geomspace(0.1, 20.0, 50)
    worst_alg = 0.0
    worst_fd = 0.0
    for z in zs:
        k0, k1, k2 = bessel_k(0, z), bessel_k(1, z), bessel_k(2, z)
        worst_alg = max(worst_alg, abs(k0 - k2 + 2.0 / z * k1) / k0)
        h = 1e-6 * max(z, 1.0)
        d1 = (bessel_k(1, z + h) - bessel_k(1, z - h)) / (2 * h)
        worst_fd = max(worst_fd, abs(z * d1 - k1 + z * k2))
    ok = worst_alg < 1e-12 and worst_fd < 1e-6
    _report(1, "Bessel identities", ok, time.time() - t0, 1.0,
            f"alg={worst_alg:.2e} fd={worst_fd:.2e}")


def test_criterion_02_modular_lambda():
    t0 = time.time()
    ok1 = abs(modular_lambda(1j) - 0.5) < 1e-10
    corner = cmath.exp(1j * cmath.pi / 3)
    ok2 = abs(modular_lambda(corner) - corner) < 1e-10
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    while count < 20:
        p0 = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if min(abs(p0), abs(p0 - 1)) < 0.05:
            continue
        count += 1
        tau = inverse_lambda(p0).tau
        worst = max(worst, min(abs(modular_lambda(tau) - s) for s in lambda_orbit(p0)))
    ok = ok1 and ok2 and worst < 1e-9
    _report(2, "modular lambda and inversion", ok, time.time() - t0, 5.0,
            f"round-trip defect={worst:.2e}")


def test_criterion_03_mtw_solver():
    t0 = time.time()
    from scipy.interpolate import CubicSpline

    ok = True
    detail = []
    for sigma in (-1.0 / 3.0, 0.2, -0.2, 0.6, -0.6):
        p = solve_mtw(sigma, 0.05, 15.0, 1024, check_grid=False)
        res = ode_residual(p)
        sh = np.max(np.abs(shooting_solution(sigma, p.grid) - p.values))
        p2 = solve_mtw(sigma, 0.05, 15.0, 2047, check_grid=False)
        p4 = solve_mtw(sigma, 0.05, 15.0, 4093, check_grid=False)
        if sigma == 0.0:
            continue
        d1 = np.max(np.abs(CubicSpline(p2.grid, p2.values)(p.grid) - p.values))
        d2 = np.max(np.abs(CubicSpline(p4.grid, p4.values)(p2.grid) - p2.values))
        order = float(np.log2(d1 / d2))
        ok &= res < 1e-8 and sh < 1e-5 and (1.7 <= order <= 2.3)
        detail.append(f"s={sigma:+.2f}: res={res:.1e} shoot={sh:.1e} ord={order:.2f}")
    _report(3, "MTW solver", ok, time.time() - t0, 30.0, "; ".join(detail))


def test_criterion_04_fiducial_exactness():
    t0 = time.time()
    weak = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 0.5)
    grid = polar_grid()
    grid2 = polar_grid(n_r=2047)
    r_weak = hitchin_residual(fiducial_fields(weak, 4.0, grid), 4.0)
    ok = r_weak < 1e-10
    detail = [f"weak={r_weak:.1e}"]
    for name, case in (
        ("zero", LocalCase(CaseKind.SIMPLE_ZERO)),
        ("pole", LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.2, 0.8))),
    ):
        r1 = hitchin_residual(fiducial_fields(case, 4.0, grid), 4.0)
        r2 = hitchin_residual(fiducial_fields(case, 4.0, grid2), 4.0)
        order = float(np.log2(r1 / r2))
        ok &= r1 < 1e-5 and 1.7 <= order <= 2.3
        detail.append(f"{name}={r1:.1e} ord={order:.2f}")
    _report(4, "fiducial exactness", ok, time.time() - t0, 60.0, "; ".join(detail))


def test_criterion_05_glued_metric_decay():
    t0 = time.time()
    ts = [4, 6, 8, 10, 12, 14, 16]
    ok = True
    detail = []
    for name, case in (
        ("zero", LocalCase(CaseKind.SIMPLE_ZERO)),
        ("pole.2", LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.4, 0.6))),
        ("pole.6", LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.2, 0.8))),
    ):
        samples = decay_sweep(case, ts)
        vals = [e for _, e in samples]
        fit = fit_exponential_decay(samples)
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
        ok &= decreasing and fit.mu > 0 and fit.r2 > 0.99
        detail.append(f"{name}: mu={fit.mu:.2f} r2={fit.r2:.4f} dec={decreasing}")
    _report(5, "glued-metric exponential error", ok, time.time() - t0, 300.0, "; ".join(detail))


def test_criterion_06_csk_cross_validation():
    t0 = time.time()
    ok = True
    detail = []
    for p0 in (0.5, 0.3, 0.3 + 0.1j):
        c = toy.csk(p0)
        om1, om2 = toy.periods(p0)
        area = abs(np.imag(np.conj(om1) * om2))
        rel = abs(2.0 * c - area) / area
        sym = abs(c - toy.csk(1.0 - p0))
        ok &= rel < 1e-6 and sym < 1e-8
        detail.append(f"p0={p0}: period-rel={rel:.1e} sym={sym:.1e}")
    _report(6, "c_sK cross-validation", ok, time.time() - t0, 120.0, "; ".join(detail))


def test_criterion_07_torus_spectrum():
    t0 = time.time()
    ok = True
    detail = []
    for tau in (1j, 0.2 + 1.3j, cmath.exp(1j * cmath.pi / 3)):
        im = tau.imag
        c_fib = np.pi * np.sqrt(2.0 / im)
        basis = c_fib * np.array([[1.0, tau.real], [0.0, im]])
        dual = np.linalg.inv(basis).T
        best = min(
            float(np.linalg.norm(m * dual[:, 0] + n * dual[:, 1]))
            for m in range(-10, 11)
            for n in range(-10, 11)
            if (m, n) != (0, 0)
        )
        eig = (2.0 * np.pi * best) ** 2
        dev = abs(eig - 2.0 / im)
        area_dev = abs(c_fib**2 * im - 2.0 * np.pi**2)
        ok &= dev < 1e-12 and area_dev < 1e-12
        detail.append(f"tau={tau:.3g}: eig-dev={dev:.1e} area-dev={area_dev:.1e}")
    _report(7, "torus spectrum and fiber area", ok, time.time() - t0, 1.0, "; ".join(detail))


def test_criterion_08_lebrun_linear_modes():
    t0 = time.time()
    lattice = TorusLattice.from_tau(inverse_lambda(0.3).tau)
    mu0, reps = lattice.min_dual_norm()
    mu = lattice.mu_vector(*reps[0])
    rho = np.linspace(0.5, 3.0, 8001)
    phi = linear_mode_solution(mu, rho)
    res = (
        rho**2 * fd_second(rho, phi)
        + 3 * rho * fd_first(rho, phi)
        - 16 * np.pi**2 * mu0**2 * rho**2 * phi
    )
    rel = float(np.max(np.abs(res[2:-2]) / (16 * np.pi**2 * mu0**2 * rho[2:-2] ** 2 * phi[2:-2])))
    rho2 = np.linspace(0.5, 4.0, 2001)
    f = np.exp(-5.0 * rho2) * np.sin(rho2)
    v = solve_mode_inhomogeneous(mu, f, rho2)
    bvp = solve_mode_bvp(mu, f, rho2, bc_inner=v[0])
    agree = float(np.max(np.abs(bvp.real - v)))
    ok = rel < 1e-6 and agree < 1e-5
    _report(8, "reduced-equation linear modes", ok, time.time() - t0, 30.0,
            f"mode-residual={rel:.1e} vp-vs-bvp={agree:.1e}")


@pytest.fixture(scope="module")
def lebrun_solution():
    lattice = TorusLattice.from_tau(inverse_lambda(0.3).tau)
    mu0, reps = lattice.min_dual_norm()
    m, n = reps[0]
    sol = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 3, lattice)
    return sol, 2.0 * np.pi * mu0


def test_criterion_09_sharp_decay_rate(lebrun_solution):
    t0 = time.time()
    sol, lam = lebrun_solution
    rate, power = fit_decay(sol)
    rate_rel = abs(rate - 2.0 * lam) / (2.0 * lam)
    power_rel = abs(power + 1.5) / 1.5
    ok = rate_rel < 0.03 and power_rel < 0.10
    _report(9, "sharp decay rate", ok, time.time() - t0, 600.0,
            f"rate={rate:.4f} (2lamT={2*lam:.4f}, {100*rate_rel:.2f}%) power={power:.3f} ({100*power_rel:.1f}%)")


def test_criterion_10_rw_identity(lebrun_solution):
    t0 = time.time()
    sol, lam = lebrun_solution
    r00, rw, t00 = section_profiles(sol)
    resid = np.abs(rw - 1.0 + lam * bessel_k(0, 2.0 * lam * np.sqrt(r00)) * t00)
    live = resid > 1e-15
    x = np.sqrt(r00[live])
    y = np.log(resid[live])
    window = resid[live] <= 10.0 * resid[live][-1]
    A = np.column_stack([x[window], np.ones(int(window.sum()))])
    coef, *_ = np.linalg.lstsq(A, y[window], rcond=None)
    rate = float(-coef[0])
    ok = rate > 2.0 * lam
    _report(10, "rw identity remainder", ok, time.time() - t0, 120.0,
            f"remainder rate={rate:.3f} > 2lamT={2*lam:.3f}")


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    configs = [
        ("toymodel", {"p0": "0.3,0.1", "r_points": 10}),
        ("glue-decay", {"case": "strongpole", "alpha1": 0.2, "tmin": 4, "tmax": 10, "n_r": 2048}),
        ("fiducial", {"case": "weakpole", "alpha1": 0.3, "sigma": "0.5,0", "n_r": 64, "n_theta": 8}),
        ("lebrun", {"p0": "0.3,0", "amp": 0.1, "modes": 2, "rho_max": 3.0, "n_rho": 401}),
    ]
    ok = True
    for command, params in configs:
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub / command
            run(ExperimentConfig(command, dict(params), d))
            outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        same = outs[0].keys() == outs[1].keys() and all(
            outs[0][k] == outs[1][k] for k in outs[0]
        )
        ok &= same
    _report(11, "byte-identical artifacts", ok, time.time() - t0, 600.0)
