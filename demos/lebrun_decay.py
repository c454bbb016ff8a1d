#!/usr/bin/env python3
"""The sharp decay law of the circle-invariant reduction.

Any exponentially decaying deviation from the semiflat potential on
T^2 x R+ is dominated at infinity by the shortest dual-lattice shell,
with the universal envelope rhat^{-3/4} exp(-2 lambda_T sqrt(rhat)).
This script solves the nonlinear reduced equation for a seeded torus mode,
fits the realized rate against 2 lambda_T, and verifies the rw identity:
r w = 1 - lambda_T K0(2 lambda_T sqrt(r)) T + (faster).

Run:  python3 demos/lebrun_decay.py
"""

import warnings

import numpy as np

import hitchinlab.toymodel as toy
from hitchinlab.lebrun import TorusLattice, fit_decay, solve_nonlinear
from hitchinlab.oracles import section_profiles
from hitchinlab.special import bessel_k, inverse_lambda

warnings.filterwarnings("ignore", category=toy.NonGenericTorusWarning)


def main():
    p0 = 0.3
    tau = inverse_lambda(p0)
    lattice = TorusLattice.from_tau(tau)
    lam = lattice.lambda_t
    reps = lattice.min_dual_norm()[1]
    m, n = reps[0]
    print(f"p0 = {p0}: tau = {tau:.6f}, lambda_T = {lam:.6f}, mu0 modes = {reps}")

    for amp in (0.05, 0.1, 0.2):
        sol = solve_nonlinear({(m, n): amp / 2, (-m, -n): amp / 2}, None, 3, lattice)
        rate, power = fit_decay(sol)
        print(
            f"amp = {amp:4.2f}: fitted rate = {rate:.5f} "
            f"({100*abs(rate-2*lam)/(2*lam):.2f}% from 2 lambda_T = {2*lam:.5f}), "
            f"prefactor power = {power:+.3f} (prediction -3/2)"
        )

    sol = solve_nonlinear({(m, n): 0.05, (-m, -n): 0.05}, None, 3, lattice)
    r, rw, t00 = section_profiles(sol)
    resid = rw - 1.0 + lam * bessel_k(0, 2 * lam * np.sqrt(r)) * t00
    print(f"\nrw identity on the section (T(0,0) = {t00:+.5f}):")
    print("   sqrt(r)    rw - 1           lam K0 T        remainder")
    for i in np.linspace(len(r) * 0.3, len(r) - 1, 6).astype(int):
        print(
            f"  {np.sqrt(r[i]):7.3f}  {rw[i]-1:+.6e}  "
            f"{-lam*bessel_k(0, 2*lam*np.sqrt(r[i]))*t00:+.6e}  {resid[i]:+.2e}"
        )
    print("(the remainder column dies faster than the matched K0 column)")


if __name__ == "__main__":
    main()
