#!/usr/bin/env python3
"""Derived constants of the four-punctured-sphere moduli space.

For punctures {0, 1, p0, infinity} the Hitchin base is one complex line of
quadratic differentials B dz^2/(z(z-1)(z-p0)); everything below is a
function of p0: the base normalization c_sK, the spectral-torus modulus
tau (computed two independent ways), the fiber lattice scale, the smallest
torus eigenvalue, the shortest geodesic, and the BPS-weighted K0
correction predicted for the moduli-space metric.

Run:  python3 demos/toymodel_geometry.py
"""

import cmath
import warnings

import numpy as np

import hitchinlab.toymodel as toy
from hitchinlab.oracles import tau_from_periods

warnings.filterwarnings("ignore", category=toy.NonGenericTorusWarning)


def main():
    print("p0              c_sK        tau (from lambda)      tau (from periods)    lambda_T")
    for p0 in (0.5, 0.3, 0.3 + 0.1j, cmath.exp(1j * cmath.pi / 3)):
        cfg = toy.ToyConfig.from_p0(p0)
        tau_p = tau_from_periods(p0)
        print(
            f"{str(np.round(p0, 4)):14}  {cfg.c_sk:9.5f}  {str(np.round(cfg.tau, 8)):>20}"
            f"  {str(np.round(tau_p, 8)):>20}  {cfg.lambda_t:8.5f}"
        )

    cfg = toy.ToyConfig.from_p0(0.3)
    om1, om2 = toy.periods(0.3)
    area = abs(np.imag(np.conj(om1) * om2))
    print(f"\ncross-check at p0 = 0.3: 2 c_sK = {2*cfg.c_sk:.10f}")
    print(f"  spectral-torus lattice area   = {area:.10f}")
    print(f"  fiber area (always)           = {toy.fiber_area():.10f} = 2 pi^2")
    print(f"  c_fib^2 Im tau                = {cfg.c_fib**2*cfg.tau.imag:.10f}")
    print(f"  shortest geodesic M_B at B=1  = {toy.shortest_geodesic(cfg, 1.0):.6f}")
    print(f"  BPS indices Omega(n gamma)    = {[toy.bps_omega(n) for n in (1, 2, 3)]}")

    print("\npredicted metric correction on the Hitchin section (base block):")
    print("      r      coeff(dr^2)          ratio to previous")
    rs = np.geomspace(2.0, 64.0, 6)
    prev = None
    for r, c in zip(rs, toy.gmn_correction(cfg, rs)[:, 0, 0].tolist()):
        ratio = "" if prev is None else f"{c/prev:10.3e}"
        print(f"  {r:7.2f}  {c:+.6e}   {ratio}")
        prev = c
    print("(negative, K0-shaped: each doubling of r multiplies the decay rate by sqrt 2)")


if __name__ == "__main__":
    main()
