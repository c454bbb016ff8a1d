#!/usr/bin/env python3
"""Walk through the radial sinh-Gordon family and the two fiducial profiles.

The one-parameter family m_sigma solves m'' + m'/rho = (1/2) sinh(2m) with
log slope sigma at the origin and a K0-shaped tail.  The profile that
desingularizes a simple zero of the quadratic differential is the member
sigma = -1/3 after s = (8/3) t r^{3/2}; a simple pole uses
sigma = 1 + 2(alpha1 - alpha2) after rho = 8 t sqrt(r).

Run:  python3 demos/painleve_profiles.py
"""

import numpy as np

from hitchinlab.oracles import shooting_solution
from hitchinlab.painleve import ParabolicWeights, ell_profile, m_profile, solve_mtw
from hitchinlab.special import bessel_k


def main():
    print("=== the universal family, a few slopes ===")
    rho = np.geomspace(1e-3, 15.0, 1024)
    for sigma in (-1 / 3, -0.2, 0.6):
        m, _ = solve_mtw(sigma, rho)
        tail = m[rho >= 10] / bessel_k(0, rho[rho >= 10])
        sh = shooting_solution(sigma, rho)
        print(
            f"sigma={sigma:+.3f}: tail amplitude m/K0 = {tail.mean():+.6f}  "
            f"shooting diff = {np.max(np.abs(sh - m)):.1e} "
            f"(relative {np.max(np.abs(m / sh - 1.0)):.1e})"
        )
    print(f"(for sigma = -1/3 the tail amplitude is 1/pi = {1/np.pi:.6f})")

    print("\n=== simple-zero profile ell_t ===")
    r = np.geomspace(1e-3, 1.0, 800)
    for t in (4.0, 8.0):
        ell, _ = ell_profile(t, r)
        print(
            f"t={t:4.1f}: ell(r_min)+log(r_min)/2 = {ell[0] + 0.5*np.log(r[0]):+.4f}"
            f"   ell(1) = {ell[-1]:.3e}"
        )
    lam = 2.0 ** (2.0 / 3.0)
    a, b = ell_profile(4.0, r)[0], ell_profile(8.0, r / lam)[0]
    print(f"t-doubling covariance ell_2t(r) = ell_t(2^(2/3) r): sup diff = "
          f"{np.max(np.abs(a - b)):.1e}")

    print("\n=== simple-pole profile m_t ===")
    w = ParabolicWeights(0.2, 0.8)
    deep = np.geomspace(1e-8, 1.0, 1200)
    m, _ = m_profile(1.0, w, deep)
    slope = (m[1] - m[0]) / np.diff(np.log(deep[:2]))[0]
    print(f"weights (0.2, 0.8): near-zero log slope = {slope:+.4f} "
          f"(expected 1/2 + a1 - a2 = {0.5 + w.difference:+.4f})")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(6, 4))
        ax.loglog(rho, solve_mtw(-1 / 3, rho)[0], label="m (sigma = -1/3)")
        ax.loglog(rho, bessel_k(0, rho) / np.pi, "--", label="K0/pi tail")
        ax.set_xlabel("rho")
        ax.legend()
        fig.tight_layout()
        fig.savefig("painleve_profiles.png", dpi=120)
        print("\nwrote painleve_profiles.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
