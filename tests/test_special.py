"""Special functions: Bessel K, theta constants, modular lambda, lattices."""

import cmath

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given
from hypothesis import strategies as st
from lambda_orbit import lambda_orbit

from hitchinlab.special import (
    ConvergenceError,
    bessel_k,
    damped_newton,
    inverse_lambda,
    jacobi_theta,
    modular_lambda,
    reduce_to_fundamental_domain,
)
from hitchinlab.oracles import shortest_vectors
from hitchinlab.toymodel import lambda_T


class TestBesselK:
    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        xs = np.geomspace(1e-3, 80.0, 80)
        with mp.workdps(30):
            for nu in (0, 1, 2):
                ref = [mp.besselk(nu, x) for x in xs]
                plain = np.array([float(k) for k in ref])
                scaled = np.array([float(k * mp.exp(x)) for k, x in zip(ref, xs)])
                assert np.max(np.abs(bessel_k(nu, xs) / plain - 1.0)) < 1e-14
                assert np.max(np.abs(bessel_k(nu, xs, scaled=True) / scaled - 1.0)) < 1e-14

    def test_integral_representation_oracle(self):
        # K1(1) by adaptive quadrature of int exp(-x cosh t) cosh t dt
        val, err = scipy.integrate.quad(
            lambda t: np.exp(-np.cosh(t)) * np.cosh(t), 0.0, 20.0, epsabs=1e-14
        )
        assert err < 1e-11
        assert val == pytest.approx(0.6019072301972346, abs=1e-12)
        assert bessel_k(1, 1.0) == pytest.approx(val, rel=1e-12)

    def test_asymptotic_tail(self):
        # the exact first correction is -1/(8x): 0.61% at x = 20, so the
        # sub-0.5% regime only starts around x = 25
        x = 20.0
        lead = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
        assert abs(bessel_k(0, x) - lead) / lead < 0.007
        x = 25.0
        lead = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
        assert abs(bessel_k(0, x) - lead) / lead < 0.005

    def test_recurrence_identity(self):
        for z in (0.5, 1.0, 5.0):
            lhs = bessel_k(0, z) - bessel_k(2, z) + (2.0 / z) * bessel_k(1, z)
            assert abs(lhs) < 1e-12 * bessel_k(0, z)

    def test_derivative_identity_fd(self):
        # z K1'(z) - K1(z) + z K2(z) = 0 with a finite-difference derivative
        for z in np.geomspace(0.1, 20.0, 25):
            h = 1e-6 * max(z, 1.0)
            d = (bessel_k(1, z + h) - bessel_k(1, z - h)) / (2 * h)
            resid = z * d - bessel_k(1, z) + z * bessel_k(2, z)
            assert abs(resid) < 1e-6

    def test_positive_decreasing(self):
        xs = np.geomspace(1e-3, 50, 200)
        for nu in (0, 1, 2):
            v = bessel_k(nu, xs)
            assert np.all(v > 0)
            assert np.all(np.diff(v) < 0)

    def test_scaled(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for x in (100.0, 300.0, 500.0):
                for nu in (0, 1, 2):
                    ref = float(mp.besselk(nu, x) * mp.exp(x))
                    assert bessel_k(nu, x, scaled=True) == pytest.approx(ref, rel=1e-14)
                ratio = float(mp.besselk(1, x) / mp.besselk(0, x))
                # the scaled ratio behind painleve's log-derivative g = -x K_1/K_0
                scaled = bessel_k(1, x, scaled=True) / bessel_k(0, x, scaled=True)
                assert scaled == pytest.approx(ratio, rel=1e-14)

    @given(
        nu=st.sampled_from([0, 1, 2]),
        xs=st.lists(st.floats(1e-8, 700.0), min_size=1, max_size=50),
    )
    @example(nu=0, xs=[1e-8, 697.9, 700.0])
    @example(nu=1, xs=[1e-8, 697.9, 700.0])
    @example(nu=2, xs=[1e-8, 697.9, 700.0])
    def test_orders_0_1_2_match_amos(self, nu, xs):
        # the Cephes k0/k1 route and e^-x kve(2, x) against the general-order
        # AMOS kv; above x ~ 697.9 kv flushes to 0 while e^-x kve(x) is still
        # a normal double, so that product is the reference there
        x = np.array(xs)
        ref = scipy.special.kv(nu, x)
        ref = np.where(ref > 0.0, ref, scipy.special.kve(nu, x) * np.exp(-x))
        assert np.max(np.abs(bessel_k(nu, x) / ref - 1.0)) < 1e-13
        assert np.max(np.abs(bessel_k(nu, x, scaled=True) / scipy.special.kve(nu, x) - 1.0)) < 1e-13

    @given(nu=st.sampled_from([0, 1]), x=st.floats(1e-8, 1e6))
    @example(nu=0, x=1e6)
    @example(nu=1, x=1e6)
    def test_scaled_orders_0_and_1_match_amos(self, nu, x):
        got = bessel_k(nu, x, scaled=True)
        assert type(got) is float
        assert got == pytest.approx(float(scipy.special.kve(nu, x)), rel=1e-13)
        assert type(bessel_k(nu, x)) is float

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k(0, -1.0)
        with pytest.raises(ValueError):
            bessel_k(0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(3, 1.0)


class TestTheta:
    def test_theta3_imaginary_axis_real_positive(self):
        v = jacobi_theta(3, 1j)
        assert abs(v.imag) < 1e-15
        assert v.real > 0

    def test_jacobi_identity(self):
        tau = 0.3 + 1.1j
        lhs = jacobi_theta(2, tau) ** 4 + jacobi_theta(4, tau) ** 4 - jacobi_theta(3, tau) ** 4
        assert abs(lhs) < 1e-12

    def test_jacobi_identity_vs_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        tau = 0.3 + 1.1j
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        for kind in (2, 3, 4):
            ref = complex(mp.jtheta(kind, 0, q))
            assert jacobi_theta(kind, tau) == pytest.approx(ref, rel=1e-13)

    def test_theta3_2i_series_oracle(self):
        # brute-force 50-term series at extended precision
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        q = mp.exp(-2 * mp.pi)
        ref = 1 + 2 * sum(q ** (n * n) for n in range(1, 51))
        assert jacobi_theta(3, 2j).real == pytest.approx(float(ref), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            jacobi_theta(3, 1.0 - 0.5j)


class TestModularLambda:
    def test_square_torus(self):
        assert abs(modular_lambda(1j) - 0.5) < 1e-10

    def test_hexagonal_point(self):
        tau = cmath.exp(1j * cmath.pi / 3)
        assert abs(modular_lambda(tau) - tau) < 1e-10

    def test_periodicity(self):
        tau = 0.21 + 1.3j
        assert abs(modular_lambda(tau + 2) - modular_lambda(tau)) < 1e-12

    def test_inverse_examples(self):
        assert abs(inverse_lambda(0.5) - 1j) < 1e-9
        corner = cmath.exp(1j * cmath.pi / 3)
        assert abs(inverse_lambda(corner) - corner) < 1e-9

    def test_inverse_round_trip_random(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 20:
            p0 = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            if min(abs(p0), abs(p0 - 1)) < 0.05:
                continue
            count += 1
            tau = inverse_lambda(p0)
            assert tau.imag > 0
            assert -0.5 - 1e-9 < tau.real <= 0.5 + 1e-9
            assert abs(tau) >= 1 - 1e-9
            defect = min(abs(modular_lambda(tau) - s) for s in lambda_orbit(p0))
            assert defect < 1e-9

    def test_inverse_rejects_degenerate(self):
        for p0 in (0.0, 1.0, complex("nan"), complex(0.3, float("inf"))):
            with pytest.raises(ValueError):
                inverse_lambda(p0)

    def test_reduction(self):
        tau = 0.3 + 0.4j
        red = reduce_to_fundamental_domain(tau)
        assert abs(red) >= 1 - 1e-12
        assert -0.5 < red.real <= 0.5 + 1e-12


def brute_force_shortest(w1, w2):
    """Shortest vectors of Z w1 + Z w2 by exhaustive search, as (length, reps).

    By Cramer's rule a vector m w1 + n w2 no longer than L = min(|w1|, |w2|)
    has |n| <= L |w1| / A and |m| <= L |w2| / A, A the cell area, so the
    search box always contains the shortest vectors.
    """
    w1, w2 = complex(w1), complex(w2)
    area = abs((w1.conjugate() * w2).imag)
    length = min(abs(w1), abs(w2))
    bound_m = int(np.ceil(length * abs(w2) / area))
    bound_n = int(np.ceil(length * abs(w1) / area))
    best = np.inf
    reps = []
    for m in range(-bound_m, bound_m + 1):
        for n in range(-bound_n, bound_n + 1):
            if m == 0 and n == 0:
                continue
            v = abs(m * w1 + n * w2)
            if v < best * (1 - 1e-9):
                best, reps = v, [(m, n)]
            elif abs(v - best) < 1e-9 * best:
                if (-m, -n) not in reps:
                    reps.append((m, n))
    return best, reps


class TestLattice:
    """``oracles.shortest_vectors``, the Lagrange-Gauss reference for ``toymodel.TorusLattice``, and tau validation."""

    def test_unit_square(self):
        assert shortest_vectors(1.0, 1j)[0] == pytest.approx(1.0)
        assert shortest_vectors(1.0, 2j)[0] == pytest.approx(1.0)

    def test_brute_force_radius_10(self):
        tau = 0.5 + 0.9j
        best = min(
            abs(m + n * tau)
            for m in range(-10, 11)
            for n in range(-10, 11)
            if (m, n) != (0, 0)
        )
        assert shortest_vectors(1.0, tau)[0] == pytest.approx(best, rel=1e-14)

    def test_modular_invariance(self):
        for tau in (0.3 + 1.2j, 1j, -0.4 + 0.8j):
            s = shortest_vectors(1.0, tau)[0]
            assert shortest_vectors(1.0, tau + 1)[0] == pytest.approx(s, rel=1e-12)
            assert shortest_vectors(1.0, -1.0 / tau)[0] * abs(tau) == pytest.approx(s, rel=1e-12)

    def test_multiplicity(self):
        assert shortest_vectors(1.0, 1j)[1] == [(-1, 0), (0, -1)]
        assert shortest_vectors(1.0, cmath.exp(1j * cmath.pi / 3))[1] == [(-1, 0), (-1, 1), (0, -1)]
        assert shortest_vectors(1.0, 1.3j)[1] == [(-1, 0)]

    def test_skewed_tau(self):
        # tau - 50 = 0.1j; a search box of fixed size around the origin misses it
        length, reps = shortest_vectors(1.0, 50 + 0.1j)
        assert length == pytest.approx(0.1, rel=1e-12)
        assert reps == [(-50, 1)]

    @given(
        st.floats(-20.0, 20.0),
        st.floats(0.1, 3.0),
        st.floats(0.2, 5.0),
        st.floats(0.0, 2.0 * np.pi),
    )
    @example(0.0, 1.0, 1.0, 0.0)
    @example(0.5, 3**0.5 / 2, 1.0, 0.0)
    @example(-0.5, 3**0.5 / 2, 2.0, 1.0)
    @example(10.0, 0.1, 1.0, 0.3)
    def test_matches_brute_force(self, re_tau, im_tau, scale, angle):
        w1 = scale * cmath.exp(1j * angle)
        w2 = w1 * complex(re_tau, im_tau)
        length, reps = shortest_vectors(w1, w2)
        ref_length, ref_reps = brute_force_shortest(w1, w2)
        assert length == pytest.approx(ref_length, rel=1e-12)
        assert reps == ref_reps

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError):
            shortest_vectors(1.0, 2.0)

    def test_halfplane_validation(self):
        # every function of tau rejects a tau off the upper half plane
        for tau in (1.0 - 1j, 2.0):
            for f in (modular_lambda, reduce_to_fundamental_domain, lambda_T):
                with pytest.raises(ValueError):
                    f(tau)


class TestDampedNewton:
    # F(x) = (x0^2 - 2, x1 - 1) with its exact Newton step
    @staticmethod
    def residual(x):
        res = np.array([x[0] ** 2 - 2.0, x[1] - 1.0])
        return res, np.max(np.abs(res))

    @staticmethod
    def newton(x, res):
        return -res / np.array([2.0 * x[0], 1.0])

    def test_stops_at_the_rounding_floor(self):
        # with scale 1e6 the floor 8 eps (1e6 |x| + sup) is about 1e-9, so a
        # first residual of 1e-10 stops at once although tol is 1e-20
        x0 = np.array([np.sqrt(2.0) + 5e-11, 1.0])
        _, sup = self.residual(x0)
        assert 1e-20 < sup < 1e-9

        def unreachable(x, res):
            raise AssertionError("stepped below the floor")

        assert damped_newton(x0, self.residual, unreachable, 1e-20, 20, scale=1e6) is x0
        with pytest.raises(AssertionError, match="floor"):
            damped_newton(x0, self.residual, unreachable, 1e-20, 20)

    def test_stall_raises(self):
        # a step that points uphill never lowers sup, whatever the damping
        def uphill(x, res):
            return -self.newton(x, res)

        with pytest.raises(ConvergenceError, match="stalled"):
            damped_newton(np.array([3.0, 0.0]), self.residual, uphill, 1e-12, 20)

    def test_rejects_non_finite_trials(self):
        # the first full steps land where the residual is NaN; the search
        # halves them instead, so every iterate a step starts from is finite
        nan_trials, iterates = [], []

        def residual(x):
            if x[0] > 2.5:
                nan_trials.append(x)
                return np.full(2, np.nan), np.nan
            return self.residual(x)

        def long_step(x, res):
            iterates.append(x)
            return 4.0 * self.newton(x, res)

        x = damped_newton(np.array([0.5, 0.0]), residual, long_step, 1e-12, 40)
        assert nan_trials and np.all(np.isfinite(iterates))
        assert np.max(np.abs(x - [np.sqrt(2.0), 1.0])) < 1e-12

    def test_max_iter_raises(self):
        with pytest.raises(ConvergenceError, match="did not reach"):
            damped_newton(np.array([3.0, 0.0]), self.residual, self.newton, 1e-12, 2)
