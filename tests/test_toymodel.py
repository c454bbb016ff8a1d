"""Four-punctured-sphere geometry: csk, periods, semiflat data, BPS indices."""

import cmath
import warnings

import numpy as np
import pytest
from csk_quadrature import csk_quadrature
from hypothesis import assume, example, given
from hypothesis import strategies as st
from lambda_orbit import lambda_orbit

import hitchinlab.toymodel as toy
from hitchinlab.special import (
    ConvergenceError,
    inverse_lambda,
    modular_lambda,
    reduce_to_fundamental_domain,
)
from hitchinlab.toymodel import (
    BasePoint,
    NonGenericTorusWarning,
    ToyConfig,
    bps_omega,
    csk,
    fiber_area,
    gmn_correction,
    lambda_T,
    periods,
    semiflat_metric,
    shortest_geodesic,
    tau_from_periods,
)


@pytest.fixture(scope="module")
def cfg_half():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonGenericTorusWarning)
        return ToyConfig.from_p0(0.5)


@pytest.fixture(scope="module")
def cfg_03():
    return ToyConfig.from_p0(0.3)


class TestCsk:
    def test_reflection_symmetry(self):
        # z -> 1 - z permutes the singular set
        assert abs(csk(0.3) - csk(0.7)) < 1e-8

    def test_period_area_oracle(self):
        # flat area of the spectral torus is twice the base integral
        for p0 in (0.5, 0.3 + 0.1j):
            om1, om2 = periods(p0)
            area = abs(np.imag(np.conj(om1) * om2))
            assert abs(2.0 * csk(p0) - area) / area < 1e-6

    def test_self_convergence(self):
        a = csk_quadrature(0.5, rel_tol=1e-9)
        b = csk_quadrature(0.5, rel_tol=2e-9)
        assert abs(a - b) < 1e-7

    def test_quadrature_oracle(self):
        # the 2-d quadrature accepts an error estimate of 50 rel_tol times the total
        for p0 in (0.5, 0.3 + 0.1j, 0.032 + 0.024j):
            assert abs(csk_quadrature(p0) - csk(p0)) / csk(p0) < 1e-7

    def test_wrong_orbit_member_fails_fast(self, monkeypatch):
        # a tau whose orbit does not contain p0 must raise, not return c_sK of another p0
        monkeypatch.setattr(toy, "inverse_lambda", lambda p0: inverse_lambda(0.3 + 0.2j))
        with pytest.raises(ConvergenceError):
            csk(0.3)

    def test_degenerate_rejection(self):
        with pytest.raises(ValueError):
            csk(1e-5)
        with pytest.raises(ValueError):
            csk(1.0 + 1e-9j)


class TestPeriods:
    def test_square_torus(self):
        tau = tau_from_periods(0.5)
        assert abs(tau - 1j) < 1e-6

    def test_orbit_round_trip(self):
        p0 = 0.3 + 0.1j
        tau = tau_from_periods(p0)
        defect = min(abs(modular_lambda(tau) - s) for s in lambda_orbit(p0))
        assert defect < 1e-8

    def test_cycle_swap_is_modular(self):
        om1, om2 = periods(0.35 + 0.2j)
        tau = reduce_to_fundamental_domain(om2 / om1)
        swapped = -om1 / om2 if (-om1 / om2).imag > 0 else om1 / om2
        assert abs(reduce_to_fundamental_domain(swapped) - tau) < 1e-9

    def test_agreement_with_lambda_inversion(self):
        for p0 in (0.5, cmath.exp(1j * cmath.pi / 3), 0.3, 0.3 + 0.1j):
            assert abs(tau_from_periods(p0) - inverse_lambda(p0).tau) < 1e-8

    def test_domain_edge(self):
        # |p0| <= 1e3 is the documented domain; beyond it the contour sums do
        # not settle within the doubling budget and the failure is typed
        for p0 in (1e3, -1e3, 1e3j, 1e3 * cmath.exp(0.7j)):
            om1, om2 = periods(p0)
            area = abs(np.imag(np.conj(om1) * om2))
            assert abs(2.0 * csk(p0) - area) / area < 1e-12
        for p0 in (2e3, -2e3, 2e3j, 2e3 * cmath.exp(0.7j)):
            with pytest.raises(ConvergenceError):
                periods(p0)

    def test_closure_retry_near_collision(self):
        # at n = 256 the branch tracking fails to close around the {0, p0} cycle
        p0 = 1e-3 + 1.1e-3j
        om1, om2 = periods(p0)
        area = abs(np.imag(np.conj(om1) * om2))
        assert abs(2.0 * csk(p0) - area) / area < 1e-12


def _accepted(p0):
    return min(abs(p0), abs(p0 - 1.0)) >= 1e-3


# p0 the validator accepts: a box around the punctures 0 and 1, and the
# annuli 1e-3 <= |p0 - a| <= 0.05 at its edge, which a box draw rarely hits
_ACCEPTED_P0 = st.one_of(
    st.builds(complex, st.floats(-3.0, 4.0), st.floats(-3.0, 3.0)),
    st.builds(
        lambda a, d, phase: a + d * cmath.exp(1j * phase),
        st.sampled_from([0.0, 1.0]),
        st.floats(1e-3, 0.05),
        st.floats(0.0, 2.0 * np.pi),
    ),
).filter(_accepted)


def _rel(a, b):
    return abs(a - b) / abs(b)


class TestCskProperties:
    @given(_ACCEPTED_P0)
    @example(1e-3 + 1.1e-3j)
    @example(1e-3)
    @example(0.998)
    def test_reflection(self, p0):
        assume(_accepted(1.0 - p0))  # rounding can move 1 - p0 just inside 1e-3
        assert _rel(csk(1.0 - p0), csk(p0)) < 1e-12

    @given(_ACCEPTED_P0)
    @example(1e-3)
    @example(-1e-3j)
    def test_inversion(self, p0):
        assume(_accepted(1.0 / p0))  # |1/p0 - 1| = |p0 - 1| / |p0|
        assert _rel(csk(1.0 / p0), abs(p0) * csk(p0)) < 1e-12

    @given(_ACCEPTED_P0)
    def test_conjugation(self, p0):
        assert _rel(csk(p0.conjugate()), csk(p0)) < 1e-12

    @given(_ACCEPTED_P0)
    @example(0.002)
    def test_period_area(self, p0):
        om1, om2 = periods(p0)
        area = abs(np.imag(np.conj(om1) * om2))
        assert _rel(2.0 * csk(p0), area) < 1e-12

    @given(_ACCEPTED_P0)
    def test_lifted_tau(self, p0):
        t = inverse_lambda(p0).tau
        tau = toy._lifted_tau(t, p0)
        assert abs(modular_lambda(tau) - p0) < 1e-9
        assert abs(reduce_to_fundamental_domain(tau) - t) < 1e-9


class TestToyConfig:
    def test_invariants(self, cfg_03):
        im = cfg_03.tau.tau.imag
        assert cfg_03.c_fib == pytest.approx(np.pi * np.sqrt(2.0 / im), rel=1e-14)
        assert cfg_03.lambda_t == pytest.approx(np.sqrt(2.0 / im), rel=1e-14)
        defect = min(abs(modular_lambda(cfg_03.tau.tau) - s) for s in lambda_orbit(0.3))
        assert defect < 1e-9
        assert cfg_03.lambda_t**2 * im == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("p0", [0.002, 0.998, 1e-3 + 1.1e-3j, 1e6])
    def test_edge_of_accepted_domain(self, p0):
        cfg = ToyConfig.from_p0(p0)
        assert cfg.c_sk == csk(p0)
        assert min(abs(modular_lambda(cfg.tau.tau) - s) for s in lambda_orbit(p0)) < 1e-12

    def test_inverts_lambda_once(self, monkeypatch):
        calls = []

        def counting(p0):
            calls.append(p0)
            return inverse_lambda(p0)

        monkeypatch.setattr(toy, "inverse_lambda", counting)
        ToyConfig.from_p0(0.3)
        assert len(calls) == 1

    def test_non_generic_warning(self):
        with pytest.warns(NonGenericTorusWarning):
            ToyConfig.from_p0(0.5)

    def test_generic_no_warning(self, cfg_03):
        # fixture creation already passed without warning; double check here
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonGenericTorusWarning)
            ToyConfig.from_p0(0.3)


class TestSemiflatData:
    def test_base_metric_p0_independent(self, cfg_half, cfg_03):
        # the special Kahler norm c_sK |Bdot|^2 / |B| of a radial variation
        # is |rdot|^2 / r, the base block of the semiflat metric in the
        # rescaled coordinate r = c_sK |B|, for every p0
        for cfg in (cfg_half, cfg_03):
            B, Bdot = 1.3 + 0.4j, 0.7 - 0.2j
            # radial part of the variation: rdot = c_sK Re(conj(B) Bdot)/|B|
            rdot = cfg.c_sk * (np.conj(B) * Bdot).real / abs(B)
            radial_Bdot = (np.conj(B) * Bdot).real / abs(B) * B / abs(B)
            norm = cfg.c_sk * abs(radial_Bdot) ** 2 / abs(B)
            g = semiflat_metric(cfg, BasePoint(B, cfg.c_sk)).g
            assert norm / (g[0, 0] * rdot**2) == pytest.approx(1.0, rel=1e-12)

    def test_fiber_area_identities(self, cfg_03):
        assert fiber_area() == pytest.approx(2.0 * np.pi**2, rel=1e-15)
        im = cfg_03.tau.tau.imag
        assert (im) * (np.pi / im) ** 2 * (2.0 * im) == pytest.approx(2.0 * np.pi**2)
        # lattice-area oracle
        basis = cfg_03.c_fib * np.array([[1.0, cfg_03.tau.tau.real], [0.0, im]])
        assert abs(np.linalg.det(basis)) == pytest.approx(2.0 * np.pi**2, rel=1e-14)

    def test_lambda_T(self):
        assert lambda_T(1j) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        for tau in (1j, 0.2 + 1.3j):
            c_fib = np.pi * np.sqrt(2.0 / tau.imag)
            basis = c_fib * np.array([[1.0, tau.real], [0.0, tau.imag]])
            dual = np.linalg.inv(basis).T
            best = min(
                np.linalg.norm(m * dual[:, 0] + n * dual[:, 1])
                for m in range(-10, 11)
                for n in range(-10, 11)
                if (m, n) != (0, 0)
            )
            assert 2.0 * np.pi * best == pytest.approx(lambda_T(tau), rel=1e-12)

    def test_laplacian_scaling(self):
        # scaling the lattice by s scales the eigenvalue root by 1/s
        tau = 0.2 + 1.3j
        c_fib = np.pi * np.sqrt(2.0 / tau.imag)
        for s in (2.0, 0.5):
            basis = s * c_fib * np.array([[1.0, tau.real], [0.0, tau.imag]])
            dual = np.linalg.inv(basis).T
            best = min(
                np.linalg.norm(m * dual[:, 0] + n * dual[:, 1])
                for m in range(-6, 7)
                for n in range(-6, 7)
                if (m, n) != (0, 0)
            )
            assert 2.0 * np.pi * best == pytest.approx(lambda_T(tau) / s, rel=1e-12)

    def test_shortest_geodesic(self, cfg_half):
        assert shortest_geodesic(cfg_half, 1.0) == pytest.approx(np.sqrt(2.0 * cfg_half.c_sk))
        m1 = shortest_geodesic(cfg_half, 1.0)
        for t in (2.0, 3.0):
            assert shortest_geodesic(cfg_half, t**2 * 1.0) == pytest.approx(t * m1)
        M = shortest_geodesic(cfg_half, 2.7)
        im = cfg_half.tau.tau.imag
        assert M**2 * im / (2.0 * cfg_half.c_sk) == pytest.approx(2.7)

    def test_bps(self):
        assert bps_omega(1) == 8
        assert bps_omega(2) == -2
        assert bps_omega(5) == 0
        with pytest.raises(ValueError):
            bps_omega(0)

    def test_gmn_correction(self, cfg_03):
        from hitchinlab.special import bessel_k

        for r in (0.5, 3.0, 20.0):
            block = gmn_correction(cfg_03, r)
            assert block.g[0, 0] < 0
            assert block.g[1, 1] == pytest.approx(block.g[0, 0] * r**2, rel=1e-14)
        # ratio between r and 4r follows the K0 asymptotics
        im = cfg_03.tau.tau.imag
        for r in (10.0, 25.0):
            got = gmn_correction(cfg_03, 4 * r).g[0, 0] / gmn_correction(cfg_03, r).g[0, 0]
            x1 = 2 * np.sqrt(2 * r / im)
            x2 = 2 * np.sqrt(2 * 4 * r / im)
            expect = (np.sqrt(x1 / x2) * np.exp(-(x2 - x1))) / 4.0
            assert got == pytest.approx(expect, rel=0.02)

    def test_semiflat_metric(self, cfg_half):
        base = BasePoint(1.0 / cfg_half.c_sk, cfg_half.c_sk)
        g = semiflat_metric(cfg_half, base)
        assert np.allclose(np.diag(g.g), [1.0, 1.0, 1.0, 1.0])
        for B in (0.3, 2.0, 1.0 + 1.0j):
            bp = BasePoint(B, cfg_half.c_sk)
            gg = semiflat_metric(cfg_half, bp)
            assert np.linalg.det(gg.g[:2, :2]) == pytest.approx(1.0, rel=1e-12)
            assert np.linalg.eigvalsh(gg.g).min() > 0
