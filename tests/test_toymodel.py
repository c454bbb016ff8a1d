"""Four-punctured-sphere geometry: csk, periods, semiflat data, BPS indices."""

import cmath
import warnings

import numpy as np
import pytest
from csk_quadrature import csk_quadrature
from hypothesis import assume, example, given
from hypothesis import strategies as st
from lambda_orbit import lambda_orbit

import hitchinlab.special as special
import hitchinlab.toymodel as toy
from hitchinlab.special import (
    ConvergenceError,
    inverse_lambda,
    modular_lambda,
    reduce_to_fundamental_domain,
)
from hitchinlab.oracles import BasePoint, semiflat_metric, shortest_vectors, tau_from_periods
from hitchinlab.toymodel import (
    NonGenericTorusWarning,
    TorusLattice,
    ToyConfig,
    bps_omega,
    csk,
    fiber_area,
    gmn_correction,
    lambda_T,
    periods,
    shortest_geodesic,
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

    def test_degenerate_rejection(self):
        for p0 in (1e-5, 1.0 + 1e-9j, complex("nan"), complex(0.3, float("inf")), float("inf")):
            with pytest.raises(ValueError):
                csk(p0)
            with pytest.raises(ValueError):
                ToyConfig.from_p0(p0)

    @pytest.mark.parametrize("p0", [0.3, 0.3 + 0.1j, 1.024 - 0.032j])
    def test_production_path_reads_no_theta_series(self, monkeypatch, p0):
        # the theta constants and lambda(tau) are only the reference for the AGM
        def unreachable(*args, **kwargs):
            raise AssertionError("theta series evaluated on the production path")

        for module in (special, toy):
            for name in ("jacobi_theta", "modular_lambda"):
                monkeypatch.setattr(module, name, unreachable, raising=False)
        tau = special.inverse_lambda(p0)
        cfg = ToyConfig.from_p0(p0)
        assert cfg.tau == tau
        assert cfg.c_sk == csk(p0)


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
            assert abs(tau_from_periods(p0) - inverse_lambda(p0)) < 1e-8

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
    @example(1e20)
    @example(1e300)
    @example(-1e300)
    @example(1e300j)
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
    @example(1e20)
    @example(1e300)
    @example(-1e300)
    @example(1e300j)
    def test_conjugation(self, p0):
        assert _rel(csk(p0.conjugate()), csk(p0)) < 1e-12

    @given(_ACCEPTED_P0)
    @example(0.002)
    def test_period_area(self, p0):
        om1, om2 = periods(p0)
        area = abs(np.imag(np.conj(om1) * om2))
        assert _rel(2.0 * csk(p0), area) < 1e-12

    @given(_ACCEPTED_P0)
    def test_shortest_geodesic_is_shortest_period(self, p0):
        # M_B at |B| = 1 from c_sK and tau against the contour-integral lattice
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericTorusWarning)
            cfg = ToyConfig.from_p0(p0)
        assert _rel(shortest_geodesic(cfg, 1.0), shortest_vectors(*periods(p0))[0]) < 1e-12


class TestLambdaInversion:
    @given(_ACCEPTED_P0)
    @example(1e6)
    @example(1e8)
    @example(2 + 1e-12j)
    @example(2 - 1e-12j)
    @example(-1 + 1e-12j)
    @example(-1 - 1e-12j)
    def test_agm_modulus(self, p0):
        # the closed form itself, before reduction, has lambda = p0
        tau = 1j * special._agm(1.0, cmath.sqrt(1.0 - p0)) / special._agm(1.0, cmath.sqrt(p0))
        assert tau.imag > 0
        assert _rel(modular_lambda(tau), p0) < 1e-12
        t = inverse_lambda(p0)
        assert t.imag > 0 and abs(t) >= 1.0 - 1e-12
        assert -0.5 < t.real <= 0.5

    def test_agm_iteration_cap(self):
        with pytest.raises(ConvergenceError):
            special._agm(1.0, float("nan"))

    @pytest.mark.parametrize(
        "p0, tau, c_sk",
        [
            (0.3, 1.2109084033966055j, 28.455543829736126),
            (0.032 + 0.024j, 0.2087541161226742 + 1.9020213913887682j, 38.153553399256765),
            (1.024 - 0.032j, -0.29017269664847467 + 1.910988855144203j, 37.26809839839657),
        ],
    )
    def test_pinned_constants(self, p0, tau, c_sk):
        # tau and c_sK bit for bit at the benchmark's three fixed points; the
        # criterion-9 figures rest on the values at 0.3
        cfg = ToyConfig.from_p0(p0)
        assert cfg.tau == tau
        assert cfg.c_sk == c_sk


class TestToyConfig:
    def test_invariants(self, cfg_03):
        im = cfg_03.tau.imag
        assert cfg_03.c_fib == pytest.approx(np.pi * np.sqrt(2.0 / im), rel=1e-14)
        assert cfg_03.lambda_t == pytest.approx(np.sqrt(2.0 / im), rel=1e-14)
        defect = min(abs(modular_lambda(cfg_03.tau) - s) for s in lambda_orbit(0.3))
        assert defect < 1e-9
        assert cfg_03.lambda_t**2 * im == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("p0", [0.002, 0.998, 1e-3 + 1.1e-3j, 1e6, 1e20, 1e300, -1e300, 1e300j])
    def test_edge_of_accepted_domain(self, p0):
        cfg = ToyConfig.from_p0(p0)
        assert cfg.c_sk == csk(p0)
        assert min(abs(modular_lambda(cfg.tau) - s) for s in lambda_orbit(p0)) < 1e-12

    def test_inverts_lambda_once(self, monkeypatch):
        # tau and c_sK share one pair of arithmetic-geometric means
        calls = []
        agm = special._agm

        def counting(a, b):
            calls.append((a, b))
            return agm(a, b)

        monkeypatch.setattr(special, "_agm", counting)
        ToyConfig.from_p0(0.3)
        assert len(calls) == 2

    def test_non_generic_warning(self):
        with pytest.warns(NonGenericTorusWarning):
            ToyConfig.from_p0(0.5)

    def test_generic_no_warning(self, cfg_03):
        # fixture creation already passed without warning; double check here
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonGenericTorusWarning)
            ToyConfig.from_p0(0.3)


# tau over the fundamental domain |Re tau| <= 1/2, |tau| >= 1: the interior,
# the arc |tau| = 1, the edges Re tau = +-1/2, and what the reduction makes
# of any tau in the upper half plane
_REDUCED_TAU = st.one_of(
    st.builds(
        lambda x, h: complex(x, np.sqrt(1.0 - x * x) + h), st.floats(-0.5, 0.5), st.floats(0.0, 20.0)
    ),
    st.builds(lambda x: complex(x, np.sqrt(1.0 - x * x)), st.floats(-0.5, 0.5)),
    st.builds(lambda s, y: complex(s, y), st.sampled_from([-0.5, 0.5]), st.floats(3**0.5 / 2, 20.0)),
    st.builds(
        lambda x, y: reduce_to_fundamental_domain(complex(x, y)), st.floats(-20.0, 20.0), st.floats(1e-3, 20.0)
    ),
)


class TestTorusLattice:
    @given(_REDUCED_TAU)
    @example(1j)
    @example(cmath.exp(1j * cmath.pi / 3))
    @example(cmath.exp(2j * cmath.pi / 3))
    @example(complex(0.5, 20.0))
    def test_min_dual_norm_is_the_lattice_search(self, tau):
        # the closed-form shell equals Lagrange-Gauss reduction of the dual
        # basis bit for bit, in the length and the modes; degenerate shells
        # warn; the closed-form dual basis is numpy's inverse bit for bit
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            torus = TorusLattice.from_tau(tau)
        d = torus.dual_basis
        assert np.array_equal(d, np.linalg.inv(torus.basis).T)
        ref = shortest_vectors(complex(d[0, 0], d[1, 0]), complex(d[0, 1], d[1, 1]))
        assert torus.min_dual_norm() == ref
        assert [w.category for w in caught] == [NonGenericTorusWarning] * (len(ref[1]) > 1)
        # the length is that of the first mode, within the 1e-9 tie rule of (0, 1)'s
        assert 2.0 * np.pi * ref[0] == pytest.approx(torus.lambda_t, rel=1e-9)

    def test_unreduced_tau_rejected(self):
        # lambda_T = sqrt(2/Im tau) holds on the fundamental domain only:
        # at 0.1j it would read 4.472 for the true 2 pi |mu_0| = 0.4472
        for tau in (0.1j, 0.1 + 0.5j, 10 + 0.1j, 0.5 + 1e-9 + 1j, 0.3 + 0.9j):
            for f in (lambda_T, TorusLattice.from_tau):
                with pytest.raises(ValueError, match="reduce_to_fundamental_domain"):
                    f(tau)
        # within 1e-12 of the domain is in it, and of the arc is on it
        assert TorusLattice.from_tau(0.5 + 0.5e-12 + 2j).lambda_t == lambda_T(0.5 + 0.5e-12 + 2j)
        with pytest.warns(NonGenericTorusWarning):
            TorusLattice.from_tau(complex(0.3, np.sqrt(0.91) - 1e-13))


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
            g = semiflat_metric(BasePoint(B, cfg.c_sk))
            assert norm / (g[0, 0] * rdot**2) == pytest.approx(1.0, rel=1e-12)

    def test_fiber_area_identities(self, cfg_03):
        assert fiber_area() == pytest.approx(2.0 * np.pi**2, rel=1e-15)
        im = cfg_03.tau.imag
        assert (im) * (np.pi / im) ** 2 * (2.0 * im) == pytest.approx(2.0 * np.pi**2)
        # lattice-area oracle
        basis = cfg_03.c_fib * np.array([[1.0, cfg_03.tau.real], [0.0, im]])
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
        im = cfg_half.tau.imag
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
            assert block[0, 0] < 0
            assert block[1, 1] == pytest.approx(block[0, 0] * r**2, rel=1e-14)
        # ratio between r and 4r follows the K0 asymptotics
        im = cfg_03.tau.imag
        for r in (10.0, 25.0):
            got = gmn_correction(cfg_03, 4 * r)[0, 0] / gmn_correction(cfg_03, r)[0, 0]
            x1 = 2 * np.sqrt(2 * r / im)
            x2 = 2 * np.sqrt(2 * 4 * r / im)
            expect = (np.sqrt(x1 / x2) * np.exp(-(x2 - x1))) / 4.0
            assert got == pytest.approx(expect, rel=0.02)

    @given(_ACCEPTED_P0, st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=12))
    @example(0.3, [1e-3, 1.0, 1e4])
    @example(1e-3, [1e4])
    @example(1e300j, [1e-3, 1e4])
    def test_gmn_correction_array(self, p0, rs):
        # one array call is the scalar calls, block for block and bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericTorusWarning)
            cfg = ToyConfig.from_p0(p0)
        r = np.array(rs)
        g = gmn_correction(cfg, r)
        assert g.shape == (len(rs), 2, 2)
        for i, ri in enumerate(rs):
            block = gmn_correction(cfg, ri)
            assert block.shape == (2, 2)
            assert block.tobytes() == g[i].tobytes()
        assert np.array_equal(g[..., 1, 1], g[..., 0, 0] * (r * r))
        assert np.all(g[..., 0, 1] == 0.0) and np.all(g[..., 1, 0] == 0.0)
        assert gmn_correction(cfg, r.reshape(-1, 1)).shape == (len(rs), 1, 2, 2)

    @given(
        st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=12),
        st.sampled_from([0.0, -0.0, -1.0, -np.inf, np.inf, np.nan]),
        st.integers(0, 11),
    )
    def test_gmn_correction_rejects_bad_r(self, cfg_03, rs, bad, i):
        r = np.array(rs)
        r[i % len(r)] = bad
        with pytest.raises(ValueError, match="r must be positive and finite"):
            gmn_correction(cfg_03, r)
        with pytest.raises(ValueError, match="r must be positive and finite"):
            gmn_correction(cfg_03, bad)

    def test_semiflat_metric(self, cfg_half):
        base = BasePoint(1.0 / cfg_half.c_sk, cfg_half.c_sk)
        g = semiflat_metric(base)
        assert np.allclose(np.diag(g), [1.0, 1.0, 1.0, 1.0])
        for B in (0.3, 2.0, 1.0 + 1.0j):
            bp = BasePoint(B, cfg_half.c_sk)
            gg = semiflat_metric(bp)
            assert np.linalg.det(gg[:2, :2]) == pytest.approx(1.0, rel=1e-12)
            assert np.linalg.eigvalsh(gg).min() > 0
