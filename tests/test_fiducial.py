"""Local model fields and their diagnostics."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hitchinlab import painleve
from hitchinlab.fiducial import (
    CaseKind,
    FieldSample,
    LocalCase,
    assemble_fields,
    fiducial_fields,
    hitchin_residual,
    indicial_roots,
    mphi_eigenvalues,
    polar_grid,
)
from hitchinlab.glue import approx_metric
from hitchinlab.oracles import (
    ANGLES,
    expected_quadratic_differential,
    local_fields,
    matrix_residual,
    quadratic_differential,
)
from hitchinlab.painleve import ParabolicWeights, ell_profile, m_profile

ZERO = LocalCase(CaseKind.SIMPLE_ZERO)
POLE = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.25, 0.75))
POLE2 = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.2, 0.8))
WEAK = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 0.5)


def _points(r, theta=ANGLES):
    """z = r e^{i theta} on the (r, theta) grid that ``local_fields`` samples."""
    return r[:, None] * np.exp(1j * theta[None, :])


def _sample_from(doc) -> FieldSample:
    """The sample built from a decoded ``FieldSample.to_json`` document alone."""
    c, grid = doc["case"], doc["grid"]
    weights = None if c["weights"] is None else ParabolicWeights(*c["weights"])
    case = LocalCase(CaseKind(c["kind"]), weights, None if c["residue"] is None else complex(*c["residue"]))
    return FieldSample(np.asarray(grid["r"]), case, doc["t"], np.asarray(doc["xi"]), np.asarray(doc["dxi"]))


def _no_solve(*args):
    raise AssertionError("a profile was solved")


@pytest.fixture(scope="module")
def grid():
    return polar_grid(n_r=1024)


@pytest.fixture(scope="module")
def zero_sample(grid):
    return fiducial_fields(ZERO, 4.0, grid)


@pytest.fixture(scope="module")
def pole_sample(grid):
    return fiducial_fields(POLE2, 4.0, grid)


@pytest.fixture(scope="module")
def weak_sample(grid):
    return fiducial_fields(WEAK, 4.0, grid)


class TestLocalCase:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalCase(CaseKind.STRONG_POLE)
        with pytest.raises(ValueError):
            LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 0.0)
        with pytest.raises(ValueError):
            LocalCase(CaseKind.SIMPLE_ZERO, residue=1.0)


class TestFFunctions:
    # F(r) = (1/4)(c + r xi') of the assembled fields, at the ends of the grid
    def test_f_zero_limits(self):
        g = polar_grid(1e-6, 1.0, 900)
        f = fiducial_fields(ZERO, 6.0, g).f_values
        assert abs(f[0]) < 5e-3  # r ell' -> -1/2
        assert f[-1] == pytest.approx(0.125, abs=np.exp(-6.0))
        flat = np.zeros_like(g)
        assert np.all(assemble_fields(ZERO, 6.0, g, flat, flat).f_values == 0.125)

    def test_f_pole_limits(self):
        g = polar_grid(1e-8, 1.0, 1100)
        f = fiducial_fields(POLE2, 2.0, g).f_values
        assert f[0] == pytest.approx(POLE2.weights.difference / 4.0, abs=2e-3)
        assert f[-1] == pytest.approx(-0.125, abs=np.exp(-2.0 * 8.0) + 1e-6)
        flat = np.zeros_like(g)
        assert np.all(assemble_fields(POLE2, 2.0, g, flat, flat).f_values == -0.125)


class TestFieldAssembly:
    def test_simple_zero_entries(self, grid, zero_sample):
        s = zero_sample
        _, Phi, h = local_fields(s, ANGLES)
        r = grid
        z = _points(grid)
        assert np.allclose(Phi[..., 0, 1], (np.sqrt(r) * np.exp(s.xi))[:, None])
        assert np.allclose(Phi[..., 1, 0], z * (np.exp(-s.xi) / np.sqrt(r))[:, None])
        assert np.allclose(np.linalg.det(h).real, 1.0)
        q = quadratic_differential(s)
        assert np.max(np.abs(q - expected_quadratic_differential(ZERO, z))) < 1e-12

    def test_strong_pole_entries(self, grid):
        s = fiducial_fields(POLE, 4.0, grid)
        h = local_fields(s, ANGLES)[2]
        r = grid
        asum = 1.0
        assert np.allclose(h[:, 0, 0].real, r ** (asum - 0.5) * np.exp(s.xi))
        assert np.allclose(h[:, 1, 1].real, r ** (asum + 0.5) * np.exp(-s.xi))
        assert np.allclose(np.linalg.det(h).real, r ** (2.0 * asum))
        q = quadratic_differential(s)
        ref = expected_quadratic_differential(POLE, _points(grid))
        assert np.max(np.abs((q - ref) / ref)) < 1e-12

    def test_weak_pole_entries(self, grid, weak_sample):
        s = weak_sample
        A = local_fields(s, ANGLES)[0]
        assert np.allclose(A[:, 0, 0], 1j * 0.3)
        assert np.allclose(A[:, 1, 1], 1j * 0.7)
        q = quadratic_differential(s)
        ref = expected_quadratic_differential(WEAK, _points(grid))
        assert np.max(np.abs((q - ref) / ref)) < 1e-12

    def test_weak_pole_t_independent(self, grid):
        a = local_fields(fiducial_fields(WEAK, 3.0, grid), ANGLES)
        b = local_fields(fiducial_fields(WEAK, 7.0, grid), ANGLES)
        for x, y in zip(a, b):  # A_theta, Phi, h
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("name", ["zero_sample", "pole_sample", "weak_sample"])
    def test_json_round_trip(self, request, name):
        sample = request.getfixturevalue(name)
        # fields.json holds the whole sample: what it decodes to rebuilds it bit for bit
        back = _sample_from(json.loads(sample.to_json()))
        for name, a, b in zip(("A_theta", "Phi", "h"), local_fields(back, ANGLES), local_fields(sample, ANGLES)):
            assert np.array_equal(a, b), name
        for attr in ("xi", "dxi"):
            assert np.array_equal(getattr(back, attr), getattr(sample, attr)), attr
        assert np.array_equal(back.r, sample.r)
        assert back.case == sample.case
        assert back.t == sample.t


_CASES = st.one_of(
    st.just(ZERO),
    st.floats(min_value=0.01, max_value=0.49).map(
        lambda a1: LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(a1, 1.0 - a1))
    ),
    st.tuples(
        st.floats(min_value=0.01, max_value=0.49),
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0),
    ).map(lambda a: LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(a[0], 1.0 - a[0]), a[1])),
)


class TestFieldSampleStorage:
    @given(_CASES, st.integers(min_value=4, max_value=24), st.data())
    def test_fields_built_on_read(self, case, nr, data):
        g = polar_grid(n_r=nr)
        theta = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        profile = st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=nr, max_size=nr)
        s = FieldSample(g, case, 3.0, np.array(data.draw(profile)), np.array(data.draw(profile)))
        A, P, h = local_fields(s, theta)
        assert A.shape == h.shape == (nr, 2, 2) and P.shape == (nr, 8, 2, 2)
        assert np.max(np.abs(A + np.conj(np.swapaxes(A, -1, -2)))) <= 1e-12
        assert np.max(np.abs(P[..., 0, 0] + P[..., 1, 1])) <= 1e-12 * np.max(np.abs(P))
        assert np.all(np.linalg.eigvalsh(h) > 0)
        q = quadratic_differential(s, theta)
        ref = expected_quadratic_differential(case, _points(g, theta))
        assert np.max(np.abs((q - ref) / ref)) < 1e-12

    def test_residual_builds_no_fields(self):
        # a sample holds the profile alone; the matrices exist only in the oracle
        am = approx_metric(ZERO, 8.0, polar_grid(n_r=2048))
        hitchin_residual(am)
        assert set(vars(am)) == {"r", "case", "t", "xi", "dxi"}
        assert not any(hasattr(am, name) for name in ("A_theta", "Phi", "h"))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["xi"].__setitem__(5, float("nan")),
            lambda doc: doc["dxi"].__setitem__(0, float("inf")),
            lambda doc: doc["xi"].pop(),
            lambda doc: doc.__setitem__("xi", [[v] for v in doc["xi"]]),
            lambda doc: doc["dxi"].__setitem__(3, None),
        ],
        ids=["nan", "inf", "short", "2d", "null"],
    )
    def test_from_json_rejects_bad_profile(self, zero_sample, edit):
        doc = json.loads(zero_sample.to_json())
        edit(doc)
        with pytest.raises(ValueError, match="finite real array"):
            _sample_from(doc)

    @given(
        _CASES,
        st.sampled_from(["nan", "inf", "-inf", "nonpositive", "repeated", "decreasing", "2d"]),
        st.integers(min_value=5, max_value=24),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=10.0),
    )
    def test_bad_nodes_rejected_before_any_solve(self, case, defect, nr, frac, t):
        # the weak pole has no profile solver to check its nodes: a NaN node
        # used to give a NaN residual, an infinite one Infinity (not JSON) in fields.json
        r = polar_grid(n_r=nr)
        i = max(1, int(frac * (nr - 1)))
        if defect in ("nan", "inf", "-inf"):
            r[i] = float(defect)
        elif defect == "nonpositive":
            r[: i + 1] -= r[i]  # increasing, with r[i] = 0
        elif defect == "repeated":
            r[i] = r[i - 1]
        elif defect == "decreasing":
            r[[i - 1, i]] = r[[i, i - 1]]
        else:
            r = np.stack([r, r])
        zeros = np.zeros(r.shape)
        with pytest.raises(ValueError, match="radial nodes must be a finite, positive, strictly increasing"):
            FieldSample(r, case, t, zeros, zeros)
        # the zero and pole profile solvers reject such nodes before they solve
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(painleve, "_collocation", _no_solve)
            with pytest.raises(ValueError):
                fiducial_fields(case, t, r)

    @given(_CASES, st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    def test_non_finite_t_rejected_before_any_solve(self, case, t):
        r = polar_grid(n_r=16)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(painleve, "_collocation", _no_solve)
            with pytest.raises(ValueError, match="t must be finite|finite t"):
                fiducial_fields(case, t, r)
        with pytest.raises(ValueError, match="t must be finite"):
            FieldSample(r, case, t, np.zeros_like(r), np.zeros_like(r))

    def test_complex_profile_rejected(self, grid):
        xi = np.zeros(len(grid), dtype=complex)
        with pytest.raises(ValueError, match="finite real array"):
            FieldSample(grid, ZERO, 1.0, xi, xi.real)


class TestHitchinResidual:
    def test_weak_pole_exact(self, weak_sample):
        assert hitchin_residual(weak_sample) < 1e-10

    @given(
        st.floats(min_value=0.01, max_value=0.49),
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=0.0, max_value=2.0 * np.pi),
        st.floats(min_value=1.0, max_value=50.0),
    )
    def test_weak_pole_exact_everywhere(self, alpha1, modulus, phase, t):
        # A constant and Phi diagonal: the scalar residual is exactly 0, and
        # the matrix residual of the oracle's fields vanishes up to rounding
        case = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(alpha1, 1.0 - alpha1), modulus * np.exp(1j * phase))
        sample = fiducial_fields(case, t, polar_grid(n_r=64))
        assert hitchin_residual(sample) == 0.0
        assert matrix_residual(sample, t) < 1e-10

    def test_zero_and_pole_discretization(self, zero_sample, pole_sample):
        assert hitchin_residual(zero_sample) < 1e-5
        assert hitchin_residual(pole_sample) < 1e-5

    def test_second_order_refinement(self):
        res = {}
        for n in (1024, 2047):
            g = polar_grid(n_r=n)
            res[n] = hitchin_residual(fiducial_fields(ZERO, 4.0, g))
        order = np.log2(res[1024] / res[2047])
        assert 1.7 < order < 2.3

    def test_matrix_path_agrees(self, zero_sample):
        a = hitchin_residual(zero_sample)
        b = matrix_residual(zero_sample, 4.0)
        assert 0.3 < a / b < 3.0

    def test_profile_sensitivity(self, grid):
        # a 1% profile error must stand far above the converged floor; the
        # scaling perturbation cancels at linear order where m is small, so
        # probe at t = 1 where the profile is O(1) on the grid
        m, dm = m_profile(1.0, POLE2.weights, grid)
        base = hitchin_residual(assemble_fields(POLE2, 1.0, grid, m, dm))
        bumped = hitchin_residual(assemble_fields(POLE2, 1.0, grid, 1.01 * m, 1.01 * dm))
        assert bumped > 1e-6
        assert bumped > 20.0 * base

    def test_grid_size_guard(self):
        # two radial nodes are skipped at each end, so a 4-node grid (which
        # polar_grid accepts) fails at the guard, not at the window
        with pytest.raises(ValueError, match="need >= 5 radial nodes"):
            hitchin_residual(fiducial_fields(ZERO, 4.0, polar_grid(n_r=4)))
        assert hitchin_residual(fiducial_fields(ZERO, 4.0, polar_grid(n_r=5))) >= 0.0


def _bracket_matrix(P):
    """Numeric h-variation bracket operator on trace-free Hermitian matrices."""
    basis = [
        np.diag([1.0 + 0j, -1.0 + 0j]),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, 1j], [-1j, 0]], dtype=complex),
    ]
    Pd = P.conj().T
    out = np.zeros((3, 3))
    for j, gj in enumerate(basis):
        C = P @ gj - gj @ P
        C2 = Pd @ gj - gj @ Pd
        img = 2.0 * ((Pd @ C - C @ Pd) + (P @ C2 - C2 @ P))
        for i, gi in enumerate(basis):
            out[i, j] = np.real(np.trace(img @ gi.conj().T)) / np.real(np.trace(gi @ gi.conj().T))
    return out


class TestMphiEigenvalues:
    def test_limiting_zero(self):
        lam = mphi_eigenvalues(ZERO, 2.0)
        assert lam == (32.0, 0.0, 32.0)

    def test_weak_example(self):
        case = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 1.0)
        assert mphi_eigenvalues(case, 2.0) == (0.0, 4.0, 4.0)

    def test_nonnegative(self, grid):
        ell, _ = ell_profile(4.0, grid)
        for i in (0, 512, -1):
            r = grid[i]
            for case, xi in ((ZERO, ell[i]), (POLE2, 0.0), (WEAK, 0.0)):
                lams = mphi_eigenvalues(case, r, xi)
                assert all(v >= 0 for v in lams)

    @pytest.mark.parametrize("theta", [0.0, 0.9, 2.5])
    def test_against_bracket_oracle(self, theta):
        r = 0.37
        z = r * np.exp(1j * theta)
        ell = 0.2
        P = np.array(
            [[0, np.sqrt(r) * np.exp(ell)], [z * np.exp(-ell) / np.sqrt(r), 0]], dtype=complex
        )
        got = np.sort(np.linalg.eigvalsh(_bracket_matrix(P)))
        want = np.sort(mphi_eigenvalues(ZERO, r, ell))
        assert np.max(np.abs(got - want)) < 1e-10

        m = -0.3
        P = np.array(
            [[0, np.exp(m) / np.sqrt(r)], [np.sqrt(r) * np.exp(-m) / z, 0]], dtype=complex
        )
        got = np.sort(np.linalg.eigvalsh(_bracket_matrix(P)))
        want = np.sort(mphi_eigenvalues(POLE2, r, m))
        assert np.max(np.abs(got - want)) < 1e-10

        sigma = 0.5 + 0.2j
        P = (sigma / z) * np.diag([1.0 + 0j, -1.0 + 0j])
        got = np.sort(np.linalg.eigvalsh(_bracket_matrix(P)))
        case = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), sigma)
        want = np.sort(mphi_eigenvalues(case, r))
        assert np.max(np.abs(got - want)) < 1e-10


class TestIndicialRoots:
    def test_strong_pole_window(self):
        case = LocalCase(CaseKind.STRONG_POLE, ParabolicWeights(0.3, 0.7))
        got = indicial_roots(case, (-0.99, 0.99))
        assert got == pytest.approx([-0.6, -0.4, 0.0, 0.4, 0.6], abs=1e-12)

    def test_simple_zero_window(self):
        got = indicial_roots(ZERO, (0.25, 2.0))
        assert got == pytest.approx([0.5, 1.0, 1.5, 2.0], abs=1e-12)

    def test_weak_pole_window(self):
        case = LocalCase(CaseKind.WEAK_POLE, ParabolicWeights(0.3, 0.7), 0.25)
        got = indicial_roots(case, (0.01, 1.5))
        expected = [1.0, np.sqrt(0.16 + 1.0), np.sqrt(0.36 + 1.0)]
        assert got == pytest.approx(sorted(expected), abs=1e-12)

    def test_negation_symmetry(self):
        for case in (ZERO, POLE2, WEAK):
            roots = indicial_roots(case, (-1.8, 1.8))
            assert roots == pytest.approx(sorted(-v for v in roots), abs=1e-12)
