"""Experiment runner: artifacts, manifests, determinism, validation."""

import argparse
import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hitchinlab
import hitchinlab.cli as cli_module
from hitchinlab import fiducial as fid, grids, painleve
from hitchinlab.artifacts import MissingManifestError, write_csv, write_json
from hitchinlab.cli import ExperimentConfig, ValidationError, main, report, run
from hitchinlab.lebrun import TorusLattice, metric_difference_full, solve_nonlinear
from hitchinlab.special import ConvergenceError
from hitchinlab.toymodel import NonGenericTorusWarning, ToyConfig, gmn_correction, periods

FAST_LEBRUN = {
    "p0": "0.3,0",
    "amp": 0.1,
    "modes": 2,
    "rho_max": 3.0,
    "n_rho": 401,
}


def _files(d):
    return sorted(p.name for p in d.iterdir())


def _fast_lebrun_solution(params):
    """The solution ``run`` writes for the FAST_LEBRUN-like ``params``."""
    lattice = TorusLattice.from_tau(ToyConfig.from_p0(0.3).tau)
    m, n = lattice.min_dual_norm()[1][0]
    amp = params["amp"]
    return solve_nonlinear(
        {(m, n): amp / 2.0, (-m, -n): amp / 2.0}, params["rho_max"], params["modes"], lattice, n_rho=params["n_rho"]
    )


def _csv_per_cell(header, table) -> str:
    """Oracle: every cell formatted on its own."""
    lines = [",".join(header)] + [",".join(f"{x:.17g}" for x in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2.2250738585072009e-308]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.integers(-(2**53), 2**53).map(float),
)


# a small pool of cells, so that a table drawn from it is mostly repeats:
# -0.0 beside 0.0, three NaNs of distinct bit payloads (one of them
# signalling, one negative), +-inf, subnormals, integral values and a few
# that float16 and float32 round
_POOL = np.concatenate(
    [
        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, -3.0, 2.0**53],
        [0.1, 1.0 / 3.0, -2.5e-7, 6.02214076e23],
        np.array([0x7FF8000000000001, 0x7FF0000000000002, -0x8000000000000], dtype=np.int64).view(np.float64),
    ]
)


def _jsonable(obj):
    """Oracle: the recursive conversion the JSON writer made before json's own encoder."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.complexfloating,)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.text(max_size=4),
    st.complex_numbers(),
    st.complex_numbers().map(np.complex128),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3)),
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=12,
)


class TestCommands:
    def test_toymodel_artifacts(self, tmp_path):
        cfg = ExperimentConfig("toymodel", {"p0": "0.3,0", "B": "1,0", "r_points": 8}, tmp_path / "toy")
        run(cfg)
        assert _files(tmp_path / "toy") == ["gmn_correction.csv", "manifest.json", "toymodel.json"]
        rec = json.loads((tmp_path / "toy" / "toymodel.json").read_text())
        assert rec["bps"] == [8, -2, 0]
        assert rec["lambda_t"] == pytest.approx(1.2851663664300896, rel=1e-9)
        man = json.loads((tmp_path / "toy" / "manifest.json").read_text())
        assert set(man["artifacts"]) == {"gmn_correction.csv", "toymodel.json"}

    def test_toymodel_square_torus_values(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericTorusWarning)
            run(ExperimentConfig("toymodel", {"p0": "0.5,0", "r_points": 6}, tmp_path / "t"))
        rec = json.loads((tmp_path / "t" / "toymodel.json").read_text())
        assert rec["tau"]["im"] == pytest.approx(1.0, abs=1e-9)
        assert rec["lambda_t"] == pytest.approx(2.0**0.5, rel=1e-12)

    def test_glue_decay(self, tmp_path):
        params = {"case": "strongpole", "alpha1": 0.2, "tmin": 4, "tmax": 10, "n_r": 2048}
        run(ExperimentConfig("glue-decay", params, tmp_path / "g"))
        fit = json.loads((tmp_path / "g" / "fit.json").read_text())
        assert fit["mu"] > 0
        assert fit["r2"] > 0.99
        lines = (tmp_path / "g" / "decay.csv").read_text().splitlines()
        assert lines[0] == "t,residual"
        assert len(lines) == 5

    def test_fiducial(self, tmp_path):
        params = {"case": "weakpole", "alpha1": 0.3, "sigma": "0.5,0", "n_r": 64, "t": 2.0}
        run(ExperimentConfig("fiducial", params, tmp_path / "f"))
        summary = json.loads((tmp_path / "f" / "summary.json").read_text())
        assert summary["hitchin_residual"] < 1e-10

    def test_lebrun_and_report(self, tmp_path):
        run(ExperimentConfig("lebrun", dict(FAST_LEBRUN), tmp_path / "runs" / "leb"))
        run(ExperimentConfig("toymodel", {"p0": "0.3,0", "r_points": 6}, tmp_path / "runs" / "toy"))
        summary = report(tmp_path / "runs")
        assert len(summary["runs"]) == 2
        assert len(summary["cross_checks"]) == 1
        cc = summary["cross_checks"][0]
        assert cc["within_3_percent"]

    def test_report_pairs_runs_by_p0_value(self, tmp_path):
        # "0.3,0" and "0.30,0.0" are one p0: the pair is made on the value
        # both runs record, not on the text of the flag
        run(ExperimentConfig("lebrun", dict(FAST_LEBRUN), tmp_path / "runs" / "leb"))
        run(ExperimentConfig("toymodel", {"p0": "0.30,0.0", "r_points": 6}, tmp_path / "runs" / "toy"))
        (cc,) = report(tmp_path / "runs")["cross_checks"]
        assert cc["p0"] == {"re": 0.3, "im": 0.0}
        assert cc["within_3_percent"]

    def test_degenerate_torus_warns_once(self, tmp_path):
        # p0 = 0.5 is the square torus tau = i, whose shortest dual shell is
        # degenerate: one warning, raised where the torus is built
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["lebrun", "--p0", "0.5,0", "--output-dir", str(tmp_path / "leb")]) == 0
        assert [w.category for w in caught] == [NonGenericTorusWarning]

    @pytest.mark.parametrize(
        "params",
        [
            {"p0": "0.5,0"},
            {"p0": "-0.15814436059767784,0.5558939790995723", "amp": 0.1381887309488307, "modes": 2},
        ],
    )
    def test_fit_json_reads_one_lambda_t(self, tmp_path, params):
        # the written ratio divides by the written lambda_T, bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonGenericTorusWarning)
            run(ExperimentConfig("lebrun", dict(params), tmp_path))
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["rate_over_2lambdaT"] == fit["rate"] / (2 * fit["lambda_t"])

    def test_report_cli_and_run_agree(self, tmp_path, monkeypatch):
        run(ExperimentConfig("toymodel", {"p0": "0.3,0", "r_points": 6}, tmp_path / "runs" / "toy"))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("HITCHINLAB_OUTPUT", raising=False)
        assert main(["report", str(tmp_path / "runs"), "--out", str(tmp_path / "cli.json")]) == 0
        run(ExperimentConfig("report", {"dir": tmp_path / "runs", "out": tmp_path / "run.json"}))
        assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "run.json").read_bytes()
        assert not (tmp_path / "hitchinlab_out").exists()

    @pytest.mark.parametrize("n_rho", [401, 41])
    def test_lebrun_rows_match_node_loop(self, tmp_path, n_rho):
        # the strided CSV rows are the ones a loop over every node and stored
        # mode, and over the non-redundant metric components, writes
        params = dict(FAST_LEBRUN, n_rho=n_rho)
        run(ExperimentConfig("lebrun", dict(params), tmp_path / "leb"))
        sol = _fast_lebrun_solution(params)
        lattice = sol.v.lattice
        rows = []
        for k, (mm, nn) in enumerate(sol.v.modes):
            for i, rho in enumerate(sol.rho):
                if i % max(1, len(sol.rho) // 64):
                    continue
                c = sol.v.coeffs[k, i]
                rows.append((rho, int(mm), int(nn), c.real, c.imag))
        write_csv(tmp_path / "solution.csv", ["rho", "mu_m", "mu_n", "re", "im"], rows)
        md = metric_difference_full(sol)
        ncol = md.difference.shape[1]
        B = lattice.basis
        j = np.arange(ncol) / ncol
        X1 = np.add.outer(B[0, 0] * j, B[0, 1] * j)
        X2 = np.add.outer(B[1, 0] * j, B[1, 1] * j)
        comps = [(0, 0), (1, 1), (2, 2), (0, 2), (0, 3), (1, 2), (1, 3)]
        rows = []
        for i in range(0, len(sol.rho), max(1, len(sol.rho) // 24)):
            for a in range(0, ncol, 4):
                for b in range(0, ncol, 4):
                    row = [md.r[i, a, b], X1[a, b], X2[a, b]]
                    row += [md.difference[i, a, b, p, q] for (p, q) in comps]
                    rows.append(tuple(row))
        header = ["r", "x", "y"] + [f"d_{p}{q}" for (p, q) in comps]
        write_csv(tmp_path / "metric_difference.csv", header, rows)
        for name in ("solution.csv", "metric_difference.csv"):
            assert (tmp_path / "leb" / name).read_bytes() == (tmp_path / name).read_bytes(), name

    @pytest.mark.parametrize("n_rho", [401, 41])
    def test_lebrun_solution_round_trip(self, tmp_path, n_rho):
        # the half lattice read back is the strided solution exactly
        params = dict(FAST_LEBRUN, n_rho=n_rho)
        run(ExperimentConfig("lebrun", dict(params), tmp_path))
        sol = _fast_lebrun_solution(params)
        stride = max(1, len(sol.rho) // 64)
        rho = sol.rho[::stride]
        table = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1)
        half = table.reshape(-1, len(rho), 5)  # (mode, node, column)
        assert np.array_equal(half[..., 0], np.broadcast_to(rho, half.shape[:2]))
        assert np.array_equal(half[..., 1:3], np.repeat(sol.v.modes[:, None], len(rho), axis=1))
        assert np.array_equal(half[..., 3] + 1j * half[..., 4], sol.v.coeffs[:, ::stride])

    @pytest.mark.parametrize(
        "grid",
        [{}, {"r_points": 2}, {"r_min": 0.05, "r_max": 3.0e3, "r_points": 17}],
        ids=["default", "two-points", "custom"],
    )
    def test_toymodel_rows_match_r_loop(self, tmp_path, grid):
        # the CSV from one array call is the one a loop of scalar calls writes
        params = dict({"p0": "0.3,0.1"}, **grid)
        run(ExperimentConfig("toymodel", dict(params), tmp_path / "toy"))
        cfg = ToyConfig.from_p0(0.3 + 0.1j)
        rows = []
        for r in np.geomspace(params.get("r_min", 1.0), params.get("r_max", 100.0), params.get("r_points", 40)):
            block = gmn_correction(cfg, float(r))
            rows.append((r, block[0, 0], block[1, 1]))
        write_csv(tmp_path / "gmn_correction.csv", ["r", "coeff_rr", "coeff_thetatheta"], rows)
        got = (tmp_path / "toy" / "gmn_correction.csv").read_bytes()
        assert got == (tmp_path / "gmn_correction.csv").read_bytes()
        assert len(got.splitlines()) == 1 + params.get("r_points", 40)

    def test_report_requires_manifests(self, tmp_path):
        with pytest.raises(MissingManifestError):
            report(tmp_path)


class TestArtifacts:
    @given(
        table=hnp.arrays(
            np.float64, st.tuples(st.integers(0, 12), st.integers(1, 5)), elements=_CELLS
        )
    )
    def test_csv_row_formats_match_per_cell(self, tmp_path_factory, table):
        # one %.17g row format writes what formatting each cell alone does,
        # on -0.0, nan, +-inf, integral values and subnormals too
        header = [f"c{k}" for k in range(table.shape[1])]
        path = write_csv(tmp_path_factory.getbasetemp() / "rows.csv", header, table)
        assert path.read_text() == _csv_per_cell(header, table)

    @example(dtype=np.float64, picks=np.zeros((0, 3), dtype=np.intp))
    @given(
        dtype=st.sampled_from([np.float16, np.float32, np.float64, np.longdouble]),
        picks=hnp.arrays(
            np.intp, st.tuples(st.integers(0, 30), st.integers(1, 6)), elements=st.integers(0, len(_POOL) - 1)
        ),
    )
    def test_csv_repeated_values_match_per_cell(self, tmp_path_factory, dtype, picks):
        # tables drawn from a small pool, so that most cells repeat another:
        # the writer formats each distinct bit pattern once and must still
        # write what formatting each cell alone does, keeping -0.0 apart from
        # 0.0, at every float width (each cell written as its double)
        with np.errstate(invalid="ignore", over="ignore"):  # NaN payloads and 6e23 cast to a narrower float
            table = _POOL[picks].astype(dtype)
        header = [f"c{k}" for k in range(table.shape[1])]
        path = write_csv(tmp_path_factory.getbasetemp() / "repeats.csv", header, table)
        assert path.read_text() == _csv_per_cell(header, table)

    @pytest.mark.parametrize(
        "table",
        [
            np.array([[1.0 + 2.0j, 0.0]]),
            [[1.0, 1j]],
            [[1.0, 2.0], [3.0]],
            [1.0, 2.0],
            np.zeros((2, 3)),
            np.zeros((1, 2, 2)),
            [["a", "b"]],
        ],
        ids=["complex-array", "complex-cell", "ragged", "1-d", "wrong-width", "3-d", "strings"],
    )
    def test_csv_rejects_non_float_tables(self, tmp_path, table):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], table)
        assert not path.exists()

    @given(obj=_JSON_VALUES)
    def test_json_matches_recursive_conversion(self, tmp_path_factory, obj):
        path = write_json(tmp_path_factory.getbasetemp() / "obj.json", {"value": obj})
        assert path.read_text() == json.dumps(_jsonable({"value": obj}), sort_keys=True, indent=1) + "\n"

    def test_cli_import_leaves_interpolate_and_optimize_unloaded(self):
        # a fresh interpreter: this test process has loaded them already;
        # no command solves with scipy.linalg since the sinh-Gordon solve
        # takes numpy's dense solve, and no production module imports the oracles
        code = (
            "import sys, scipy, hitchinlab.cli; "
            "print([m for m in ('scipy.interpolate', 'scipy.optimize', 'scipy.fft', 'scipy.integrate', "
            "'scipy.linalg', 'hitchinlab.oracles') if m in sys.modules])"
        )
        src = str(Path(hitchinlab.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src
        )
        assert out.stdout.strip() == "[]"


class TestDeterminism:
    def test_byte_identical_rerun(self, tmp_path):
        # the rerun reads its parameters from the first run's manifest alone
        configs = {
            "toy": ("toymodel", {"p0": "0.3,0.1", "r_points": 10}),
            "glue": ("glue-decay", {"case": "simplezero", "tmin": 4, "tmax": 10, "n_r": 1024}),
            "leb": ("lebrun", dict(FAST_LEBRUN)),
        }
        for rel, (command, params) in configs.items():
            run(ExperimentConfig(command, params, tmp_path / "a" / rel))
            man = json.loads((tmp_path / "a" / rel / "manifest.json").read_text())
            run(ExperimentConfig(command, man["parameters"], tmp_path / "b" / rel))
            fa = sorted((tmp_path / "a" / rel).iterdir())
            fb = sorted((tmp_path / "b" / rel).iterdir())
            assert [p.name for p in fa] == [p.name for p in fb]
            for pa, pb in zip(fa, fb):
                assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_manifest_digests_match_files(self, tmp_path):
        # the digests the writers took of their bytes are those of the files
        configs = {
            "toy": ("toymodel", {"p0": "0.3,0.1", "r_points": 10}),
            "glue": ("glue-decay", {"case": "simplezero", "tmin": 4, "tmax": 10, "n_r": 1024}),
            "fid": ("fiducial", {"case": "weakpole", "alpha1": 0.3, "sigma": "0.5,0", "n_r": 64}),
            "fid-zero": ("fiducial", {"case": "simplezero", "n_r": 64}),
            "leb": ("lebrun", dict(FAST_LEBRUN)),
        }
        for rel, (command, params) in configs.items():
            out = tmp_path / rel
            manifest = run(ExperimentConfig(command, params, out))
            assert manifest.sha256 == hashlib.sha256(manifest.read_bytes()).hexdigest()
            digests = json.loads(manifest.read_text())["artifacts"]
            assert sorted(digests) == [name for name in _files(out) if name != "manifest.json"]
            for name, digest in digests.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (rel, name)


class TestValidationAndConfig:
    def test_missing_p0_exits_nonzero(self, tmp_path, capsys):
        code = main(["toymodel", "--output-dir", str(tmp_path / "x")])
        assert code == 1
        assert "p0" in capsys.readouterr().err

    def test_library_failure_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        def fail(cls, p0, **kwargs):
            raise ConvergenceError("inverse_lambda failed to converge")

        monkeypatch.setattr(ToyConfig, "from_p0", classmethod(fail))
        code = main(["toymodel", "--p0", "0.3,0", "--output-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: ConvergenceError: inverse_lambda failed to converge"]

    @pytest.mark.parametrize(
        "argv, cls",
        [
            (["lebrun", "--p0", "0.3,0", "--amp", "1.0"], "PerturbativeRegimeError"),
            (["toymodel", "--p0", "0.0005,0"], "ValueError"),
            (
                ["lebrun", "--p0", "0.3,0", "--amp", "0", "--modes", "2", "--rho-max", "3", "--n-rho", "401"],
                "UnderflowWindowError",
            ),
            (["glue-decay", "--case", "simplezero", "--tstep", "0"], "ValidationError"),
            (["glue-decay", "--case", "simplezero", "--tmin", "nan"], "ValidationError"),
            (["glue-decay", "--case", "strongpole", "--alpha1", "0.2", "--tmax", "inf"], "ValidationError"),
            (["fiducial", "--case", "simplezero", "--t", "nan"], "ValueError"),
            (["fiducial", "--case", "strongpole", "--alpha1", "0.2", "--t", "inf"], "ValueError"),
            (["fiducial", "--case", "weakpole", "--alpha1", "0.3", "--sigma", "0.5,0", "--t", "nan"], "ValueError"),
            (["fiducial", "--case", "simplezero", "--r-min", "-1"], "ValueError"),
            (["lebrun", "--p0", "0.3,0", "--rho-max", "inf"], "ValueError"),
            (["toymodel", "--p0", "0.3,0", "--r-max", "inf"], "ValidationError"),
            (["toymodel", "--p0", "0.3,0", "--r-min", "0"], "ValidationError"),
            (["lebrun", "--p0", "0.3,0", "--amp", "nan"], "ValueError"),
            (["lebrun", "--p0", "0.3,0", "--amp", "inf"], "ValueError"),
            (["lebrun", "--p0", "0.3,0", "--modes", "0"], "ValueError"),
            (["glue-decay", "--case", "simplezero", "--r-off", "inf"], "ValueError"),
            # config-file values meet the flags' choices; bogus.cfg holds case = bogus
            (["fiducial", "--config", "bogus.cfg"], "ValidationError"),
            # a key no flag of the command defines; typo.cfg holds tmaxx = 6
            (["glue-decay", "--case", "simplezero", "--config", "typo.cfg"], "ValidationError"),
            # the output directory is set on the command line only; out.cfg holds output-dir = y
            (["toymodel", "--p0", "0.3,0", "--config", "out.cfg"], "ValidationError"),
            # a config path that names a directory
            (["toymodel", "--p0", "0.3,0", "--config", "/"], "IsADirectoryError"),
            # argparse's own errors are one line too
            (["toymodel", "--p0", "0.3,0", "--bogus", "1"], "ValidationError"),
            (["toymodel", "--p0", "-0.2,0.5"], "ValidationError"),
            (["fiducial", "--t", "2"], "ValidationError"),
            (["toymodel", "--p0", "0.3,0", "--r-min", "5", "--r-max", "1"], "ValidationError"),
        ],
    )
    # a warning printed before the error line would be a second line, and
    # a failed run leaves no output directory
    @pytest.mark.filterwarnings("error")
    def test_failure_is_one_error_line(self, tmp_path, capsys, argv, cls):
        configs = {"bogus.cfg": "case = bogus\n", "typo.cfg": "tmaxx = 6\n", "out.cfg": "output-dir = y\n"}
        for name, text in configs.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in configs else a for a in argv]
        code = main(argv + ["--output-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cls}: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["toymodel", "--p0", "0.3,0", "--r-points", "0"], "--r-points"),
            (["toymodel", "--p0", "0.3,0", "--r-points", "-3"], "--r-points"),
            (["fiducial", "--case", "simplezero", "--n-r", "4"], "--n-r"),
            (["glue-decay", "--case", "simplezero", "--n-r", "8"], "--n-r"),
            (["lebrun", "--p0", "0.3,0", "--n-rho", "0"], "--n-rho"),
            (["lebrun", "--p0", "0.3,0", "--n-rho", "1"], "--n-rho"),
            (["lebrun", "--p0", "0.3,0", "--n-rho", "4"], "--n-rho"),
            # t = 4, 6, 8: fewer than the 4 values the fit needs
            (["glue-decay", "--case", "simplezero", "--tmin", "4", "--tmax", "8", "--tstep", "2"], "--tmin"),
            # the decay fit reads at least 8 radial nodes; 5 to 7 used to run
            # the whole solve and fail in the fit as if it had underflowed
            (["lebrun", "--p0", "0.3,0", "--n-rho", "5"], "--n-rho"),
            (["lebrun", "--p0", "0.3,0", "--n-rho", "7"], "--n-rho"),
        ],
    )
    def test_grid_size_rejected_before_work(self, tmp_path, capsys, monkeypatch, argv, flag):
        def unreachable(*args, **kwargs):
            raise AssertionError("solver reached before the grid size was checked")

        monkeypatch.setattr(cli_module.toy.ToyConfig, "from_p0", unreachable)
        monkeypatch.setattr(cli_module.fid, "fiducial_fields", unreachable)
        monkeypatch.setattr(cli_module.glue, "decay_sweep", unreachable)
        monkeypatch.setattr(cli_module.leb, "solve_nonlinear", unreachable)
        out = tmp_path / "x"
        assert main(argv + ["--output-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: ValidationError: {flag} ")
        assert not out.exists()

    def test_residual_underflow_stops_the_sweep(self, tmp_path, capsys, monkeypatch):
        # the strong-pole annulus residual reads 5.65e-12 at t = 4, 1.02e-252 at
        # t = 103 and 0.0 from t = 202 on: the sweep fails there, after 3
        # profile collocations, not after all 5; t = 103 and 202 reach past
        # painleve.RHO_UNDERFLOW, so no t shares its collocation
        solves = []
        collocation = painleve._collocation

        def counting(sigma, lo, hi):
            solves.append(hi)
            return collocation(sigma, lo, hi)

        monkeypatch.setattr(painleve, "_collocation", counting)
        argv = ["glue-decay", "--case", "strongpole", "--alpha1", "0.2", "--tmin", "4", "--tmax", "400",
                "--tstep", "99", "--output-dir", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: DegenerateFitError: glued residual underflows to 0 at t = 202 (last positive at t = 103)"]
        assert solves == [8.0 * 4, 8.0 * 103, 8.0 * 202]
        assert not (tmp_path / "x").exists()

    def test_long_zero_sweep_stops_at_underflow(self, tmp_path, capsys, monkeypatch):
        # t = 4..787 are solved, 784 of them; the 42 t values 238..279 have
        # rho_t(r_0) >= 0.02 and rho_t(1) <= RHO_UNDERFLOW, so they share one
        # collocation, and every other t keeps its own
        sizings = []
        collocate = painleve._collocate

        def counting(sigma, a, b, n):
            if n == grids.CHEB_INTERVALS:
                sizings.append(a)
            return collocate(sigma, a, b, n)

        monkeypatch.setattr(painleve, "_collocate", counting)
        argv = ["glue-decay", "--case", "simplezero", "--tmin", "4", "--tmax", "3000", "--tstep", "1",
                "--output-dir", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: DegenerateFitError: glued residual underflows to 0 at t = 787 (last positive at t = 786)"]
        assert len(sizings) == 784 - 41

    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # what numpy raises for a t range it cannot allocate, without allocating it
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli_module.glue, "decay_sweep", out_of_memory)
        assert main(["glue-decay", "--case", "simplezero", "--output-dir", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: MemoryError: Unable to allocate 7.28 TiB"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["toymodel", "--p0", "0.3,0", "--B", "inf,0"],
            ["toymodel", "--p0", "nan,0"],
            ["toymodel", "--p0", "0.3,-inf"],
            ["lebrun", "--p0", "0.3,nan"],
            ["fiducial", "--case", "weakpole", "--alpha1", "0.3", "--sigma", "0.5,inf"],
        ],
    )
    def test_non_finite_complex_rejected_before_work(self, tmp_path, capsys, argv):
        # a non-finite --p0, --B or --sigma would end in a ConvergenceError or
        # write Infinity, which is not JSON, into toymodel.json
        out = tmp_path / "x"
        assert main(argv + ["--output-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ValidationError: expected finite ")
        assert not out.exists()

    @pytest.mark.parametrize("r_on", [0.0, 0.5, 0.9])
    def test_grid_check_matches_residual_window(self, r_on):
        # the CLI accepts exactly the --n-r for which the residual has a node to measure
        case = fid.LocalCase(fid.CaseKind.SIMPLE_ZERO)
        for n_r in range(4, 60):
            try:
                cli_module._radial_grid(argparse.Namespace(n_r=n_r), 1.0, r_on)
                accepted = True
            except ValidationError:
                accepted = False
            grid = fid.polar_grid(n_r=n_r)
            window = None if r_on == 0.0 else (r_on, 1.0)
            try:
                fid.hitchin_residual(fid.fiducial_fields(case, 4.0, grid), window)
                measured = True
            except ValueError as exc:
                assert "no interior nodes" in str(exc)
                measured = False
            assert accepted == measured, n_r

    def test_report_of_missing_dir_is_one_error_line(self, tmp_path, capsys):
        assert issubclass(MissingManifestError, FileNotFoundError)
        code = main(["report", str(tmp_path / "missing")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: MissingManifestError: ")
        assert not (tmp_path / "missing").exists()

    def test_toymodel_near_collision(self, tmp_path):
        code = main(["toymodel", "--p0", "0.002,0", "--output-dir", str(tmp_path / "near")])
        assert code == 0
        rec = json.loads((tmp_path / "near" / "toymodel.json").read_text())
        om1, om2 = periods(0.002)
        area = abs(np.imag(np.conj(om1) * om2))
        assert abs(2.0 * rec["c_sk"] - area) / area < 1e-12

    def test_unknown_command(self):
        with pytest.raises(ValidationError):
            ExperimentConfig("frobnicate")

    def test_config_file(self, tmp_path, capsys):
        # a negative-real p0 reads as a value, not a flag, in a config file and
        # through run(); a flag after --config overrides the file's value
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("p0 = -0.2,0.5\nr-points = 6\n")
        code = main(
            ["toymodel", "--config", str(cfgfile), "--r-points", "3", "--output-dir", str(tmp_path / "out")]
        )
        assert code == 0
        rec = json.loads((tmp_path / "out" / "toymodel.json").read_text())
        assert rec["p0"] == {"re": -0.2, "im": 0.5}
        run(ExperimentConfig("toymodel", {"p0": "-0.2,0.5", "r_points": 3}, tmp_path / "lib"))
        assert _files(tmp_path / "lib") == _files(tmp_path / "out")
        for name in _files(tmp_path / "lib"):
            assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name
        assert len((tmp_path / "lib" / "gmn_correction.csv").read_text().splitlines()) == 1 + 3

    @pytest.mark.parametrize(
        "command, params",
        [
            ("glue-decay", {"case": "simplezero", "tmaxx": 6, "n_r": 1024}),
            ("glue-decay", {"case": "simplezero", "tma": 6}),
            ("glue-decay", {"case": "simplezero", "r_min": 0.01}),
            ("glue-decay", {"case": "simplezero", "n_theta": 8}),
            ("glue-decay", {"case": "weakpole", "alpha1": 0.3}),
            ("lebrun", dict(FAST_LEBRUN, modes=2.5)),
            ("toymodel", {"r_points": 6}),
            ("toymodel", {"p0": "0.3,0", "output_dir": "elsewhere"}),
            ("report", {"out": "summary.json"}),
            ("fiducial", {"case": "simplezero", "n_theta": 8}),
        ],
        ids=[
            "unknown-key", "prefix", "r_min", "n_theta", "choices", "int", "required", "output_dir", "dir",
            "fiducial-n_theta",
        ],
    )
    def test_library_parameters_checked_before_work(self, tmp_path, command, params):
        # run() reads its parameters through the command's flags, before the output directory exists
        out = tmp_path / "x"
        with pytest.raises(ValidationError):
            run(ExperimentConfig(command, params, out))
        assert not out.exists()

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HITCHINLAB_OUTPUT", str(tmp_path / "envout"))
        cfg = ExperimentConfig("toymodel", {"p0": "0.3,0"})
        assert cfg.output_dir == tmp_path / "envout" / "toymodel"

    def test_cli_end_to_end(self, tmp_path, capsys):
        code = main(
            [
                "toymodel",
                "--p0", "0.3,0",
                "--r-points", "6",
                "--output-dir", str(tmp_path / "e"),
            ]
        )
        assert code == 0
        # the manifest records the effective parameters, defaults included
        man = json.loads((tmp_path / "e" / "manifest.json").read_text())
        assert man["parameters"] == {"p0": "0.3,0", "B": "1,0", "r_min": 1.0, "r_max": 100.0, "r_points": 6}
        code = main(["report", str(tmp_path / "e")])
        assert code == 0
        out = capsys.readouterr().out
        assert '"runs"' in out
