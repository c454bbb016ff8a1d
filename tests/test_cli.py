"""Experiment runner: artifacts, manifests, determinism, validation."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hitchinlab
import hitchinlab.cli as cli_module
from hitchinlab import fiducial as fid
from hitchinlab.artifacts import MissingManifestError, format_float, write_csv
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


def _csv_per_cell(header, rows) -> str:
    """Oracle: every cell formatted on its own, as the writer did before row formats."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if not isinstance(v, (int, str)) else str(v) for v in row))
    return "\n".join(lines) + "\n"


_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")]))
_CELLS = [
    st.integers(-(10**20), 10**20),
    st.booleans(),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.complex_numbers(),
    st.complex_numbers().map(np.complex128),
    st.text("abc_-", max_size=3),
]


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
        params = {"case": "weakpole", "alpha1": 0.3, "sigma": "0.5,0", "n_r": 64, "n_theta": 8, "t": 2.0}
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
        # the strided CSV rows are the ones a loop over every node and mode writes
        params = dict(FAST_LEBRUN, n_rho=n_rho)
        run(ExperimentConfig("lebrun", dict(params), tmp_path / "leb"))
        lattice = TorusLattice.from_tau(ToyConfig.from_p0(0.3).tau)
        m, n = lattice.min_dual_norm()[1][0]
        amp = params["amp"]
        sol = solve_nonlinear(
            {(m, n): amp / 2.0, (-m, -n): amp / 2.0}, params["rho_max"], params["modes"], lattice, n_rho=n_rho
        )
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
        comps = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)]
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
            block = gmn_correction(cfg, float(r)).g
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
        shape=st.lists(st.sampled_from(range(len(_CELLS))), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_csv_row_formats_match_per_cell(self, tmp_path_factory, shape, data):
        # rows of one shape share a format string; rows of another shape,
        # and complex cells, take the per-cell path; the bytes never change
        row = st.tuples(*(_CELLS[k] for k in shape))
        mixed = st.lists(st.sampled_from(_CELLS).flatmap(lambda c: c), min_size=len(shape), max_size=len(shape))
        rows = data.draw(st.lists(st.one_of(row, row, mixed), max_size=12))
        header = [f"c{k}" for k in range(len(shape))]
        path = write_csv(tmp_path_factory.getbasetemp() / "rows.csv", header, rows)
        assert path.read_text() == _csv_per_cell(header, rows)

    def test_cli_import_leaves_interpolate_and_optimize_unloaded(self):
        # a fresh interpreter: this test process has loaded them already
        code = (
            "import sys, scipy, hitchinlab.cli; "
            "print([m for m in ('scipy.interpolate', 'scipy.optimize', 'scipy.fft', 'scipy.integrate') "
            "if m in sys.modules])"
        )
        src = str(Path(hitchinlab.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src
        )
        assert out.stdout.strip() == "[]"


class TestDeterminism:
    def test_byte_identical_rerun(self, tmp_path):
        for sub in ("a", "b"):
            run(
                ExperimentConfig(
                    "toymodel", {"p0": "0.3,0.1", "r_points": 10}, tmp_path / sub / "toy"
                )
            )
            run(
                ExperimentConfig(
                    "glue-decay",
                    {"case": "simplezero", "tmin": 4, "tmax": 10, "n_r": 1024},
                    tmp_path / sub / "glue",
                )
            )
            run(ExperimentConfig("lebrun", dict(FAST_LEBRUN), tmp_path / sub / "leb"))
        for rel in ("toy", "glue", "leb"):
            fa = sorted((tmp_path / "a" / rel).iterdir())
            fb = sorted((tmp_path / "b" / rel).iterdir())
            assert [p.name for p in fa] == [p.name for p in fb]
            for pa, pb in zip(fa, fb):
                assert pa.read_bytes() == pb.read_bytes(), pa.name


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
            (["toymodel", "--p0", "0.3,0", "--r-max", "inf"], "ValueError"),
            (["toymodel", "--p0", "0.3,0", "--r-min", "0"], "ValueError"),
            (["lebrun", "--p0", "0.3,0", "--amp", "nan"], "ValueError"),
            (["lebrun", "--p0", "0.3,0", "--amp", "inf"], "ValueError"),
            (["lebrun", "--p0", "0.3,0", "--modes", "0"], "ValueError"),
            (["glue-decay", "--case", "simplezero", "--r-off", "inf"], "ValueError"),
            # argparse choices do not see config-file values; bogus.cfg holds case = bogus
            (["fiducial", "--config", "bogus.cfg"], "ValidationError"),
        ],
    )
    # a warning printed before the error line would be a second line
    @pytest.mark.filterwarnings("error")
    def test_failure_is_one_error_line(self, tmp_path, capsys, argv, cls):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text("case = bogus\n")
        argv = [str(cfg) if a == cfg.name else a for a in argv]
        code = main(argv + ["--output-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cls}: ")

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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("r_on", [0.0, 0.5, 0.9])
    def test_grid_check_matches_residual_window(self, r_on):
        # the CLI accepts exactly the --n-r for which the residual has a node to measure
        case = fid.LocalCase(fid.CaseKind.SIMPLE_ZERO)
        for n_r in range(4, 60):
            try:
                cli_module._radial_grid({"n_r": n_r}, 0, 1.0, r_on)
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
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("p0 = 0.3,0\nr-points = 6\n")
        code = main(
            ["toymodel", "--config", str(cfgfile), "--output-dir", str(tmp_path / "out")]
        )
        assert code == 0
        rec = json.loads((tmp_path / "out" / "toymodel.json").read_text())
        assert rec["p0"]["re"] == 0.3

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
        assert (tmp_path / "e" / "manifest.json").exists()
        code = main(["report", str(tmp_path / "e")])
        assert code == 0
        out = capsys.readouterr().out
        assert '"runs"' in out
