"""Reproducible experiment runner.

Subcommands
-----------
fiducial    build a local model, report its self-duality residual and
            linearization data, write the model as JSON: its profile, from
            which ``FieldSample.from_json`` restores the sample
glue-decay  sweep the glued-metric error over t and fit the exponential rate
toymodel    derived constants of the four-punctured-sphere geometry plus the
            predicted metric correction on a radial grid
lebrun      perturbative solve of the reduced equation, decay-rate fit, and
            the metric difference from the semiflat model
report      aggregate the manifests of previous runs into one summary

Every run writes CSV/JSON artifacts plus a manifest (parameters, package
version, sha256 checksums); outputs are byte-identical across reruns with
the same configuration.  A flat ``key = value`` config file can stand in
for flags (flags win; a key that names no flag of the command is an
error); the HITCHINLAB_OUTPUT environment variable overrides
the default output directory.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, fiducial as fid, glue, lebrun as leb, toymodel as toy
from .artifacts import MissingManifestError, read_manifests, write_csv, write_json, write_manifest
from .painleve import ParabolicWeights

__all__ = ["ExperimentConfig", "run", "report", "main"]

_COMMANDS = ("fiducial", "glue-decay", "toymodel", "lebrun", "report")


class ValidationError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """A named experiment with validated parameters and an output directory."""

    command: str
    parameters: dict = field(default_factory=dict)
    output_dir: Path | None = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if self.output_dir is None:
            base = os.environ.get("HITCHINLAB_OUTPUT", "hitchinlab_out")
            self.output_dir = Path(base) / self.command
        self.output_dir = Path(self.output_dir)


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        z = complex(float(re_s), float(im_s))
    except Exception as exc:
        raise ValidationError(f"expected 're,im', got {text!r}") from exc
    if not cmath.isfinite(z):
        raise ValidationError(f"expected finite 're,im', got {text!r}")
    return z


def _require(params: dict, key: str):
    if key not in params or params[key] is None:
        raise ValidationError(f"missing required parameter --{key.replace('_', '-')}")
    return params[key]


# ----------------------------------------------------------------------
# experiment implementations
# ----------------------------------------------------------------------

_CASES = {"simplezero": fid.CaseKind.SIMPLE_ZERO,
          "strongpole": fid.CaseKind.STRONG_POLE,
          "weakpole": fid.CaseKind.WEAK_POLE}


def _case_from(params: dict) -> fid.LocalCase:
    kind = _CASES.get(_require(params, "case"))
    if kind is None:  # a config-file value, which argparse choices do not see
        raise ValidationError(f"--case must be one of {', '.join(_CASES)}, got {params['case']!r}")
    weights = None
    residue = None
    if kind in (fid.CaseKind.STRONG_POLE, fid.CaseKind.WEAK_POLE):
        a1 = float(_require(params, "alpha1"))
        weights = ParabolicWeights(a1, 1.0 - a1)
    if kind is fid.CaseKind.WEAK_POLE:
        residue = _parse_complex(str(_require(params, "sigma")))
    return fid.LocalCase(kind, weights, residue)


def _radial_grid(params: dict, n_r_default: int, r_max: float = 1.0, r_on: float = 0.0) -> fid.PolarGrid:
    """The polar grid of the flags, with a node where ``hitchin_residual`` measures.

    The residual skips two radial nodes at each end and, for glue-decay,
    reads only r >= r_on; an --n-r that leaves it no node fails here,
    before anything is solved.
    """
    n_r = int(params.get("n_r", n_r_default))
    if n_r >= 5:
        grid = fid.polar_grid(
            r_min=float(params.get("r_min", 1e-3)),
            r_max=r_max,
            n_r=n_r,
            n_theta=int(params.get("n_theta", 16)),
        )
        if grid.r[-3] >= r_on:
            return grid
    raise ValidationError(
        f"--n-r {n_r} is too small: the residual skips two radial nodes at each end "
        f"and needs one in [{r_on:g}, {r_max:g}]"
    )


def _run_fiducial(params: dict, out: Path):
    case = _case_from(params)
    t = float(params.get("t", 4.0))
    grid = _radial_grid(params, 1024)
    sample = fid.fiducial_fields(case, t, grid)
    residual = fid.hitchin_residual(sample)
    roots = fid.indicial_roots(case, (-2.0, 2.0))
    eigs = {
        f"{grid.r[i]:.6g}": list(fid.mphi_eigenvalues(case, t, float(grid.r[i]), float(sample.xi[i])))
        for i in (0, len(grid.r) // 2, -1)
    }
    fields_path = out / "fields.json"
    fields_path.write_text(sample.to_json())
    summary = {
        "case": case.kind.value,
        "t": t,
        "hitchin_residual": residual,
        "indicial_roots_[-2,2]": roots,
        "mphi_eigenvalues": eigs,
        "f_values_range": [float(sample.f_values.min()), float(sample.f_values.max())],
    }
    s_path = write_json(out / "summary.json", summary)
    return [fields_path, s_path]


def _run_glue_decay(params: dict, out: Path):
    case = _case_from(params)
    if case.kind is fid.CaseKind.WEAK_POLE:
        raise ValidationError("glue-decay applies to simplezero or strongpole")
    tmin = float(params.get("tmin", 4.0))
    tmax = float(params.get("tmax", 16.0))
    tstep = float(params.get("tstep", 2.0))
    if not (math.isfinite(tmin) and math.isfinite(tmax)):
        raise ValidationError(f"tmin and tmax must be finite, got {tmin}, {tmax}")
    if not (math.isfinite(tstep) and tstep > 0):
        raise ValidationError(f"tstep must be positive and finite, got {tstep}")
    spec = glue.CutoffSpec(float(params.get("r_on", 0.5)), float(params.get("r_off", 1.0)))
    grid = _radial_grid(params, 4096, spec.r_off, spec.r_on)
    ts = list(np.arange(tmin, tmax + 0.5 * tstep, tstep))
    samples = glue.decay_sweep(case, ts, spec, grid)
    fit = glue.fit_exponential_decay(samples)
    csv_path = write_csv(out / "decay.csv", ["t", "residual"], samples)
    fit_path = write_json(out / "fit.json", {"c": fit.c, "mu": fit.mu, "r2": fit.r2})
    return [csv_path, fit_path]


def _run_toymodel(params: dict, out: Path):
    p0 = _parse_complex(str(_require(params, "p0")))
    B = _parse_complex(str(params.get("B", "1,0")))
    r_min = float(params.get("r_min", 1.0))
    r_max = float(params.get("r_max", 100.0))
    r_points = int(params.get("r_points", 40))
    if not 0.0 < r_min < r_max < math.inf:
        raise ValueError(f"need 0 < r_min < r_max < inf, got r_min={r_min}, r_max={r_max}")
    if r_points < 2:
        raise ValidationError(f"--r-points must be at least 2, got {r_points}")
    cfg = toy.ToyConfig.from_p0(p0)
    record = {
        "p0": p0,
        "B": B,
        "tau": cfg.tau,
        "c_sk": cfg.c_sk,
        "c_fib": cfg.c_fib,
        "lambda_t": cfg.lambda_t,
        "M_B": toy.shortest_geodesic(cfg, B),
        "fiber_area": toy.fiber_area(),
        "bps": [toy.bps_omega(1), toy.bps_omega(2), toy.bps_omega(3)],
    }
    j_path = write_json(out / "toymodel.json", record)
    r_grid = np.geomspace(r_min, r_max, r_points)
    g = toy.gmn_correction(cfg, r_grid)
    table = np.column_stack([r_grid, g[:, 0, 0], g[:, 1, 1]])
    c_path = write_csv(out / "gmn_correction.csv", ["r", "coeff_rr", "coeff_thetatheta"], table)
    return [j_path, c_path]


def _run_lebrun(params: dict, out: Path):
    p0 = _parse_complex(str(_require(params, "p0")))
    amp = float(params.get("amp", 0.1))
    modes = int(params.get("modes", 3))
    n_rho = int(params.get("n_rho", 1401))
    if n_rho < 5:
        raise ValidationError(f"--n-rho {n_rho} is too small: the solution needs at least 5 radial nodes")
    cfg = toy.ToyConfig.from_p0(p0)
    lattice = leb.TorusLattice.from_tau(cfg.tau)
    m, n = lattice.min_dual_norm()[1][0]
    rho_max = params.get("rho_max")
    sol = leb.solve_nonlinear(
        {(m, n): amp / 2.0, (-m, -n): amp / 2.0},
        None if rho_max is None else float(rho_max),
        modes,
        lattice,
        rho_min=float(params.get("rho_min", 0.5)),
        n_rho=n_rho,
    )
    rate, power = leb.fit_decay(sol)
    lam2 = 2.0 * sol.lambda_t
    fit_path = write_json(
        out / "fit.json",
        {
            "rate": rate,
            "rate_over_2lambdaT": rate / lam2,
            "prefactor_exponent": power,
            "lambda_t": cfg.lambda_t,
            "p0": p0,
        },
    )
    stride = max(1, len(sol.rho) // 64)
    rho_s = sol.rho[::stride]
    coeffs = sol.v.coeffs[:, ::stride].ravel()
    # one row per mode and every stride-th node, the nodes of a mode together
    table = np.column_stack(
        [np.tile(rho_s, len(sol.v.modes)), np.repeat(sol.v.modes, len(rho_s), axis=0), coeffs.real, coeffs.imag]
    )
    s_path = write_csv(out / "solution.csv", ["rho", "mu_m", "mu_n", "re", "im"], table)
    # every (len(rho) // 24)-th radial node at every 4th collocation point:
    # default_colloc is a multiple of 4, so those points form the quarter grid
    md = leb.metric_difference_full(sol, leb.default_colloc(modes) // 4)
    ncol = md.difference.shape[1]
    B = lattice.basis
    nodes = np.s_[:: max(1, len(sol.rho) // 24)]
    j = np.arange(ncol) / ncol
    X1 = np.add.outer(B[0, 0] * j, B[0, 1] * j)
    X2 = np.add.outer(B[1, 0] * j, B[1, 1] * j)
    r = md.r[nodes]
    xy = np.broadcast_to(np.stack([X1, X2], axis=-1), r.shape + (2,))
    comps = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)]
    first, second = np.array(comps).T
    table = np.concatenate([r[..., None], xy, md.difference[nodes][..., first, second]], axis=-1)
    header = ["r", "x", "y"] + [f"d_{p}{q}" for (p, q) in comps]
    m_path = write_csv(out / "metric_difference.csv", header, table.reshape(-1, table.shape[-1]))
    return [fit_path, s_path, m_path]


def run(config: ExperimentConfig):
    """Execute an experiment; returns the manifest path (for ``report``, the summary)."""
    impl = {
        "fiducial": _run_fiducial,
        "glue-decay": _run_glue_decay,
        "toymodel": _run_toymodel,
        "lebrun": _run_lebrun,
    }
    if config.command == "report":
        summary = report(Path(_require(config.parameters, "dir")))
        out_file = config.parameters.get("out")
        if out_file:
            write_json(Path(out_file), summary)
        return summary
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    paths = impl[config.command](config.parameters, out)
    return write_manifest(out, config.command, config.parameters, paths)


def report(root: Path) -> dict:
    """Consolidate manifests under ``root`` into one summary (read-only)."""
    manifests = read_manifests(root)
    runs = []
    fits = {}
    toy_records = {}
    for man in manifests:
        entry = {"command": man["command"], "dir": man["_dir"], "parameters": man["parameters"]}
        d = Path(man["_dir"])
        if man["command"] == "glue-decay" and (d / "fit.json").exists():
            fit = json.loads((d / "fit.json").read_text())
            entry["fit"] = fit
            entry["pass"] = bool(fit["mu"] > 0 and fit["r2"] > 0.99)
        if man["command"] == "lebrun" and (d / "fit.json").exists():
            fit = json.loads((d / "fit.json").read_text())
            entry["fit"] = fit
            fits[str(man["parameters"].get("p0"))] = fit
        if man["command"] == "toymodel" and (d / "toymodel.json").exists():
            rec = json.loads((d / "toymodel.json").read_text())
            entry["constants"] = rec
            toy_records[str(man["parameters"].get("p0"))] = rec
        runs.append(entry)
    cross = []
    for key, fit in fits.items():
        if key in toy_records:
            lam2 = 2.0 * toy_records[key]["lambda_t"]
            cross.append(
                {
                    "p0": key,
                    "fitted_rate": fit["rate"],
                    "two_lambda_t": lam2,
                    "relative_defect": abs(fit["rate"] - lam2) / lam2,
                    "within_3_percent": bool(abs(fit["rate"] - lam2) / lam2 < 0.03),
                }
            )
    return {"version": __version__, "runs": runs, "cross_checks": cross}


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hitchinlab", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", type=Path, default=None)
        p.add_argument("--config", type=Path, default=None, help="flat key = value file; flags win")

    p = sub.add_parser("fiducial", help="local model fields and diagnostics")
    common(p)
    p.add_argument("--case", choices=list(_CASES))
    p.add_argument("--t", type=float)
    p.add_argument("--alpha1", type=float)
    p.add_argument("--sigma", type=str, help="weak-pole residue as re,im")
    p.add_argument("--n-r", dest="n_r", type=int)
    p.add_argument("--n-theta", dest="n_theta", type=int)
    p.add_argument("--r-min", dest="r_min", type=float)

    p = sub.add_parser("glue-decay", help="exponential error of the glued metric")
    common(p)
    p.add_argument("--case", choices=["simplezero", "strongpole"])
    p.add_argument("--alpha1", type=float)
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--tstep", type=float)
    p.add_argument("--r-on", dest="r_on", type=float)
    p.add_argument("--r-off", dest="r_off", type=float)
    p.add_argument("--n-r", dest="n_r", type=int)

    p = sub.add_parser("toymodel", help="four-punctured-sphere constants")
    common(p)
    p.add_argument("--p0", type=str)
    p.add_argument("--B", type=str)
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--r-points", dest="r_points", type=int)

    p = sub.add_parser("lebrun", help="reduced-equation solve and decay fit")
    common(p)
    p.add_argument("--p0", type=str)
    p.add_argument("--amp", type=float)
    p.add_argument("--rho-max", dest="rho_max", type=float)
    p.add_argument("--modes", type=int)
    p.add_argument("--rho-min", dest="rho_min", type=float)
    p.add_argument("--n-rho", dest="n_rho", type=int)

    p = sub.add_parser("report", help="aggregate manifests into a summary")
    p.add_argument("dir", type=Path)
    p.add_argument("--out", type=Path, default=None)
    return ap


def _load_config_file(path: Path, flags) -> dict:
    """The ``key = value`` lines of ``path``; every key must name one of ``flags`` (dests)."""
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in flags:
            names = ", ".join("--" + f.replace("_", "-") for f in flags)
            raise ValidationError(f"unknown config key {key!r}; this command takes {names}")
        out[key] = val
    return out


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "report":
            summary = run(ExperimentConfig("report", {"dir": args.dir, "out": args.out}))
            print(json.dumps(summary, sort_keys=True, indent=1))
            return 0
        # the subparser's own flags: every dest but these three
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "output_dir", "config")}
        params = _load_config_file(args.config, flags) if args.config else {}
        params.update((k, v) for k, v in flags.items() if v is not None)
        cfg = ExperimentConfig(args.command, params, args.output_dir)
        manifest = run(cfg)
        print(f"wrote {manifest}")
        return 0
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
