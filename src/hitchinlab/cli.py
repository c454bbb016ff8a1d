"""Reproducible experiment runner.

Subcommands
-----------
fiducial    build a radial local model, report its self-duality residual and
            linearization data, write the model as JSON: the case, t,
            radial grid and profile a ``FieldSample`` holds
glue-decay  sweep the glued-metric error over t and fit the exponential rate
toymodel    derived constants of the four-punctured-sphere geometry plus the
            predicted metric correction on a radial grid
lebrun      perturbative solve of the reduced equation, decay-rate fit, and
            the metric difference from the semiflat model
report      aggregate the manifests of previous runs into one summary

Each command's argparse flags define its parameters (name, type, default,
choices), on the command line and through ``run(ExperimentConfig(...))``
alike.  Every run writes CSV/JSON artifacts plus a manifest (the effective
parameters, package version, sha256 checksums), byte-identical across
reruns.  A ``key = value`` config file stands in for flags (later flags
win); HITCHINLAB_OUTPUT overrides the default output directory.  Every
error, argparse's own included, is one ``error:`` line with exit status 1.
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
from .artifacts import MissingManifestError, read_manifests, write_csv, write_json, write_manifest, write_text
from .painleve import ParabolicWeights

__all__ = ["ExperimentConfig", "run", "report", "main"]


class ValidationError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """A command, its parameters keyed by flag (``n_r`` for ``--n-r``), and an output directory."""

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


# ----------------------------------------------------------------------
# experiment implementations
# ----------------------------------------------------------------------

_CASES = {"simplezero": fid.CaseKind.SIMPLE_ZERO,
          "strongpole": fid.CaseKind.STRONG_POLE,
          "weakpole": fid.CaseKind.WEAK_POLE}


def _case_from(args) -> fid.LocalCase:
    kind = _CASES[args.case]
    weights = None
    residue = None
    if kind in (fid.CaseKind.STRONG_POLE, fid.CaseKind.WEAK_POLE):
        if args.alpha1 is None:
            raise ValidationError(f"--case {args.case} requires --alpha1")
        weights = ParabolicWeights(args.alpha1, 1.0 - args.alpha1)
    if kind is fid.CaseKind.WEAK_POLE:
        if args.sigma is None:
            raise ValidationError("--case weakpole requires --sigma")
        residue = _parse_complex(args.sigma)
    return fid.LocalCase(kind, weights, residue)


def _radial_grid(args, r_max: float = 1.0, r_on: float = 0.0, **grid) -> np.ndarray:
    """The ``args.n_r`` radial nodes (``grid`` holds further ``fid.polar_grid`` arguments).

    An --n-r that leaves ``fid.residual_nodes`` no node in [r_on, r_max] fails here, before any solve.
    """
    if args.n_r < 4:
        raise ValidationError(f"--n-r {args.n_r} is too small: polar_grid needs at least 4 radial nodes")
    r = fid.polar_grid(r_max=r_max, n_r=args.n_r, **grid)
    try:
        fid.residual_nodes(r, (r_on, r_max))
    except ValueError as exc:
        raise ValidationError(f"--n-r {args.n_r} leaves no residual node in [{r_on:g}, {r_max:g}]: {exc}") from exc
    return r


def _run_fiducial(args, out: Path):
    case = _case_from(args)
    r = _radial_grid(args, r_min=args.r_min)
    sample = fid.fiducial_fields(case, args.t, r)
    residual = fid.hitchin_residual(sample)
    roots = fid.indicial_roots(case, (-2.0, 2.0))
    eigs = {
        f"{r[i]:.6g}": list(fid.mphi_eigenvalues(case, float(r[i]), float(sample.xi[i])))
        for i in (0, len(r) // 2, -1)
    }
    fields_path = write_text(out / "fields.json", sample.to_json())
    summary = {
        "case": case.kind.value,
        "t": args.t,
        "hitchin_residual": residual,
        "indicial_roots_[-2,2]": roots,
        "mphi_eigenvalues": eigs,
        "f_values_range": [float(sample.f_values.min()), float(sample.f_values.max())],
    }
    s_path = write_json(out / "summary.json", summary)
    return [fields_path, s_path]


def _run_glue_decay(args, out: Path):
    case = _case_from(args)
    if not (math.isfinite(args.tmin) and math.isfinite(args.tmax)):
        raise ValidationError(f"tmin and tmax must be finite, got {args.tmin}, {args.tmax}")
    if not (math.isfinite(args.tstep) and args.tstep > 0):
        raise ValidationError(f"tstep must be positive and finite, got {args.tstep}")
    # np.arange below makes ceil of this quotient t values, and the fit needs 4
    if not (args.tmax + 0.5 * args.tstep - args.tmin) / args.tstep > 3:
        raise ValidationError(
            f"--tmin {args.tmin:g} to --tmax {args.tmax:g} by --tstep {args.tstep:g} gives fewer than 4 t values"
        )
    spec = glue.CutoffSpec(args.r_on, args.r_off)
    r = _radial_grid(args, spec.r_off, spec.r_on)
    ts = list(np.arange(args.tmin, args.tmax + 0.5 * args.tstep, args.tstep))
    samples = glue.decay_sweep(case, ts, spec, r)
    fit = glue.fit_exponential_decay(samples)
    csv_path = write_csv(out / "decay.csv", ["t", "residual"], samples)
    fit_path = write_json(out / "fit.json", {"c": fit.c, "mu": fit.mu, "r2": fit.r2})
    return [csv_path, fit_path]


def _run_toymodel(args, out: Path):
    p0 = _parse_complex(args.p0)
    B = _parse_complex(args.B)
    if not 0.0 < args.r_min < args.r_max < math.inf:
        raise ValidationError(f"need 0 < r_min < r_max < inf, got r_min={args.r_min}, r_max={args.r_max}")
    if args.r_points < 2:
        raise ValidationError(f"--r-points must be at least 2, got {args.r_points}")
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
    r_grid = np.geomspace(args.r_min, args.r_max, args.r_points)
    g = toy.gmn_correction(cfg, r_grid)
    table = np.column_stack([r_grid, g[:, 0, 0], g[:, 1, 1]])
    c_path = write_csv(out / "gmn_correction.csv", ["r", "coeff_rr", "coeff_thetatheta"], table)
    return [j_path, c_path]


def _run_lebrun(args, out: Path):
    p0 = _parse_complex(args.p0)
    if args.n_rho < leb.FIT_MIN_NODES:
        raise ValidationError(
            f"--n-rho {args.n_rho} is too small: the decay fit needs at least {leb.FIT_MIN_NODES} radial nodes"
        )
    if args.amp == 0:
        raise ValidationError("--amp 0 gives no inner data: the solution is v = 0, which has no decay to fit")
    lattice = toy.ToyConfig.from_p0(p0).torus
    m, n = lattice.min_dual_norm()[1][0]
    sol = leb.solve_nonlinear(
        {(m, n): args.amp / 2.0, (-m, -n): args.amp / 2.0},
        args.rho_max,
        args.modes,
        lattice,
        rho_min=args.rho_min,
        n_rho=args.n_rho,
    )
    rate, power = leb.fit_decay(sol)
    fit_path = write_json(
        out / "fit.json",
        {
            "rate": rate,
            "rate_over_2lambdaT": rate / (2.0 * sol.lambda_t),
            "prefactor_exponent": power,
            "lambda_t": sol.lambda_t,
            "p0": p0,
        },
    )
    stride = max(1, len(sol.rho) // 64)
    rho_s = sol.rho[::stride]
    # the half lattice the solve stores: the mean mode and one mode of each
    # +-mu pair; the other half is coeff(-mu) = conj coeff(mu).  One row per
    # mode and every stride-th node, the nodes of a mode together
    modes = sol.v.modes
    coeffs = sol.v.coeffs[:, ::stride].ravel()
    table = np.column_stack(
        [np.tile(rho_s, len(modes)), np.repeat(modes, len(rho_s), axis=0), coeffs.real, coeffs.imag]
    )
    s_path = write_csv(out / "solution.csv", ["rho", "mu_m", "mu_n", "re", "im"], table)
    # evaluated only where written: every (len(rho) // 24)-th radial node, on
    # the quarter grid (default_colloc is a multiple of 4: its every 4th point)
    md = leb.metric_difference_full(
        sol, leb.default_colloc(args.modes) // 4, nodes=np.s_[:: max(1, len(sol.rho) // 24)]
    )
    ncol = md.difference.shape[1]
    B = lattice.basis
    j = np.arange(ncol) / ncol
    X1 = np.add.outer(B[0, 0] * j, B[0, 1] * j)
    X2 = np.add.outer(B[1, 0] * j, B[1, 1] * j)
    xy = np.broadcast_to(np.stack([X1, X2], axis=-1), md.r.shape + (2,))
    # g_r theta = g_xy = 0 and g_yy = g_xx hold exactly: d_01, d_23 and d_33 are not written
    comps = [(0, 0), (1, 1), (2, 2), (0, 2), (0, 3), (1, 2), (1, 3)]
    first, second = np.array(comps).T
    table = np.concatenate([md.r[..., None], xy, md.difference[..., first, second]], axis=-1)
    header = ["r", "x", "y"] + [f"d_{p}{q}" for (p, q) in comps]
    m_path = write_csv(out / "metric_difference.csv", header, table.reshape(-1, table.shape[-1]))
    return [fit_path, s_path, m_path]


def run(config: ExperimentConfig):
    """Execute an experiment; returns the manifest path (for ``report``, the summary).

    The parameters are read through the command's subparser, so an unknown
    key, a value of the wrong type and a missing required value raise
    ``ValidationError`` before any work.  The first artifact written makes
    the output directory, so a run that fails before writing leaves none.
    """
    args = _COMMANDS[config.command].parse_args(_tokens(config.parameters.items()))
    if config.command == "report":
        summary = report(args.dir)
        if args.out:
            write_json(args.out, summary)
        return summary
    out = config.output_dir
    paths = args.impl(args, out)
    return write_manifest(out, config.command, _parameters(args), paths)


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
            fits[(fit["p0"]["re"], fit["p0"]["im"])] = fit
        if man["command"] == "toymodel" and (d / "toymodel.json").exists():
            rec = json.loads((d / "toymodel.json").read_text())
            entry["constants"] = rec
            toy_records[(rec["p0"]["re"], rec["p0"]["im"])] = rec
        runs.append(entry)
    cross = []
    for key, fit in fits.items():
        if key in toy_records:
            lam2 = 2.0 * toy_records[key]["lambda_t"]
            cross.append(
                {
                    "p0": fit["p0"],
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

class _Parser(argparse.ArgumentParser):
    """An argument parser whose every error raises ``ValidationError``."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> tuple[_Parser, dict]:
    """The one definition of every command's parameters: name, type, default, choices.

    Returns the top-level parser and each command's subparser by name.
    """
    ap = _Parser(prog="hitchinlab", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def experiment(name, impl, help):
        # no prefix matching: a parameter names its flag in full ("tma" is no tmax)
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(impl=impl)
        p.add_argument("--output-dir", type=Path, default=None)
        p.add_argument("--config", type=Path, default=None, help="flat key = value file; later flags win")
        return p

    p = experiment("fiducial", _run_fiducial, help="local model fields and diagnostics")
    p.add_argument("--case", choices=list(_CASES), required=True)
    p.add_argument("--t", type=float, default=4.0)
    p.add_argument("--alpha1", type=float)
    p.add_argument("--sigma", type=str, help="weak-pole residue as re,im")
    p.add_argument("--n-r", type=int, default=1024)
    p.add_argument("--r-min", type=float, default=1e-3)

    p = experiment("glue-decay", _run_glue_decay, help="exponential error of the glued metric")
    p.add_argument("--case", choices=["simplezero", "strongpole"], required=True)
    p.add_argument("--alpha1", type=float)
    p.add_argument("--tmin", type=float, default=4.0)
    p.add_argument("--tmax", type=float, default=16.0)
    p.add_argument("--tstep", type=float, default=2.0)
    p.add_argument("--r-on", type=float, default=0.5)
    p.add_argument("--r-off", type=float, default=1.0)
    p.add_argument("--n-r", type=int, default=4096)

    p = experiment("toymodel", _run_toymodel, help="four-punctured-sphere constants")
    p.add_argument("--p0", type=str, required=True)
    p.add_argument("--B", type=str, default="1,0")
    p.add_argument("--r-min", type=float, default=1.0)
    p.add_argument("--r-max", type=float, default=100.0)
    p.add_argument("--r-points", type=int, default=40)

    p = experiment("lebrun", _run_lebrun, help="reduced-equation solve and decay fit")
    p.add_argument("--p0", type=str, required=True)
    p.add_argument("--amp", type=float, default=0.1)
    p.add_argument("--rho-max", type=float)
    p.add_argument("--modes", type=int, default=3)
    p.add_argument("--rho-min", type=float, default=0.5)
    p.add_argument("--n-rho", type=int, default=1401)

    p = sub.add_parser("report", help="aggregate manifests into a summary", allow_abbrev=False)
    p.add_argument("dir", type=Path)
    p.add_argument("--out", type=Path, default=None)
    return ap, sub.choices


_PARSER, _COMMANDS = _build_parser()


def _tokens(parameters) -> list:
    """(key, value) pairs as ``--key=value`` tokens (the ``=`` keeps a value such as
    ``-0.2,0.5`` from reading as a flag), None values dropped; report's ``dir`` is positional."""
    tokens = []
    for key, value in parameters:
        flag = "--" + key.replace("_", "-")
        if flag in ("--config", "--output-dir"):
            raise ValidationError(f"{flag} is a command-line flag, not a parameter")
        if value is not None:
            tokens.append(str(value) if key == "dir" else f"{flag}={value}")
    return tokens


def _parameters(args) -> dict:
    """The effective parameters of a parsed command, defaults included."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "impl", "config", "output_dir")}


def _with_config_file(argv: list) -> list:
    """``argv`` with its ``--config`` file's ``key = value`` lines as tokens right after
    the command, so that the flags of ``argv`` itself come later and win."""
    for i, token in enumerate(argv):
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
        elif token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        else:
            continue
        pairs = []
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"bad config line: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            pairs.append((key, value))
        return argv[:1] + _tokens(pairs) + argv[1:]
    return argv


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(_with_config_file(argv))
        result = run(ExperimentConfig(args.command, _parameters(args), getattr(args, "output_dir", None)))
        print(json.dumps(result, sort_keys=True, indent=1) if args.command == "report" else f"wrote {result}")
        return 0
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
