"""Benchmark of the hitchinlab command-line experiments.

    python3 bench/run.py --workload lebrun-decay --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py``) through ``hitchinlab.cli.run`` in
this process, pass after pass, until ``--seconds`` have elapsed (at least
three passes).  Every operation's artifacts are checked against an
independent reference and hashed; an exception, a failed gate or an
artifact whose bytes change between passes counts as a failed operation.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes, reports the per-layer metrics of the
traced ones plus the tracing overhead, and writes every span to
``.bench_out/<workload>/spans.json``.  The last line of standard output is
the result as one JSON object; the line before it records the environment
and the per-operation detail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from stats import FailureTally, digest_dir, digest_mismatches, median, quartiles, tail_percentile
from tracer import Tracer, metric_units
from workloads import WORKLOADS, build

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
# At least three passes, so that artifacts are compared across passes and
# one pass disturbed by other load on the machine weighs little.
MIN_PASSES = 3
# BLAS threads are pinned (at most nproc) before numpy loads, so that
# figures do not depend on how many idle cores a shared machine has.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_SETUP_CODE = (
    "import time; t = time.perf_counter(); import scipy, hitchinlab.cli; "
    "print(repr(time.perf_counter() - t))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


@dataclass
class OpResult:
    wall: float
    cpu: float
    error: str | None
    defect: float | None
    digests: dict = field(default_factory=dict)


@dataclass
class PassResult:
    ops: list
    tracer: Tracer | None = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.ops)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.ops)


def measure_setup(n: int) -> list:
    """Seconds to import scipy and hitchinlab in ``n`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_pass(ops, out_root: Path, tracer=None) -> PassResult:
    from hitchinlab import cli

    results = []
    for i, op in enumerate(ops):
        out = out_root / f"op{i}"
        shutil.rmtree(out, ignore_errors=True)
        cfg = cli.ExperimentConfig(op.command, dict(op.params), out)
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with tracer.installed() if tracer else nullcontext():
                cli.run(cfg)  # looked up per call, so the tracer's wrapper is seen
        except Exception as exc:  # a failed op is counted, and the pass goes on
            error = type(exc).__name__
            traceback.print_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        defect, digests = None, {}
        if error is None:
            try:
                defect = op.check(out)
            except Exception as exc:  # a wrong or unreadable output is a failed op
                error = type(exc).__name__
                print(f"check failed: op {i} {op.command} {op.params}: {exc!r}", file=sys.stderr)
            digests = digest_dir(out)
        results.append(OpResult(wall, cpu, error, defect, digests))
    return PassResult(results, tracer)


def measure(ops, seconds: float, trace: bool, out_root: Path):
    """Run passes for ``seconds`` (at least MIN_PASSES); count failures and mismatches."""
    tally = FailureTally()
    reference: dict = {}
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        result = run_pass(ops, out_root, Tracer() if traced else None)
        for i, r in enumerate(result.ops):
            if r.error is None:
                ref = reference.setdefault(i, r.digests)
                if digest_mismatches(ref, r.digests):
                    r.error = "NondeterministicArtifact"
                    print(f"artifacts of op {i} differ from its first pass", file=sys.stderr)
            tally.record(r.error)
        passes.append(result)
    return passes, tally


def end_to_end(ops, passes, setup_samples) -> dict:
    defects = [r.defect for p in passes for op, r in zip(ops, p.ops) if op.fixed and r.defect is not None]
    worst = max(defects) if defects else 1.0
    return {
        "setup_s": median(setup_samples),
        # time per pass over the whole run: a shared 2-vCPU Xeon VM was seen
        # to switch between a fast and a 1.6x slower state every 5-25 s; the
        # mean weighs both by the time spent in them, where the median of a
        # few passes jumps from one to the other
        "wall_s": statistics.fmean(p.wall for p in passes),
        "cpu_s": statistics.fmean(p.cpu for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # digits of agreement with the reference: -log10 of the worst defect
        # among the workload's fixed configurations
        "accuracy_digits": -math.log10(max(worst, 1e-300)),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    summaries = [p.tracer.summary() for p in traced]
    out = {name: median(s[name] for s in summaries) for name in summaries[0]}
    out["trace.overhead_s"] = median(p.wall for p in traced) - median(p.wall for p in plain)
    return out


def write_spans(passes, path: Path) -> None:
    """Every span of the traced passes, as a JSON list."""
    path.write_text(json.dumps([
        {"pass": k, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
        for k, p in enumerate(passes) if p.traced for s in p.tracer.spans
    ]))


def detail(ops, passes, tally, setup_samples, env) -> dict:
    op_walls = [r.wall for p in passes if not p.traced for r in p.ops]
    tail = tail_percentile(op_walls)
    defects = [r.defect for p in passes for r in p.ops if r.defect is not None]
    return {
        "environment": env,
        "passes": len(passes),
        "ops_per_pass": len(passes[0].ops),
        "pass_wall_s": [p.wall for p in passes],
        "pass_wall_s_median": median(p.wall for p in passes if not p.traced),
        "op_wall_s": {"samples": len(op_walls), "median": median(op_walls),
                      "quartiles": quartiles(op_walls),
                      "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]}},
        "setup_s_samples": setup_samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.fail_frac,
        "failures_by_class": dict(tally.by_class),
        "worst_defect": max(defects) if defects else None,
        "ops": [
            {"command": op.command, "parameters": op.params,
             "wall_s_median": median(p.ops[i].wall for p in passes if not p.traced),
             "errors": sorted({p.ops[i].error for p in passes} - {None})}
            for i, op in enumerate(ops)
        ],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hitchinlab" / "__init__.py").is_file():
        print(f"error: no hitchinlab sources under {SRC}", file=sys.stderr)
        return 2
    setup_samples = measure_setup(SETUP_SAMPLES)
    sys.path.insert(0, str(SRC))
    import hitchinlab.cli  # noqa: F401  (imported before the first timed op)

    ops = build(args.workload, args.seed)
    out_root = OUT / args.workload
    passes, tally = measure(ops, args.seconds, bool(args.trace), out_root)

    if args.trace:
        metrics = per_layer(passes)
        write_spans(passes, out_root / "spans.json")
        units = {**metric_units(), "trace.overhead_s": "s"}
    else:
        metrics = end_to_end(ops, passes, setup_samples)
        units = END_TO_END_UNITS
    print(json.dumps(detail(ops, passes, tally, setup_samples, environment(args.seed))))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    raise SystemExit(main())
