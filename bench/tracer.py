"""Span tracer that wraps the public functions of the hitchinlab modules.

Spans are recorded from the benchmark's side of each call: the tracer
replaces every binding of a target function (found by object identity
across all loaded ``hitchinlab.*`` modules, so ``from .special import
bessel_k`` copies are caught too) with a wrapper, and restores the
originals on exit.  Private kernels are not wrapped.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


def _points(args, kwargs, result):
    import numpy as np

    x = args[1] if len(args) > 1 else kwargs["x"]
    return int(np.size(x))


def _bytes(args, kwargs, result):
    return Path(result).stat().st_size


@dataclass(frozen=True)
class Target:
    """A public function ``module.qualname`` and an optional extra counter."""

    module: str
    qualname: str
    extra: str | None = None
    extra_unit: str = "count"
    measure: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


TARGETS = (
    Target("special", "bessel_k", "points", measure=_points),
    Target("special", "inverse_lambda"),
    Target("special", "jacobi_theta"),
    Target("painleve", "ell_profile"),
    Target("painleve", "m_profile"),
    Target("fiducial", "fiducial_fields"),
    Target("fiducial", "assemble_fields"),
    Target("fiducial", "hitchin_residual"),
    Target("fiducial", "FieldSample.to_json"),
    Target("glue", "decay_sweep"),
    Target("glue", "approx_metric"),
    Target("glue", "fit_exponential_decay"),
    Target("toymodel", "csk"),
    Target("toymodel", "ToyConfig.from_p0"),
    Target("toymodel", "gmn_correction"),
    Target("lebrun", "solve_nonlinear"),
    Target("lebrun", "nonlinear_residual"),
    Target("lebrun", "metric_difference_full"),
    Target("lebrun", "fit_decay"),
    Target("lebrun", "TorusLattice.min_dual_norm"),
    Target("artifacts", "write_csv", "bytes", "bytes", _bytes),
    Target("artifacts", "write_json", "bytes", "bytes", _bytes),
    Target("artifacts", "write_manifest"),
    Target("cli", "run"),
)


def metric_units(targets=TARGETS) -> dict:
    """Units of the per-layer metrics ``Tracer.summary`` reports, in order."""
    units = {}
    for t in targets:
        units.update({f"{t.name}.calls": "count", f"{t.name}.s": "s", f"{t.name}.self_s": "s"})
        if t.extra:
            units[f"{t.name}.{t.extra}"] = t.extra_unit
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    outermost: bool = True  # no enclosing span of the same name
    extra: int = 0


@dataclass
class Tracer:
    targets: tuple = TARGETS
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            outermost = all(self.spans[i].name != target.name for i in self._stack)
            span = Span(target.name, self.clock(), parent=parent, outermost=outermost)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if target.measure is not None:
                span.extra = target.measure(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of each target while the block runs."""
        modules = [m for n, m in list(sys.modules.items()) if n == "hitchinlab" or n.startswith("hitchinlab.")]
        patches = []
        try:
            for target in self.targets:
                owner = sys.modules[f"hitchinlab.{target.module}"]
                *outer, attr = target.qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                if outer:  # a method: patch the class, which every binding shares
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(target, raw.__func__))
                    else:
                        wrapped = self.wrap(target, raw)
                    patches.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                wrapped = self.wrap(target, raw)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is raw:
                            patches.append((mod, name, raw))
                            setattr(mod, name, wrapped)
            yield self
        finally:
            for owner, name, raw in reversed(patches):
                setattr(owner, name, raw)

    def self_times(self) -> list:
        """Each span's duration minus the part of it that its children cover."""
        children: dict = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(i, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((s.end - s.start) - covered)
        return out

    def summary(self) -> dict:
        """Per-layer metrics: calls, inclusive and self seconds, extra counters."""
        out = {name: 0.0 if unit == "s" else 0 for name, unit in metric_units(self.targets).items()}
        extras = {t.name: t.extra for t in self.targets}
        for s, self_s in zip(self.spans, self.self_times()):
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += self_s
            if s.outermost:
                out[f"{s.name}.s"] += s.end - s.start
            if extras[s.name]:
                out[f"{s.name}.{extras[s.name]}"] += s.extra
        return out
