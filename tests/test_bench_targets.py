"""The benchmark's per-layer tracer still finds every function it traces."""

from pathlib import Path

import hitchinlab.cli  # noqa: F401  (loads every module the tracer patches)
from hitchinlab import fiducial

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_targets_resolve(monkeypatch):
    # installing raises KeyError (or AttributeError) for a target that was
    # renamed, moved or deleted, which would break a traced benchmark run
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    original = fiducial.assemble_fields
    with tracer.Tracer().installed():
        assert fiducial.assemble_fields is not original
    assert fiducial.assemble_fields is original
