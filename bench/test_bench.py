"""Tests of the benchmark's own code: statistics, tracer, failure counting,
artifact comparison and seeded workload generation."""

import statistics
import sys
import types

import pytest

from stats import FailureTally, digest_dir, digest_mismatches, median, quartiles, tail_percentile
from tracer import Target, Tracer, metric_units
from workloads import build


def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert median(values) == 3.5
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)


@pytest.mark.parametrize(
    "n, percentile",
    [(9, None), (19, None), (20, 50), (39, 50), (40, 75), (100, 90), (199, 90), (200, 95), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile):
    values = [float(i) for i in range(n)]
    tail = tail_percentile(values)
    if percentile is None:
        assert tail is None
        return
    p, value = tail
    assert p == percentile
    assert value == statistics.quantiles(values, n=100)[p - 1]
    assert sum(v > value for v in values) >= 10


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_with_nested_and_repeated_spans():
    # outer [0, 10] calls inner twice: [1, 3] and [4, 8]; the second inner
    # call nests leaf [5, 6].
    tracer = Tracer(targets=(), clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    leaf = tracer.wrap(Target("m", "leaf"), lambda: None)

    def inner_body(nested):
        if nested:
            leaf()

    inner = tracer.wrap(Target("m", "inner"), inner_body)
    outer = tracer.wrap(Target("m", "outer"), lambda: (inner(False), inner(True)))
    outer()
    names = [s.name for s in tracer.spans]
    assert names == ["m.outer", "m.inner", "m.inner", "m.leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    assert tracer.self_times() == [10 - 2 - 4, 2, 4 - 1, 1]


def test_recursive_span_counts_once_in_inclusive_time():
    target = Target("m", "rec")
    tracer = Tracer(targets=(target,), clock=FakeClock([0, 2, 5, 9]))

    def body(depth):
        if depth:
            traced(depth - 1)

    traced = tracer.wrap(target, body)
    traced(1)
    summary = tracer.summary()
    assert summary["m.rec.calls"] == 2
    assert summary["m.rec.s"] == 9  # the nested call lies inside the outer one
    assert summary["m.rec.self_s"] == (9 - 3) + 3


def test_tracer_wraps_every_binding_and_restores(monkeypatch):
    def work(x):
        return 2 * x

    class Box:
        @classmethod
        def make(cls, x):
            return sys.modules["hitchinlab.lib"].work(x) + 1

    lib = types.ModuleType("hitchinlab.lib")
    lib.work, lib.Box = work, Box
    user = types.ModuleType("hitchinlab.user")
    user.work = work  # a ``from .lib import work`` copy
    monkeypatch.setitem(sys.modules, "hitchinlab.lib", lib)
    monkeypatch.setitem(sys.modules, "hitchinlab.user", user)
    targets = (Target("lib", "work", "points", measure=lambda a, k, r: a[0]), Target("lib", "Box.make"))

    raw_make = vars(Box)["make"]
    tracer = Tracer(targets=targets)
    with tracer.installed():
        assert user.work(3) == 6
        assert lib.Box.make(4) == 9
    assert lib.work is work and user.work is work
    assert vars(Box)["make"] is raw_make
    assert Box.make(1) == 3
    summary = tracer.summary()
    assert summary["lib.work.calls"] == 2
    assert summary["lib.work.points"] == 7
    assert summary["lib.Box.make.calls"] == 1
    assert list(summary) == list(metric_units(targets))


def test_fail_frac_counts_by_exception_class():
    tally = FailureTally()
    for error in (None, "GateError", None, "QuadratureToleranceError", "GateError"):
        tally.record(error)
    assert tally.attempted == 5
    assert tally.failed == 3
    assert tally.fail_frac == pytest.approx(0.6)
    assert tally.by_class == {"GateError": 2, "QuadratureToleranceError": 1}
    assert FailureTally().fail_frac == 0.0


def test_determinism_comparer(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n")
    (tmp_path / "m.json").write_text("{}\n")
    reference = digest_dir(tmp_path)
    assert digest_mismatches(reference, digest_dir(tmp_path)) == []
    (tmp_path / "a.csv").write_text("1,3\n")
    (tmp_path / "extra.json").write_text("[]\n")
    assert digest_mismatches(reference, digest_dir(tmp_path)) == ["a.csv", "extra.json"]
    assert digest_mismatches(reference, {}) == ["a.csv", "m.json"]


@pytest.mark.parametrize("workload", ["lebrun-decay", "glue-fiducial", "toy-sweep"])
def test_workloads_are_a_function_of_the_seed(workload):
    first = [(op.command, op.params) for op in build(workload, 7)]
    assert first == [(op.command, op.params) for op in build(workload, 7)]
    assert first != [(op.command, op.params) for op in build(workload, 8)]
