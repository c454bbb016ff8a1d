"""The benchmark's per-layer tracer still finds every function it traces, and sees every call."""

from pathlib import Path

import pytest

from hitchinlab import fiducial, lebrun, painleve
from hitchinlab.cli import ExperimentConfig, run  # loads every module the tracer patches

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


def test_traced_lebrun_op_records_min_dual_norm(monkeypatch, tmp_path):
    # TorusLattice lives in toymodel and is traced through lebrun's binding;
    # a lebrun op must still record its shortest-shell calls, not read 0
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    tr = tracer.Tracer()
    with tr.installed():
        run(ExperimentConfig("lebrun", {"p0": "0.3,0", "amp": 0.1, "modes": 2, "n_rho": 41}, tmp_path / "leb"))
    assert tr.summary()["lebrun.TorusLattice.min_dual_norm.calls"] >= 1


@pytest.mark.parametrize(
    "params, calls",
    [
        ({"p0": "0.3,0", "amp": 0.1, "modes": 3}, 10),
        ({"p0": "-0.15814436059767784,0.5558939790995723", "amp": 0.1381887309488307, "modes": 2}, 12),
    ],
    ids=["criterion-9", "seeded"],
)
def test_lebrun_residual_evaluations(monkeypatch, tmp_path, params, calls):
    # the criterion-9 op and a seeded lebrun-decay op: a solver change that
    # adds or drops a Newton iteration, or stops calling the traced
    # lebrun.nonlinear_residual, changes these counts
    count = []
    residual = lebrun.nonlinear_residual

    def counting(*args, **kwargs):
        count.append(1)
        return residual(*args, **kwargs)

    monkeypatch.setattr(lebrun, "nonlinear_residual", counting)
    run(ExperimentConfig("lebrun", dict(params), tmp_path / "leb"))
    assert len(count) == calls


@pytest.mark.parametrize(
    "params, steps",
    [
        ({"case": "simplezero"}, 21),
        ({"case": "strongpole", "alpha1": 0.4}, 3),
        ({"case": "strongpole", "alpha1": 0.2}, 2),
    ],
    ids=["simplezero", "strongpole-0.4", "strongpole-0.2"],
)
def test_sinh_gordon_newton_steps(monkeypatch, tmp_path, params, steps):
    # the three criterion-5 glue-decay ops: a solver change that adds or
    # drops a Newton step, or a node-set doubling, of the profiles behind
    # h_t^app changes these counts; each pole sweep is one collocation
    # (its 7 t values share the inner end 0.02), the simple zero's are 7
    count = []
    newton = painleve.damped_newton

    def counting(x, residual, step, *args):
        def counted(*step_args):
            count.append(1)
            return step(*step_args)

        return newton(x, residual, counted, *args)

    monkeypatch.setattr(painleve, "damped_newton", counting)
    sweep = {"tmin": 4, "tmax": 16, "tstep": 2, "n_r": 4096}
    run(ExperimentConfig("glue-decay", {**params, **sweep}, tmp_path / "glue"))
    assert len(count) == steps


@pytest.mark.parametrize("p0", ["0.3,0.1", "0.04,0"])
def test_toymodel_correction_evaluations(monkeypatch, tmp_path, p0):
    # one toymodel op evaluates its K0 correction table in one call, on all
    # 40 default r nodes at once; a return to a per-r loop multiplies the
    # traced toymodel.gmn_correction and special.bessel_k calls by 40
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    tr = tracer.Tracer()
    with tr.installed():
        run(ExperimentConfig("toymodel", {"p0": p0}, tmp_path / "toy"))
    names = ("toymodel.gmn_correction", "special.bessel_k")
    spans = [s for s in tr.spans if s.name in names]
    assert [s.name for s in spans] == list(names)
    assert spans[1].extra == 40  # bessel_k points


def test_traced_fiducial_op_records_every_layer(monkeypatch, tmp_path):
    # the glue-fiducial workload's fiducial layers must still record calls
    # on a solved model, not read 0
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    tr = tracer.Tracer()
    with tr.installed():
        run(ExperimentConfig("fiducial", {"case": "simplezero", "n_r": 64}, tmp_path / "fid"))
    summary = tr.summary()
    for name in ("fiducial_fields", "assemble_fields", "hitchin_residual", "FieldSample.to_json"):
        assert summary[f"fiducial.{name}.calls"] >= 1, name
