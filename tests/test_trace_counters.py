"""The benchmark's tracer still counts the Smith reduction and the
Maurer-Cartan residual.

``perfbench/tracer.py`` wraps the library's public functions from outside
and reads ``novmat.smith_calls`` and ``novmat.smith_pivots`` off the calls
to ``novmat.smith_valuations`` and the length of their results, and
``floer.residual_calls`` off the calls to ``floer.mc_residual``.  This runs
one small mc-hf job of the benchmark under an installed tracer, in this
process, and puts the library back afterwards.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench():
    sys.path.insert(0, str(PERFBENCH))
    import pipelines
    import tracer
    import workloads

    modules = {name: dict(vars(module)) for name, module in sys.modules.items()
               if name == tracer.PACKAGE or name.startswith(tracer.PACKAGE + ".")}
    methods = []
    for layer, cls_name, meth, _ in tracer.METHODS:
        cls = getattr(sys.modules[f"{tracer.PACKAGE}.{layer}"], cls_name)
        methods.append((cls, meth, cls.__dict__[meth]))
    try:
        yield tracer, pipelines, workloads
    finally:
        for name, saved in modules.items():
            vars(sys.modules[name]).update(saved)
        for cls, meth, saved in methods:
            setattr(cls, meth, saved)
        sys.path.remove(str(PERFBENCH))


def test_smith_counters_are_traced_on_an_mc_hf_job(bench):
    tracer, pipelines, workloads = bench
    import ainfkit as ak
    from ainfkit import cli

    _, cls, doc, oracle = next(workloads.WORKLOADS["mc-hf"].instances(1))
    assert cls == "P4"
    document = cli.parse_document(doc)
    trace = tracer.Tracer()
    trace.install()
    trace.start()
    _, state = pipelines.mc_hf(ak, cli, document, False)
    trace.stop()
    assert pipelines.verify(ak, "mc-hf", state, oracle) is None
    layers = trace.summary(1)
    # one reduction per degree block: h3 (-1), the pairs (0, 1), h0 (2)
    assert layers["novmat.smith_calls"] == (4, "count")
    assert layers["novmat.smith_pivots"][0] > 0
    assert layers["novmat.self_s"][0] > 0
    # mc_solve certifies with one full residual; the levels enumerate only
    # the b-insertions of their own energy
    assert layers["floer.residual_calls"] == (1, "count")
