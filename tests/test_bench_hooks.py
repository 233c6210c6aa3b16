"""The benchmark tracer wraps feigdim functions by name.

A renamed or removed function would only show up in the bench's
`trace_missing` list while its metrics silently vanish, so every target
must resolve here; the arguments the tracer binds by name (j_margin, n, x)
must bind, which a small traced pipeline checks. The tracer is compiled
from its source rather than imported, so no bytecode is written next to it.
"""
import importlib
import os

import feigdim as fd

from conftest import solve_ell

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def _tracer():
    with open(TRACER) as fh:
        namespace = {"__name__": "perfbench_tracer"}
        exec(compile(fh.read(), TRACER, "exec"), namespace)
    return namespace["Tracer"]()


def test_tracer_targets_resolve_to_callables():
    targets = _tracer()._targets()
    assert targets
    for home, attr, _ in targets:
        target = getattr(importlib.import_module(home), attr, None)
        assert callable(target), f"{home}.{attr} is not a callable"


def test_traced_pipeline_binds_every_hook(tmp_path):
    tracer = _tracer()
    tracer.install()
    try:
        path = fd.save_fixed_point(solve_ell(2), str(tmp_path))
        sys = fd.build_system(fd.load_fixed_point(path))
        ps = fd.build_presentation(sys)
        fd.hausdorff_dimension(sys)
        fd.moran_oracle(ps, n=2)
    finally:
        tracer.uninstall()
    assert tracer.self_check() == []
    assert tracer.missing == []
    metrics = tracer.metrics()
    for name in ("presentation.build.calls", "unimodal.critical_orbit.steps",
                 "presentation.letter_jets.letter_points"):
        assert metrics[name] > 0, name
