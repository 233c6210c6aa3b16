"""The benchmark tracer wraps feigdim functions by name.

A renamed or removed function would only show up in the bench's
`trace_missing` list while its metrics silently vanish, so every target
must resolve here. The tracer is compiled from its source rather than
imported, so no bytecode is written next to it.
"""
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def test_tracer_targets_resolve_to_callables():
    with open(TRACER) as fh:
        namespace = {"__name__": "perfbench_tracer"}
        exec(compile(fh.read(), TRACER, "exec"), namespace)
    targets = namespace["Tracer"]()._targets()
    assert targets
    for home, attr, _ in targets:
        target = getattr(importlib.import_module(home), attr, None)
        assert callable(target), f"{home}.{attr} is not a callable"
