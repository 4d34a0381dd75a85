"""The benchmark's tracer wraps nilp2 functions by name; a rename that
leaves one of its targets behind must fail here, not in the benchmark."""

import importlib.util
import os

import nilp2.capability
import nilp2.cli  # noqa: F401  (the tracer looks its targets up in sys.modules)
import nilp2.fplinalg

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_target():
    tracing = _load_tracer()
    before = (nilp2.fplinalg.rref, nilp2.capability.jacobi_subspace, nilp2.capability.rref)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nilp2.fplinalg.rref is not before[0]
        assert nilp2.capability.jacobi_subspace is not before[1]
    finally:
        tracer.uninstall()
    assert (nilp2.fplinalg.rref, nilp2.capability.jacobi_subspace, nilp2.capability.rref) == before
