"""The benchmark measures the package by patching module attributes.

``bench/tracing.py`` replaces functions such as ``trainer.backward`` and
``cli.generate_domain`` for the length of a run, and raises AttributeError
when one of them is gone. Installing both of its wrappers here makes a
removed or renamed attribute fail the test suite rather than the benchmark.
"""

import importlib.util
from pathlib import Path

from msdalab import trainer

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_and_tracer_install_and_restore():
    tracing = load_tracing()
    backward = trainer.backward
    with tracing.Probe().installed(), tracing.Tracer().installed():
        assert trainer.backward is not backward
    assert trainer.backward is backward
