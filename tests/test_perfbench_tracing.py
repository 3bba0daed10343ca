"""Every layer the benchmark's tracer wraps still exists in the package.

``perfbench/tracing.py`` reports a per-layer metric as absent (null) when
the entry point it wraps is gone; this fails first, on the renamed or
removed name, instead of the benchmark's traced run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_present():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert {source for _, _, source in tracing.PER_LAYER if source} - tracer.present == set()
