"""The benchmark tracer's targets exist, so a traced run can install its wrappers.

perfbench/tracing.py wraps functions by (module, name) and Jet methods by
name from Jet.__dict__; a renamed or deleted target makes every traced run
raise at install time.
"""

import importlib.util
from pathlib import Path

from unrolled_sl2.jets import Jet

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_targets_and_jet_counters_exist():
    tracing = _tracing()
    for layer, targets in tracing.SPAN_LAYERS.items():
        for mod, name in targets:
            assert callable(getattr(mod, name, None)), f"{layer}: {mod.__name__}.{name}"
    for counter, names in tracing.JET_COUNTERS.items():
        for name in names:
            assert name in Jet.__dict__, f"{counter}: Jet.{name}"
