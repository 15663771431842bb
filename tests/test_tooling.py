"""The benchmark's tracer patches package functions by name; every name
it lists must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve_on_the_package():
    spans = _load_spans()
    targets = [(module, attr) for _, module, attr in spans.LAYERS]
    targets.append(spans.PLANE_SQUARE_TEST)
    for module, attr in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, "%s.%s is gone" % (module, attr)
        assert callable(obj), "%s.%s is not callable" % (module, attr)
