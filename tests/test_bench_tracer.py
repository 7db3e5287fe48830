"""Every function the benchmark tracer wraps still exists in operon."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, attr in tracer.TRACED:
        obj = importlib.import_module(f"operon.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"bench/tracer.py traces {module}.{attr}, which is gone"
        assert callable(obj), f"{module}.{attr} is not callable"
