"""Every function the benchmark's tracer wraps still exists in toepcert.

``bench/spans.py`` names its targets as ``(module, attribute)`` pairs and
resolves them only when a traced run installs the tracer.  Resolving them
here makes a renamed or deleted public name fail the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_spans().TARGETS
    assert targets
    for module, attr in targets:
        home = importlib.import_module(f"toepcert.{module}")
        if "." in attr:
            # the tracer replaces a method in its class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), (module, attr)
        else:
            assert callable(getattr(home, attr, None)), (module, attr)
