"""The benchmark's span tracer must find every function it wraps.

``bench/spans.py`` replaces each ``(module, attr)`` in ``TRACED`` with a
recording wrapper and raises ``AttributeError`` on a missing name, so a
rename in the package would break traced benchmark runs.  The table is only
read here; installing the tracer would rebind the package for the session.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module,attr", load_traced())
def test_traced_attribute_is_callable(module, attr):
    owner = importlib.import_module(f"sigarchive.{module}")
    assert callable(getattr(owner, attr, None)), f"sigarchive.{module}.{attr}"
