"""The benchmark's span tracer must find every function it wraps.

``bench/spans.py`` replaces each ``(module, attr)`` in ``TRACED`` with a
recording wrapper and raises ``AttributeError`` on a missing name, so a
rename in the package would break traced benchmark runs.  The table is only
read here; installing the tracer would rebind the package for the session.
The describers, which read package types and fields, are applied directly.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sigarchive.dataio import load_features_csv

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,attr", load_spans().TRACED)
def test_traced_attribute_is_callable(module, attr):
    owner = importlib.import_module(f"sigarchive.{module}")
    assert callable(getattr(owner, attr, None)), f"sigarchive.{module}.{attr}"


def test_feature_table_describer_reads_a_loaded_table(tmp_path):
    # _describers() imports what the tracer reads from the package, and the
    # load_features_csv describer reads FeatureMatrix.values
    path = tmp_path / "features.csv"
    path.write_text("feature,a,b,c\nf0,1,2,3\nf1,0,0.5,4\n")
    describe = load_spans()._describers()["load_features_csv"]
    table = load_features_csv(path)
    assert describe((path,), {}, table) == {"cells": 6}
