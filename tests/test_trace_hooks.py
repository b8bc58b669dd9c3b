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


CLI_STAGES = ("build_archive", "load_archive", "save_archive", "classify_batch",
              "evaluate_predictions")


def test_cli_calls_each_traced_stage_through_its_module_attribute(tmp_path, monkeypatch):
    # spans.py wraps these attributes of sigarchive.cli; a handler that
    # reached a stage by another name would run it without its span
    assert {attr for module, attr in load_spans().TRACED
            if module == "cli" and attr != "main"} == set(CLI_STAGES)
    cli = importlib.import_module("sigarchive.cli")
    calls = dict.fromkeys(CLI_STAGES, 0)
    for name in CLI_STAGES:
        def counting(*args, _stage=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)
    monkeypatch.chdir(tmp_path)

    assert cli.main(["synth", "--n-features", "12", "--n-classes", "3",
                     "--samples-per-class", "10", "--seed", "3"]) == 0
    assert cli.main(["build", "--features", "features.csv", "--labels", "labels.csv",
                     "--archive", "arc.json", "--k-max", "3", "--n-perturbations", "4",
                     "--min-cluster-size", "5"]) == 0
    assert cli.main(["classify", "--archive", "arc.json", "--features", "features.csv",
                     "--output", "predictions.csv"]) == 0
    labels = (tmp_path / "labels.csv").read_text().splitlines()[1:]
    (tmp_path / "truth.csv").write_text(
        "sample_id,label,novel\n" + "".join(f"{row},0\n" for row in labels))
    assert cli.main(["evaluate", "--predictions", "predictions.csv", "--truth", "truth.csv",
                     "--report", "report.json"]) == 0
    assert calls == dict.fromkeys(CLI_STAGES, 1)
