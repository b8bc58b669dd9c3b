"""Equality and pickling of the array-holding value types, derived from their fields."""

import copy
import pickle
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from sigarchive import (
    ArchiveEntry,
    FactorPair,
    FeatureMatrix,
    GroundTruth,
    LabeledDataset,
    Prediction,
    SignatureArchive,
    UnresolvedGroup,
)


def unit(*values):
    v = np.array(values)
    return v / np.linalg.norm(v)


def bumped(values):
    """A copy of ``values`` with its first entry changed."""
    out = np.array(values)
    out.flat[0] += 1.0
    return out


MATRIX = FeatureMatrix(np.arange(6.0).reshape(3, 2), ("s0", "s1"), ("f0", "f1", "f2"))
ENTRY = ArchiveEntry(unit(1.0, 2.0, 2.0), "a", 1.0, 10, "root/k2/c0", 0)
OTHER_ENTRY = ArchiveEntry(unit(2.0, 1.0, 2.0), "b", 0.9, 12, "root/k2/c1", 0)
ARCHIVE = SignatureArchive((ENTRY, OTHER_ENTRY), ("f0", "f1", "f2"), {"seed": 0},
                           (UnresolvedGroup("root", ("s9",), "reason"),))
PREDICTION = Prediction("s0", "classified", "a", 0.9, "root/k2/c0", np.array([0.5, 0.0]))
DATASET = LabeledDataset(MATRIX, ("a", "b"))
PAIR = FactorPair(np.array([[1.0], [2.0]]), np.array([[0.5, 1.0, 2.0]]), (3.0, 1.0), 0, 4)
TRUTH = GroundTruth(np.eye(3)[:, :2], np.array([[1.0, 0.0], [0.0, 2.0]]), ("a", "b"), None)

# Per value type: one instance, and changes that each alter one compared field
# (a decision cannot change without its label).
CASES = [
    (MATRIX, [{"values": bumped(MATRIX.values)}, {"sample_ids": ("s0", "s2")},
              {"feature_names": ("f0", "f1", "g2")}]),
    (ENTRY, [{"signature": OTHER_ENTRY.signature}, {"label": "b"}, {"purity": 0.5},
             {"support": 11}, {"path": "root/k2/c1"}, {"depth": 1}]),
    (ARCHIVE, [{"entries": (replace(ENTRY, label="b"), OTHER_ENTRY)},
               {"feature_names": ("f0", "f1", "g2")}, {"build_config": {"seed": 1}},
               {"unresolved": ()}]),
    (PREDICTION, [{"sample_id": "s1"}, {"decision": "rejected", "label": None},
                  {"label": "b"}, {"score": 0.8}, {"attribution": "root/k2/c1"},
                  {"coefficients": bumped(PREDICTION.coefficients)}]),
    (DATASET, [{"features": replace(MATRIX, values=bumped(MATRIX.values))},
               {"labels": ("a", "a")}]),
    (PAIR, [{"w": bumped(PAIR.w)}, {"h": bumped(PAIR.h)}, {"objective_trace": (3.0, 0.5)},
            {"seed": 1}, {"sweeps": 5}, {"stop": "capped"}]),
    (TRUTH, [{"signatures": bumped(TRUTH.signatures)}, {"mixing": bumped(TRUTH.mixing)},
             {"class_labels": ("a", "c")}, {"holdout_class": "b"}]),
]


@pytest.mark.parametrize("value, changes", CASES, ids=[type(v).__name__ for v, _ in CASES])
def test_equality_follows_the_compared_fields(value, changes):
    assert copy.deepcopy(value) == value
    compared = {f.name for f in fields(value) if f.compare}
    assert set().union(*changes) == compared
    for change in changes:
        changed = replace(value, **change)
        assert changed != value and not changed == value, change
    for f in fields(value):
        if not f.compare:   # e.g. SignatureArchive's stacked basis
            ignored = copy.deepcopy(value)
            object.__setattr__(ignored, f.name, None)
            assert ignored == value
    assert value.__eq__(object()) is NotImplemented and value != object()
    with pytest.raises(TypeError):
        hash(value)


def arrays(value):
    """Every ndarray that ``value`` holds, through nested value types and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in arrays(v)]
    if is_dataclass(value):
        return [a for f in fields(value) for a in arrays(getattr(value, f.name))]
    return []


@pytest.mark.parametrize("value", [v for v, _ in CASES], ids=[type(v).__name__ for v, _ in CASES])
def test_pickle_round_trip_keeps_the_value_and_read_only_arrays(value):
    back = pickle.loads(pickle.dumps(value))
    assert back == value
    writeable = [a.flags.writeable for a in arrays(value)]
    assert writeable and [a.flags.writeable for a in arrays(back)] == writeable
