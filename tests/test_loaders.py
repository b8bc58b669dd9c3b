"""Loaders on arbitrary and generated input, and atomic output writes."""

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import toy_archive
from sigarchive import ArchiveFormatError, ValidationError, load_archive, save_archive
from sigarchive import docio
from sigarchive.dataio import (
    MODE_PER_FEATURE_MAX,
    NormalizationParams,
    load_features_csv,
    read_table,
    write_rows,
)

# fragments that reach past the first parse step more often than raw bytes do
_FRAGMENTS = st.sampled_from([
    b"feature", b"sample_id", b"label", b"s0", b"f0", b"0", b"1.5", b"-1", b"nan",
    b"inf", b"1e400", b" 2", b"1_0", b"x", b",", b"\n", b"\r\n", b'"', b"\xff",
    b"\x00", b"{", b"}", b"[", b"]", b":", b"null", b"Infinity", b'"entries"',
    b'"schema_version"', b"1" * 400,
])
ARBITRARY_BYTES = st.one_of(st.binary(max_size=300),
                            st.lists(_FRAGMENTS, max_size=60).map(b"".join))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    # module-scoped: hypothesis reuses it across the examples of one test
    return tmp_path_factory.mktemp("loaders")


def _write(directory: Path, data: bytes) -> Path:
    path = directory / "input"
    path.write_bytes(data)
    return path


@settings(max_examples=300, deadline=None)
@given(data=ARBITRARY_BYTES)
def test_csv_loaders_return_or_reject_arbitrary_bytes(scratch, data):
    path = _write(scratch, data)
    for load in (load_features_csv, lambda p: read_table(p, ("sample_id", "label"))):
        try:
            load(path)
        except ValidationError:
            pass


@settings(max_examples=300, deadline=None)
@given(data=ARBITRARY_BYTES)
def test_load_archive_returns_or_rejects_arbitrary_bytes(scratch, data):
    try:
        load_archive(_write(scratch, data))
    except ArchiveFormatError:
        pass


def _archive_document(directory: Path) -> dict:
    archive = toy_archive(np.eye(3)[:, :2], ["A", "B"])
    params = NormalizationParams(MODE_PER_FEATURE_MAX, archive.feature_names,
                                 (1.0, 2.0, 4.0), ())
    archive = replace(archive, build_config={"normalization": params.to_snapshot()})
    path = directory / "archive.json"
    save_archive(archive, path)
    return json.loads(path.read_text())


_ARCHIVE_FIELDS = [
    ("schema_version",), ("feature_names",), ("feature_names", 0), ("entries",),
    ("entries", 0), ("entries", 0, "signature"), ("entries", 0, "signature", 0),
    ("entries", 0, "label"), ("entries", 0, "purity"), ("entries", 0, "support"),
    ("entries", 0, "path"), ("entries", 0, "depth"), ("unresolved",),
    ("build_config",), ("build_config", "normalization"),
    ("build_config", "normalization", "mode"),
    ("build_config", "normalization", "feature_names"),
    ("build_config", "normalization", "maxima"),
    ("build_config", "normalization", "maxima", 0),
    ("build_config", "normalization", "dropped_features"),
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=5)
    | st.integers(min_value=-10 ** 500, max_value=10 ** 500),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(_ARCHIVE_FIELDS), value=_JSON_VALUES)
def test_load_archive_returns_or_rejects_any_field_value(scratch, field, value):
    doc = _archive_document(scratch)
    owner = doc
    for key in field[:-1]:
        owner = owner[key]
    owner[field[-1]] = value
    try:
        load_archive(_write(scratch, json.dumps(doc).encode()))
    except ArchiveFormatError:
        pass


_CELL_FORMATS = [repr, lambda v: format(v, ".17g"), lambda v: format(v, ".3e"),
                 lambda v: f" {v!r}", lambda v: str(int(v)), lambda v: "-0"]


def _write_table(path: Path, cells: list[list[str]]) -> Path:
    """Feature table with features f0.. as rows and samples s0.. as columns."""
    header = ",".join(["feature", *(f"s{j}" for j in range(len(cells[0])))])
    lines = [",".join([f"f{i}", *row]) for i, row in enumerate(cells)]
    path.write_text("\n".join([header, *lines]) + "\n")
    return path


@st.composite
def feature_cells(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    values = st.floats(min_value=0.0, max_value=1e300)
    return [[draw(st.sampled_from(_CELL_FORMATS))(draw(values)) for _ in range(m)]
            for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(cells=feature_cells())
def test_bulk_parse_matches_per_cell_float(scratch, cells):
    path = _write_table(scratch / "features.csv", cells)
    expected = np.array([[float(c) for c in row] for row in cells])
    assert load_features_csv(path).values.tobytes() == expected.tobytes()


_BAD_CELLS = [("x", "is not a number"), ("", "is not a number"),
              ("-1", "must be finite"), ("nan", "must be finite"),
              ("1e400", "must be finite"), ("-0.5", "must be finite")]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=2, max_value=6), m=st.integers(min_value=1, max_value=4),
       data=st.data())
def test_bad_cell_in_a_later_row_is_named(scratch, n, m, data):
    row = data.draw(st.integers(min_value=1, max_value=n - 1))
    col = data.draw(st.integers(min_value=0, max_value=m - 1))
    cell, kind = data.draw(st.sampled_from(_BAD_CELLS))
    cells = [["1.0"] * m for _ in range(n)]
    cells[row][col] = cell
    with pytest.raises(ValidationError) as info:
        load_features_csv(_write_table(scratch / "features.csv", cells))
    message = str(info.value)
    assert f"(feature 'f{row}', sample 's{col}')" in message
    assert kind in message and repr(cell) in message


def test_feature_table_is_read_in_bounded_memory(tmp_path):
    # 200 x 2000 cells: holding every cell as a string at once would need
    # about ten times the float64 matrix
    values = np.random.default_rng(0).uniform(0.0, 1.0, (200, 2000))
    path = _write_table(tmp_path / "features.csv",
                        [[repr(v) for v in row] for row in values.tolist()])
    tracemalloc.start()
    try:
        loaded = load_features_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.values.tobytes() == values.tobytes()
    assert peak < 6 * values.nbytes, peak / values.nbytes


def test_duplicate_sample_ids_keep_their_own_message(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("feature,a,a\nf0,1,2\n")
    with pytest.raises(ValidationError, match="sample ids must be unique"):
        load_features_csv(path)


@pytest.mark.parametrize("write", [
    lambda path: docio.write_document({"new": 1}, path),
    lambda path: write_rows(path, [["new", "1"]]),
])
def test_failed_replace_leaves_previous_file_intact(tmp_path, monkeypatch, write):
    path = tmp_path / "out"
    path.write_bytes(b"previous contents\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(docio.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write(path)
    assert path.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def _format_float_by_generator(value):
    """``docio.format_float`` as it was, testing each of ".eE" in turn."""
    text = format(float(value), ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


_TINY = 2.2250738585072014e-308  # the smallest normal double


@settings(max_examples=500, deadline=None, derandomize=True)
@given(value=st.one_of(
    st.integers(min_value=-2 ** 63, max_value=2 ** 63),
    st.integers(min_value=-2 ** 53, max_value=2 ** 53).map(float),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(max_value=-1e16, allow_infinity=False),
    st.floats(min_value=-_TINY, max_value=_TINY, allow_subnormal=True),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
))
def test_format_float_writes_the_bytes_it_wrote_before(value):
    assert docio.format_float(value).encode() == _format_float_by_generator(value).encode()
