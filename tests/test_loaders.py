"""Loaders on arbitrary and generated input, and atomic output writes."""

import csv
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cli_env, dumps_document_recursive, has_children, processes, toy_archive
from sigarchive import ArchiveFormatError, ValidationError, load_archive, save_archive
from sigarchive import cli, dataio, docio
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


# numpy's reader alone would take "1\x1c" (it strips "\x1c" as whitespace)
_BAD_CELLS = [("x", "is not a number"), ("", "is not a number"),
              ("1\x1c", "is not a number"), ("#1", "is not a number"),
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


def _csv_reader_path(path):
    """``load_features_csv`` with the plain pass declining every table."""
    with mock.patch.object(dataio, "_plain_features", lambda path: None):
        return load_features_csv(path)


def _outcome(load, path):
    """Values, ids and names of a loaded table, or its rejection message."""
    try:
        table = load(path)
    except ValidationError as exc:
        return str(exc)
    return table.values.tobytes(), table.sample_ids, table.names


_TINY = 2.2250738585072014e-308  # the smallest normal double

_NUMBER_CELLS = st.one_of(
    st.floats(min_value=0.0, max_value=1e300).map(repr),
    st.floats(min_value=0.0, max_value=1e300).map(lambda v: format(v, ".17g")),
    st.floats(min_value=0.0, max_value=1e300).map(lambda v: format(v, ".3e")),
    st.floats(min_value=0.0, max_value=_TINY, allow_subnormal=True).map(repr),
    st.sampled_from(["-0", "0", "1", "+1", ".5", "5.", "1E5", "1e-400", "1e400"]),
)
_ODD_CELLS = st.sampled_from([
    "1_0", "#1", " 1", "1 ", "\uff11", "1\x1c", "nan", "inf", "-1", "1e", "e5", "-",
    "", '"1"', '"1,5"', '""', "1\r", "x", "1\x00",
])
_ODD_NAMES = st.sampled_from(['"f,0"', '"f"', "f\r", "f\x1c", "\u00e9", "", "#f", "s0"])


@st.composite
def odd_tables(draw):
    """Feature-table text: a plain table with up to two oddities in it."""
    n = draw(st.integers(min_value=0, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = [["feature", *(f"s{j}" for j in range(m))]]
    rows += [[f"f{i}", *draw(st.lists(_NUMBER_CELLS, min_size=m, max_size=m))]
             for i in range(n)]
    ends = ["\n"] * len(rows)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        odd = draw(st.sampled_from(["cell", "name", "end", "blank", "comma", "ragged"]))
        if odd == "cell" and len(rows[i]) > 1:
            rows[i][draw(st.integers(1, len(rows[i]) - 1))] = draw(_ODD_CELLS)
        elif odd == "name":
            rows[i][0] = draw(_ODD_NAMES)
        elif odd == "end":
            ends[i] = draw(st.sampled_from(["\r\n", "\r"]))
        elif odd == "blank":
            ends[i] += "\n"
        elif odd == "comma":
            rows[i].append("")
        elif odd == "ragged" and len(rows[i]) > 1:
            rows[i].pop()
    text = "".join(",".join(row) + end for row, end in zip(rows, ends))
    return text[:-1] if draw(st.booleans()) else text


@pytest.mark.filterwarnings("error::UserWarning")  # numpy: "input contained no data"
@settings(max_examples=500, deadline=None)
@given(text=odd_tables())
def test_plain_pass_agrees_with_the_csv_reader_path(scratch, text):
    path = scratch / "features.csv"
    path.write_bytes(text.encode())
    assert _outcome(load_features_csv, path) == _outcome(_csv_reader_path, path)


def test_repr_table_takes_the_plain_pass(tmp_path, monkeypatch):
    # a guard that declined every table would pass every other test here
    values = np.random.default_rng(1).uniform(0.0, 1.0, (3, 50))
    path = _write_table(tmp_path / "features.csv",
                        [[repr(v) for v in row] for row in values.tolist()])
    monkeypatch.setattr(dataio, "_rows", None)  # the csv.reader path cannot run
    loaded = load_features_csv(path)
    assert loaded.values.tobytes() == values.tobytes()
    assert loaded.names == ("f0", "f1", "f2")
    assert loaded.sample_ids == tuple(f"s{j}" for j in range(50))


def test_underscored_cell_still_reads_as_float_does(tmp_path):
    path = _write_table(tmp_path / "features.csv", [["1_0", "2"]])
    assert load_features_csv(path).values.tolist() == [[10.0, 2.0]]


@pytest.mark.parametrize("width", [7, 8, 9])
def test_plain_pass_keeps_the_csv_field_limit(tmp_path, width):
    path = tmp_path / "features.csv"
    path.write_text(f"feature,s0,s1\nf0,{'1' * width},2\nf1,3,4\n")
    old = csv.field_size_limit(8)
    try:
        assert _outcome(load_features_csv, path) == _outcome(_csv_reader_path, path)
        assert (dataio._plain_features(path) is None) == (width > 8)
    finally:
        csv.field_size_limit(old)


def _split_reads(monkeypatch, cpus: int, range_bytes: int = 1) -> list[int]:
    """Give ``cpus`` usable CPUs and a byte range of ``range_bytes`` (so by
    default every plain body of ``cpus`` bytes or more is cut ``cpus`` times),
    and return the list that collects the pid of each reader forked from now on."""
    monkeypatch.setattr(dataio, "_RANGE_BYTES", range_bytes)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forked, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forked


def _cuts(data: bytes, ranges: int) -> tuple[list[str], int]:
    """Where each of the ``ranges - 1`` nominal cuts of the body of ``data``
    falls in its line (``first``, ``last`` or ``mid`` byte), and how many
    nonempty ranges the first line starts at or after the cuts bound."""
    start = data.index(b"\n") + 1
    starts = [start] + [i + 1 for i in range(start, len(data) - 1) if data[i] == 10]
    places, cuts = [], {start}
    for i in range(1, ranges):
        p = start + i * (len(data) - start) // ranges
        places.append("first" if p in starts else "last" if data[p] == 10 else "mid")
        cuts.add(min([s for s in starts if s >= p], default=len(data)))
    return places, len(cuts - {len(data)})


_RNG = np.random.default_rng(4)
_SPLIT_TABLES = [
    # cells of 1 to 17 significant digits, so lines differ in length
    [[format(v, f".{d}g") for v, d in zip(row, digits)] for row, digits in
     zip(_RNG.uniform(0.0, 1.0, (12, 2)).tolist(), _RNG.integers(1, 18, (12, 2)).tolist())],
    # a line longer than any range but the whole body's
    [["1.5", "2"], ["0" * 200 + "1.5", "3"], ["4", "5e-3"], ["6", "7"]],
]


def test_split_read_gives_the_in_process_bits(tmp_path, monkeypatch):
    path, places = tmp_path / "features.csv", set()
    for cells in _SPLIT_TABLES:
        _write_table(path, cells)
        whole = _outcome(load_features_csv, path)
        for ranges in range(1, 6):
            with monkeypatch.context() as patch:
                forked = _split_reads(patch, ranges)
                split = _outcome(load_features_csv, path)
            where, readers = _cuts(path.read_bytes(), ranges)
            places.update(where)
            assert split == whole, ranges
            assert len(forked) == (readers if readers > 1 else 0), ranges
    # every place a cut can fall in a line was met, and a range with no line start
    assert places == {"first", "last", "mid"}
    assert _cuts(path.read_bytes(), 5)[1] < 5


@pytest.mark.parametrize("fault", ["x", "", "\r", "\r\n"])
@pytest.mark.parametrize("row", range(1, 13))
def test_a_fault_past_the_first_range_gets_the_csv_reader_paths_outcome(
        tmp_path, monkeypatch, fault, row):
    # "x" is a bad cell and "" an empty line; a CR ends its line
    lines = ["feature,s0,s1"] + [f"f{i},{i}.5,2" for i in range(12)]
    if fault in ("x", ""):
        lines[row] = f"f{row - 1},x,2" if fault else ""
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(line + (fault if i == row else "\n") for i, line in enumerate(lines))
    path = tmp_path / "features.csv"
    path.write_text(text, newline="")
    expected = _outcome(_csv_reader_path, path)
    forked = _split_reads(monkeypatch, 3)
    assert _outcome(load_features_csv, path) == expected
    assert len(forked) == 3


def test_table_below_two_ranges_forks_nothing(tmp_path, monkeypatch):
    forked = _split_reads(monkeypatch, 4, dataio._RANGE_BYTES)
    m = 1000
    header = "feature," + ",".join(f"s{j}" for j in range(m)) + "\n"
    path = tmp_path / "features.csv"
    for body, forks in ((2 * dataio._RANGE_BYTES - 1, 0), (2 * dataio._RANGE_BYTES, 2)):
        # lines of 0.5s, the last one's last cell led by zeros to fill the body
        lines = [f"f{i:04d}," + ",".join(["0.5"] * m) + "\n" for i in range(1000)]
        n, rest = divmod(body, len(lines[0]))
        lines = lines[:n]
        lines[-1] = lines[-1][:-4] + "0" * rest + "0.5\n"
        path.write_text(header + "".join(lines))
        assert path.stat().st_size - len(header) == body
        forked.clear()
        assert load_features_csv(path).values.sum() == 0.5 * n * m
        assert len(forked) == forks, body


@pytest.fixture
def classify_inputs(tmp_path):
    """An archive of three features and a plain table of 40 samples to classify."""
    save_archive(toy_archive(np.eye(3)[:, :2], ["A", "B"]), tmp_path / "arc.json")
    values = np.random.default_rng(2).uniform(0.1, 1.0, (3, 40))
    _write_table(tmp_path / "features.csv", [[repr(v) for v in row] for row in values.tolist()])
    return tmp_path


CLASSIFY = ["classify", "--archive", "arc.json", "--features", "features.csv",
            "--output", "predictions.csv"]


def test_a_killed_reader_fails_classify_with_one_line(classify_inputs, monkeypatch, capsys):
    forked = _split_reads(monkeypatch, 2)
    parent, read = os.getpid(), dataio._plain_range

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return read(*args)

    monkeypatch.setattr(dataio, "_plain_range", dying)
    monkeypatch.chdir(classify_inputs)
    assert cli.main(CLASSIFY) == 1
    assert capsys.readouterr() == ("", "error: features.csv: a reader ended without its result\n")
    assert len(forked) == 2 and not has_children()
    assert not (classify_inputs / "predictions.csv").exists()


def test_an_interrupted_split_read_leaves_no_reader(classify_inputs, monkeypatch):
    forked = _split_reads(monkeypatch, 2)
    parent, read = os.getpid(), dataio._plain_range

    def interrupting(*args):
        if os.getpid() != parent:
            os.kill(parent, signal.SIGINT)
            time.sleep(60)
        return read(*args)

    monkeypatch.setattr(dataio, "_plain_range", interrupting)
    monkeypatch.chdir(classify_inputs)
    with pytest.raises(KeyboardInterrupt):
        cli.main(CLASSIFY)
    assert len(forked) == 2 and not has_children()


_SIGNALLED_CLASSIFY = """
import os, sys, time
from sigarchive import cli, dataio

dataio._RANGE_BYTES = 1
os.sched_getaffinity = lambda pid: {{0, 1}}
parent, read = os.getpid(), dataio._plain_range

def signalling(*args):
    if os.getpid() != parent:  # a reader signals the command, and waits
        os.kill(parent, {signum})
        time.sleep(60)
    return read(*args)

dataio._plain_range = signalling
sys.argv = ["sigarchive", *{argv!r}]
cli.run()
"""


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads /proc")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["INT", "TERM"])
def test_signal_during_a_split_read_prints_interrupted(classify_inputs, signum):
    code = _SIGNALLED_CLASSIFY.format(signum=int(signum), argv=CLASSIFY)
    command = subprocess.Popen([sys.executable, "-c", code], cwd=classify_inputs,
                               env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        out, err = command.communicate(timeout=60)
    finally:
        command.kill()
    assert command.returncode == -signum, err
    assert (out, err) == ("", "error: interrupted\n")
    assert not (classify_inputs / "predictions.csv").exists()
    assert processes(3, command.pid) == []


def _read_table_row_by_row(path, header):
    """The row-at-a-time reader ``read_table`` replaced, kept as its oracle:
    each row is checked as it is read, so the first faulty row is named."""
    rows = docio._rows(path)
    _, first = next(rows, (1, []))
    if tuple(first) != header:
        raise ValidationError(
            f"{path}: expected header {','.join(header)!r}, got {','.join(first)!r}")
    table = {}
    for lineno, cells in rows:
        if cells[0] in table:
            raise ValidationError(f"{path}: duplicate sample id {cells[0]!r} at row {lineno}")
        table[cells[0]] = cells
    return table


def _table_outcome(read, path):
    try:
        return read(path, ("sample_id", "label"))
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(st.sampled_from(["a", "b", "c", "", '"d,e"', "sample_id"]),
                              max_size=3), max_size=6),
       header=st.sampled_from(["sample_id,label\n", "sample_id,label,x\n", ""]))
@example(rows=[["a", "b"], ["a", "c"], ["d"]], header="sample_id,label\n")
@example(rows=[["a", "b"], ["d"], ["a", "c"]], header="sample_id,label\n")
def test_read_table_agrees_with_the_row_by_row_reader(scratch, rows, header):
    # faults of both kinds in one table: a wrong cell count and a repeated id
    path = _write(scratch, (header + "".join(",".join(r) + "\n" for r in rows)).encode())
    assert _table_outcome(read_table, path) == _table_outcome(_read_table_row_by_row, path)


@pytest.mark.parametrize("text, message", [
    ("feature,a,b,b,a\nf0,1,2,3,4\n", "sample ids must be unique; 'b' repeats"),
    ("feature,a\nf1,1\nf0,2\nf0,3\nf1,4\n", "feature names must be unique; 'f0' repeats"),
    ('feature,a\nf1,1\nf0,"2"\nf0,3\n', "feature names must be unique; 'f0' repeats"),
])
def test_repeated_id_or_name_is_named_with_the_path(tmp_path, text, message):
    # the first repeat is named, with one message from either reading path
    path = tmp_path / "features.csv"
    path.write_text(text)
    for load in (load_features_csv, _csv_reader_path):
        with pytest.raises(ValidationError) as info:
            load(path)
        assert str(info.value) == f"{path}: {message}"


def test_labels_table_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"\xef\xbb\xbfsample_id,label\na,x\nb,y\n")
    assert dataio.load_labels_csv(path) == {"a": "x", "b": "y"}


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


def test_failed_write_names_the_destination(tmp_path):
    path = tmp_path / "nodir" / "out.csv"
    with pytest.raises(FileNotFoundError) as info:
        write_rows(path, [["new", "1"]])
    assert str(info.value) == f"[Errno 2] No such file or directory: '{path}'"
    assert list(tmp_path.iterdir()) == []


def _format_float_by_generator(value):
    """``docio.format_float`` as it was, testing each of ".eE" in turn."""
    text = format(float(value), ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


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


@pytest.mark.parametrize("value,text", [
    ({}, "{}\n"),
    ([], "[]\n"),
    ((), "[]\n"),
    ([True, False, None, 3, -0.5, 0.1, 2.0, "x"],
     '[true, false, null, 3, -0.5, 0.10000000000000001, 2.0, "x"]\n'),
    ([[], {}], "[\n  [],\n  {}\n]\n"),
    ({"ünï": "café ☃"}, '{\n  "\\u00fcn\\u00ef": "caf\\u00e9 \\u2603"\n}\n'),
    ({
        "rows": [{"a": 1, "b": (1.5, True)}, {"empty": {}, "none": []}],
        "mixed": (1, {"k": ({},)}),
        "empty": {},
    }, (
        '{\n'
        '  "rows": [\n'
        '    {\n'
        '      "a": 1,\n'
        '      "b": [1.5, true]\n'
        '    },\n'
        '    {\n'
        '      "empty": {},\n'
        '      "none": []\n'
        '    }\n'
        '  ],\n'
        '  "mixed": [\n'
        '    1,\n'
        '    {\n'
        '      "k": [\n'
        '        {}\n'
        '      ]\n'
        '    }\n'
        '  ],\n'
        '  "empty": {}\n'
        '}\n')),
])
def test_document_layout_is_pinned(value, text):
    # the archive and report bytes depend on this layout, byte for byte
    assert docio.dumps_document(value) == text
    assert docio.loads_document(text) == json.loads(json.dumps(value))


_DOC_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 2.0, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4))
# few keys, so that mappings often share them; "%" and non-ASCII on purpose
_DOC_KEYS = st.sampled_from(["a", "b", "risk", "ü", "☃ k", "%", "%s", '"', "\\"])


@st.composite
def _record_lists(draw, values):
    """Mappings that share their keys in one order, or, one record in a
    list, that differ in one way: reordered, nested, missing or extra keys."""
    keys = draw(st.lists(_DOC_KEYS, max_size=4, unique=True))
    records = [dict(zip(keys, row)) for row in draw(st.lists(
        st.lists(_DOC_SCALARS, min_size=len(keys), max_size=len(keys)),
        min_size=1, max_size=4))]
    record = draw(st.sampled_from(records))
    change = draw(st.sampled_from(["none", "reorder", "nest", "drop", "extra"]))
    if change == "reorder":
        items = list(record.items())
        record.clear()
        record.update(reversed(items))
    elif change == "nest" and keys:
        record[keys[0]] = draw(values)
    elif change == "drop" and keys:
        del record[keys[-1]]
    elif change == "extra":
        record.setdefault("extra", draw(_DOC_SCALARS))
    return records


_DOCUMENTS = st.recursive(_DOC_SCALARS, lambda values: st.one_of(
    st.lists(values, max_size=4), st.lists(values, max_size=3).map(tuple),
    st.dictionaries(_DOC_KEYS, values, max_size=4), _record_lists(values)), max_leaves=30)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(value=_DOCUMENTS)
@example(value=[{}])
@example(value={"rows": [{"a": -0.0, "b": 5e-324}, {"a": 1e300, "b": 2.0}]})
def test_dumps_document_writes_the_recursive_emitters_bytes(value):
    assert docio.dumps_document(value) == dumps_document_recursive(value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(keys=st.lists(_DOC_KEYS, min_size=1, max_size=4, unique=True),
       rows=st.lists(st.lists(_DOC_SCALARS, min_size=4, max_size=4), max_size=4))
def test_records_write_the_bytes_of_their_mappings(keys, rows):
    mappings = [dict(zip(keys, row)) for row in rows]
    cells = [[docio._scalar(v) for v in m.values()] for m in mappings]
    document = {"n": 1, "rows": docio.Records(tuple(keys), cells)}
    assert (docio.dumps_document(document)
            == dumps_document_recursive({"n": 1, "rows": mappings}))
