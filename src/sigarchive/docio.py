"""Self-describing text documents and CSV tables with reproducible formatting.

The document format is plain JSON with two extra guarantees: mapping keys are
emitted in insertion order, and every float is rendered with 17 significant
digits so that a load/save cycle is bit-exact and byte-identical.  A
``Records`` holds a list of same-keyed mappings as values already rendered, so
that a table can share them.  Only a ``Records`` built by the caller goes
through one template per list; every other list of mappings is emitted item by
item, in the same bytes.  Tables are UTF-8 CSV with newline-terminated rows.
This module imports no numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from .errors import ArchiveFormatError, ValidationError

# words the artifacts carry: a prediction's decision, an archive's normalization
DECISION_CLASSIFIED = "classified"
DECISION_REJECTED = "rejected"
MODE_PER_FEATURE_MAX = "per_feature_max"
MODE_NONE = "none"


def format_float(value: float) -> str:
    """Render ``value`` with 17 significant digits, keeping a float marker."""
    if not math.isfinite(value):
        raise ArchiveFormatError(f"cannot serialize non-finite number {value!r}")
    text = format(float(value), ".17g")
    # .17g writes an exponent with a lower-case "e" and never "E"
    if "." not in text and "e" not in text:
        text += ".0"
    return text


class Records(NamedTuple):
    """A list of mappings with the same nonempty ``keys``, as ``rows`` of value JSON text."""

    keys: tuple[str, ...]
    rows: list


def _emit(value, indent: int) -> str:
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{json.dumps(str(key))}: {_emit(item, indent + 1)}"
                 for key, item in value.items()]
    elif isinstance(value, Records):  # one template per list renders every record
        inner = "\n" + "  " * (indent + 2)
        cells = (json.dumps(str(key)).replace("%", "%%") + ": %s" for key in value.keys)
        template = "{" + inner + ("," + inner).join(cells) + inner[:-2] + "}"
        brackets, items = "[]", [template % tuple(row) for row in value.rows]
    elif isinstance(value, (list, tuple)):
        if all(isinstance(v, (int, float, str, bool)) or v is None for v in value):
            return "[" + ", ".join(_scalar(v) for v in value) + "]"
        brackets, items = "[]", [_emit(item, indent + 1) for item in value]
    else:
        return _scalar(value)
    if not items:
        return brackets
    pad = "\n" + "  " * indent
    return brackets[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + brackets[1]


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise ArchiveFormatError(f"cannot serialize value of type {type(value).__name__}")


def dumps_document(value) -> str:
    return _emit(value, 0) + "\n"


def loads_document(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ArchiveFormatError(f"document is not valid JSON: {exc}") from exc


def write_atomic(path, text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary file beside ``path``, then move
    it into place, so a killed run never leaves a truncated file at ``path``.
    An ``OSError`` names ``path``, not the temporary file."""
    p = Path(path)
    tmp = p.parent / f".{p.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, p)
    except OSError as exc:  # one that names a file names the destination
        raise OSError(exc.errno, exc.strerror, str(p)) if exc.filename else exc
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def _csv_reader(path):
    """A ``csv.reader`` over a UTF-8 CSV file, past any byte order mark; a
    missing file, or one that does not decode or parse, raises ``ValidationError``."""
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"file not found: {p}")
    try:
        with open(p, newline="", encoding="utf-8-sig") as fh:
            yield csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{p}: not a readable UTF-8 CSV file: {exc}") from exc


def _rows(path):
    """Yield ``(row number, cells)`` for each row of a UTF-8 CSV file, lazily.

    Every row after the first must have as many cells as the first.
    """
    with _csv_reader(path) as reader:
        width = None
        for lineno, cells in enumerate(reader, start=1):
            if width not in (None, len(cells)):
                raise ValidationError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {width}")
            width = len(cells)
            yield lineno, cells


def read_table(path, header: tuple[str, ...]) -> dict[str, list[str]]:
    """Body rows of a CSV file whose first row must equal ``header``, keyed
    by their first cell, which no two rows may share.  The whole file is read
    first, so an unreadable line anywhere is named before any row's fault;
    then one loop over the body checks each row's width, then its id, and
    names the first row at fault by its row number in the file."""
    with _csv_reader(path) as reader:
        rows = list(reader)
    first = rows[0] if rows else []
    if tuple(first) != header:
        raise ValidationError(
            f"{path}: expected header {','.join(header)!r}, got {','.join(first)!r}")
    table, width = {}, len(header)
    for lineno, cells in enumerate(rows[1:], start=2):
        if len(cells) != width:
            raise ValidationError(f"{path}: row {lineno} has {len(cells)} cells, expected {width}")
        if cells[0] in table:
            raise ValidationError(f"{path}: duplicate sample id {cells[0]!r} at row {lineno}")
        table[cells[0]] = cells
    return table


def same_ids(first: dict, second: dict, first_path, second_path) -> None:
    """Require two tables, keyed by sample id, to hold the same ids in any order."""
    only_first = [s for s in first if s not in second]
    only_second = [s for s in second if s not in first]
    if only_first or only_second:
        raise ValidationError(
            f"sample ids disagree between {first_path} and {second_path}: "
            f"{len(only_first)} only in the first, {len(only_second)} only in the "
            f"second (first offenders: {(only_first + only_second)[:3]})")


def write_rows(path, rows) -> None:
    """Write ``rows`` as CSV with newline-terminated lines."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_atomic(path, buf.getvalue())


def write_document(value, path) -> None:
    write_atomic(path, dumps_document(value))


def read_document(path):
    p = Path(path)
    if not p.is_file():
        raise ArchiveFormatError(f"document not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ArchiveFormatError(f"{p}: document is not UTF-8 text: {exc}") from exc
    return loads_document(text)
