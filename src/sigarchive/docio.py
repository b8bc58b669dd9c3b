"""Self-describing text documents and CSV tables with reproducible formatting.

The document format is plain JSON with two extra guarantees: mapping keys are
emitted in insertion order, and every float is rendered with 17 significant
digits so that a load/save cycle is bit-exact and byte-identical.  Tables are
UTF-8 CSV with newline-terminated rows.  This module imports no numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from pathlib import Path

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


def _emit(value, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(item, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        if all(isinstance(v, (int, float, str, bool)) or v is None for v in items):
            out.append("[" + ", ".join(_scalar(v) for v in items) + "]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _emit(item, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(value))


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
    out: list[str] = []
    _emit(value, 0, out)
    out.append("\n")
    return "".join(out)


def loads_document(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ArchiveFormatError(f"document is not valid JSON: {exc}") from exc


def write_atomic(path, text: str) -> None:
    """Write ``text`` as UTF-8 to a temporary file beside ``path``, then move
    it into place, so a killed run never leaves a truncated file at ``path``."""
    p = Path(path)
    tmp = p.parent / f".{p.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _rows(path):
    """Yield ``(row number, cells)`` for each row of a UTF-8 CSV file, lazily.

    Every row after the first must have as many cells as the first.
    """
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"file not found: {p}")
    try:
        with open(p, newline="", encoding="utf-8") as fh:
            width = None
            for lineno, cells in enumerate(csv.reader(fh), start=1):
                if width not in (None, len(cells)):
                    raise ValidationError(
                        f"{path}: row {lineno} has {len(cells)} cells, expected {width}")
                width = len(cells)
                yield lineno, cells
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{p}: not a readable UTF-8 CSV file: {exc}") from exc


def read_table(path, header: tuple[str, ...]) -> dict[str, tuple[int, list[str]]]:
    """Body rows of a CSV file whose first row must equal ``header``, keyed
    by their first cell (which no two rows may share), with row numbers."""
    rows = _rows(path)
    _, first = next(rows, (1, []))
    if tuple(first) != header:
        raise ValidationError(
            f"{path}: expected header {','.join(header)!r}, got {','.join(first)!r}")
    table: dict[str, tuple[int, list[str]]] = {}
    for lineno, cells in rows:
        if cells[0] in table:
            raise ValidationError(
                f"{path}: duplicate sample id {cells[0]!r} at row {lineno}")
        table[cells[0]] = (lineno, cells)
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
