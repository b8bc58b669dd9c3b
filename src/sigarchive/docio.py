"""Self-describing text documents with reproducible formatting.

The on-disk format is plain JSON with two extra guarantees: mapping keys are
emitted in insertion order, and every float is rendered with 17 significant
digits so that a load/save cycle is bit-exact and byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .errors import ArchiveFormatError


def format_float(value: float) -> str:
    """Render ``value`` with 17 significant digits, keeping a float marker."""
    if not math.isfinite(value):
        raise ArchiveFormatError(f"cannot serialize non-finite number {value!r}")
    text = format(float(value), ".17g")
    if not any(c in text for c in ".eE"):
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
