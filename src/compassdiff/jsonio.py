"""File text: problem files in, deterministic JSON and CSV out.

:func:`load` is the one reader of problem files; a file it cannot read or
decode is an :class:`InputError`.  :func:`dumps` and :func:`csv` write floats
at 17 significant digits in a stable order, so repeated runs on identical
inputs produce byte-identical output.  The JSON serializer is a small
explicit walker rather than ``json.dumps`` (whose float formatting is not
pinned by contract), indenting by two spaces.  Strings do go through
``json.dumps``, which escapes every control character.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .oracle import InputError


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialise non-finite float {v!r}")
    if v == int(v) and abs(v) < 1e16:
        return f"{int(v)}.0"
    return format(v, ".17g")


def load(source):
    """The JSON document at ``source`` if it is a path (``str`` or ``os.PathLike``), else ``source`` as is.

    A file that cannot be read, is not JSON, or nests too deeply to decode is an :class:`InputError`.
    """
    if not isinstance(source, (str, os.PathLike)):
        return source
    try:
        with open(source) as fh:
            text = fh.read()
    except (OSError, ValueError) as err:  # ValueError: not UTF-8, or a NUL in the path
        raise InputError(f"cannot read {source}: {err}") from None
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError(f"malformed JSON in {source}: nested too deeply to decode") from None
    except ValueError as err:  # not JSON, or an integer too long to convert
        raise InputError(f"malformed JSON in {source}: {err}") from None


def csv(header, rows) -> str:
    """CSV text: a line of ``header`` names, then one line per row of numbers at 17 significant digits."""
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def dumps(obj) -> str:
    out: list[str] = []
    _write(obj, out, 0)
    return "".join(out)


def _write(obj, out: list[str], level: int):
    pad = "  " * (level + 1)
    closing_pad = "  " * level
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, level)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(pad)
            _write(str(key), out, level + 1)
            out.append(": ")
            _write(value, out, level + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(closing_pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        simple = all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool) for v in seq)
        if simple:
            out.append("[" + ", ".join(
                str(int(v)) if isinstance(v, (int, np.integer)) else _fmt_float(float(v)) for v in seq) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad)
            _write(value, out, level + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(closing_pad + "]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")
