"""Deterministic JSON emission: floats at 17 significant digits, stable order.

Repeated runs on identical inputs must produce byte-identical output, so the
serializer is a small explicit walker rather than ``json.dumps`` (whose float
formatting is not pinned by contract), indenting by two spaces.  Strings do
go through ``json.dumps``, which escapes every control character.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialise non-finite float {v!r}")
    if v == int(v) and abs(v) < 1e16:
        return f"{int(v)}.0"
    return format(v, ".17g")


def load(source):
    """The JSON document at ``source`` if it is a path (``str`` or ``os.PathLike``), else ``source`` as is."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            return json.load(fh)
    return source


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
