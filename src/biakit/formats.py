"""Serialization helpers shared by the JSON/CSV emitters.

Every float is rendered with 17 significant digits (round-trip exact for
IEEE doubles) and every rational in JSON as a "num/den" string (CSV
carries numerators and denominators as integer columns), so emitted files
are byte-stable across runs and platforms. The JSON renderer is local and
tiny rather than a json.JSONEncoder subclass because the stdlib encoder
hard-wires float.__repr__ and cannot be forced onto a fixed format.
"""
from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import numpy as np


def is_int(x) -> bool:
    """Whether x is an int and not a bool (JSON true and false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite value in output: %r" % x)
    return "%.17g" % float(x)


def format_rational(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def render_json(obj) -> str:
    """Deterministic JSON text: fixed float format, insertion-ordered keys."""
    out = io.StringIO()
    _emit(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def _emit(obj, out: io.StringIO, depth: int) -> None:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for n, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError("non-string JSON key: %r" % (k,))
            out.write(inner + json.dumps(k) + ": ")
            _emit(v, out, depth + 1)
            out.write(",\n" if n < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.write("[]")
            return
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            # short scalar rows stay on one line (pattern rows, vectors)
            out.write("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        out.write("[\n")
        for n, v in enumerate(seq):
            out.write(inner)
            _emit(v, out, depth + 1)
            out.write(",\n" if n < len(seq) - 1 else "\n")
        out.write(pad + "]")
    else:
        out.write(_scalar(obj))


def _scalar(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, Fraction):
        return json.dumps(format_rational(obj))
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError("unsupported JSON value: %r" % (obj,))


def render_csv(header: list[str], columns: list) -> str:
    """Deterministic CSV text from equal-length columns (lists or numpy
    arrays), one per header name, each rendered once: a column of floats
    through the fixed float renderer, any other column through str."""
    cells = [_column_cells(column) for column in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells, strict=True)]
    return "\n".join(lines) + "\n"


def _column_cells(column) -> list[str]:
    """One homogeneous column as text; its first value decides the kind."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    render = format_float if values and isinstance(values[0], float) else str
    return list(map(render, values))
