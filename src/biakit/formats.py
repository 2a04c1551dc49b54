"""Serialization helpers shared by the JSON/CSV emitters.

Every float is rendered with 17 significant digits (round-trip exact for
IEEE doubles) and every rational in JSON as a "num/den" string (CSV
carries numerators and denominators as integer columns), so emitted files
are byte-stable across runs and platforms. The JSON renderer is local and
tiny rather than a json.JSONEncoder subclass because the stdlib encoder
hard-wires float.__repr__ and cannot be forced onto a fixed format.
"""
from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np


def is_int(x) -> bool:
    """Whether x is an int and not a bool (JSON true and false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


_FLOAT = "%.17g"


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite value in output: %r" % x)
    return _FLOAT % float(x)


def format_rational(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def render_json(obj) -> str:
    """Deterministic JSON text: fixed float format, insertion-ordered keys."""
    out: list[str] = []
    _emit(obj, out, "")
    out.append("\n")
    return "".join(out)


def _emit(obj, out: list[str], pad: str) -> None:
    """Append the text of obj, nested at indent pad, to out."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError("non-string JSON key: %r" % (k,))
            head = sep + _encode_str(k) + ": "
            scalar = _SCALARS.get(type(v))
            if scalar is None:
                out.append(head)
                _emit(v, out, inner)
            else:
                out.append(head + scalar(v))
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            # short scalar rows stay on one line (pattern rows, vectors)
            out.append("[" + ", ".join(_SCALARS.get(type(v), _scalar)(v) for v in seq) + "]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for v in seq:
            out.append(sep)
            _emit(v, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, Fraction):
        return _encode_str(format_rational(obj))
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    raise TypeError("unsupported JSON value: %r" % (obj,))


# _scalar of the exact built-in types, looked up by type(); anything else
# (subclasses, numpy scalars, unsupported values) goes through _scalar
_SCALARS = {
    bool: _scalar,
    type(None): _scalar,
    int: str,
    float: format_float,
    str: _encode_str,
    Fraction: _scalar,
}


def render_csv(header: list[str], columns: list) -> str:
    """Deterministic CSV text from equal-length columns (lists or numpy
    arrays), one per header name, each rendered once: a column of floats
    through the fixed float renderer, any other column through str."""
    cells = [_column_cells(column) for column in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells, strict=True)]
    return "\n".join(lines) + "\n"


def _column_cells(column) -> list[str]:
    """One homogeneous column as text; its first value decides the kind. A
    float column is checked finite at once, and each distinct value (by bit
    pattern, so 0.0 and -0.0 stay apart) is formatted once."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    if not (values and isinstance(values[0], float)):
        return list(map(str, values))
    x = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(x)
    if not finite.all():
        format_float(values[int(np.argmin(finite))])  # raises, naming the first
    bits, where = np.unique(x.view(np.int64), return_inverse=True)
    text = list(map(_FLOAT.__mod__, bits.view(np.float64).tolist()))
    return [text[i] for i in where.tolist()]
