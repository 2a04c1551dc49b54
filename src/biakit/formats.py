"""Serialization helpers shared by the JSON/CSV emitters.

Every float is rendered with 17 significant digits (round-trip exact for
IEEE doubles) and every rational in JSON as a "num/den" string (CSV
carries numerators and denominators as integer columns), so emitted files
are byte-stable across runs and platforms. The JSON renderer is local and
tiny rather than a json.JSONEncoder subclass because the stdlib encoder
hard-wires float.__repr__ and cannot be forced onto a fixed format.

Record lists render columnar. A CSV table and a JSON `Records` value are
equal-length columns, and every row is one %-template applied to one
tuple of cells: a float column takes "%.17g" after one finiteness check
of the whole column, and every other column its values' text (in JSON,
"%d" for ints and the JSON text of bools). No per-record dict and no
per-cell call stands between the columns and the bytes.
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


def _column(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


class Records:
    """A list of records held as equal-length columns, one per name.

    render_json renders it exactly as the list of dicts it stands for,
    [{names[0]: columns[0][i], names[1]: columns[1][i], ...} for every i],
    a numpy column standing for its tolist(). Names must be distinct, as a
    dict's keys are.
    """

    __slots__ = ("names", "columns")

    def __init__(self, names, columns):
        self.names = tuple(names)
        self.columns = [_column(c) for c in columns]
        if len(self.columns) != len(self.names):
            raise ValueError("%d record names for %d columns" % (len(self.names), len(self.columns)))
        if len(set(self.names)) != len(self.names):
            raise ValueError("record names must be distinct: %r" % (self.names,))
        if len({len(c) for c in self.columns}) > 1:
            raise ValueError("record columns must have equal lengths")

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def dicts(self) -> list[dict]:
        """The list of dicts these records stand for."""
        return [dict(zip(self.names, row)) for row in zip(*self.columns)]


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
    elif isinstance(obj, Records):
        _emit_records(obj, out, pad)
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


_BOOLS = ("false", "true")


def _record_field(column: list):
    """(spec, cells) of one record column: "%d" and the values of an int
    column, "%s" and the JSON text of a bool column, "%.17g" and the values
    of a float column once all are finite; None for any other column."""
    kinds = set(map(type, column))
    if kinds == {int}:
        return "%d", column
    if kinds == {bool}:
        return "%s", [_BOOLS[v] for v in column]
    if kinds == {float} and all(map(math.isfinite, column)):
        return _FLOAT, column
    return None


def _emit_records(records: Records, out: list[str], pad: str) -> None:
    """Append records, nested at indent pad, by one template a record.
    Records with a column `_record_field` refuses, or a name that is not a
    string, are emitted as the list of dicts they stand for, which also
    raises whatever that list raises."""
    if not len(records):
        out.append("[]")
        return
    fields = [_record_field(c) if isinstance(name, str) else None
              for name, c in zip(records.names, records.columns)]
    if None in fields:
        _emit(records.dicts(), out, pad)
        return
    inner, deeper = pad + "  ", pad + "    "
    record = "{\n" + deeper + (",\n" + deeper).join(
        _encode_str(name).replace("%", "%%") + ": " + spec
        for name, (spec, _) in zip(records.names, fields)) + "\n" + inner + "}"
    rows = zip(*(cells for _, cells in fields))
    out += ["[\n" + inner, (",\n" + inner).join(map(record.__mod__, rows)), "\n" + pad + "]"]


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
    arrays), one per header name, every row by one %-template. A column
    whose first value is a float takes "%.17g", once the whole column is
    checked finite (else ValueError names its first non-finite value); any
    other column takes "%s", its values' str."""
    values = [_column(c) for c in columns]
    specs = []
    for column in values:
        if column and isinstance(column[0], float):
            if not all(map(math.isfinite, column)):
                format_float(next(x for x in column if not math.isfinite(x)))  # raises
            specs.append(_FLOAT)
        else:
            specs.append("%s")
    row = ",".join(specs)
    lines = [",".join(header)] + list(map(row.__mod__, zip(*values, strict=True)))
    return "\n".join(lines) + "\n"
