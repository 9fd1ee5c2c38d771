"""Deterministic report serialization.

All artifact files are written atomically (temp file in the target
directory, then rename) with LF line endings, insertion-ordered fields,
and reals printed with 17 significant digits so that identical runs
produce identical bytes.  Non-finite reals serialize as the strings
"inf", "-inf" and "nan" in both JSON and CSV.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError


class Record:
    """Mixin for result dataclasses: ``to_dict`` lists the fields in order.

    Nested records become nested dicts; the writers below render tuples
    and lists alike.
    """

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def format_real(x: float) -> str:
    """17-significant-digit decimal form; round-trips every double."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return "%.17g" % x


def _emit(obj, indent: int, out: list):
    pad = "  " * indent
    if isinstance(obj, Mapping):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, val) in enumerate(items):
            out.append(f'{pad}  {json.dumps(str(key))}: ')
            _emit(val, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(seq):
            out.append(pad + "  ")
            _emit(val, indent + 1, out)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            out.append(format_real(x))
        else:
            out.append(json.dumps(format_real(x)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def render_json(obj) -> str:
    out: list = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _atomic_write_text(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path, obj) -> Path:
    """Atomically write one JSON report."""
    path = Path(path)
    _atomic_write_text(path, render_json(obj))
    return path


def _cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_real(float(value))
    return str(value)


def write_csv(path, columns: Sequence[str], rows: Sequence) -> Path:
    """Atomically write a CSV table; always includes the header line.

    ``rows`` may hold mappings keyed by column name or plain sequences in
    column order.
    """
    path = Path(path)
    lines = [",".join(columns)]
    for row in rows:
        if isinstance(row, Mapping):
            cells = [_cell(row[c]) for c in columns]
        else:
            if len(row) != len(columns):
                raise ValidationError("row length does not match the column list")
            cells = [_cell(v) for v in row]
        lines.append(",".join(cells))
    _atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def read_data_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Observations from a one-column CSV, optional second weight column.

    A non-numeric first line is treated as a header and skipped; a NaN or
    infinite value is rejected with its row number.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"data file {path} does not exist")
    points = []
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                vals = [float(p) for p in parts if p != ""]
            except ValueError:
                if lineno == 0:
                    continue
                raise ValidationError(f"non-numeric row {lineno + 1} in {path}") from None
            if not all(map(math.isfinite, vals)):
                raise ValidationError(f"non-finite value in row {lineno + 1} of {path}")
            if len(vals) == 1:
                points.append(vals[0])
            elif len(vals) == 2:
                points.append(vals[0])
                weights.append(vals[1])
            else:
                raise ValidationError(f"expected 1 or 2 columns in {path}, row {lineno + 1}")
    if not points:
        raise ValidationError(f"no observations found in {path}")
    if weights and len(weights) != len(points):
        raise ValidationError(f"weight column is incomplete in {path}")
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float) if weights else None
    return pts, w
