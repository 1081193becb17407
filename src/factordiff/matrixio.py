"""Matrix file formats: CSV rows and a JSON object form, both written with
17 significant digits so values round-trip through text exactly.

CSV: one matrix row per line, comma-separated decimal floats, dimension
inferred from the row count. JSON: an object {"n": n, "entries": [...]} with
the entries flattened row-major. Malformed content raises ValueError.
"""

from __future__ import annotations

import json

import numpy as np

from .core import validate_matrix
from .errors import ShapeError

__all__ = ["save_matrix", "load_matrix"]

_FMT = "{:.17g}"


def _validated(a, context: str) -> np.ndarray:
    try:
        return validate_matrix(a, context)
    except ShapeError as exc:
        raise ValueError(str(exc)) from None


def matrix_to_csv(a) -> str:
    a = _validated(a, "matrix")
    lines = [",".join(_FMT.format(x) for x in row) for row in a]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            raise ValueError(f"line {lineno}: not a comma-separated row of numbers") from None
    if not rows:
        raise ValueError("no matrix rows found")
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"expected {n} entries per row to match {n} rows")
    return _validated(rows, "matrix")


def matrix_to_json(a) -> str:
    a = _validated(a, "matrix")
    return json.dumps({"n": int(a.shape[0]), "entries": [float(x) for x in a.ravel()]}) + "\n"


def matrix_from_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError('expected a JSON object with fields "n" and "entries"')
    n = obj["n"]
    entries = obj["entries"]
    # bool is an int subclass, so true would otherwise read as n = 1
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError('"n" must be a positive integer')
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ValueError(f'"entries" must hold n*n = {n * n} numbers')
    try:
        flat = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError('"entries" must all be numbers') from None
    return _validated(flat.reshape(n, n), "matrix")


def _format(path, fmt: str | None) -> str:
    if fmt is None:
        return "json" if str(path).endswith(".json") else "csv"
    if fmt not in ("csv", "json"):
        raise ValueError(f'unknown matrix format {fmt!r}: expected "csv" or "json"')
    return fmt


def save_matrix(path, a, fmt: str | None = None) -> None:
    """Write a matrix to path as CSV or JSON (inferred from the extension
    unless fmt is given). Raises ValueError for any other fmt."""
    fmt = _format(path, fmt)
    text = matrix_to_json(a) if fmt == "json" else matrix_to_csv(a)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_matrix(path, fmt: str | None = None) -> np.ndarray:
    """Read a matrix from path as CSV or JSON (inferred from the extension
    unless fmt is given). Raises ValueError for any other fmt."""
    fmt = _format(path, fmt)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return matrix_from_json(text) if fmt == "json" else matrix_from_csv(text)
