"""The input contract: every file the CLI reads and every array a caller hands
an entry point comes from outside the program, so how JSON and CSV are parsed
and what counts as a number is decided here. Each owner keeps its own rules."""

from __future__ import annotations

import json
import numbers
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np


def json_object(where: str, text: str) -> dict:
    """The JSON object that `text` holds; an error names `where`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: the top level must be a JSON object, not {type(doc).__name__}")
    return doc


def check_keys(where: str, doc, known: set[str]) -> None:
    """Reject all but a JSON object with no key outside `known`: an unknown key
    is a typo that would silently run the default."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}")


def build(where: str, cls, doc, **derived):
    """`cls` from a JSON object whose keys are its init fields, less the ones
    the caller derives, such as a stage seed; an error names `where`."""
    check_keys(where, doc, {f.name for f in fields(cls) if f.init} - set(derived))
    try:
        return cls(**doc, **derived)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def finite(name: str, value):
    """`value` when it is a finite real number: not JSON true, which Python
    counts as 1, nor NaN, which would switch off every rule it meets, nor a
    JSON integer beyond the float range, which compares without converting."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def finite_array(name: str, array: np.ndarray) -> np.ndarray:
    """`array` when it holds no NaN or ±inf, which would switch off every rule
    they meet; the error names `name` and a matrix's first such row from 1."""
    if not np.isfinite(array).all():
        where = f": row {np.flatnonzero(~np.isfinite(array).all(axis=1))[0] + 1}" if array.ndim == 2 else ""
        raise ValueError(f"{name}{where} holds a non-finite value")
    return array


def integer(name: str, value, least: int):
    """`value` when it is an integer of at least `least`: not true, and not a
    float such as 1e5 or 7.9."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return value


def read_table(path) -> tuple[Path, list[str], np.ndarray]:
    """The header fields and the float body of a comma-separated file, blank
    lines skipped. A cell that is not a number (a `#` or a quote included), a
    NaN or infinite one, or a row not as wide as the header names the file."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
            try:
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    if table.size == 0:
        table = table.reshape(0, len(header))
    if table.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {table.shape[1]} fields, the header {len(header)}")
    return path, header, finite_array(str(path), table)


def whole(path: Path, name: str, column: np.ndarray) -> np.ndarray:
    """A `read_table` column as integers when every cell is a whole number
    (`1.0` is, `1.5` is not) within 2**53, where floats are exact integers."""
    bad = np.flatnonzero((column != np.trunc(column)) | (np.abs(column) > 2.0**53))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0] + 1} has a {name} that is not an integer")
    return column.astype(int)
