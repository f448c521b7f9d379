"""Flat-file ingestion and export.

Formats
-------
Complex: JSON ``{"num_vertices": n, "edges": [[i, j], ...],
"triangles": [[i, j, k], ...], "cells": [[v1, ..., vm], ...]}`` with
**1-based** integer vertex indices (the library itself is 0-based).

Signal: CSV with header ``simplex_id,value``; one row per simplex in
canonical order, ``simplex_id`` the 0-based canonical index.

Matrix: headerless CSV of floats. Time series: CSV
``t,level,simplex_id,value``, steps 0..T-1, rows in any order; each
``(t, level)`` block is complete (every simplex once) or absent (zeros).
Filter spec: JSON ``{"h_down": [...], "h_up": [...], "harmonic":
{"epsilon": e, "T_h": n} | null}``. Model: JSON ``{"order": P, "lags":
[{bank: filter spec, ...}, ...]}``.

CSV is read by one :func:`numpy.loadtxt` call per file: comma-separated,
``"``-quoted fields, integer ids; blank lines skipped, LF or CRLF, ``#`` no
comment. Errors name the 1-based file line, blank lines counted. Writes end
lines in ``\r\n``, as :mod:`csv` does, with floats at 17 significant
digits, so save/load round-trips are value-exact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .complexes import (
    Cochain,
    ComplexSignal,
    SimplicialComplex,
    TopologyError,
    build_complex,
)
from .filters import HarmonicTerm, HodgeFilterSpec
from .timeseries import SCVarLag, SCVarModel

__all__ = [
    "FileFormatError",
    "load_complex",
    "save_complex",
    "load_signal",
    "save_signal",
    "load_matrix",
    "save_matrix",
    "load_filter_spec",
    "load_filter_spec_list",
    "save_filter_spec",
    "load_series",
    "save_series",
    "load_model",
    "save_model",
]

_FLOAT = "%.17g"
_CSV = {"delimiter": ",", "comments": None, "quotechar": '"'}
_SIGNAL = (("simplex_id", np.int64), ("value", np.float64))
_SERIES = (("t", np.int64), ("level", np.int64), ("simplex_id", np.int64),
           ("value", np.float64))
_SERIES_HEADER = ",".join(name for name, _ in _SERIES)
_WRITE_CHUNK = 1 << 16  # cells per write: bounds the text held at once


class FileFormatError(ValueError):
    """A file failed to parse; the message carries the location."""


def _read_csv(path, columns=None) -> np.ndarray:
    """Parse a CSV file in one ``np.loadtxt`` call.

    With ``columns``, a sequence of ``(name, dtype)``, line 1 must be the
    header naming them and the rows come back as a 1-d structured array;
    without, the file is a headerless float matrix, returned 2-d.
    """
    path = Path(path)
    dtype = float if columns is None else list(columns)
    with path.open() as fh:
        if columns is not None:
            names, header = [name for name, _ in columns], fh.readline()
            if not header.rstrip("\n") or [h.strip() for h in np.loadtxt(
                    [header], str, ndmin=1, **_CSV)] != names:
                raise FileFormatError(f"{path}: line 1: expected header "
                                      f"'{','.join(names)}'")
        if all(line == "\n" for line in fh):  # loadtxt would warn
            return np.zeros((0, 0) if columns is None else 0, dtype)
    try:
        return np.loadtxt(path, dtype, skiprows=int(columns is not None),
                          ndmin=1 if columns else 2, **_CSV)
    except ValueError as exc:
        raise FileFormatError(_parse_error(path, columns)) from exc


def _parse_error(path: Path, columns) -> str:
    """The first line np.loadtxt rejects, found by bisecting the data
    lines with the same parse."""
    lines = path.read_text().split("\n")
    data = [i for i in range(columns is not None, len(lines)) if lines[i]]
    width = len(columns) if columns else np.loadtxt(
        [lines[data[0]]], str, ndmin=1, **_CSV).size

    dtype = float if columns is None else list(columns)

    def parses(rows) -> bool:
        try:
            arr = np.loadtxt([lines[i] for i in rows], dtype, ndmin=2, **_CSV)
        except ValueError:
            return False
        return columns is not None or arr.shape[1] == width

    lo, hi = 0, len(data)  # the first bad line is among data[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if parses(data[lo:mid]) else (lo, mid)
    spec = f"{width} floats" if columns is None else ",".join(
        f"{name}:{np.dtype(kind).name}" for name, kind in columns)
    return (f"{path}: line {data[lo] + 1}: cannot parse "
            f"{lines[data[lo]]!r} as {spec}")


def _check(path, bad: np.ndarray, message) -> None:
    """Raise FileFormatError naming the file line of the first row flagged
    in ``bad``, a mask over the rows below the header; ``message(row)``
    gives the reason."""
    if bad.any():
        row, lines = int(np.argmax(bad)), Path(path).read_text().split("\n")
        line = [i for i in range(1, len(lines)) if lines[i]][row] + 1
        raise FileFormatError(f"{path}: line {line}: {message(row)}")


def _write_csv(path, header: str | None, row_fmt: str, *columns) -> None:
    """Write equal-length columns as CSV rows formatted by ``row_fmt``,
    each chunk of rows by one ``%`` operation. Lines end in ``\\r\\n``,
    as csv.writer ends them."""
    columns = [np.asarray(column) for column in columns]
    width, rows = len(columns), len(columns[0]) if columns else 0
    step = max(1, _WRITE_CHUNK // max(width, 1))
    with Path(path).open("w", newline="") as fh:
        if header is not None:
            fh.write(header + "\r\n")
        for lo in range(0, rows, step):
            n = min(step, rows - lo)
            cells = [None] * (n * width)
            for j, column in enumerate(columns):
                cells[j::width] = column[lo:lo + n].tolist()
            fh.write((row_fmt + "\r\n") * n % tuple(cells))


def _integer(v) -> int:
    """A JSON vertex index as int; fractions and booleans raise."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc


def load_complex(path) -> SimplicialComplex:
    data = _read_json(path)
    if not isinstance(data, dict) or "num_vertices" not in data:
        raise FileFormatError(f"{path}: expected an object with "
                              f"'num_vertices'")

    def shift(group, name):
        out = []
        for simplex in data.get(group, []):
            try:
                out.append([_integer(v) - 1 for v in simplex])
            except (TypeError, ValueError) as exc:
                raise FileFormatError(
                    f"{path}: field '{group}': bad {name} {simplex!r} ({exc})"
                ) from exc
        return out

    try:
        return build_complex(
            int(data["num_vertices"]),
            edges=shift("edges", "edge"),
            triangles=shift("triangles", "triangle"),
            cells=shift("cells", "cell"),
        )
    except TopologyError as exc:
        raise TopologyError(
            f"{path}: {exc} (indices reported 0-based; the file is 1-based)"
        ) from exc


def save_complex(path, c: SimplicialComplex) -> None:
    edges = json.dumps([[u + 1, v + 1] for u, v in c.edges])
    tris = json.dumps([[u + 1, v + 1, w + 1] for u, v, w in c.triangles])
    cells = json.dumps([[v + 1 for v in cyc] for cyc in c.cells])
    Path(path).write_text(
        "{\n"
        f'  "num_vertices": {c.num_vertices},\n'
        f'  "edges": {edges},\n'
        f'  "triangles": {tris},\n'
        f'  "cells": {cells}\n'
        "}\n"
    )


def load_signal(path, c: SimplicialComplex, k: int) -> Cochain:
    expected = c.num_simplices(k)
    rows = _read_csv(path, _SIGNAL)
    ids, row = rows["simplex_id"], np.arange(len(rows))
    _check(path, (ids != row) | (row >= expected), lambda r:
           f"simplex_id {ids[r]} out of order (expected {r}; rows follow "
           f"the canonical ordering)" if ids[r] != r else f"simplex_id {r} "
           f"but an order-{k} signal has only {expected} entries")
    if len(ids) != expected:
        raise FileFormatError(f"{path}: expected {expected} rows for an "
                              f"order-{k} signal, got {len(ids)}")
    return Cochain(c, k, np.ascontiguousarray(rows["value"]))


def save_signal(path, x: Cochain) -> None:
    _write_csv(path, "simplex_id,value", "%d," + _FLOAT,
               np.arange(x.values.size), x.values)


def load_matrix(path) -> np.ndarray:
    return _read_csv(path)


def save_matrix(path, mat: np.ndarray) -> None:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    _write_csv(path, None, ",".join([_FLOAT] * mat.shape[1]), *mat.T)


def _spec_to_json(spec: HodgeFilterSpec) -> dict:
    return {
        "h_down": list(spec.h_down),
        "h_up": list(spec.h_up),
        "harmonic": None if spec.harmonic is None else
            {"epsilon": spec.harmonic.epsilon, "T_h": spec.harmonic.steps},
    }


def _spec_from_json(data: dict, where: str) -> HodgeFilterSpec:
    if not isinstance(data, dict):
        raise FileFormatError(f"{where}: expected a filter-spec object")
    try:
        harm = data.get("harmonic")
        harmonic = None if harm is None else \
            HarmonicTerm(epsilon=float(harm["epsilon"]),
                         steps=int(harm["T_h"]))
        return HodgeFilterSpec(
            h_down=tuple(float(v) for v in data.get("h_down", [])),
            h_up=tuple(float(v) for v in data.get("h_up", [])),
            harmonic=harmonic,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def load_filter_spec(path) -> HodgeFilterSpec:
    data = _read_json(path)
    return _spec_from_json(data, str(path))


def load_filter_spec_list(path) -> list[HodgeFilterSpec]:
    """JSON list of filter-spec objects (sub-dictionary definitions)."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise FileFormatError(f"{path}: expected a JSON list of filter specs")
    return [_spec_from_json(s, f"{path}[{i}]") for i, s in enumerate(data)]


def save_filter_spec(path, spec: HodgeFilterSpec) -> None:
    Path(path).write_text(json.dumps(_spec_to_json(spec), indent=1) + "\n")


def load_series(path, c: SimplicialComplex) -> list[ComplexSignal]:
    """Time-series CSV ``t,level,simplex_id,value`` into a signal list.

    Steps must be 0..T-1. Each (t, level) block either covers its level
    completely, every simplex once, or is absent and reads as zeros.
    """
    rows = _read_csv(path, _SERIES)
    t, level, ids = rows["t"], rows["level"], rows["simplex_id"]
    sizes = np.array([c.n0, c.n1, c.n2])
    known = (level >= 0) & (level <= 2)
    size = sizes[np.where(known, level, 0)]
    _check(path, ~known | (ids < 0) | (ids >= size), lambda r:
           f"simplex_id {ids[r]} out of range for level {level[r]} "
           f"(N_{level[r]} = {size[r]})" if known[r] else
           "level must be 0, 1 or 2")
    named = np.zeros(len(rows) + 1, dtype=bool)
    named[t[(t >= 0) & (t < len(rows))]] = True
    steps = int(np.argmin(named))  # T: the first step no row names
    _check(path, (t < 0) | (t > steps), lambda r:
           f"time steps must be 0..T-1, got t = {t[r]}"
           + (f" but no row has t = {steps}" if t[r] > 0 else ""))
    width = c.n0 + c.n1 + c.n2
    cell = t * width + np.array([0, c.n0, c.n0 + c.n1])[level] + ids
    if np.bincount(cell, minlength=steps * width).max(initial=0) > 1:
        repeat = np.ones(len(rows), dtype=bool)
        repeat[np.unique(cell, return_index=True)[1]] = False
        _check(path, repeat, lambda r: f"duplicate row for t = {t[r]}, "
               f"level {level[r]}, simplex_id {ids[r]}")
    block = t * 3 + level
    filled = np.bincount(block, minlength=steps * 3)
    _check(path, ((filled != 0) & (filled != np.tile(sizes, steps)))[block],
           lambda r: f"the block t = {t[r]}, level {level[r]} covers "
           f"{filled[block[r]]} of {size[r]} simplices; a block must be "
           f"complete or absent")
    frames = np.zeros(steps * width)
    frames[cell] = rows["value"]
    return [ComplexSignal.from_stacked(c, f)
            for f in frames.reshape(steps, width)]


def save_series(path, series: Sequence[ComplexSignal],
                start: int = 0) -> None:
    series = list(series)
    if not series:
        return _write_csv(path, _SERIES_HEADER, "")
    c, n = series[0].complex, len(series)
    _write_csv(path, _SERIES_HEADER, "%d,%d,%d," + _FLOAT,
               np.repeat(np.arange(start, start + n), c.n0 + c.n1 + c.n2),
               np.tile(np.repeat([0, 1, 2], [c.n0, c.n1, c.n2]), n),
               np.tile(np.r_[:c.n0, :c.n1, :c.n2], n),
               np.concatenate([sig.stacked() for sig in series]))


_BANKS = ("h00", "g01", "h01", "h11", "g10", "h10", "g12", "h12",
          "g21", "h21", "h22")


def load_model(path, c: SimplicialComplex) -> SCVarModel:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: expected a model object")
    lags_json = data.get("lags")
    if not isinstance(lags_json, list) or not lags_json:
        raise FileFormatError(f"{path}: 'lags' must be a nonempty list")
    if data.get("order") != len(lags_json):
        raise FileFormatError(f"{path}: 'order' does not match the number "
                              f"of lags")
    lags = []
    for p, lag_json in enumerate(lags_json, start=1):
        if not isinstance(lag_json, dict):
            raise FileFormatError(f"{path}: lag {p}: expected an object")
        kwargs = {}
        for name in _BANKS:
            if name in lag_json:
                kwargs[name] = _spec_from_json(
                    lag_json[name], f"{path}: lag {p}, bank {name}"
                )
        unknown = set(lag_json) - set(_BANKS)
        if unknown:
            raise FileFormatError(
                f"{path}: lag {p}: unknown banks {sorted(unknown)}"
            )
        lags.append(SCVarLag(**kwargs))
    return SCVarModel(complex=c, lags=tuple(lags))


def save_model(path, model: SCVarModel) -> None:
    data = {
        "order": model.order,
        "lags": [
            {name: _spec_to_json(getattr(lag, name)) for name in _BANKS}
            for lag in model.lags
        ],
    }
    Path(path).write_text(json.dumps(data, indent=1) + "\n")
