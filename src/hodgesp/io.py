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

The CLI's own files: an index list (``sample -o``, ``reconstruct
--samples``) holds one 0-based simplex index per line, written with LF
line ends, blank lines skipped on reading. Observations
(``reconstruct --observed``): CSV ``simplex_id,value`` with a row for
every sampled simplex, in any order; other rows are ignored. Spectrum
table: CSV ``index,type,frequency``, one row per column of the basis,
type ``harmonic``, ``gradient`` or ``curl``. Components table: CSV
``simplex_id,component,value``, the gradient rows of every simplex, then
the curl rows, then the harmonic rows. LMS predictions: time-series CSV
of level 1 only, one block per step that made a prediction (none in the
warm-up); the ``--mask`` is a matrix of N_1 rows by T columns, nonzero
where an edge is observed. Inferred triangles: JSON ``{"triangles": [[i,
j, k], ...], "scores": [...]}``, 1-based like a complex file, in the order
picked. JSON is written with one-space indents and a final newline.

CSV is read by one :func:`numpy.loadtxt` call per file: comma-separated,
``"``-quoted fields, integer ids; blank lines skipped, LF or CRLF, ``#`` no
comment. Errors name the 1-based file line, blank lines counted. Writes end
lines in CRLF, as :mod:`csv` does, with floats at 17 significant digits,
so save/load round-trips are value-exact.

:func:`save_matrix` takes a dense array or a scipy sparse matrix and
formats only the stored entries; every other field is the literal ``0``,
which is what ``%.17g`` prints for +0.0. A dense entry is stored when it
is nonzero or carries a sign bit, so -0.0 still prints ``-0``; a sparse
matrix's stored entries are its explicit ones, duplicates summed. A sparse
matrix and its dense twin, which holds the same values and -0.0 where the
sparse one stores it, give the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from ._util import check_integer, first_bad
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
_SIGNAL_HEADER, _SERIES_HEADER = (",".join(name for name, _ in columns)
                                  for columns in (_SIGNAL, _SERIES))
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


def _check_finite(path, values: np.ndarray) -> None:
    _check(path, ~np.isfinite(values), lambda r: "value must be finite")


def _write_rows(path, header: str, labels, frames, steps=("",)) -> None:
    """Write the CSV rows ``<step><label>,<value>`` under ``header``: for
    each step of ``steps`` and its frame of ``frames``, an array, one row
    per label with the frame's values in order. The row templates are made
    once per table and each ``%`` formats at most _WRITE_CHUNK values, so
    only the floats are formatted. Lines end in ``\\r\\n``, as csv.writer
    ends them."""
    rows = [f"{label},{_FLOAT}\r\n" for label in labels]
    chunks = [(lo, ["", *rows[lo:lo + _WRITE_CHUNK]])
              for lo in range(0, len(rows), _WRITE_CHUNK)]
    with Path(path).open("w", newline="") as fh:
        fh.write(header + "\r\n")
        for step, frame in zip(steps, frames):
            for lo, pieces in chunks:
                fh.write(str(step).join(pieces)
                         % tuple(frame[lo:lo + _WRITE_CHUNK].tolist()))


def _write_json(path, data) -> None:
    """The JSON document ``data``, one-space indents, ending in a newline."""
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


def _integer(v) -> int:
    """A JSON integer as int; fractions, booleans and strings raise."""
    if isinstance(v, (bool, str)) or (isinstance(v, float)
                                      and not v.is_integer()):
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _integer_field(data: dict, name: str) -> int:
    """The integer field ``name`` of a JSON object; a value that is not an
    integer raises a ValueError that names the field."""
    try:
        return _integer(data[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from exc


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc


def _shift(rows: np.ndarray) -> bool:
    """The vectorised 1-based to 0-based shift of :func:`load_complex` for
    :func:`first_bad`, in place; False if a row holds an index it cannot
    shift."""
    whole = not (rows == np.iinfo(np.intp).min).any()
    rows -= 1
    return whole


def load_complex(path) -> SimplicialComplex:
    data = _read_json(path)
    if not isinstance(data, dict) or "num_vertices" not in data:
        raise FileFormatError(f"{path}: expected an object with "
                              f"'num_vertices'")

    def shift(group, name, width=None):
        def one(simplex):
            try:
                return [_integer(v) - 1 for v in simplex]
            except (TypeError, ValueError) as exc:
                raise ValueError(f"field '{group}': bad {name} {simplex!r} "
                                 f"({exc})") from exc

        rows, exc = first_bad(data.get(group, []), one,
                              width and _shift, width)
        if exc is not None:
            raise exc
        return rows

    try:
        return build_complex(
            _integer_field(data, "num_vertices"),
            edges=shift("edges", "edge", 2),
            triangles=shift("triangles", "triangle", 3),
            cells=shift("cells", "cell"),
        )
    except TopologyError as exc:
        raise TopologyError(
            f"{path}: {exc} (indices reported 0-based; the file is 1-based)"
        ) from exc
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


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
    _check_finite(path, rows["value"])
    return Cochain(c, k, np.ascontiguousarray(rows["value"]))


def save_signal(path, x: Cochain) -> None:
    _write_rows(path, _SIGNAL_HEADER, range(x.values.size), [x.values])


def load_matrix(path) -> np.ndarray:
    return _read_csv(path)


def save_matrix(path, mat) -> None:
    """Write a dense or scipy sparse matrix (a vector as one row) as
    headerless CSV, formatting only the stored entries."""
    if sparse.issparse(mat):
        mat = sparse.csr_array(mat.reshape(1, -1) if mat.ndim == 1 else mat,
                               dtype=float, copy=True)
        mat.sum_duplicates()
        entry_row = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    else:
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rows, width = mat.shape
    step = max(1, _WRITE_CHUNK // max(width, 1))
    # The texts of a chunk of step rows with no field stored and with every
    # field stored; cell f of a chunk starts at 2 f or 6 f in them, plus one
    # for each earlier line end.
    zeros = ("0," * (width - 1) + "0\r\n") * step
    fields = ((_FLOAT + ",") * (width - 1) + _FLOAT + "\r\n") * step
    with Path(path).open("w", newline="") as fh:
        for lo in range(0, rows if width else 0, step):
            hi = min(lo + step, rows)
            if sparse.issparse(mat):
                a, b = mat.indptr[lo], mat.indptr[hi]
                stored = np.zeros((hi - lo) * width, bool)
                stored[(entry_row[a:b] - lo) * width + mat.indices[a:b]] = True
                values = mat.data[a:b]
            else:
                block = mat[lo:hi].ravel()
                # Every bit pattern but +0.0's is stored, so -0.0 prints -0.
                stored = block.view(np.uint64) != 0
                values = block[stored]
            template = _chunk_template(stored, width, zeros, fields)
            fh.write(template % tuple(values.tolist()))


def _chunk_template(stored: np.ndarray, width: int, zeros: str,
                    fields: str) -> str:
    """The ``%`` template of a chunk of matrix cells, row-major, whose
    stored cells are flagged in ``stored``: each run of stored cells is cut
    from ``fields`` and each gap between runs from ``zeros``."""
    # Cells where a gap or a run begins; the gaps are the even intervals.
    cut = np.concatenate(([0], np.flatnonzero(np.diff(
        stored, prepend=False, append=False)), [stored.size]))
    gap = 2 * cut + cut // width  # where those cells start in zeros
    run = (gap + 4 * cut).tolist()  # and in fields
    gap = gap.tolist()
    pieces: list = [None] * (cut.size - 1)
    pieces[::2] = [zeros[a:b] for a, b in zip(gap[::2], gap[1::2])]
    pieces[1::2] = [fields[a:b] for a, b in zip(run[1:-1:2], run[2::2])]
    return "".join(pieces)


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
            HarmonicTerm(epsilon=harm["epsilon"],
                         steps=_integer_field(harm, "T_h"))
        return HodgeFilterSpec(h_down=data.get("h_down", []),
                               h_up=data.get("h_up", []), harmonic=harmonic)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def load_filter_spec(path) -> HodgeFilterSpec:
    return _spec_from_json(_read_json(path), str(path))


def load_filter_spec_list(path) -> list[HodgeFilterSpec]:
    """JSON list of filter-spec objects (sub-dictionary definitions)."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise FileFormatError(f"{path}: expected a JSON list of filter specs")
    return [_spec_from_json(s, f"{path}[{i}]") for i, s in enumerate(data)]


def save_filter_spec(path, spec: HodgeFilterSpec) -> None:
    _write_json(path, _spec_to_json(spec))


def load_series(path, c: SimplicialComplex) -> list[ComplexSignal]:
    """Time-series CSV ``t,level,simplex_id,value`` into a signal list.

    Steps must be 0..T-1. Each (t, level) block either covers its level
    completely, every simplex once, or is absent and reads as zeros.
    """
    rows = _read_csv(path, _SERIES)
    t, level, ids = rows["t"], rows["level"], rows["simplex_id"]
    _check_finite(path, rows["value"])
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
    check_integer(start, "start", 0)
    series = list(series)
    labels = [f",{k},{i}" for k in (0, 1, 2)
              for i in range(series[0].complex.num_simplices(k))] \
        if series else []
    _write_rows(path, _SERIES_HEADER, labels,
                [sig.stacked() for sig in series],
                range(start, start + len(series)))


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
    banks = SCVarLag.bank_names()
    lags = []
    for p, lag_json in enumerate(lags_json, start=1):
        if not isinstance(lag_json, dict):
            raise FileFormatError(f"{path}: lag {p}: expected an object")
        kwargs = {}
        for name in banks:
            if name in lag_json:
                kwargs[name] = _spec_from_json(
                    lag_json[name], f"{path}: lag {p}, bank {name}"
                )
        unknown = set(lag_json) - set(banks)
        if unknown:
            raise FileFormatError(
                f"{path}: lag {p}: unknown banks {sorted(unknown)}"
            )
        lags.append(SCVarLag(**kwargs))
    return SCVarModel(complex=c, lags=tuple(lags))


def save_model(path, model: SCVarModel) -> None:
    _write_json(path, {"order": model.order, "lags": [
        {name: _spec_to_json(getattr(lag, name))
         for name in SCVarLag.bank_names()} for lag in model.lags]})


# The files of the batch CLI that no public loader or saver covers.


def _load_indices(path) -> list[int]:
    """An index list: one integer per line, blank lines skipped."""
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError as exc:
            raise FileFormatError(f"{path}: line {lineno}: {exc}") from exc
    return out


def _save_indices(path, indices) -> None:
    Path(path).write_text("".join(f"{i}\n" for i in indices))


def _load_observed(path, sample_ids) -> list[float]:
    """The values of a ``simplex_id,value`` CSV at ``sample_ids``, in that
    order; rows for other simplices are ignored."""
    rows = _read_csv(path, _SIGNAL)
    values = dict(zip(rows["simplex_id"].tolist(), rows["value"].tolist()))
    missing = [i for i in sample_ids if i not in values]
    if missing:
        raise FileFormatError(f"{path}: missing values for sampled "
                              f"simplices {missing}")
    return [values[i] for i in sample_ids]


def _save_spectrum(path, table) -> None:
    """A frequency table, a list of FrequencyEntry, as CSV
    ``index,type,frequency``."""
    _write_rows(path, "index,type,frequency",
                [f"{row.index},{row.kind}" for row in table],
                [np.array([row.frequency for row in table])])


def _save_components(path, parts) -> None:
    """The gradient, curl and harmonic parts of a HodgeComponents as CSV
    ``simplex_id,component,value``, one part after the other."""
    names = ("gradient", "curl", "harmonic")
    n = parts.gradient.values.size
    _write_rows(path, "simplex_id,component,value",
                [f"{i},{name}" for name in names for i in range(n)],
                [np.concatenate([getattr(parts, name).values
                                 for name in names])])


def _save_predictions(path, steps, predictions) -> None:
    """LMS predictions as time-series CSV of level 1 only: for each step t
    of ``steps``, the edge flow in the same row of ``predictions``."""
    _write_rows(path, _SERIES_HEADER,
                [f",1,{i}" for i in range(predictions.shape[1])],
                predictions, steps)


def _save_triangles(path, triangles, scores) -> None:
    """Inferred triangles, 1-based as in a complex file, and their scores
    as JSON ``{"triangles": [[i, j, k], ...], "scores": [...]}``."""
    _write_json(path, {"triangles": [[v + 1 for v in t] for t in triangles],
                       "scores": scores})
