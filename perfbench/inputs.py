"""Seeded benchmark inputs and the reference maths used to check outputs.

Everything here is plain numpy/scipy and never imports hodgesp, so the
checks that use it are independent of the code under test. Conventions
follow the hodgesp file formats: vertices 0..n-1 in memory and 1-based in
files, edges sorted lexicographically and oriented from the smaller to the
larger vertex, triangles sorted, boundary of [u, v, w] = [v, w] - [u, w] +
[u, v].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Edges and triangles of the 7-vertex reference complex of the test suite:
# one open 3-cycle, so Betti numbers (1, 1, 0).
EDGES7 = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
          (1, 2), (1, 3), (2, 6), (4, 5))
TRIS7 = ((0, 1, 2), (0, 1, 3), (0, 4, 5))

# LMS ground truth and noise, as in the acceptance test of the suite.
LMS_H_STAR = np.array([0.7, 0.25, -0.15])
LMS_SIGMA = 0.05


@dataclass(frozen=True)
class Complex:
    """An order-2 complex with float incidence matrices and known Betti
    numbers."""

    n0: int
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    betti: tuple[int, int, int]
    b1: sp.csr_array
    b2: sp.csr_array
    _laps: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n1(self) -> int:
        return len(self.edges)

    @property
    def n2(self) -> int:
        return len(self.triangles)

    def size(self, k: int) -> int:
        return (self.n0, self.n1, self.n2)[k]

    def lap(self, k: int, variant: str) -> sp.csr_array:
        """L0 ("up"), L1 "down"/"up", L2 ("down"); None where undefined."""
        if (k, variant) not in self._laps:
            b1, b2 = self.b1, self.b2
            table = {(0, "up"): lambda: b1 @ b1.T,
                     (1, "down"): lambda: b1.T @ b1,
                     (1, "up"): lambda: b2 @ b2.T,
                     (2, "down"): lambda: b2.T @ b2}
            make = table.get((k, variant))
            self._laps[(k, variant)] = \
                None if make is None else sp.csr_array(make())
        return self._laps[(k, variant)]

    def write(self, path: Path) -> None:
        data = {"num_vertices": self.n0,
                "edges": [[u + 1, v + 1] for u, v in self.edges],
                "triangles": [[u + 1, v + 1, w + 1]
                              for u, v, w in self.triangles],
                "cells": []}
        path.write_text(json.dumps(data) + "\n")


def make_complex(n0: int, edges, triangles, betti) -> Complex:
    edges = tuple(sorted(edges))
    triangles = tuple(sorted(triangles))
    pos = {e: i for i, e in enumerate(edges)}
    n1, n2 = len(edges), len(triangles)
    rows = [v for e in edges for v in e]
    cols = np.repeat(np.arange(n1), 2)
    vals = np.tile([-1.0, 1.0], n1)
    b1 = sp.csr_array((vals, (rows, cols)), shape=(n0, n1))
    rows = [pos[e] for u, v, w in triangles for e in ((v, w), (u, w), (u, v))]
    cols = np.repeat(np.arange(n2), 3)
    vals = np.tile([1.0, -1.0, 1.0], n2)
    b2 = sp.csr_array((vals, (rows, cols)), shape=(n1, n2))
    return Complex(n0, edges, triangles, tuple(betti), b1, b2)


def complex7() -> Complex:
    return make_complex(7, EDGES7, TRIS7, (1, 1, 0))


def grid_squares(m: int):
    """Unit squares of an m x m vertex grid as (a, b, c, d) with a the
    top-left, b right of a, c below a, d diagonal to a."""
    for i in range(m - 1):
        for j in range(m - 1):
            a = i * m + j
            yield (i, j), (a, a + 1, a + m, a + m + 1)


def grid_edges(m: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(m):
        for j in range(m):
            v = i * m + j
            if j + 1 < m:
                edges.append((v, v + 1))
            if i + 1 < m:
                edges.append((v, v + m))
    edges += [(a, d) for _, (a, _b, _c, d) in grid_squares(m)]
    return edges


def hole_grid(m: int, h: int, rng: np.random.Generator) -> Complex:
    """Triangulated m x m grid with one diagonal per square. h square rows
    and h square columns are chosen at random; the h*h squares where they
    cross stay unfilled, and each leaves two triangular holes, so the Betti
    numbers are (1, 2 h^2, 0)."""
    rows = set(rng.choice(m - 1, size=h, replace=False).tolist())
    cols = set(rng.choice(m - 1, size=h, replace=False).tolist())
    tris = []
    for (i, j), (a, b, c, d) in grid_squares(m):
        if not (i in rows and j in cols):
            tris += [(a, b, d), (a, c, d)]
    return make_complex(m * m, grid_edges(m), tris, (1, 2 * h * h, 0))


def grid_skeleton(m: int) -> Complex:
    """The same grid graph with no triangle filled; its 3-cliques are the
    two triangles of every square."""
    n1 = len(grid_edges(m))
    return make_complex(m * m, grid_edges(m), (), (1, n1 - m * m + 1, 0))


def planted_triangles(m: int, count: int, rng: np.random.Generator):
    """count grid triangles with pairwise disjoint edge sets."""
    candidates = [t for _, (a, b, c, d) in grid_squares(m)
                  for t in ((a, b, d), (a, c, d))]
    chosen, used = [], set()
    for i in rng.permutation(len(candidates)):
        u, v, w = candidates[i]
        sides = {(u, v), (u, w), (v, w)}
        if sides & used:
            continue
        chosen.append(candidates[i])
        used |= sides
        if len(chosen) == count:
            return sorted(chosen)
    raise ValueError("grid too small for the planted triangles")


# --- Hodge parts and bands --------------------------------------------------

def planted_flows(cx: Complex, count: int, rng: np.random.Generator):
    """Flows with known gradient, curl and harmonic parts (each n1 x count).
    The gradient and curl parts are random images of b1^T and b2. The
    harmonic part is a random flow r minus b1^T p and b2 q, with p and q
    from sparse direct solves of L0 p = b1 r (grounded at vertex 0) and
    L2 q = b2^T r; this needs a connected complex with beta2 = 0, where L2
    is positive definite."""
    grad = cx.b1.T @ rng.standard_normal((cx.n0, count))
    curl = cx.b2 @ rng.standard_normal((cx.n2, count))
    r = rng.standard_normal((cx.n1, count))
    p = np.zeros((cx.n0, count))
    l0 = spla.splu(sp.csc_matrix(cx.lap(0, "up")[1:, 1:]))
    p[1:] = l0.solve(np.asarray(cx.b1 @ r)[1:])
    harm = r - cx.b1.T @ p
    if cx.n2:
        l2 = spla.splu(sp.csc_matrix(cx.lap(2, "down")))
        harm -= cx.b2 @ l2.solve(np.asarray(cx.b2.T @ r))
    return grad, curl, harm


@dataclass(frozen=True)
class Band:
    """The lowest gradient and curl frequencies of the edge spectrum, cut at
    spectral gaps so that the span does not depend on how a solver orders
    vectors inside a repeated eigenvalue."""

    selector: str
    basis: np.ndarray  # n1 x |F|, orthonormal
    frequencies: dict  # "grad", "curl" -> all nonzero frequencies, ascending


def _nonzero_eig(lap: sp.csr_array):
    lam, vec = np.linalg.eigh(lap.toarray())
    keep = lam > 1e-9 * max(1.0, lam[-1])
    return lam[keep], vec[:, keep]


def _cut(lam: np.ndarray, want: int) -> int:
    n = want
    while n < lam.size and lam[n] - lam[n - 1] <= 1e-6 * lam[-1]:
        n += 1
    return n


def edge_band(cx: Complex, n_grad: int, n_curl: int) -> Band:
    lam0, u0 = _nonzero_eig(cx.lap(0, "up"))
    lam2, u2 = _nonzero_eig(cx.lap(2, "down"))
    a, b = _cut(lam0, n_grad), _cut(lam2, n_curl)
    grad = (cx.b1.T @ u0[:, :a]) / np.sqrt(lam0[:a])
    curl = (cx.b2 @ u2[:, :b]) / np.sqrt(lam2[:b])
    return Band(selector=f"grad:0..{a - 1}+curl:0..{b - 1}",
                basis=np.hstack([grad, curl]),
                frequencies={"grad": lam0, "curl": lam2})


def sample_set(band: Band, extra: int, rng: np.random.Generator) -> list[int]:
    """A random edge set, |F| + extra large, on which the band is exactly
    recoverable (smallest singular value of the sampled rows >= 1e-3)."""
    n1, nf = band.basis.shape
    while True:
        s = sorted(rng.choice(n1, size=nf + extra, replace=False).tolist())
        if np.linalg.svd(band.basis[s], compute_uv=False)[-1] >= 1e-3:
            return s


def mask(n: int, rng: np.random.Generator, observed: float = 0.7):
    return rng.random(n) < observed


# --- Polynomial filters -----------------------------------------------------

def poly(lap, coeffs, x: np.ndarray) -> np.ndarray:
    """sum_t coeffs[t] lap^t x; a missing Laplacian keeps the t=0 term."""
    y = np.zeros_like(x)
    if coeffs:
        y += coeffs[0] * x
    if lap is None:
        return y
    z = x
    for c in coeffs[1:]:
        z = lap @ z
        y += c * z
    return y


def filter_ref(cx: Complex, k: int, spec: dict, x: np.ndarray) -> np.ndarray:
    """Shift-and-sum filter with h_down over L_down and h_up over L_up,
    plus (I - epsilon L_k)^T_h x for a harmonic term."""
    down, up = cx.lap(k, "down"), cx.lap(k, "up")
    y = poly(down, spec["h_down"], x) + poly(up, spec["h_up"], x)
    harmonic = spec.get("harmonic")
    if harmonic:
        w = x
        for _ in range(harmonic["T_h"]):
            lw = sum(lap @ w for lap in (down, up) if lap is not None)
            w = w - harmonic["epsilon"] * lw
        y = y + w
    return y


def dirac_ref(cx: Complex, h, x0, x1, x2):
    """sum_t h[t] D^t (x0, x1, x2) for the Dirac operator D."""
    acc = [h[0] * x0, h[0] * x1, h[0] * x2]
    z = (x0, x1, x2)
    for c in h[1:]:
        z = (cx.b1 @ z[1], cx.b1.T @ z[0] + cx.b2 @ z[2], cx.b2.T @ z[1])
        for a, v in zip(acc, z):
            a += c * v
    return acc


# --- SCVAR ------------------------------------------------------------------

def _spec(down=(0.0,), up=(0.0,)) -> dict:
    return {"h_down": list(down), "h_up": list(up), "harmonic": None}


def scvar_model() -> list[dict]:
    """Two-lag model in the parametrisation scvar_fit recovers (identity
    pre-filters, one-sided cross terms). Check stability with
    scvar_gain_bound on the complex it runs on."""
    lag1 = {"h00": _spec(up=(0.25, -0.015)),
            "g01": _spec(up=(0.05, 0.004)),
            "h11": _spec(down=(0.2, -0.008), up=(0.0, -0.015)),
            "g10": _spec(down=(0.06, -0.004)),
            "g12": _spec(up=(0.05, 0.008)), "g21": _spec(down=(0.08, 0.004)),
            "h22": _spec(down=(0.25, -0.025))}
    lag2 = {"h00": _spec(up=(-0.08, 0.004)),
            "h11": _spec(down=(-0.1, 0.004), up=(0.0, 0.008)),
            "h22": _spec(down=(0.08, 0.0))}
    return [lag1, lag2]


def write_model(path: Path, model: list[dict]) -> None:
    path.write_text(json.dumps({"order": len(model), "lags": model}) + "\n")


_ZERO = _spec()
_CROSS = (("g01", 1, 0, lambda cx, v: cx.b1 @ v),
          ("g10", 0, 1, lambda cx, v: cx.b1.T @ v),
          ("g12", 2, 1, lambda cx, v: cx.b2 @ v),
          ("g21", 1, 2, lambda cx, v: cx.b2.T @ v))


def scvar_predict_ref(cx: Complex, model: list[dict], history) -> list:
    """One-step prediction; history[-p] = (x0, x1, x2) p steps back, each a
    vector or a block of columns."""
    tail = np.shape(history[-1][0])[1:]
    acc = [np.zeros((cx.size(k),) + tail) for k in range(3)]
    for p, lag in enumerate(model, start=1):
        past = history[-p]
        for k, name in ((0, "h00"), (1, "h11"), (2, "h22")):
            acc[k] += filter_ref(cx, k, lag.get(name, _ZERO), past[k])
        for name, src, dst, move in _CROSS:
            if name in lag:
                acc[dst] += filter_ref(cx, dst, lag[name], move(cx, past[src]))
    return acc


def scvar_gain_bound(cx: Complex, model: list[dict]) -> float:
    """Upper bound on sum_p ||A_p||_2 for the lag operators A_p, from
    sqrt(||A||_1 ||A||_inf); below 1 the recursion is stable."""
    n = cx.n0 + cx.n1 + cx.n2
    eye = np.eye(n)
    off = (0, cx.n0, cx.n0 + cx.n1, n)
    unit = [eye[off[k]:off[k + 1]] for k in range(3)]
    total = 0.0
    for lag in model:
        a = np.vstack(scvar_predict_ref(cx, [lag], [unit]))
        total += np.sqrt(np.abs(a).sum(0).max() * np.abs(a).sum(1).max())
    return float(total)


def scvar_series(cx: Complex, model: list[dict], steps: int, sigma: float,
                 rng: np.random.Generator) -> list:
    """Noise-driven reference simulation, two random starting signals."""
    def noise(scale):
        return [scale * rng.standard_normal(cx.size(k)) for k in range(3)]
    series = [noise(1.0), noise(1.0)]
    while len(series) < steps:
        pred = scvar_predict_ref(cx, model, series)
        series.append([p + e for p, e in zip(pred, noise(sigma))])
    return series


def write_series(path: Path, series) -> None:
    """Time-series CSV t,level,simplex_id,value with 17 digits."""
    with path.open("w") as fh:
        fh.write("t,level,simplex_id,value\n")
        for t, sig in enumerate(series):
            for level, x in enumerate(sig):
                fh.write("".join(f"{t},{level},{i},{v:.17g}\n"
                                 for i, v in enumerate(x)))


def write_signal(path: Path, x: np.ndarray) -> None:
    path.write_text("simplex_id,value\n"
                    + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(x)))


def write_matrix(path: Path, mat: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(mat), fmt="%.17g", delimiter=",")


# --- LMS --------------------------------------------------------------------

def lms_regressor(lap_down, lap_up, x_now, x_prev) -> np.ndarray:
    """Columns [x_t, Ld x_{t-1}, Lu x_{t-1}] for T_down = T_up = 1."""
    return np.column_stack([x_now, lap_down @ x_prev, lap_up @ x_prev])


def lms_stream(cx: Complex, steps: int, rng: np.random.Generator):
    """Inputs x (steps x n1) and observations y = X_t h* + noise, with
    y_0 = 0 because the regressor needs one past flow."""
    ld, lu = cx.lap(1, "down"), cx.lap(1, "up")
    x = rng.standard_normal((steps, cx.n1))
    y = np.zeros_like(x)
    noise = LMS_SIGMA * rng.standard_normal((steps, cx.n1))
    for t in range(1, steps):
        y[t] = lms_regressor(ld, lu, x[t], x[t - 1]) @ LMS_H_STAR + noise[t]
    return x, y


def lms_step_size(cx: Complex, rng: np.random.Generator, gain: float,
                  observed: float = 1.0, draws: int = 300) -> float:
    """gain / lambda_max of the mean X^T M X over random regressors, as in
    the acceptance test (observed < 1 scales M by the observed share)."""
    ld, lu = cx.lap(1, "down"), cx.lap(1, "up")
    xs = rng.standard_normal((draws + 1, cx.n1))
    acc = np.zeros((3, 3))
    for t in range(1, draws + 1):
        reg = lms_regressor(ld, lu, xs[t], xs[t - 1])
        acc += reg.T @ reg
    lam = np.linalg.eigvalsh(observed * acc / draws)[-1]
    return gain / lam
