"""Numerical transform fields on grids and region norms over square unions.

Fields live on rectangular grids; a grid point (i, j) represents the cell of
size dx*dy centered at it, which is the resolution of every region norm here
(midpoint rule with exact sub-cell coverage weights at square boundaries).
Overlapping squares are integrated over their set union, counted once;
pairwise intersections get their own norms in the graph module.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .signal_model import GaussianMixtureSignal, gabor_closed_form

__all__ = [
    "GABOR",
    "SPECTROGRAM",
    "Grid2D",
    "SampledSignal",
    "SpectrogramField",
    "Square",
    "Region",
    "quadrature_gabor",
    "mixture_field",
    "spectrogram",
    "coverage_fractions",
    "region_norm",
    "rect_union_norm",
    "region_inner_product",
    "union_area",
    "write_field_csv",
    "read_field_csv",
]

GABOR = "gabor"
SPECTROGRAM = "spectrogram"

# window exp(-pi u^2) drops below 1e-16 at |u| = sqrt(16 ln 10 / pi)
_WINDOW_HALFWIDTH = math.sqrt(16.0 * math.log(10.0) / math.pi)
_MIXTURE_DT = 0.02


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular grid; values arrays are indexed [ix, iy]."""

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("grid spacings must be positive")
        if not (self.nx >= 1 and self.ny >= 1):
            raise ValueError("grid must have at least one point per axis")

    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def cell_bounds(self) -> tuple[float, float, float, float]:
        """Bounding box of the cells represented by the grid points."""
        return (
            self.x0 - 0.5 * self.dx,
            self.x0 + (self.nx - 0.5) * self.dx,
            self.y0 - 0.5 * self.dy,
            self.y0 + (self.ny - 0.5) * self.dy,
        )

    @staticmethod
    def from_bounds(xmin: float, xmax: float, ymin: float, ymax: float,
                    step: float) -> "Grid2D":
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("empty grid bounds")
        if not step > 0:
            raise ValueError("grid step must be positive")
        nx = int(round((xmax - xmin) / step)) + 1
        ny = int(round((ymax - ymin) / step)) + 1
        return Grid2D(xmin, ymin, step, step, nx, ny)


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled time signal on t0 + dt * arange(len(samples)).

    dt should resolve the analysis window (dt <= 0.1 recommended, not
    enforced); coarser sampling degrades the transform silently.
    """

    samples: tuple[complex, ...]
    t0: float
    dt: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(complex(s) for s in self.samples))
        if len(self.samples) == 0:
            raise ValueError("sampled signal must be nonempty")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not all(math.isfinite(s.real) and math.isfinite(s.imag) for s in self.samples):
            raise ValueError("samples must be finite")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.samples))


@dataclass(frozen=True)
class SpectrogramField:
    """Complex transform field or nonnegative spectrogram on a grid."""

    grid: Grid2D
    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (GABOR, SPECTROGRAM):
            raise ValueError(f"unknown field kind {self.kind!r}")
        vals = np.asarray(self.values)
        if vals.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {vals.shape} does not match grid ({self.grid.nx}, {self.grid.ny})"
            )
        if self.kind == SPECTROGRAM:
            vals = np.asarray(vals, dtype=float)
            if vals.size and vals.min() < -1e-9:
                raise ValueError("spectrogram values must be nonnegative")
            vals = np.maximum(vals, 0.0)
        else:
            vals = np.asarray(vals, dtype=complex)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Square:
    """Axis-aligned square given by its center and full side length."""

    cx: float
    cy: float
    side: float

    def __post_init__(self) -> None:
        if not self.side > 0:
            raise ValueError("square side must be positive")

    def rect(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax)."""
        h = 0.5 * self.side
        return (self.cx - h, self.cx + h, self.cy - h, self.cy + h)


@dataclass(frozen=True)
class Region:
    """Finite union of squares."""

    squares: tuple[Square, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "squares", tuple(self.squares))
        if len(self.squares) == 0:
            raise ValueError("region must contain at least one square")


def _mixture_t_grid(sig: GaussianMixtureSignal, grid: Grid2D) -> np.ndarray:
    shifts = [a.shift for a in sig.atoms]
    lo = min(min(shifts), grid.x0) - _WINDOW_HALFWIDTH
    hi = max(max(shifts), grid.x0 + (grid.nx - 1) * grid.dx) + _WINDOW_HALFWIDTH
    n = int(math.ceil((hi - lo) / _MIXTURE_DT)) + 1
    return lo + (hi - lo) * np.arange(n) / (n - 1)


def quadrature_gabor(sig, grid: Grid2D) -> SpectrogramField:
    """Transform field by trapezoidal quadrature in t.

    Accepts a GaussianMixtureSignal (sampled internally at dt=0.02 over the
    joint support) or a SampledSignal (integrated on its own sample grid).
    The Gaussian window truncates the integrand below 1e-16 on its own.
    """
    if isinstance(sig, GaussianMixtureSignal):
        t = _mixture_t_grid(sig, grid)
        ft = sig.evaluate(t)
        dt = t[1] - t[0] if len(t) > 1 else 1.0
    elif isinstance(sig, SampledSignal):
        t = sig.times()
        ft = np.asarray(sig.samples, dtype=complex)
        dt = sig.dt
    else:
        raise TypeError(f"unsupported signal type {type(sig).__name__}")

    w = np.full(len(t), dt)
    if len(t) > 1:
        w[0] *= 0.5
        w[-1] *= 0.5

    xs = grid.xs()
    ys = grid.ys()
    # windowed integrand rows (nx, nt), then one matmul against exp(-2 pi i t y)
    windowed = ft[None, :] * np.exp(-np.pi * (t[None, :] - xs[:, None]) ** 2) * w[None, :]
    kernel = np.exp(-2j * np.pi * np.outer(t, ys))
    values = windowed @ kernel
    return SpectrogramField(grid, values, GABOR)


def mixture_field(sig: GaussianMixtureSignal, grid: Grid2D) -> SpectrogramField:
    """Closed-form transform field (fast path for mixtures)."""
    X, Y = grid.mesh()
    return SpectrogramField(grid, gabor_closed_form(sig, X, Y), GABOR)


def spectrogram(fld: SpectrogramField) -> SpectrogramField:
    """Pointwise squared modulus of a transform field."""
    if fld.kind != GABOR:
        raise ValueError("spectrogram() expects a transform field")
    return SpectrogramField(fld.grid, np.abs(fld.values) ** 2, SPECTROGRAM)


def _arrangement(rects) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cover count on the arrangement grid of axis-aligned rectangles.

    Klee's measure problem on the compressed grid of distinct edges, as in
    Bentley's sweep: a 2-D difference array over the sorted x and y edges,
    summed once per axis.  Returns (xs, ys, count), where count[k, l] is the
    number of rectangles covering [xs[k], xs[k+1]] x [ys[l], ys[l+1]].
    Empty rectangles are ignored.
    """
    r = np.asarray(rects, dtype=float).reshape(-1, 4)
    r = r[(r[:, 1] > r[:, 0]) & (r[:, 3] > r[:, 2])]
    xs, ys = np.unique(r[:, :2]), np.unique(r[:, 2:])
    i0, i1 = np.searchsorted(xs, r[:, 0]), np.searchsorted(xs, r[:, 1])
    j0, j1 = np.searchsorted(ys, r[:, 2]), np.searchsorted(ys, r[:, 3])
    diff = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for i, j, sign in ((i0, j0, 1), (i1, j1, 1), (i0, j1, -1), (i1, j0, -1)):
        np.add.at(diff, (i, j), sign)
    return xs, ys, diff.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]


def _interval_overlap(centers: np.ndarray, h: float, edges: np.ndarray) -> np.ndarray:
    """Overlap fraction of cells [c-h/2, c+h/2] with each [edges[k], edges[k+1]]."""
    left = np.maximum(centers[:, None] - 0.5 * h, edges[None, :-1])
    right = np.minimum(centers[:, None] + 0.5 * h, edges[None, 1:])
    return np.clip(right - left, 0.0, None) / h


def _union_fractions(grid: Grid2D, rects) -> np.ndarray:
    """Exact coverage fraction of each grid cell by the union of the rectangles."""
    xs, ys, count = _arrangement(rects)
    ax = _interval_overlap(grid.xs(), grid.dx, xs)
    ay = _interval_overlap(grid.ys(), grid.dy, ys)
    return np.clip(ax @ (count > 0) @ ay.T, 0.0, 1.0)


def coverage_fractions(grid: Grid2D, region: Region) -> np.ndarray:
    """Fraction of each grid cell covered by the region union (in [0, 1])."""
    return _union_fractions(grid, [sq.rect() for sq in region.squares])


def _check_region_in_grid(grid: Grid2D, region: Region) -> None:
    gx0, gx1, gy0, gy1 = grid.cell_bounds()
    tol = 1e-9 * max(grid.dx, grid.dy)
    for sq in region.squares:
        x0, x1, y0, y1 = sq.rect()
        if x0 < gx0 - tol or x1 > gx1 + tol or y0 < gy0 - tol or y1 > gy1 + tol:
            raise ValueError(
                f"square centered ({sq.cx}, {sq.cy}) exceeds the field domain"
            )


def _masked_norm(fld: SpectrogramField, frac: np.ndarray, p) -> float:
    mags = np.abs(fld.values)
    if p == math.inf or p == "inf":
        covered = frac > 1e-12
        return float(mags[covered].max()) if covered.any() else 0.0
    cell = fld.grid.dx * fld.grid.dy
    if p == 1:
        return float(np.sum(mags * frac) * cell)
    if p == 2:
        return float(math.sqrt(np.sum(mags * mags * frac) * cell))
    raise ValueError(f"unsupported norm order {p!r}")


def region_norm(fld: SpectrogramField, region: Region, p) -> float:
    """L^p norm of the field over the union of the region's squares.

    Composite midpoint rule with exact sub-cell coverage weights for p in
    {1, 2}; p=inf returns the max of |values| over covered grid points.
    """
    _check_region_in_grid(fld.grid, region)
    return _masked_norm(fld, coverage_fractions(fld.grid, region), p)


def rect_union_norm(fld: SpectrogramField,
                    rects: list[tuple[float, float, float, float]], p) -> float:
    """L^p norm over a union of axis-aligned rectangles (xmin, xmax, ymin, ymax).

    Same midpoint-with-coverage rule as region_norm; used for pairwise square
    intersections, which are rectangles rather than squares.
    """
    return _masked_norm(fld, _union_fractions(fld.grid, rects), p)


def region_inner_product(fld_a: SpectrogramField, fld_b: SpectrogramField,
                         region: Region) -> complex:
    """<a, b> over the region union; fields must share a grid."""
    if fld_a.grid != fld_b.grid:
        raise ValueError("fields must share a grid")
    _check_region_in_grid(fld_a.grid, region)
    frac = coverage_fractions(fld_a.grid, region)
    cell = fld_a.grid.dx * fld_a.grid.dy
    return complex(np.sum(fld_a.values * np.conj(fld_b.values) * frac) * cell)


def union_area(rects: list[tuple[float, float, float, float]]) -> float:
    """Exact area of a union of axis-aligned rectangles."""
    xs, ys, count = _arrangement(rects)
    return float(np.diff(xs) @ (count > 0) @ np.diff(ys))


def write_field_csv(fld: SpectrogramField, path) -> None:
    """CSV export: header x,y,re,im for transform fields, x,y,s for spectrograms."""
    xs, ys = fld.grid.xs(), fld.grid.ys()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if fld.kind == GABOR:
            writer.writerow(["x", "y", "re", "im"])
            for i in range(fld.grid.nx):
                for j in range(fld.grid.ny):
                    v = fld.values[i, j]
                    writer.writerow([repr(float(xs[i])), repr(float(ys[j])),
                                     repr(float(v.real)), repr(float(v.imag))])
        else:
            writer.writerow(["x", "y", "s"])
            for i in range(fld.grid.nx):
                for j in range(fld.grid.ny):
                    writer.writerow([repr(float(xs[i])), repr(float(ys[j])),
                                     repr(float(fld.values[i, j]))])


def _uniform_axis(values: np.ndarray, name: str) -> tuple[float, float, int]:
    uniq = np.unique(values)
    if len(uniq) == 1:
        return float(uniq[0]), 1.0, 1
    steps = np.diff(uniq)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-12):
        raise ValueError(f"{name} coordinates are not uniformly spaced")
    return float(uniq[0]), float(steps[0]), len(uniq)


def read_field_csv(path) -> SpectrogramField:
    """Inverse of write_field_csv; reconstructs the grid from coordinates."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in row] for row in reader if row]
    if header[:2] != ["x", "y"] or len(header) not in (3, 4):
        raise ValueError(f"unrecognized field CSV header {header!r}")
    data = np.asarray(rows)
    x0, dx, nx = _uniform_axis(data[:, 0], "x")
    y0, dy, ny = _uniform_axis(data[:, 1], "y")
    if len(rows) != nx * ny:
        raise ValueError("field CSV does not cover a full grid")
    grid = Grid2D(x0, y0, dx, dy, nx, ny)
    ix = np.rint((data[:, 0] - x0) / dx).astype(int)
    iy = np.rint((data[:, 1] - y0) / dy).astype(int)
    if header == ["x", "y", "re", "im"]:
        vals = np.zeros((nx, ny), dtype=complex)
        vals[ix, iy] = data[:, 2] + 1j * data[:, 3]
        return SpectrogramField(grid, vals, GABOR)
    if header == ["x", "y", "s"]:
        vals = np.zeros((nx, ny))
        vals[ix, iy] = data[:, 2]
        return SpectrogramField(grid, vals, SPECTROGRAM)
    raise ValueError(f"unrecognized field CSV header {header!r}")
