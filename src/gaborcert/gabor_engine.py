"""Numerical transform fields on grids and region norms over rectangle unions.

Fields live on rectangular grids; a grid point (i, j) represents the cell of
size dx*dy centered at it, which is the resolution of every region norm here
(midpoint rule with exact sub-cell coverage weights at region boundaries).
A region is an (m, 4) array-like of axis-aligned rectangles
(xmin, xmax, ymin, ymax), such as the squares of a cover; overlapping
rectangles are integrated over their set union, counted once.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .signal_model import GaussianMixtureSignal, _cis_outer, gabor_closed_form

__all__ = [
    "GABOR",
    "SPECTROGRAM",
    "Grid2D",
    "SampledSignal",
    "SpectrogramField",
    "quadrature_gabor",
    "mixture_field",
    "spectrogram",
    "coverage_fractions",
    "region_norm",
    "rect_union_norm",
    "union_area",
    "write_field_csv",
    "write_table_csv",
    "read_field_csv",
]

GABOR = "gabor"
SPECTROGRAM = "spectrogram"

# the transform sums its t nodes in panels of this many samples, in order
_T_BLOCK = 128


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
        if not all(map(math.isfinite, (self.x0, self.y0, self.dx, self.dy))):
            raise ValueError("grid origin and spacings must be finite")
        if not (self.nx >= 1 and self.ny >= 1):
            raise ValueError("grid must have at least one point per axis")

    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

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
        spans = ((xmax - xmin) / step, (ymax - ymin) / step)
        if not all(map(math.isfinite, spans)):
            raise ValueError("grid span is not a finite number of steps")
        nx, ny = (int(round(s)) + 1 for s in spans)
        return Grid2D(xmin, ymin, step, step, nx, ny)


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Uniformly sampled time signal on t0 + dt * arange(len(samples)).

    `samples` is any sequence of numbers, such as a tuple or an array; it is
    kept as a read-only complex array.  dt should resolve the analysis
    window (dt <= 0.1 recommended, not enforced); coarser sampling degrades
    the transform silently.
    """

    samples: np.ndarray
    t0: float
    dt: float

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=complex)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("samples must be a sequence of numbers")
        if len(samples) == 0:
            raise ValueError("sampled signal must be nonempty")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (math.isfinite(self.t0) and math.isfinite(self.dt)):
            raise ValueError("t0 and dt must be finite")
        if not np.isfinite(samples).all():
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
            # rounding may leave values a little below zero, relative to the data's own peak
            if vals.size and vals.min() < -1e-9 * vals.max():
                raise ValueError("spectrogram values must be nonnegative")
            vals = np.maximum(vals, 0.0)
        else:
            vals = np.asarray(vals, dtype=complex)
        object.__setattr__(self, "values", vals)


def quadrature_gabor(sig: SampledSignal, grid: Grid2D) -> SpectrogramField:
    """Transform field of a sampled signal by trapezoidal quadrature on its sample grid.

    The sum runs over every t node for every grid point; nothing is
    truncated.  The product of the windowed x rows with the kernel
    exp(-2 pi i t y) is summed over t in panels of _T_BLOCK samples, the
    last one shorter: each panel's kernel slice and windowed rows are built,
    multiplied and added to the output in panel order, so the order of the
    sum is fixed here, not by the BLAS's own split of a long product.  The
    kernel is cos + i sin of its real angle (`signal_model._cis_outer`),
    built with y as its rows and used transposed: the layout whose products
    the panel oracle in the tests pins bit for bit.  Besides
    the output, the working set is one panel's kernel slice, windowed rows
    and real window, one output-sized partial sum and the nt-long t and
    weight vectors: it does not grow with nt times the grid.  Every grid,
    a single x row too, takes the same panels, so the field does not
    depend on the BLAS thread count.
    """
    t, ft, dt = sig.times(), sig.samples, sig.dt
    w = np.full(len(t), dt)
    if len(t) > 1:
        w[0] *= 0.5
        w[-1] *= 0.5
    # each row is weighted by w + 0j, the promotion that multiplying by the real w applies
    w = w + 0j

    xs = grid.xs()
    ys = grid.ys()
    values = np.empty((len(xs), len(ys)), dtype=complex)
    width = min(len(t), _T_BLOCK)
    kernel_buf = np.empty(len(ys) * width, dtype=complex)
    windowed_buf = np.empty(len(xs) * width, dtype=complex)
    gauss_buf = np.empty(len(xs) * width)
    partial = np.empty_like(values) if len(t) > width else None
    for lo in range(0, len(t), width):
        hi = min(lo + width, len(t))
        # the kernel slice as cos + i sin of (y t) (-2 pi), used transposed
        kernel = _cis_outer(ys, t[lo:hi], -2 * np.pi,
                            kernel_buf[:len(ys) * (hi - lo)].reshape(len(ys), hi - lo)).T
        # every x row's (f(t) exp(-pi (t - x)^2)) w(t) on the panel; f * window
        # promotes the window to window + 0j
        gauss = gauss_buf[:len(xs) * (hi - lo)].reshape(len(xs), hi - lo)
        np.subtract(t[lo:hi], xs[:, None], out=gauss)
        np.square(gauss, out=gauss)
        gauss *= -np.pi
        np.exp(gauss, out=gauss)
        windowed = windowed_buf[:gauss.size].reshape(gauss.shape)
        np.multiply(ft[lo:hi], gauss, out=windowed)
        windowed *= w[lo:hi]
        if lo == 0:
            np.matmul(windowed, kernel, out=values)
        else:
            values += np.matmul(windowed, kernel, out=partial)
    return SpectrogramField(grid, values, GABOR)


def mixture_field(sig: GaussianMixtureSignal, grid: Grid2D) -> SpectrogramField:
    """Closed-form transform field (fast path for mixtures).

    The grid is passed to `gabor_closed_form` as an open mesh, which it
    evaluates as one rank-K product.
    """
    values = gabor_closed_form(sig, grid.xs()[:, None], grid.ys()[None, :])
    return SpectrogramField(grid, values, GABOR)


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
    """Overlap fraction of cells [c-h/2, c+h/2] with each [edges[k], edges[k+1]].

    Broadcasts over leading axes: centers (..., w) and edges (..., e) give
    fractions of shape (..., w, e - 1).
    """
    c = centers[..., :, None]
    left = np.maximum(c - 0.5 * h, edges[..., None, :-1])
    right = np.minimum(c + 0.5 * h, edges[..., None, 1:])
    return np.maximum(right - left, 0.0) / h


def _cell_windows(grid: Grid2D, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Index windows [start, stop) of the grid cells that meet boxes [lo, hi].

    lo and hi hold (x, y) bounds in a last axis of length 2; start and stop
    have their shape and integer values.  Per axis, the window runs from the
    cell holding the low bound to the cell holding the high bound, clamped
    to the grid and never empty: a box that misses the grid gets the
    nearest edge cell (and a NaN bound the whole axis).
    """
    origin, step, n = (grid.x0, grid.y0), (grid.dx, grid.dy), (grid.nx, grid.ny)
    start = np.fmin(np.fmax(np.floor((lo - origin) / step + 0.5), 0), np.subtract(n, 1))
    stop = np.fmax(np.fmin(np.floor((hi - origin) / step + 0.5) + 1, n), start + 1)
    return start, stop


def _window(grid: Grid2D, rects) -> tuple[slice, slice, Grid2D]:
    """The cells of the grid that meet the bounding box of the rectangles.

    Returns index slices (sx, sy) into the grid's values and the sub-grid of
    those cells.  Coverage by the rectangles is zero outside the window, so
    region quantities are computed on the sub-grid alone: O(w^2) per region
    instead of O(N^2).  There must be at least one rectangle.
    """
    r = np.asarray(rects, dtype=float).reshape(-1, 4)
    start, stop = _cell_windows(grid, r[:, ::2].min(axis=0), r[:, 1::2].max(axis=0))
    (i0, j0), (i1, j1) = start.astype(int).tolist(), stop.astype(int).tolist()
    sub = Grid2D(grid.x0 + grid.dx * i0, grid.y0 + grid.dy * j0, grid.dx, grid.dy, i1 - i0, j1 - j0)
    return slice(i0, i1), slice(j0, j1), sub


def coverage_fractions(grid: Grid2D, rects) -> np.ndarray:
    """Exact coverage fraction of each grid cell by the union of the rectangles (in [0, 1])."""
    xs, ys, count = _arrangement(rects)
    ax = _interval_overlap(grid.xs(), grid.dx, xs)
    ay = _interval_overlap(grid.ys(), grid.dy, ys)
    return np.clip(ax @ (count > 0) @ ay.T, 0.0, 1.0)


def _check_region_in_grid(grid: Grid2D, rects) -> None:
    """Raise ValueError unless there is a rectangle and every one lies in the grid's cells."""
    r = np.asarray(rects, dtype=float).reshape(-1, 4)
    if len(r) == 0:
        raise ValueError("region must contain at least one rectangle")
    gx0, gx1, gy0, gy1 = grid.cell_bounds()
    tol = 1e-9 * max(grid.dx, grid.dy)
    inside = ((r[:, 0] >= gx0 - tol) & (r[:, 1] <= gx1 + tol)
              & (r[:, 2] >= gy0 - tol) & (r[:, 3] <= gy1 + tol))
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(f"rectangle {k} {tuple(r[k].tolist())} exceeds the field domain")


def _masked_norms(values: np.ndarray, frac: np.ndarray, grid: Grid2D, p):
    """L1 or L2 norms over windows of cells: values and frac of shape (..., wx, wy)
    give one norm per leading index (a 0-d array for a single window).

    Each window is reduced over its own cells as one flat pairwise sum, so a
    norm does not depend on the other windows of a stack.
    """
    cells = (-2, -1)
    mags = np.abs(values)
    cell = grid.dx * grid.dy
    # products in place: mags is a fresh array, and each stack is one temporary less
    if p == 1:
        mags *= frac
        return np.sum(mags, axis=cells) * cell
    if p == 2:
        mags *= mags
        mags *= frac
        return np.sqrt(np.sum(mags, axis=cells) * cell)
    raise ValueError(f"unsupported norm order {p!r}")


def region_norm(fld: SpectrogramField, rects, p) -> float:
    """L^p norm of the field over the union of the (m, 4) rectangles (xmin, xmax, ymin, ymax).

    Composite midpoint rule with exact sub-cell coverage weights, p in
    {1, 2}.  Only the cells of the region's window are visited.  Every rectangle
    must lie in the field's domain.
    """
    _check_region_in_grid(fld.grid, rects)
    sx, sy, sub = _window(fld.grid, rects)
    return float(_masked_norms(fld.values[sx, sy], coverage_fractions(sub, rects), fld.grid, p))


def _stacked_windows(grid: Grid2D, r: np.ndarray):
    """Index windows and per-axis coverage of each rectangle of an (m, 4) array.

    Returns (start, size, ax, ay): start and size are (2, m) integer arrays
    of each window's first cell and extent per axis, and ax (m, W) and
    ay (m, H) hold the coverage of the window's cells, padded with zeros to
    the widest window.  ax[k, :, None] * ay[k, None, :], clipped to [0, 1],
    is bit-equal to coverage_fractions on rectangle k's window.
    """
    start, stop = _cell_windows(grid, r[:, ::2], r[:, 1::2])
    start, size = start.astype(np.intp).T, (stop - start).astype(np.intp).T
    axes = []
    for origin, step, first, width, bounds in ((grid.x0, grid.dx, start[0], size[0], r[:, :2]),
                                               (grid.y0, grid.dy, start[1], size[1], r[:, 2:])):
        # cell centers as in Grid2D.xs() of the window's sub-grid
        span = np.arange(width.max(initial=1))
        frac = _interval_overlap(origin + step * first[:, None] + step * span, step, bounds)[..., 0]
        frac[span >= width[:, None]] = 0.0
        axes.append(frac)
    return start, size, *axes


def rect_union_norm(fld: SpectrogramField, rects, p) -> np.ndarray:
    """L^p norms over each rectangle of an (m, 4) array, one per rectangle.

    Same rule as region_norm: every rectangle must lie in the field's domain,
    and an empty array gives no norms.  Windows and per-axis coverage are
    computed for all rectangles at once; the windows are then grouped by
    shape, so that each rectangle is still summed over exactly its own
    cells.  Every step is region_norm's elementwise arithmetic, which keeps
    each norm bit-equal to that of its rectangle alone.
    """
    r = np.asarray(rects, dtype=float)
    if r.shape[1:] != (4,):
        raise ValueError(f"expected an (m, 4) array, one rectangle each, got shape {r.shape}")
    grid = fld.grid
    if len(r):
        _check_region_in_grid(grid, r)
    (i0, j0), (wx, wy), ax, ay = _stacked_windows(grid, r)
    norms = np.empty(len(r))
    shapes, group = np.unique(wx * (grid.ny + 1) + wy, return_inverse=True)
    for k in range(len(shapes)):
        idx = np.flatnonzero(group == k)
        w, h = wx[idx[0]], wy[idx[0]]
        frac = ax[idx, :w, None] * ay[idx, None, :h]
        np.clip(frac, 0.0, 1.0, out=frac)
        rows = i0[idx, None, None] + np.arange(w)[:, None]
        cols = j0[idx, None, None] + np.arange(h)
        norms[idx] = _masked_norms(fld.values[rows, cols], frac, grid, p)
    return norms


def union_area(rects) -> float:
    """Exact area of a union of axis-aligned rectangles."""
    xs, ys, count = _arrangement(rects)
    return float(np.diff(xs) @ (count > 0) @ np.diff(ys))


# Shortest round-trip decimals of float64 arrays, vectorised: Schubfach (R. Giulietti, "The
# Schubfach way to render doubles", 2020) gives repr(float)'s digits.  A number's source bytes
# are 0 ",", 1 "-", 2 ".", 3..19 its 17 digits, 20 "0", 21 "e", 22 "i", 23 "n", 24..27 its
# exponent, 28 "f", 29 "a".
_WIDTH = 25  # "-1.2345678901234567e-308" and its separator
_M30 = (1 << 30) - 1
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_INF = 0x7FF0000000000000  # the bits of inf; larger magnitudes are NaNs
_FIELD_MASK = np.arange(_WIDTH) <= np.arange(_WIDTH)[:, None]  # row l: the first l + 1 bytes
_CSV_CHUNK = 2048  # rows per chunk of a CSV write


def _layout(neg: int, n: int, col: int) -> list[int]:
    """Source bytes of repr for a sign, n significant digits and a column, padded with 0:
    col - 3 places the point (1e-4 <= |x| < 1e16), 20 and 21 are d.ddde+XX and d.ddde+XXX,
    22 and 23 are inf and nan (which has no sign)."""
    digits, point = list(range(3, 3 + n)), col - 3
    if col >= 22:
        neg, body = neg * (col == 22), [[22, 23, 28], [23, 29, 23]][col - 22]
    elif col >= 20:
        body = digits[:1] + [2] * (n > 1) + digits[1:] + [21] + list(range(24, col + 7))
    elif point <= 0:
        body = [20, 2] + [20] * -point + digits
    else:
        body = digits[:point] + [20] * (point - n) + [2] + (digits[point:] or [20])
    return ([1] * neg + body + [0] * _WIDTH)[:_WIDTH]


@functools.cache
def _repr_tables() -> tuple[np.ndarray, ...]:
    """Tables of _float_fields, built on first use to keep imports light: g = floor(10^e
    2^(125 - floor(log2 10^e))) + 1 for e = -292..324 in 30-bit limbs; "0000".."9999", their
    trailing zeros; exponents "-324".."+308"; layouts by (sign, digits, column), lengths."""
    g = np.array([[g >> (30 * i) & _M30 for i in range(5)] for g in (
        ((10 ** max(e, 0) << max(sh, 0)) >> max(-sh, 0)) // 10 ** max(-e, 0) + 1
        for e in range(-292, 325) for sh in [125 - ((e * 913124641741) >> 38)])]).T.copy()
    digits4 = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48).copy().view(np.uint32)
    trailing4 = sum(np.arange(10000, dtype=np.int16) % 10 ** j == 0 for j in range(1, 5))
    exponent = np.frombuffer(b"".join(b"%+03d\0" % e if abs(e) < 100 else b"%+d" % e
                                      for e in range(-324, 309)), dtype=np.uint32)
    layout = np.array([_layout(neg, n, col) for neg in (0, 1) for n in range(1, 18)
                       for col in range(24)], dtype=np.int32)
    return g, digits4[:, 0], trailing4, exponent, layout, np.count_nonzero(layout, axis=1)


def _shortest_decimal(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k): f 10^k is the shortest decimal reading back as each positive finite double.

    `mag` holds the bits.  Of the shortest decimals in the rounding interval (closed for an
    even significand) the closest is taken, ties to even, as repr does.  Schubfach's products
    g c 2^h / 2^127 for the value and both interval ends are exact sums of 30-bit limb
    products; rounding to odd keeps bits 64..126 as the sticky bit."""
    bq, t = mag >> 52, mag & ((1 << 52) - 1)
    c, q = t | ((bq > 0) << 52), np.maximum(bq, 1) - 1075
    irregular = (t == 0) & (bq > 1)  # a power of two: the lower neighbour is half as far
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = q + ((-k * 913124641741) >> 38) + 2
    g = _repr_tables()[0].take(292 - k, axis=1)
    cp, step = c << (h + 2), np.int64(1) << (h + 1)
    low = (cp & _M30) + np.stack([0 * step, step, -(step >> irregular)])  # of the 3 multipliers
    lo, hi = g[:, None, :] * low, g * (cp >> 30)
    acc = lo[2] + hi[1] + ((lo[1] + hi[0] + (lo[0] >> 30)) >> 30)
    sticky = (acc >> 4) & ((1 << 26) - 1)
    for limb, bits in ((3, _M30), (4, 127)):
        acc = lo[limb] + hi[limb - 1] + (acc >> 30)
        sticky |= acc & bits
    vb, vbr, vbl = ((acc >> 7) + (hi[4] << 23)) | (sticky != 0)
    odd, s = c & 1, vb >> 2
    s10 = s // 10 * 10  # a multiple of 10^(k+1) in the interval is the one shortest candidate
    u10, w10 = vbl + odd <= s10 << 2, ((s10 + 10) << 2) + odd <= vbr
    u, w = vbl + odd <= s << 2, ((s + 1) << 2) + odd <= vbr
    nearer_t = vb - 4 * s - 2 + (s & 1) > 0  # t = s + 1 is nearer, or as near and s is odd
    up = np.where(u != w, w, nearer_t)
    return np.where(u10 != w10, s10 + 10 * w10, s + up), k


def _float_fields(x) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of repr(float(v)) for each v of a float64 array: chars (m, 25), each repr
    left-aligned and "," after it, and the lengths.  Finite nonzero values get 17 digits from
    _shortest_decimal; every value is laid out by sign, digit count and decimal exponent, a
    zero as the one digit 0 with the point after it."""
    bits = np.ascontiguousarray(x, dtype=float).ravel().view(np.int64)
    mag = bits & ((1 << 63) - 1)
    num = (mag != 0) & (mag < _INF)
    _, digits4, trailing4, exponent, layout, length = _repr_tables()
    f, point = np.zeros(len(bits), dtype=np.int64), np.ones(len(bits), dtype=np.int64)
    f[num], k = _shortest_decimal(mag[num])
    nd = np.searchsorted(_POW10, f, side="right")
    f *= _POW10[17 - nd]
    point[num] = k + nd[num]
    d0, rest = np.divmod(f, 10 ** 16)
    groups = np.empty((4, len(f)), dtype=np.int64)
    groups[0], groups[1] = np.divmod(rest // 10 ** 8, 10000)
    groups[2], groups[3] = np.divmod(rest % 10 ** 8, 10000)
    src = np.empty((len(f), 8), dtype=np.uint32)
    src[:, 0] = (d0 << 24) | 0x302E2D2C
    src[:, 1:5] = digits4[groups.T]
    src[:, 5] = 0x6E696530
    src[:, 6] = exponent[point + 323]
    src[:, 7] = 0x6166
    n = 5 - trailing4[groups[0]]
    for j in (1, 2, 3):
        n = np.where(groups[j] != 0, 4 * j + 5 - trailing4[groups[j]], n)
    col = np.where((point > -4) & (point <= 16), point + 3, 20 + (np.abs(point - 1) >= 100))
    col = np.where(mag >= _INF, 22 + (mag > _INF), col)
    key = ((bits < 0) * 17 + n - 1) * 24 + col
    idx = layout.take(key, axis=0)
    idx += np.arange(0, 32 * len(f), 32, dtype=np.int32)[:, None]
    return src.view(np.uint8).ravel().take(idx), length[key]


def _write_csv(path, header: str, n: int, fields) -> None:
    """Write the header line and n rows, _CSV_CHUNK at a time: fields(rows) gives each column's
    slots for a slice of rows, (chars, lens) as _float_fields lays them out."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, n, _CSV_CHUNK):
            chars, lens = (np.stack(p, 1) for p in zip(*fields(slice(start, start + _CSV_CHUNK))))
            chars[np.arange(len(chars)), -1, lens[:, -1]] = ord("\n")  # the last field's ","
            fh.write(chars[_FIELD_MASK[lens]])


def _text_fields(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of str(v) for each v of a column, in _float_fields' slots."""
    cells = [str(v).encode() + b"," for v in col.tolist()]
    lens = np.array([len(cell) - 1 for cell in cells], dtype=np.intp)
    if lens.max(initial=0) >= _WIDTH:
        raise ValueError(f"a table cell is longer than {_WIDTH - 1} bytes")
    return np.array(cells, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH), lens


def write_table_csv(path, columns: dict) -> None:
    """CSV export of a table {header: column}, one row per index of its equal-length columns:
    floats as the bytes of repr(float), others by str (at most 24 bytes a cell), "\\n" line ends."""
    cols = [np.asarray(col) for col in columns.values()]
    _write_csv(path, ",".join(columns), len(cols[0]), lambda rows: [
        (_float_fields if col.dtype.kind == "f" else _text_fields)(col[rows]) for col in cols])


def write_field_csv(fld: SpectrogramField, path) -> None:
    """CSV export: header x,y,re,im for transform fields, x,y,s for spectrograms.

    One row per grid point in x-major order, every number as the bytes of repr(float),
    "\\n" line ends.  Grid coordinates are formatted once, each chunk's values in one call.
    """
    grid = fld.grid
    values = np.ascontiguousarray(fld.values).view(float).reshape(grid.nx * grid.ny, -1)
    (x_chars, x_lens), (y_chars, y_lens) = _float_fields(grid.xs()), _float_fields(grid.ys())

    def fields(rows):
        ix, iy = np.divmod(np.arange(*rows.indices(len(values))), grid.ny)
        chars, lens = _float_fields(values[rows].T)  # value column by value column
        return [(x_chars[ix], x_lens[ix]), (y_chars[iy], y_lens[iy]),
                *zip(chars.reshape(-1, len(ix), _WIDTH), lens.reshape(-1, len(ix)))]

    _write_csv(path, "x,y,re,im" if fld.kind == GABOR else "x,y,s", len(values), fields)


def _uniform_axis(values: np.ndarray, name: str) -> tuple[float, float, int]:
    """(first, step, count) of a uniformly spaced coordinate axis.

    The step is the first of these that makes first + step * k give back
    every coordinate, so a grid written by write_field_csv reads back as the
    same grid: the double nearest m = (last - first) / (count - 1), its
    neighbours up to 4 ulps away, then m rounded to 15, 14, ..., 1
    significant digits (a decimal step on an axis far from 0 against its
    span).  If none does, the first difference is the step.  One coordinate
    gives no step (nor does the other axis), so it raises ValueError.
    """
    uniq = np.unique(values)
    if len(uniq) == 1:
        raise ValueError(f"{name} axis has one coordinate, which gives no grid step")
    steps = np.diff(uniq)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-12):
        raise ValueError(f"{name} coordinates are not uniformly spaced")
    k = np.arange(len(uniq))
    mean = (uniq[-1] - uniq[0]) / (len(uniq) - 1)
    below = above = mean
    candidates = [mean]
    for _ in range(4):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        candidates += [below, above]
    candidates += [float(f"{mean:.{digits}g}") for digits in range(15, 0, -1)]
    for step in candidates:
        if np.array_equal(uniq[0] + step * k, uniq):
            return float(uniq[0]), float(step), len(uniq)
    return float(uniq[0]), float(steps[0]), len(uniq)


def read_field_csv(path) -> SpectrogramField:
    """Inverse of write_field_csv for spectrograms; reconstructs the grid from coordinates.

    The header is read with `csv` and must be x,y,s before the body is
    parsed, in one `np.loadtxt` call.  Malformed bodies (no rows,
    ragged rows, non-numeric or non-finite cells, a column count other than
    the header's, an axis with one coordinate, rows that miss or repeat a
    grid cell) raise ValueError.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header != ["x", "y", "s"]:
            raise ValueError(f"unrecognized field CSV header {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty body: raised below
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if data.size == 0:
        raise ValueError("field CSV has no rows")
    if data.shape[1] != len(header):
        raise ValueError(f"field CSV rows have {data.shape[1]} columns, header has {len(header)}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"field CSV data row {int(np.argmin(finite)) + 1} has a non-finite cell")
    x0, dx, nx = _uniform_axis(data[:, 0], "x")
    y0, dy, ny = _uniform_axis(data[:, 1], "y")
    ix = np.rint((data[:, 0] - x0) / dx).astype(int)
    iy = np.rint((data[:, 1] - y0) / dy).astype(int)
    # nx * ny rows cover the grid when no cell repeats
    if len(data) != nx * ny or not np.bincount(ix * ny + iy, minlength=nx * ny).all():
        raise ValueError("field CSV does not cover a full grid")
    vals = np.zeros((nx, ny))
    vals[ix, iy] = data[:, 2]
    return SpectrogramField(Grid2D(x0, y0, dx, dy, nx, ny), vals, SPECTROGRAM)
