"""Phase-optimal distances and end-to-end retrieval of the transform field
from a spectrogram on a square cover.

The pipeline recovers each square's field up to one unimodular constant from
a local jet of the squared modulus, taken in tensor_phase's shifted frame at
the grid node nearest the square's centre.  It estimates relative constants
on pairwise overlaps, propagates them over a spanning tree of the overlap
graph, and fixes the remaining global constant by averaging.  Covers whose
overlap graph is disconnected are retrieved per component and flagged: the
relative phase between components is not recoverable from the spectrogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gabor_engine import (
    GABOR,
    SPECTROGRAM,
    Grid2D,
    SpectrogramField,
    _check_region_in_grid,
    _masked_norms,
    _stacked_windows,
    _window,
    coverage_fractions,
    mixture_field,
    region_norm,
)
from .signal_model import GaussianMixtureSignal, make_sharpness_pair
from .stability_graph import SquareCover, _spanning_forest, build_graph
from .tensor_phase import (_FD_MAX_ORDER, SingularCenterError, jet_from_field, jet_from_mixture,
                           local_phase_from_modulus)

__all__ = [
    "RetrievalResult",
    "DegenerateSquareError",
    "min_phase_distance",
    "sharpness_ratio",
    "retrieve_phase",
]

# a square whose spectrogram peak is at or below this carries no phase information
_DEGENERATE_PEAK = 1e-10
# cells whose coverage is at or below this hold no local field
_COVERED = 1e-12
# cells per gathered array when overlaps are aligned (256 KB of complex values)
_BLOCK_CELLS = 1 << 14
# the jet order when none is given, per jet source
_DEFAULT_ORDER = {"analytic": 14, "finite_difference": _FD_MAX_ORDER}
# the centred unit square (xmin, xmax, ymin, ymax) of sharpness_ratio
_UNIT_SQUARE = (-0.5, 0.5, -0.5, 0.5)


class DegenerateSquareError(ValueError):
    """Squares whose spectrogram mass is below threshold, listed by index."""

    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(f"spectrogram below threshold on squares {self.indices}")


@dataclass(frozen=True)
class RetrievalResult:
    field: SpectrogramField
    components: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...]


def min_phase_distance(fld_f: SpectrogramField, fld_g: SpectrogramField,
                       rects) -> tuple[complex, float]:
    """Exact minimizer over unimodular tau of ||G - tau F||_{L2(region)}.

    The region is the union of the (m, 4) rectangles (xmin, xmax, ymin, ymax).

    tau = <G, F> / |<G, F>| when the inner product is nonzero; for orthogonal
    fields every tau is optimal and the distance is (||F||^2 + ||G||^2)^(1/2).
    The fields must share a grid.  The union's window and coverage are found
    once and serve both the inner product and the norms.
    """
    grid = fld_f.grid
    if fld_g.grid != grid:
        raise ValueError("fields must share a grid")
    _check_region_in_grid(grid, rects)
    sx, sy, sub = _window(grid, rects)
    frac = coverage_fractions(sub, rects)
    f, g = fld_f.values[sx, sy], fld_g.values[sx, sy]
    ip = complex(np.sum(g * np.conj(f) * frac) * (grid.dx * grid.dy))
    if abs(ip) > 0.0:
        tau = ip / abs(ip)
        # norm of the explicit windowed difference: no cancellation floor
        return complex(tau), float(_masked_norms(g - tau * f, frac, grid, 2))
    nf, ng = (float(_masked_norms(v, frac, grid, 2)) for v in (f, g))
    return 1.0 + 0.0j, math.sqrt(nf * nf + ng * ng)


def sharpness_ratio(a: float, step: float) -> tuple[float, float]:
    """(dist, sqrt_specdiff) of make_sharpness_pair(a) on the centred unit square.

    dist is the phase-optimal L2 distance of the two transform fields on a
    grid of spacing `step`, sqrt_specdiff the root L2 distance of their
    spectrograms; dist / sqrt_specdiff is the sharpness ratio.
    """
    grid = Grid2D.from_bounds(*_UNIT_SQUARE, step)
    square = [_UNIT_SQUARE]
    f, g = make_sharpness_pair(a)
    fld_f = mixture_field(f, grid)
    fld_g = mixture_field(g, grid)
    _, dist = min_phase_distance(fld_f, fld_g, square)
    diff = SpectrogramField(
        grid, np.abs(fld_f.values) ** 2 - np.abs(fld_g.values) ** 2 + 0j, GABOR
    )
    return dist, math.sqrt(region_norm(diff, square, 2))


def _jet_order(jet_source: str, order: int | None) -> int:
    """`order`, or the jet source's default when it is None; a finite-difference
    order above 4 raises ValueError."""
    if order is None:
        return _DEFAULT_ORDER[jet_source]
    if jet_source == "finite_difference" and order > _FD_MAX_ORDER:
        raise ValueError(f"{order!r} is greater than the maximum of {_FD_MAX_ORDER} "
                         "for finite_difference jets")
    return order


def retrieve_phase(spec: SpectrogramField, cover: SquareCover,
                   jet_source: str = "analytic", order: int | None = None,
                   signal: GaussianMixtureSignal | None = None) -> RetrievalResult:
    """Reconstruct a transform field on the cover from spectrogram data.

    Per square, a jet of |F_c|^2 is built at the grid node nearest the
    square's centre (analytic jets require the generating mixture and
    default to order 14; finite-difference jets work from the samples, take
    orders 0..4 only and default to 4, and a higher `order` raises
    ValueError before any work).  Local fields
    are aligned pairwise on overlaps and synchronized; the output is defined
    up to one unimodular constant per connected component of the overlap
    graph.  Squares must lie in the field's domain.

    The squares' index windows and exact coverage come from one stacked
    pass, zero-padded to the widest window, and the degeneracy test is one
    pass over that stack.  Local fields get their Gaussian factor for blocks
    of squares at once and their jet polynomials square by square; overlaps
    are aligned in groups of equal shared-window shape, and stitching adds
    each square's slice of the stack.  Memory is O(N^2 + n w^2) for an N x N
    grid and n windows of at most w x w cells.
    """
    if spec.kind != SPECTROGRAM:
        raise ValueError("retrieve_phase expects a spectrogram field")
    if jet_source not in ("analytic", "finite_difference"):
        raise ValueError(f"unknown jet source {jet_source!r}")
    order = _jet_order(jet_source, order)
    if jet_source == "analytic" and signal is None:
        raise ValueError("analytic jets require the generating mixture")

    grid = spec.grid
    n = len(cover)
    graph = build_graph(spec, cover)  # checks that every square lies in the domain

    # per square: its index window and the exact coverage on it, padded with zeros
    start, size, ax, ay = _stacked_windows(grid, cover.rects())
    cov = ax[:, :, None] * ay[:, None, :]
    np.clip(cov, 0.0, 1.0, out=cov)
    covered = cov > _COVERED
    # grid indices of the stacked cells, clamped to the grid; cells past a
    # window's end have zero coverage, so they carry no weight
    rows = np.minimum(start[0][:, None] + np.arange(cov.shape[1]), grid.nx - 1)
    cols = np.minimum(start[1][:, None] + np.arange(cov.shape[2]), grid.ny - 1)
    peaks = np.where(covered, spec.values[rows[:, :, None], cols[:, None, :]], -1.0).max(axis=(1, 2))
    degenerate = np.flatnonzero(peaks <= _DEGENERATE_PEAK)
    if degenerate.size:
        raise DegenerateSquareError(degenerate.tolist())

    # jet centres: the grid node nearest each square's centre
    xs, ys = grid.xs(), grid.ys()
    nodes = np.rint((np.array(cover.centers) - (grid.x0, grid.y0)) / (grid.dx, grid.dy))
    jets = [jet_from_mixture(signal, complex(xs[i], -ys[j]), order) if jet_source == "analytic"
            else jet_from_field(spec, (xs[i], ys[j]), order) for i, j in nodes.astype(int)]

    # local recovery on each square's covered cells: at w = x - i y,
    # F_c(u) exp(i pi (Im(conj(c) u) - x y) - pi |u|^2 / 2), u = w - c, c = jet centre;
    # the Gaussian factor for blocks of squares of at most _BLOCK_CELLS / 4 stacked cells
    locals_ = np.zeros(cov.shape, dtype=complex)
    centers = np.array([jet.center for jet in jets])
    per_block = max(1, _BLOCK_CELLS // 4 // covered[0].size)
    for first in range(0, n, per_block):
        sq, a, b = np.nonzero(covered[first:first + per_block])
        sq += first
        px, py, c = xs[start[0][sq] + a], ys[start[1][sq] + b], centers[sq]
        w_pts = px - 1j * py
        u = w_pts - c
        gauss = np.exp(1j * np.pi * ((np.conj(c) * u).imag - px * py)
                       - 0.5 * np.pi * (u.real ** 2 + u.imag ** 2))
        ends = np.searchsorted(sq, np.arange(first, first + per_block + 1)).tolist()
        for k, (jet, lo, hi) in enumerate(zip(jets[first:], ends, ends[1:]), first):
            try:
                local = local_phase_from_modulus(jet, w_pts[lo:hi])
            except SingularCenterError as exc:
                raise SingularCenterError(f"square {k}: {exc}") from None
            np.multiply(local, gauss[lo:hi], out=gauss[lo:hi])
        locals_[sq, a, b] = gauss

    # relative multipliers on overlaps, then spanning-tree propagation
    ei, ej = graph.edges()
    nums = _overlap_products(locals_, cov, start, size, ei, ej)
    edges: dict[tuple[int, int], complex] = {}
    for i, j, num in zip(ei.tolist(), ej.tolist(), nums.tolist()):
        if num != 0:  # a zero overlap inner product carries no phase
            edges[(i, j)] = num / abs(num)  # estimate of phase(i) - phase(j)

    # trees grow from the heaviest squares; each root keeps multiplier 1
    tree_edges, components = _spanning_forest(n, edges, np.argsort(-graph.w).tolist())
    multipliers = np.ones(n, dtype=complex)
    for u, v in tree_edges:
        # edges[(i, j)] estimates exp(i (phase_i - phase_j)); align v to u
        rel = edges[(u, v)] if (u, v) in edges else np.conj(edges[(v, u)])
        multipliers[v] = multipliers[u] * rel

    warnings = []
    if len(components) > 1:
        warnings.append(
            f"multi-component cover: {len(components)} components; relative phase "
            "between components is not recoverable"
        )

    # stitch: coverage-weighted average of aligned local fields
    locals_ *= multipliers[:, None, None]
    locals_ *= cov
    weight_sum = np.zeros((grid.nx, grid.ny))
    acc = np.zeros((grid.nx, grid.ny), dtype=complex)
    for k, (i, j, w, h) in enumerate(np.concatenate([start, size]).T.tolist()):
        acc[i:i + w, j:j + h] += locals_[k, :w, :h]
        weight_sum[i:i + w, j:j + h] += cov[k, :w, :h]
    del locals_, cov, covered  # the stack is spent; free it before the output is built
    out_vals = np.divide(acc, weight_sum, out=np.zeros_like(acc), where=weight_sum > _COVERED)

    # global constant: the direction of the mean multiplier
    c0 = complex(multipliers.mean())
    tau = c0 / abs(c0) if abs(c0) > 1e-12 else 1.0
    out_vals *= np.conj(tau)

    field = SpectrogramField(grid, out_vals, GABOR)
    return RetrievalResult(field, tuple(components), tuple(warnings))


def _overlap_products(locals_, cov, start, size, ei, ej) -> np.ndarray:
    """sum(local_i conj(local_j) min(cov_i, cov_j)) over the shared window of each pair (i, j).

    Pairs are grouped by the shape of their shared index window, and each
    group is gathered in blocks of at most _BLOCK_CELLS cells per array, so
    every pair is still summed over exactly its own cells.
    """
    lo = np.maximum(start[:, ei], start[:, ej])
    shape = np.maximum(np.minimum(start[:, ei] + size[:, ei], start[:, ej] + size[:, ej]) - lo, 0)
    nums = np.zeros(len(ei), dtype=complex)
    keys, group = np.unique(shape[0] * (cov.shape[2] + 1) + shape[1], return_inverse=True)
    for g in range(len(keys)):
        idx = np.flatnonzero(group == g)
        w, h = shape[:, idx[0]]
        if w * h == 0:
            continue  # no shared cells: the product is zero
        for block in np.array_split(idx, math.ceil(len(idx) * w * h / _BLOCK_CELLS)):
            si, sj = ei[block], ej[block]
            fi, fj = lo[:, block] - start[:, si], lo[:, block] - start[:, sj]
            prod = _gather(locals_, si, fi, w, h) * np.conj(_gather(locals_, sj, fj, w, h))
            prod *= np.minimum(_gather(cov, si, fi, w, h), _gather(cov, sj, fj, w, h))
            nums[block] = prod.sum(axis=(1, 2))
    return nums


def _gather(stack: np.ndarray, squares: np.ndarray, first: np.ndarray, w: int, h: int) -> np.ndarray:
    """The w x h blocks of stack[squares] starting at the (2, m) local indices `first`."""
    r, c = first[:, :, None, None]
    return stack[squares[:, None, None], r + np.arange(w)[:, None], c + np.arange(h)]
