"""Phase-optimal distances and end-to-end retrieval of the transform field
from a spectrogram on a square cover.

The pipeline recovers each square's field up to one unimodular constant from
a local jet of the squared modulus, taken in tensor_phase's shifted frame at
the grid node nearest the square's centre.  It estimates relative constants
on pairwise overlaps and synchronizes them over every overlap at once, by
the top eigenvector of the degree-normalised overlap operator (Singer's
spectral synchronization), and fixes the remaining global constant by
averaging.  Covers whose overlap graph is disconnected are retrieved per
component and flagged: the relative phase between components is not
recoverable from the spectrogram.
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
)
from .signal_model import GaussianMixtureSignal, make_sharpness_pair
from .stability_graph import DegenerateSquareError, SquareCover, _components, build_graph
from .tensor_phase import _FD_MAX_ORDER, jet_from_field, jet_from_mixture, local_phase_from_modulus

__all__ = [
    "RetrievalResult",
    "min_phase_distance",
    "stability_distances",
    "sharpness_ratio",
    "retrieve_phase",
]

# a square whose spectrogram peak is at or below this times the spectrogram's
# peak over the covered cells carries no phase information
_DEGENERATE_PEAK = 1e-10
# cells whose coverage is at or below this hold no local field
_COVERED = 1e-12
# the jet order when none is given, and the largest taken, per jet source: local recovery
# divides by k! up to the order, and 170! is the largest factorial finite in float64
_DEFAULT_ORDER = {"analytic": 14, "finite_difference": _FD_MAX_ORDER}
_MAX_ORDER = {"analytic": 170, "finite_difference": _FD_MAX_ORDER}
# the centred unit square (xmin, xmax, ymin, ymax) of sharpness_ratio
_UNIT_SQUARE = (-0.5, 0.5, -0.5, 0.5)


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
    return _aligned_distance(*_union_window(fld_f, fld_g, rects), fld_f.grid)


def stability_distances(fld_f: SpectrogramField, fld_g: SpectrogramField,
                        rects) -> tuple[float, float]:
    """(dist, sqrt_specdiff): the two sides of the stability estimate on a region.

    The region is the union of the (m, 4) rectangles.  dist is the
    phase-optimal L2 distance of the two transform fields (min_phase_distance),
    sqrt_specdiff the root L2 distance ||S_f - S_g||^(1/2) of their
    spectrograms; dist / sqrt_specdiff is the measured stability ratio.  Both
    are computed on one window and coverage of the union.
    """
    f, g, frac = _union_window(fld_f, fld_g, rects)
    _, dist = _aligned_distance(f, g, frac, fld_f.grid)
    specdiff = _masked_norms(np.abs(f) ** 2 - np.abs(g) ** 2, frac, fld_f.grid, 2)
    return dist, math.sqrt(specdiff)


def _union_window(fld_f: SpectrogramField, fld_g: SpectrogramField, rects):
    """(f, g, frac): both fields' values on the union's window and its coverage there."""
    grid = fld_f.grid
    if fld_g.grid != grid:
        raise ValueError("fields must share a grid")
    _check_region_in_grid(grid, rects)
    sx, sy, sub = _window(grid, rects)
    return fld_f.values[sx, sy], fld_g.values[sx, sy], coverage_fractions(sub, rects)


def _aligned_distance(f: np.ndarray, g: np.ndarray, frac: np.ndarray,
                      grid: Grid2D) -> tuple[complex, float]:
    """min_phase_distance on windowed values f, g with coverage frac."""
    ip = complex(np.sum(g * np.conj(f) * frac) * (grid.dx * grid.dy))
    if abs(ip) > 0.0:
        tau = ip / abs(ip)
        # norm of the explicit windowed difference: no cancellation floor
        return complex(tau), float(_masked_norms(g - tau * f, frac, grid, 2))
    nf, ng = (float(_masked_norms(v, frac, grid, 2)) for v in (f, g))
    return 1.0 + 0.0j, math.sqrt(nf * nf + ng * ng)


def sharpness_ratio(a: float, step: float) -> tuple[float, float]:
    """stability_distances of make_sharpness_pair(a) on the centred unit square,
    on a grid of spacing `step`."""
    grid = Grid2D.from_bounds(*_UNIT_SQUARE, step)
    f, g = make_sharpness_pair(a)
    return stability_distances(mixture_field(f, grid), mixture_field(g, grid), [_UNIT_SQUARE])


def _jet_order(jet_source: str, order: int | None) -> int:
    """`order`, or the jet source's default when it is None; an order above the
    source's maximum (170 analytic, 4 finite-difference) raises ValueError."""
    if order is None:
        return _DEFAULT_ORDER[jet_source]
    if order > _MAX_ORDER[jet_source]:
        raise ValueError(f"{order!r} is greater than the maximum of {_MAX_ORDER[jet_source]} "
                         f"for {jet_source} jets")
    return order


def retrieve_phase(spec: SpectrogramField, cover: SquareCover,
                   jet_source: str = "analytic", order: int | None = None,
                   signal: GaussianMixtureSignal | None = None) -> RetrievalResult:
    """Reconstruct a transform field on the cover from spectrogram data.

    Per square, a jet of |F_c|^2 is built at the grid node nearest the
    square's centre (analytic jets require the generating mixture, take
    orders 0..170 and default to 14; finite-difference jets work from the
    samples, take orders 0..4 only and default to 4; a higher `order` raises
    ValueError before any work).  Local fields are aligned pairwise on
    overlaps, and their relative phases are synchronized over every overlap
    at once by _synchronize, the top eigenvector of the degree-normalised
    operator of the overlap products; the output is defined up to one
    unimodular constant per connected component of the overlap graph.
    Squares must lie in the field's domain.  Both degeneracy thresholds are
    1e-10 times the spectrogram's peak P over the covered cells: a square
    whose own peak is at or below it raises DegenerateSquareError, and a jet
    centre whose every |F^(m)|^2 is at or below it raises SingularCenterError.
    That and a jet's other errors (a stencil that leaves the grid) name the square.

    Each square keeps its own index window: its exact coverage there, its
    covered cells and its local field, recovered on those cells.  Each
    overlap is aligned on the intersection of its two windows, and
    stitching adds each square's window into the output.  Memory is
    O(N^2 + sum_i w_i h_i + n^2) for an N x N grid, n windows of w_i x h_i
    cells and the dense n x n overlap operator, and the synchronization is
    one O(c^3) eigensolve per component of c squares.
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

    # per square: its window's index slices (sx, sy), its exact coverage there, and its
    # spectrogram peak over its covered cells
    start, size, ax, ay = _stacked_windows(grid, cover.rects())
    windows, peaks = [], []
    for k, (i, j, w, h) in enumerate(np.concatenate([start, size]).T.tolist()):
        sx, sy = slice(i, i + w), slice(j, j + h)
        cov = np.clip(ax[k, :w, None] * ay[k, None, :h], 0.0, 1.0)
        windows.append((sx, sy, cov))
        peaks.append(spec.values[sx, sy][cov > _COVERED].max(initial=-1.0))
    peaks = np.array(peaks)
    # both degeneracy thresholds are relative to the data's own scale, its peak
    # over the covered cells; cells outside the cover take no part
    scale = float(peaks.max())
    degenerate = np.flatnonzero(peaks <= _DEGENERATE_PEAK * scale)
    if degenerate.size:
        raise DegenerateSquareError(degenerate.tolist())

    # per square, its jet at the grid node nearest its centre, then local recovery on its
    # covered cells: at w = x - i y,
    # F_c(u) exp(i pi (Im(conj(c) u) - x y) - pi |u|^2 / 2), u = w - c, c = jet centre
    xs, ys = grid.xs(), grid.ys()
    nodes = np.rint((np.array(cover.centers) - (grid.x0, grid.y0)) / (grid.dx, grid.dy))
    locals_ = []
    for k, ((i, j), (sx, sy, cov)) in enumerate(zip(nodes.astype(int).tolist(), windows)):
        a, b = np.nonzero(cov > _COVERED)
        px, py = xs[sx][a], ys[sy][b]
        w_pts = px - 1j * py
        try:
            jet = (jet_from_mixture(signal, complex(xs[i], -ys[j]), order)
                   if jet_source == "analytic" else jet_from_field(spec, (xs[i], ys[j]), order))
            local = local_phase_from_modulus(jet, w_pts, scale)
        except ValueError as exc:  # SingularCenterError and the jets' domain errors
            raise type(exc)(f"square {k}: {exc}") from None
        c = jet.center
        u = w_pts - c
        local *= np.exp(1j * np.pi * ((np.conj(c) * u).imag - px * py)
                        - 0.5 * np.pi * (u.real ** 2 + u.imag ** 2))
        field = np.zeros(cov.shape, dtype=complex)
        field[a, b] = local
        locals_.append(field)

    # relative multipliers on overlaps, then synchronization over all of them;
    # a zero product carries no phase, so no edge
    ei, ej = graph.i, graph.j
    nums = _overlap_products(locals_, windows, ei, ej)
    keep = np.flatnonzero(nums)
    multipliers, components = _synchronize(n, ei[keep], ej[keep], nums[keep], graph.w)

    warnings = []
    if len(components) > 1:
        warnings.append(
            f"multi-component cover: {len(components)} components; relative phase "
            "between components is not recoverable"
        )

    # stitch: coverage-weighted average of aligned local fields
    weight_sum = np.zeros((grid.nx, grid.ny))
    acc = np.zeros((grid.nx, grid.ny), dtype=complex)
    for field, multiplier, (sx, sy, cov) in zip(locals_, multipliers, windows):
        acc[sx, sy] += field * multiplier * cov
        weight_sum[sx, sy] += cov
    del locals_, windows  # the windows are spent; free them before the output is built
    out_vals = np.divide(acc, weight_sum, out=np.zeros_like(acc), where=weight_sum > _COVERED)

    # global constant: the direction of the mean multiplier
    c0 = complex(multipliers.mean())
    tau = c0 / abs(c0) if abs(c0) > 1e-12 else 1.0
    out_vals *= np.conj(tau)

    field = SpectrogramField(grid, out_vals, GABOR)
    return RetrievalResult(field, tuple(components), tuple(warnings))


def _synchronize(n: int, ei, ej, nums, w) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Unimodular multipliers and the connected components, from products nums[k]
    that estimate r_k exp(i (phase_i - phase_j)), r_k > 0, over edges (ei[k], ej[k]).

    With A[j, i] = nums[k] Hermitian and D its absolute row sums, each component
    of two or more vertices takes the top eigenvector of D^(-1/2) A D^(-1/2),
    divided by its entry at the heaviest vertex (largest w) and scaled entrywise
    to modulus 1: exp(-i (phase_v - phase_root)).  Lone vertices keep 1.
    """
    components = _components(n, ei, ej)
    op = np.zeros((n, n), dtype=complex)
    op[ej, ei] = nums
    op[ei, ej] = np.conj(nums)
    multipliers = np.ones(n, dtype=complex)
    for comp in (np.array(c) for c in components if len(c) > 1):
        sub = op[np.ix_(comp, comp)]
        scale = np.abs(sub).sum(axis=1) ** -0.5
        sub *= np.outer(scale, scale)
        vec = np.linalg.eigh(sub)[1][:, -1]
        vec /= vec[np.argmax(w[comp])]
        multipliers[comp] = vec / np.abs(vec)
    return multipliers, components


def _overlap_products(locals_, windows, ei, ej) -> np.ndarray:
    """sum(local_i conj(local_j) min(cov_i, cov_j)) over the shared cells of each pair (i, j).

    windows[k] holds square k's index slices and coverage (sx, sy, cov), and
    locals_[k] its local field on that window.  Each pair is an edge of the
    cover graph, so the two windows share at least the window of the pair's
    overlap, and the pair is summed over the intersection of its two windows.
    """
    nums = np.zeros(len(ei), dtype=complex)
    for k, (p, q) in enumerate(zip(ei.tolist(), ej.tolist())):
        (xp, yp, cov_p), (xq, yq, cov_q) = windows[p], windows[q]
        x0, x1 = max(xp.start, xq.start), min(xp.stop, xq.stop)
        y0, y1 = max(yp.start, yq.start), min(yp.stop, yq.stop)
        sp = slice(x0 - xp.start, x1 - xp.start), slice(y0 - yp.start, y1 - yp.start)
        sq = slice(x0 - xq.start, x1 - xq.start), slice(y0 - yq.start, y1 - yq.start)
        prod = locals_[p][sp] * np.conj(locals_[q][sq])
        prod *= np.minimum(cov_p[sp], cov_q[sq])
        nums[k] = prod.sum()
    return nums
