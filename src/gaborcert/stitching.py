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
    _window,
    coverage_fractions,
    mixture_field,
    region_inner_product,
    region_norm,
)
from .signal_model import GaussianMixtureSignal, make_sharpness_pair
from .stability_graph import SquareCover, _spanning_forest, build_graph
from .tensor_phase import LocalJet, jet_from_field, jet_from_mixture, local_phase_from_modulus

__all__ = [
    "RetrievalResult",
    "DegenerateSquareError",
    "min_phase_distance",
    "sharpness_ratio",
    "retrieve_phase",
]

# a square whose spectrogram peak is at or below this carries no phase information
_DEGENERATE_PEAK = 1e-10


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
    """
    ip = region_inner_product(fld_g, fld_f, rects)
    if abs(ip) > 0.0:
        tau = ip / abs(ip)
        # norm of the explicit difference field: no cancellation floor
        diff = SpectrogramField(fld_f.grid, fld_g.values - tau * fld_f.values, GABOR)
        return complex(tau), region_norm(diff, rects, 2)
    nf = region_norm(fld_f, rects, 2)
    ng = region_norm(fld_g, rects, 2)
    return 1.0 + 0.0j, math.sqrt(nf * nf + ng * ng)


def sharpness_ratio(a: float, step: float) -> tuple[float, float]:
    """(dist, sqrt_specdiff) of make_sharpness_pair(a) on the centred unit square.

    dist is the phase-optimal L2 distance of the two transform fields on a
    grid of spacing `step`, sqrt_specdiff the root L2 distance of their
    spectrograms; dist / sqrt_specdiff is the sharpness ratio.
    """
    grid = Grid2D.from_bounds(-0.5, 0.5, -0.5, 0.5, step)
    square = [(-0.5, 0.5, -0.5, 0.5)]
    f, g = make_sharpness_pair(a)
    fld_f = mixture_field(f, grid)
    fld_g = mixture_field(g, grid)
    _, dist = min_phase_distance(fld_f, fld_g, square)
    diff = SpectrogramField(
        grid, np.abs(fld_f.values) ** 2 - np.abs(fld_g.values) ** 2 + 0j, GABOR
    )
    return dist, math.sqrt(region_norm(diff, square, 2))


def _local_field(jet: LocalJet, xs: np.ndarray, ys: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The jet's local recovery on the covered cells of one window: at w = x - i y,
    ``F_c(u) exp(i pi (Im(conj(c) u) - x y) - pi |u|^2 / 2)``, u = w - c, c = jet.center."""
    out = np.zeros(cov.shape, dtype=complex)
    ix, iy = np.nonzero(cov > 1e-12)
    px = xs[ix]
    py = ys[iy]
    w_pts = px - 1j * py
    vals = local_phase_from_modulus(jet, w_pts)
    u = w_pts - jet.center
    gauss = np.exp(1j * np.pi * ((np.conj(jet.center) * u).imag - px * py)
                   - 0.5 * np.pi * (u.real ** 2 + u.imag ** 2))
    out[ix, iy] = vals * gauss
    return out


def _shared(a, b):
    """Index slices into windows a and b, each (sx, sy, cov), of the cells both contain."""
    lo = [max(u.start, v.start) for u, v in zip(a[:2], b[:2])]
    hi = [max(min(u.stop, v.stop), l) for u, v, l in zip(a[:2], b[:2], lo)]  # empty, never reversed
    return tuple(tuple(slice(l - u.start, h - u.start) for u, l, h in zip(w[:2], lo, hi))
                 for w in (a, b))


def retrieve_phase(spec: SpectrogramField, cover: SquareCover,
                   jet_source: str = "analytic", order: int = 14,
                   signal: GaussianMixtureSignal | None = None) -> RetrievalResult:
    """Reconstruct a transform field on the cover from spectrogram data.

    Per square, a jet of |F_c|^2 is built at the grid node nearest the
    square's centre (analytic jets require the generating mixture;
    finite-difference jets work from the samples, orders <= 4).  Local fields
    are aligned pairwise on overlaps and synchronized; the output is defined
    up to one unimodular constant per connected component of the overlap
    graph.  Squares must lie in the field's domain.
    """
    if spec.kind != SPECTROGRAM:
        raise ValueError("retrieve_phase expects a spectrogram field")
    if jet_source not in ("analytic", "finite_difference"):
        raise ValueError(f"unknown jet source {jet_source!r}")
    if jet_source == "analytic" and signal is None:
        raise ValueError("analytic jets require the generating mixture")

    grid = spec.grid
    n = len(cover)
    graph = build_graph(spec, cover)  # checks that every square lies in the domain

    # per square: its index window, the coverage on it, and the degeneracy test
    windows: list[tuple[slice, slice, np.ndarray]] = []
    degenerate = []
    xs, ys = grid.xs(), grid.ys()
    rects = cover.rects()
    for i in range(n):
        sx, sy, sub = _window(grid, rects[i:i + 1])
        cov = coverage_fractions(sub, rects[i:i + 1])
        windows.append((sx, sy, cov))
        if np.where(cov > 1e-12, spec.values[sx, sy], -1.0).max() <= _DEGENERATE_PEAK:
            degenerate.append(i)
    if degenerate:
        raise DegenerateSquareError(degenerate)

    # jet centres: the grid node nearest each square's centre
    nodes = np.rint((np.array(cover.centers) - (grid.x0, grid.y0)) / (grid.dx, grid.dy))
    jets = [jet_from_mixture(signal, complex(xs[i], -ys[j]), order) if jet_source == "analytic"
            else jet_from_field(spec, (xs[i], ys[j]), min(order, 4)) for i, j in nodes.astype(int)]

    locals_ = [_local_field(jets[i], xs[sx], ys[sy], cov)
               for i, (sx, sy, cov) in enumerate(windows)]

    # relative multipliers on overlaps, then spanning-tree propagation
    edges: dict[tuple[int, int], complex] = {}
    for i, j in zip(*(e.tolist() for e in graph.edges())):
        si, sj = _shared(windows[i], windows[j])
        inter = np.minimum(windows[i][2][si], windows[j][2][sj])
        num = complex(np.sum(locals_[i][si] * np.conj(locals_[j][sj]) * inter))
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
    weight_sum = np.zeros((grid.nx, grid.ny))
    acc = np.zeros((grid.nx, grid.ny), dtype=complex)
    for i, (sx, sy, cov) in enumerate(windows):
        acc[sx, sy] += multipliers[i] * locals_[i] * cov
        weight_sum[sx, sy] += cov
    out_vals = np.divide(acc, weight_sum, out=np.zeros_like(acc), where=weight_sum > 1e-12)

    # global constant: the direction of the mean multiplier
    c0 = complex(multipliers.mean())
    tau = c0 / abs(c0) if abs(c0) > 1e-12 else 1.0
    out_vals = out_vals * np.conj(tau)

    field = SpectrogramField(grid, out_vals, GABOR)
    return RetrievalResult(field, tuple(components), tuple(warnings))
