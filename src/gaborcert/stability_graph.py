"""Weighted graphs over square covers and the stability certificates.

A cover of unit squares induces a sparse graph, stored as an edge list:
vertex weights are the spectrogram mass on each square, and an edge joins two
squares whose overlap has positive area, weighted by its squared mass; only
the dense spectral routines read a derived n x n view.  Its algebraic
connectivity and Cheeger constant control how well locally recovered phases
can be stitched globally; the certificate collects every quantity entering
the resulting bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gabor_engine import (
    SPECTROGRAM,
    SpectrogramField,
    _arrangement,
    rect_union_norm,
    union_area,
)

__all__ = [
    "SquareCover",
    "WeightedGraph",
    "StabilityCertificate",
    "DegenerateSquareError",
    "build_graph",
    "algebraic_connectivity",
    "cheeger_constant",
    "certificate",
]

_EXACT_CHEEGER_LIMIT = 20


class DegenerateSquareError(ValueError):
    """Squares that carry too little spectrogram energy to use, listed by index:
    `build_graph` raises it for squares of zero mass, `retrieve_phase` for
    squares whose peak is below its threshold."""

    def __init__(self, indices, reason="spectrogram below threshold on squares"):
        self.indices = list(indices)
        super().__init__(f"{reason} {self.indices}")


@dataclass(frozen=True)
class SquareCover:
    """Finite list of axis-aligned unit squares given by their centers."""

    centers: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "centers", tuple((float(x), float(y)) for x, y in self.centers)
        )
        if len(self.centers) == 0:
            raise ValueError("cover must contain at least one square")
        seen = set()
        for c in self.centers:
            if not (math.isfinite(c[0]) and math.isfinite(c[1])):
                raise ValueError(f"square center {c} is not finite")
            if c in seen:
                raise ValueError(f"duplicate square centered at {c}")
            seen.add(c)

    def __len__(self) -> int:
        return len(self.centers)

    def rects(self) -> np.ndarray:
        """The squares as an (n, 4) array of rectangles (xmin, xmax, ymin, ymax)."""
        c = np.array(self.centers)
        return np.stack([c[:, 0] - 0.5, c[:, 0] + 0.5, c[:, 1] - 0.5, c[:, 1] + 0.5], axis=1)


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex weights w > 0 and the edges (i[k], j[k]) of weight s[k] > 0, each
    once with i < j, in strictly increasing row-major order of (i, j)."""

    w: np.ndarray
    i: np.ndarray
    j: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        w, s = np.asarray(self.w, dtype=float), np.asarray(self.s, dtype=float)
        i, j = np.asarray(self.i), np.asarray(self.j)
        if w.ndim != 1 or not all(a.ndim == 1 and len(a) == len(s) for a in (i, j, s)):
            raise ValueError("w, i, j and s must be 1-D, and i, j and s of one length")
        for kind, weights in (("vertex", w), ("edge", s)):
            if not np.all(np.isfinite(weights) & (weights > 0)):
                raise ValueError(f"{kind} weights must be finite and positive")
        if len(s) and not (i.dtype.kind in "iu" and j.dtype.kind in "iu"):
            raise ValueError("edge endpoints must be integers")
        i, j = i.astype(np.intp), j.astype(np.intp)
        if not np.all((0 <= i) & (i < j) & (j < len(w))) or np.any(np.diff(i * len(w) + j) <= 0):
            raise ValueError(f"edges must be distinct pairs 0 <= i < j < {len(w)} in row-major order")
        for name, value in (("w", w), ("i", i), ("j", j), ("s", s)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.w)

    @cached_property
    def sigma(self) -> np.ndarray:
        """The read-only dense symmetric edge-weight matrix, for the spectral routines."""
        sigma = np.zeros((self.n, self.n))
        sigma[self.i, self.j] = sigma[self.j, self.i] = self.s
        sigma.flags.writeable = False
        return sigma

    def degrees(self) -> np.ndarray:
        return self.sigma.sum(axis=1)

    def laplacian(self) -> np.ndarray:
        return np.diag(self.degrees()) - self.sigma

    def delta0(self) -> float:
        """Max degree-to-weight ratio over vertices."""
        return float(np.max(self.degrees() / self.w))


@dataclass(frozen=True)
class StabilityCertificate:
    """All named quantities of the cover bound plus the assembled bounds.

    The universal constant of the underlying estimate is unknown; bounds are
    reported with constant 1 and the validation suite fits the empirical one.
    `graph` is the cover graph the quantities were computed from; it is not
    part of rows() or of equality.
    """

    K: float
    M: float
    L: float
    nu: int
    vol_omega: float
    lam: float
    cheeger: float
    delta0: float
    bound_lambda: float
    bound_cheeger: float
    base_case: bool = False
    graph: WeightedGraph | None = field(default=None, compare=False, repr=False)

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("K", self.K), ("M", self.M), ("L", self.L), ("nu", float(self.nu)),
            ("vol_omega", self.vol_omega), ("lambda", self.lam),
            ("cheeger", self.cheeger), ("delta0", self.delta0),
            ("bound_lambda", self.bound_lambda), ("bound_cheeger", self.bound_cheeger),
            ("base_case", float(self.base_case)),
        ]


def build_graph(spec: SpectrogramField, cover: SquareCover) -> WeightedGraph:
    """Graph over the cover: w_i = ||S||_L1(Q_i), s_ij = ||S||_L1(Q_i cap Q_j)^2.

    Every mass is a norm over the cells of one square or one overlap
    rectangle, and all come from one stacked rect_union_norm call, whose
    domain check names the first square outside (overlaps lie inside their
    squares).  Squares whose centres are 1 or more apart in x do not meet,
    so a square's candidates lie in its own or the next unit column
    floor(x), where, sorted by centre y, they are one run: O(n log n + E)
    time and O(n + E) memory for E overlaps, and no n x n array.
    """
    if spec.kind != SPECTROGRAM:
        raise ValueError("build_graph expects a spectrogram field")
    n = len(cover)
    r = cover.rects()
    c = np.array(cover.centers)
    col = np.floor(c[:, 0])
    order = np.lexsort((c[:, 1], col))
    # complex keys compare lexicographically: (column, ymin) and (column, ymax)
    lo, hi = (col[order] + 1j * r[order, k] for k in (2, 3))
    shift = np.array([[0], [1]])  # each square's own column, and the next
    first = np.searchsorted(hi, lo + shift, side="right").ravel()
    count = np.searchsorted(lo, hi + shift).ravel() - first
    p = np.repeat(np.tile(np.arange(n), 2), count)  # positions in the sorted order
    q = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    i, j = np.minimum(order[p], order[q]), np.maximum(order[p], order[q])
    inter = np.stack([np.maximum(r[i, 0], r[j, 0]), np.minimum(r[i, 1], r[j, 1]),
                      np.maximum(r[i, 2], r[j, 2]), np.minimum(r[i, 3], r[j, 3])], axis=1)
    # each pair once, and only where the intersection has positive extent
    keep = np.flatnonzero((q > p) & (inter[:, 1] > inter[:, 0]) & (inter[:, 3] > inter[:, 2]))
    keep = keep[np.lexsort((j[keep], i[keep]))]  # row-major (i, j)
    w, mass = np.split(rect_union_norm(spec, np.concatenate([r, inter[keep]]), 1), [n])
    degenerate = [v for v in range(n) if w[v] <= 0.0]
    if degenerate:
        raise DegenerateSquareError(degenerate, "zero-energy squares at indices")
    return WeightedGraph(w, i[keep], j[keep], mass * mass)


def algebraic_connectivity(g: WeightedGraph) -> float:
    """Second-smallest eigenvalue of W^{-1/2} L W^{-1/2} (W = diag(w)).

    Equals the minimum of z* L z / ||z||^2_{l2(w)} over z w-orthogonal to
    the constant vector.
    """
    if g.n < 2:
        raise ValueError("algebraic connectivity needs at least two vertices")
    eigvals = np.linalg.eigvalsh(_normalized_laplacian(g)[0])
    return float(max(eigvals[1], 0.0))


def _normalized_laplacian(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """W^{-1/2} L W^{-1/2} and the diagonal of W^{-1/2} (W = diag(w))."""
    inv_sqrt_w = 1.0 / np.sqrt(g.w)
    return g.laplacian() * np.outer(inv_sqrt_w, inv_sqrt_w), inv_sqrt_w


def cheeger_constant(g: WeightedGraph) -> float:
    """Graph Cheeger constant h = min over cuts of sigma(boundary S) / min(w(S), w(S^c)).

    Up to 20 vertices every one of the 2^(n-1) - 1 cuts S containing vertex 0
    is enumerated; above that, the spectral sweep's upper bound is returned.
    Both w(S) and w(S^c) are sums over their own vertices: found as
    total - w(S), the smaller mass of a weakly connected cover rounds to zero
    or below.
    """
    if g.n < 2:
        raise ValueError("the Cheeger constant needs at least two vertices")
    if g.n > _EXACT_CHEEGER_LIMIT:
        return _sweep_cheeger(g)
    rest = np.arange(2 ** (g.n - 1) - 1, dtype=np.int64)  # proper subsets of {1..n-1}
    in_s = ((((rest << 1) | 1)[:, None] >> np.arange(g.n)) & 1).astype(bool)
    cut = np.zeros(len(rest))
    for i, j, s in zip(g.i, g.j, g.s):
        cut += np.where(in_s[:, i] ^ in_s[:, j], s, 0.0)
    return float(np.min(cut / np.minimum(in_s @ g.w, (~in_s) @ g.w)))


def _sweep_cheeger(g: WeightedGraph) -> float:
    """Upper bound on the Cheeger constant: the best prefix cut of the
    normalized-Laplacian Fiedler ordering."""
    norm_l, inv_sqrt_w = _normalized_laplacian(g)
    _, vecs = np.linalg.eigh(norm_l)
    fiedler = vecs[:, 1] * inv_sqrt_w
    order = np.argsort(fiedler)
    best = math.inf
    for cut_len in range(1, g.n):
        in_s = np.zeros(g.n, dtype=bool)
        in_s[order[:cut_len]] = True
        cut = float(g.sigma[np.ix_(in_s, ~in_s)].sum())
        w_s = float(g.w[in_s].sum())
        best = min(best, cut / min(w_s, float(g.w[~in_s].sum())))
    return best


def certificate(spec_f: SpectrogramField, spec_g: SpectrogramField,
                cover: SquareCover) -> StabilityCertificate:
    """Assemble the stability certificate for the pair of spectrograms.

    K is the sup of both spectrograms (taken over the supplied grids, which
    must cover the signals' essential energy), M the sum of inverse squared
    square-masses of spec_f, L the max cover multiplicity, nu the square
    count; the bounds combine them with the connectivity quantities.  A
    cover whose graph has more than one connected component yields infinite
    bounds, whatever rounding leaves in lambda.
    """
    if spec_f.kind != SPECTROGRAM or spec_g.kind != SPECTROGRAM:
        raise ValueError("certificate expects spectrogram fields")
    g = build_graph(spec_f, cover)
    k_const = float(spec_f.values.max() + spec_g.values.max())
    m_const = float(np.sum(g.w ** -2.0))
    rects = cover.rects()
    l_const = float(_arrangement(rects)[2].max())
    nu, vol = len(cover), union_area(rects)
    quantities = dict(K=k_const, M=m_const, L=l_const, nu=nu, vol_omega=vol, graph=g)
    if nu == 1:
        base = math.sqrt(k_const / g.w[0])
        return StabilityCertificate(**quantities, lam=0.0, cheeger=0.0, delta0=0.0,
                                    bound_lambda=base, bound_cheeger=base, base_case=True)

    lam, h, d0 = algebraic_connectivity(g), cheeger_constant(g), g.delta0()
    common = k_const * math.sqrt(m_const) * math.sqrt(l_const)
    stitch = k_const * nu ** 1.5 * math.sqrt(l_const)
    connected = len(_components(g.n, g.i, g.j)) == 1
    bound_lambda = bound_cheeger = math.inf
    if connected and lam > 0:
        bound_lambda = math.sqrt(common + stitch / lam + math.sqrt(vol))
    if connected and h > 0:
        bound_cheeger = math.sqrt(common + d0 * stitch / (h * h) + math.sqrt(vol))
    return StabilityCertificate(**quantities, lam=lam, cheeger=h, delta0=d0,
                                bound_lambda=bound_lambda, bound_cheeger=bound_cheeger)


def _components(n: int, ei, ej) -> list[tuple[int, ...]]:
    """Connected components of the graph on n vertices whose edge k joins ei[k]
    and ej[k], by union-find: sorted vertex tuples, ordered by smallest vertex."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in zip(np.asarray(ei).tolist(), np.asarray(ej).tolist()):
        parent[find(i)] = find(j)
    members: dict[int, list[int]] = {}
    for v in range(n):  # ascending: a component enters at its smallest vertex
        members.setdefault(find(v), []).append(v)
    return [tuple(m) for m in members.values()]
