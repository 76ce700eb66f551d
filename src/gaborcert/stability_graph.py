"""Weighted graphs over square covers and the stability certificates.

A cover of unit squares induces a graph: vertex weights are the spectrogram
mass on each square, edge weights the squared mass on pairwise overlaps.
Algebraic connectivity and the graph Cheeger constant of that graph control
how well locally recovered phases can be stitched globally; the certificate
collects every quantity entering the resulting bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gabor_engine import (
    SPECTROGRAM,
    SpectrogramField,
    _arrangement,
    _check_region_in_grid,
    rect_union_norm,
    union_area,
)

__all__ = [
    "SquareCover",
    "WeightedGraph",
    "StabilityCertificate",
    "DegenerateVertexError",
    "build_graph",
    "algebraic_connectivity",
    "cheeger_constant",
    "certificate",
]

_EXACT_CHEEGER_LIMIT = 20


class DegenerateVertexError(ValueError):
    """Some squares carry no spectrogram energy; prune them before building."""

    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(f"zero-energy squares at indices {self.indices}")


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
    """Vertex weights w > 0 and symmetric nonnegative edge weights sigma."""

    w: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        n = len(w)
        if sigma.shape != (n, n):
            raise ValueError("sigma must be square and match the vertex count")
        if np.any(w <= 0):
            raise ValueError("vertex weights must be positive")
        if np.abs(np.diagonal(sigma)).max(initial=0.0) > 0:
            raise ValueError("sigma must have zero diagonal")
        if sigma.size and (sigma.min() < 0 or np.abs(sigma - sigma.T).max() > 1e-12 * sigma.max()):
            raise ValueError("sigma must be symmetric and nonnegative")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "sigma", 0.5 * (sigma + sigma.T))

    @property
    def n(self) -> int:
        return len(self.w)

    def degrees(self) -> np.ndarray:
        return self.sigma.sum(axis=1)

    def laplacian(self) -> np.ndarray:
        return np.diag(self.degrees()) - self.sigma

    def delta0(self) -> float:
        """Max degree-to-weight ratio over vertices."""
        return float(np.max(self.degrees() / self.w))

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) of the edges sigma_ij > 0 with i < j, in row-major order."""
        return np.nonzero(np.triu(self.sigma > 0, 1))


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
    """Graph over the cover: w_i = ||S||_L1(Q_i), sigma_ij = ||S||_L1(Q_i cap Q_j)^2.

    Every mass is a norm over one square or one overlap rectangle, so it
    visits only the cells of that window.  Overlapping pairs are found in one
    vectorised pass over all pairs, and the square and overlap masses come
    from one stacked rect_union_norm call.
    """
    if spec.kind != SPECTROGRAM:
        raise ValueError("build_graph expects a spectrogram field")
    n = len(cover)
    r = cover.rects()
    _check_region_in_grid(spec.grid, r)  # names the first square outside, in one pass
    # pairwise intersection rectangles; a pair overlaps when its rectangle has positive extent
    x0 = np.maximum(r[:, None, 0], r[None, :, 0])
    x1 = np.minimum(r[:, None, 1], r[None, :, 1])
    y0 = np.maximum(r[:, None, 2], r[None, :, 2])
    y1 = np.minimum(r[:, None, 3], r[None, :, 3])
    i, j = np.nonzero(np.triu((x1 > x0) & (y1 > y0), 1))
    overlaps = np.stack([x0[i, j], x1[i, j], y0[i, j], y1[i, j]], axis=1)
    w, mass = np.split(rect_union_norm(spec, np.concatenate([r, overlaps]), 1), [n])
    degenerate = [i for i in range(n) if w[i] <= 0.0]
    if degenerate:
        raise DegenerateVertexError(degenerate)
    sigma = np.zeros((n, n))
    sigma[i, j] = sigma[j, i] = mass * mass
    return WeightedGraph(w, sigma)


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


def _cut_values(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma(boundary S), w(S) and w(S^c) for every proper subset S containing vertex 0."""
    n = g.n
    rest = np.arange(2 ** (n - 1) - 1, dtype=np.int64)  # proper subsets of {1..n-1}
    masks = (rest << 1) | 1
    in_s = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    w_s = in_s @ g.w
    w_c = (~in_s) @ g.w
    cut = np.zeros(len(masks))
    for i, j in zip(*g.edges()):
        cut += np.where(in_s[:, i] ^ in_s[:, j], g.sigma[i, j], 0.0)
    return cut, w_s, w_c


def cheeger_constant(g: WeightedGraph) -> float:
    """Graph Cheeger constant h = min over cuts of sigma(boundary S) / min(w(S), w(S^c)).

    Up to 20 vertices every one of the 2^(n-1) - 1 cuts is enumerated; above
    that, the spectral sweep's upper bound is returned.  Both w(S) and
    w(S^c) are sums over their own vertices: found as total - w(S), the
    smaller mass of a weakly connected cover rounds to zero or below.
    """
    if g.n < 2:
        raise ValueError("the Cheeger constant needs at least two vertices")
    if g.n > _EXACT_CHEEGER_LIMIT:
        return _sweep_cheeger(g)
    cut, w_s, w_c = _cut_values(g)
    return float(np.min(cut / np.minimum(w_s, w_c)))


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
    nu = len(cover)
    vol = union_area(rects)

    if nu == 1:
        base = math.sqrt(k_const / g.w[0])
        return StabilityCertificate(
            K=k_const, M=m_const, L=l_const, nu=nu, vol_omega=vol,
            lam=0.0, cheeger=0.0, delta0=0.0,
            bound_lambda=base, bound_cheeger=base, base_case=True, graph=g,
        )

    lam = algebraic_connectivity(g)
    h = cheeger_constant(g)
    d0 = g.delta0()

    common = k_const * math.sqrt(m_const) * math.sqrt(l_const)
    stitch = k_const * nu ** 1.5 * math.sqrt(l_const)
    ei, ej = g.edges()
    connected = len(_components(g.n, ei, ej)) == 1
    if connected and lam > 0:
        bound_lambda = math.sqrt(common + stitch / lam + math.sqrt(vol))
    else:
        bound_lambda = math.inf
    if connected and h > 0:
        bound_cheeger = math.sqrt(common + d0 * stitch / (h * h) + math.sqrt(vol))
    else:
        bound_cheeger = math.inf
    return StabilityCertificate(
        K=k_const, M=m_const, L=l_const, nu=nu, vol_omega=vol,
        lam=lam, cheeger=h, delta0=d0,
        bound_lambda=bound_lambda, bound_cheeger=bound_cheeger, graph=g,
    )


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
