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
    Region,
    Square,
    SpectrogramField,
    _arrangement,
    rect_union_norm,
    region_norm,
    union_area,
)

__all__ = [
    "SquareCover",
    "WeightedGraph",
    "ConnectivityReport",
    "StabilityCertificate",
    "DegenerateVertexError",
    "build_graph",
    "algebraic_connectivity",
    "cheeger_constant",
    "cheeger_inequality_check",
    "certificate",
    "graph_edge_rows",
    "graph_vertex_rows",
]

EXACT_CHEEGER_LIMIT = 20


class DegenerateVertexError(ValueError):
    """Some squares carry no spectrogram energy; prune them before building."""

    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(f"zero-energy squares at indices {self.indices}")


@dataclass(frozen=True)
class SquareCover:
    """Finite list of axis-aligned unit squares given by their centers."""

    centers: tuple[tuple[float, float], ...]
    side: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "centers", tuple((float(x), float(y)) for x, y in self.centers)
        )
        if len(self.centers) == 0:
            raise ValueError("cover must contain at least one square")
        if not self.side > 0:
            raise ValueError("square side must be positive")
        seen = set()
        for c in self.centers:
            if c in seen:
                raise ValueError(f"duplicate square centered at {c}")
            seen.add(c)

    def __len__(self) -> int:
        return len(self.centers)

    def squares(self) -> list[Square]:
        return [Square(x, y, self.side) for x, y in self.centers]

    def region(self) -> Region:
        return Region(tuple(self.squares()))

    def rects(self) -> list[tuple[float, float, float, float]]:
        return [sq.rect() for sq in self.squares()]


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
        if sigma.size and (sigma.min() < 0 or np.abs(sigma - sigma.T).max() > 1e-12 * max(sigma.max(), 1.0)):
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


@dataclass(frozen=True)
class ConnectivityReport:
    lam: float
    cheeger: float
    cheeger_method: str
    delta0: float
    witness: frozenset


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


def _intersection_rect(a, b):
    x0, x1 = max(a[0], b[0]), min(a[1], b[1])
    y0, y1 = max(a[2], b[2]), min(a[3], b[3])
    if x1 <= x0 or y1 <= y0:
        return None
    return (x0, x1, y0, y1)


def _rect_l1(fld: SpectrogramField, rect) -> float:
    return rect_union_norm(fld, [rect], 1)


def build_graph(spec: SpectrogramField, cover: SquareCover) -> WeightedGraph:
    """Graph over the cover: w_i = ||S||_L1(Q_i), sigma_ij = ||S||_L1(Q_i cap Q_j)^2."""
    if spec.kind != SPECTROGRAM:
        raise ValueError("build_graph expects a spectrogram field")
    if abs(cover.side - 1.0) > 1e-12:
        raise ValueError("cover squares must have unit side")
    rects = cover.rects()
    n = len(cover)
    w = np.empty(n)
    for i, (cx, cy) in enumerate(cover.centers):
        w[i] = region_norm(spec, Region((Square(cx, cy, cover.side),)), 1)
    degenerate = [i for i in range(n) if w[i] <= 0.0]
    if degenerate:
        raise DegenerateVertexError(degenerate)
    sigma = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            rect = _intersection_rect(rects[i], rects[j])
            if rect is None:
                continue
            mass = _rect_l1(spec, rect)
            sigma[i, j] = sigma[j, i] = mass * mass
    return WeightedGraph(w, sigma)


def algebraic_connectivity(g: WeightedGraph) -> float:
    """Second-smallest eigenvalue of W^{-1/2} L W^{-1/2} (W = diag(w)).

    Equals the minimum of z* L z / ||z||^2_{l2(w)} over z w-orthogonal to
    the constant vector.
    """
    if g.n < 2:
        raise ValueError("algebraic connectivity needs at least two vertices")
    inv_sqrt_w = 1.0 / np.sqrt(g.w)
    norm_l = g.laplacian() * np.outer(inv_sqrt_w, inv_sqrt_w)
    eigvals = np.linalg.eigvalsh(norm_l)
    return float(max(eigvals[1], 0.0))


def _cut_values(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma(boundary S) and w(S) for every proper subset S containing vertex 0."""
    n = g.n
    rest = np.arange(2 ** (n - 1) - 1, dtype=np.int64)  # proper subsets of {1..n-1}
    masks = (rest << 1) | 1
    in_s = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    w_s = in_s @ g.w
    cut = np.zeros(len(masks))
    for i in range(n):
        for j in range(i + 1, n):
            if g.sigma[i, j] > 0:
                cut += np.where(in_s[:, i] ^ in_s[:, j], g.sigma[i, j], 0.0)
    return cut, w_s, masks


def cheeger_constant(g: WeightedGraph, method: str = "exact") -> tuple[float, frozenset]:
    """Graph Cheeger constant and a witness subset.

    `exact` enumerates the 2^(n-1) - 1 cuts (n <= 20); `spectral_sweep` sweeps
    prefix cuts of the normalized-Laplacian Fiedler ordering and upper-bounds
    the exact constant.
    """
    if g.n < 2:
        raise ValueError("the Cheeger constant needs at least two vertices")
    if method == "exact":
        if g.n > EXACT_CHEEGER_LIMIT:
            raise ValueError(
                f"exact enumeration limited to n <= {EXACT_CHEEGER_LIMIT}; use spectral_sweep"
            )
        cut, w_s, masks = _cut_values(g)
        total = float(g.w.sum())
        ratios = cut / np.minimum(w_s, total - w_s)
        best = int(np.argmin(ratios))
        mask = int(masks[best])
        witness = frozenset(i for i in range(g.n) if (mask >> i) & 1)
        return float(ratios[best]), witness
    if method == "spectral_sweep":
        inv_sqrt_w = 1.0 / np.sqrt(g.w)
        norm_l = g.laplacian() * np.outer(inv_sqrt_w, inv_sqrt_w)
        _, vecs = np.linalg.eigh(norm_l)
        fiedler = vecs[:, 1] * inv_sqrt_w
        order = np.argsort(fiedler)
        total = float(g.w.sum())
        best_val, best_set = math.inf, frozenset()
        for cut_len in range(1, g.n):
            s = order[:cut_len]
            in_s = np.zeros(g.n, dtype=bool)
            in_s[s] = True
            cut = float(g.sigma[np.ix_(in_s, ~in_s)].sum())
            w_s = float(g.w[in_s].sum())
            val = cut / min(w_s, total - w_s)
            if val < best_val:
                best_val, best_set = val, frozenset(int(i) for i in s)
        return best_val, best_set
    raise ValueError(f"unknown Cheeger method {method!r}")


def cheeger_inequality_check(g: WeightedGraph, slack: float = 1e-9) -> ConnectivityReport:
    """Compute lambda, h, delta0 and assert 2h >= lambda >= h^2 / (2 delta0)."""
    lam = algebraic_connectivity(g)
    method = "exact" if g.n <= EXACT_CHEEGER_LIMIT else "spectral_sweep"
    h, witness = cheeger_constant(g, method)
    d0 = g.delta0()
    scale = max(lam, h, 1.0)
    if method == "exact":
        if not 2.0 * h >= lam - slack * scale:
            raise AssertionError(f"Cheeger upper bound violated: 2h={2*h} < lambda={lam}")
        lower = 0.0 if d0 == 0.0 else h * h / (2.0 * d0)
        if not lam >= lower - slack * scale:
            raise AssertionError(f"Cheeger lower bound violated: lambda={lam} < {lower}")
    return ConnectivityReport(lam, h, "exact_enumeration" if method == "exact" else "spectral_sweep",
                              d0, witness)


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
    method = "exact" if g.n <= EXACT_CHEEGER_LIMIT else "spectral_sweep"
    h, _ = cheeger_constant(g, method)
    d0 = g.delta0()

    common = k_const * math.sqrt(m_const) * math.sqrt(l_const)
    stitch = k_const * nu ** 1.5 * math.sqrt(l_const)
    connected = _connected(g)
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


def _connected(g: WeightedGraph) -> bool:
    """Whether the support of sigma > 0 joins all vertices (breadth-first)."""
    adjacent = g.sigma > 0
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacent[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def graph_vertex_rows(g: WeightedGraph) -> list[tuple[int, float]]:
    return [(i, float(g.w[i])) for i in range(g.n)]


def graph_edge_rows(g: WeightedGraph) -> list[tuple[int, int, float]]:
    rows = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.sigma[i, j] > 0:
                rows.append((i, j, float(g.sigma[i, j])))
    return rows
