"""Independent numerical oracles shared by the test modules.

Everything here is deliberately separate from the package's own code paths:
disk norms come from polar quadrature rather than jet series, minimizers
from dense grid search rather than closed forms, derivatives from
high-order finite-difference stencils rather than analytic formulas, and
square-cover geometry from point tests rather than the arrangement sweep.
The cover graph's references are the per-pair loop that the stacked overlap
masses of `build_graph` replaced, and breadth-first search for the connected
components that `_components` finds by union-find.
Retrieval's reference is the square-by-square `retrieve_phase` that the
stacked windows replaced: one window, coverage and local field per square
and one overlap alignment per pair; both synchronize by `_synchronize`.  The
growth-bound tests measure package output against a proof constant and a
grid sup norm, both kept here, and they and the jet tests read the
entire-function side F (values and derivatives at any point, unshifted)
from direct exponential sums.  Mixtures are sampled in time by a direct
atom sum, the input of the sampled-signal transform.  The sampled check of
|P_N| against the holomorphic error bound's floor on its validity region is
kept here, since only tests and acceptance criterion 10 use it.  The
mixture transform's closed form at complex arguments (its entire extension)
is kept here as np.exp of the complex exponents, apart from the package's
cos/sin phases; at real arguments it is the bit-for-bit reference of those
phases.  The product-rule integral's reference calls its integrand on the
rule's flattened (N^2,) points, the per-point closed-form path, where the
package calls it once on the rule's open mesh; the points are listed node
pair by node pair from the 1-D rule, which the package never stacks.
The diagonal-tensor discrepancy delta_r, with its disk weights, the
sqrt(5) delta / ||F|| alignment bound and jets from Taylor data, is kept
here as the reference that acceptance criteria 02 and 03 check; no
package code path uses it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from gaborcert import GaussianAtom, GaussianMixtureSignal, LocalJet, SampledSignal
from gaborcert.cubature import _legendre_pair, gauss_rule, product_rule

_LOWER_BOUND_SAMPLES = 2000


def square_rect(cx: float, cy: float, side: float) -> list[tuple[float, float, float, float]]:
    """The one-rectangle region (xmin, xmax, ymin, ymax) of a square given by center and side."""
    h = 0.5 * side
    return [(cx - h, cx + h, cy - h, cy + h)]


def grid_mesh(grid) -> tuple[np.ndarray, np.ndarray]:
    """The grid's x and y coordinates as two (nx, ny) arrays (ij indexing)."""
    return np.meshgrid(grid.xs(), grid.ys(), indexing="ij")


def scaled_mixture(sig: GaussianMixtureSignal, c: complex) -> GaussianMixtureSignal:
    """The mixture with every amplitude multiplied by c."""
    return GaussianMixtureSignal(
        tuple(GaussianAtom(a.amplitude * c, a.shift, a.modulation) for a in sig.atoms))


def mixture_samples(sig: GaussianMixtureSignal, t) -> np.ndarray:
    """Time-domain values f(t) of the mixture; t may be a scalar or an array."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for a in sig.atoms:
        out += a.amplitude * np.exp(-np.pi * (t - a.shift) ** 2) \
            * np.exp(2j * np.pi * a.modulation * t)
    return out


def gabor_closed_form_exp(sig: GaussianMixtureSignal, x, y):
    """The mixture's transform by np.exp of its complex exponents, at real or complex (x, y).

    At complex arguments the same formula is the transform's entire
    extension.  An open mesh (x of shape (nx, 1), y of shape (1, ny)) is one
    rank-K product, as in the package; other points are summed atom by atom.
    """
    dtype = np.result_type(np.asarray(x), np.asarray(y), np.float64)
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    if x.ndim == y.ndim == 2 and x.shape[1] == y.shape[0] == 1:
        amp, s, m = (np.array([getattr(a, f) for a in sig.atoms])
                     for f in ("amplitude", "shift", "modulation"))
        c = amp * 2 ** -0.5 * np.exp(1j * np.pi * s * m)
        yc = y.T
        u = np.exp(-0.5 * np.pi * (x - s) ** 2 + 1j * np.pi * x * m)
        v = np.exp(-0.5 * np.pi * (yc - m) ** 2 - 1j * np.pi * yc * s)
        return np.exp(-1j * np.pi * (x * y)) * ((u * c) @ v.T)
    out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    for a in sig.atoms:
        dx = x - a.shift
        dy = y - a.modulation
        out += a.amplitude * 2 ** -0.5 \
            * np.exp(-0.5 * np.pi * (dx * dx + dy * dy)) \
            * np.exp(-1j * np.pi * (x + a.shift) * dy)
    if out.shape == ():
        return complex(out)
    return out


def sampled_mixture(sig: GaussianMixtureSignal, lo: float, hi: float,
                    dt: float = 0.02) -> SampledSignal:
    """The mixture sampled every dt from lo to hi, for quadrature_gabor."""
    t = lo + dt * np.arange(int(round((hi - lo) / dt)) + 1)
    return SampledSignal(mixture_samples(sig, t), lo, dt)


def random_mixture(rng, max_atoms: int = 3, spread: float = 0.8) -> GaussianMixtureSignal:
    n = int(rng.integers(1, max_atoms + 1))
    atoms = tuple(
        GaussianAtom(
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            rng.uniform(-spread, spread),
            rng.uniform(-spread, spread),
        )
        for _ in range(n)
    )
    return GaussianMixtureSignal(atoms)


def fock_coefficients(sig: GaussianMixtureSignal) -> tuple[np.ndarray, np.ndarray]:
    """(c_j, beta_j) of the exponential-sum form F(w) = sum_j c_j e^(beta_j w):
    beta_j = pi (s_j + i m_j), c_j = A_j 2^(-1/2) e^(pi/2 (s_j + i m_j)^2 - pi s_j^2).

    An independent reference for the atom-factor form the package computes; its
    two factors overflow far from the origin, so keep centres near it.
    """
    amp = np.array([a.amplitude for a in sig.atoms])
    s = np.array([a.shift for a in sig.atoms])
    mu = s + 1j * np.array([a.modulation for a in sig.atoms])
    return amp * 2 ** -0.5 * np.exp(0.5 * np.pi * mu * mu - np.pi * s ** 2), np.pi * mu


def fock_value(sig: GaussianMixtureSignal, w) -> complex | np.ndarray:
    """F(w) for the entire-function side of the mixture."""
    c, beta = fock_coefficients(sig)
    w = np.asarray(w, dtype=complex)
    out = np.tensordot(c, np.exp(np.multiply.outer(beta, w)), axes=(0, 0))
    if out.shape == ():
        return complex(out)
    return out


def fock_derivatives(sig: GaussianMixtureSignal, w: complex, order: int) -> np.ndarray:
    """Derivatives F^(k)(w), k = 0..order, of the entire-function side."""
    c, beta = fock_coefficients(sig)
    return np.array([np.sum(c * beta**k * np.exp(beta * complex(w))) for k in range(order + 1)])


def fock_sup_norm(sig: GaussianMixtureSignal, step: float = 0.02, pad: float = 3.0) -> float:
    """sup over the plane of |G f| (equivalently the Gaussian-weighted sup of F).

    |G f(x, y)| peaks near the atom centers (shift, modulation); the search box
    is the bounding box of the centers padded by `pad`.
    """
    shifts = [a.shift for a in sig.atoms]
    mods = [a.modulation for a in sig.atoms]
    xs = np.arange(min(shifts) - pad, max(shifts) + pad + step, step)
    ys = np.arange(min(mods) - pad, max(mods) + pad + step, step)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return float(np.max(np.abs(gabor_closed_form_exp(sig, X, Y))))


def smoothness_growth_constant(p: int) -> float:
    """Derivative growth constant 2^(p+3) pi^(p+1) Gamma(p/2 + 1).

    Bounds sup over the centered unit square of |F^(p)| against the
    Gaussian-weighted sup norm of F.
    """
    return math.exp((p + 3) * math.log(2.0) + (p + 1) * math.log(math.pi)
                    + math.lgamma(0.5 * p + 1.0))


def disk_quadrature(r: float, nr: int = 80, nt: int = 256):
    """Points and weights integrating smooth functions over the disk B_r.

    Gauss-Legendre in radius crossed with the uniform (trapezoidal) rule in
    angle, which is spectrally accurate for periodic integrands.
    """
    radial = gauss_rule(nr, r)
    rad = radial.nodes + 0.5 * r
    theta = 2.0 * math.pi * np.arange(nt) / nt
    pts = (rad[:, None] * np.exp(1j * theta)[None, :]).ravel()
    wts = ((radial.weights * rad)[:, None] * (2.0 * math.pi / nt)
           * np.ones(nt)[None, :]).ravel()
    return pts, wts


def tau_grid_min_distance(ip: complex, norm_f: float, norm_g: float,
                          n_angles: int = 720):
    """min over unimodular tau of ||G - tau F|| from norms and <G, F>.

    Dense angle grid followed by local refinement around the best angle;
    never uses the closed-form minimizer.
    """
    taus = np.exp(1j * 2.0 * math.pi * np.arange(n_angles) / n_angles)
    d2 = norm_g**2 + norm_f**2 - 2.0 * np.real(np.conj(taus) * ip)
    k = int(np.argmin(d2))
    theta0 = 2.0 * math.pi * k / n_angles
    fine = theta0 + np.linspace(-2.0 * math.pi / n_angles, 2.0 * math.pi / n_angles, 81)
    d2_fine = norm_g**2 + norm_f**2 - 2.0 * np.real(np.exp(-1j * fine) * ip)
    return math.sqrt(max(min(d2.min(), d2_fine.min()), 0.0))


@dataclass(frozen=True)
class TensorWeights:
    """omega_k(r) = pi r^(2k+2) / (k! (k+1)!), k = 0..K."""

    r: float
    omega: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))


class DeltaResult(NamedTuple):
    delta: float
    delta_sq: float
    last_shell: float


def jet_from_taylor(coeffs: Sequence[complex], order: int, center: complex = 0.0) -> LocalJet:
    """Jet of F from its Taylor coefficients a_k about `center` (F = sum a_k (z-c)^k).

    Coefficients beyond `order` are ignored; missing ones are zero.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    a = np.zeros(order + 1, dtype=complex)
    for k, ck in enumerate(coeffs):
        if k > order:
            break
        a[k] = ck
    fk = a * np.array([math.factorial(k) for k in range(order + 1)])
    return LocalJet(complex(center), order, np.outer(fk, np.conj(fk)))


def tensor_weights(r: float, order: int) -> TensorWeights:
    """Disk monomial weights omega_k(r), k = 0..order, by stable recurrence."""
    r = float(r)
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    if order < 0:
        raise ValueError("order must be >= 0")
    omega = np.empty(order + 1)
    omega[0] = math.pi * r * r
    for k in range(order):
        omega[k + 1] = omega[k] * r * r / ((k + 1) * (k + 2))
    return TensorWeights(r, omega)


def delta_r(jet_f: LocalJet, jet_g: LocalJet, r: float) -> DeltaResult:
    """Truncated tensor discrepancy between two jets of equal center/order.

    The sums of a jet against the disk weights give the L2(B_r x B_r)
    distance between the tensors F(z) conj(F(zeta)) of two functions:
    delta^2 = sum_{k,l<=K} omega_k omega_l |D_kl|^2 with D the jet difference;
    `last_shell` is the contribution of the anti-diagonal k + l = K, a cheap
    truncation-tail diagnostic.
    """
    if jet_f.order != jet_g.order:
        raise ValueError("jets must share the truncation order")
    if abs(jet_f.center - jet_g.center) > 1e-12 * (1.0 + abs(jet_f.center)):
        raise ValueError("jets must share the center")
    w = tensor_weights(r, jet_f.order).omega
    diff2 = np.abs(jet_f.derivs - jet_g.derivs) ** 2
    terms = np.outer(w, w) * diff2
    total = float(terms.sum())
    shell = float(np.sum(terms[np.add.outer(np.arange(len(w)), np.arange(len(w))) == jet_f.order]))
    return DeltaResult(math.sqrt(max(total, 0.0)), total, shell)


def distance_from_delta(norm_f: float, delta: float) -> float:
    """Upper bound sqrt(5) * delta / ||F|| for min over unimodular tau of ||G - tau F||."""
    if not norm_f > 0:
        raise ValueError("the bound is vacuous for ||F|| = 0")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return math.sqrt(5.0) * delta / norm_f


def disk_norm_from_jet(jet: LocalJet, r: float) -> float:
    """||F||_{L2(B_r(center))} from the jet (truncated monomial expansion)."""
    w = tensor_weights(r, jet.order).omega
    return math.sqrt(max(float(np.sum(w * jet.derivs.diagonal().real)), 0.0))


def measured_ratio(sig_f, sig_g, grid, rects) -> float:
    """dist / ||S_f - S_g||^(1/2) of two mixtures on the union of the rectangles.

    The fields come from the closed form by np.exp, the coverage from point
    samples of each cell, and dist from the dense tau search.
    """
    x, y = grid_mesh(grid)
    f, g = (gabor_closed_form_exp(sig, x, y) for sig in (sig_f, sig_g))
    cell = sampled_coverage(grid, rects) * (grid.dx * grid.dy)
    ip = complex(np.sum(g * np.conj(f) * cell))
    norm_f, norm_g = (math.sqrt(np.sum(np.abs(v) ** 2 * cell)) for v in (f, g))
    specdiff = math.sqrt(np.sum((np.abs(f) ** 2 - np.abs(g) ** 2) ** 2 * cell))
    return tau_grid_min_distance(ip, norm_f, norm_g) / math.sqrt(specdiff)


def fornberg_weights(m: int, offsets: np.ndarray) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at 0 on `offsets`."""
    n = len(offsets)
    v = np.vander(offsets, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[m] = math.factorial(m)
    return np.linalg.solve(v, rhs)


def rayleigh_minimum_pgd(graph, iters: int = 3000, lr: float = 0.05, seed: int = 0) -> float:
    """Projected-gradient minimization of z* L z / ||z||_w^2 over z _|_w 1."""
    rng = np.random.default_rng(seed)
    lap = graph.laplacian()
    w = graph.w
    z = rng.normal(size=graph.n) + 1j * rng.normal(size=graph.n)
    ones = np.ones(graph.n)
    for _ in range(iters):
        z = z - (z @ w) / w.sum() * ones
        den = float(np.real(np.conj(z) @ (w * z)))
        num = float(np.real(np.conj(z) @ (lap @ z)))
        grad = 2.0 * (lap @ z) / den - 2.0 * num / den**2 * (w * z)
        z = z - lr * grad
        z = z / math.sqrt(float(np.real(np.conj(z) @ (w * z))))
    z = z - (z @ w) / w.sum() * ones
    den = float(np.real(np.conj(z) @ (w * z)))
    return float(np.real(np.conj(z) @ (lap @ z))) / den


def graph_from_dense(w, sigma):
    """The WeightedGraph of vertex weights w whose edges are the nonzero entries
    of the upper triangle of the symmetric matrix sigma, in row-major order."""
    from gaborcert.stability_graph import WeightedGraph

    sigma = np.asarray(sigma, dtype=float)
    i, j = np.nonzero(np.triu(sigma, 1))
    return WeightedGraph(w, i, j, sigma[i, j])


def random_graph(rng, n_min: int = 2, n_max: int = 12, density: float = 0.7):
    n = int(rng.integers(n_min, n_max + 1))
    w = rng.uniform(0.2, 2.0, n)
    upper = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density), 1)
    return graph_from_dense(w, upper + upper.T)


def jittered_cover_centers(rng, k: int = 8, half: float = 1.5,
                           jitter: float = 0.1) -> tuple[tuple[float, float], ...]:
    """k x k lattice in [-half + jitter, half - jitter]^2, each center moved by <= jitter."""
    offs = np.linspace(-half + jitter, half - jitter, k)
    return tuple((float(x + rng.uniform(-jitter, jitter)), float(y + rng.uniform(-jitter, jitter)))
                 for x in offs for y in offs)


def arrangement_brute_force(rects) -> tuple[int, float]:
    """Max multiplicity and union area of rectangles (xmin, xmax, ymin, ymax).

    Every cell of the arrangement of rectangle edges is tested at its
    midpoint against every rectangle.
    """
    r = np.asarray(rects, dtype=float)
    xs, ys = np.unique(r[:, :2]), np.unique(r[:, 2:])
    mx, my = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    count = np.zeros((len(mx), len(my)), dtype=int)
    for x0, x1, y0, y1 in r:
        count += np.outer((x0 < mx) & (mx < x1), (y0 < my) & (my < y1))
    area = float(np.sum(np.outer(np.diff(xs), np.diff(ys))[count > 0]))
    return int(count.max()), area


def sampled_coverage(grid, rects, m: int = 32) -> np.ndarray:
    """Fraction of an m x m midpoint sample of each grid cell inside the union."""
    offs = (np.arange(m) + 0.5) / m - 0.5
    px = (grid.xs()[:, None] + offs[None, :] * grid.dx).ravel()
    py = (grid.ys()[:, None] + offs[None, :] * grid.dy).ravel()
    inside = np.zeros((len(px), len(py)), dtype=bool)
    for x0, x1, y0, y1 in rects:
        inside |= np.outer((x0 <= px) & (px <= x1), (y0 <= py) & (py <= y1))
    return inside.reshape(grid.nx, m, grid.ny, m).mean(axis=(1, 3))


def field_csv_bytes(fld) -> bytes:
    """Expected bytes of a field CSV, formatted cell by cell.

    Header x,y,re,im for a transform field and x,y,s for a spectrogram, one
    row per grid point in x-major order, each number as repr(float), and
    "\n" line ends.
    """
    xs, ys = fld.grid.xs(), fld.grid.ys()
    complex_kind = fld.kind == "gabor"
    lines = ["x,y,re,im" if complex_kind else "x,y,s"]
    for i in range(fld.grid.nx):
        for j in range(fld.grid.ny):
            v = fld.values[i, j]
            nums = (xs[i], ys[j]) + ((v.real, v.imag) if complex_kind else (v,))
            lines.append(",".join(repr(float(c)) for c in nums))
    return "".join(line + "\n" for line in lines).encode()


def table_csv_bytes(header, rows) -> bytes:
    """Expected bytes of a report table CSV, formatted cell by cell.

    Floats as repr(float), integers in decimal and anything else by str,
    "," between cells and "\n" line ends.
    """
    def cell(c):
        if isinstance(c, (float, np.floating)):
            return repr(float(c))
        if isinstance(c, (int, np.integer)):
            return str(int(c))
        return str(c)

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def union_norm(fld, rects, p) -> float:
    """region_norm's rule without its domain check: rectangles past the grid
    edge cover no cells there."""
    from gaborcert.gabor_engine import _masked_norms, _window, coverage_fractions

    sx, sy, sub = _window(fld.grid, rects)
    return float(_masked_norms(fld.values[sx, sy], coverage_fractions(sub, rects), fld.grid, p))


def build_graph_per_pair(spec, cover):
    """Cover graph with one region_norm per square and one per overlapping pair."""
    from gaborcert import region_norm

    n = len(cover)
    r = cover.rects()
    w = np.array([region_norm(spec, r[i:i + 1], 1) for i in range(n)])
    x0 = np.maximum(r[:, None, 0], r[None, :, 0])
    x1 = np.minimum(r[:, None, 1], r[None, :, 1])
    y0 = np.maximum(r[:, None, 2], r[None, :, 2])
    y1 = np.minimum(r[:, None, 3], r[None, :, 3])
    sigma = np.zeros((n, n))
    for i, j in zip(*np.nonzero(np.triu((x1 > x0) & (y1 > y0), 1))):
        mass = region_norm(spec, [(x0[i, j], x1[i, j], y0[i, j], y1[i, j])], 1)
        sigma[i, j] = sigma[j, i] = mass * mass
    return graph_from_dense(w, sigma)


def retrieve_phase_per_square(spec, cover, jet_source="analytic", order=14, signal=None):
    """retrieve_phase computed one square and one overlap at a time.

    Each square gets its own index window (`_window`) and coverage
    (`coverage_fractions`); its local field is evaluated on its covered
    cells, each overlap is aligned on the pair's shared window, and the
    stitched sum is accumulated window by window.
    """
    from gaborcert import GABOR, RetrievalResult, SpectrogramField, build_graph
    from gaborcert.gabor_engine import _window, coverage_fractions
    from gaborcert.stitching import DegenerateSquareError, _synchronize
    from gaborcert.tensor_phase import jet_from_field, jet_from_mixture, local_phase_from_modulus

    grid = spec.grid
    n = len(cover)
    graph = build_graph(spec, cover)
    xs, ys = grid.xs(), grid.ys()
    rects = cover.rects()
    windows, peaks = [], []
    for i in range(n):
        sx, sy, sub = _window(grid, rects[i:i + 1])
        cov = coverage_fractions(sub, rects[i:i + 1])
        windows.append((sx, sy, cov))
        peaks.append(np.where(cov > 1e-12, spec.values[sx, sy], -1.0).max())
    # the spectrogram's peak over the covered cells sets both degeneracy thresholds
    scale = max(peaks)
    degenerate = [i for i, peak in enumerate(peaks) if peak <= 1e-10 * scale]
    if degenerate:
        raise DegenerateSquareError(degenerate)

    nodes = np.rint((np.array(cover.centers) - (grid.x0, grid.y0)) / (grid.dx, grid.dy))
    jets = [jet_from_mixture(signal, complex(xs[i], -ys[j]), order) if jet_source == "analytic"
            else jet_from_field(spec, (xs[i], ys[j]), order) for i, j in nodes.astype(int)]

    locals_ = []
    for jet, (sx, sy, cov) in zip(jets, windows):
        out = np.zeros(cov.shape, dtype=complex)
        ix, iy = np.nonzero(cov > 1e-12)
        px, py = xs[sx][ix], ys[sy][iy]
        w_pts = px - 1j * py
        u = w_pts - jet.center
        gauss = np.exp(1j * np.pi * ((np.conj(jet.center) * u).imag - px * py)
                       - 0.5 * np.pi * (u.real ** 2 + u.imag ** 2))
        out[ix, iy] = local_phase_from_modulus(jet, w_pts, scale) * gauss
        locals_.append(out)

    def shared(a, b):
        lo = [max(u.start, v.start) for u, v in zip(a[:2], b[:2])]
        hi = [max(min(u.stop, v.stop), l) for u, v, l in zip(a[:2], b[:2], lo)]
        return tuple(tuple(slice(l - u.start, h - u.start) for u, l, h in zip(w[:2], lo, hi))
                     for w in (a, b))

    ei, ej, nums = [], [], []
    for i, j in zip(graph.i.tolist(), graph.j.tolist()):
        si, sj = shared(windows[i], windows[j])
        inter = np.minimum(windows[i][2][si], windows[j][2][sj])
        num = complex(np.sum(locals_[i][si] * np.conj(locals_[j][sj]) * inter))
        if num != 0:
            ei.append(i)
            ej.append(j)
            nums.append(num)

    multipliers, components = _synchronize(n, np.array(ei, dtype=int), np.array(ej, dtype=int),
                                           np.array(nums, dtype=complex), graph.w)
    warnings = []
    if len(components) > 1:
        warnings.append(
            f"multi-component cover: {len(components)} components; relative phase "
            "between components is not recoverable"
        )

    weight_sum = np.zeros((grid.nx, grid.ny))
    acc = np.zeros((grid.nx, grid.ny), dtype=complex)
    for i, (sx, sy, cov) in enumerate(windows):
        acc[sx, sy] += multipliers[i] * locals_[i] * cov
        weight_sum[sx, sy] += cov
    out_vals = np.divide(acc, weight_sum, out=np.zeros_like(acc), where=weight_sum > 1e-12)
    c0 = complex(multipliers.mean())
    tau = c0 / abs(c0) if abs(c0) > 1e-12 else 1.0
    field = SpectrogramField(grid, out_vals * np.conj(tau), GABOR)
    return RetrievalResult(field, tuple(components), tuple(warnings))


def random_block_graph(rng, trial: int):
    """(n, ei, ej): 1 to 15 vertices in random blocks and edges only inside a block,
    upper-triangular in row-major order.  As `trial` runs through 0..3 the graph
    has one block, up to 2, up to 4 and up to n; a block of one vertex is isolated."""
    n = int(rng.integers(1, 16))
    block = rng.integers(0, [1, 2, 4, n][trial % 4], n)
    dense = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
    ei, ej = (dense & (block[:, None] == block[None, :])).nonzero()
    return n, ei, ej


def components_bfs(n, ei, ej) -> list[tuple[int, ...]]:
    """Connected components by breadth-first search from each unvisited vertex in
    ascending order: sorted vertex tuples, ordered by smallest vertex."""
    adjacent = [[] for _ in range(n)]
    for i, j in zip(ei, ej):
        adjacent[i].append(j)
        adjacent[j].append(i)
    seen = [False] * n
    found = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue, comp = [start], []
        while queue:
            v = queue.pop(0)
            comp.append(v)
            for x in adjacent[v]:
                if not seen[x]:
                    seen[x] = True
                    queue.append(x)
        found.append(tuple(sorted(comp)))
    return found


def quadrature_gabor_one_shot(sig, grid):
    """The transform field by one full-size matmul, with the kernel as np.exp; the
    reference quadrature_gabor's t panels must reproduce bit for bit."""
    from gaborcert.gabor_engine import GABOR, SpectrogramField

    t, ft, dt = sig.times(), sig.samples, sig.dt
    w = np.full(len(t), dt)
    if len(t) > 1:
        w[0] *= 0.5
        w[-1] *= 0.5

    xs = grid.xs()
    ys = grid.ys()
    gauss = np.subtract(t[None, :], xs[:, None])
    np.square(gauss, out=gauss)
    gauss *= -np.pi
    np.exp(gauss, out=gauss)
    windowed = ft[None, :] * gauss
    del gauss
    windowed *= w[None, :]
    kernel = np.outer(t, ys).astype(complex)
    kernel *= -2j * np.pi
    np.exp(kernel, out=kernel)
    values = windowed @ kernel
    return SpectrogramField(grid, values, GABOR)


def sharpness_strip(a: float):
    """A strip of unit squares at x = -a, -a + 0.6, ... <= a on y = 0, and its grid.

    The grid has step 0.05, runs 2.5 past +-a in x and covers [-2.5, 2.5]
    in y.  With the sharpness pair's field the strip is connected, but the
    weight of its squares falls like exp(-pi x^2) away from the two atoms,
    so its Cheeger constant is exponentially small in a.
    """
    from gaborcert import Grid2D, SquareCover

    cover = SquareCover(tuple((float(x), 0.0) for x in np.arange(-a, a + 1e-9, 0.6)))
    return cover, Grid2D.from_bounds(-a - 2.5, a + 2.5, -2.5, 2.5, 0.05)


def cheeger_brute_force(g) -> float:
    """min over proper nonempty S of sigma(boundary S) / min(w(S), w(S^c)).

    Every subset is visited in a Python loop, and both masses are summed
    over their own vertices, never found by subtraction.
    """
    w, sigma = g.w.tolist(), g.sigma.tolist()
    best = math.inf
    for mask in range(1, 2 ** g.n - 1):
        s = [i for i in range(g.n) if (mask >> i) & 1]
        c = [i for i in range(g.n) if not (mask >> i) & 1]
        cut = sum(sigma[i][j] for i in s for j in c)
        best = min(best, cut / min(sum(w[i] for i in s), sum(w[i] for i in c)))
    return best


def legendre_eval(n: int, z) -> np.ndarray | complex:
    """P_N(z) by the package's three-term recurrence; accepts complex arrays."""
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z) if n == 0 else _legendre_pair(n, z)[0]
    if out.shape == ():
        return complex(out)
    return out


def legendre_lower_bound_check(n: int, a: float, b: float) -> bool:
    """Check |P_N| >= min(a-1, b)^N on the rectangle boundary and on [a, a+10].

    Sampled verification at 2000 points (property-test support for the
    holomorphic error bound's validity region); requires a > 1.
    """
    if not a > 1:
        raise ValueError("need a > 1")
    if not b > 0:
        raise ValueError("need b > 0")
    per_side = _LOWER_BOUND_SAMPLES // 4
    t = np.linspace(-1.0, 1.0, per_side)
    boundary = np.concatenate([
        a * t + 1j * b,
        a * t - 1j * b,
        a + 1j * b * t,
        -a + 1j * b * t,
    ])
    ray = np.linspace(a, a + 10.0, _LOWER_BOUND_SAMPLES - len(boundary))
    pts = np.concatenate([boundary, ray.astype(complex)])
    vals = np.abs(legendre_eval(n, pts))
    floor = min(a - 1.0, b) ** n
    return bool(np.all(vals >= floor * (1.0 - 1e-12)))


def product_rule_points(rule) -> np.ndarray:
    """The (N^2, 2) nodes of a product rule in x-major order, the order of its weights:
    every pair of 1-D nodes, each shifted by the rule's center."""
    xs, ys = (rule.base.nodes + c for c in rule.center)
    return np.array(list(itertools.product(xs.tolist(), ys.tolist())))


def tensor_product_integral_points(phi, n: int, side: float,
                                   center: tuple[float, float] = (0.0, 0.0)) -> float:
    """Degree-n product-rule integral with phi called on the rule's flattened points."""
    rule = product_rule(n, side, center)
    points = product_rule_points(rule)
    vals = np.asarray(phi(points[:, 0], points[:, 1]), dtype=float)
    return float(np.dot(vals, rule.weights))
