"""Independent numerical oracles shared by the test modules.

Everything here is deliberately separate from the package's own code paths:
disk norms come from polar quadrature rather than jet series, minimizers
from dense grid search rather than closed forms, derivatives from
high-order finite-difference stencils rather than analytic formulas, and
square-cover geometry from point tests rather than the arrangement sweep.
The cover graph's references are the per-pair loop that the stacked overlap
masses of `build_graph` replaced, and the depth-first traversal that
`retrieve_phase` ran inline before the graph had one spanning forest.
Retrieval's reference is the square-by-square `retrieve_phase` that the
stacked windows replaced: one window, coverage and local field per square
and one overlap alignment per pair.  The
growth-bound tests measure package output against a proof constant and a
grid sup norm, both kept here, and they and the jet tests read the
entire-function side F (values and derivatives at any point, unshifted)
from direct exponential sums.  Mixtures are sampled in time by a direct
atom sum, the input of the sampled-signal transform.  The sampled check of
|P_N| against the holomorphic error bound's floor on its validity region is
kept here, since only tests and acceptance criterion 10 use it.
"""

from __future__ import annotations

import math

import numpy as np

from gaborcert import GaussianAtom, GaussianMixtureSignal, SampledSignal, gabor_closed_form
from gaborcert.cubature import _legendre_pair, gauss_rule

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
    return float(np.max(np.abs(gabor_closed_form(sig, X, Y))))


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
    radial = gauss_rule(nr, 0.5 * r)
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


def random_graph(rng, n_min: int = 2, n_max: int = 12, density: float = 0.7):
    from gaborcert.stability_graph import WeightedGraph

    n = int(rng.integers(n_min, n_max + 1))
    w = rng.uniform(0.2, 2.0, n)
    upper = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density), 1)
    return WeightedGraph(w, upper + upper.T)


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


def build_graph_per_pair(spec, cover):
    """Cover graph with one single-union norm per overlapping pair.

    Vertex masses come from region_norm on each square, as in build_graph.
    """
    from gaborcert import WeightedGraph, region_norm
    from gaborcert.gabor_engine import _union_norm

    n = len(cover)
    r = cover.rects()
    w = np.array([region_norm(spec, r[i:i + 1], 1) for i in range(n)])
    x0 = np.maximum(r[:, None, 0], r[None, :, 0])
    x1 = np.minimum(r[:, None, 1], r[None, :, 1])
    y0 = np.maximum(r[:, None, 2], r[None, :, 2])
    y1 = np.minimum(r[:, None, 3], r[None, :, 3])
    sigma = np.zeros((n, n))
    for i, j in zip(*np.nonzero(np.triu((x1 > x0) & (y1 > y0), 1))):
        mass = _union_norm(spec, [(x0[i, j], x1[i, j], y0[i, j], y1[i, j])], 1)
        sigma[i, j] = sigma[j, i] = mass * mass
    return WeightedGraph(w, sigma)


def retrieve_phase_per_square(spec, cover, jet_source="analytic", order=14, signal=None):
    """retrieve_phase computed one square and one overlap at a time.

    Each square gets its own index window (`_window`) and coverage
    (`coverage_fractions`); its local field is evaluated on its covered
    cells, each overlap is aligned on the pair's shared window, and the
    stitched sum is accumulated window by window.
    """
    from gaborcert import GABOR, RetrievalResult, SpectrogramField, build_graph
    from gaborcert.gabor_engine import _window, coverage_fractions
    from gaborcert.stability_graph import _spanning_forest
    from gaborcert.stitching import DegenerateSquareError
    from gaborcert.tensor_phase import jet_from_field, jet_from_mixture, local_phase_from_modulus

    grid = spec.grid
    n = len(cover)
    graph = build_graph(spec, cover)
    xs, ys = grid.xs(), grid.ys()
    rects = cover.rects()
    windows, degenerate = [], []
    for i in range(n):
        sx, sy, sub = _window(grid, rects[i:i + 1])
        cov = coverage_fractions(sub, rects[i:i + 1])
        windows.append((sx, sy, cov))
        if np.where(cov > 1e-12, spec.values[sx, sy], -1.0).max() <= 1e-10:
            degenerate.append(i)
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
        out[ix, iy] = local_phase_from_modulus(jet, w_pts) * gauss
        locals_.append(out)

    def shared(a, b):
        lo = [max(u.start, v.start) for u, v in zip(a[:2], b[:2])]
        hi = [max(min(u.stop, v.stop), l) for u, v, l in zip(a[:2], b[:2], lo)]
        return tuple(tuple(slice(l - u.start, h - u.start) for u, l, h in zip(w[:2], lo, hi))
                     for w in (a, b))

    edges = {}
    for i, j in zip(*(e.tolist() for e in graph.edges())):
        si, sj = shared(windows[i], windows[j])
        inter = np.minimum(windows[i][2][si], windows[j][2][sj])
        num = complex(np.sum(locals_[i][si] * np.conj(locals_[j][sj]) * inter))
        if num != 0:
            edges[(i, j)] = num / abs(num)

    tree_edges, components = _spanning_forest(n, edges, np.argsort(-graph.w).tolist())
    multipliers = np.ones(n, dtype=complex)
    for u, v in tree_edges:
        rel = edges[(u, v)] if (u, v) in edges else np.conj(edges[(v, u)])
        multipliers[v] = multipliers[u] * rel
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


def spanning_forest_dfs(n, edges, roots):
    """Tree edges in claim order and sorted trees of the depth-first forest.

    The traversal that retrieve_phase ran inline before the cover graph had
    one spanning forest: adjacency lists in edge order, a vertex marked when
    it is pushed, the stack popped last-in first-out, roots taken in order.
    """
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    visited = [False] * n
    tree_edges, components = [], []
    for root in roots:
        if visited[root]:
            continue
        comp = [root]
        visited[root] = True
        queue = [root]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if visited[v]:
                    continue
                visited[v] = True
                tree_edges.append((u, v))
                comp.append(v)
                queue.append(v)
        components.append(tuple(sorted(comp)))
    return tree_edges, components


def quadrature_gabor_one_shot(sig, grid):
    """The transform field by one full-size matmul, as quadrature_gabor computed it
    before its x rows went through the matmul in blocks."""
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
