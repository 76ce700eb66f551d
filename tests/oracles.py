"""Independent numerical oracles shared by the test modules.

Everything here is deliberately separate from the package's own code paths:
disk norms come from polar quadrature rather than jet series, minimizers
from dense grid search rather than closed forms, derivatives from
high-order finite-difference stencils rather than analytic formulas, and
square-cover geometry from point tests rather than the arrangement sweep.
"""

from __future__ import annotations

import math

import numpy as np

from gaborcert import GaussianAtom, GaussianMixtureSignal
from gaborcert.cubature import gauss_rule


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
