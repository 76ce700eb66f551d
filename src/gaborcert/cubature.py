"""Gauss-Legendre product rules, holomorphic-extension error bounds, and the
sampling planner, on squares given by their side length.

The error bound for squared spectrogram differences on a square of side `side`,
``3 (sqrt(2 pi) side + 2)^(N+3) N^(-(N-1)/2) e^(N/2) kappa`` with kappa the
summed squared signal norms, decays super-exponentially in N; the planner
inverts it to find the smallest rule degree meeting a target.  The rules and
the bound are evaluated on half = side / 2, the paper's half-width s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussRule1D",
    "ProductRule2D",
    "SamplingPlan",
    "gauss_rule",
    "product_rule",
    "apply_rule",
    "spectro_error_bound",
    "plan_sampling",
    "tensor_product_integral",
]

_LOG_HUGE = math.log(1e300)
# a product rule holds at most 10**_NODE_CAP_EXP nodes (N^2); the CLI caps grids at the same count
_NODE_CAP_EXP = 7


@dataclass(frozen=True)
class GaussRule1D:
    """N-point Gauss-Legendre rule on [-side / 2, side / 2]; weights sum to side."""

    n: int
    side: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class ProductRule2D:
    """Tensor rule on the square of side `side` centered at `center`: node (i, j) is center +
    (base.nodes[i], base.nodes[j]), and the weights are the nodes' in x-major order."""

    base: GaussRule1D
    center: tuple[float, float]
    weights: np.ndarray  # (N^2,)


@dataclass(frozen=True)
class SamplingPlan:
    n: int
    rule: ProductRule2D
    epsilon: float
    predicted_error: float
    kappa: float


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence, for n >= 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        p_prev, p = p, p_next
    return p, p_prev


def _legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p, p_prev = _legendre_pair(n, x)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def gauss_rule(n: int, side: float) -> GaussRule1D:
    """Nodes/weights by Newton iteration on P_N with Chebyshev initial guesses.

    Residual tolerance 1e-15; nodes are symmetrized so that odd integrands
    cancel exactly.
    """
    if n < 1:
        raise ValueError(f"rule size must be >= 1, got {n}")
    if not side > 0:
        raise ValueError(f"side must be positive, got {side}")
    half = 0.5 * side
    if n == 1:
        return GaussRule1D(1, side, np.zeros(1), np.array([side]))
    k = np.arange(n)
    x = np.cos(math.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.abs(dx).max() < 1e-15:
            break
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])  # enforce symmetry about 0
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    return GaussRule1D(n, side, half * x, half * w)


def product_rule(n: int, side: float, center: tuple[float, float] = (0.0, 0.0)) -> ProductRule2D:
    """Tensor product of the 1-D rule; weights sum to side^2."""
    base = gauss_rule(n, side)
    wts = np.outer(base.weights, base.weights).ravel()
    return ProductRule2D(base, (float(center[0]), float(center[1])), wts)


def apply_rule(phi, rule: ProductRule2D) -> float:
    """sum_lambda phi(lambda) w_lambda, with phi called once on the rule's open mesh.

    phi(x, y) gets x of shape (N, 1) and y of shape (1, N) and must return
    values that broadcast to (N, N), entry [i, j] at node (x_i, y_j); raveled
    x-major, they are summed against `rule.weights`.
    """
    n, nodes, (cx, cy) = rule.base.n, rule.base.nodes, rule.center
    vals = np.asarray(phi(nodes[:, None] + cx, nodes[None, :] + cy), dtype=float)
    return float(np.dot(np.broadcast_to(vals, (n, n)).ravel(), rule.weights))


def spectro_error_bound(n: int, side: float, kappa: float) -> float:
    """Bound on |E^(N)((Sf - Sg)^2)| on a square of side `side`; kappa = ||f||^2 + ||g||^2.

    Log-space evaluation of 3 (sqrt(8 pi) s + 2)^(N+3) N^(-(N-1)/2) e^(N/2) kappa
    at s = side / 2, the holomorphic-extension bound with the slab parameters
    fixed at b = sqrt(N / (8 pi)), a = s + b; values above 1e300 are reported as inf.
    """
    if n < 1:
        raise ValueError("rule degree must be >= 1")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if kappa == 0.0:
        return 0.0
    half = 0.5 * side
    log_val = (math.log(3.0) + (n + 3) * math.log(math.sqrt(8.0 * math.pi) * half + 2.0)
               - 0.5 * (n - 1) * math.log(n) + 0.5 * n + math.log(kappa))
    if log_val > _LOG_HUGE:
        return math.inf
    return math.exp(log_val)


def plan_sampling(epsilon: float, side: float, kappa: float,
                  center: tuple[float, float] = (0.0, 0.0)) -> SamplingPlan:
    """Smallest N whose predicted error is at most epsilon^4, plus the rule.

    N is found by scanning up from 1.  A rule of more than 10**7 nodes (N^2)
    raises ValueError before it is built.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    target = epsilon ** 4
    n = 1
    while spectro_error_bound(n, side, kappa) > target:
        n += 1
        if n * n > 10**_NODE_CAP_EXP:
            raise ValueError("the smallest rule meeting epsilon^4 needs more than "
                             f"10**{_NODE_CAP_EXP} nodes")
    rule = product_rule(n, side, center)
    return SamplingPlan(n, rule, epsilon, spectro_error_bound(n, side, kappa), kappa)


def tensor_product_integral(phi, n: int, side: float,
                            center: tuple[float, float] = (0.0, 0.0)) -> float:
    """Reference integral of phi over the square via a degree-n product rule.

    phi is called once on the rule's open mesh, as in `apply_rule`, so it
    must broadcast.  With n in the hundreds this is exact to machine
    precision for entire integrands and serves as the reference for measured
    cubature errors.
    """
    return apply_rule(phi, product_rule(n, side, center))

