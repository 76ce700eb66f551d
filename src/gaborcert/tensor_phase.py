"""Diagonal-tensor machinery: jets of |F|^2, the delta_r discrepancy, and
phase recovery from a modulus jet.

For an entire function F, the mixed Wirtinger derivatives of its squared
modulus factor as ``dbar^l d^k |F|^2 = F^(k) * conj(F^(l))``, so the jet
array below simultaneously encodes the Taylor data of the tensor
``F(z) conj(F(zeta))``.  Truncated sums of that jet against the disk weights
``omega_k(r) = pi r^(2k+2) / (k! (k+1)!)`` give the L2(B_r x B_r) distance
between the tensors of two functions, which upper-bounds the unimodular
alignment distance with explicit constant sqrt(5).

Jets of a signal are taken in its frame at the jet center c (field point
(x, y), c = x - i y): ``F_c(u) = F(c + u) exp(-pi conj(c) u - pi |c|^2 / 2)``,
so ``|F_c(u)|^2 exp(-pi |u|^2) = S(c + u)`` (covariance under time-frequency
shifts) and the Taylor data of F_c at 0 stay bounded wherever c sits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .gabor_engine import SPECTROGRAM
from .signal_model import _INV_SQRT2, GaussianMixtureSignal

__all__ = [
    "LocalJet",
    "TensorWeights",
    "DeltaResult",
    "SingularCenterError",
    "jet_from_mixture",
    "jet_from_taylor",
    "jet_from_field",
    "tensor_weights",
    "delta_r",
    "distance_from_delta",
    "local_phase_from_modulus",
    "disk_norm_from_jet",
]

# a jet whose largest |F^(m)(center)|^2 is at or below this carries no phase information
_SINGULAR_CENTER = 1e-10
# finite-difference jets take orders 0 up to this: noise grows factorially with the order
_FD_MAX_ORDER = 4


class SingularCenterError(ValueError):
    """Every |F^(m)(center)|^2 of the jet is below threshold: the jet vanishes."""


@dataclass(frozen=True)
class LocalJet:
    """Mixed-derivative data of |F|^2 at a center.

    derivs[k, l] = dbar^l d^k |F|^2 (center) = F^(k)(center) conj(F^(l)(center)),
    with F the series of jet_from_taylor, or F_c at u = 0 for jets of a signal.
    Hermitian: derivs[k, l] == conj(derivs[l, k]); derivs[0, 0] >= 0.
    """

    center: complex
    order: int
    derivs: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.derivs, dtype=complex)
        k = self.order + 1
        if d.shape != (k, k):
            raise ValueError(f"derivs must be ({k}, {k}) for order {self.order}")
        scale = np.abs(d).max() if d.size else 0.0
        if scale > 0 and np.abs(d - d.conj().T).max() > 1e-8 * scale:
            raise ValueError("jet is not Hermitian")
        if d[0, 0].real < -1e-12 * max(scale, 1.0):
            raise ValueError("derivs[0, 0] must be nonnegative")
        object.__setattr__(self, "derivs", d)
        object.__setattr__(self, "center", complex(self.center))


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


def jet_from_mixture(sig: GaussianMixtureSignal, center: complex, order: int) -> LocalJet:
    """Analytic jet of the mixture's local frame F_c at u = 0, c = `center`.

    `center` is a point of the entire-function plane; the field point (x, y)
    corresponds to center = x - 1j * y.  With d_j = (s_j - x) + i (m_j - y), atom j
    adds A_j 2^(-1/2) exp(-pi/2 |d_j|^2 + i pi (x m_j - s_j y + s_j m_j)) (pi d_j)^k to
    F_c^(k)(0); no exponent has a positive real part, so no centre overflows.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    c = complex(center)
    amp, s, m = sig._atom_arrays
    dx, dy = s - c.real, m + c.imag
    terms = np.empty((order + 1, len(s)), dtype=complex)
    terms[0] = amp * _INV_SQRT2 * np.exp(-0.5 * np.pi * (dx * dx + dy * dy)
                                         + 1j * np.pi * (s * dy + c.real * m))
    terms[1:] = np.pi * (dx + 1j * dy)
    derivs_f = np.cumprod(terms, axis=0, out=terms).sum(axis=1)
    return LocalJet(c, order, np.outer(derivs_f, np.conj(derivs_f)))


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


@functools.cache
def _fd_weights(m: int, rad: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at 0 on the unit offsets
    -rad..rad, solved once per (m, rad) and returned read-only."""
    offsets = np.arange(-rad, rad + 1, dtype=float)
    n = len(offsets)
    if m >= n:
        raise ValueError("stencil too small for requested derivative order")
    v = np.vander(offsets, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[m] = math.factorial(m)
    weights = np.linalg.solve(v, rhs)
    weights.flags.writeable = False
    return weights


def jet_from_field(spec_field, center_xy: tuple[float, float], order: int) -> LocalJet:
    """Finite-difference jet of F_c at a grid node (x0, y0) of a sampled spectrogram.

    Central differences at the grid spacing on ``S(x, y) exp(pi ((x - x0)^2 +
    (y - y0)^2)) = |F_c(u)|^2``, u = (x - x0) - i (y - y0).  Noise amplification
    grows factorially with the order, so orders above 4 are rejected.
    """
    if spec_field.kind != SPECTROGRAM:
        raise ValueError("finite-difference jets require a spectrogram field")
    if order < 0 or order > _FD_MAX_ORDER:
        raise ValueError(f"finite-difference jets support orders 0..{_FD_MAX_ORDER} only")
    g = spec_field.grid
    if abs(g.dx - g.dy) > 1e-12 * g.dx:
        raise ValueError("finite-difference jets require square grid cells")
    h = g.dx
    x0, y0 = center_xy
    i0 = int(round((x0 - g.x0) / g.dx))
    j0 = int(round((y0 - g.y0) / g.dy))
    if abs(g.x0 + i0 * g.dx - x0) > 1e-9 * h or abs(g.y0 + j0 * g.dy - y0) > 1e-9 * h:
        raise ValueError("jet center must lie on the field grid")
    # stencil radius: max total derivative order is 2*order, second-order accurate
    rad = order + 1
    if i0 - rad < 0 or i0 + rad >= g.nx or j0 - rad < 0 or j0 + rad >= g.ny:
        raise ValueError("jet center too close to the field boundary")
    offsets = np.arange(-rad, rad + 1, dtype=float)
    r2 = (h * offsets) ** 2
    # |F_c(u)|^2 on the stencil; u = (x - x0) - i (y - y0), so flip the y axis
    u = (spec_field.values[i0 - rad:i0 + rad + 1, j0 - rad:j0 + rad + 1]
         * np.exp(np.pi * np.add.outer(r2, r2)))[:, ::-1]
    wts = np.array([_fd_weights(m, rad) / h**m for m in range(2 * order + 1)])
    mixed = wts @ u @ wts.T  # mixed[p, q] = dx^p dy^q |F_c|^2 (0), read for p + q <= 2 order
    derivs = np.zeros((order + 1, order + 1), dtype=complex)
    for k in range(order + 1):
        for l in range(order + 1):
            acc = 0.0 + 0.0j
            for i in range(k + 1):
                for j in range(l + 1):
                    acc += (math.comb(k, i) * math.comb(l, j)
                            * (-1j) ** i * (1j) ** j * mixed[k + l - i - j, i + j])
            derivs[k, l] = acc * 0.5 ** (k + l)
    derivs = 0.5 * (derivs + derivs.conj().T)
    w0 = complex(g.x0 + i0 * g.dx, -(g.y0 + j0 * g.dy))
    return LocalJet(w0, order, derivs)


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


def local_phase_from_modulus(jet: LocalJet, eval_pts: Sequence[complex]) -> np.ndarray:
    """Recover F at the given points, up to one global unimodular constant.

    The rank-one jet is read through its dominant column m, the largest
    derivs[m, m] = |F^(m)(center)|^2, so F(center) near 0 is harmless:
    ``(sum_k derivs[k, m] / k! (z - center)^k) / sqrt(derivs[m, m])`` equals
    exp(-i arg F^(m)(center)) F(z) for exact jets (F_c(z - center) for jets
    of a signal).  The polynomial is evaluated by Horner's rule, in place,
    so the memory is one array of the points' shape.  A largest
    derivs[m, m] at or below 1e-10 raises SingularCenterError.
    """
    diag = jet.derivs.diagonal().real
    m = int(np.argmax(diag))
    if diag[m] <= _SINGULAR_CENTER:
        raise SingularCenterError(
            f"max |F^(m)(center)|^2 = {diag[m]:.3g} <= threshold {_SINGULAR_CENTER:.3g}"
        )
    rel = np.asarray(eval_pts, dtype=complex) - jet.center
    coeffs = jet.derivs[:, m] / np.array([math.factorial(k) for k in range(jet.order + 1)])
    out = np.full(rel.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= rel
        out += c
    out /= math.sqrt(diag[m])
    return out


def disk_norm_from_jet(jet: LocalJet, r: float) -> float:
    """||F||_{L2(B_r(center))} from the jet (truncated monomial expansion)."""
    w = tensor_weights(r, jet.order).omega
    return math.sqrt(max(float(np.sum(w * jet.derivs.diagonal().real)), 0.0))
