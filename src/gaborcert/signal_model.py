"""Closed-form Gaussian-mixture test signals and their transforms.

An atom is ``A * exp(-pi (t - shift)^2) * exp(2 pi i modulation t)``.  Finite
mixtures of such atoms admit exact formulas for the Gaussian-window
time-frequency transform used throughout this package, at real or complex
arguments (the same formula is the transform's entire extension), and for L2
inner products (Gaussian Gram matrix).  That makes mixtures the reference
signals behind every numerical oracle in the test suite.

Conventions, fixed project-wide:

* transform:  ``G f(x, y) = int f(t) exp(-pi (t-x)^2) exp(-2 pi i t y) dt``
* atom transform (exact):
  ``G atom(x, y) = A 2^{-1/2} exp(-pi/2 [(x-shift)^2 + (y-mod)^2])
                   * exp(-i pi (x+shift) (y-mod))``
* entire-function side: ``F(w) = sum_j c_j exp(beta_j w)`` with
  ``beta_j = pi (shift_j + i mod_j)`` and
  ``c_j = A_j 2^{-1/2} exp(pi/2 (shift_j + i mod_j)^2 - pi shift_j^2)``,
  linked to the transform by ``G f(x, y) = F(x - i y) exp(-i pi x y - pi |z|^2 / 2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GaussianAtom",
    "GaussianMixtureSignal",
    "make_sharpness_pair",
    "gabor_closed_form",
    "l2_norm",
    "inner_product",
    "fock_coefficients",
]

_INV_SQRT2 = 2.0 ** -0.5


def _require_finite(name: str, value) -> None:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GaussianAtom:
    """One shifted, modulated Gaussian ``A e^{-pi(t-shift)^2} e^{2 pi i mod t}``."""

    amplitude: complex
    shift: float = 0.0
    modulation: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "shift", float(self.shift))
        object.__setattr__(self, "modulation", float(self.modulation))
        _require_finite("amplitude", self.amplitude)
        _require_finite("shift", self.shift)
        _require_finite("modulation", self.modulation)


@dataclass(frozen=True)
class GaussianMixtureSignal:
    """Ordered, nonempty list of Gaussian atoms."""

    atoms: tuple[GaussianAtom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(self.atoms) == 0:
            raise ValueError("mixture must contain at least one atom")
        for a in self.atoms:
            if not isinstance(a, GaussianAtom):
                raise TypeError("mixture atoms must be GaussianAtom instances")

    @cached_property
    def _fock_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        amp = np.array([a.amplitude for a in self.atoms])
        s = np.array([a.shift for a in self.atoms])
        mu = s + 1j * np.array([a.modulation for a in self.atoms])
        beta = np.pi * mu
        c = amp * _INV_SQRT2 * np.exp(0.5 * np.pi * mu * mu - np.pi * s ** 2)
        c.flags.writeable = beta.flags.writeable = False
        return c, beta


def make_sharpness_pair(a: float) -> tuple[GaussianMixtureSignal, GaussianMixtureSignal]:
    """Even/odd pair of Gaussians at +-a built on ``phi = 2^{-1/2} e^{-pi t^2}``.

    Returns ``(phi(.+a) + phi(.-a), phi(.+a) - phi(.-a))``.  The phase-distance
    to spectrogram-distance ratio of this pair degrades exponentially in a,
    which is the worst case probed by the sharpness experiment.
    """
    a = float(a)
    if not a > 0:
        raise ValueError(f"sharpness parameter must be positive, got {a}")
    f = GaussianMixtureSignal((
        GaussianAtom(_INV_SQRT2, -a, 0.0),
        GaussianAtom(_INV_SQRT2, +a, 0.0),
    ))
    g = GaussianMixtureSignal((
        GaussianAtom(_INV_SQRT2, -a, 0.0),
        GaussianAtom(-_INV_SQRT2, +a, 0.0),
    ))
    return f, g


def gabor_closed_form(sig: GaussianMixtureSignal, x, y):
    """Exact transform values; x, y broadcastable scalars or arrays.

    Real or complex arguments: at complex (x, y) the same formula is the
    entire extension of the transform.  An open mesh (x of shape (nx, 1),
    y of shape (1, ny)) is evaluated as one rank-K product; other points
    atom by atom.
    """
    dtype = np.result_type(np.asarray(x), np.asarray(y), np.float64)
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    if x.ndim == y.ndim == 2 and x.shape[1] == y.shape[0] == 1:
        return _open_mesh_closed_form(sig, x, y)
    out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    for a in sig.atoms:
        dx = x - a.shift
        dy = y - a.modulation
        out += a.amplitude * _INV_SQRT2 \
            * np.exp(-0.5 * np.pi * (dx * dx + dy * dy)) \
            * np.exp(-1j * np.pi * (x + a.shift) * dy)
    if out.shape == ():
        return complex(out)
    return out


def _open_mesh_closed_form(sig: GaussianMixtureSignal, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The atom sum on an open mesh as ``exp(-i pi x y) * (U diag(c) V^T)``.

    The atom phase splits as ``-pi (x + s)(y - m) = -pi x y + pi x m - pi s y
    + pi s m``, so with ``U[i, k] = exp(-pi/2 (x_i - s_k)^2 + i pi x_i m_k)``,
    ``V[j, k] = exp(-pi/2 (y_j - m_k)^2 - i pi s_k y_j)`` and
    ``c_k = A_k 2^{-1/2} exp(i pi s_k m_k)`` the field takes K (nx + ny)
    exponentials and one matrix product instead of K nx ny exponentials.
    """
    s = np.array([a.shift for a in sig.atoms])
    m = np.array([a.modulation for a in sig.atoms])
    c = np.array([a.amplitude for a in sig.atoms]) * _INV_SQRT2 * np.exp(1j * np.pi * s * m)
    yc = y.T
    u = np.exp(-0.5 * np.pi * (x - s) ** 2 + 1j * np.pi * x * m)
    v = np.exp(-0.5 * np.pi * (yc - m) ** 2 - 1j * np.pi * yc * s)
    return np.exp(-1j * np.pi * (x * y)) * ((u * c) @ v.T)


def inner_product(sig1: GaussianMixtureSignal, sig2: GaussianMixtureSignal) -> complex:
    """Exact L2(R) inner product <f1, f2> via the Gaussian Gram matrix.

    For atoms (A1, t1, n1), (A2, t2, n2):
    ``<a1, a2> = A1 conj(A2) 2^{-1/2} exp(-pi/2 [(t1-t2)^2 + (n1-n2)^2])
                 * exp(i pi (t1+t2)(n1-n2))``.
    """
    total = 0.0 + 0.0j
    for a1 in sig1.atoms:
        for a2 in sig2.atoms:
            dt = a1.shift - a2.shift
            dn = a1.modulation - a2.modulation
            total += a1.amplitude * np.conj(a2.amplitude) * _INV_SQRT2 \
                * math.exp(-0.5 * math.pi * (dt * dt + dn * dn)) \
                * np.exp(1j * math.pi * (a1.shift + a2.shift) * dn)
    return complex(total)


def l2_norm(sig: GaussianMixtureSignal) -> float:
    """Exact L2(R) norm of the mixture."""
    sq = inner_product(sig, sig).real
    return math.sqrt(max(sq, 0.0))


def fock_coefficients(sig: GaussianMixtureSignal) -> tuple[np.ndarray, np.ndarray]:
    """Exponential-sum form of the entire-function side: F(w) = sum c_j e^{beta_j w}.

    Computed once per signal and cached on it; the arrays are read-only.
    """
    return sig._fock_coefficients

