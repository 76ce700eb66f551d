"""Closed-form Gaussian-mixture test signals and their transforms.

An atom is ``A * exp(-pi (t - shift)^2) * exp(2 pi i modulation t)``.  Finite
mixtures of such atoms admit exact formulas for the Gaussian-window
time-frequency transform used throughout this package, at real arguments,
and for L2 inner products (Gaussian Gram matrix).  That makes mixtures the
reference signals behind every numerical oracle in the test suite.  The
transform is evaluated on open meshes only; the atom sum at scattered points
is the test suite's oracle.

Conventions, fixed project-wide:

* transform:  ``G f(x, y) = int f(t) exp(-pi (t-x)^2) exp(-2 pi i t y) dt``
* atom transform (exact):
  ``G atom(x, y) = A 2^{-1/2} exp(-pi/2 [(x-shift)^2 + (y-mod)^2])
                   * exp(-i pi (x+shift) (y-mod))``
* entire-function side: ``F(c) = G f(x, y) exp(i pi x y + pi |c|^2 / 2)``, c = x - i y.
  In the frame ``F_c(u) = F(c + u) exp(-pi conj(c) u - pi |c|^2 / 2)`` atom j adds
  ``A_j 2^{-1/2} exp(-pi/2 |d_j|^2 + i pi (x mod_j - shift_j y + shift_j mod_j) + pi d_j u)``
  with ``d_j = (shift_j - x) + i (mod_j - y)``; at u = 0 it is at most |A_j| 2^{-1/2}.
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
]

_INV_SQRT2 = 2.0 ** -0.5
# elements of the real scratch that holds a row chunk of an outer-product phase's angles
_PHASE_CHUNK = 1 << 13


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
    def _atom_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(amplitude, shift, modulation) of the atoms, built once and read-only."""
        arrays = tuple(np.array([getattr(a, f) for a in self.atoms])
                       for f in ("amplitude", "shift", "modulation"))
        for arr in arrays:
            arr.flags.writeable = False
        return arrays


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


def _cis_outer(a: np.ndarray, b: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """exp(i (a_j b_k) scale) as cos + i sin, into the complex (len(a), len(b)) array `out`.

    Bit for bit the np.exp of the purely imaginary argument it replaces: libm's
    cexp of 0 + i angle is its sincos, and the complex products that formed
    that argument left a zero angle +0, as adding 0.0 does here.  The angles
    are built a row chunk at a time in one real scratch array of at most
    max(_PHASE_CHUNK, len(b)) elements, not in an array of out's shape.
    """
    rows = max(1, _PHASE_CHUNK // max(1, len(b)))
    angle_buf = np.empty((min(rows, len(a)), len(b)))
    for r0 in range(0, len(a), rows):
        block = out[r0:r0 + rows]
        angle = angle_buf[:len(block)]
        np.multiply.outer(a[r0:r0 + rows], b, out=angle)
        angle *= scale
        angle += 0.0
        np.cos(angle, out=block.real)
        np.sin(angle, out=block.imag)
    return out


def gabor_closed_form(sig: GaussianMixtureSignal, x, y) -> np.ndarray:
    """Exact transform values on the open mesh of real x (shape (nx, 1)) and y (shape (1, ny)).

    Entry [i, j] is G f(x_i, y_j), the atom sum written as
    ``exp(-i pi x y) * (U diag(c) V^T)``: the atom phase splits as
    ``-pi (x + s)(y - m) = -pi x y + pi x m - pi s y + pi s m``, so with
    ``U[i, k] = exp(-pi/2 (x_i - s_k)^2 + i pi x_i m_k)``,
    ``V[j, k] = exp(-pi/2 (y_j - m_k)^2 - i pi s_k y_j)`` and
    ``c_k = A_k 2^{-1/2} exp(i pi s_k m_k)`` the field takes K (nx + ny)
    exponentials, nx ny cos/sin pairs and one rank-K matrix product instead
    of K nx ny exponentials.  Every caller passes a grid's or a product
    rule's axes, so there is no per-point form (the test oracle sums atoms
    at scattered points); one point is a 1 x 1 mesh.  Complex arguments
    raise TypeError, other shapes ValueError.
    """
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        raise TypeError("gabor_closed_form takes real arguments")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (x.ndim == y.ndim == 2 and x.shape[1] == y.shape[0] == 1):
        raise ValueError("gabor_closed_form takes an open mesh, x of shape (nx, 1) and y of "
                         f"shape (1, ny); got x of shape {x.shape} and y of shape {y.shape}")
    amp, s, m = sig._atom_arrays
    c = amp * _INV_SQRT2 * np.exp(1j * np.pi * s * m)
    yc = y.T
    u = np.exp(-0.5 * np.pi * (x - s) ** 2 + 1j * np.pi * x * m)
    v = np.exp(-0.5 * np.pi * (yc - m) ** 2 - 1j * np.pi * yc * s)
    phase = _cis_outer(x[:, 0], y[0], -np.pi, np.empty((x.shape[0], y.shape[1]), dtype=complex))
    return np.multiply(phase, (u * c) @ v.T, out=phase)


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

