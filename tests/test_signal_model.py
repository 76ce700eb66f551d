import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborcert import (
    GaussianAtom,
    GaussianMixtureSignal,
    gabor_closed_form,
    l2_norm,
    make_sharpness_pair,
)
from gaborcert.signal_model import inner_product

from oracles import mixture_samples, random_mixture, scaled_mixture


def quadrature_transform(sig, x, y, span=12.0, n=120001):
    """Brute-force trapezoidal oracle for the transform."""
    t = np.linspace(-span, span, n)
    integrand = mixture_samples(sig, t) * np.exp(-np.pi * (t - x) ** 2) * np.exp(-2j * np.pi * t * y)
    return np.trapezoid(integrand, t)


def test_gabor_atom_at_origin():
    sig = GaussianMixtureSignal((GaussianAtom(1.0),))
    assert gabor_closed_form(sig, 0.0, 0.0) == pytest.approx(2.0 ** -0.5, abs=1e-14)


def test_sharpness_pair_at_origin():
    f, _ = make_sharpness_pair(1.0)
    assert gabor_closed_form(f, 0.0, 0.0) == pytest.approx(math.exp(-math.pi / 2), abs=1e-12)


def test_shifted_atom_against_quadrature():
    sig = GaussianMixtureSignal((GaussianAtom(1.0, shift=1.0),))
    val = gabor_closed_form(sig, 1.0, 0.0)
    assert abs(val - quadrature_transform(sig, 1.0, 0.0)) < 1e-10


def test_closed_form_vs_quadrature_on_random_points():
    rng = np.random.default_rng(0)
    for _ in range(5):
        sig = random_mixture(rng)
        tol = 1e-8 * (1.0 + l2_norm(sig))
        for _ in range(4):
            x, y = rng.uniform(-3, 3, 2)
            assert abs(gabor_closed_form(sig, x, y) - quadrature_transform(sig, x, y)) < tol


def test_sharpness_factorization_identity():
    # |G f_a| = e^{-pi a^2/2} e^{-pi |z|^2/2} |cos(a pi i conj(z))| on a grid
    xs = np.linspace(-1, 1, 21)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Z = X + 1j * Y
    for a in (0.5, 1.0, 1.5):
        f, g = make_sharpness_pair(a)
        expect_f = np.exp(-np.pi * a * a / 2) * np.exp(-np.pi * np.abs(Z) ** 2 / 2) \
            * np.abs(np.cos(a * np.pi * 1j * np.conj(Z)))
        assert np.abs(np.abs(gabor_closed_form(f, X, Y)) - expect_f).max() < 1e-10
        expect_g = np.exp(-np.pi * a * a / 2) * np.exp(-np.pi * np.abs(Z) ** 2 / 2) \
            * np.abs(np.sin(a * np.pi * 1j * np.conj(Z)))
        assert np.abs(np.abs(gabor_closed_form(g, X, Y)) - expect_g).max() < 1e-10


def test_make_sharpness_pair_atoms():
    f, g = make_sharpness_pair(1.0)
    assert [a.shift for a in f.atoms] == [-1.0, 1.0]
    assert [a.amplitude for a in f.atoms] == [2**-0.5, 2**-0.5]
    assert [a.amplitude for a in g.atoms] == [2**-0.5, -(2**-0.5)]
    with pytest.raises(ValueError):
        make_sharpness_pair(0.0)
    with pytest.raises(ValueError):
        make_sharpness_pair(-1.0)


def test_sharpness_pair_norms_match():
    f, g = make_sharpness_pair(2.0)
    t = np.linspace(-12, 12, 400001)
    nf = math.sqrt(np.trapezoid(np.abs(mixture_samples(f, t)) ** 2, t))
    ng = math.sqrt(np.trapezoid(np.abs(mixture_samples(g, t)) ** 2, t))
    assert l2_norm(f) == pytest.approx(nf, abs=1e-8)
    assert l2_norm(g) == pytest.approx(ng, abs=1e-8)
    # the cross terms decay like e^{-2 pi a^2}, so the norms agree to 1e-8 at a=2
    assert abs(l2_norm(f) - l2_norm(g)) < 1e-8


def test_l2_norm_values():
    phi = GaussianMixtureSignal((GaussianAtom(2**-0.5),))
    assert l2_norm(phi) == pytest.approx(2**-0.75, abs=1e-14)
    zero = GaussianMixtureSignal((GaussianAtom(0.0),))
    assert l2_norm(zero) == 0.0
    doubled = GaussianMixtureSignal((GaussianAtom(1.0, 0.3, 0.1), GaussianAtom(1.0, 0.3, 0.1)))
    single = GaussianMixtureSignal((GaussianAtom(1.0, 0.3, 0.1),))
    assert l2_norm(doubled) == pytest.approx(2.0 * l2_norm(single), rel=1e-12)


def test_entire_extension_restricts_to_transform():
    # complex arguments with zero imaginary part take the complex path
    rng = np.random.default_rng(1)
    sig = random_mixture(rng)
    for _ in range(10):
        x, y = rng.uniform(-2, 2, 2)
        ext = gabor_closed_form(sig, complex(x), complex(y))
        assert abs(ext - gabor_closed_form(sig, x, y)) < 1e-13


@pytest.mark.parametrize("k", [1, 4])
def test_open_mesh_matches_points_at_complex_arguments(k):
    rng = np.random.default_rng(30 + k)
    atoms = tuple(GaussianAtom(complex(*rng.uniform(-1, 1, 2)), *rng.uniform(-1, 1, 2))
                  for _ in range(k))
    sig = GaussianMixtureSignal(atoms)
    z = (rng.uniform(-1.5, 1.5, 13) + 1j * rng.uniform(-1, 1, 13))[:, None]
    zeta = (rng.uniform(-1.5, 1.5, 11) + 1j * rng.uniform(-1, 1, 11))[None, :]
    mesh = gabor_closed_form(sig, z, zeta)
    points = gabor_closed_form(sig, *np.broadcast_arrays(z, zeta))
    assert mesh.shape == points.shape == (13, 11)
    assert np.abs(mesh - points).max() <= 1e-13 * np.abs(points).max()


def test_entire_extension_zero_amplitude():
    sig = GaussianMixtureSignal((GaussianAtom(0.0),))
    assert gabor_closed_form(sig, 0.3 + 0.4j, -0.2 + 0.1j) == 0.0


def test_entire_extension_growth_bound():
    # |T f(x+iy, xi+i eta)| <= 2^{-1/4} ||f|| e^{pi (y^2 + 2 x eta + eta^2)};
    # the norm factor is required (the bound scales linearly in f).
    rng = np.random.default_rng(2)
    sig = GaussianMixtureSignal((GaussianAtom(1.0, 0.2, -0.3),))
    nf = l2_norm(sig)
    for _ in range(100):
        x, y, xi, eta = rng.uniform(-1.5, 1.5, 4)
        val = abs(gabor_closed_form(sig, x + 1j * y, xi + 1j * eta))
        bound = 2**-0.25 * nf * math.exp(math.pi * (y * y + 2 * x * eta + eta * eta))
        assert val <= bound * (1 + 1e-12)


def test_atom_validation():
    with pytest.raises(ValueError):
        GaussianAtom(float("nan"))
    with pytest.raises(ValueError):
        GaussianAtom(1.0, float("inf"), 0.0)
    with pytest.raises(ValueError):
        GaussianMixtureSignal(())


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=10.0),
       shift=st.floats(min_value=-2.0, max_value=2.0))
def test_l2_norm_scales_linearly(scale, shift):
    sig = GaussianMixtureSignal((GaussianAtom(1.0, shift, 0.25), GaussianAtom(0.5j, -0.3, 0.0)))
    assert l2_norm(scaled_mixture(sig, scale)) == pytest.approx(scale * l2_norm(sig), rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(t1=st.floats(min_value=-1, max_value=1), t2=st.floats(min_value=-1, max_value=1),
       n1=st.floats(min_value=-1, max_value=1), n2=st.floats(min_value=-1, max_value=1))
def test_inner_product_hermitian(t1, t2, n1, n2):
    a = GaussianMixtureSignal((GaussianAtom(1.0 + 0.5j, t1, n1),))
    b = GaussianMixtureSignal((GaussianAtom(0.3 - 0.2j, t2, n2),))
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-12)


def test_atom_arrays_cached_per_signal():
    sig = GaussianMixtureSignal((GaussianAtom(1.0 + 0.5j, 0.4, -0.7), GaussianAtom(-0.3j, -1.1, 0.2)))
    arrays = sig._atom_arrays
    assert sig._atom_arrays[0] is arrays[0]  # computed once per signal
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.0  # read-only, so no caller can change the cached values
    amp, shift, mod = arrays
    assert amp.dtype == complex and shift.dtype == mod.dtype == float
    assert amp.tolist() == [a.amplitude for a in sig.atoms]
    assert shift.tolist() == [a.shift for a in sig.atoms]
    assert mod.tolist() == [a.modulation for a in sig.atoms]
    again = GaussianMixtureSignal(sig.atoms)._atom_arrays
    assert again[0] is not amp and all(map(np.array_equal, again, arrays))
