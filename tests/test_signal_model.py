import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborcert import (
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    gabor_closed_form,
    gauss_rule,
    l2_norm,
    make_sharpness_pair,
)
from gaborcert.signal_model import _PHASE_CHUNK, _cis_outer, inner_product

from oracles import gabor_closed_form_exp, mixture_samples, random_mixture, scaled_mixture


def quadrature_transform(sig, x, y, span=12.0, n=120001):
    """Brute-force trapezoidal oracle for the transform."""
    t = np.linspace(-span, span, n)
    integrand = mixture_samples(sig, t) * np.exp(-np.pi * (t - x) ** 2) * np.exp(-2j * np.pi * t * y)
    return np.trapezoid(integrand, t)


def closed_form_at(sig, x, y) -> complex:
    """The package's closed form at one point, evaluated as a 1 x 1 open mesh."""
    return complex(gabor_closed_form(sig, np.array([[x]]), np.array([[y]]))[0, 0])


def test_gabor_atom_at_origin():
    sig = GaussianMixtureSignal((GaussianAtom(1.0),))
    assert closed_form_at(sig, 0.0, 0.0) == pytest.approx(2.0 ** -0.5, abs=1e-14)


def test_sharpness_pair_at_origin():
    f, _ = make_sharpness_pair(1.0)
    assert closed_form_at(f, 0.0, 0.0) == pytest.approx(math.exp(-math.pi / 2), abs=1e-12)


def test_shifted_atom_against_quadrature():
    sig = GaussianMixtureSignal((GaussianAtom(1.0, shift=1.0),))
    val = closed_form_at(sig, 1.0, 0.0)
    assert abs(val - quadrature_transform(sig, 1.0, 0.0)) < 1e-10


def test_closed_form_vs_quadrature_on_random_points():
    rng = np.random.default_rng(0)
    for _ in range(5):
        sig = random_mixture(rng)
        tol = 1e-8 * (1.0 + l2_norm(sig))
        for _ in range(4):
            x, y = rng.uniform(-3, 3, 2)
            assert abs(closed_form_at(sig, x, y) - quadrature_transform(sig, x, y)) < tol


def test_sharpness_factorization_identity():
    # |G f_a| = e^{-pi a^2/2} e^{-pi |z|^2/2} |cos(a pi i conj(z))| on a grid
    xs = np.linspace(-1, 1, 21)
    mesh = xs[:, None], xs[None, :]
    Z = mesh[0] + 1j * mesh[1]
    for a in (0.5, 1.0, 1.5):
        f, g = make_sharpness_pair(a)
        expect_f = np.exp(-np.pi * a * a / 2) * np.exp(-np.pi * np.abs(Z) ** 2 / 2) \
            * np.abs(np.cos(a * np.pi * 1j * np.conj(Z)))
        assert np.abs(np.abs(gabor_closed_form(f, *mesh)) - expect_f).max() < 1e-10
        expect_g = np.exp(-np.pi * a * a / 2) * np.exp(-np.pi * np.abs(Z) ** 2 / 2) \
            * np.abs(np.sin(a * np.pi * 1j * np.conj(Z)))
        assert np.abs(np.abs(gabor_closed_form(g, *mesh)) - expect_g).max() < 1e-10


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
        ext = gabor_closed_form_exp(sig, complex(x), complex(y))
        assert abs(ext - closed_form_at(sig, x, y)) < 1e-13


@pytest.mark.parametrize("k", [1, 4])
def test_open_mesh_matches_points_at_complex_arguments(k):
    rng = np.random.default_rng(30 + k)
    atoms = tuple(GaussianAtom(complex(*rng.uniform(-1, 1, 2)), *rng.uniform(-1, 1, 2))
                  for _ in range(k))
    sig = GaussianMixtureSignal(atoms)
    z = (rng.uniform(-1.5, 1.5, 13) + 1j * rng.uniform(-1, 1, 13))[:, None]
    zeta = (rng.uniform(-1.5, 1.5, 11) + 1j * rng.uniform(-1, 1, 11))[None, :]
    mesh = gabor_closed_form_exp(sig, z, zeta)
    points = gabor_closed_form_exp(sig, *np.broadcast_arrays(z, zeta))
    assert mesh.shape == points.shape == (13, 11)
    assert np.abs(mesh - points).max() <= 1e-13 * np.abs(points).max()


def test_entire_extension_zero_amplitude():
    sig = GaussianMixtureSignal((GaussianAtom(0.0),))
    assert gabor_closed_form_exp(sig, 0.3 + 0.4j, -0.2 + 0.1j) == 0.0


def test_entire_extension_growth_bound():
    # |T f(x+iy, xi+i eta)| <= 2^{-1/4} ||f|| e^{pi (y^2 + 2 x eta + eta^2)};
    # the norm factor is required (the bound scales linearly in f).
    rng = np.random.default_rng(2)
    sig = GaussianMixtureSignal((GaussianAtom(1.0, 0.2, -0.3),))
    nf = l2_norm(sig)
    for _ in range(100):
        x, y, xi, eta = rng.uniform(-1.5, 1.5, 4)
        val = abs(gabor_closed_form_exp(sig, x + 1j * y, xi + 1j * eta))
        bound = 2**-0.25 * nf * math.exp(math.pi * (y * y + 2 * x * eta + eta * eta))
        assert val <= bound * (1 + 1e-12)


def test_closed_form_rejects_complex_arguments():
    sig = GaussianMixtureSignal((GaussianAtom(1.0, 0.2, -0.3),))
    for x, y in ((0.3 + 0.4j, 0.1), (0.3, 0.1 + 0j), (np.zeros(3, dtype=complex), np.zeros(3))):
        with pytest.raises(TypeError, match="real arguments"):
            gabor_closed_form(sig, x, y)
    # integers are real: they are evaluated as floats
    assert gabor_closed_form(sig, np.array([[1]]), np.array([[0]])) \
        == gabor_closed_form(sig, np.array([[1.0]]), np.array([[0.0]]))


# signed zeros and small numbers whose sums and products land on +-0
_SIGNED = np.array([-0.0, 0.0, -0.5, 0.5, 1.0, -1.25, 5e-324, -5e-324])


def _assert_same_bits(got, want):
    got, want = np.atleast_1d(got).astype(complex), np.atleast_1d(want).astype(complex)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("shift, modulation", [(0.5, -1.25), (-0.0, 0.0), (0.0, -0.0), (-0.5, 0.5)])
def test_closed_form_bit_identical_to_exp_form_where_phases_vanish(shift, modulation):
    # x = -shift and y = modulation make (x + s)(y - m) = +-0; x or y = +-0 makes xy = +-0
    amps = (1.0, -1.0, 1j, complex(-0.0, 1.0), complex(1.0, -0.0), 0.0, complex(-0.0, -0.0))
    sig = GaussianMixtureSignal(tuple(GaussianAtom(a, shift, modulation) for a in amps))
    xs = np.append(_SIGNED, [-shift, -(-shift)])
    ys = np.append(_SIGNED, [modulation, -modulation])
    _assert_same_bits(gabor_closed_form(sig, xs[:, None], ys[None, :]),
                      gabor_closed_form_exp(sig, xs[:, None], ys[None, :]))
    for a in amps:  # one atom: no sum of atoms between the phase and the output
        one = GaussianMixtureSignal((GaussianAtom(a, shift, modulation),))
        _assert_same_bits(gabor_closed_form(one, xs[:, None], ys[None, :]),
                          gabor_closed_form_exp(one, xs[:, None], ys[None, :]))


def test_closed_form_bit_identical_to_exp_form_at_random_points():
    rng = np.random.default_rng(11)
    sig = random_mixture(rng, max_atoms=4, spread=2.0)
    xs, ys = rng.uniform(-3, 3, 40), rng.uniform(-3, 3, 40)
    _assert_same_bits(gabor_closed_form(sig, xs[:, None], ys[None, :]),
                      gabor_closed_form_exp(sig, xs[:, None], ys[None, :]))


def test_cis_phases_bit_identical_to_the_exponentials_they_replace():
    # the outputs above sum each phase into +0, which hides a zero's sign; the phases
    # themselves must carry cexp's signs too
    a = np.append(_SIGNED, np.random.default_rng(8).uniform(-40, 40, 50))
    b = np.append(_SIGNED[::-1], np.random.default_rng(9).uniform(-3, 3, 30))
    # quadrature_gabor's kernel exp(-2 pi i t y): t y in the real part, times -2j pi
    kernel = np.zeros((len(a), len(b)), dtype=complex)
    np.multiply.outer(a, b, out=kernel.real)
    kernel *= -2j * np.pi
    want = np.exp(kernel)
    # the angle scratch is a few rows at a time, so chunk edges are crossed
    _assert_same_bits(_cis_outer(a, b, -2 * np.pi, np.empty_like(want)), want)
    # the open mesh's exp(-i pi x y)
    want = np.exp(-1j * np.pi * (a[:, None] * b[None, :]))
    _assert_same_bits(_cis_outer(a, b, -np.pi, np.empty_like(want)), want)
    # an atom's exp(-i pi (x + s)(y - m)) over a block of angles, each angle a row of
    # its own: (angle * 1) * 1 is the angle, -0 included
    for s, m in ((0.0, 0.0), (-0.0, -0.0), (0.5, -1.25)):
        x, dy = a[:, None], b[None, :] - m
        want = np.exp(-1j * np.pi * (x + s) * dy)
        angle = (-np.pi * (x + s) * dy).ravel()
        got = _cis_outer(angle, np.ones(1), 1.0, np.empty((angle.size, 1), dtype=complex))
        _assert_same_bits(got, want.reshape(-1, 1))


@pytest.mark.parametrize("a", [
    np.linspace(-2.0, 2.0, 9),  # exact mirrors through an exact 0
    np.array([-0.0, 0.0]),
    np.array([0.0, -0.0, 0.0]),
    np.array([-3.0, -1.0, 2.0, 3.0]),  # one row mirrored, one not
    np.array([-5e-324, 5e-324]),
    -6.5 + 13.0 / 19999 * np.arange(20000),  # the data-path t: 5737 mirrored rows
    Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, 0.02).ys(),  # the data-path y: 68 of 125 mirrored
    gauss_rule(400, 1.0).nodes,  # plan-sample's rule nodes: all 200 mirrored
], ids=["symmetric", "signed-zeros", "three-zeros", "partial", "subnormal", "data-path-t",
        "data-path-y", "gauss-400"])
def test_cis_outer_mirrored_rows_bit_identical_to_the_exponentials(a):
    # axes antisymmetric about 0, wholly or in part, as the grids and rules passed in
    # give them: a row whose a is its mirror's exact negative has exactly negated angles,
    # and every row, mirrored or not, carries np.exp's bits, signed zeros included
    n = len(a)
    assert (a[n - n // 2:] == -a[:n // 2][::-1]).any()
    b = np.append(_SIGNED, np.random.default_rng(10).uniform(-3, 3, 40))
    kernel = np.zeros((n, len(b)), dtype=complex)
    np.multiply.outer(a, b, out=kernel.real)
    kernel *= -2j * np.pi
    want = np.exp(kernel)
    _assert_same_bits(_cis_outer(a, b, -2 * np.pi, np.empty_like(want)), want)
    want = np.exp(-1j * np.pi * (a[:, None] * b[None, :]))
    _assert_same_bits(_cis_outer(a, b, -np.pi, np.empty_like(want)), want)


def test_cis_outer_scratch_is_one_row_chunk_not_the_mesh():
    # the scaling table's 4096-square lattice grid, 923 x 923: its angles would be 6.8 MB
    axis = Grid2D.from_bounds(-23.05, 23.05, -23.05, 23.05, 0.05).xs()
    assert len(axis) == 923
    out = np.empty((len(axis), len(axis)), dtype=complex)
    _cis_outer(axis, axis, -np.pi, out)
    tracemalloc.start()
    try:
        _cis_outer(axis, axis, -np.pi, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the real angle scratch, and the outer product's numpy loop buffers, one real buffer of
    # np.getbufsize() elements for each broadcast operand
    assert peak < 8 * max(_PHASE_CHUNK, len(axis)) + 2 * 8 * np.getbufsize()


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
