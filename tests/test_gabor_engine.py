import math

import numpy as np
import pytest

from gaborcert import (
    GABOR,
    SPECTROGRAM,
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    Region,
    SampledSignal,
    SpectrogramField,
    Square,
    gabor_closed_form,
    l2_norm,
    make_sharpness_pair,
    mixture_field,
    quadrature_gabor,
    region_norm,
    spectrogram,
)
from gaborcert.gabor_engine import (
    coverage_fractions,
    read_field_csv,
    rect_union_norm,
    union_area,
    write_field_csv,
)

from oracles import jittered_cover_centers, random_mixture, sampled_coverage

ATOM = GaussianMixtureSignal((GaussianAtom(1.0),))


def unit_square_region(cx=0.0, cy=0.0, side=1.0):
    return Region((Square(cx, cy, side),))


def test_quadrature_matches_closed_form_on_atom():
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.2)
    fld = quadrature_gabor(ATOM, grid)
    X, Y = grid.mesh()
    assert np.abs(fld.values - gabor_closed_form(ATOM, X, Y)).max() < 1e-8


def test_quadrature_zero_signal():
    sig = SampledSignal((0.0,) * 64, -3.0, 0.1)
    fld = quadrature_gabor(sig, Grid2D.from_bounds(-1, 1, -1, 1, 0.5))
    assert np.abs(fld.values).max() == 0.0


def test_quadrature_empty_signal_rejected():
    with pytest.raises(ValueError):
        SampledSignal((), 0.0, 0.1)


def test_quadrature_sharpness_factorization():
    f, _ = make_sharpness_pair(1.0)
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.25)
    fld = quadrature_gabor(f, grid)
    X, Y = grid.mesh()
    Z = X + 1j * Y
    expect = np.exp(-np.pi / 2) * np.exp(-np.pi * np.abs(Z) ** 2 / 2 - 1j * np.pi * X * Y) \
        * np.cos(np.pi * 1j * np.conj(Z))
    assert np.abs(fld.values - expect).max() < 1e-8


def test_sampled_input_matches_mixture_path():
    t0, dt, n = -6.0, 0.01, 1201
    t = t0 + dt * np.arange(n)
    samples = tuple(ATOM.evaluate(t))
    sampled = SampledSignal(samples, t0, dt)
    grid = Grid2D.from_bounds(-0.8, 0.8, -0.8, 0.8, 0.2)
    f_sampled = quadrature_gabor(sampled, grid)
    f_mix = mixture_field(ATOM, grid)
    assert np.abs(f_sampled.values - f_mix.values).max() < 1e-6


def test_spectrogram_and_kinds():
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.25)
    fld = mixture_field(ATOM, grid)
    spec = spectrogram(fld)
    assert spec.kind == SPECTROGRAM
    assert spec.values.min() >= 0.0
    assert np.abs(np.abs(fld.values) ** 2 - spec.values).max() < 1e-12
    with pytest.raises(ValueError):
        spectrogram(spec)
    # unimodular constant field squares to all ones
    const = SpectrogramField(grid, np.full((grid.nx, grid.ny), np.exp(0.7j)), GABOR)
    assert np.abs(spectrogram(const).values - 1.0).max() < 1e-15
    # S phi(0, 0) = 1/2
    i0 = int(round((0 - grid.x0) / grid.dx))
    assert spec.values[i0, i0] == pytest.approx(0.5, abs=1e-12)


def test_region_norm_constants():
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.05)
    ones = SpectrogramField(grid, np.ones((grid.nx, grid.ny)), SPECTROGRAM)
    region = unit_square_region()
    assert region_norm(ones, region, 1) == pytest.approx(1.0, abs=1e-10)
    c_field = SpectrogramField(grid, np.full((grid.nx, grid.ny), -2.5 + 0j), GABOR)
    assert region_norm(c_field, region, 2) == pytest.approx(2.5, abs=1e-10)
    assert region_norm(c_field, region, math.inf) == pytest.approx(2.5, abs=1e-14)


def test_region_norm_rejects_out_of_domain():
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.1)
    ones = SpectrogramField(grid, np.ones((grid.nx, grid.ny)), SPECTROGRAM)
    with pytest.raises(ValueError):
        region_norm(ones, unit_square_region(cx=2.0), 1)


def test_region_norm_refinement_oracle():
    # S phi over the centered unit square: the mass has the closed form
    # (1/2) erf(sqrt(pi)/2)^2, and the midpoint rule converges at O(h^2)
    exact = 0.5 * math.erf(math.sqrt(math.pi) / 2) ** 2
    region = unit_square_region()
    errors = []
    for h in (0.01, 0.005, 0.00125):
        grid = Grid2D.from_bounds(-1, 1, -1, 1, h)
        val = region_norm(spectrogram(mixture_field(ATOM, grid)), region, 1)
        errors.append(abs(val - exact))
    assert errors[-1] < 1e-6
    assert errors[0] > errors[1] > errors[2]


def test_region_norm_overlap_counted_once():
    grid = Grid2D.from_bounds(-2, 2, -2, 2, 0.05)
    ones = SpectrogramField(grid, np.ones((grid.nx, grid.ny)), SPECTROGRAM)
    region = Region((Square(0.0, 0.0, 1.0), Square(0.5, 0.0, 1.0)))
    assert region_norm(ones, region, 1) == pytest.approx(1.5, abs=1e-10)
    # overlap in both axes, edges off the grid: 2 - 0.67 * 0.59
    region = Region((Square(0.0, 0.0, 1.0), Square(0.33, 0.41, 1.0)))
    assert region_norm(ones, region, 1) == pytest.approx(2.0 - 0.67 * 0.59, abs=1e-10)
    assert region_norm(ones, region, 2) == pytest.approx(math.sqrt(2.0 - 0.67 * 0.59), abs=1e-10)
    assert region_norm(ones, region, 1) == pytest.approx(
        union_area([sq.rect() for sq in region.squares]), rel=1e-12)


def test_spectrogram_mass_equals_window_factor_times_norm():
    # integral of S f over the plane is ||G f||^2 = ||window||^2 ||f||^2
    # = 2^{-1/2} ||f||^2 for the unit Gaussian window used here.
    sig = GaussianMixtureSignal((GaussianAtom(2**0.25, 0.1, -0.2),))
    assert l2_norm(sig) == pytest.approx(1.0, abs=1e-12)
    grid = Grid2D.from_bounds(-4, 4, -4, 4, 0.05)
    mass = region_norm(spectrogram(mixture_field(sig, grid)), unit_square_region(side=7.9), 1)
    assert mass == pytest.approx(2**-0.5, abs=1e-4)


def test_sup_norm_bound_by_window_norm():
    rng = np.random.default_rng(3)
    for _ in range(5):
        sig = random_mixture(rng)
        grid = Grid2D.from_bounds(-3, 3, -3, 3, 0.05)
        fld = mixture_field(sig, grid)
        assert np.abs(fld.values).max() <= 2**-0.25 * l2_norm(sig) * (1 + 1e-12)


def test_region_norm_refinement_order():
    sig = GaussianMixtureSignal((GaussianAtom(1.0, 0.1, 0.2),))
    vals = []
    for h in (0.1, 0.05, 0.025):
        grid = Grid2D.from_bounds(-1, 1, -1, 1, h)
        spec = spectrogram(mixture_field(sig, grid))
        vals.append(region_norm(spec, unit_square_region(0.03, -0.01, 1.17), 1))
    order = math.log2(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2]))
    assert order >= 1.9


def test_union_area():
    assert union_area([(0, 1, 0, 1)]) == pytest.approx(1.0)
    assert union_area([(0, 1, 0, 1), (0.5, 1.5, 0, 1)]) == pytest.approx(1.5)
    assert union_area([(0, 1, 0, 1), (2, 3, 0, 1)]) == pytest.approx(2.0)
    assert union_area([(0, 1, 0, 1), (0, 1, 0, 1)]) == pytest.approx(1.0)


def test_coverage_fractions_dense_cover_matches_point_sample():
    # 64 jittered unit squares in [-1.5, 1.5]^2, up to 9 deep: far past what
    # inclusion-exclusion over square subsets can reach
    squares = tuple(Square(x, y, 1.0) for x, y in jittered_cover_centers(np.random.default_rng(64)))
    grid = Grid2D.from_bounds(-2.2, 2.2, -2.2, 2.2, 0.1)
    frac = coverage_fractions(grid, Region(squares))
    assert frac.min() >= 0.0 and frac.max() <= 1.0
    sampled = sampled_coverage(grid, [sq.rect() for sq in squares], 32)
    assert np.abs(frac - sampled).max() <= 1.0 / 16


def test_rect_union_norm_matches_region_norm():
    grid = Grid2D.from_bounds(-2, 2, -2, 2, 0.05)
    spec = spectrogram(mixture_field(ATOM, grid))
    by_region = region_norm(spec, unit_square_region(0.2, -0.1), 1)
    by_rect = rect_union_norm(spec, [(-0.3, 0.7, -0.6, 0.4)], 1)
    assert by_region == pytest.approx(by_rect, rel=1e-12)


def test_field_csv_roundtrip(tmp_path):
    grid = Grid2D.from_bounds(-0.4, 0.4, -0.2, 0.6, 0.2)
    fld = mixture_field(ATOM, grid)
    path = tmp_path / "field.csv"
    write_field_csv(fld, path)
    back = read_field_csv(path)
    assert back.kind == GABOR
    assert np.abs(back.values - fld.values).max() == 0.0
    spec = spectrogram(fld)
    write_field_csv(spec, path)
    back = read_field_csv(path)
    assert back.kind == SPECTROGRAM
    assert np.abs(back.values - spec.values).max() == 0.0


def test_field_validation():
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.5)
    with pytest.raises(ValueError):
        SpectrogramField(grid, np.zeros((2, 2)), SPECTROGRAM)
    with pytest.raises(ValueError):
        SpectrogramField(grid, -np.ones((grid.nx, grid.ny)), SPECTROGRAM)
    with pytest.raises(ValueError):
        SpectrogramField(grid, np.zeros((grid.nx, grid.ny)), "other")
    with pytest.raises(ValueError):
        Grid2D(0, 0, -0.1, 0.1, 4, 4)
