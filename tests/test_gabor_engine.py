import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborcert import (
    GABOR,
    SPECTROGRAM,
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    SampledSignal,
    SpectrogramField,
    l2_norm,
    make_sharpness_pair,
    mixture_field,
    quadrature_gabor,
    region_norm,
    spectrogram,
)
from gaborcert.gabor_engine import (
    _CSV_CHUNK,
    _T_BLOCK,
    _float_fields,
    _uniform_axis,
    coverage_fractions,
    read_field_csv,
    rect_union_norm,
    union_area,
    write_field_csv,
    write_table_csv,
)
from gaborcert.signal_model import _PHASE_CHUNK

from oracles import (
    field_csv_bytes,
    gabor_closed_form_exp,
    grid_mesh,
    jittered_cover_centers,
    quadrature_gabor_one_shot,
    quadrature_gabor_panels,
    random_mixture,
    sampled_coverage,
    sampled_mixture,
    square_rect,
    table_csv_bytes,
)

ATOM = GaussianMixtureSignal((GaussianAtom(1.0),))


def test_quadrature_matches_closed_form_on_atom():
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.2)
    fld = quadrature_gabor(sampled_mixture(ATOM, -8.0, 8.0), grid)
    X, Y = grid_mesh(grid)
    assert np.abs(fld.values - gabor_closed_form_exp(ATOM, X, Y)).max() < 1e-8


def test_quadrature_zero_signal():
    sig = SampledSignal((0.0,) * 64, -3.0, 0.1)
    fld = quadrature_gabor(sig, Grid2D.from_bounds(-1, 1, -1, 1, 0.5))
    assert np.abs(fld.values).max() == 0.0


def test_quadrature_empty_signal_rejected():
    with pytest.raises(ValueError):
        SampledSignal((), 0.0, 0.1)


def test_sampled_signal_accepts_tuple_or_array():
    pairs = np.random.default_rng(5).standard_normal((16, 2))
    from_tuple = SampledSignal(tuple(complex(re, im) for re, im in pairs), -1.0, 0.1)
    from_array = SampledSignal(pairs.view(complex)[:, 0], -1.0, 0.1)
    for sig in (from_tuple, from_array):
        assert sig.samples.dtype == complex and not sig.samples.flags.writeable
    assert np.array_equal(from_tuple.samples, from_array.samples)
    with pytest.raises(ValueError, match="finite"):
        SampledSignal((1.0, complex(0.0, math.inf)), -1.0, 0.1)


def test_quadrature_sharpness_factorization():
    f, _ = make_sharpness_pair(1.0)
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.25)
    fld = quadrature_gabor(sampled_mixture(f, -8.0, 8.0), grid)
    X, Y = grid_mesh(grid)
    Z = X + 1j * Y
    expect = np.exp(-np.pi / 2) * np.exp(-np.pi * np.abs(Z) ** 2 / 2 - 1j * np.pi * X * Y) \
        * np.cos(np.pi * 1j * np.conj(Z))
    assert np.abs(fld.values - expect).max() < 1e-8


def _noise(nt: int, t0: float, dt: float) -> SampledSignal:
    pairs = np.random.default_rng(nt).standard_normal((nt, 2))
    return SampledSignal(tuple(complex(re, im) for re, im in pairs), t0, dt)


def _t_blocks(nt: int, nx: int) -> int:
    """How many t panels quadrature_gabor sums its product over."""
    return 1 if nx == 1 else -(-nt // _T_BLOCK)


# the fixed panels' distance from one full product, in ulps of the field's largest
# modulus: at most 4.2 measured (tail-131 on one BLAS thread), doubled
ULPS = 8


# id: (signal, grid, t panels, ulps); the field is bit for bit the fixed-panel sum, and
# within ulps of its largest modulus of one full product, whose sum over t the BLAS
# orders; 0 ulps pins the full product bit for bit too
QUADRATURE_CASES = {
    # 157 x rows and 101 y columns, neither a multiple of BLAS's kernel tiles
    "row-blocks": (_noise(20000, -2.0, 2e-4), Grid2D(-1.0, -1.0, 0.02, 0.02, 157, 101), 157,
                   ULPS),
    "three-blocks": (_noise(8000, -2.0, 5e-4), Grid2D(-2.0, -1.0, 0.02, 0.02, 197, 101), 63,
                     ULPS),
    "one-x-point": (_noise(20000, -2.0, 2e-4), Grid2D(0.3, -1.0, 0.02, 0.02, 1, 101), 1, 0),
    "one-sample": (_noise(1, 0.2, 0.1), Grid2D.from_bounds(-1, 1, -1, 1, 0.1), 1, 0),
    "zero-signal": (SampledSignal((0.0,) * 8000, -2.0, 5e-4),
                    Grid2D.from_bounds(-1, 1, -1, 1, 0.02), 63, 0),
    "mixture": (sampled_mixture(random_mixture(np.random.default_rng(3)), -8.0, 8.0),
                Grid2D.from_bounds(-1, 1, -1, 1, 0.02), 7, 0),
    # the data-path transform: 20000 = 156 * 128 + 32 samples, whose last panel's window
    # is below rounding; its y grid is symmetric about 0, so mirrored kernel rows are
    # conjugates
    "data-path": (_noise(20000, -6.5, 13.0 / 19999),
                  Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, 0.02), 157, 0),
    # 67 and 129 y columns: odd counts, whose last columns BLAS computes in tail tiles
    "short-tail": (_noise(30000, -2.0, 2e-4), Grid2D(-1.0, -1.0, 0.02, 0.02, 30, 67), 235, 0),
    "one-column-tail": (_noise(30000, -2.0, 2e-4), Grid2D(-1.0, -1.0, 0.02, 0.02, 30, 129),
                        235, 0),
    # 180 points and 469 panels
    "below-one-step": (_noise(60000, -3.0, 1e-4), Grid2D(-1.0, -1.0, 0.02, 0.02, 3, 60), 469, 0),
    # a single x row (gemv) keeps one product
    "one-x-point-wide": (_noise(20000, -2.0, 2e-4), Grid2D(0.3, -2.5, 0.02, 0.02, 1, 251), 1,
                         0),
    # t, x and y grids through exact zeros, and samples with signed zero parts: the
    # kernel's t y = +-0 entries and the products of zeros keep np.exp's bits
    "signed-zeros": (SampledSignal((1.0, complex(-0.0, 1.0), 0.0, complex(-1.0, -0.0), -0.0,
                                    complex(0.0, -0.0), 2.5, complex(-0.0, -0.0), 1j),
                                   -2.0, 0.5),
                     Grid2D(-1.0, -1.0, 0.5, 0.5, 5, 5), 1, 0),
    # coarse t grids whose last panels of 3 and 44 samples carry weight; one full product
    # splits its last 131 and 172 samples in two, differently on one thread and on several
    "tail-131": (_noise(131, -6.5, 13.0 / 130), Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, 0.02),
                 2, ULPS),
    "tail-300": (_noise(300, -6.5, 13.0 / 299), Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, 0.02),
                 3, ULPS),
    # grids of 496 and 529 points: OpenBLAS runs a full 16 x 31 product on one thread
    # whatever its thread count, and splits a 23 x 23 one between threads
    "small-grid": (_noise(4099, -3.0, 6.0 / 4098), Grid2D(-1.0, -1.0, 0.02, 0.02, 16, 31), 33,
                   ULPS),
    "above-small-grid": (_noise(4099, -3.0, 6.0 / 4098), Grid2D(-1.0, -1.0, 0.02, 0.02, 23, 23),
                         33, ULPS),
}


def _assert_bit_identical_to_panels(name) -> np.ndarray:
    sig, grid, blocks, ulps = QUADRATURE_CASES[name]
    assert _t_blocks(len(sig.samples), grid.nx) == blocks, name
    got = quadrature_gabor(sig, grid).values
    want = quadrature_gabor_panels(sig, grid).values
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
    one_shot = quadrature_gabor_one_shot(sig, grid).values
    if ulps:
        error = np.abs(got - one_shot).max()
        assert error <= ulps * np.spacing(np.abs(one_shot).max()), (name, error)
    else:
        assert np.array_equal(got.view(np.uint64), one_shot.view(np.uint64)), name
    return got


@pytest.mark.parametrize("name", list(QUADRATURE_CASES))
def test_quadrature_bit_identical_to_one_shot(name):
    _assert_bit_identical_to_panels(name)


def test_quadrature_bit_identical_to_one_shot_on_one_blas_thread(tmp_path):
    # OpenBLAS reads its thread count once, when it loads: a fresh interpreter on one BLAS
    # thread checks every case against the oracles and saves its fields, and a field of
    # several x rows must equal this process's bit for bit.  A single x row is one gemv,
    # which OpenBLAS splits by thread count, so it is checked on its own thread only
    fields = tmp_path / "fields.npz"
    script = ("import sys\n"
              "import numpy as np\n"
              "from test_gabor_engine import QUADRATURE_CASES, _assert_bit_identical_to_panels\n"
              "np.savez(sys.argv[1], **{name: _assert_bit_identical_to_panels(name)\n"
              "                         for name in QUADRATURE_CASES})\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(fields)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    with np.load(fields) as one_thread:
        for name, (sig, grid, *_) in QUADRATURE_CASES.items():
            if grid.nx > 1:
                got = quadrature_gabor(sig, grid).values
                assert np.array_equal(one_thread[name].view(np.uint64), got.view(np.uint64)), name


def test_quadrature_peak_memory_is_panel_slices_not_the_kernel():
    # the 101 x 101 grid, the data-path transform's 251 x 251 and a 22 x 22 grid, at the
    # data path's 20000 samples over [-6.5, 6.5] and at ten times as many: a kernel of
    # nt x ny would be 7 to 803 MB
    for nt in (20000, 200000):
        sig = _noise(nt, -6.5, 13.0 / (nt - 1))
        for grid in (Grid2D.from_bounds(-1.0, 1.0, -1.0, 1.0, 0.02),
                     Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, 0.02),
                     Grid2D(-0.21, -0.21, 0.02, 0.02, 22, 22)):
            tracemalloc.start()
            try:
                fld = quadrature_gabor(sig, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the output and one output-sized partial sum
            output = 2 * fld.values.nbytes
            # one panel of t: per sample, the kernel slice's 16 bytes per y, and the
            # windowed rows' 16 and the real window's 8 bytes per x
            slices = (16 * grid.ny + (16 + 8) * grid.nx) * _T_BLOCK
            # the kernel's real angle scratch, its complex phase scratch and the copy
            # that conjugating a mirrored chunk of the kernel takes
            scratch = (8 + 16 + 16) * max(_PHASE_CHUNK, _T_BLOCK)
            # t, the real weights and their complex copy
            vectors = (8 + 8 + 16) * nt
            assert peak < output + slices + scratch + vectors, (nt, grid)


def test_sampled_input_matches_mixture_path():
    sampled = sampled_mixture(ATOM, -6.0, 6.0, 0.01)
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
    region = square_rect(0.0, 0.0, 1.0)
    assert region_norm(ones, region, 1) == pytest.approx(1.0, abs=1e-10)
    c_field = SpectrogramField(grid, np.full((grid.nx, grid.ny), -2.5 + 0j), GABOR)
    assert region_norm(c_field, region, 2) == pytest.approx(2.5, abs=1e-10)


def test_region_norm_rejects_out_of_domain():
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.1)
    ones = SpectrogramField(grid, np.ones((grid.nx, grid.ny)), SPECTROGRAM)
    with pytest.raises(ValueError):
        region_norm(ones, square_rect(2.0, 0.0, 1.0), 1)
    named = r"rectangle 1 \(1\.5, 2\.5, -0\.5, 0\.5\) exceeds the field domain"
    with pytest.raises(ValueError, match=named):
        region_norm(ones, square_rect(0.0, 0.0, 1.0) + square_rect(2.0, 0.0, 1.0), 1)
    with pytest.raises(ValueError, match="at least one rectangle"):
        region_norm(ones, np.empty((0, 4)), 1)


def test_region_norm_refinement_oracle():
    # S phi over the centered unit square: the mass has the closed form
    # (1/2) erf(sqrt(pi)/2)^2, and the midpoint rule converges at O(h^2)
    exact = 0.5 * math.erf(math.sqrt(math.pi) / 2) ** 2
    region = square_rect(0.0, 0.0, 1.0)
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
    region = square_rect(0.0, 0.0, 1.0) + square_rect(0.5, 0.0, 1.0)
    assert region_norm(ones, region, 1) == pytest.approx(1.5, abs=1e-10)
    # overlap in both axes, edges off the grid: 2 - 0.67 * 0.59
    region = square_rect(0.0, 0.0, 1.0) + square_rect(0.33, 0.41, 1.0)
    assert region_norm(ones, region, 1) == pytest.approx(2.0 - 0.67 * 0.59, abs=1e-10)
    assert region_norm(ones, region, 2) == pytest.approx(math.sqrt(2.0 - 0.67 * 0.59), abs=1e-10)
    assert region_norm(ones, region, 1) == pytest.approx(
        union_area(region), rel=1e-12)


def test_spectrogram_mass_equals_window_factor_times_norm():
    # integral of S f over the plane is ||G f||^2 = ||window||^2 ||f||^2
    # = 2^{-1/2} ||f||^2 for the unit Gaussian window used here.
    sig = GaussianMixtureSignal((GaussianAtom(2**0.25, 0.1, -0.2),))
    assert l2_norm(sig) == pytest.approx(1.0, abs=1e-12)
    grid = Grid2D.from_bounds(-4, 4, -4, 4, 0.05)
    mass = region_norm(spectrogram(mixture_field(sig, grid)), square_rect(0.0, 0.0, 7.9), 1)
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
        vals.append(region_norm(spec, square_rect(0.03, -0.01, 1.17), 1))
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
    squares = [r for x, y in jittered_cover_centers(np.random.default_rng(64)) for r in square_rect(x, y, 1.0)]
    grid = Grid2D.from_bounds(-2.2, 2.2, -2.2, 2.2, 0.1)
    frac = coverage_fractions(grid, squares)
    assert frac.min() >= 0.0 and frac.max() <= 1.0
    sampled = sampled_coverage(grid, squares, 32)
    assert np.abs(frac - sampled).max() <= 1.0 / 16


def test_rect_union_norm_matches_region_norm():
    grid = Grid2D.from_bounds(-2, 2, -2, 2, 0.05)
    spec = spectrogram(mixture_field(ATOM, grid))
    by_region = region_norm(spec, square_rect(0.2, -0.1, 1.0), 1)
    by_rect = rect_union_norm(spec, [(-0.3, 0.7, -0.6, 0.4)], 1)
    assert by_rect.shape == (1,)
    assert by_region == pytest.approx(by_rect[0], rel=1e-12)


@pytest.mark.parametrize("bounds", [
    (-2.5, 2.5, -2.5, 2.5, 0.02),       # seed-701 data-path transform grid
    (-2.24, 2.24, -2.24, 2.24, 0.02),
    (-4.85, 4.85, -4.85, 4.85, 0.05),   # 12 x 12 lattice at spacing 0.7, padded by 1.0
    (-0.85, 0.85, -0.4, 1.3, 0.05),
    (0.1, 0.7, -3.3, -0.3, 0.1),
    (-1.0, 1.0, -1.0, 1.0, 0.2),
    (5.0, 5.307, 0.0, 0.002, 0.001),    # the mean x step is 6 ulps from 0.001
], ids=["data-path", "xmin-2.24", "lattice", "off-centre", "positive-x", "coarse", "far-from-zero"])
def test_field_csv_rewrite_is_byte_identical(tmp_path, bounds):
    # read_field_csv recovers a grid whose coordinates are the file's own
    grid = Grid2D.from_bounds(*bounds)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_field_csv(spectrogram(mixture_field(ATOM, grid)), first)
    write_field_csv(read_field_csv(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_uniform_axis_reproduces_decimal_step_axes():
    # axes as from_bounds builds them from short decimal bounds and steps;
    # a CSV holds their coordinates exactly, so the read-back axis must
    # give back every one
    rng = np.random.default_rng(14)
    steps = (0.001, 0.002, 0.005, 0.0125, 0.013, 0.02, 0.025, 0.05, 0.07, 0.1, 0.25, 0.3, 0.5)
    for _ in range(2000):
        xmin = round(float(rng.uniform(-10.0, 10.0)), int(rng.integers(0, 4)))
        step = float(rng.choice(steps))
        n = int(rng.integers(2, 601))
        grid = Grid2D.from_bounds(xmin, xmin + step * (n - 1), 0.0, 1.0, step)
        first, got, count = _uniform_axis(grid.xs(), "x")
        assert (first, count) == (grid.x0, grid.nx), (xmin, step, n)
        assert np.array_equal(first + got * np.arange(count), grid.xs()), (xmin, step, n)


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

    # signed zero, exponent forms and the smallest subnormal, written and
    # read back exactly, in x-major order with "\n" line ends; the first
    # transform cell is -0.0 in both parts
    edge = np.array([[-0.0, 1e-05, 1.5e16], [5e-324, 0.25, -1e-05]])
    small = Grid2D(-0.5, 0.25, 0.5, 0.125, 2, 3)
    parts = np.empty((2, 3), dtype=complex)
    parts.real, parts.imag = edge, edge[::-1, ::-1]
    parts.imag[0, 0] = -0.0
    rewritten = tmp_path / "rewritten.csv"
    for fld in (SpectrogramField(small, np.abs(edge), SPECTROGRAM),
                SpectrogramField(small, parts, GABOR)):
        write_field_csv(fld, path)
        assert path.read_bytes() == field_csv_bytes(fld)
        back = read_field_csv(path)
        assert back.kind == fld.kind
        assert np.array_equal(back.values, fld.values)
        # array_equal cannot see the sign of a zero; the rewritten bytes can
        write_field_csv(back, rewritten)
        assert rewritten.read_bytes() == path.read_bytes()


def _field_texts(values) -> list[str]:
    """The reprs _float_fields gives, after checking that each field is "," from its length on."""
    chars, lens = _float_fields(values)
    assert chars.shape == (len(lens), 25)
    assert ((chars == ord(",")) | (np.arange(25) < lens[:, None])).all()
    return [bytes(row[:n]).decode() for row, n in zip(chars, lens)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_float_fields_match_repr_on_bit_patterns(words):
    # any float64, NaN payloads and both signs of zero and infinity included
    values = np.array(words, dtype=np.uint64).view(float)
    assert _field_texts(values) == [repr(v) for v in values.tolist()]


def test_float_fields_match_repr_at_edges():
    # signed zeros, the smallest and largest subnormals, every power of 2 and of 10 with its
    # neighbours, and 64 neighbours each side of the positional/exponent switches 1e-4 and 1e16
    powers = np.array([2.0 ** e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)])
    switches = (np.array([1e-4, 1e16]).view(np.int64)[:, None] + np.arange(-64, 65)).view(float)
    subnormal = np.concatenate([np.arange(1, 4097), (1 << 52) - np.arange(1, 4097)]).view(float)
    values = np.concatenate([[0.0, math.inf, math.nan], powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, math.inf), switches.ravel(), subnormal])
    values = np.concatenate([values, -values])
    assert _field_texts(values) == [repr(v) for v in values.tolist()]


def test_field_csv_chunks_match_cellwise_format(tmp_path):
    # a chunk boundary inside an x row, the last chunk short, zeros among the values
    grid = Grid2D(-1.0, 0.5, 0.01, 0.3, 2 * _CSV_CHUNK // 7 + 3, 7)
    rng = np.random.default_rng(3)
    parts = rng.standard_normal((2, grid.nx, grid.ny)) * 10.0 ** rng.integers(-8, 20, (2, grid.nx, grid.ny))
    parts[rng.random(parts.shape) < 0.3] = 0.0
    path = tmp_path / "field.csv"
    for fld in (SpectrogramField(grid, parts[0] + 1j * parts[1], GABOR),
                SpectrogramField(grid, np.abs(parts[0]), SPECTROGRAM)):
        write_field_csv(fld, path)
        assert path.read_bytes() == field_csv_bytes(fld)


def test_table_csv_chunks_match_cellwise_format(tmp_path):
    # float, int64 and string columns over three chunks, the last one short; the floats
    # hold signed zeros and infinities, nan, subnormals and the neighbours of the
    # positional/exponent switches 1e-4 and 1e16
    rng = np.random.default_rng(5)
    n = 2 * _CSV_CHUNK + 77
    switches = (np.array([1e-4, 1e16]).view(np.int64)[:, None] + np.arange(-8, 9)).view(float)
    edges = np.concatenate([[0.0, math.inf, math.nan, 5e-324, 2.2250738585072009e-308],
                            switches.ravel()])
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    floats[rng.choice(n, 2 * len(edges), replace=False)] = np.concatenate([edges, -edges])
    ints = rng.integers(-2**63, 2**63 - 1, n, endpoint=True)
    ints[:3] = [0, -1, np.iinfo(np.int64).min]
    words = np.array(["", "K", "lambda", "bound_cheeger", "ünïcode", "x" * 24])
    strings = words[rng.integers(0, len(words), n)]
    path = tmp_path / "table.csv"
    write_table_csv(path, {"v": floats, "i": ints, "name": strings})
    expected = table_csv_bytes(["v", "i", "name"],
                               zip(floats.tolist(), ints.tolist(), strings.tolist()))
    assert path.read_bytes() == expected
    # a cell past the 24 bytes of a slot is refused, not cut
    with pytest.raises(ValueError, match="longer than 24 bytes"):
        write_table_csv(path, {"name": np.array(["x" * 25])})


def test_field_validation():
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.5)
    with pytest.raises(ValueError):
        SpectrogramField(grid, np.zeros((2, 2)), SPECTROGRAM)
    with pytest.raises(ValueError):
        SpectrogramField(grid, -np.ones((grid.nx, grid.ny)), SPECTROGRAM)
    # negative values are measured against the data's own peak, at any scale
    with pytest.raises(ValueError):
        SpectrogramField(grid, np.full((grid.nx, grid.ny), -5e-10), SPECTROGRAM)
    tiny = np.full((grid.nx, grid.ny), 1e-20)
    tiny[0, 0] = -1e-30  # rounding below zero, 1e-10 of the peak: clamped
    assert SpectrogramField(grid, tiny, SPECTROGRAM).values[0, 0] == 0.0
    tiny[0, 0] = -1e-20
    with pytest.raises(ValueError):
        SpectrogramField(grid, tiny, SPECTROGRAM)
    with pytest.raises(ValueError):
        SpectrogramField(grid, np.zeros((grid.nx, grid.ny)), "other")
    with pytest.raises(ValueError):
        Grid2D(0, 0, -0.1, 0.1, 4, 4)
