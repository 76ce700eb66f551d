import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaborcert import (
    GABOR,
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    SpectrogramField,
    SquareCover,
    make_sharpness_pair,
    min_phase_distance,
    mixture_field,
    region_norm,
    retrieve_phase,
    spectrogram,
)
from gaborcert import stitching
from gaborcert.gabor_engine import coverage_fractions
from gaborcert.stitching import DegenerateSquareError, _synchronize
from gaborcert.tensor_phase import SingularCenterError

from oracles import (
    components_bfs,
    jittered_cover_centers,
    random_block_graph,
    random_mixture,
    retrieve_phase_per_square,
    scaled_mixture,
    square_rect,
)

ATOM = GaussianMixtureSignal((GaussianAtom(1.0),))
COVER_2X2 = SquareCover(((-0.3, -0.3), (-0.3, 0.3), (0.3, -0.3), (0.3, 0.3)))
# the lattice cases of scripts/run_accuracy_table.py
_TABLE_SPEC = importlib.util.spec_from_file_location(
    "run_accuracy_table", Path(__file__).resolve().parents[1] / "scripts" / "run_accuracy_table.py")
ACCURACY_TABLE = importlib.util.module_from_spec(_TABLE_SPEC)
_TABLE_SPEC.loader.exec_module(ACCURACY_TABLE)


def inner_product(a, b, region):
    """<a, b> over the region: the coverage-weighted cell sum over the whole grid."""
    grid = a.grid
    return complex(np.sum(a.values * np.conj(b.values) * coverage_fractions(grid, region))
                   * grid.dx * grid.dy)


def atom_fields(step=0.05, lo=-1.2, hi=1.2):
    grid = Grid2D.from_bounds(lo, hi, lo, hi, step)
    fld = mixture_field(ATOM, grid)
    return grid, fld


def test_min_phase_distance_basics():
    grid, fld = atom_fields()
    region = square_rect(0, 0, 1.0)
    rotated = SpectrogramField(grid, np.exp(1.1j) * fld.values, GABOR)
    tau, dist = min_phase_distance(fld, rotated, region)
    assert dist < 1e-10
    assert tau == pytest.approx(np.exp(1.1j), abs=1e-10)
    zero = SpectrogramField(grid, np.zeros_like(fld.values), GABOR)
    _, dist = min_phase_distance(fld, zero, region)
    assert dist == pytest.approx(region_norm(fld, region, 2), rel=1e-12)


def test_min_phase_distance_beats_angle_grid():
    rng = np.random.default_rng(22)
    grid = Grid2D.from_bounds(-1.2, 1.2, -1.2, 1.2, 0.05)
    region = square_rect(0.0, 0.0, 1.5)
    for _ in range(5):
        f = mixture_field(random_mixture(rng), grid)
        g = mixture_field(random_mixture(rng), grid)
        _, dist = min_phase_distance(f, g, region)
        ip = inner_product(g, f, region)
        nf, ng = region_norm(f, region, 2), region_norm(g, region, 2)
        for theta in 2 * math.pi * np.arange(720) / 720:
            d2 = ng * ng + nf * nf - 2 * np.real(np.exp(-1j * theta) * ip)
            assert dist <= math.sqrt(max(d2, 0.0)) + 1e-10


def test_drop_constraint_inequality():
    # unimodular-constrained distance <= sqrt(2) * unconstrained + modulus gap
    rng = np.random.default_rng(23)
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.05)
    region = square_rect(0, 0, 1.5)
    for _ in range(10):
        f = mixture_field(random_mixture(rng), grid)
        g = mixture_field(random_mixture(rng), grid)
        _, lhs = min_phase_distance(f, g, region)
        ip = inner_product(g, f, region)
        nf, ng = region_norm(f, region, 2), region_norm(g, region, 2)
        min_c = math.sqrt(max(ng * ng - abs(ip) ** 2 / (nf * nf), 0.0))
        gap_field = SpectrogramField(grid, np.abs(g.values) - np.abs(f.values) + 0j, GABOR)
        gap = region_norm(gap_field, region, 2)
        assert lhs <= math.sqrt(2.0) * min_c + gap + 1e-9


def test_overlap_constant_is_stable_under_refinement():
    # |c1 - c2|^2 ||F||^4_{L2(Q1 cap Q2)} <= C_hat K ||Sf - Sg||_{L2(Q1 u Q2)};
    # the fitted constant should move by <20% when the grid refines 2x
    rng = np.random.default_rng(24)
    pairs = [(random_mixture(rng, spread=0.4), random_mixture(rng, spread=0.4))
             for _ in range(30)]
    offsets = rng.uniform(0.2, 0.8, 30)

    def fitted(step):
        worst = 0.0
        grid = Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, step)
        for (f, g), off in zip(pairs, offsets):
            q1 = square_rect(0.0, 0.0, 1.0)
            q2 = square_rect(float(off), 0.0, 1.0)
            ff = mixture_field(f, grid)
            gg = mixture_field(g, grid)
            c1, _ = min_phase_distance(ff, gg, q1)
            c2, _ = min_phase_distance(ff, gg, q2)
            inter = square_rect(float(off) / 2, 0.0, 1.0 - float(off))
            nf4 = region_norm(ff, inter, 2) ** 4
            sf = np.abs(ff.values) ** 2
            sg = np.abs(gg.values) ** 2
            diff = SpectrogramField(grid, sf - sg + 0j, GABOR)
            sd = region_norm(diff, q1 + q2, 2)
            k_const = sf.max() + sg.max()
            lhs = abs(c1 - c2) ** 2 * nf4
            if sd > 1e-12:
                worst = max(worst, lhs / (k_const * sd))
        return worst

    coarse = fitted(0.05)
    fine = fitted(0.025)
    assert abs(coarse - fine) / coarse < 0.2


def test_retrieve_atom_2x2():
    grid = Grid2D.from_bounds(-0.85, 0.85, -0.85, 0.85, 0.05)
    spec = spectrogram(mixture_field(ATOM, grid))
    result = retrieve_phase(spec, COVER_2X2, "analytic", 14, signal=ATOM)
    assert result.components == ((0, 1, 2, 3),)
    assert result.warnings == ()
    ref = mixture_field(ATOM, grid)
    _, dist = min_phase_distance(ref, result.field, COVER_2X2.rects())
    assert dist <= 1e-4 * region_norm(ref, COVER_2X2.rects(), 2)


def test_retrieve_connected_pair_component():
    f03, _ = make_sharpness_pair(0.3)
    grid = Grid2D.from_bounds(-0.85, 0.85, -0.85, 0.85, 0.05)
    spec = spectrogram(mixture_field(f03, grid))
    result = retrieve_phase(spec, COVER_2X2, "analytic", 14, signal=f03)
    ref = mixture_field(f03, grid)
    _, dist = min_phase_distance(ref, result.field, COVER_2X2.rects())
    assert dist <= 1e-3 * region_norm(ref, COVER_2X2.rects(), 2)


def test_retrieve_finite_difference_jets():
    f03, _ = make_sharpness_pair(0.3)
    grid = Grid2D.from_bounds(-0.85, 0.85, -0.85, 0.85, 0.05)
    spec = spectrogram(mixture_field(f03, grid))
    result = retrieve_phase(spec, COVER_2X2, "finite_difference", 4)
    ref = mixture_field(f03, grid)
    _, dist = min_phase_distance(ref, result.field, COVER_2X2.rects())
    assert dist <= 5e-3 * region_norm(ref, COVER_2X2.rects(), 2)


def test_retrieve_default_order_follows_jet_source():
    # without `order`, finite-difference jets run at 4 and analytic jets at 14
    f03, _ = make_sharpness_pair(0.3)
    grid = Grid2D.from_bounds(-0.85, 0.85, -0.85, 0.85, 0.05)
    spec = spectrogram(mixture_field(f03, grid))
    cover = SquareCover(((-0.3, 0.0), (0.3, 0.0)))
    for jet_source, order, signal in (("finite_difference", 4, None), ("analytic", 14, f03)):
        got = retrieve_phase(spec, cover, jet_source, signal=signal)
        want = retrieve_phase(spec, cover, jet_source, order, signal=signal)
        assert np.array_equal(got.field.values.view(np.uint64), want.field.values.view(np.uint64))


def test_retrieve_rejects_finite_difference_order_above_4_before_any_work(monkeypatch):
    f03, _ = make_sharpness_pair(0.3)
    grid = Grid2D.from_bounds(-0.85, 0.85, -0.85, 0.85, 0.05)
    spec = spectrogram(mixture_field(f03, grid))

    def reached(*args, **kwargs):
        raise AssertionError("build_graph ran before the order was checked")

    monkeypatch.setattr(stitching, "build_graph", reached)
    with pytest.raises(ValueError, match="5 is greater than the maximum of 4 for finite_difference"):
        retrieve_phase(spec, COVER_2X2, "finite_difference", 5)


def test_retrieve_gauge_covariance():
    # spectrograms of f and e^{i theta} f coincide, so retrieval does too
    grid = Grid2D.from_bounds(-0.85, 0.85, -0.85, 0.85, 0.05)
    rotated = scaled_mixture(ATOM, np.exp(0.9j))
    spec_a = spectrogram(mixture_field(ATOM, grid))
    spec_b = spectrogram(mixture_field(rotated, grid))
    assert np.abs(spec_a.values - spec_b.values).max() < 1e-12
    out_a = retrieve_phase(spec_a, COVER_2X2, "analytic", 14, signal=ATOM)
    out_b = retrieve_phase(spec_b, COVER_2X2, "analytic", 14, signal=rotated)
    _, dist = min_phase_distance(out_a.field, out_b.field, COVER_2X2.rects())
    assert dist <= 1e-8


def _spread_case(kind, k, seed, spacing=0.7, step=0.05):
    """k x k cover at `spacing` (jittered by <= 0.1 if asked), k^2 random atoms
    in its span, and the grid padded by 1.0 around the centers."""
    rng = np.random.default_rng([seed, k])
    span = 0.5 * spacing * (k - 1)
    offs = spacing * (np.arange(k) - 0.5 * (k - 1))
    centers = [(x, y) for x in offs for y in offs]
    if kind == "jittered":
        centers = [(x + rng.uniform(-0.1, 0.1), y + rng.uniform(-0.1, 0.1)) for x, y in centers]
    atoms = tuple(GaussianAtom(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()),
                               *rng.uniform(-span, span, 2)) for _ in range(k * k))
    grid = Grid2D.from_bounds(-span - 1.0, span + 1.0, -span - 1.0, span + 1.0, step)
    return GaussianMixtureSignal(atoms), grid, SquareCover(tuple(centers))


def _retrieve_error(sig, grid, cover, jet_source, order):
    ref = mixture_field(sig, grid)
    result = retrieve_phase(spectrogram(ref), cover, jet_source, order,
                            signal=sig if jet_source == "analytic" else None)
    assert result.components == (tuple(range(len(cover))),)
    _, dist = min_phase_distance(ref, result.field, cover.rects())
    return dist / region_norm(ref, cover.rects(), 2)


@pytest.mark.parametrize("k", [6, 8, 12])
@pytest.mark.parametrize("kind", ["lattice", "jittered"])
def test_retrieve_accurate_at_every_cover_size(kind, k):
    # shifted-frame jets at each square's centre: the error does not grow with the cover
    case = _spread_case(kind, k, seed=0)
    assert _retrieve_error(*case, "analytic", 14) <= 1e-4
    assert _retrieve_error(*case, "analytic", 24) <= 1e-9


@pytest.mark.parametrize("x0", [30.0, 60.0])
def test_retrieve_far_from_origin(x0):
    # four squares and two atoms x0 away in time: every analytic jet stays finite
    sig = GaussianMixtureSignal((GaussianAtom(1.0, x0 + 0.2, 0.1),
                                 GaussianAtom(0.8 + 0.3j, x0 + 0.5, 0.6)))
    grid = Grid2D.from_bounds(x0 - 1.0, x0 + 1.7, -1.0, 1.7, 0.05)
    cover = SquareCover(tuple((x0 + a, b) for a in (0.0, 0.7) for b in (0.0, 0.7)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _retrieve_error(sig, grid, cover, "analytic", 14) <= 1e-10


def _table_d(x0, amplitude_scale):
    """Table D: two atoms and four unit squares x0 away in time, amplitudes scaled."""
    sig = scaled_mixture(GaussianMixtureSignal((GaussianAtom(1.0, x0 + 0.2, 0.1),
                                                GaussianAtom(0.8 + 0.3j, x0 + 0.5, 0.6))),
                         amplitude_scale)
    grid = Grid2D.from_bounds(x0 - 1.0, x0 + 1.7, -1.0, 1.7, 0.05)
    cover = SquareCover(tuple((x0 + a, b) for a in (0.0, 0.7) for b in (0.0, 0.7)))
    return sig, grid, cover


@pytest.mark.parametrize("amplitude_scale", [1e-5, 1e5])
def test_retrieve_is_scale_invariant(amplitude_scale):
    # the spectrogram scales by amplitude_scale^2 (1e-10 at 1e-5, where every square's
    # peak is below the old absolute 1e-10), and so do both degeneracy thresholds
    unit = _retrieve_error(*_table_d(30.0, 1.0), "analytic", 14)
    scaled = _retrieve_error(*_table_d(30.0, amplitude_scale), "analytic", 14)
    assert unit <= 1e-10
    assert abs(scaled - unit) <= 1e-4 * unit


@pytest.mark.parametrize("amplitude_scale", [1e-5, 1e5])
def test_degenerate_squares_are_relative_to_the_spectrogram_peak(amplitude_scale):
    # the unit-scale case of test_retrieve_degenerate_squares_match_per_square_reference:
    # squares 1 and 3 sit 2.5 from the one atom in both axes, peak 6e-12 of the data's 0.5
    atom = scaled_mixture(ATOM, amplitude_scale)
    grid = Grid2D.from_bounds(-3.1, 3.1, -3.1, 3.1, 0.05)
    spec = spectrogram(mixture_field(atom, grid))
    cover = SquareCover(((0.0, 0.0), (2.5, 2.5), (0.4, 0.0), (-2.5, 2.5)))
    for retrieve in (retrieve_phase, retrieve_phase_per_square):
        with pytest.raises(DegenerateSquareError) as err:
            retrieve(spec, cover, "analytic", 14, signal=atom)
        assert err.value.indices == [1, 3]


@pytest.mark.parametrize("amplitude_scale", [1e-5, 1e5])
def test_singular_centre_is_relative_to_the_spectrogram_peak(amplitude_scale):
    # test_cli's singular centre, scaled: 11 from the atom, the order-1 jet at the
    # square's centre is 2.7e-26 of the square's own peak, the peak over the cover
    atom = scaled_mixture(ATOM, amplitude_scale)
    spec = spectrogram(mixture_field(atom, Grid2D.from_bounds(10.0, 12.0, -1.0, 1.0, 0.05)))
    with pytest.raises(SingularCenterError, match="^square 0: "):
        retrieve_phase(spec, SquareCover(((11.0, 0.0),)), "analytic", 1, signal=atom)
    # with the jet of the default order the same square retrieves
    retrieve_phase(spec, SquareCover(((11.0, 0.0),)), "analytic", 14, signal=atom)


def test_degeneracy_scale_ignores_cells_outside_the_cover():
    # table D at amplitude 1e-5 beside an atom 1e8 times stronger, 10 away in time and
    # inside the grid but off the cover: the thresholds follow the covered cells' peak,
    # so the squares retrieve as without it (the grid's peak would make all four degenerate)
    sig, grid, cover = _table_d(30.0, 1e-5)
    loud = GaussianMixtureSignal(sig.atoms + (GaussianAtom(1e3, 40.0, 0.35),))
    wide = Grid2D(grid.x0, grid.y0, grid.dx, grid.dy, grid.nx + 200, grid.ny)
    spec = spectrogram(mixture_field(loud, wide))
    assert spec.values.max() > 1e10 * spectrogram(mixture_field(sig, grid)).values.max()
    quiet = _retrieve_error(sig, grid, cover, "analytic", 14)
    assert quiet <= 1e-10
    assert abs(_retrieve_error(loud, wide, cover, "analytic", 14) - quiet) <= 1e-4 * quiet


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_retrieve_finite_difference_jets_on_jittered_36(seed):
    # the data-path geometry: 6 x 6 jittered squares at spacing 0.4, jets of order 4
    case = _spread_case("jittered", 6, seed, spacing=0.4)
    assert _retrieve_error(*case, "finite_difference", 4) <= 0.1


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_retrieve_finite_difference_jets_on_lattice_36_follow_strong_overlaps(seed):
    # the accuracy table's 36-square rows: 6 x 6 unit squares at spacing 0.7, six atoms,
    # step 0.02; a tree blind to the overlap weights chained phases through weak overlaps
    # and read 0.038 to 0.29 here
    case = ACCURACY_TABLE.lattice_case(6, 0.02, 6, seed)
    assert _retrieve_error(*case, "finite_difference", 4) <= 0.025


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_retrieve_finite_difference_jets_on_lattice_144_follow_strong_overlaps(seed):
    # the accuracy table's 144-square rows: 12 x 12 unit squares at spacing 0.7, where
    # phases chained along any spanning tree pass each square the overlap errors of its
    # path (up to 0.041 here); synchronizing over every overlap keeps each row under 0.025
    case = ACCURACY_TABLE.lattice_case(12, 0.05, 144, seed)
    assert _retrieve_error(*case, "finite_difference", 4) <= 0.025


def test_synchronize_recovers_consistent_phases():
    # consistent products r_k exp(i (phi_i - phi_j)) on random block graphs, many with
    # cycles: each component comes back as exp(-i (phi_v - phi_root)), the root its
    # heaviest vertex, and a lone vertex keeps 1
    rng = np.random.default_rng(10)
    cyclic = 0
    for trial in range(200):
        n, ei, ej = random_block_graph(rng, trial)
        phi = rng.uniform(-np.pi, np.pi, n)
        w = rng.uniform(0.2, 2.0, n)
        nums = rng.uniform(0.1, 1.0, len(ei)) * np.exp(1j * (phi[ei] - phi[ej]))
        multipliers, components = _synchronize(n, ei, ej, nums, w)
        assert components == components_bfs(n, ei.tolist(), ej.tolist())
        cyclic += len(ei) > n - len(components)
        for comp in components:
            idx = np.array(comp)
            expected = np.exp(-1j * (phi[idx] - phi[idx[np.argmax(w[idx])]]))
            assert np.abs(multipliers[idx] - expected).max() <= 1e-12
    assert cyclic >= 50


def _edge_case():
    """3 x 3 squares at spacing 0.5 whose outer squares end on the grid's cell
    bounds, so their index windows are clamped to the grid."""
    rng = np.random.default_rng(5)
    grid = Grid2D.from_bounds(-0.975, 0.975, -0.975, 0.975, 0.05)
    x0, x1, y0, y1 = grid.cell_bounds()
    centers = [(x, y) for x in (x0 + 0.5, 0.0, x1 - 0.5) for y in (y0 + 0.5, 0.0, y1 - 0.5)]
    return random_mixture(rng, spread=0.5), grid, SquareCover(tuple(centers))


def _two_component_case():
    f25, _ = make_sharpness_pair(2.5)
    grid = Grid2D.from_bounds(-3.6, 3.6, -1.2, 1.2, 0.05)
    cover = SquareCover(((-2.5, 0.0), (-2.1, 0.2), (2.5, 0.0), (2.2, -0.3)))
    return f25, grid, cover


def _dense_case(seed):
    """64 jittered unit squares in [-1.5, 1.5]^2 (up to 9 deep, 546 overlapping pairs) and
    16 random atoms among them, on [-2.5, 2.5]^2 at step 0.05."""
    rng = np.random.default_rng(seed)
    atoms = tuple(GaussianAtom(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()),
                               *rng.uniform(-1.5, 1.5, 2)) for _ in range(16))
    grid = Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, 0.05)
    cover = SquareCover(jittered_cover_centers(np.random.default_rng(64)))
    return GaussianMixtureSignal(atoms), grid, cover


REFERENCE_CASES = {
    "lattice-36": (lambda: _spread_case("lattice", 6, seed=3), "analytic", 14),
    "lattice-64": (lambda: _spread_case("lattice", 8, seed=3), "analytic", 14),
    "lattice-144": (lambda: _spread_case("lattice", 12, seed=3), "analytic", 14),
    "jittered-36-fd": (lambda: _spread_case("jittered", 6, seed=3, spacing=0.4),
                       "finite_difference", 4),
    "two-components": (_two_component_case, "analytic", 14),
    "grid-edge": (_edge_case, "analytic", 14),
    "dense-64": (lambda: _dense_case(64), "analytic", 14),
    "dense-64-fd": (lambda: _dense_case(64), "finite_difference", 4),
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_retrieve_matches_per_square_reference(name):
    make, jet_source, order = REFERENCE_CASES[name]
    sig, grid, cover = make()
    spec = spectrogram(mixture_field(sig, grid))
    signal = sig if jet_source == "analytic" else None
    got = retrieve_phase(spec, cover, jet_source, order, signal=signal)
    ref = retrieve_phase_per_square(spec, cover, jet_source, order, signal=signal)
    assert got.components == ref.components
    assert got.warnings == ref.warnings
    scale = np.abs(ref.field.values).max()
    assert np.abs(got.field.values - ref.field.values).max() <= 1e-12 * scale
    if name == "two-components":
        assert len(got.components) == 2
    if name == "grid-edge":  # the outer windows would end past the grid without the clamp
        hi = cover.rects()[:, 1].max()
        assert hi == grid.cell_bounds()[1]
        assert math.floor((hi - grid.x0) / grid.dx + 0.5) + 1 > grid.nx


def test_retrieve_degenerate_squares_match_per_square_reference():
    grid = Grid2D.from_bounds(-3.1, 3.1, -3.1, 3.1, 0.05)
    spec = spectrogram(mixture_field(ATOM, grid))
    cover = SquareCover(((0.0, 0.0), (2.5, 2.5), (0.4, 0.0), (-2.5, 2.5)))
    errors = []
    for retrieve in (retrieve_phase, retrieve_phase_per_square):
        with pytest.raises(DegenerateSquareError) as err:
            retrieve(spec, cover, "analytic", 14, signal=ATOM)
        errors.append(err.value.indices)
    assert errors[0] == errors[1] == [1, 3]


def test_retrieve_degenerate_square():
    grid = Grid2D.from_bounds(-3.1, 3.1, -3.1, 3.1, 0.05)
    spec = spectrogram(mixture_field(ATOM, grid))
    cover = SquareCover(((0.0, 0.0), (2.5, 2.5)))
    with pytest.raises(DegenerateSquareError) as err:
        retrieve_phase(spec, cover, "analytic", 14, signal=ATOM)
    assert err.value.indices == [1]


def test_retrieve_multi_component_warning():
    f25, _ = make_sharpness_pair(2.5)
    grid = Grid2D.from_bounds(-3.6, 3.6, -1.2, 1.2, 0.05)
    spec = spectrogram(mixture_field(f25, grid))
    cover = SquareCover(((-2.5, 0.0), (2.5, 0.0)))
    result = retrieve_phase(spec, cover, "analytic", 14, signal=f25)
    assert len(result.components) == 2
    assert any("multi-component" in w for w in result.warnings)


def test_retrieve_validation():
    grid = Grid2D.from_bounds(-1, 1, -1, 1, 0.05)
    fld = mixture_field(ATOM, grid)
    with pytest.raises(ValueError):
        retrieve_phase(fld, COVER_2X2, "analytic", 14, signal=ATOM)  # not a spectrogram
    spec = spectrogram(fld)
    with pytest.raises(ValueError):
        retrieve_phase(spec, SquareCover(((0.0, 0.0),)), "analytic", 14)  # no signal
    with pytest.raises(ValueError):
        retrieve_phase(spec, SquareCover(((0.0, 0.0),)), "bogus", 14, signal=ATOM)


@pytest.mark.xfail(strict=True, reason="measured sharpness-ratio growth on the unit "
                   "square is e^(pi a / 2); the asserted e^(pi a) window cannot hold")
def test_sharpness_ratio_slope_window():
    grid = Grid2D.from_bounds(-0.5, 0.5, -0.5, 0.5, 0.02)
    region = square_rect(0.0, 0.0, 1.0)
    logs = []
    for a in (0.5, 1.0, 1.5, 2.0):
        f, g = make_sharpness_pair(a)
        ff = mixture_field(f, grid)
        gg = mixture_field(g, grid)
        _, dist = min_phase_distance(ff, gg, region)
        diff = SpectrogramField(grid, np.abs(ff.values) ** 2 - np.abs(gg.values) ** 2 + 0j, GABOR)
        ratio = dist / math.sqrt(region_norm(diff, region, 2))
        logs.append((a, math.log(ratio)))
    arr = np.asarray(logs)
    slope = float(np.polyfit(arr[:, 0], arr[:, 1], 1)[0])
    assert slope >= 0.95 * math.pi
