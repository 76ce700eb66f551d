"""Cover-local computation: per-square and per-overlap work on index windows.

Masses, coverage and fields computed on the window of cells a square or an
overlap meets must agree with the full-grid sums, and squares outside the
field domain must fail the same way as before windowing.
"""

import json
import math

import numpy as np
import pytest

from gaborcert import (
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    SquareCover,
    build_graph,
    certificate,
    mixture_field,
    region_norm,
    retrieve_phase,
    spectrogram,
)
from gaborcert.cli import main
from gaborcert.gabor_engine import (
    _stacked_windows,
    _window,
    coverage_fractions,
    rect_union_norm,
)
from gaborcert.stitching import DegenerateSquareError

from oracles import build_graph_per_pair, gabor_closed_form_exp, grid_mesh, jittered_cover_centers

ATOM = GaussianMixtureSignal((GaussianAtom(1.0),))
DOMAIN_GRID = Grid2D.from_bounds(-2.0, 2.0, -2.0, 2.0, 0.05)


def _domain_spec():
    return spectrogram(mixture_field(ATOM, DOMAIN_GRID))


@pytest.mark.parametrize("far", [(1.8, 0.0), (4.0, 0.0)])
def test_graph_and_certificate_reject_square_past_the_grid(far):
    spec = _domain_spec()
    cover = SquareCover(((0.0, 0.0), far))
    with pytest.raises(ValueError, match="rectangle 1 .* exceeds the field domain"):
        build_graph(spec, cover)
    with pytest.raises(ValueError, match="rectangle 1 .* exceeds the field domain"):
        certificate(spec, spec, cover)


def test_retrieve_square_partly_outside_exceeds_the_domain():
    cover = SquareCover(((0.0, 0.0), (1.8, 0.0)))
    with pytest.raises(ValueError, match="exceeds the field domain") as exc:
        retrieve_phase(_domain_spec(), cover, signal=ATOM)
    assert not isinstance(exc.value, DegenerateSquareError)


def test_retrieve_square_wholly_outside_exceeds_the_domain(tmp_path, capsys):
    # the domain is checked before the degeneracy test, as certify checks it
    cover = SquareCover(((0.0, 0.0), (4.0, 0.0)))
    with pytest.raises(ValueError, match="rectangle 1 .* exceeds the field domain") as exc:
        retrieve_phase(_domain_spec(), cover, signal=ATOM)
    assert not isinstance(exc.value, DegenerateSquareError)

    config = tmp_path / "retrieve.json"
    config.write_text(
        '{"spectrogram": {"signal": {"kind": "mixture", "atoms": '
        '[{"re": 1.0, "im": 0.0, "shift": 0.0, "modulation": 0.0}]}, '
        '"grid": {"xmin": -2.0, "xmax": 2.0, "ymin": -2.0, "ymax": 2.0, "step": 0.05}}, '
        '"cover": {"centers": [[0.0, 0.0], [4.0, 0.0]]}}'
    )
    assert main(["retrieve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "rectangle 1 (3.5, 4.5, -0.5, 0.5) exceeds the field domain" in capsys.readouterr().err


def _n64_cover_and_spec():
    """Jittered 8 x 8 cover with off-grid edges plus one square whose right
    edge lies on the grid's cell bound, and a 9-atom spectrogram over it."""
    rng = np.random.default_rng(6400)
    grid = Grid2D.from_bounds(-3.0, 3.0, -3.0, 3.0, 0.05)
    centers = jittered_cover_centers(rng, k=8, half=2.4, jitter=0.1)
    centers += ((grid.cell_bounds()[1] - 0.5, 0.3),)
    atoms = tuple(GaussianAtom(complex(*rng.normal(size=2)), x, y)
                  for x in (-1.5, 0.0, 1.5) for y in (-1.5, 0.0, 1.5))
    spec = spectrogram(mixture_field(GaussianMixtureSignal(atoms), grid))
    return SquareCover(centers), spec


def _full_grid_l1(spec, rects) -> float:
    """||S||_L1 over the union of the rectangles, summed over every grid cell."""
    frac = coverage_fractions(spec.grid, rects)
    return float(np.sum(spec.values * frac) * spec.grid.dx * spec.grid.dy)


def test_build_graph_window_masses_match_full_grid_at_n65():
    cover, spec = _n64_cover_and_spec()
    n = len(cover)
    assert n == 65
    g = build_graph(spec, cover)

    rects = cover.rects()
    for i in range(n):
        assert g.w[i] == pytest.approx(region_norm(spec, rects[i:i + 1], 1), rel=1e-12, abs=0)
        assert g.w[i] == pytest.approx(_full_grid_l1(spec, [rects[i]]), rel=1e-12, abs=0)

    via_norm = np.zeros((n, n))
    full = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = rects[i], rects[j]
            inter = (max(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), min(a[3], b[3]))
            if inter[1] <= inter[0] or inter[3] <= inter[2]:
                continue
            via_norm[i, j] = via_norm[j, i] = region_norm(spec, [inter], 1) ** 2
            full[i, j] = full[j, i] = _full_grid_l1(spec, [inter]) ** 2
    # the edge-on-bound square overlaps its lattice neighbours
    assert np.count_nonzero(full[-1]) >= 2
    for reference in (via_norm, full):
        assert np.array_equal(g.sigma > 0, reference > 0)
        np.testing.assert_allclose(g.sigma, reference, rtol=1e-12, atol=0)


def _lattice_cover_and_spec():
    """12 x 12 unit squares at spacing 0.7, grid step 0.05 padded by 1.0, 144 atoms."""
    rng = np.random.default_rng(144)
    offs = 0.7 * (np.arange(12) - 5.5)
    span = 0.35 * 11
    grid = Grid2D.from_bounds(-span - 1.0, span + 1.0, -span - 1.0, span + 1.0, 0.05)
    atoms = tuple(GaussianAtom(complex(*rng.normal(size=2)), *rng.uniform(-span, span, 2))
                  for _ in range(144))
    spec = spectrogram(mixture_field(GaussianMixtureSignal(atoms), grid))
    return SquareCover(tuple((float(x), float(y)) for x in offs for y in offs)), spec


def _jittered_cover_and_spec():
    """64 jittered unit squares in [-1.5, 1.5]^2, up to 9 deep, on a 0.05 grid."""
    rng = np.random.default_rng(64)
    cover = SquareCover(jittered_cover_centers(rng))
    atoms = tuple(GaussianAtom(complex(*rng.normal(size=2)), *rng.uniform(-1.5, 1.5, 2))
                  for _ in range(9))
    grid = Grid2D.from_bounds(-2.2, 2.2, -2.2, 2.2, 0.05)
    return cover, spectrogram(mixture_field(GaussianMixtureSignal(atoms), grid))


def _jittered_144_cover_and_spec():
    """144 jittered unit squares in [-3, 3]^2, on a 0.05 grid over that box, 16 atoms."""
    rng = np.random.default_rng(1440)
    cover = SquareCover(jittered_cover_centers(rng, k=12, half=2.5, jitter=0.1))
    atoms = tuple(GaussianAtom(complex(*rng.normal(size=2)), *rng.uniform(-2.5, 2.5, 2))
                  for _ in range(16))
    grid = Grid2D.from_bounds(-3.0, 3.0, -3.0, 3.0, 0.05)
    return cover, spectrogram(mixture_field(GaussianMixtureSignal(atoms), grid))


def _unit_spacing_cover_and_spec():
    """6 x 6 unit squares at spacing exactly 1.0: neighbours share only an edge
    or a corner, of zero extent, so no pair overlaps.  A 0.07 grid, 9 atoms."""
    rng = np.random.default_rng(36)
    offs = np.arange(6) - 2.5
    atoms = tuple(GaussianAtom(complex(*rng.normal(size=2)), *rng.uniform(-2.5, 2.5, 2))
                  for _ in range(9))
    grid = Grid2D.from_bounds(-3.5, 3.5, -3.5, 3.5, 0.07)
    spec = spectrogram(mixture_field(GaussianMixtureSignal(atoms), grid))
    return SquareCover(tuple((float(x), float(y)) for x in offs for y in offs)), spec


def _shuffled_lattice_cover_and_spec():
    """The 144-square lattice with its centres listed in a shuffled order, so
    that the row-major edge order differs from any order of the positions."""
    cover, spec = _lattice_cover_and_spec()
    order = np.random.default_rng(1441).permutation(len(cover))
    return SquareCover(tuple(cover.centers[k] for k in order)), spec


def _column_cover_and_spec():
    """12 unit squares with identical x bounds, 0.55 apart in y, listed
    bottom-up; a 0.05 grid and 4 atoms."""
    rng = np.random.default_rng(12)
    ys = 0.55 * (np.arange(12) - 5.5)
    atoms = tuple(GaussianAtom(complex(*rng.normal(size=2)), 0.3, y)
                  for y in rng.uniform(-3.0, 3.0, 4))
    grid = Grid2D.from_bounds(-1.0, 1.6, -4.5, 4.5, 0.05)
    spec = spectrogram(mixture_field(GaussianMixtureSignal(atoms), grid))
    return SquareCover(tuple((0.3, float(y)) for y in ys)), spec


COVERS = {"n65": _n64_cover_and_spec, "lattice-144": _lattice_cover_and_spec,
          "jittered-64": _jittered_cover_and_spec, "jittered-144": _jittered_144_cover_and_spec,
          "unit-spacing-36": _unit_spacing_cover_and_spec,
          "shuffled-lattice-144": _shuffled_lattice_cover_and_spec,
          "column-12": _column_cover_and_spec}


def _overlap_rects(cover) -> np.ndarray:
    """The (m, 4) rectangles of the overlapping pairs of the cover, row-major over i < j."""
    rects = cover.rects()
    out = []
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            a, b = rects[i], rects[j]
            inter = (max(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), min(a[3], b[3]))
            if inter[0] < inter[1] and inter[2] < inter[3]:
                out.append(inter)
    return np.array(out).reshape(-1, 4)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("name", list(COVERS))
def test_stacked_rect_norms_bit_equal_per_union(name, p):
    cover, spec = COVERS[name]()
    rects = np.concatenate([_overlap_rects(cover), np.array(cover.rects())])
    stacked = rect_union_norm(spec, rects, p)
    per_union = [region_norm(spec, [tuple(r)], p) for r in rects]
    assert stacked.shape == (len(rects),)
    assert np.array_equal(_bits(stacked), _bits(per_union))
    if name == "n65":  # the edge-on-bound square and its overlaps are in the stack
        assert rects[:, 1].max() == spec.grid.cell_bounds()[1]
    shapes = set()
    for r in rects:
        sx, sy, _ = _window(spec.grid, [r])
        shapes.add((sx.stop - sx.start, sy.stop - sy.start))
    assert len(shapes) >= (10 if name == "jittered-64" else 3)


@pytest.mark.parametrize("name", list(COVERS))
def test_build_graph_bit_equal_to_per_pair_loop(name):
    cover, spec = COVERS[name]()
    g, ref = build_graph(spec, cover), build_graph_per_pair(spec, cover)
    assert np.array_equal(_bits(g.w), _bits(ref.w))
    assert np.array_equal(g.i, ref.i) and np.array_equal(g.j, ref.j)
    assert np.array_equal(_bits(g.s), _bits(ref.s))
    assert np.array_equal(_bits(g.sigma), _bits(ref.sigma))
    assert np.count_nonzero(g.sigma) == 2 * len(g.s) == 2 * len(_overlap_rects(cover))
    if name == "unit-spacing-36":  # edge and corner contacts have zero extent
        assert len(g.s) == 0


@pytest.mark.parametrize("p", [1, 2])
def test_stacked_rect_norms_at_and_past_the_grid_edge(p):
    # region_norm's domain rule: rectangles up to the cell bound are summed, any past it raises
    gx0, gx1, gy0, gy1 = DOMAIN_GRID.cell_bounds()
    rects = np.array([(gx1 - 1.0, gx1, -0.5, 0.5),  # on the grid's right cell bound
                      (gx0, gx0 + 0.5, gy1 - 0.5, gy1),  # in the grid's top-left corner
                      (-0.3, 0.7, -0.6, 0.4)])
    past = [(1.5, 2.5, -0.5, 0.5),     # over the grid's right edge
            (-3.0, -2.5, 0.0, 1.0),    # left of the grid
            (3.0, 4.0, 3.0, 4.0)]      # past the grid's corner
    for fld in (_domain_spec(), mixture_field(ATOM, DOMAIN_GRID)):  # real and complex values
        stacked = rect_union_norm(fld, rects, p)
        assert np.array_equal(_bits(stacked), _bits([region_norm(fld, [r], p) for r in rects]))
        assert (stacked > 0).all()
        assert rect_union_norm(fld, np.empty((0, 4)), p).shape == (0,)
        for k, r in enumerate(past):
            with pytest.raises(ValueError, match=rf"^rectangle {k + 1} .* exceeds the field domain"):
                rect_union_norm(fld, np.insert(rects, k + 1, r, axis=0), p)


@pytest.mark.parametrize("name", list(COVERS) + ["grid-edge"])
def test_stacked_windows_coverage_bit_equal_per_square(name):
    # the windows and coverage retrieve_phase stacks are those of _window and
    # coverage_fractions square by square, zero-padded to the widest window
    if name == "grid-edge":
        grid = DOMAIN_GRID
        rects = np.array([(1.5, 2.5, -0.5, 0.5), (-3.0, -2.5, 0.0, 1.0), (3.0, 4.0, 3.0, 4.0),
                          (-0.3, 0.7, -0.6, 0.4), (*grid.cell_bounds()[:2], -1.0, 1.0)])
    else:
        cover, spec = COVERS[name]()
        grid, rects = spec.grid, cover.rects()
    start, size, ax, ay = _stacked_windows(grid, rects)
    cov = np.clip(ax[:, :, None] * ay[:, None, :], 0.0, 1.0)
    for k, r in enumerate(rects):
        sx, sy, sub = _window(grid, [r])
        assert (sx.start, sy.start, sx.stop - sx.start, sy.stop - sy.start) == tuple(
            np.concatenate([start[:, k], size[:, k]]).tolist())
        w, h = size[:, k]
        assert np.array_equal(_bits(cov[k, :w, :h]), _bits(coverage_fractions(sub, [r])))
        assert not cov[k, w:].any() and not cov[k, :, h:].any()


def test_stacked_rect_norms_reject_multi_rectangle_unions():
    with pytest.raises(ValueError, match="one rectangle each"):
        rect_union_norm(_domain_spec(), np.zeros((3, 2, 4)), 1)


@pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, math.inf)], ids=["nan", "inf"])
def test_non_finite_square_center_is_rejected(tmp_path, capsys, center):
    with pytest.raises(ValueError, match="finite"):
        SquareCover(((0.0, 0.0), center))
    atom = {"re": 1.0, "im": 0.0, "shift": 0.0, "modulation": 0.0}
    config = tmp_path / "certify.json"
    config.write_text(json.dumps({  # NaN and Infinity literals, which json.loads accepts
        "signal_f": {"atoms": [atom]}, "signal_g": {"atoms": [atom]},
        "grid": {"xmin": -2.0, "xmax": 2.0, "ymin": -2.0, "ymax": 2.0, "step": 0.05},
        "cover": {"centers": [[0.0, 0.0], list(center)]}}))
    assert main(["certify", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("p", [1, 2])
def test_region_norm_on_window_matches_full_grid(p):
    cover, spec = _n64_cover_and_spec()
    rects = cover.rects()
    for region in (rects, rects[:9], rects[[-1, -2]]):
        frac = coverage_fractions(spec.grid, region)
        cell = spec.grid.dx * spec.grid.dy
        if p == 1:
            full = np.sum(spec.values * frac) * cell
        else:
            full = np.sqrt(np.sum(spec.values ** 2 * frac) * cell)
        assert region_norm(spec, region, p) == pytest.approx(full, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", [1, 4, 144])
def test_mixture_field_rank_k_matches_closed_form(k):
    rng = np.random.default_rng(k)
    grid = Grid2D.from_bounds(-6.0, 6.0, -6.0, 6.0, 0.1)  # |x y| up to 36
    # the first atom lies outside the grid; the others anywhere in [-8, 8]^2
    positions = [(7.0, -6.5)] + [tuple(rng.uniform(-8.0, 8.0, 2)) for _ in range(k - 1)]
    sig = GaussianMixtureSignal(tuple(GaussianAtom(complex(*rng.normal(size=2)), x, y)
                                      for x, y in positions))
    reference = gabor_closed_form_exp(sig, *grid_mesh(grid))
    fld = mixture_field(sig, grid)
    assert np.abs(fld.values - reference).max() <= 1e-13 * np.abs(reference).max()
