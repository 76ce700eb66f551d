import math
import warnings

import numpy as np
import pytest

from gaborcert import (
    SPECTROGRAM,
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    SpectrogramField,
    SquareCover,
    WeightedGraph,
    algebraic_connectivity,
    build_graph,
    certificate,
    cheeger_constant,
    make_sharpness_pair,
    mixture_field,
    spectrogram,
)
from gaborcert.stability_graph import (
    DegenerateVertexError,
    _components,
    _sweep_cheeger,
)

from oracles import (
    arrangement_brute_force,
    cheeger_brute_force,
    components_bfs,
    jittered_cover_centers,
    random_block_graph,
    random_graph,
    rayleigh_minimum_pgd,
    sharpness_strip,
)

ATOM = GaussianMixtureSignal((GaussianAtom(1.0),))


def const_spectrogram(value=1.0, lo=-3.0, hi=3.0, step=0.1):
    grid = Grid2D.from_bounds(lo, hi, lo, hi, step)
    return SpectrogramField(grid, np.full((grid.nx, grid.ny), value), SPECTROGRAM)


def two_vertex_graph(w1=1.0, w2=1.0, s=0.7):
    return WeightedGraph(np.array([w1, w2]), np.array([[0.0, s], [s, 0.0]]))


def test_build_graph_disjoint_squares():
    spec = const_spectrogram()
    g = build_graph(spec, SquareCover(((-1.5, 0.0), (1.5, 0.0))))
    assert np.all(g.sigma == 0.0)
    assert g.w == pytest.approx([1.0, 1.0], abs=1e-10)


def test_build_graph_rejects_duplicates():
    with pytest.raises(ValueError):
        SquareCover(((0.0, 0.0), (0.0, 0.0)))


def test_build_graph_half_overlap():
    spec = const_spectrogram()
    g = build_graph(spec, SquareCover(((0.0, 0.0), (0.5, 0.0))))
    assert g.w == pytest.approx([1.0, 1.0], abs=1e-10)
    # intersection is a 0.5 x 1 rectangle of a unit spectrogram: mass 1/2
    assert g.sigma[0, 1] == pytest.approx(0.25, abs=1e-10)


def test_build_graph_degenerate_vertex():
    grid = Grid2D.from_bounds(-3, 3, -3, 3, 0.1)
    vals = np.zeros((grid.nx, grid.ny))
    vals[grid.nx // 2, grid.ny // 2] = 1.0
    spec = SpectrogramField(grid, vals, SPECTROGRAM)
    with pytest.raises(DegenerateVertexError) as err:
        build_graph(spec, SquareCover(((0.0, 0.0), (2.0, 2.0))))
    assert err.value.indices == [1]


def test_build_graph_requires_spectrogram_and_unit_side():
    fld = mixture_field(ATOM, Grid2D.from_bounds(-2, 2, -2, 2, 0.1))
    with pytest.raises(ValueError):
        build_graph(fld, SquareCover(((0.0, 0.0),)))
    with pytest.raises(TypeError):  # covers are unit squares by construction
        SquareCover(((0.0, 0.0),), side=2.0)


def test_algebraic_connectivity_examples():
    assert algebraic_connectivity(two_vertex_graph(s=0.7)) == pytest.approx(1.4, abs=1e-12)
    disconnected = WeightedGraph(np.ones(3), np.zeros((3, 3)))
    assert algebraic_connectivity(disconnected) == pytest.approx(0.0, abs=1e-12)
    k3 = WeightedGraph(np.ones(3), np.ones((3, 3)) - np.eye(3))
    assert algebraic_connectivity(k3) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        algebraic_connectivity(WeightedGraph(np.ones(1), np.zeros((1, 1))))


def test_algebraic_connectivity_vs_rayleigh_descent():
    rng = np.random.default_rng(9)
    for i in range(8):
        g = random_graph(rng, n_min=3, n_max=7, density=1.0)
        lam = algebraic_connectivity(g)
        lam_pgd = rayleigh_minimum_pgd(g, seed=i)
        assert lam == pytest.approx(lam_pgd, rel=1e-6, abs=1e-8)


def test_cheeger_examples():
    h = cheeger_constant(two_vertex_graph(w1=2.0, w2=0.5, s=0.7))
    assert h == pytest.approx(0.7 / 0.5, abs=1e-12)
    h = cheeger_constant(WeightedGraph(np.ones(3), np.zeros((3, 3))))
    assert h == 0.0
    path = np.zeros((4, 4))
    path[0, 1] = path[1, 2] = path[2, 3] = 1.0
    gp = WeightedGraph(np.ones(4), path + path.T)
    h = cheeger_constant(gp)
    assert h == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("a", [4.0, 4.5])
def test_cheeger_on_weakly_connected_strip(a):
    """The complement mass is summed, so h stays positive at the floating-point floor.

    Found as total - w(S), the far side's mass of this strip rounds to zero
    or below: h was -3.6e-18 at a = 4, and a = 4.5 divided by zero.
    """
    cover, grid = sharpness_strip(a)
    g = build_graph(spectrogram(mixture_field(make_sharpness_pair(a)[0], grid)), cover)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        h = cheeger_constant(g)
        h_sweep = _sweep_cheeger(g)
    assert h > 0
    assert h == cheeger_brute_force(g)
    assert math.isfinite(h_sweep) and h_sweep >= h


_UNRESOLVED_LAMBDA = pytest.mark.xfail(
    strict=True, reason="ROADMAP table C: eigvalsh resolves lambda only to about eps absolute; "
                        "the upper side fails at a = 3, 3.5, 4 and lambda is 0 at a = 4.5, 6")


@pytest.mark.parametrize("a", [2.0, 2.5, *(pytest.param(a, marks=_UNRESOLVED_LAMBDA)
                                           for a in (3.0, 3.5, 4.0, 4.5, 6.0))])
def test_cheeger_inequality_on_sharpness_strip(a):
    """h^2 / (2 delta0) <= lambda <= 2 h on the strip, up to 1e-12 relative above."""
    cover, grid = sharpness_strip(a)
    g = build_graph(spectrogram(mixture_field(make_sharpness_pair(a)[0], grid)), cover)
    lam, h = algebraic_connectivity(g), cheeger_constant(g)
    assert h * h / (2.0 * g.delta0()) <= lam <= 2.0 * h * (1.0 + 1e-12), (lam, h)


def test_cheeger_validation():
    with pytest.raises(ValueError):
        cheeger_constant(WeightedGraph(np.ones(1), np.zeros((1, 1))))
    # above 20 vertices the cuts are no longer enumerated: h is the sweep's bound
    big = random_graph(np.random.default_rng(21), n_min=21, n_max=21)
    assert cheeger_constant(big) == _sweep_cheeger(big)


def test_spectral_sweep_upper_bounds_exact():
    rng = np.random.default_rng(10)
    for _ in range(30):
        g = random_graph(rng, n_min=3, n_max=9)
        h_exact = cheeger_constant(g)
        h_sweep = _sweep_cheeger(g)
        assert h_sweep >= h_exact - 1e-12
        lam = algebraic_connectivity(g)
        if lam > 1e-12:
            assert h_sweep <= 2.0 * math.sqrt(2.0 * g.delta0() * lam) + 1e-9


def assert_cheeger_inequality(g):
    """lambda, h and delta0 of g, after asserting 2h >= lambda >= h^2 / (2 delta0).

    h is found by exact enumeration, and both sides hold to 1e-9 max(lambda, h, 1).
    """
    lam = algebraic_connectivity(g)
    h = cheeger_constant(g)
    d0 = g.delta0()
    slack = 1e-9 * max(lam, h, 1.0)
    assert 2.0 * h >= lam - slack, (h, lam)
    lower = 0.0 if d0 == 0.0 else h * h / (2.0 * d0)
    assert lam >= lower - slack, (lam, lower)
    return lam, h, d0


def test_cheeger_inequality_check():
    lam, h, d0 = assert_cheeger_inequality(two_vertex_graph(s=0.7))
    assert 2 * h >= lam >= h**2 / (2 * d0) - 1e-9
    lam, h, _ = assert_cheeger_inequality(WeightedGraph(np.ones(3), np.zeros((3, 3))))
    assert lam == pytest.approx(0.0, abs=1e-12)
    assert h == 0.0


def test_cheeger_inequality_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(20):
        _, _, d0 = assert_cheeger_inequality(random_graph(rng))
        assert d0 >= 0.0


def test_scaling_edge_weights_scales_connectivity():
    rng = np.random.default_rng(12)
    g = random_graph(rng, n_min=4, n_max=6, density=1.0)
    for c in (0.5, 3.0):
        scaled = WeightedGraph(g.w, c * g.sigma)
        assert algebraic_connectivity(scaled) == pytest.approx(
            c * algebraic_connectivity(g), rel=1e-10)
        h0 = cheeger_constant(g)
        h1 = cheeger_constant(scaled)
        assert h1 == pytest.approx(c * h0, rel=1e-12)


def test_laplacian_psd_and_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_graph(rng)
        assert np.abs(g.sigma - g.sigma.T).max() == 0.0
        eigvals = np.linalg.eigvalsh(g.laplacian())
        assert eigvals.min() >= -1e-10


def test_certificate_single_square_base_case():
    spec_f = spectrogram(mixture_field(ATOM, Grid2D.from_bounds(-3, 3, -3, 3, 0.05)))
    cert = certificate(spec_f, spec_f, SquareCover(((0.0, 0.0),)))
    assert cert.base_case
    assert cert.nu == 1
    w0 = math.sqrt(cert.M) ** -1  # M = w0^{-2} for one square
    assert cert.bound_cheeger == pytest.approx(math.sqrt(cert.K / w0), rel=1e-12)
    assert cert.bound_lambda == cert.bound_cheeger


def test_certificate_disconnected_is_infinite():
    spec = const_spectrogram()
    # two components whose lambda is a rounding residue rather than exactly 0
    mix = GaussianMixtureSignal((GaussianAtom(1.0, -1.0, 0.0), GaussianAtom(0.8, 1.0, 0.3)))
    spec_mix = spectrogram(mixture_field(mix, Grid2D.from_bounds(-3, 3, -3, 3, 0.1)))
    for s, cover, connected in (
        (spec, SquareCover(((-1.5, 0.0), (1.5, 0.0))), False),
        (spec_mix, SquareCover(((-1.475, 0.0), (-0.975, 0.0), (0.975, 0.0), (1.475, 0.0))), False),
        # lambda here is a positive residue: only the connectivity test makes it infinite
        (spec_mix, SquareCover(((-1.875, 0.0), (-1.475, 0.0), (1.475, 0.0), (1.875, 0.0))), False),
        (spec, SquareCover(((1.2, 0.0), (-1.2, 0.0), (-0.4, 0.0), (0.4, 0.0))), True),
    ):
        cert = certificate(s, s, cover)
        assert math.isinf(cert.bound_cheeger) is not connected
        assert math.isinf(cert.bound_lambda) is not connected
        assert (cert.cheeger > 0.0) if connected else (cert.cheeger == 0.0)


def test_certificate_three_by_three_consistency():
    grid = Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, 0.05)
    spec = spectrogram(mixture_field(ATOM, grid))
    cover = SquareCover(tuple((0.5 * i, 0.5 * j) for i in (-1, 0, 1) for j in (-1, 0, 1)))
    cert = certificate(spec, spec, cover)
    g = build_graph(spec, cover)
    assert cert.M == pytest.approx(float(np.sum(g.w ** -2.0)), rel=1e-9)
    assert cert.nu == 9
    assert cert.L == 4.0  # 2x2 squares meet where neighbors overlap
    assert cert.vol_omega == pytest.approx(2.0 * 2.0, abs=1e-12)
    assert math.isfinite(cert.bound_cheeger)
    assert math.isfinite(cert.bound_lambda)
    # same convention for both bounds: cheeger form dominates when
    # lambda >= h^2 / (2 delta0), which exact enumeration guarantees
    assert cert.bound_cheeger >= cert.bound_lambda - 1e-12


def test_certificate_dense_cover_geometry_matches_brute_force():
    cover = SquareCover(jittered_cover_centers(np.random.default_rng(64)))
    spec = const_spectrogram(lo=-2.5, hi=2.5)
    cert = certificate(spec, spec, cover)
    mult, area = arrangement_brute_force(cover.rects())
    assert cert.nu == 64
    assert cert.L == mult
    assert cert.vol_omega == pytest.approx(area, rel=1e-12)
    assert cert.M == float(np.sum(cert.graph.w ** -2.0))


def test_components_match_breadth_first_search():
    rng = np.random.default_rng(10)
    for trial in range(200):
        n, ei, ej = random_block_graph(rng, trial)
        expected = components_bfs(n, ei.tolist(), ej.tolist())
        assert _components(n, ei, ej) == expected
        # neither the edge order nor the orientation of an edge matters
        order = rng.permutation(len(ei))
        assert _components(n, ej[order], ei[order]) == expected


def test_weighted_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(np.array([1.0, -1.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        WeightedGraph(np.ones(2), np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph(np.ones(2), np.array([[0.0, -0.5], [-0.5, 0.0]]))
    # asymmetry is measured against the largest edge weight, at any scale
    with pytest.raises(ValueError):
        WeightedGraph(np.ones(2), np.array([[0.0, 1e-20], [2e-20, 0.0]]))
    g = WeightedGraph(np.ones(2), np.array([[0.0, 1e-20], [1e-20 * (1 + 1e-15), 0.0]]))
    assert g.sigma[0, 1] == g.sigma[1, 0]
    with pytest.raises(ValueError):
        WeightedGraph(np.ones(3), np.zeros((2, 2)))
