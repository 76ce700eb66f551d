import math

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
    cheeger_inequality_check,
    mixture_field,
    spectrogram,
)
from gaborcert.stability_graph import (
    DegenerateVertexError,
    graph_edge_rows,
    graph_vertex_rows,
)

from oracles import arrangement_brute_force, jittered_cover_centers, random_graph, rayleigh_minimum_pgd

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
    with pytest.raises(ValueError):
        build_graph(spectrogram(fld), SquareCover(((0.0, 0.0),), side=2.0))


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
    h, witness = cheeger_constant(two_vertex_graph(w1=2.0, w2=0.5, s=0.7), "exact")
    assert h == pytest.approx(0.7 / 0.5, abs=1e-12)
    assert witness == frozenset({0})
    h, _ = cheeger_constant(WeightedGraph(np.ones(3), np.zeros((3, 3))), "exact")
    assert h == 0.0
    path = np.zeros((4, 4))
    path[0, 1] = path[1, 2] = path[2, 3] = 1.0
    gp = WeightedGraph(np.ones(4), path + path.T)
    h, witness = cheeger_constant(gp, "exact")
    assert h == pytest.approx(0.5, abs=1e-12)
    assert witness == frozenset({0, 1})


def test_cheeger_validation():
    g = two_vertex_graph()
    with pytest.raises(ValueError):
        cheeger_constant(WeightedGraph(np.ones(1), np.zeros((1, 1))), "exact")
    with pytest.raises(ValueError):
        cheeger_constant(g, "bogus")
    big = WeightedGraph(np.ones(21), np.zeros((21, 21)))
    with pytest.raises(ValueError):
        cheeger_constant(big, "exact")


def test_spectral_sweep_upper_bounds_exact():
    rng = np.random.default_rng(10)
    for _ in range(30):
        g = random_graph(rng, n_min=3, n_max=9)
        h_exact, _ = cheeger_constant(g, "exact")
        h_sweep, _ = cheeger_constant(g, "spectral_sweep")
        assert h_sweep >= h_exact - 1e-12
        lam = algebraic_connectivity(g)
        if lam > 1e-12:
            assert h_sweep <= 2.0 * math.sqrt(2.0 * g.delta0() * lam) + 1e-9


def test_cheeger_inequality_check():
    report = cheeger_inequality_check(two_vertex_graph(s=0.7))
    assert report.cheeger_method == "exact_enumeration"
    assert 2 * report.cheeger >= report.lam >= report.cheeger**2 / (2 * report.delta0) - 1e-9
    disconnected = WeightedGraph(np.ones(3), np.zeros((3, 3)))
    rep = cheeger_inequality_check(disconnected)
    assert rep.lam == pytest.approx(0.0, abs=1e-12)
    assert rep.cheeger == 0.0


def test_cheeger_inequality_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng)
        report = cheeger_inequality_check(g)
        assert report.delta0 >= 0.0


def test_scaling_edge_weights_scales_connectivity():
    rng = np.random.default_rng(12)
    g = random_graph(rng, n_min=4, n_max=6, density=1.0)
    for c in (0.5, 3.0):
        scaled = WeightedGraph(g.w, c * g.sigma)
        assert algebraic_connectivity(scaled) == pytest.approx(
            c * algebraic_connectivity(g), rel=1e-10)
        h0, _ = cheeger_constant(g, "exact")
        h1, _ = cheeger_constant(scaled, "exact")
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
    for s, cover in (
        (spec, SquareCover(((-1.5, 0.0), (1.5, 0.0)))),
        (spec_mix, SquareCover(((-1.475, 0.0), (-0.975, 0.0), (0.975, 0.0), (1.475, 0.0)))),
    ):
        cert = certificate(s, s, cover)
        assert math.isinf(cert.bound_cheeger)
        assert math.isinf(cert.bound_lambda)
        assert cert.cheeger == 0.0


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


def test_graph_export_rows():
    g = two_vertex_graph(s=0.25)
    assert graph_vertex_rows(g) == [(0, 1.0), (1, 1.0)]
    assert graph_edge_rows(g) == [(0, 1, 0.25)]


def test_weighted_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(np.array([1.0, -1.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        WeightedGraph(np.ones(2), np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph(np.ones(2), np.array([[0.0, -0.5], [-0.5, 0.0]]))
    with pytest.raises(ValueError):
        WeightedGraph(np.ones(3), np.zeros((2, 2)))
