import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborcert import (
    GABOR,
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    SpectrogramField,
    delta_r,
    distance_from_delta,
    jet_from_mixture,
    local_phase_from_modulus,
    mixture_field,
    region_norm,
    spectrogram,
    tensor_weights,
)
from gaborcert.tensor_phase import (
    SingularCenterError,
    _fd_weights,
    disk_norm_from_jet,
    jet_from_field,
    jet_from_taylor,
)

from oracles import (
    disk_quadrature,
    fock_derivatives,
    fock_sup_norm,
    fock_value,
    fornberg_weights,
    random_mixture,
    scaled_mixture,
    smoothness_growth_constant,
    square_rect,
    tau_grid_min_distance,
)


def test_tensor_weights_values():
    w = tensor_weights(1.0, 2).omega
    assert w[0] == pytest.approx(math.pi, abs=1e-15)
    assert w[1] == pytest.approx(math.pi / 2, abs=1e-15)
    # omega_0(r) is the disk area: check r=2 against a polar quadrature
    pts, wts = disk_quadrature(2.0)
    assert tensor_weights(2.0, 0).omega[0] == pytest.approx(float(np.sum(wts)), rel=1e-10)
    with pytest.raises(ValueError):
        tensor_weights(-1.0, 3)
    with pytest.raises(ValueError):
        tensor_weights(0.0, 3)


@settings(max_examples=40, deadline=None)
@given(r=st.floats(min_value=0.1, max_value=2.0), k=st.integers(min_value=0, max_value=30))
def test_tensor_weights_recurrence_matches_formula(r, k):
    w = tensor_weights(r, k).omega
    direct = math.pi * r ** (2 * k + 2) / (math.factorial(k) * math.factorial(k + 1))
    assert w[k] == pytest.approx(direct, rel=1e-12)


def test_jet_constant_and_monomial():
    jet = jet_from_taylor([2.0 - 1.0j], 4)
    assert jet.derivs[0, 0] == pytest.approx(5.0)
    assert np.abs(jet.derivs).sum() == pytest.approx(5.0)
    jet = jet_from_taylor([0.0, 1.0], 4)
    assert jet.derivs[1, 1] == pytest.approx(1.0)
    assert np.abs(jet.derivs).sum() == pytest.approx(1.0)


def test_jet_hermitian_for_mixtures():
    rng = np.random.default_rng(4)
    for _ in range(5):
        jet = jet_from_mixture(random_mixture(rng), complex(0.1, -0.2), 10)
        assert np.abs(jet.derivs - jet.derivs.conj().T).max() < 1e-10 * np.abs(jet.derivs).max()
        assert jet.derivs[0, 0].real >= 0.0


def test_jet_matches_exponential_sum_oracle():
    # F_c^(k)(0) = e^(-pi |c|^2 / 2) sum_j C(k, j) F^(j)(c) (-pi conj(c))^(k - j), with
    # F^(j) from the oracle's c_j e^(beta_j w) form, which is exact near the origin
    rng = np.random.default_rng(11)
    for center in (0.0, 0.4 - 0.3j, -0.6 + 0.2j):
        sig = random_mixture(rng, max_atoms=4)
        d = fock_derivatives(sig, center, 10)
        shift = -math.pi * np.conj(center)
        frame = np.array([sum(math.comb(k, j) * d[j] * shift ** (k - j) for j in range(k + 1))
                          for k in range(11)]) * math.exp(-0.5 * math.pi * abs(center) ** 2)
        expect = np.outer(frame, np.conj(frame))
        got = jet_from_mixture(sig, center, 10).derivs
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("x0, y0", [(30, 0), (0, 30), (30, 60), (-45, 20)])
def test_jet_is_shift_covariant(x0, y0):
    # moving every atom by (x0, y0) in the time-frequency plane moves the jets with
    # it: F_c changes by a unimodular constant, which the outer product cancels
    rng = np.random.default_rng(12)
    for center in (0.0, 0.4 - 0.3j, -0.6 + 0.2j):
        sig = random_mixture(rng, max_atoms=4)
        moved = GaussianMixtureSignal(tuple(
            GaussianAtom(a.amplitude * np.exp(-2j * math.pi * a.modulation * x0),
                         a.shift + x0, a.modulation + y0) for a in sig.atoms))
        expect = jet_from_mixture(sig, center, 14).derivs
        got = jet_from_mixture(moved, center + x0 - 1j * y0, 14).derivs
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_jet_matches_finite_difference_oracle():
    # analytic jet vs high-order central differences of |F_c|^2, k, l <= 3, where
    # |F_c(u)|^2 = |F(c + u)|^2 exp(-2 pi Re(conj(c) u) - pi |c|^2)
    sig = GaussianMixtureSignal((GaussianAtom(1.0, 0.3, -0.2), GaussianAtom(0.6 - 0.2j, -0.4, 0.5)))
    w0 = 0.1 - 0.05j
    jet = jet_from_mixture(sig, w0, 3)
    h, rad = 0.1, 7
    offsets = np.arange(-rad, rad + 1, dtype=float)
    wts = [fornberg_weights(m, offsets) / h**m for m in range(7)]
    du = h * offsets[:, None] + 1j * h * offsets[None, :]
    u = (np.abs(fock_value(sig, w0 + du)) ** 2
         * np.exp(-2 * np.pi * (np.conj(w0) * du).real - np.pi * abs(w0) ** 2))
    mixed = np.zeros((7, 7))
    for p in range(7):
        for q in range(7):
            if p + q <= 6:
                mixed[p, q] = wts[p] @ u @ wts[q]
    fd = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        for l in range(4):
            acc = 0.0j
            for i in range(k + 1):
                for j in range(l + 1):
                    acc += (math.comb(k, i) * math.comb(l, j) * (-1j) ** i * 1j ** j
                            * mixed[k + l - i - j, i + j])
            fd[k, l] = acc * 0.5 ** (k + l)
    scale = np.abs(jet.derivs).max()
    assert np.abs(fd - jet.derivs).max() / scale < 1e-5


def test_jet_from_field_matches_analytic():
    grid = Grid2D.from_bounds(-1.2, 1.2, -1.2, 1.2, 0.05)
    for atom in ((0.2, -0.1), (-0.3, 0.2)):  # at the jet center, and off it
        sig = GaussianMixtureSignal((GaussianAtom(1.0, *atom),))
        spec = spectrogram(mixture_field(sig, grid))
        fd_jet = jet_from_field(spec, (0.2, -0.1), 4)
        an_jet = jet_from_mixture(sig, complex(0.2, 0.1), 4)
        scale = np.abs(an_jet.derivs).max()
        assert np.abs(fd_jet.derivs - an_jet.derivs).max() / scale < 5e-3
    with pytest.raises(ValueError):
        jet_from_field(spec, (0.2, -0.1), 5)
    with pytest.raises(ValueError):
        jet_from_field(spec, (0.213, -0.1), 4)  # off-grid center


def test_fd_weights_solved_once_per_derivative_and_radius(monkeypatch):
    # weights are cached unscaled, so each equals a fresh solve on the offsets bit for bit
    for rad in range(1, 6):
        offsets = np.arange(-rad, rad + 1, dtype=float)
        v = np.vander(offsets, len(offsets), increasing=True).T
        for m in range(2 * rad + 1):
            rhs = np.zeros(len(offsets))
            rhs[m] = math.factorial(m)
            assert np.array_equal(_fd_weights(m, rad).view(np.uint64),
                                  np.linalg.solve(v, rhs).view(np.uint64))
    spec = spectrogram(mixture_field(GaussianMixtureSignal((GaussianAtom(1.0, 0.2),)),
                                     Grid2D.from_bounds(-1, 1, -1, 1, 0.05)))
    first = jet_from_field(spec, (0.2, -0.1), 4)
    solves = []
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a))
    again = jet_from_field(spec, (-0.3, 0.25), 4)
    assert solves == [] and again.order == first.order == 4


def test_delta_exact_values():
    jet_one = jet_from_taylor([1.0], 8)
    jet_z = jet_from_taylor([0.0, 1.0], 8)
    jet_zero = jet_from_taylor([0.0], 8)
    assert delta_r(jet_one, jet_one, 1.0).delta == 0.0
    assert delta_r(jet_one, jet_zero, 1.0).delta_sq == pytest.approx(math.pi**2, abs=1e-10)
    assert delta_r(jet_z, jet_zero, 1.0).delta_sq == pytest.approx(math.pi**2 / 4, abs=1e-10)


def test_delta_requires_matching_jets():
    with pytest.raises(ValueError):
        delta_r(jet_from_taylor([1.0], 4), jet_from_taylor([1.0], 5), 1.0)
    with pytest.raises(ValueError):
        delta_r(jet_from_taylor([1.0], 4), jet_from_taylor([1.0], 4, center=1.0), 1.0)


def test_delta_monotone_in_order_and_tail_decay():
    f = GaussianMixtureSignal((GaussianAtom(1.0, 0.5, 0.5),))
    g = GaussianMixtureSignal((GaussianAtom(0.7, -0.3, 0.2),))
    prev = -1.0
    tails = []
    for order in range(1, 25):
        res = delta_r(jet_from_mixture(f, 0.0, order), jet_from_mixture(g, 0.0, order), 1.0)
        assert res.delta_sq >= prev - 1e-15
        prev = res.delta_sq
        tails.append(res.last_shell)
    start = int(2 * math.pi * 1.0**2 + 5)  # shells decay beyond 2 pi r^2 + 5
    assert all(tails[k] <= tails[k - 1] for k in range(start, len(tails)))


def test_distance_from_delta_basics():
    assert distance_from_delta(1.0, 0.0) == 0.0
    jet = jet_from_mixture(GaussianMixtureSignal((GaussianAtom(1.0),)), 0.0, 8)
    res = delta_r(jet, jet, 1.0)
    assert distance_from_delta(disk_norm_from_jet(jet, 1.0), res.delta) == 0.0
    with pytest.raises(ValueError):
        distance_from_delta(0.0, 1.0)


def test_distance_bound_beats_grid_oracle():
    # quick version of the alignment-distance bound; r = 1, 10 random pairs
    rng = np.random.default_rng(6)
    pts, wts = disk_quadrature(1.0)
    for _ in range(10):
        f, g = random_mixture(rng), random_mixture(rng)
        fv, gv = fock_value(f, pts), fock_value(g, pts)
        nf = math.sqrt(float(np.sum(np.abs(fv) ** 2 * wts)))
        ng = math.sqrt(float(np.sum(np.abs(gv) ** 2 * wts)))
        oracle = tau_grid_min_distance(complex(np.sum(gv * np.conj(fv) * wts)), nf, ng)
        jf = jet_from_mixture(f, 0.0, 24)
        jg = jet_from_mixture(g, 0.0, 24)
        bound = distance_from_delta(disk_norm_from_jet(jf, 1.0), delta_r(jf, jg, 1.0).delta)
        assert bound >= oracle - 1e-9


def test_structural_bound_scaling_family():
    # delta^2 and (F_inf^2 + G_inf^2) ||.|| both scale as c^4: ratio constant
    f = GaussianMixtureSignal((GaussianAtom(0.8, 0.3, 0.1),))
    g = GaussianMixtureSignal((GaussianAtom(1.1, -0.2, -0.3),))
    grid = Grid2D.from_bounds(-0.5, 0.5, -0.5, 0.5, 0.02)
    square = square_rect(0.0, 0.0, 1.0)
    ratios = []
    for c in (0.5, 1.0, 2.0, 4.0):
        fc, gc = scaled_mixture(f, c), scaled_mixture(g, c)
        d2 = delta_r(jet_from_mixture(fc, 0.0, 20), jet_from_mixture(gc, 0.0, 20), 1.0).delta_sq
        sup_sq = fock_sup_norm(fc) ** 2 + fock_sup_norm(gc) ** 2
        diff = SpectrogramField(
            grid,
            np.abs(mixture_field(fc, grid).values) ** 2
            - np.abs(mixture_field(gc, grid).values) ** 2 + 0j,
            GABOR,
        )
        ratios.append(d2 / (sup_sq * region_norm(diff, square, 2)))
    ratios = np.asarray(ratios)
    assert np.abs(ratios / ratios[0] - 1.0).max() < 1e-8


def _dominant_phase(sig, center, order):
    """exp(-i arg F^(m)(center)) for the largest |F^(m)(center)|, m <= order."""
    d = fock_derivatives(sig, center, order)
    return np.exp(-1j * np.angle(d[int(np.argmax(np.abs(d)))]))


def test_local_phase_recovery():
    jet = jet_from_taylor([2.0j], 4)  # constant c = 2i: phase removed
    out = local_phase_from_modulus(jet, [0.0, 0.5, -0.3j])
    assert np.abs(out - 2.0).max() < 1e-12

    jet = jet_from_taylor([2.0, 1.0j], 1)  # F(z) = 2 + i z: column 0 dominates
    out = local_phase_from_modulus(jet, [0.3])
    assert out[0] == pytest.approx(2.0 + 0.3j, abs=1e-12)

    jet = jet_from_taylor([0.5, 1.0j], 1)  # F(z) = 0.5 + i z: column 1 dominates
    out = local_phase_from_modulus(jet, [0.3])
    assert out[0] == pytest.approx((0.5 + 0.3j) * -1j, abs=1e-12)

    # |beta| = pi |0.3 - 0.2i| > 1, so the top derivative is the dominant column
    atom = GaussianMixtureSignal((GaussianAtom(1.0, 0.3, -0.2),))
    jet = jet_from_mixture(atom, 0.0, 12)
    pts = np.array([0.0, 0.2, -0.3, 0.1 + 0.2j, -0.2 - 0.3j, 0.4, 0.35j, -0.45j, 0.3 + 0.3j])
    rec = local_phase_from_modulus(jet, pts)
    expect = fock_value(atom, pts) * _dominant_phase(atom, 0.0, 12)
    assert np.abs(rec - expect).max() / np.abs(expect).max() < 1e-6


def test_local_phase_singular_center():
    with pytest.raises(SingularCenterError):
        local_phase_from_modulus(jet_from_taylor([0.0], 4), [0.1])  # the zero jet
    jet = jet_from_taylor([0.0, 1.0], 4)  # F(z) = z: F(0) = 0 but F'(0) = 1
    pts = np.array([0.0, 0.1, -0.2 + 0.3j])
    assert np.abs(local_phase_from_modulus(jet, pts) - pts).max() < 1e-15


def test_roundtrip_through_modulus_property():
    # recovery composed with modulus is the identity up to a global phase
    rng = np.random.default_rng(8)
    pts = (rng.uniform(-0.5, 0.5, 12) + 1j * rng.uniform(-0.5, 0.5, 12)) * 0.5
    for _ in range(20):  # F(0) near 0 included: the dominant column carries the phase
        sig = random_mixture(rng, spread=0.5)
        jet = jet_from_mixture(sig, 0.0, 14)
        rec = local_phase_from_modulus(jet, pts)
        expect = fock_value(sig, pts) * _dominant_phase(sig, 0.0, 14)
        assert np.abs(rec - expect).max() / max(np.abs(expect).max(), 1e-9) < 1e-5


def test_smoothness_growth_bound_on_mixtures():
    # sup over the centered unit square of |F^(p)| is controlled by the
    # growth constant times the Gaussian-weighted sup norm of F
    rng = np.random.default_rng(14)
    xs = np.linspace(-0.5, 0.5, 11)
    square_pts = [complex(x, y) for x in xs for y in xs]
    for _ in range(5):
        sig = random_mixture(rng)
        sup_norm = fock_sup_norm(sig)
        derivs_at = np.array([fock_derivatives(sig, z, 6) for z in square_pts])
        for p in range(7):
            sup_deriv = float(np.abs(derivs_at[:, p]).max())
            assert sup_deriv <= smoothness_growth_constant(p) * sup_norm * (1 + 1e-9)
