import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborcert import (
    GaussianAtom,
    GaussianMixtureSignal,
    cubature,
    gabor_closed_form,
    gauss_rule,
    l2_norm,
    make_sharpness_pair,
    plan_sampling,
    product_rule,
    spectro_error_bound,
)
from gaborcert.cubature import apply_rule, tensor_product_integral

from oracles import (
    gabor_closed_form_exp,
    legendre_eval,
    legendre_lower_bound_check,
    product_rule_points,
    tensor_product_integral_points,
)

F1, G1 = make_sharpness_pair(1.0)
KAPPA1 = l2_norm(F1) ** 2 + l2_norm(G1) ** 2


def spec_diff(x, y):
    """|G F1|^2 - |G G1|^2 from the reference closed form, at scattered points or on a mesh."""
    return (np.abs(gabor_closed_form_exp(F1, x, y)) ** 2
            - np.abs(gabor_closed_form_exp(G1, x, y)) ** 2)


def _data_path_pair():
    """Four atoms, one in the middle half of each quadrant of [-1, 1]^2, and a nearby mixture
    with amplitudes scaled by ~5 % and positions moved by ~0.02."""
    rng = np.random.default_rng(902)
    f, g = [], []
    for cx, cy in ((-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)):
        amp = rng.uniform(0.5, 1.5) * np.exp(2j * math.pi * rng.uniform())
        shift, mod = cx + rng.uniform(-0.25, 0.25), cy + rng.uniform(-0.25, 0.25)
        f.append(GaussianAtom(amp, shift, mod))
        g.append(GaussianAtom(amp * (1.0 + 0.05 * rng.normal()), shift + 0.02 * rng.normal(),
                              mod + 0.02 * rng.normal()))
    return GaussianMixtureSignal(tuple(f)), GaussianMixtureSignal(tuple(g))


F4, G4 = _data_path_pair()


def test_gauss_rule_small_cases():
    r1 = gauss_rule(1, 2.0)
    assert r1.nodes == pytest.approx([0.0])
    assert r1.weights == pytest.approx([2.0])
    r2 = gauss_rule(2, 2.0)
    assert np.sort(r2.nodes) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-14)
    assert r2.weights == pytest.approx([1.0, 1.0], abs=1e-14)
    r3 = gauss_rule(3, 2.0)
    assert np.sort(r3.nodes) == pytest.approx([-math.sqrt(0.6), 0.0, math.sqrt(0.6)], abs=1e-14)
    assert r3.weights == pytest.approx([5 / 9, 8 / 9, 5 / 9], abs=1e-14)
    with pytest.raises(ValueError):
        gauss_rule(0, 2.0)
    with pytest.raises(ValueError):
        gauss_rule(3, -2.0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=20), s=st.floats(min_value=0.1, max_value=3.0))
def test_gauss_rule_weight_sum_and_symmetry(n, s):
    rule = gauss_rule(n, 2 * s)
    assert float(rule.weights.sum()) == pytest.approx(2.0 * s, rel=1e-13)
    assert np.abs(rule.nodes + rule.nodes[::-1]).max() < 1e-15 * max(s, 1.0)
    assert rule.weights.min() > 0.0
    assert np.abs(rule.nodes).max() < s


def test_gauss_rule_monomial_exactness():
    for n in (4, 9, 17):
        rule = gauss_rule(n, 2.6)
        for p in range(2 * n):
            val = float(np.dot(rule.nodes**p, rule.weights))
            exact = 0.0 if p % 2 else 2.0 * 1.3 ** (p + 1) / (p + 1)
            assert val == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_product_rule_structure():
    rule = product_rule(4, 1.0, center=(1.0, -2.0))
    points = product_rule_points(rule)
    assert points.shape == rule.weights.shape + (2,) == (16, 2)
    assert float(rule.weights.sum()) == pytest.approx(1.0, rel=1e-13)  # side^2
    assert np.all(np.abs(points[:, 0] - 1.0) < 0.5)
    assert np.all(np.abs(points[:, 1] + 2.0) < 0.5)


def test_cubature_error_examples():
    rule = product_rule(5, 1.4)
    assert abs((2 * 0.7) ** 2 - apply_rule(lambda x, y: np.ones_like(x), rule)) < 1e-12
    odd = lambda x, y: x ** (2 * 5 - 1)
    assert abs(0.0 - apply_rule(odd, rule)) < 1e-12
    rule6 = product_rule(6, 2.0)
    exact = (math.e - 1.0 / math.e) ** 2
    assert abs(exact - apply_rule(lambda x, y: np.exp(x + y), rule6)) < 1e-10


@pytest.mark.parametrize("f, g, side, center", [
    (F1, G1, 1.0, (0.0, 0.0)),
    (F4, G4, 1.0, (0.0, 0.0)),
    (F4, G4, 2.0, (0.7, -1.3)),
], ids=["sharpness-pair", "data-path-pair", "off-centre"])
def test_mesh_integral_matches_the_per_point_integral(f, g, side, center):
    # the package's closed form on the rule's open mesh against the reference's atom sum
    # at the rule's flattened points
    def phi(closed_form):
        return lambda x, y: (np.abs(closed_form(f, x, y)) ** 2
                             - np.abs(closed_form(g, x, y)) ** 2) ** 2

    mesh = tensor_product_integral(phi(gabor_closed_form), 400, side, center)
    points = tensor_product_integral_points(phi(gabor_closed_form_exp), 400, side, center)
    assert mesh > 0
    assert abs(mesh - points) <= 1e-13 * points


def _spectrogram_mp(sig, x: float, y: float) -> float:
    """|G f(x, y)|^2 from the atom formula summed in 40-digit arithmetic."""
    with mpmath.workdps(40):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        total = mpmath.mpc(0)
        for a in sig.atoms:
            s, m = mpmath.mpf(a.shift), mpmath.mpf(a.modulation)
            total += (mpmath.mpc(a.amplitude.real, a.amplitude.imag) / mpmath.sqrt(2)
                      * mpmath.exp(-mpmath.pi / 2 * ((x - s) ** 2 + (y - m) ** 2))
                      * mpmath.expj(-mpmath.pi * (x + s) * (y - m)))
        return float(abs(total) ** 2)


@pytest.mark.parametrize("sig", [F4, G4, F1], ids=["data-path-f", "data-path-g", "sharpness-f"])
def test_mesh_and_per_point_spectrograms_match_a_40_digit_sum(sig):
    nodes = gauss_rule(400, 1.0).nodes
    x, y = nodes[:, None], nodes[None, :]
    mesh = np.abs(gabor_closed_form(sig, x, y)) ** 2
    rng = np.random.default_rng(0)
    i, j = rng.integers(0, 400, 50), rng.integers(0, 400, 50)
    # the 50 scattered nodes are the diagonal of the open mesh of their coordinates
    per_point = np.abs(gabor_closed_form(sig, x[i], y[:, j])).diagonal() ** 2
    ref = np.array([_spectrogram_mp(sig, x[a, 0], y[0, b]) for a, b in zip(i, j)])
    assert np.all(np.abs(mesh[i, j] - ref) <= 5e-14 * ref)
    assert np.all(np.abs(per_point - ref) <= 5e-14 * ref)


def test_spectro_error_bound_basics():
    assert spectro_error_bound(10, 1.0, 0.0) == 0.0
    assert spectro_error_bound(60, 1.0, 1.0) < spectro_error_bound(20, 1.0, 1.0)
    # monotone decrease on the far branch
    vals = [spectro_error_bound(n, 1.0, 1.0) for n in range(40, 200, 10)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        spectro_error_bound(0, 2.0, 1.0)


def test_spectro_error_bound_dominates_measured():
    ref = tensor_product_integral(lambda x, y: spec_diff(x, y) ** 2, 200, 1.0)
    for n in (8, 12, 16):
        measured = abs(ref - apply_rule(lambda x, y: spec_diff(x, y) ** 2, product_rule(n, 1.0)))
        assert measured <= spectro_error_bound(n, 1.0, KAPPA1)


def test_plan_sampling_minimality_and_growth():
    plan = plan_sampling(0.25, 2.0, 1.0)
    assert spectro_error_bound(plan.n, 2.0, 1.0) <= 0.25**4
    assert spectro_error_bound(plan.n - 1, 2.0, 1.0) > 0.25**4
    assert plan.predicted_error <= plan.epsilon**4
    assert len(plan.rule.weights) == plan.n**2
    # epsilon halving moves N by a few units only
    n_prev = None
    for eps in (0.25, 0.125, 0.0625, 0.03125):
        n = plan_sampling(eps, 2.0, 1.0).n
        if n_prev is not None:
            assert 0 <= n - n_prev <= 6
        n_prev = n
    # kappa scaled by e^2 shifts N consistently with the log term
    base = plan_sampling(0.25, 1.0, KAPPA1).n
    shifted = plan_sampling(0.25, 1.0, KAPPA1 * math.e**2).n
    assert 0 <= shifted - base <= 3
    with pytest.raises(ValueError):
        plan_sampling(0.7, 2.0, 1.0)
    with pytest.raises(ValueError):
        plan_sampling(0.25, 2.0, 0.0)
    # rules over 10**7 nodes are refused before they are built: side 1e6, side 20
    # (N = 7443) and side 13 (N = 3303, just past the cap's 3162)
    for side in (1e6, 20.0, 13.0):
        with pytest.raises(ValueError, match="10\\*\\*7 nodes"):
            plan_sampling(0.1, side, 2.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 0.49), st.floats(0.01, 30.0), st.floats(-30.0, 30.0))
def test_plan_sampling_n_is_the_first_to_meet_the_target(eps, s, log_kappa):
    # bound(N) <= eps^4 < bound(N - 1), or no N up to the cap's 3162 meets eps^4 and the
    # plan raises; the rules themselves are not built
    kappa, target, side = 10.0 ** log_kappa, eps ** 4, 2 * s
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubature, "product_rule", lambda n, side, center: None)
        try:
            n = plan_sampling(eps, side, kappa).n
        except ValueError as exc:
            assert "10**7 nodes" in str(exc)
            assert all(spectro_error_bound(m, side, kappa) > target for m in range(1, 3163))
            return
    assert spectro_error_bound(n, side, kappa) <= target
    assert n == 1 or spectro_error_bound(n - 1, side, kappa) > target


def test_discrete_norm_tracks_continuum():
    rule = product_rule(16, 1.0)
    points = product_rule_points(rule)
    vals = spec_diff(points[:, 0], points[:, 1])
    discrete = math.sqrt(np.dot(vals * vals, rule.weights))
    continuum = math.sqrt(tensor_product_integral(lambda x, y: spec_diff(x, y) ** 2, 200, 1.0))
    assert abs(discrete - continuum) < 1e-8


def test_legendre_eval_matches_numpy():
    z = np.linspace(-0.9, 0.9, 7)
    for n in (1, 3, 6):
        mine = legendre_eval(n, z.astype(complex))
        ref = np.polynomial.legendre.legval(z, [0.0] * n + [1.0])
        assert np.abs(mine - ref).max() < 1e-12


def test_legendre_lower_bound_check():
    assert legendre_lower_bound_check(1, 2.0, 1.0)
    assert legendre_lower_bound_check(4, 2.0, 1.0)
    assert legendre_lower_bound_check(10, 1.5, 0.25)
    with pytest.raises(ValueError):
        legendre_lower_bound_check(3, 0.9, 1.0)


def test_holomorphic_extension_restricts_to_integrand():
    def phi_ext(z, zeta):
        tf = gabor_closed_form_exp(F1, z, zeta) \
            * np.conj(gabor_closed_form_exp(F1, np.conj(z), np.conj(zeta)))
        tg = gabor_closed_form_exp(G1, z, zeta) \
            * np.conj(gabor_closed_form_exp(G1, np.conj(z), np.conj(zeta)))
        return (tf - tg) ** 2

    xs = np.linspace(-0.5, 0.5, 9)
    for y in (-0.4, 0.0, 0.3):
        ext = phi_ext(xs + 0j, y + 0j)
        direct = spec_diff(xs, np.full_like(xs, y)) ** 2
        assert np.abs(ext - direct).max() < 1e-12
        assert np.abs(ext.imag).max() < 1e-14

    # sup over the slab E_{s,a,b} obeys the Gaussian-growth cap
    s, a, b = 0.5, 1.0, 0.5
    xi = np.linspace(-a, a, 41)
    eta = np.linspace(-b, b, 21)
    t = np.linspace(-s, s, 21)
    rect = (xi[:, None] + 1j * eta[None, :]).ravel()
    sup = 0.0
    for tv in t:
        sup = max(sup, float(np.abs(phi_ext(rect, tv + 0j)).max()),
                  float(np.abs(phi_ext(tv + 0j, rect)).max()))
    assert sup <= math.sqrt(2.0) * math.exp(4 * math.pi * b * b) * KAPPA1


def test_error_decays_superexponentially():
    ref = tensor_product_integral(lambda x, y: spec_diff(x, y) ** 2, 200, 1.0)
    ns = [4, 6, 8, 10, 12]
    logs = []
    for n in ns:
        err = abs(ref - apply_rule(lambda x, y: spec_diff(x, y) ** 2, product_rule(n, 1.0)))
        logs.append(math.log(max(err, 1e-300)))
    diffs = np.diff(logs)
    assert all(d < 0 for d in diffs)          # decreasing
    assert all(b <= a + 1e-9 for a, b in zip(diffs, diffs[1:]))  # concave: rate accelerates
