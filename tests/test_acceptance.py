"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Criterion 5 is expected RED: on the unit square the measured growth rate of
dist / ||Sf - Sg||^(1/2) for the two-Gaussian pair is e^(pi a / 2) (regression
slope ~ 1.08), so the asserted slope window [0.95 pi, 1.3 pi] cannot be met.
The sup of the relevant local factor |e^(a pi z)| on the half-radius disk is
e^(pi a / 2) squared under the L2 integral, not e^(2 pi a); the window appears
to presume the latter.  The test is kept faithful to the stated criterion and
fails honestly rather than loosening the window.
"""

import math
import time

import numpy as np

from gaborcert import (
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    SquareCover,
    algebraic_connectivity,
    certificate,
    cheeger_constant,
    gabor_closed_form,
    gauss_rule,
    jet_from_mixture,
    l2_norm,
    make_sharpness_pair,
    min_phase_distance,
    mixture_field,
    plan_sampling,
    quadrature_gabor,
    region_norm,
    retrieve_phase,
    sharpness_ratio,
    spectro_error_bound,
    spectrogram,
    stability_distances,
)
from gaborcert.cubature import apply_rule, product_rule, tensor_product_integral

from oracles import (
    delta_r,
    disk_norm_from_jet,
    disk_quadrature,
    distance_from_delta,
    fock_value,
    gabor_closed_form_exp,
    grid_mesh,
    jet_from_taylor,
    legendre_lower_bound_check,
    random_graph,
    random_mixture,
    sampled_mixture,
    tau_grid_min_distance,
)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_closed_form_agreement():
    """Numerical transform vs closed form: <= 1e-8 on [-2,2]^2, 5 atoms, < 5 s."""
    atoms = tuple(
        GaussianAtom(amp, shift, mod)
        for amp, shift, mod in [
            (1.0, 0.0, 0.0),
            (0.8 - 0.4j, -1.2, 0.7),
            (0.5j, 0.9, -1.1),
            (-0.6 + 0.2j, 1.4, 1.3),
            (0.3, -0.5, -0.4),
        ]
    )
    sig = GaussianMixtureSignal(atoms)
    grid = Grid2D.from_bounds(-2.0, 2.0, -2.0, 2.0, 0.1)
    start = time.monotonic()
    numeric = quadrature_gabor(sampled_mixture(sig, -8.0, 8.0), grid)
    elapsed = time.monotonic() - start
    X, Y = grid_mesh(grid)
    err = float(np.abs(numeric.values - gabor_closed_form_exp(sig, X, Y)).max())
    ok = err <= 1e-8 and elapsed < 5.0
    assert report(1, ok, f"max abs err {err:.2e} (tol 1e-8), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_02_tensor_identity():
    """Truncated tensor discrepancy vs Monte-Carlo and exact monomial values."""
    exact_one = delta_r(jet_from_taylor([1.0], 8), jet_from_taylor([0.0], 8), 1.0).delta_sq
    exact_z = delta_r(jet_from_taylor([0.0, 1.0], 8), jet_from_taylor([0.0], 8), 1.0).delta_sq
    ok = abs(exact_one - math.pi**2) <= 1e-10 and abs(exact_z - math.pi**2 / 4) <= 1e-10

    rng = np.random.default_rng(123)
    worst_sigma = 0.0
    for _ in range(3):
        cf = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        cg = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        d2 = delta_r(jet_from_taylor(cf, 8), jet_from_taylor(cg, 8), 1.0).delta_sq
        n = 10**6
        z = np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        zeta = np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))

        def ev(c, w):
            return c[0] + c[1] * w + c[2] * w * w + c[3] * w**3

        vals = np.abs(ev(cf, z) * np.conj(ev(cf, zeta))
                      - ev(cg, z) * np.conj(ev(cg, zeta))) ** 2
        mc = float(vals.mean()) * math.pi**2
        se = float(vals.std(ddof=1)) / math.sqrt(n) * math.pi**2
        worst_sigma = max(worst_sigma, abs(d2 - mc) / se)
    ok = ok and worst_sigma <= 3.0
    assert report(2, ok, f"exact monomial checks <= 1e-10; MC worst deviation "
                         f"{worst_sigma:.2f} sigma (<= 3)")


def test_criterion_03_distance_bound():
    """sqrt(5) delta / ||F|| dominates the grid-search alignment distance."""
    rng = np.random.default_rng(42)
    violations = 0
    tested = 0
    for r in (0.5, 1.0):
        pts, wts = disk_quadrature(r)
        for _ in range(50):
            f = random_mixture(rng)
            g = random_mixture(rng)
            fv = fock_value(f, pts)
            gv = fock_value(g, pts)
            nf = math.sqrt(float(np.sum(np.abs(fv) ** 2 * wts)))
            ng = math.sqrt(float(np.sum(np.abs(gv) ** 2 * wts)))
            oracle = tau_grid_min_distance(complex(np.sum(gv * np.conj(fv) * wts)), nf, ng)
            jf = jet_from_mixture(f, 0.0, 24)
            jg = jet_from_mixture(g, 0.0, 24)
            bound = distance_from_delta(disk_norm_from_jet(jf, r), delta_r(jf, jg, r).delta)
            tested += 1
            if bound < oracle - 1e-9:
                violations += 1
    ok = violations == 0 and tested == 100
    assert report(3, ok, f"{tested} random pairs, r in {{1/2, 1}}, {violations} violations")


def test_criterion_04_cheeger_inequality():
    """2h >= lambda >= h^2/(2 delta0) on 50 random graphs, exact enumeration."""
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(50):
        g = random_graph(rng, n_min=2, n_max=12)
        lam = algebraic_connectivity(g)
        h = cheeger_constant(g)
        d0 = g.delta0()
        slack = 1e-9 * max(lam, h, 1.0)
        if not 2.0 * h >= lam - slack:
            violations += 1
        lower = 0.0 if d0 == 0 else h * h / (2.0 * d0)
        if not lam >= lower - slack:
            violations += 1
    ok = violations == 0
    assert report(4, ok, f"50 random graphs (n <= 12), {violations} violations, slack 1e-9")


def test_criterion_05_sharpness_growth():
    """Log-ratio regression slope over a in {0.5, 1, 1.5, 2} within [0.95 pi, 1.3 pi].

    Expected RED: the measured slope is ~1.08 (growth e^(pi a / 2) on the unit
    square), far below the window; see the module docstring.
    """
    start = time.monotonic()
    logs = []
    for a in (0.5, 1.0, 1.5, 2.0):
        dist, sqrt_specdiff = sharpness_ratio(a, 0.02)
        logs.append((a, math.log(dist / sqrt_specdiff)))
    elapsed = time.monotonic() - start
    arr = np.asarray(logs)
    slope = float(np.polyfit(arr[:, 0], arr[:, 1], 1)[0])
    lo, hi = 0.95 * math.pi, 1.3 * math.pi
    ok = lo <= slope <= hi and elapsed < 60.0
    report(5, ok, f"slope {slope:.3f} vs window [{lo:.3f}, {hi:.3f}], "
                  f"runtime {elapsed:.1f}s (< 60s)")
    assert ok, (f"regression slope {slope:.4f} outside [{lo:.4f}, {hi:.4f}]; measured "
                "growth is e^(pi a / 2) on the unit square, so this window is unattainable")


F1, G1 = make_sharpness_pair(1.0)
KAPPA1 = l2_norm(F1) ** 2 + l2_norm(G1) ** 2


def _spec_diff_sq(x, y):
    return (np.abs(gabor_closed_form(F1, x, y)) ** 2
            - np.abs(gabor_closed_form(G1, x, y)) ** 2) ** 2


def test_criterion_06_cubature_bound():
    """Measured |E| <= explicit bound at N in {8, 12, 16} and decreases monotonically."""
    ref = tensor_product_integral(_spec_diff_sq, 400, 1.0)
    prev = math.inf
    ok = True
    details = []
    for n in (8, 12, 16):
        measured = abs(ref - apply_rule(_spec_diff_sq, product_rule(n, 1.0)))
        bound = spectro_error_bound(n, 1.0, KAPPA1)
        ok = ok and measured <= bound and measured < prev
        details.append(f"N={n}: |E|={measured:.1e}<=B={bound:.1e}")
        prev = measured
    assert report(6, ok, "; ".join(details) + "; monotone decrease")


def test_criterion_07_planner_contract():
    """Planner N minimal for the bound, achieved |E| <= eps^4, N ~ ln(1/eps)."""
    ref = tensor_product_integral(_spec_diff_sq, 400, 1.0)
    eps_list = [0.25, 0.125, 0.0625]
    ns = []
    ok = True
    for eps in eps_list:
        plan = plan_sampling(eps, 1.0, KAPPA1)
        achieved = abs(ref - apply_rule(_spec_diff_sq, plan.rule))
        minimal = spectro_error_bound(plan.n - 1, 1.0, KAPPA1) > eps**4
        ok = ok and achieved <= eps**4 and plan.predicted_error <= eps**4 and minimal
        ns.append(plan.n)
    x = np.log(1.0 / np.asarray(eps_list))
    y = np.asarray(ns, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((y - y.mean()) ** 2))
    ok = ok and r2 >= 0.9
    assert report(7, ok, f"N(eps) = {ns}, linear fit R^2 = {r2:.4f} (>= 0.9)")


def test_criterion_08_end_to_end_retrieval():
    """Retrieval from the atom spectrogram on a 2x2 cover: relative error <= 1e-3."""
    atom = GaussianMixtureSignal((GaussianAtom(1.0),))
    grid = Grid2D.from_bounds(-0.85, 0.85, -0.85, 0.85, 0.05)
    spec = spectrogram(mixture_field(atom, grid))
    cover = SquareCover(((-0.3, -0.3), (-0.3, 0.3), (0.3, -0.3), (0.3, 0.3)))
    result = retrieve_phase(spec, cover, "analytic", 14, signal=atom)
    ref = mixture_field(atom, grid)
    _, dist = min_phase_distance(ref, result.field, cover.rects())
    rel = dist / region_norm(ref, cover.rects(), 2)
    ok = rel <= 1e-3
    assert report(8, ok, f"relative recovery error {rel:.2e} (<= 1e-3, analytic jets K=14)")


def test_criterion_09_certificate_ratio_stability():
    """Fitted certificate constant moves <= 10% under 2x grid refinement."""
    rng = np.random.default_rng(7)
    covers = [
        SquareCover(((-0.3, -0.3), (-0.3, 0.3), (0.3, -0.3), (0.3, 0.3))),
        SquareCover(((-0.7, 0.0), (0.0, 0.0), (0.7, 0.0))),
        SquareCover(tuple((0.5 * i, 0.5 * j) for i in (-1, 0, 1) for j in (-1, 0, 1))),
    ]
    pairs = [(random_mixture(rng, spread=0.6), random_mixture(rng, spread=0.6))
             for _ in range(10)]

    def fitted_constant(step: float) -> float:
        worst = 0.0
        grid = Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, step)
        for f, g in pairs:
            ff = mixture_field(f, grid)
            gg = mixture_field(g, grid)
            sf = spectrogram(ff)
            sg = spectrogram(gg)
            for cover in covers:
                cert = certificate(sf, sg, cover)
                dist, sqrt_sdist = stability_distances(ff, gg, cover.rects())
                worst = max(worst, dist / (cert.bound_cheeger * sqrt_sdist))
        return worst

    coarse = fitted_constant(0.05)
    fine = fitted_constant(0.025)
    change = abs(coarse - fine) / coarse
    ok = change <= 0.10
    assert report(9, ok, f"C_hat {coarse:.5f} -> {fine:.5f} under 2x refinement "
                         f"({change:.2%} change, <= 10%)")


def test_criterion_10_gauss_rules():
    """Monomial exactness to 1e-11 for N <= 30 and the polynomial floor check."""
    worst = 0.0
    for n in range(1, 31):
        rule = gauss_rule(n, 2.0)
        powers = np.arange(2 * n)
        sums = np.array([float(np.dot(rule.nodes**p, rule.weights)) for p in powers])
        exact = np.where(powers % 2 == 0, 2.0 / (powers + 1.0), 0.0)
        # tensor rules factor over axes, so 2D exactness for x^p y^q reduces
        # to the 1D sums; compare every product pair against the exact values
        err_1d = np.abs(sums - exact)
        rel = (np.abs(np.outer(sums, sums) - np.outer(exact, exact)).max()
               / max(np.abs(np.outer(exact, exact)).max(), 1.0))
        worst = max(worst, float(err_1d.max()), rel)
    ok = worst <= 1e-11

    floor_ok = all(
        legendre_lower_bound_check(n, a, b)
        for n in range(1, 11)
        for a, b in ((1.5, 0.25), (2.0, 1.0), (3.0, 2.0))
    )
    ok = ok and floor_ok
    assert report(10, ok, f"exactness worst err {worst:.1e} (<= 1e-11) for N <= 30; "
                          f"polynomial floor checks {'pass' if floor_ok else 'fail'}")
