#!/usr/bin/env python3
"""Certificate validation sweep: random mixture pairs against several covers.

For each (pair, cover) the script computes the aligned transform distance,
the spectrogram distance, and the certificate bound, then reports the fitted
constant (the worst observed ratio) at two grid resolutions.  Writes
results/certificates/ratios.csv.
"""

import argparse
from pathlib import Path

import numpy as np

from gaborcert import (
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    SquareCover,
    certificate,
    mixture_field,
    spectrogram,
    stability_distances,
)
from gaborcert.gabor_engine import write_table_csv

FIELDS = ("step", "pair", "cover", "dist", "sqrt_specdiff", "bound_cheeger", "ratio")
PAIRS = 10  # random mixture pairs, drawn from SEED
SEED = 7
STEPS = (0.05, 0.025)  # grid steps, the coarse one first
COVERS = {
    "2x2": SquareCover(((-0.3, -0.3), (-0.3, 0.3), (0.3, -0.3), (0.3, 0.3))),
    "strip3": SquareCover(((-0.7, 0.0), (0.0, 0.0), (0.7, 0.0))),
    "3x3": SquareCover(tuple((0.5 * i, 0.5 * j) for i in (-1, 0, 1) for j in (-1, 0, 1))),
}


def random_mixture(rng, spread=0.6):
    n = int(rng.integers(1, 4))
    atoms = tuple(
        GaussianAtom(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        for _ in range(n))
    return GaussianMixtureSignal(atoms)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/certificates"))
    args = parser.parse_args()

    rng = np.random.default_rng(SEED)
    pairs = [(random_mixture(rng), random_mixture(rng)) for _ in range(PAIRS)]

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "ratios.csv"
    fitted, rows = {}, []
    for step in STEPS:
        grid = Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, step)
        worst = 0.0
        for idx, (f, g) in enumerate(pairs):
            ff = mixture_field(f, grid)
            gg = mixture_field(g, grid)
            sf = spectrogram(ff)
            sg = spectrogram(gg)
            for name, cover in COVERS.items():
                cert = certificate(sf, sg, cover)
                dist, sqrt_sd = stability_distances(ff, gg, cover.rects())
                ratio = dist / (cert.bound_cheeger * sqrt_sd)
                worst = max(worst, ratio)
                rows.append((float(step), idx, name, dist, sqrt_sd, cert.bound_cheeger, ratio))
        fitted[step] = worst
    write_table_csv(path, {f: [row[i] for row in rows] for i, f in enumerate(FIELDS)})

    print(f"wrote {path}")
    for step, worst in fitted.items():
        print(f"step {step}: fitted constant {worst:.6f}")
    coarse, fine = (fitted[step] for step in STEPS)
    print(f"fitted-constant change across refinement: {abs(fine - coarse) / fine:.2%}")


if __name__ == "__main__":
    main()
