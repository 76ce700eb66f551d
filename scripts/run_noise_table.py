#!/usr/bin/env python3
"""Noise table: oracle relative error of finite-difference retrieve_phase, and
the data residual rho, against multiplicative noise on the spectrogram.

The cover and signal are run_accuracy_table's 36-square row: a 6 x 6 lattice
of unit squares at spacing 0.7 with 6 random atoms, on a grid of step 0.02
padded by 1.0; seeds 3 and 4.  The data is S (1 + eta N(0, 1)), with the
standard normal N drawn over the grid by np.random.default_rng(1), for eta in
0, 1e-14, 1e-12, 1e-10, 1e-8 and 1e-4.  Jets are finite-difference at order
4.  The error is the phase-aligned L2 distance to the mixture's own field
over the cover, over its L2 norm there; rho = ||G~|^2 - S~|| / ||S~|| on the
cover, with G~ the retrieved field and S~ the noisy data.
Writes results/noise_table.csv and results/noise_table.json.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from gaborcert import (
    GABOR,
    SPECTROGRAM,
    SpectrogramField,
    min_phase_distance,
    mixture_field,
    region_norm,
    retrieve_phase,
)
from gaborcert.gabor_engine import write_table_csv
from run_accuracy_table import PAD, SPACING, lattice_case

K, STEP, ATOMS = 6, 0.02, 6
SMOKE_K, SMOKE_STEP, SMOKE_ATOMS = 2, 0.1, 2
SEEDS = (3, 4)
ETAS = (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-4)
SMOKE_ETAS = (0.0, 1e-8)
NOISE_SEED = 1
ORDER = 4
FIELDS = ("squares", "step", "atoms", "seed", "eta", "rel_err", "rho")


def noise_row(ref, cover, noise: np.ndarray, eta: float) -> tuple[float, float]:
    """(relative error, rho) of the finite-difference retrieval from S (1 + eta noise),
    where S is the spectrogram of the reference field `ref`."""
    grid = ref.grid
    data = SpectrogramField(grid, np.abs(ref.values) ** 2 * (1.0 + eta * noise), SPECTROGRAM)
    result = retrieve_phase(data, cover, "finite_difference", ORDER)
    rects = cover.rects()
    _, dist = min_phase_distance(ref, result.field, rects)
    residual = SpectrogramField(grid, np.abs(result.field.values) ** 2 - data.values + 0j, GABOR)
    rho = region_norm(residual, rects, 2) / region_norm(data, rects, 2)
    return dist / region_norm(ref, rects, 2), rho


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="4 squares at step 0.1, one seed, eta 0 and 1e-8")
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()

    k, step, atoms, seeds, etas = ((SMOKE_K, SMOKE_STEP, SMOKE_ATOMS, SEEDS[:1], SMOKE_ETAS)
                                   if args.smoke else (K, STEP, ATOMS, SEEDS, ETAS))
    table = []
    for seed in seeds:
        sig, grid, cover = lattice_case(k, step, atoms, seed)
        ref = mixture_field(sig, grid)
        noise = np.random.default_rng(NOISE_SEED).standard_normal((grid.nx, grid.ny))
        for eta in etas:
            err, rho = noise_row(ref, cover, noise, eta)
            table.append(dict(zip(FIELDS, (k * k, step, atoms, seed, eta, err, rho))))
            print(f"{k * k:3d} squares  step {step}  {atoms} atoms  seed {seed}  "
                  f"eta {eta:.0e}  rel_err {err:.3e}  rho {rho:.3e}")

    args.out.mkdir(parents=True, exist_ok=True)
    write_table_csv(args.out / "noise_table.csv", {f: [row[f] for row in table] for f in FIELDS})
    with open(args.out / "noise_table.json", "w") as fh:
        json.dump({"spacing": SPACING, "pad": PAD, "jet_source": "finite_difference",
                   "order": ORDER, "noise_seed": NOISE_SEED, "rows": table}, fh, indent=1)
    print(f"wrote {args.out / 'noise_table.csv'} and {args.out / 'noise_table.json'}")


if __name__ == "__main__":
    main()
