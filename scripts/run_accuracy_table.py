#!/usr/bin/env python3
"""Accuracy table: oracle relative error of retrieve_phase on noise-free
lattice covers, against cover size and jet source.

Each case is a k x k lattice of unit squares at spacing 0.7 with random
atoms in the lattice span (placed uniformly, amplitude of modulus in
[0.5, 1.5] and uniform phase) and a grid padded by 1.0 around the centres:
16 and 36 squares at step 0.02 with k atoms, 144 squares at step 0.05 with
k^2 atoms.  Jets are finite-difference at order 4, plus analytic at order 14
for 144 squares; seeds 3, 4 and 5.  The error is the phase-aligned L2
distance to the mixture's own field over the cover, over its L2 norm there.
Writes results/accuracy_table.csv and results/accuracy_table.json.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from gaborcert import (
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    SquareCover,
    min_phase_distance,
    mixture_field,
    region_norm,
    retrieve_phase,
    spectrogram,
)
from gaborcert.gabor_engine import write_table_csv

SPACING = 0.7
PAD = 1.0
SEEDS = (3, 4, 5)
# (k, step, atoms, jet source, order); atoms None means k^2
ROWS = (
    (4, 0.02, 4, "finite_difference", 4),
    (6, 0.02, 6, "finite_difference", 4),
    (12, 0.05, None, "finite_difference", 4),
    (12, 0.05, None, "analytic", 14),
)
SMOKE_ROWS = ((2, 0.1, 2, "finite_difference", 4), (2, 0.1, 2, "analytic", 14))
FIELDS = ("squares", "step", "atoms", "jet_source", "order", "seed", "rel_err")


def lattice_case(k: int, step: float, atoms: int, seed: int):
    """(signal, grid, cover) of one table row at one seed."""
    rng = np.random.default_rng(seed)
    span = 0.5 * SPACING * (k - 1)
    offs = SPACING * (np.arange(k) - 0.5 * (k - 1))
    cover = SquareCover(tuple((x, y) for x in offs for y in offs))
    drawn = []
    for _ in range(atoms):
        x, y = rng.uniform(-span, span, 2)
        drawn.append(GaussianAtom(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()), x, y))
    grid = Grid2D.from_bounds(-span - PAD, span + PAD, -span - PAD, span + PAD, step)
    return GaussianMixtureSignal(tuple(drawn)), grid, cover


def oracle_error(sig, grid, cover, jet_source: str, order: int) -> float:
    """Relative error of the retrieved field against the mixture's own field on the cover."""
    ref = mixture_field(sig, grid)
    result = retrieve_phase(spectrogram(ref), cover, jet_source, order,
                            signal=sig if jet_source == "analytic" else None)
    _, dist = min_phase_distance(ref, result.field, cover.rects())
    return dist / region_norm(ref, cover.rects(), 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="4 squares at step 0.1, one seed")
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()

    rows, seeds = (SMOKE_ROWS, SEEDS[:1]) if args.smoke else (ROWS, SEEDS)
    table = []
    for k, step, atoms, jet_source, order in rows:
        atoms = atoms or k * k
        for seed in seeds:
            err = oracle_error(*lattice_case(k, step, atoms, seed), jet_source, order)
            table.append(dict(zip(FIELDS, (k * k, step, atoms, jet_source, order, seed, err))))
            print(f"{k * k:4d} squares  step {step}  {atoms:3d} atoms  {jet_source:17s} "
                  f"K={order:2d}  seed {seed}  rel_err {err:.3e}")

    args.out.mkdir(parents=True, exist_ok=True)
    write_table_csv(args.out / "accuracy_table.csv", {f: [row[f] for row in table] for f in FIELDS})
    with open(args.out / "accuracy_table.json", "w") as fh:
        json.dump({"spacing": SPACING, "pad": PAD, "rows": table}, fh, indent=1)
    print(f"wrote {args.out / 'accuracy_table.csv'} and {args.out / 'accuracy_table.json'}")


if __name__ == "__main__":
    main()
