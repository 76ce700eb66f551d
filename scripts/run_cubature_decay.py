#!/usr/bin/env python3
"""Cubature decay experiment: measured integration error of the squared
spectrogram difference of the two-Gaussian pair on the unit square versus
the rule degree, next to the rigorous error bound.

Writes results/cubature/decay.csv with columns N, measured, bound.
"""

import argparse
from pathlib import Path

import numpy as np

from gaborcert import gabor_closed_form, l2_norm, make_sharpness_pair, spectro_error_bound
from gaborcert.cubature import apply_rule, product_rule, tensor_product_integral
from gaborcert.gabor_engine import write_table_csv

FIELDS = ("N", "measured", "bound")
A = 1.0  # the pair's parameter
N_MAX = 24  # rules N = 2, 4, ..., N_MAX
SIDE = 1.0
REFERENCE_N = 400  # the reference integral's rule size


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/cubature"))
    args = parser.parse_args()

    f, g = make_sharpness_pair(A)
    kappa = l2_norm(f) ** 2 + l2_norm(g) ** 2

    def phi(x, y):
        return (np.abs(gabor_closed_form(f, x, y)) ** 2
                - np.abs(gabor_closed_form(g, x, y)) ** 2) ** 2

    ref = tensor_product_integral(phi, REFERENCE_N, SIDE)

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "decay.csv"
    rows = []
    for n in range(2, N_MAX + 1, 2):
        measured = abs(ref - apply_rule(phi, product_rule(n, SIDE)))
        bound = spectro_error_bound(n, SIDE, kappa)
        rows.append((n, measured, bound))
        print(f"N={n:3d}  measured |E| = {measured:.3e}   bound = {bound:.3e}")
    write_table_csv(path, {f: [row[i] for row in rows] for i, f in enumerate(FIELDS)})
    print(f"wrote {path} (reference integral {ref!r})")


if __name__ == "__main__":
    main()
