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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=float, default=1.0)
    parser.add_argument("--n-max", type=int, default=24)
    parser.add_argument("--side", type=float, default=1.0)
    parser.add_argument("--reference-n", type=int, default=400)
    parser.add_argument("--out", type=Path, default=Path("results/cubature"))
    args = parser.parse_args()

    f, g = make_sharpness_pair(args.a)
    kappa = l2_norm(f) ** 2 + l2_norm(g) ** 2

    def phi(x, y):
        return (np.abs(gabor_closed_form(f, x, y)) ** 2
                - np.abs(gabor_closed_form(g, x, y)) ** 2) ** 2

    ref = tensor_product_integral(phi, args.reference_n, args.side)

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "decay.csv"
    rows = []
    for n in range(2, args.n_max + 1, 2):
        measured = abs(ref - apply_rule(phi, product_rule(n, args.side)))
        bound = spectro_error_bound(n, args.side, kappa)
        rows.append((n, measured, bound))
        print(f"N={n:3d}  measured |E| = {measured:.3e}   bound = {bound:.3e}")
    write_table_csv(path, {f: [row[i] for row in rows] for i, f in enumerate(FIELDS)})
    print(f"wrote {path} (reference integral {ref!r})")


if __name__ == "__main__":
    main()
