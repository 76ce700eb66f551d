#!/usr/bin/env python3
"""Strip certificate table: the certificate's lambda and h on the sharpness
strip against a high-precision reference.

Each case is the strip of unit squares at x = -a, -a + 0.6, ... <= a on y = 0
(tests/oracles.sharpness_strip) with the spectrogram of make_sharpness_pair(a)'s
first signal on a grid of step 0.05 that runs 2.5 past +-a in x and covers
[-2.5, 2.5] in y; a = 2, 3, 4, 4.5 and 6.  lambda is algebraic_connectivity's
(numpy eigvalsh); the reference is the second-smallest eigenvalue of the same
float64 normalized Laplacian from mpmath's eigsy at 60 digits (150 at a = 6).
h is cheeger_constant's: exact up to 20 squares, the spectral sweep's bound
above.  Cheeger's inequality asks lambda <= 2 h.
Writes results/strip_certificate.csv and results/strip_certificate.json.
"""

import argparse
import json
from pathlib import Path

import mpmath
import numpy as np

from gaborcert import (
    Grid2D,
    SquareCover,
    algebraic_connectivity,
    build_graph,
    cheeger_constant,
    make_sharpness_pair,
    mixture_field,
    spectrogram,
)
from gaborcert.gabor_engine import write_table_csv
from gaborcert.stability_graph import _EXACT_CHEEGER_LIMIT

STEP = 0.05
# (a, digits of the reference)
ROWS = ((2.0, 60), (3.0, 60), (4.0, 60), (4.5, 60), (6.0, 150))
SMOKE_ROWS = ((2.0, 60),)
FIELDS = ("a", "squares", "lambda_eigvalsh", "lambda_ref", "ref_digits", "h", "h_method",
          "eigvalsh_over_2h", "ref_over_2h")


def strip_case(a: float):
    """(cover, grid) of the strip at a."""
    cover = SquareCover(tuple((float(x), 0.0) for x in np.arange(-a, a + 1e-9, 0.6)))
    return cover, Grid2D.from_bounds(-a - 2.5, a + 2.5, -2.5, 2.5, STEP)


def reference_lambda(g, digits: int) -> float:
    """Second-smallest eigenvalue of W^{-1/2} L W^{-1/2}, from the graph's float64 w and
    sigma, with L, its degrees and the scaling built and diagonalized by mpmath at `digits`."""
    with mpmath.workdps(digits):
        rows = g.sigma.tolist()
        laplacian = mpmath.diag([mpmath.fsum(row) for row in rows]) - mpmath.matrix(rows)
        scale = mpmath.diag([1 / mpmath.sqrt(w) for w in g.w.tolist()])
        eigvals = mpmath.eigsy(scale * laplacian * scale, eigvals_only=True)
        return float(sorted(eigvals)[1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="a = 2 only")
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()

    table = []
    for a, digits in SMOKE_ROWS if args.smoke else ROWS:
        cover, grid = strip_case(a)
        g = build_graph(spectrogram(mixture_field(make_sharpness_pair(a)[0], grid)), cover)
        lam, ref = algebraic_connectivity(g), reference_lambda(g, digits)
        h = cheeger_constant(g)
        method = "exact" if g.n <= _EXACT_CHEEGER_LIMIT else "sweep"
        table.append(dict(zip(FIELDS, (a, g.n, lam, ref, digits, h, method,
                                       lam / (2 * h), ref / (2 * h)))))
        print(f"a = {a:3.1f}  {g.n:2d} squares  lambda {lam:.4g} (ref {ref:.4g})  "
              f"h {h:.4g} ({method})  lambda / 2h {lam / (2 * h):.3g} (ref {ref / (2 * h):.3g})")

    args.out.mkdir(parents=True, exist_ok=True)
    write_table_csv(args.out / "strip_certificate.csv",
                    {f: [row[f] for row in table] for f in FIELDS})
    with open(args.out / "strip_certificate.json", "w") as fh:
        json.dump({"step": STEP, "exact_cheeger_limit": _EXACT_CHEEGER_LIMIT, "rows": table},
                  fh, indent=1)
    print(f"wrote {args.out / 'strip_certificate.csv'} and {args.out / 'strip_certificate.json'}")


if __name__ == "__main__":
    main()
