#!/usr/bin/env python3
"""Scaling table: wall time and tracemalloc peak of certificate and of analytic
retrieve_phase against cover size.

Each case is run_accuracy_table's lattice: k x k unit squares at spacing 0.7,
k^2 random atoms in the lattice span, a grid of step 0.05 padded by 1.0
around the centres, seed 3; k = 12, 24, 32 and 48 (144 to 2304 squares).
certificate compares the spectrogram with itself, and retrieve_phase uses
analytic jets of order 14.  Each stage runs twice: once under tracemalloc
for its peak, then once untraced for its wall time.
Writes results/scaling.csv and results/scaling.json.
"""

import argparse
import csv
import json
import time
import tracemalloc
from pathlib import Path

from gaborcert import certificate, mixture_field, retrieve_phase, spectrogram
from run_accuracy_table import PAD, SPACING, lattice_case

STEP = 0.05
SEED = 3
ORDER = 14
SIDES = (12, 24, 32, 48)
SMOKE_SIDES = (2, 3)
FIELDS = ("squares", "grid_cells", "certificate_s", "certificate_peak_mib",
          "retrieve_s", "retrieve_peak_mib")


def measure(stage) -> tuple[float, float]:
    """(wall seconds, tracemalloc peak in MiB) of stage(), from two calls: the
    traced one first, so the timed one finds the process warm."""
    tracemalloc.start()
    try:
        stage()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    start = time.perf_counter()
    stage()
    return time.perf_counter() - start, peak / 2 ** 20


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="k = 2 and 3 only")
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()

    table = []
    for k in SMOKE_SIDES if args.smoke else SIDES:
        sig, grid, cover = lattice_case(k, STEP, k * k, SEED)
        spec = spectrogram(mixture_field(sig, grid))
        cert = measure(lambda: certificate(spec, spec, cover))
        retrieve = measure(lambda: retrieve_phase(spec, cover, "analytic", ORDER, signal=sig))
        table.append(dict(zip(FIELDS, (k * k, grid.nx * grid.ny, *cert, *retrieve))))
        print(f"{k * k:5d} squares  {grid.nx}x{grid.ny} grid  certificate {cert[0]:.3f} s "
              f"{cert[1]:.1f} MiB  retrieve_phase {retrieve[0]:.3f} s {retrieve[1]:.1f} MiB")

    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "scaling.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELDS)
        for row in table:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])
    with open(args.out / "scaling.json", "w") as fh:
        json.dump({"spacing": SPACING, "pad": PAD, "step": STEP, "seed": SEED, "order": ORDER,
                   "rows": table}, fh, indent=1)
    print(f"wrote {args.out / 'scaling.csv'} and {args.out / 'scaling.json'}")


if __name__ == "__main__":
    main()
