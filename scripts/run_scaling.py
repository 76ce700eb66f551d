#!/usr/bin/env python3
"""Scaling table: wall time and tracemalloc peak of certificate, of analytic
retrieve_phase and of build_graph alone against cover size, and of
quadrature_gabor against grid size and sample count.

Each cover case is run_accuracy_table's lattice: k x k unit squares at
spacing 0.7, k^2 random atoms in the lattice span, a grid of step 0.05 padded
by 1.0 around the centres, seed 3; k = 12, 24, 32 and 48 (144 to 2304
squares).  certificate compares the spectrogram with itself, and
retrieve_phase uses analytic jets of order 14.  build_graph runs on the same
lattices and on k = 64 as well (4096 squares, a 923 x 923 grid).  Each
transform case samples standard normal complex noise (seed 3) over the data
path's t range [-6.5, 6.5] and transforms it on an N x N grid of step 0.02
centred at 0: N = 101, 251 and 501 at 20000 samples, and N = 101 at 200000.
Each stage runs twice: once under tracemalloc for its peak, then once
untraced for its wall time.
Writes results/scaling.csv, results/graph_scaling.csv,
results/quadrature_scaling.csv and results/scaling.json.
"""

import argparse
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from gaborcert import (
    Grid2D,
    SampledSignal,
    build_graph,
    certificate,
    mixture_field,
    quadrature_gabor,
    retrieve_phase,
    spectrogram,
)
from gaborcert.gabor_engine import write_table_csv
from run_accuracy_table import PAD, SPACING, lattice_case

STEP = 0.05
SEED = 3
ORDER = 14
SIDES = (12, 24, 32, 48)
GRAPH_SIDES = (12, 24, 32, 48, 64)
SMOKE_SIDES = (2, 3)
FIELDS = ("squares", "grid_cells", "certificate_s", "certificate_peak_mib",
          "retrieve_s", "retrieve_peak_mib")
GRAPH_FIELDS = ("squares", "edges", "build_graph_s", "build_graph_peak_mib")
T_RANGE = (-6.5, 6.5)
GRID_STEP = 0.02
# (grid points per axis, samples)
TRANSFORMS = ((101, 20000), (251, 20000), (501, 20000), (101, 200000))
SMOKE_TRANSFORMS = ((31, 2000), (31, 20000))
TRANSFORM_FIELDS = ("grid_points", "samples", "quadrature_s", "quadrature_peak_mib")


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


def transform_case(n: int, nt: int) -> tuple[SampledSignal, Grid2D]:
    """Noise samples over T_RANGE and the n x n grid of step GRID_STEP centred at 0."""
    lo, hi = T_RANGE
    noise = np.random.default_rng(SEED).standard_normal((nt, 2)).view(complex)[:, 0]
    half = GRID_STEP * (n - 1) / 2
    grid = Grid2D(-half, -half, GRID_STEP, GRID_STEP, n, n)
    return SampledSignal(noise, lo, (hi - lo) / (nt - 1)), grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="k = 2 and 3, and a 31 x 31 transform at 2000 and 20000 samples")
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()

    table, graphs = [], []
    for k in SMOKE_SIDES if args.smoke else GRAPH_SIDES:
        sig, grid, cover = lattice_case(k, STEP, k * k, SEED)
        spec = spectrogram(mixture_field(sig, grid))
        graph = measure(lambda: build_graph(spec, cover))
        edges = len(build_graph(spec, cover).s)
        graphs.append(dict(zip(GRAPH_FIELDS, (k * k, edges, *graph))))
        print(f"{k * k:5d} squares  {edges:6d} edges  build_graph {graph[0]:.3f} s "
              f"{graph[1]:.1f} MiB")
        if not args.smoke and k not in SIDES:
            continue
        cert = measure(lambda: certificate(spec, spec, cover))
        retrieve = measure(lambda: retrieve_phase(spec, cover, "analytic", ORDER, signal=sig))
        table.append(dict(zip(FIELDS, (k * k, grid.nx * grid.ny, *cert, *retrieve))))
        print(f"{k * k:5d} squares  {grid.nx}x{grid.ny} grid  certificate {cert[0]:.3f} s "
              f"{cert[1]:.1f} MiB  retrieve_phase {retrieve[0]:.3f} s {retrieve[1]:.1f} MiB")

    # the first transform in a process also learns the BLAS's panel split, so a
    # small one runs first, outside the table
    quadrature_gabor(*transform_case(31, 300))
    transforms = []
    for n, nt in SMOKE_TRANSFORMS if args.smoke else TRANSFORMS:
        sig, grid = transform_case(n, nt)
        quad = measure(lambda: quadrature_gabor(sig, grid))
        transforms.append(dict(zip(TRANSFORM_FIELDS, (n, nt, *quad))))
        print(f"{n:5d}^2 grid  {nt:6d} samples  quadrature_gabor {quad[0]:.3f} s "
              f"{quad[1]:.1f} MiB")

    args.out.mkdir(parents=True, exist_ok=True)
    write_table_csv(args.out / "scaling.csv", {f: [row[f] for row in table] for f in FIELDS})
    write_table_csv(args.out / "graph_scaling.csv",
                    {f: [row[f] for row in graphs] for f in GRAPH_FIELDS})
    write_table_csv(args.out / "quadrature_scaling.csv",
                    {f: [row[f] for row in transforms] for f in TRANSFORM_FIELDS})
    with open(args.out / "scaling.json", "w") as fh:
        json.dump({"spacing": SPACING, "pad": PAD, "step": STEP, "seed": SEED, "order": ORDER,
                   "rows": table, "graph_rows": graphs, "t_range": T_RANGE,
                   "grid_step": GRID_STEP, "quadrature_rows": transforms}, fh, indent=1)
    print(f"wrote {args.out / 'scaling.csv'}, {args.out / 'graph_scaling.csv'}, "
          f"{args.out / 'quadrature_scaling.csv'} and {args.out / 'scaling.json'}")


if __name__ == "__main__":
    main()
