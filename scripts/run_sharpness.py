#!/usr/bin/env python3
"""Sharpness curve experiment: phase-distance to spectrogram-distance ratio
of the two-Gaussian pair on the centered unit square, swept over the
separation parameter.

Writes results/sharpness/sharpness_curve.csv with columns
a, dist, sqrt_specdiff, ratio, log_ratio and prints the regression slope.
"""

import argparse
import csv
import math
from pathlib import Path

import numpy as np

from gaborcert import sharpness_ratio


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a-min", type=float, default=0.25)
    parser.add_argument("--a-max", type=float, default=2.5)
    parser.add_argument("--a-step", type=float, default=0.25)
    parser.add_argument("--grid-step", type=float, default=0.02)
    parser.add_argument("--out", type=Path, default=Path("results/sharpness"))
    args = parser.parse_args()

    rows = []
    a = args.a_min
    while a <= args.a_max + 1e-12:
        dist, sqrt_sd = sharpness_ratio(a, args.grid_step)
        ratio = dist / sqrt_sd
        rows.append((a, dist, sqrt_sd, ratio, math.log(ratio)))
        a += args.a_step

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "sharpness_curve.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "dist", "sqrt_specdiff", "ratio", "log_ratio"])
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])

    arr = np.asarray(rows)
    slope = float(np.polyfit(arr[:, 0], arr[:, 4], 1)[0])
    print(f"wrote {path} ({len(rows)} rows)")
    print(f"log-ratio regression slope: {slope:.4f}  (slope/pi = {slope / math.pi:.4f})")


if __name__ == "__main__":
    main()
