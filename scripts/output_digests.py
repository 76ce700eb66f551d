#!/usr/bin/env python3
"""Output digests: the size and sha256 of every file the benchmark's workloads write.

Runs every operation of the lattice, dense and data-path workloads of
perfbench/workloads.py through gaborcert.cli.main in-process, at seeds 0, 701
and 902.  perfbench/run.py and workloads.py are loaded read-only from this
checkout: run.py caps the BLAS threads, before numpy is imported, and invokes
each operation, so the outputs are those of a benchmark pass.  Every output
file, meta.json included, gets one row: workload, seed, operation, file, bytes
and the first 16 hex digits of its sha256.  Two checkouts wrote byte-identical
outputs when their CSVs are equal, on the same numpy, BLAS and BLAS thread
cap: the bits of the transform's products depend on BLAS's thread split.
`--smoke` runs the smoke sizes at seed 7.  Writes results/output_digests.csv
and results/output_digests.json, whose "environment" holds those three entries
of run.py's environment block.  tests/data/output_digests_smoke.csv and .json
are that CSV and that "environment" of a `--smoke` run, which tier-1 compares
with a fresh one.
"""

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SEEDS = (0, 701, 902)
SMOKE_SEED = 7
FIELDS = ("workload", "seed", "operation", "file", "bytes", "sha256_16")
# the entries of run.py's environment block that the output bits depend on
ENVIRONMENT = ("numpy", "blas", "blas_threads")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


run = _load("run")
NPROC = run._cap_blas_threads()

import numpy as np  # noqa: E402

from gaborcert import cli  # noqa: E402
from gaborcert.gabor_engine import write_table_csv  # noqa: E402

workloads = _load("workloads")


def digest_rows(workload: str, seed: int, size: str, work: Path) -> list[tuple]:
    """One row per output file of one pass of the workload at the seed."""
    session = run.Session(cli, None, None)
    rows = []
    for op in workloads.generate(workload, seed, work, size):
        code, output = session._invoke(op, None)
        if code != 0:
            raise SystemExit(f"{workload} seed {seed} {op.name} exited {code}:\n{output}")
        for path in sorted(p for p in op.out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            rows.append((workload, seed, op.name, path.relative_to(op.out).as_posix(), len(data),
                         hashlib.sha256(data).hexdigest()[:16]))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help=f"smoke sizes at seed {SMOKE_SEED}")
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()

    size, seeds = ("smoke", (SMOKE_SEED,)) if args.smoke else ("full", SEEDS)
    table = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                rows = digest_rows(workload, seed, size, Path(tmp) / workload)
                table.extend(rows)
                print(f"{workload:9s}  seed {seed:4d}  {len(rows):3d} files")

    args.out.mkdir(parents=True, exist_ok=True)
    write_table_csv(args.out / "output_digests.csv", {f: [row[i] for row in table]
                                                      for i, f in enumerate(FIELDS)})
    env = run._environment(np, ROOT, NPROC, seeds[0] if args.smoke else None)
    with open(args.out / "output_digests.json", "w") as fh:
        json.dump({"size": size, "seeds": seeds,
                   "environment": {key: env[key] for key in ENVIRONMENT},
                   "rows": [dict(zip(FIELDS, row)) for row in table]}, fh, indent=1)
    print(f"wrote {args.out / 'output_digests.csv'} and {args.out / 'output_digests.json'}")


if __name__ == "__main__":
    main()
