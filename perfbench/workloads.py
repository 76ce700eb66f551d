"""Seeded inputs for each workload: configs, signals and covers, written as CLI configs.

A workload is a fixed list of CLI operations; one pass runs all of them in
order.  Everything the program receives is generated here from the seed.
The `smoke` sizes keep every operation and check but run in seconds.

Covers are jittered lattices whose jitter is below half the gap between
neighbours, so every square overlaps its lattice neighbours and every cover
is connected by construction.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("lattice", "dense", "data-path")

SIZES = {
    "full": {
        # ROADMAP State geometry: k x k unit squares at spacing 0.7, grid step 0.05
        # padded by 1.0 around the centers, k^2 random atoms in the lattice span
        "lattice": {"k": 12, "spacing": 0.7, "step": 0.05, "pad": 1.0},
        # jittered covers of unit squares inside [-3, 3]^2, two 6-atom mixtures
        "dense": {"ks": (8, 12), "half": 2.5, "grid_half": 4.5, "step": 0.05, "atoms": 6},
        # plan-sample, sampled-signal transform, CSV retrieve with FD jets
        "data-path": {"epsilon": 0.05, "nt": 20000, "grid_half": 2.5, "step": 0.02,
                      "k": 6, "spacing": 0.4, "jitter": 0.08, "atoms": 4, "reference_n": 400},
    },
    "smoke": {
        "lattice": {"k": 3, "spacing": 0.7, "step": 0.1, "pad": 1.0},
        "dense": {"ks": (3, 4), "half": 0.9, "grid_half": 2.5, "step": 0.1, "atoms": 6},
        "data-path": {"epsilon": 0.2, "nt": 2000, "grid_half": 2.5, "step": 0.1,
                      "k": 2, "spacing": 0.4, "jitter": 0.08, "atoms": 4, "reference_n": 60},
    },
}


@dataclass(frozen=True)
class Operation:
    """One CLI invocation: `gaborcert <command> --config <config> --out <out>`."""

    name: str
    command: str
    config: Path
    out: Path
    expect: dict

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(self.out)]


def _grid(half: float, step: float) -> dict:
    return {"xmin": -half, "xmax": half, "ymin": -half, "ymax": half, "step": step}


def grid_points(grid: dict) -> int:
    """Point count of the CLI grid convention: round(extent / step) + 1 per axis."""
    nx = int(round((grid["xmax"] - grid["xmin"]) / grid["step"])) + 1
    ny = int(round((grid["ymax"] - grid["ymin"]) / grid["step"])) + 1
    return nx * ny


def _atom(rng, x: float, y: float) -> dict:
    amp = rng.uniform(0.5, 1.5) * np.exp(2j * math.pi * rng.uniform())
    return {"re": float(amp.real), "im": float(amp.imag), "shift": float(x), "modulation": float(y)}


def _uniform_atoms(rng, count: int, half: float) -> list[dict]:
    return [_atom(rng, *rng.uniform(-half, half, 2)) for _ in range(count)]


def _stratified_atoms(rng, count: int, half: float) -> list[dict]:
    """One atom in the middle half of each cell of a near-square partition of the box."""
    cols = int(math.ceil(math.sqrt(count)))
    rows = int(math.ceil(count / cols))
    cw, ch = 2 * half / cols, 2 * half / rows
    atoms = []
    for idx in range(count):
        cx = -half + cw * (idx % cols + 0.5)
        cy = -half + ch * (idx // cols + 0.5)
        atoms.append(_atom(rng, cx + rng.uniform(-cw / 4, cw / 4), cy + rng.uniform(-ch / 4, ch / 4)))
    return atoms


def _perturbed(rng, atoms: list[dict]) -> list[dict]:
    """Nearby mixture: amplitudes scaled by ~5 %, positions moved by ~0.02."""
    out = []
    for a in atoms:
        scale = 1.0 + 0.05 * rng.normal()
        out.append({"re": a["re"] * scale, "im": a["im"] * scale,
                    "shift": a["shift"] + 0.02 * rng.normal(),
                    "modulation": a["modulation"] + 0.02 * rng.normal()})
    return out


def _lattice(k: int, spacing: float, rng=None, jitter: float = 0.0) -> list[list[float]]:
    offs = spacing * (np.arange(k) - 0.5 * (k - 1))
    centers = [[float(x), float(y)] for x in offs for y in offs]
    if rng is not None and jitter > 0:
        centers = [[float(x + rng.uniform(-jitter, jitter)), float(y + rng.uniform(-jitter, jitter))]
                   for x, y in centers]
    return centers


def _mixture(atoms: list[dict]) -> dict:
    return {"kind": "mixture", "atoms": atoms}


def generate(workload: str, seed: int, work: Path, size: str = "full") -> list[Operation]:
    """Write the workload's inputs under `work` and return its operations in pass order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    p = SIZES[size][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    shutil.rmtree(work, ignore_errors=True)
    inputs, outputs = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    ops: list[Operation] = []

    def add(name: str, command: str, config: dict, expect: dict) -> None:
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(config))
        ops.append(Operation(name, command, path, outputs / name, expect))

    if workload == "lattice":
        k, spacing = p["k"], p["spacing"]
        span = 0.5 * spacing * (k - 1)
        centers = _lattice(k, spacing)
        f = _uniform_atoms(rng, k * k, span)
        grid = _grid(span + p["pad"], p["step"])
        add("certify", "certify", {"signal_f": _mixture(f), "signal_g": _mixture(_perturbed(rng, f)),
                                   "cover": {"centers": centers}, "grid": grid},
            {"centers": centers})
        add("retrieve", "retrieve", {"spectrogram": {"signal": _mixture(f), "grid": grid},
                                     "cover": {"centers": centers}},
            {"points": grid_points(grid)})
    elif workload == "dense":
        grid = _grid(p["grid_half"], p["step"])
        f = _stratified_atoms(rng, p["atoms"], p["half"])
        g = _stratified_atoms(rng, p["atoms"], p["half"])
        for k in p["ks"]:
            spacing = 2 * p["half"] / (k - 1)
            centers = _lattice(k, spacing, rng, 0.45 * (1.0 - spacing))
            add(f"certify-{k * k}", "certify",
                {"signal_f": _mixture(f), "signal_g": _mixture(g),
                 "cover": {"centers": centers}, "grid": grid},
                {"centers": centers})
    else:
        f = _stratified_atoms(rng, p["atoms"], 1.0)
        add("plan-sample", "plan-sample",
            {"epsilon": p["epsilon"], "square": {"cx": 0.0, "cy": 0.0, "side": 1.0},
             "signal_f": _mixture(f), "signal_g": _mixture(_perturbed(rng, f)),
             "reference_n": p["reference_n"]},
            {"epsilon": p["epsilon"]})
        # the sampled signal spans the grid plus the window's 1e-16 support
        t0 = -p["grid_half"] - 4.0
        dt = 2 * (p["grid_half"] + 4.0) / (p["nt"] - 1)
        t = t0 + dt * np.arange(p["nt"])
        values = np.zeros(p["nt"], dtype=complex)
        for a in f:
            values += (complex(a["re"], a["im"]) * np.exp(-math.pi * (t - a["shift"]) ** 2)
                       * np.exp(2j * math.pi * a["modulation"] * t))
        (inputs / "signal.json").write_text(json.dumps(
            {"kind": "sampled", "t0": t0, "dt": dt,
             "samples": [[float(v.real), float(v.imag)] for v in values]}))
        grid = _grid(p["grid_half"], p["step"])
        add("transform", "transform", {"signal": {"path": "signal.json"}, "grid": grid},
            {"points": grid_points(grid), "atoms": f})
        centers = _lattice(p["k"], p["spacing"], rng, p["jitter"])
        add("retrieve", "retrieve",
            {"spectrogram": {"csv": "../out/transform/spectrogram.csv"},
             "cover": {"centers": centers}, "jet_source": "finite_difference", "order": 4,
             "ground_truth": _mixture(f)},
            {"points": grid_points(grid)})
    return ops
