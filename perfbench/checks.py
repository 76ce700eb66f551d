"""Output checks for each CLI command, computed independently of the package.

Every operation is checked.  A verdict is cached under the digest of the
operation's deterministic output files (all but `meta.json`, which holds a
wall time), so a later pass that writes the same bytes reuses it and a pass
that writes different bytes is checked in full.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np


def gabor_reference(atoms, x, y) -> np.ndarray:
    """Closed-form transform of A e^{-pi(t-a)^2} e^{2 pi i b t} atoms at the points (x, y).

    With window e^{-pi t^2} and kernel e^{-2 pi i t y}, completing the square
    gives A 2^{-1/2} e^{-pi/2 ((x-a)^2 + (y-b)^2)} e^{-i pi (x+a)(y-b)}.
    """
    X, Y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(X, Y).shape, dtype=complex)
    for atom in atoms:
        a, b = atom["shift"], atom["modulation"]
        amp = complex(atom["re"], atom["im"])
        out += amp / math.sqrt(2.0) * np.exp(-0.5 * math.pi * ((X - a) ** 2 + (Y - b) ** 2)
                                             - 1j * math.pi * (X + a) * (Y - b))
    return out


def arrangement(centers, side: float = 1.0) -> tuple[int, float]:
    """Max multiplicity and union area of axis-aligned squares, by brute force.

    Every cell of the arrangement of square edges is tested against every
    square; the union area sums the covered cells.
    """
    c = np.asarray(centers, dtype=float)
    h = 0.5 * side
    x0, x1, y0, y1 = c[:, 0] - h, c[:, 0] + h, c[:, 1] - h, c[:, 1] + h
    xs = np.unique(np.concatenate([x0, x1]))
    ys = np.unique(np.concatenate([y0, y1]))
    mx, my = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    in_x = ((x0[:, None] < mx) & (mx < x1[:, None])).astype(float)
    in_y = ((y0[:, None] < my) & (my < y1[:, None])).astype(float)
    count = in_x.T @ in_y
    area = float(np.diff(xs) @ (count > 0) @ np.diff(ys))
    return int(round(count.max())), area


def components(n: int, edges) -> int:
    """Number of connected components of the graph on 0..n-1 (breadth-first search)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    count = 0
    for root in range(n):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        nxt.append(v)
            frontier = nxt
    return count


def quantities(path: Path) -> dict[str, float]:
    lines = path.read_text().splitlines()
    if lines[0] != "quantity,value":
        raise ValueError(f"{path.name}: unexpected header {lines[0]!r}")
    return {key: float(value) for key, value in (line.split(",") for line in lines[1:])}


def _table(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def check_certify(out: Path, expect: dict) -> tuple[list[str], dict]:
    centers = expect["centers"]
    n = len(centers)
    cert = quantities(out / "certificate.csv")
    problems = []
    if cert["nu"] != n:
        problems.append(f"nu = {cert['nu']} for {n} squares")
    mult, area = arrangement(centers)
    if cert["L"] != mult:
        problems.append(f"L = {cert['L']}, arrangement count gives {mult}")
    if not math.isclose(cert["vol_omega"], area, rel_tol=1e-9):
        problems.append(f"vol_omega = {cert['vol_omega']!r}, arrangement area {area!r}")
    if len(_table(out / "vertices.csv", "i,w")) != n:
        problems.append("vertices.csv does not list every square")
    edges = _table(out / "edges.csv", "i,j,sigma")
    ncomp = components(n, edges[:, :2].astype(int))
    if n > 1:
        for key in ("bound_lambda", "bound_cheeger"):
            if math.isinf(cert[key]) != (ncomp > 1):
                problems.append(f"{key} = {cert[key]!r} on a cover with {ncomp} component(s)")
    return problems, {}


def check_transform(out: Path, expect: dict) -> tuple[list[str], dict]:
    gabor = _table(out / "gabor.csv", "x,y,re,im")
    spec = _table(out / "spectrogram.csv", "x,y,s")
    problems = []
    if gabor.shape[0] != expect["points"] or spec.shape[0] != expect["points"]:
        return [f"row counts {gabor.shape[0]}, {spec.shape[0]} for "
                f"{expect['points']} grid points"], {}
    if not np.array_equal(gabor[:, :2], spec[:, :2]):
        problems.append("gabor.csv and spectrogram.csv rows are at different points")
    modulus = gabor[:, 2] ** 2 + gabor[:, 3] ** 2
    if not np.allclose(spec[:, 2], modulus, rtol=1e-12, atol=1e-300):
        problems.append("spectrogram s differs from re^2 + im^2")
    ref = gabor_reference(expect["atoms"], gabor[:, 0], gabor[:, 1])
    got = gabor[:, 2] + 1j * gabor[:, 3]
    err = float(np.abs(got - ref).max() / np.abs(ref).max())
    if not err <= 1e-8:
        problems.append(f"field differs from the closed form by {err:.3g} (relative max)")
    return problems, {}


def check_plan_sample(out: Path, expect: dict) -> tuple[list[str], dict]:
    plan = quantities(out / "plan.csv")
    problems = []
    eps4 = expect["epsilon"] ** 4
    if not plan["predicted_error"] <= eps4:
        problems.append(f"predicted_error {plan['predicted_error']!r} > eps^4 = {eps4!r}")
    n = plan["N"]
    if plan["node_count"] != n * n:
        problems.append(f"node_count {plan['node_count']!r} != N^2 for N = {n!r}")
    if len(_table(out / "nodes.csv", "x,y,w")) != n * n:
        problems.append("nodes.csv does not hold N^2 nodes")
    return problems, {}


def check_retrieve(out: Path, expect: dict) -> tuple[list[str], dict]:
    rows = _table(out / "retrieved.csv", "x,y,re,im").shape[0]
    problems = []
    if rows != expect["points"]:
        problems.append(f"retrieved.csv has {rows} rows for {expect['points']} grid points")
    rel = quantities(out / "oracle.csv")["relative_error"]
    if not math.isfinite(rel):
        problems.append(f"relative_error = {rel!r}")
    return problems, {"rel_err": rel}


CHECKS = {
    "certify": check_certify,
    "transform": check_transform,
    "plan-sample": check_plan_sample,
    "retrieve": check_retrieve,
}


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.is_file() and path.name != "meta.json":
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Checker:
    """Checks operations and caches each verdict under its output digest."""

    def __init__(self):
        self._verdicts: dict[tuple[str, str], tuple[list[str], dict]] = {}

    def verify(self, op, exit_code: int) -> tuple[list[str], dict]:
        if exit_code != 0:
            return [f"exit code {exit_code}"], {}
        key = (op.name, output_digest(op.out))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = CHECKS[op.command](op.out, op.expect)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self._verdicts[key] = ([f"unreadable output: {exc!r}"], {})
        return self._verdicts[key]
