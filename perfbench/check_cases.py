"""Tests of the output checks on hand-made outputs, run by `run.py --smoke`.

Each case writes a small output directory, states whether the checks must
flag it, and compares with the verdict.  The certify cases include the known
defect: a disconnected cover whose certificate reports a finite bound_lambda.
`run` then certifies a real two-component cover with the CLI and requires the
verdict to match the bounds the program reported.
"""

from __future__ import annotations

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
from workloads import Operation

# two separated pairs of squares: two components
SPLIT_COVER = [[0.0, 0.0], [0.6, 0.0], [5.0, 0.0], [5.6, 0.0]]
JOINED_COVER = [[0.0, 0.0], [0.6, 0.0], [1.2, 0.0], [1.8, 0.0]]


def _write_certify(out: Path, centers, bound_lambda, bound_cheeger, L=None, vol=None):
    mult, area = checks.arrangement(centers)
    rows = [("K", 1.0), ("M", 1.0), ("L", float(mult if L is None else L)),
            ("nu", float(len(centers))), ("vol_omega", area if vol is None else vol),
            ("lambda", 0.1), ("cheeger", 0.1), ("delta0", 1.0),
            ("bound_lambda", bound_lambda), ("bound_cheeger", bound_cheeger), ("base_case", 0.0)]
    (out / "certificate.csv").write_text(
        "quantity,value\n" + "".join(f"{k},{v!r}\n" for k, v in rows))
    (out / "vertices.csv").write_text("i,w\n" + "".join(f"{i},1.0\n" for i in range(len(centers))))
    edges = [(i, j) for i in range(len(centers)) for j in range(i + 1, len(centers))
             if abs(centers[i][0] - centers[j][0]) < 1 and abs(centers[i][1] - centers[j][1]) < 1]
    (out / "edges.csv").write_text("i,j,sigma\n" + "".join(f"{i},{j},0.5\n" for i, j in edges))
    return {"centers": centers}


def _write_transform(out: Path, scale_s: float):
    atoms = [{"re": 1.0, "im": 0.5, "shift": 0.2, "modulation": -0.3}]
    x, y = (a.ravel().tolist() for a in np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5),
                                                      indexing="ij"))
    v = checks.gabor_reference(atoms, x, y).tolist()
    (out / "gabor.csv").write_text("x,y,re,im\n" + "".join(
        f"{a!r},{b!r},{c.real!r},{c.imag!r}\n" for a, b, c in zip(x, y, v)))
    (out / "spectrogram.csv").write_text("x,y,s\n" + "".join(
        f"{a!r},{b!r},{scale_s * abs(c) ** 2!r}\n" for a, b, c in zip(x, y, v)))
    return {"points": 25, "atoms": atoms}


def _write_plan(out: Path, predicted: float):
    n = 3
    (out / "plan.csv").write_text(
        f"quantity,value\nN,{float(n)!r}\nnode_count,{float(n * n)!r}\n"
        f"predicted_error,{predicted!r}\n")
    (out / "nodes.csv").write_text("x,y,w\n" + "0.0,0.0,1.0\n" * (n * n))
    return {"epsilon": 0.1}


def _write_retrieve(out: Path, rel: float):
    (out / "retrieved.csv").write_text("x,y,re,im\n" + "0.0,0.0,1.0,0.0\n" * 4)
    (out / "oracle.csv").write_text(f"quantity,value\nrelative_error,{rel!r}\n")
    return {"points": 4}


CASES = [
    # (name, command, writer, flagged)
    ("connected, finite bounds", "certify",
     lambda o: _write_certify(o, JOINED_COVER, 10.0, 20.0), False),
    ("disconnected, infinite bounds", "certify",
     lambda o: _write_certify(o, SPLIT_COVER, math.inf, math.inf), False),
    ("disconnected, finite bound_lambda (known defect)", "certify",
     lambda o: _write_certify(o, SPLIT_COVER, 7.2e10, math.inf), True),
    ("connected, infinite bound_cheeger", "certify",
     lambda o: _write_certify(o, JOINED_COVER, 10.0, math.inf), True),
    ("wrong multiplicity L", "certify",
     lambda o: _write_certify(o, JOINED_COVER, 10.0, 20.0, L=3), True),
    ("wrong union area", "certify",
     lambda o: _write_certify(o, JOINED_COVER, 10.0, 20.0, vol=2.0), True),
    ("exact transform", "transform", lambda o: _write_transform(o, 1.0), False),
    ("spectrogram not |field|^2", "transform", lambda o: _write_transform(o, 1.001), True),
    ("plan within eps^4", "plan-sample", lambda o: _write_plan(o, 0.5e-4), False),
    ("plan above eps^4", "plan-sample", lambda o: _write_plan(o, 2e-4), True),
    ("finite relative error", "retrieve", lambda o: _write_retrieve(o, 3.5e12), False),
    ("non-finite relative error", "retrieve", lambda o: _write_retrieve(o, math.nan), True),
]


# two pairs of squares 1.95 apart; lambda comes out near 1e-17 rather than 0
DEFECT_CONFIG = {
    "signal_f": {"kind": "mixture", "atoms": [
        {"re": 1.0, "im": 0.0, "shift": -1.0, "modulation": 0.0},
        {"re": 0.8, "im": 0.0, "shift": 1.0, "modulation": 0.3}]},
    "cover": {"centers": [[-1.475, 0.0], [-0.975, 0.0], [0.975, 0.0], [1.475, 0.0]]},
    "grid": {"xmin": -3.0, "xmax": 3.0, "ymin": -3.0, "ymax": 3.0, "step": 0.1},
}


def _program_case(work: Path, cli, checker) -> tuple[list[str], str]:
    config = dict(DEFECT_CONFIG, signal_g=DEFECT_CONFIG["signal_f"])
    path = work / "defect.json"
    path.write_text(json.dumps(config))
    op = Operation("defect", "certify", path, work / "defect", {"centers": config["cover"]["centers"]})
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(op.argv())
    problems, _ = checker.verify(op, code)
    if code != 0:
        return [f"certify on the two-component cover exited {code}"], ""
    cert = checks.quantities(op.out / "certificate.csv")
    finite = [k for k in ("bound_lambda", "bound_cheeger") if math.isfinite(cert[k])]
    note = (f"two-component cover: lambda = {cert['lambda']!r}, finite bounds {finite or 'none'}; "
            f"check {'flagged it' if problems else 'passed it'}")
    if bool(problems) != bool(finite):
        return [f"verdict {problems} does not match the reported bounds ({note})"], note
    return [], note


def run(work: Path, cli) -> tuple[list[str], str]:
    """Returns one message per case whose verdict is wrong, and a note on the program case."""
    shutil.rmtree(work, ignore_errors=True)
    checker = checks.Checker()
    wrong = []
    for idx, (name, command, writer, flagged) in enumerate(CASES):
        out = work / f"case{idx}"
        out.mkdir(parents=True)
        op = Operation(f"case{idx}", command, out / "config.json", out, writer(out))
        problems, _ = checker.verify(op, 0)
        if bool(problems) != flagged:
            wrong.append(f"{name}: expected {'flagged' if flagged else 'clean'}, got {problems}")
    problems, _ = checker.verify(Operation("exit", "certify", work, work, {}), 3)
    if not problems:
        wrong.append("nonzero exit code not flagged")
    program_wrong, note = _program_case(work, cli, checker)
    return wrong + program_wrong, note
