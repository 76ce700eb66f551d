"""Batch CLI: transform/certify/sharpness/plan-sample/retrieve/selftest.

Configs are JSON documents validated against per-command schemas before any
computation; outputs are a summary, CSV tables with shortest round-trip
number formatting (byte-identical across runs for identical inputs), and a
metadata file.  Exit codes: 0 success (warnings allowed), 2 validation
failure, 3 numerical degeneracy, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from . import __version__
from .gabor_engine import (
    Grid2D,
    SampledSignal,
    SpectrogramField,
    mixture_field,
    quadrature_gabor,
    read_field_csv,
    region_norm,
    spectrogram,
    write_field_csv,
)
from .signal_model import (
    GaussianAtom,
    GaussianMixtureSignal,
    gabor_closed_form,
    l2_norm,
)
from .stability_graph import (
    DegenerateVertexError,
    SquareCover,
    WeightedGraph,
    certificate,
    cheeger_inequality_check,
    graph_edge_rows,
    graph_vertex_rows,
)
from .stitching import (
    DegenerateSquareError,
    min_phase_distance,
    retrieve_phase,
    sharpness_ratio,
)
from .cubature import (
    discrete_weighted_norm,
    gauss_rule,
    plan_sampling,
    tensor_product_integral,
)
from .tensor_phase import delta_r, jet_from_taylor, tensor_weights

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERACY = 3
EXIT_IO = 4

DEFAULT_GRID_STEP = 0.05


class CliValidationError(ValueError):
    pass


class CliDegeneracyError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# schemas

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}

MIXTURE_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"const": "mixture"},
        # each entry must be an object of four numbers; checked by
        # _mixture_atoms, since a schema walk over every atom is slow
        "atoms": {"type": "array", "minItems": 1},
    },
    "required": ["atoms"],
    "additionalProperties": False,
}
SAMPLED_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"const": "sampled"},
        "t0": _NUM,
        "dt": _POS,
        # each entry must be a [re, im] pair of numbers; checked by
        # _sample_pairs, since a schema walk over every pair is slow
        "samples": {"type": "array", "minItems": 1},
    },
    "required": ["t0", "dt", "samples"],
    "additionalProperties": False,
}
PATH_SCHEMA = {
    "type": "object",
    "properties": {"path": {"type": "string"}},
    "required": ["path"],
    "additionalProperties": False,
}
GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "xmin": _NUM, "xmax": _NUM, "ymin": _NUM, "ymax": _NUM, "step": _POS,
    },
    "required": ["xmin", "xmax", "ymin", "ymax"],
    "additionalProperties": False,
}
COVER_SCHEMA = {
    "type": "object",
    "properties": {
        "centers": {
            "type": "array",
            "items": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
            "minItems": 1,
        },
    },
    "required": ["centers"],
    "additionalProperties": False,
}
SQUARE_SCHEMA = {
    "type": "object",
    "properties": {"cx": _NUM, "cy": _NUM, "side": _POS},
    "required": ["cx", "cy", "side"],
    "additionalProperties": False,
}


def _by_kind(fallback: dict) -> dict:
    """Signal schema that checks a signal with a `kind` against that kind only.

    Without `kind`, the signal is checked against `fallback`.
    """
    def kind_is(kind):
        return {"properties": {"kind": {"const": kind}}, "required": ["kind"]}

    return {"if": kind_is("mixture"), "then": MIXTURE_SCHEMA,
            "else": {"if": kind_is("sampled"), "then": SAMPLED_SCHEMA, "else": fallback}}


_SIGNAL_ENVELOPE = _by_kind({"anyOf": [MIXTURE_SCHEMA, SAMPLED_SCHEMA, PATH_SCHEMA]})
_SIGNAL_FILE = _by_kind({"anyOf": [MIXTURE_SCHEMA, SAMPLED_SCHEMA]})

COMMAND_SCHEMAS = {
    "transform": {
        "type": "object",
        "properties": {"signal": _SIGNAL_ENVELOPE, "grid": GRID_SCHEMA},
        "required": ["signal", "grid"],
        "additionalProperties": False,
    },
    "certify": {
        "type": "object",
        "properties": {
            "signal_f": _SIGNAL_ENVELOPE,
            "signal_g": _SIGNAL_ENVELOPE,
            "cover": COVER_SCHEMA,
            "grid": GRID_SCHEMA,
        },
        "required": ["signal_f", "signal_g", "cover", "grid"],
        "additionalProperties": False,
    },
    "sharpness": {
        "type": "object",
        "properties": {
            "a_values": {"type": "array", "items": _POS, "minItems": 1},
            "grid_step": _POS,
        },
        "required": ["a_values"],
        "additionalProperties": False,
    },
    "plan-sample": {
        "type": "object",
        "properties": {
            "epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
            "square": SQUARE_SCHEMA,
            "signal_f": _SIGNAL_ENVELOPE,
            "signal_g": _SIGNAL_ENVELOPE,
            "reference_n": {"type": "integer", "minimum": 10},
        },
        "required": ["epsilon", "square", "signal_f", "signal_g"],
        "additionalProperties": False,
    },
    "retrieve": {
        "type": "object",
        "properties": {
            "spectrogram": {
                "anyOf": [
                    {
                        "type": "object",
                        "properties": {"signal": _SIGNAL_ENVELOPE, "grid": GRID_SCHEMA},
                        "required": ["signal", "grid"],
                        "additionalProperties": False,
                    },
                    {
                        "type": "object",
                        "properties": {"csv": {"type": "string"}},
                        "required": ["csv"],
                        "additionalProperties": False,
                    },
                ]
            },
            "cover": COVER_SCHEMA,
            "jet_source": {"enum": ["analytic", "finite_difference"]},
            "order": {"type": "integer", "minimum": 0},
            "ground_truth": _SIGNAL_ENVELOPE,
        },
        "required": ["spectrogram", "cover"],
        "additionalProperties": False,
    },
    "selftest": {"type": "object", "additionalProperties": False},
}


def _validate(instance, schema, where: str) -> None:
    validator = Draft202012Validator(schema)
    err = best_match(validator.iter_errors(instance))
    if err is not None:
        # descend into anyOf branches so the offending leaf field is named
        while err.context:
            err = best_match(err.context)
        path = ".".join(str(p) for p in err.absolute_path) or "(root)"
        raise CliValidationError(f"{where}: invalid field {path}: {err.message}")


# ---------------------------------------------------------------------------
# config materialization

def _load_json(path: Path, what: str):
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise CliValidationError(f"{what} file not found: {path}")
    except OSError as exc:
        raise CliValidationError(f"cannot read {what} file {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliValidationError(f"{what} file {path} is not valid JSON: {exc}")


def _is_number(v) -> bool:
    # JSON Schema's "number": bool is a subclass of int but not a number
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v, where: str, path: str) -> float:
    """v as a float, after checking it is a JSON number that a float can hold."""
    if not _is_number(v):
        raise CliValidationError(f"{where}: invalid field {path}: {v!r} is not a number")
    try:
        return float(v)
    except OverflowError:
        raise CliValidationError(f"{where}: invalid field {path}: integer too large for a float")


def _sample_pairs(samples: list, where: str, field: str) -> tuple[complex, ...]:
    """The samples as complex numbers, after checking each is a [re, im] pair.

    One scan in place of the schema's per-pair walk, with the same rule:
    a list of exactly two numbers, each of which a float can hold.  The
    first bad entry is named as `<field>.<k>` in a validation error from
    `where`.
    """
    values = []
    for k, pair in enumerate(samples):
        if not (isinstance(pair, list) and len(pair) == 2
                and _is_number(pair[0]) and _is_number(pair[1])):
            raise CliValidationError(
                f"{where}: invalid field {field}.{k}: {pair!r} is not a [re, im] pair of numbers")
        try:
            values.append(complex(float(pair[0]), float(pair[1])))
        except OverflowError:
            raise CliValidationError(
                f"{where}: invalid field {field}.{k}: integer too large for a float")
    return tuple(values)


_ATOM_KEYS = ("re", "im", "shift", "modulation")


def _mixture_atoms(atoms: list, where: str, field: str) -> tuple[GaussianAtom, ...]:
    """The atoms as GaussianAtoms, after checking each in one scan.

    An atom is an object with exactly the keys re, im, shift and modulation,
    each a number that a float can hold.  The first bad atom is named as
    `<field>.<k>`, or `<field>.<k>.<key>` for a bad, missing or unexpected
    key, in a validation error from `where`.
    """
    out = []
    for k, atom in enumerate(atoms):
        path = f"{field}.{k}"
        bad = f"{where}: invalid field {path}"
        if not isinstance(atom, dict):
            raise CliValidationError(f"{bad}: {atom!r} is not an object")
        for key in _ATOM_KEYS:
            if key not in atom:
                raise CliValidationError(f"{bad}.{key}: required key is missing")
        for key in atom:
            if key not in _ATOM_KEYS:
                raise CliValidationError(f"{bad}.{key}: unexpected key")
        re, im, shift, modulation = (_number(atom[key], where, f"{path}.{key}")
                                     for key in _ATOM_KEYS)
        out.append(GaussianAtom(complex(re, im), shift, modulation))
    return tuple(out)


def _build_signal(obj, where: str, base_dir: Path):
    """The signal of an envelope that passed schema validation.

    `where` is the envelope's dotted path in the config.  A signal read from
    a file is validated here, and its errors are reported from `where` with
    paths inside the file.
    """
    if "path" in obj:
        loaded = _load_json(base_dir / obj["path"], f"{where} signal")
        _validate(loaded, _SIGNAL_FILE, where)
        obj, err_where, prefix = loaded, where, ""
    else:
        err_where, prefix = "config", f"{where}."
    if "atoms" in obj:
        return GaussianMixtureSignal(_mixture_atoms(obj["atoms"], err_where, prefix + "atoms"))
    samples = _sample_pairs(obj["samples"], err_where, prefix + "samples")
    return SampledSignal(samples, _number(obj["t0"], err_where, prefix + "t0"),
                         _number(obj["dt"], err_where, prefix + "dt"))


def _build_grid(obj, path: str, step_override: float | None) -> Grid2D:
    """The grid of the config object at dotted `path`; errors name the field."""
    xmin, xmax, ymin, ymax = (_number(obj[k], "config", f"{path}.{k}")
                              for k in ("xmin", "xmax", "ymin", "ymax"))
    step = step_override
    if step is None:
        step = _number(obj.get("step", DEFAULT_GRID_STEP), "config", f"{path}.step")
    try:
        return Grid2D.from_bounds(xmin, xmax, ymin, ymax, step)
    except ValueError as exc:
        raise CliValidationError(f"config: invalid field {path}: {exc}")


def _build_cover(obj) -> SquareCover:
    """The cover of the config's `cover` object; errors name the center."""
    return SquareCover(tuple(
        (_number(x, "config", f"cover.centers.{k}.0"), _number(y, "config", f"cover.centers.{k}.1"))
        for k, (x, y) in enumerate(obj["centers"])))


def _field_for(signal, grid: Grid2D) -> SpectrogramField:
    if isinstance(signal, GaussianMixtureSignal):
        return mixture_field(signal, grid)
    return quadrature_gabor(signal, grid)


# ---------------------------------------------------------------------------
# report bundle

@dataclass
class ReportBundle:
    command: str
    config_echo: dict
    tables: dict = field(default_factory=dict)
    fields: dict[str, SpectrogramField] = field(default_factory=dict)
    summary: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add_table(self, name: str, header: list[str], rows) -> None:
        self.tables[name] = (header, list(rows))

    def write(self, outdir: Path) -> None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "config_echo.json").write_text(
            json.dumps(self.config_echo, indent=2, sort_keys=True) + "\n"
        )
        for name, (header, rows) in self.tables.items():
            lines = [",".join(header)]
            for row in rows:
                lines.append(",".join(_format_cell(c) for c in row))
            (outdir / f"{name}.csv").write_text("\n".join(lines) + "\n")
        for name, fld in self.fields.items():
            write_field_csv(fld, outdir / f"{name}.csv")
        text = [f"command: {self.command}"] + self.summary
        if self.warnings:
            text.append("warnings:")
            text.extend(f"  - {w}" for w in self.warnings)
        (outdir / "summary.txt").write_text("\n".join(text) + "\n")
        (outdir / "meta.json").write_text(json.dumps(self.meta, indent=2, sort_keys=True) + "\n")


def _format_cell(c) -> str:
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    if isinstance(c, (int, np.integer)):
        return str(int(c))
    return str(c)


# ---------------------------------------------------------------------------
# commands

def cmd_transform(config, args) -> ReportBundle:
    signal = _build_signal(config["signal"], "signal", args.base_dir)
    grid = _build_grid(config["grid"], "grid", args.grid_step)
    fld = _field_for(signal, grid)
    spec = spectrogram(fld)
    bundle = ReportBundle("transform", config)
    bundle.fields["gabor"] = fld
    bundle.fields["spectrogram"] = spec
    bundle.summary.append(f"grid: {grid.nx} x {grid.ny} points, step {grid.dx}")
    bundle.summary.append(f"max |field|: {np.abs(fld.values).max()!r}")
    bundle.summary.append(f"spectrogram mass (cell sum): {spec.values.sum() * grid.dx * grid.dy!r}")
    return bundle


def cmd_certify(config, args) -> ReportBundle:
    sig_f = _build_signal(config["signal_f"], "signal_f", args.base_dir)
    sig_g = _build_signal(config["signal_g"], "signal_g", args.base_dir)
    grid = _build_grid(config["grid"], "grid", args.grid_step)
    cover = _build_cover(config["cover"])
    spec_f = spectrogram(_field_for(sig_f, grid))
    spec_g = spectrogram(_field_for(sig_g, grid))
    cert = certificate(spec_f, spec_g, cover)
    bundle = ReportBundle("certify", config)
    bundle.add_table("certificate", ["quantity", "value"],
                     [(name, val) for name, val in cert.rows()])
    bundle.add_table("vertices", ["i", "w"], graph_vertex_rows(cert.graph))
    bundle.add_table("edges", ["i", "j", "sigma"], graph_edge_rows(cert.graph))
    bundle.summary.append(f"squares: {cert.nu}, union area: {cert.vol_omega!r}")
    bundle.summary.append(f"bound_lambda: {cert.bound_lambda!r}")
    bundle.summary.append(f"bound_cheeger: {cert.bound_cheeger!r}")
    if math.isinf(cert.bound_cheeger):
        bundle.warnings.append("disconnected cover: certificate bounds are infinite")
    return bundle


def cmd_sharpness(config, args) -> ReportBundle:
    a_values = [_number(a, "config", f"a_values.{k}") for k, a in enumerate(config["a_values"])]
    if any(a > 3.0 for a in a_values):
        raise CliValidationError("a_values: entries must lie in (0, 3]")
    step = args.grid_step
    if step is None:
        step = _number(config.get("grid_step", 0.02), "config", "grid_step")
    rows = []
    for a in a_values:
        dist, sqrt_specdiff = sharpness_ratio(a, step)
        ratio = dist / sqrt_specdiff
        rows.append((float(a), dist, sqrt_specdiff, ratio, math.log(ratio)))
    bundle = ReportBundle("sharpness", config)
    bundle.add_table("sharpness", ["a", "dist", "sqrt_specdiff", "ratio", "log_ratio"], rows)
    if len(rows) >= 2:
        arr = np.asarray(rows)
        slope = float(np.polyfit(arr[:, 0], arr[:, 4], 1)[0])
        bundle.summary.append(f"log-ratio regression slope: {slope!r}")
        bundle.summary.append(f"slope / pi: {slope / math.pi!r}")
    else:
        bundle.summary.append("single a value; no regression slope")
    bundle.summary.append(f"grid step: {step!r}")
    return bundle


def cmd_plan_sample(config, args) -> ReportBundle:
    sig_f = _build_signal(config["signal_f"], "signal_f", args.base_dir)
    sig_g = _build_signal(config["signal_g"], "signal_g", args.base_dir)
    if not isinstance(sig_f, GaussianMixtureSignal) or not isinstance(sig_g, GaussianMixtureSignal):
        raise CliValidationError("plan-sample requires mixture signals (closed-form evaluation)")
    cx, cy, side = (_number(config["square"][k], "config", f"square.{k}") for k in ("cx", "cy", "side"))
    s = 0.5 * side
    center = (cx, cy)
    kappa = l2_norm(sig_f) ** 2 + l2_norm(sig_g) ** 2
    plan = plan_sampling(_number(config["epsilon"], "config", "epsilon"), s, kappa, center)

    def spec_diff(x, y):
        sf = np.abs(gabor_closed_form(sig_f, x, y)) ** 2
        sg = np.abs(gabor_closed_form(sig_g, x, y)) ** 2
        return sf - sg

    def spec_diff_sq(x, y):
        return spec_diff(x, y) ** 2

    ref_n = config.get("reference_n", 400)
    exact = tensor_product_integral(spec_diff_sq, ref_n, s, center)
    node_vals = spec_diff(plan.rule.points[:, 0], plan.rule.points[:, 1])
    achieved = exact - float(np.dot(node_vals ** 2, plan.rule.weights))
    discrete = discrete_weighted_norm(node_vals, plan.rule)
    continuum = math.sqrt(exact)

    bundle = ReportBundle("plan-sample", config)
    node_rows = [(float(p[0]), float(p[1]), float(w))
                 for p, w in zip(plan.rule.points, plan.rule.weights)]
    bundle.add_table("nodes", ["x", "y", "w"], node_rows)
    bundle.add_table("plan", ["quantity", "value"], [
        ("N", float(plan.n)),
        ("node_count", float(plan.n ** 2)),
        ("epsilon", plan.epsilon),
        ("epsilon4", plan.epsilon ** 4),
        ("kappa", plan.kappa),
        ("predicted_error", plan.predicted_error),
        ("achieved_error", achieved),
        ("discrete_norm", discrete),
        ("continuum_norm", continuum),
    ])
    bundle.summary.append(f"N = {plan.n} ({plan.n ** 2} nodes)")
    bundle.summary.append(f"predicted error bound: {plan.predicted_error!r} <= eps^4 = {plan.epsilon ** 4!r}")
    bundle.summary.append(f"achieved |E|: {abs(achieved)!r}")
    bundle.summary.append(f"discrete norm {discrete!r} vs continuum {continuum!r}")
    return bundle


def cmd_retrieve(config, args) -> ReportBundle:
    spec_cfg = config["spectrogram"]
    truth = None
    if "ground_truth" in config:
        truth = _build_signal(config["ground_truth"], "ground_truth", args.base_dir)
        if not isinstance(truth, GaussianMixtureSignal):
            raise CliValidationError("ground_truth must be a mixture signal")
    if "csv" in spec_cfg:
        path = args.base_dir / spec_cfg["csv"]
        if not path.exists():
            raise CliValidationError(f"spectrogram csv not found: {path}")
        spec = read_field_csv(path)
        if spec.kind != "spectrogram":
            raise CliValidationError("spectrogram csv must have header x,y,s")
    else:
        sig = _build_signal(spec_cfg["signal"], "spectrogram.signal", args.base_dir)
        grid = _build_grid(spec_cfg["grid"], "spectrogram.grid", args.grid_step)
        spec = spectrogram(_field_for(sig, grid))
        if truth is None and isinstance(sig, GaussianMixtureSignal):
            truth = sig
    cover = _build_cover(config["cover"])
    jet_source = config.get("jet_source", "analytic")
    order = config.get("order", 14)
    if jet_source == "analytic" and truth is None:
        raise CliValidationError("analytic jets require a mixture signal or ground_truth")
    result = retrieve_phase(spec, cover, jet_source, order, signal=truth)
    bundle = ReportBundle("retrieve", config)
    bundle.fields["retrieved"] = result.field
    bundle.summary.append(f"components: {len(result.components)}")
    bundle.warnings.extend(result.warnings)
    if truth is not None:
        ref = mixture_field(truth, result.field.grid)
        rects = cover.rects()
        _, dist = min_phase_distance(ref, result.field, rects)
        ref_norm = region_norm(ref, rects, 2)
        rel = dist / ref_norm if ref_norm > 0 else math.inf
        bundle.add_table("oracle", ["quantity", "value"], [
            ("distance", dist), ("reference_norm", ref_norm), ("relative_error", rel),
        ])
        bundle.summary.append(f"relative error vs oracle: {rel!r}")
    return bundle


def cmd_selftest(config, args) -> ReportBundle:
    del config
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    checks: list[tuple[str, bool]] = []

    rule = gauss_rule(5, 1.0)
    ok = abs(rule.weights.sum() - 2.0) < 1e-12
    for p in range(0, 10):
        exact = 0.0 if p % 2 else 2.0 / (p + 1)
        ok = ok and abs(np.dot(rule.nodes**p, rule.weights) - exact) < 1e-12
    checks.append(("gauss rule N=5 exactness", ok))

    w = tensor_weights(1.0, 3).omega
    checks.append(("tensor weights r=1", abs(w[0] - math.pi) < 1e-15 and abs(w[1] - math.pi / 2) < 1e-15))

    jet_one = jet_from_taylor([1.0], 4)
    jet_zero = jet_from_taylor([0.0], 4)
    d = delta_r(jet_one, jet_zero, 1.0)
    checks.append(("delta_r(1, 0) = pi^2", abs(d.delta_sq - math.pi**2) < 1e-12))

    sig = GaussianMixtureSignal((GaussianAtom(1.0, 0.3, -0.2),))
    grid = Grid2D.from_bounds(-1.0, 1.0, -1.0, 1.0, 0.2)
    fld_q = quadrature_gabor(sig, grid)
    fld_c = mixture_field(sig, grid)
    checks.append(("quadrature vs closed form",
                   float(np.abs(fld_q.values - fld_c.values).max()) < 1e-8))

    ok = True
    for _ in range(10):
        n = int(rng.integers(2, 7))
        wts = rng.uniform(0.2, 2.0, n)
        sig_m = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        g = WeightedGraph(wts, sig_m + sig_m.T)
        try:
            cheeger_inequality_check(g)
        except AssertionError:
            ok = False
    checks.append(("cheeger inequality random graphs", ok))

    bundle = ReportBundle("selftest", {})
    bundle.add_table("checks", ["check", "passed"], [(name, int(passed)) for name, passed in checks])
    for name, passed in checks:
        bundle.summary.append(f"{'PASS' if passed else 'FAIL'}: {name}")
    if not all(passed for _, passed in checks):
        raise CliDegeneracyError("selftest failed; see summary")
    return bundle


COMMANDS = {
    "transform": cmd_transform,
    "certify": cmd_certify,
    "sharpness": cmd_sharpness,
    "plan-sample": cmd_plan_sample,
    "retrieve": cmd_retrieve,
    "selftest": cmd_selftest,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborcert",
        description="Spectrogram phase retrieval, stability certificates, and sampling plans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (optional for selftest)")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default ./out)")
        p.add_argument("--grid-step", type=float, default=None,
                       help="override the grid step of the config")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized checks")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        if args.command == "selftest" and args.config is None:
            config = {}
            args.base_dir = Path(".")
        else:
            if args.config is None:
                raise CliValidationError(f"{args.command}: --config is required")
            args.base_dir = args.config.parent
            config = _load_json(args.config, "config")
            _validate(config, COMMAND_SCHEMAS[args.command], "config")
        if args.grid_step is not None and args.grid_step <= 0:
            raise CliValidationError("--grid-step must be positive")
        bundle = COMMANDS[args.command](config, args)
    except (CliDegeneracyError, DegenerateVertexError, DegenerateSquareError) as exc:
        # before ValueError: both degeneracy errors of the numeric modules are ValueErrors
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except ValueError as exc:
        # CliValidationError, and domain errors from the numeric modules
        # (region outside grid, rule over the node cap, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    bundle.meta = {
        "version": __version__,
        "numpy": np.__version__,
        "wall_time_s": time.monotonic() - start,
        "command": args.command,
    }
    try:
        bundle.write(args.out)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for w in bundle.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"ok: wrote report to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
