"""Batch CLI: transform/certify/sharpness/plan-sample/retrieve.

Every command reads a JSON config (`--config`, required), checked in one scan
against the command's table of allowed keys before any computation; every
number in it must be finite.  Outputs are a summary, CSV tables with shortest
round-trip number formatting and a metadata file, each byte-identical across
runs of one config; the wall time goes to stdout only.  Exit codes: 0 success
(warnings allowed), 2 validation failure, 3 numerical degeneracy, overflow or
underflow, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

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
    write_table_csv,
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
    certificate,
)
from .stitching import (
    _UNIT_SQUARE,
    DegenerateSquareError,
    _jet_order,
    min_phase_distance,
    retrieve_phase,
    sharpness_ratio,
    stability_distances,
)
from .tensor_phase import SingularCenterError
from .cubature import (
    _NODE_CAP_EXP,
    apply_rule,
    plan_sampling,
    tensor_product_integral,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERACY = 3
EXIT_IO = 4

DEFAULT_GRID_STEP = 0.05


class CliValidationError(ValueError):
    pass


class NonFiniteResultError(ArithmeticError):
    """A computed field or summary number overflowed to inf or nan."""


class ZeroFieldError(ArithmeticError):
    """The field of a nonzero signal is zero at every grid point (underflow)."""


def _rounding(diff: float, scale: float) -> bool:
    """True if diff is within 1e3 eps of scale: the rounding of the numbers it came from."""
    return abs(diff) <= 1e3 * np.finfo(float).eps * scale


def _finite(value, what: str):
    """value (a number or an array), after checking that all of it is finite."""
    if np.isfinite(value).all():
        return value
    raise NonFiniteResultError(f"{what} is not finite (overflow)")


# ---------------------------------------------------------------------------
# config checks
#
# Each check takes a JSON value, the `where` of its error messages and its
# dotted path, and returns the value in the form the commands use; the first
# bad field raises `<where>: invalid field <path>: <reason>`.  The rules are
# JSON Schema's: a bool is not a number, bounds are strict, and a float with
# zero fraction is an integer.

def _invalid(where: str, path: str, reason: str) -> CliValidationError:
    return CliValidationError(f"{where}: invalid field {path or '(root)'}: {reason}")


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


def _number(v, where: str, path: str, above=None, below=None) -> float:
    """v as a float, after checking it is a finite JSON number strictly between
    `above` and `below` that a float can hold.

    Either bound may be None.  Python's json reads NaN and ±Infinity as
    floats; they are refused here.
    """
    if not _is_number(v):
        raise _invalid(where, path, f"{v!r} is not a number")
    if isinstance(v, float) and not math.isfinite(v):
        raise _invalid(where, path, f"{v!r} is not a finite number")
    if above is not None and v <= above:
        raise _invalid(where, path, f"{v!r} is less than or equal to the minimum of {above!r}")
    if below is not None and v >= below:
        raise _invalid(where, path, f"{v!r} is greater than or equal to the maximum of {below!r}")
    try:
        return float(v)
    except OverflowError:
        raise _invalid(where, path, "integer too large for a float")


_positive = partial(_number, above=0)


def _integer(v, where: str, path: str, minimum: int) -> int:
    """v as an int, after checking it is an integer of at least `minimum`."""
    if not (_is_number(v) and (isinstance(v, int) or v.is_integer())):
        raise _invalid(where, path, f"{v!r} is not an integer")
    if v < minimum:
        raise _invalid(where, path, f"{v!r} is less than the minimum of {minimum}")
    return int(v)


def _one_of(v, where: str, path: str, options: tuple):
    if v not in options:
        raise _invalid(where, path, f"{v!r} is not one of {list(options)!r}")
    return v


def _string(v, where: str, path: str) -> str:
    if not isinstance(v, str):
        raise _invalid(where, path, f"{v!r} is not a string")
    return v


def _items(v, where: str, path: str) -> list:
    """v, after checking it is a nonempty JSON array."""
    if not isinstance(v, list):
        raise _invalid(where, path, f"{v!r} is not an array")
    if not v:
        raise _invalid(where, path, "[] should be non-empty")
    return v


def _fields(obj, where: str, path: str, checks: dict, required: tuple) -> dict:
    """The checked value of each key of a JSON object.

    `checks` maps each allowed key to its check, and every key of `required`
    must be present.  A missing or unexpected key is named in the reason;
    the path is the object's.
    """
    if not isinstance(obj, dict):
        raise _invalid(where, path, f"{obj!r} is not an object")
    for key in required:
        if key not in obj:
            raise _invalid(where, path, f"required key {key!r} is missing")
    out = {}
    for key, value in obj.items():
        if key not in checks:
            raise _invalid(where, path, f"unexpected key {key!r}")
        out[key] = checks[key](value, where, f"{path}.{key}" if path else key)
    return out


def _sample_pairs(samples, where: str, path: str) -> np.ndarray:
    """The samples as a complex array, after checking each is a [re, im] pair.

    A pair is a list of exactly two finite numbers that a float can hold.
    When every entry is a list of two ints or floats, the array comes from
    one conversion; otherwise a scan names the first bad entry as
    `<path>.<k>`.
    """
    samples = _items(samples, where, path)
    if not ({*map(type, samples)} == {list} and {*map(len, samples)} == {2}
            and {*map(type, itertools.chain.from_iterable(samples))} <= {int, float}):
        k, pair = next((k, pair) for k, pair in enumerate(samples)
                       if not (isinstance(pair, list) and len(pair) == 2
                               and _is_number(pair[0]) and _is_number(pair[1])))
        raise _invalid(where, f"{path}.{k}", f"{pair!r} is not a [re, im] pair of numbers")
    try:
        pairs = np.array(samples, dtype=float)
    except OverflowError:
        pairs = None
    if pairs is None or not np.isfinite(pairs).all():
        # name the first pair that is not finite or that a float cannot hold
        for k, (re, im) in enumerate(samples):
            _number(re, where, f"{path}.{k}")
            _number(im, where, f"{path}.{k}")
    # an (n, 2) float array is the (n, 1) complex array of its rows
    return pairs.view(complex)[:, 0]


_ATOM_KEYS = ("re", "im", "shift", "modulation")


def _mixture_atoms(atoms, where: str, path: str) -> tuple[GaussianAtom, ...]:
    """The atoms as GaussianAtoms, after checking each in one scan.

    An atom is an object with exactly the keys re, im, shift and modulation,
    each a number that a float can hold.  The first bad atom is named as
    `<path>.<k>`, or `<path>.<k>.<key>` for a bad, missing or unexpected
    key.
    """
    out = []
    for k, atom in enumerate(_items(atoms, where, path)):
        bad = f"{path}.{k}"
        if not isinstance(atom, dict):
            raise _invalid(where, bad, f"{atom!r} is not an object")
        for key in _ATOM_KEYS:
            if key not in atom:
                raise _invalid(where, f"{bad}.{key}", "required key is missing")
        for key in atom:
            if key not in _ATOM_KEYS:
                raise _invalid(where, f"{bad}.{key}", "unexpected key")
        re, im, shift, modulation = (_number(atom[key], where, f"{bad}.{key}")
                                     for key in _ATOM_KEYS)
        out.append(GaussianAtom(complex(re, im), shift, modulation))
    return tuple(out)


def _kind(v, where: str, path: str) -> str:
    return v  # the signal's form was chosen by it


# the key that decides a signal's form when it has no `kind`, in an
# envelope and in a signal file; and per kind, the checks and required keys
_ENVELOPE_FORMS = {"atoms": "mixture", "samples": "sampled", "path": "path"}
_FILE_FORMS = {"atoms": "mixture", "samples": "sampled"}
_SIGNAL_KINDS = {
    "mixture": ({"kind": _kind, "atoms": _mixture_atoms}, ("atoms",)),
    "sampled": ({"kind": _kind, "t0": _number, "dt": _positive, "samples": _sample_pairs},
                ("t0", "dt", "samples")),
}


def _signal(obj, where: str, path: str, base_dir: Path, forms: dict = _ENVELOPE_FORMS):
    """The signal of an envelope.

    A signal with a `kind` is checked as that kind.  Without one, the key
    that is present decides its form: `atoms` (a mixture), `samples` (a
    sampled signal) or `path`, a JSON file relative to `base_dir` that holds
    a mixture or sampled signal.  A file is checked from the envelope's
    path, with paths inside the file.
    """
    if not isinstance(obj, dict):
        raise _invalid(where, path, f"{obj!r} is not an object")
    if "kind" in obj:
        form = _one_of(obj["kind"], where, path, tuple(_SIGNAL_KINDS))
    else:
        form = next((forms[key] for key in forms if key in obj), None)
        if form is None:
            *most, last = map(repr, forms)
            raise _invalid(where, path, f"required key {', '.join(most)} or {last} is missing")
    if form == "path":
        name = _fields(obj, where, path, {"path": _string}, ("path",))["path"]
        loaded = _load_json(base_dir / name, f"{path} signal")
        return _signal(loaded, path, "", base_dir, _FILE_FORMS)
    checks, required = _SIGNAL_KINDS[form]
    fields = _fields(obj, where, path, checks, required)
    if form == "mixture":
        return GaussianMixtureSignal(fields["atoms"])
    return SampledSignal(fields["samples"], fields["t0"], fields["dt"])


_GRID_CHECKS = {"xmin": _number, "xmax": _number, "ymin": _number, "ymax": _number,
                "step": _positive}


def _bounded_grid(bounds, step: float, where: str, path: str) -> Grid2D:
    """Grid2D.from_bounds(*bounds, step), after checking it has at most 10**7 points."""
    try:
        grid = Grid2D.from_bounds(*bounds, step)
    except ValueError as exc:
        raise _invalid(where, path, str(exc))
    if grid.nx * grid.ny > 10**_NODE_CAP_EXP:
        raise _invalid(where, path, f"{grid.nx} x {grid.ny} points is more than the maximum "
                                    f"of 10**{_NODE_CAP_EXP}")
    return grid


def _grid(obj, where: str, path: str) -> Grid2D:
    fields = _fields(obj, where, path, _GRID_CHECKS, ("xmin", "xmax", "ymin", "ymax"))
    return _bounded_grid([fields[key] for key in ("xmin", "xmax", "ymin", "ymax")],
                         fields.get("step", DEFAULT_GRID_STEP), where, path)


def _grid_step(step, where: str, path: str) -> float:
    """A sharpness grid step, after checking the grid sharpness_ratio spans with it."""
    step = _positive(step, where, path)
    _bounded_grid(_UNIT_SQUARE, step, where, path)
    return step


def _reference_n(n, where: str, path: str) -> int:
    """A reference rule size of at least 10 whose n^2 nodes are at most 10**7."""
    n = _integer(n, where, path, minimum=10)
    if n * n > 10**_NODE_CAP_EXP:
        raise _invalid(where, path, f"{n}^2 nodes is more than the maximum of 10**{_NODE_CAP_EXP}")
    return n


def _centers(centers, where: str, path: str) -> tuple[tuple[float, float], ...]:
    out = []
    for k, center in enumerate(_items(centers, where, path)):
        if not (isinstance(center, list) and len(center) == 2):
            raise _invalid(where, f"{path}.{k}", f"{center!r} is not an [x, y] pair")
        out.append(tuple(_number(c, where, f"{path}.{k}.{i}") for i, c in enumerate(center)))
    return tuple(out)


def _cover(obj, where: str, path: str) -> SquareCover:
    return SquareCover(_fields(obj, where, path, {"centers": _centers}, ("centers",))["centers"])


def _a_value(a, where: str, path: str) -> float:
    a = _positive(a, where, path)
    if a > 3.0:
        raise _invalid(where, path, f"{a!r} is greater than the maximum of 3.0")
    return a


def _a_values(values, where: str, path: str) -> list[float]:
    return [_a_value(a, where, f"{path}.{k}") for k, a in enumerate(_items(values, where, path))]


def _spectrogram(obj, where: str, path: str, signal, grid) -> dict:
    """`{csv}` if the object has a `csv` key, else `{signal, grid}`."""
    if isinstance(obj, dict) and "csv" in obj:
        return _fields(obj, where, path, {"csv": _string}, ("csv",))
    return _fields(obj, where, path, {"signal": signal, "grid": grid}, ("signal", "grid"))


def _check_config(config, args) -> dict:
    """The config's fields in the form the command uses, checked in one scan.

    Each command has one check per allowed key and a tuple of required keys.
    """
    signal = partial(_signal, base_dir=args.base_dir)
    checks, required = {
        "transform": ({"signal": signal, "grid": _grid}, ("signal", "grid")),
        "certify": ({"signal_f": signal, "signal_g": signal, "cover": _cover, "grid": _grid},
                    ("signal_f", "signal_g", "cover", "grid")),
        "sharpness": ({"a_values": _a_values, "grid_step": _grid_step}, ("a_values",)),
        "plan-sample": ({"epsilon": partial(_number, above=0, below=0.5),
                         "square": partial(_fields, checks={"cx": _number, "cy": _number,
                                                            "side": _positive},
                                           required=("cx", "cy", "side")),
                         "signal_f": signal, "signal_g": signal,
                         "reference_n": _reference_n},
                        ("epsilon", "square", "signal_f", "signal_g")),
        "retrieve": ({"spectrogram": partial(_spectrogram, signal=signal, grid=_grid),
                      "cover": _cover,
                      "jet_source": partial(_one_of, options=("analytic", "finite_difference")),
                      "order": partial(_integer, minimum=0),
                      "ground_truth": signal},
                     ("spectrogram", "cover")),
    }[args.command]
    return _fields(config, "config", "", checks, required)


def _field_for(signal, grid: Grid2D) -> SpectrogramField:
    if isinstance(signal, GaussianMixtureSignal):
        return mixture_field(signal, grid)
    return quadrature_gabor(signal, grid)


# ---------------------------------------------------------------------------
# report bundle

@dataclass
class ReportBundle:
    command: str
    config_echo: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # name: {header: column}, for write_table_csv
    fields: dict[str, SpectrogramField] = field(default_factory=dict)
    summary: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add_field(self, name: str, fld: SpectrogramField) -> None:
        _finite(fld.values, f"{name} field")
        self.fields[name] = fld

    def write(self, outdir: Path) -> None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "config_echo.json").write_text(
            json.dumps(self.config_echo, indent=2, sort_keys=True) + "\n"
        )
        for name, columns in self.tables.items():
            write_table_csv(outdir / f"{name}.csv", columns)
        for name, fld in self.fields.items():
            write_field_csv(fld, outdir / f"{name}.csv")
        text = [f"command: {self.command}"] + self.summary
        if self.warnings:
            text.append("warnings:")
            text.extend(f"  - {w}" for w in self.warnings)
        (outdir / "summary.txt").write_text("\n".join(text) + "\n")
        (outdir / "meta.json").write_text(json.dumps(self.meta, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_transform(config, args) -> ReportBundle:
    grid, signal = config["grid"], config["signal"]
    # numpy's warnings are silenced because every result is checked: what
    # overflowed is not finite, and a field that underflowed is all zero
    with np.errstate(over="ignore", invalid="ignore"):
        fld = _field_for(signal, grid)
        spec = spectrogram(fld)
        mass = float(spec.values.sum() * grid.dx * grid.dy)
    nonzero = signal.samples.any() if isinstance(signal, SampledSignal) else \
        any(a.amplitude for a in signal.atoms)
    if nonzero and not fld.values.any():
        raise ZeroFieldError("gabor field of a nonzero signal is zero at every grid point "
                             "(underflow)")
    bundle = ReportBundle("transform")
    bundle.add_field("gabor", fld)
    bundle.add_field("spectrogram", spec)
    _finite(mass, "spectrogram mass")
    bundle.summary.append(f"grid: {grid.nx} x {grid.ny} points, step {grid.dx}")
    bundle.summary.append(f"max |field|: {float(np.abs(fld.values).max())!r}")
    bundle.summary.append(f"spectrogram mass (cell sum): {mass!r}")
    return bundle


def cmd_certify(config, args) -> ReportBundle:
    grid, cover = config["grid"], config["cover"]
    fld_f, fld_g = (_field_for(config[name], grid) for name in ("signal_f", "signal_g"))
    spec_f, spec_g = spectrogram(fld_f), spectrogram(fld_g)
    _finite(spec_f.values, "signal_f spectrogram")
    _finite(spec_g.values, "signal_g spectrogram")
    # the measured side of the bound on the cover's union, taken first so that
    # the transform fields are freed before the certificate is built
    rects = cover.rects()
    dist, sqrt_specdiff = stability_distances(fld_f, fld_g, rects)
    del fld_f, fld_g
    cert = certificate(spec_f, spec_g, cover)
    norm_f = region_norm(spec_f, rects, 2)
    _finite(np.array([dist, sqrt_specdiff, norm_f]), "measured ratio")
    measured = ("unresolved (||S_f - S_g|| <= 1e3 eps ||S_f|| on the union)"
                if _rounding(sqrt_specdiff ** 2, norm_f) else repr(dist / sqrt_specdiff))
    bundle = ReportBundle("certify")
    names, values = zip(*cert.rows())
    bundle.tables["certificate"] = {"quantity": names, "value": values}
    g = cert.graph
    i, j = g.edges()
    bundle.tables["vertices"] = {"i": np.arange(g.n), "w": g.w}
    bundle.tables["edges"] = {"i": i, "j": j, "sigma": g.sigma[i, j]}
    bundle.summary.append(f"squares: {cert.nu}, union area: {cert.vol_omega!r}")
    bundle.summary.append(f"bound_lambda: {cert.bound_lambda!r}")
    bundle.summary.append(f"bound_cheeger: {cert.bound_cheeger!r}")
    bundle.summary.append(f"measured dist / ||S_f - S_g||^(1/2): {measured}")
    if math.isinf(cert.bound_cheeger):
        bundle.warnings.append("disconnected cover: certificate bounds are infinite")
    return bundle


def cmd_sharpness(config, args) -> ReportBundle:
    a_values = config["a_values"]
    step = config.get("grid_step", 0.02)
    dist, sqrt_specdiff = np.array([sharpness_ratio(a, step) for a in a_values]).T
    ratio = dist / sqrt_specdiff
    log_ratio = np.array([math.log(r) for r in ratio.tolist()])  # libm's log, not numpy's SIMD one
    bundle = ReportBundle("sharpness")
    bundle.tables["sharpness"] = {"a": a_values, "dist": dist, "sqrt_specdiff": sqrt_specdiff,
                                  "ratio": ratio, "log_ratio": log_ratio}
    if len(set(a_values)) >= 2:  # a slope needs two distinct a values
        slope = float(np.polyfit(a_values, log_ratio, 1)[0])
        bundle.summary.append(f"log-ratio regression slope: {slope!r}")
        bundle.summary.append(f"slope / pi: {slope / math.pi!r}")
    else:
        bundle.summary.append("single a value; no regression slope")
    bundle.summary.append(f"grid step: {step!r}")
    return bundle


def cmd_plan_sample(config, args) -> ReportBundle:
    sig_f, sig_g, square = config["signal_f"], config["signal_g"], config["square"]
    if not isinstance(sig_f, GaussianMixtureSignal) or not isinstance(sig_g, GaussianMixtureSignal):
        raise CliValidationError("plan-sample requires mixture signals (closed-form evaluation)")
    center = (square["cx"], square["cy"])
    kappa = _finite(l2_norm(sig_f) ** 2 + l2_norm(sig_g) ** 2, "kappa (signal energy)")
    plan = plan_sampling(config["epsilon"], square["side"], kappa, center)

    def spec_diff_sq(x, y):
        sf = np.abs(gabor_closed_form(sig_f, x, y)) ** 2
        sg = np.abs(gabor_closed_form(sig_g, x, y)) ** 2
        return (sf - sg) ** 2

    ref_n = config.get("reference_n", 400)
    exact = tensor_product_integral(spec_diff_sq, ref_n, square["side"], center)
    discrete_sq = apply_rule(spec_diff_sq, plan.rule)  # sum of v^2 w over the nodes
    achieved = exact - discrete_sq
    discrete = math.sqrt(discrete_sq)
    continuum = math.sqrt(exact)
    if ref_n <= plan.n:
        achieved_text = "not measured (reference_n <= N)"
    elif _rounding(achieved, exact):
        achieved_text = "unresolved (|E| <= 1e3 eps * integral)"
    else:
        achieved_text = repr(abs(achieved))

    bundle = ReportBundle("plan-sample")
    nodes, n = plan.rule.base.nodes, plan.n  # in x-major order, as the weights
    bundle.tables["nodes"] = {"x": np.repeat(nodes + center[0], n),
                              "y": np.tile(nodes + center[1], n), "w": plan.rule.weights}
    bundle.tables["plan"] = {
        "quantity": ["N", "node_count", "epsilon", "epsilon4", "kappa", "predicted_error",
                     "achieved_error", "discrete_norm", "continuum_norm"],
        "value": [float(plan.n), float(plan.n ** 2), plan.epsilon, plan.epsilon ** 4, plan.kappa,
                  plan.predicted_error, achieved, discrete, continuum],
    }
    bundle.summary.append(f"N = {plan.n} ({plan.n ** 2} nodes)")
    bundle.summary.append(f"predicted error bound: {plan.predicted_error!r} <= eps^4 = {plan.epsilon ** 4!r}")
    bundle.summary.append(f"achieved |E|: {achieved_text}")
    bundle.summary.append(f"discrete norm {discrete!r} vs continuum {continuum!r}")
    return bundle


def cmd_retrieve(config, args) -> ReportBundle:
    spec_cfg = config["spectrogram"]
    truth, ref = config.get("ground_truth"), None
    jet_source = config.get("jet_source", "analytic")
    try:
        order = _jet_order(jet_source, config.get("order"))
    except ValueError as exc:
        raise _invalid("config", "order", str(exc)) from None
    if truth is not None and not isinstance(truth, GaussianMixtureSignal):
        raise CliValidationError("ground_truth must be a mixture signal")
    if "csv" in spec_cfg:
        path = args.base_dir / spec_cfg["csv"]
        if not path.exists():
            raise CliValidationError(f"spectrogram csv not found: {path}")
        spec = read_field_csv(path)
        if spec.kind != "spectrogram":
            raise CliValidationError("spectrogram csv must have header x,y,s")
    else:
        sig = spec_cfg["signal"]
        fld = _field_for(sig, spec_cfg["grid"])
        spec = spectrogram(fld)
        _finite(spec.values, "spectrogram")
        if truth is None and isinstance(sig, GaussianMixtureSignal):
            # the oracle is the mixture's own field, on the grid of the result
            truth, ref = sig, fld
    cover = config["cover"]
    if jet_source == "analytic" and truth is None:
        raise CliValidationError("analytic jets require a mixture signal or ground_truth")
    result = retrieve_phase(spec, cover, jet_source, order, signal=truth)
    bundle = ReportBundle("retrieve")
    bundle.add_field("retrieved", result.field)
    bundle.summary.append(f"components: {len(result.components)}")
    bundle.warnings.extend(result.warnings)
    if truth is not None:
        if ref is None:
            ref = mixture_field(truth, result.field.grid)
        rects = cover.rects()
        _, dist = min_phase_distance(ref, result.field, rects)
        ref_norm = region_norm(ref, rects, 2)
        rel = dist / ref_norm if ref_norm > 0 else math.inf
        bundle.tables["oracle"] = {"quantity": ["distance", "reference_norm", "relative_error"],
                                   "value": [dist, ref_norm, rel]}
        bundle.summary.append(f"relative error vs oracle: {rel!r}")
    return bundle


COMMANDS = {
    "transform": cmd_transform,
    "certify": cmd_certify,
    "sharpness": cmd_sharpness,
    "plan-sample": cmd_plan_sample,
    "retrieve": cmd_retrieve,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborcert",
        description="Spectrogram phase retrieval, stability certificates, and sampling plans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, required=True, help="JSON config file")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default ./out)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        args.base_dir = args.config.parent
        config = _load_json(args.config, "config")
        bundle = COMMANDS[args.command](_check_config(config, args), args)
    except (DegenerateVertexError, DegenerateSquareError, SingularCenterError,
            NonFiniteResultError, ZeroFieldError) as exc:
        # before ValueError: the numeric modules' degeneracy errors are ValueErrors
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

    wall_time_s = time.monotonic() - start
    bundle.config_echo = config
    # no run-dependent value: every output file is a function of the config
    bundle.meta = {"version": __version__, "numpy": np.__version__, "command": args.command}
    try:
        bundle.write(args.out)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for w in bundle.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"ok: wrote report to {args.out} (wall time {wall_time_s!r} s)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
