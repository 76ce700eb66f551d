import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaborcert import (
    GaussianAtom,
    GaussianMixtureSignal,
    Grid2D,
    make_sharpness_pair,
    mixture_field,
    spectrogram,
)
from gaborcert import cli
from gaborcert.cli import _bounded_grid, _reference_n, _sample_pairs, main
from gaborcert.cubature import plan_sampling
from gaborcert.gabor_engine import SampledSignal, quadrature_gabor, read_field_csv
from gaborcert.signal_model import gabor_closed_form, l2_norm
from gaborcert.stability_graph import SquareCover, certificate
from gaborcert.stitching import retrieve_phase

from oracles import (
    field_csv_bytes,
    measured_ratio,
    product_rule_points,
    sharpness_strip,
    table_csv_bytes,
)

ATOM_MIXTURE = {"kind": "mixture",
                "atoms": [{"re": 1.0, "im": 0.0, "shift": 0.0, "modulation": 0.0}]}
GRID = {"xmin": -1.0, "xmax": 1.0, "ymin": -1.0, "ymax": 1.0, "step": 0.05}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run(tmp_path, command, payload, outname="out", extra=()):
    cfg = write_config(tmp_path, f"{command}.json", payload)
    out = tmp_path / outname
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def test_transform_row_count(tmp_path):
    code, out = run(tmp_path, "transform", {"signal": ATOM_MIXTURE, "grid": GRID})
    assert code == 0
    lines = (out / "gabor.csv").read_text().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 41 * 41 + 1
    spec_lines = (out / "spectrogram.csv").read_text().splitlines()
    assert spec_lines[0] == "x,y,s"
    assert len(spec_lines) == 41 * 41 + 1


def test_field_csvs_match_cellwise_format(tmp_path):
    grid = {"xmin": -0.85, "xmax": 0.85, "ymin": -0.85, "ymax": 0.85, "step": 0.05}
    code, out_t = run(tmp_path, "transform", {"signal": ATOM_MIXTURE, "grid": grid}, "out_t")
    assert code == 0
    fld = mixture_field(GaussianMixtureSignal((GaussianAtom(1.0),)),
                        Grid2D.from_bounds(-0.85, 0.85, -0.85, 0.85, 0.05))
    assert (out_t / "gabor.csv").read_bytes() == field_csv_bytes(fld)
    assert (out_t / "spectrogram.csv").read_bytes() == field_csv_bytes(spectrogram(fld))
    centers = [[-0.3, -0.3], [-0.3, 0.3], [0.3, -0.3], [0.3, 0.3]]
    payload = {"spectrogram": {"csv": str(out_t / "spectrogram.csv")},
               "cover": {"centers": centers}, "jet_source": "finite_difference", "order": 4}
    code, out_r = run(tmp_path, "retrieve", payload, "out_r")
    assert code == 0
    result = retrieve_phase(read_field_csv(out_t / "spectrogram.csv"),
                            SquareCover(tuple(map(tuple, centers))), "finite_difference", 4)
    assert (out_r / "retrieved.csv").read_bytes() == field_csv_bytes(result.field)


def test_transform_malformed_signal_names_field(tmp_path, capsys):
    payload = {"signal": {"kind": "mixture",
                          "atoms": [{"re": 1.0, "im": 0.0, "shift": "oops", "modulation": 0.0}]},
               "grid": GRID}
    code, out = run(tmp_path, "transform", payload, outname="out_bad")
    assert code == 2
    assert "shift" in capsys.readouterr().err
    assert not out.exists()  # validation failures leave no partial outputs


def test_transform_signal_path_indirection(tmp_path):
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps({"atoms": ATOM_MIXTURE["atoms"]}))
    code, out = run(tmp_path, "transform", {"signal": {"path": "sig.json"}, "grid": GRID})
    assert code == 0
    assert (out / "gabor.csv").exists()


def test_transform_sampled_matches_mixture(tmp_path):
    t0, dt, n = -6.0, 0.01, 1201
    t = t0 + dt * np.arange(n)
    samples = [[float(np.exp(-np.pi * tt * tt)), 0.0] for tt in t]
    sampled = {"kind": "sampled", "t0": t0, "dt": dt, "samples": samples}
    coarse = {"xmin": -0.8, "xmax": 0.8, "ymin": -0.8, "ymax": 0.8, "step": 0.2}
    _, out_m = run(tmp_path, "transform", {"signal": ATOM_MIXTURE, "grid": coarse}, "out_m")
    _, out_s = run(tmp_path, "transform", {"signal": sampled, "grid": coarse}, "out_s")
    a = np.loadtxt(out_m / "gabor.csv", delimiter=",", skiprows=1)
    b = np.loadtxt(out_s / "gabor.csv", delimiter=",", skiprows=1)
    assert np.abs(a[:, 2:] - b[:, 2:]).max() < 1e-6


def _sampled(samples):
    return {"kind": "sampled", "t0": -1.0, "dt": 0.25, "samples": samples}


def _signal_forms(tmp_path, signal):
    """The signal given inline and by path, as (form, envelope) pairs."""
    (tmp_path / "sig.json").write_text(json.dumps(signal))
    return [("inline", signal), ("path", {"path": "sig.json"})]


def test_transform_sampled_bytes_match_cellwise_format(tmp_path):
    samples = [[math.exp(-math.pi * t * t), 0.1 * t] for t in -1.0 + 0.25 * np.arange(9)]
    code, out = run(tmp_path, "transform", {"signal": _sampled(samples), "grid": GRID})
    assert code == 0
    fld = quadrature_gabor(SampledSignal(tuple(complex(re, im) for re, im in samples), -1.0, 0.25),
                           Grid2D.from_bounds(-1.0, 1.0, -1.0, 1.0, 0.05))
    assert (out / "gabor.csv").read_bytes() == field_csv_bytes(fld)
    assert (out / "spectrogram.csv").read_bytes() == field_csv_bytes(spectrogram(fld))


@pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], "re,im", True, 5.0],
                         ids=["three-numbers", "string", "true", "scalar"])
def test_transform_malformed_sample_names_index(tmp_path, capsys, bad):
    samples = [[1.0, 0.0]] * 3 + [bad] + [[0.5, -0.5]] * 2
    for form, signal in _signal_forms(tmp_path, _sampled(samples)):
        code, out = run(tmp_path, "transform", {"signal": signal, "grid": GRID}, f"out_{form}")
        assert code == 2, form
        assert not out.exists(), form
        err = capsys.readouterr().err
        assert any("samples.3" in line for line in err.splitlines()), (form, err)


def test_transform_nan_sample_rejected(tmp_path):
    samples = [[1.0, 0.0]] * 3 + [[float("nan"), 0.0]] + [[0.5, -0.5]] * 2
    for form, signal in _signal_forms(tmp_path, _sampled(samples)):
        code, out = run(tmp_path, "transform", {"signal": signal, "grid": GRID}, f"out_{form}")
        assert code == 2, form
        assert not out.exists(), form


def test_transform_empty_sampled_signal_names_samples(tmp_path, capsys):
    for form, signal in _signal_forms(tmp_path, _sampled([])):
        code, out = run(tmp_path, "transform", {"signal": signal, "grid": GRID}, f"out_{form}")
        assert code == 2, form
        assert not out.exists(), form
        err = capsys.readouterr().err
        assert "invalid field " + ("signal.samples" if form == "inline" else "samples") in err, err
        assert "kind" not in err, err


# a JSON integer of 401 digits: a valid number that no float can hold
HUGE_INT = 10 ** 400


def test_transform_sample_too_large_for_float_names_index(tmp_path, capsys):
    samples = [[1.0, 0.0]] * 3 + [[HUGE_INT, 0]] + [[0.5, -0.5]] * 2
    for form, signal in _signal_forms(tmp_path, _sampled(samples)):
        code, out = run(tmp_path, "transform", {"signal": signal, "grid": GRID}, f"out_{form}")
        assert code == 2, form
        assert not out.exists(), form
        err = capsys.readouterr().err
        field = "signal.samples.3" if form == "inline" else "invalid field samples.3"
        assert field in err and "too large" in err, (form, err)
    signal = dict(_sampled([[1.0, 0.0]]), t0=-HUGE_INT)
    code, out = run(tmp_path, "transform", {"signal": signal, "grid": GRID}, "out_t0")
    assert code == 2 and not out.exists()
    assert "invalid field signal.t0: integer too large" in capsys.readouterr().err


def test_sample_pairs_convert_like_complex_of_floats():
    # the one-pass conversion gives the bits of complex(float(re), float(im)),
    # for signed zeros, subnormals and ints past 2**53 and past int64
    values = [0, -0.0, 1, -1, 2**53 + 1, 2**60 + 1, -(2**63) - 1, 2**70 + 3, 10**300 + 7,
              5e-324, 1e-310, 0.1]
    samples = [[re, im] for re, im in zip(values, reversed(values))]
    got = _sample_pairs(samples, "config", "samples")
    want = np.array([complex(float(re), float(im)) for re, im in samples])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


GOOD_ATOM = ATOM_MIXTURE["atoms"][0]


@pytest.mark.parametrize("bad, path, reason", [
    (dict(GOOD_ATOM, shift=HUGE_INT), "2.shift", "too large for a float"),
    (dict(GOOD_ATOM, re=True), "2.re", "is not a number"),
    (dict(GOOD_ATOM, modulation="0"), "2.modulation", "is not a number"),
    (dict(GOOD_ATOM, im=None), "2.im", "is not a number"),
    (dict(GOOD_ATOM, phase=0.0), "2.phase", "unexpected key"),
    ({k: v for k, v in GOOD_ATOM.items() if k != "shift"}, "2.shift", "required key is missing"),
    ([1.0, 0.0, 0.0, 0.0], "2", "is not an object"),
], ids=["huge-shift", "bool-re", "string-modulation", "null-im", "extra-key", "missing-key",
        "not-object"])
def test_transform_malformed_atom_names_field(tmp_path, capsys, bad, path, reason):
    mixture = {"kind": "mixture", "atoms": [GOOD_ATOM, GOOD_ATOM, bad, GOOD_ATOM]}
    for form, signal in _signal_forms(tmp_path, mixture):
        code, out = run(tmp_path, "transform", {"signal": signal, "grid": GRID}, f"out_{form}")
        assert code == 2, form
        assert not out.exists(), form
        err = capsys.readouterr().err
        where = ("config: invalid field signal.atoms." if form == "inline"
                 else "signal: invalid field atoms.")
        assert f"{where}{path}: " in err and reason in err, (form, err)


def test_malformed_field_csv_rejected(tmp_path, capsys):
    cases = {"header-only": ("x,y,s\n", "field CSV has no rows"),
             # an unknown header fails before the body is read, whatever the body holds
             "unknown-column": ("x,y,a\n0.0,0.0,1.0\n", "unrecognized field CSV header"),
             "header-only-mixed": ("x,y,re,s\n", "unrecognized field CSV header"),
             "ragged": ("x,y,s\n0.0,0.0,1.0\n0.0,1.0\n", None),
             "non-numeric": ("x,y,s\n0.0,0.0,1.0\n0.0,1.0,one\n", None),
             "too-few-columns": ("x,y,s\n0.0,0.0\n0.0,1.0\n", "columns"),
             "nan-value": ("x,y,s\n0.0,0.0,1.0\n0.0,1.0,nan\n", "data row 2 has a non-finite cell"),
             "inf-coordinate": ("x,y,s\n0.0,0.0,1.0\n-inf,1.0,1.0\n", "data row 2 has a non-finite cell"),
             # as many rows as a 2 x 2 grid has cells, but (0, 0) and (1, 1) twice
             "repeated-cells": ("x,y,s\n0.0,0.0,1.0\n0.0,0.0,2.0\n1.0,1.0,3.0\n1.0,1.0,4.0\n",
                                "field CSV does not cover a full grid")}
    for name, (text, message) in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_field_csv(path)
        payload = {"spectrogram": {"csv": path.name}, "cover": {"centers": [[0.0, 0.0]]},
                   "jet_source": "finite_difference", "order": 4}
        code, out = run(tmp_path, "retrieve", payload, f"out_{name}")
        assert code == 2, name
        assert not out.exists(), name
        assert capsys.readouterr().err.startswith("error: "), name


@pytest.mark.parametrize("grid, axis", [
    (dict(GRID, xmin=0.0, xmax=0.01), "x"),
    (dict(GRID, ymin=0.0, ymax=0.01), "y"),
], ids=["one-column", "one-row"])
def test_retrieve_rejects_a_field_csv_with_a_one_coordinate_axis(tmp_path, capsys, grid, axis):
    # transform writes a 1 x 41 (or 41 x 1) field; one coordinate gives no cell width, so any
    # step read back for that axis would be made up (a step of 1.0 gives cells holding the square)
    code, out_t = run(tmp_path, "transform", {"signal": ATOM_MIXTURE, "grid": grid}, "out_t")
    assert code == 0
    assert len((out_t / "spectrogram.csv").read_text().splitlines()) == 41 + 1
    with pytest.raises(ValueError, match=f"{axis} axis has one coordinate"):
        read_field_csv(out_t / "spectrogram.csv")
    payload = {"spectrogram": {"csv": str(out_t / "spectrogram.csv")},
               "cover": {"centers": [[0.0, 0.0]]}, "ground_truth": ATOM_MIXTURE}
    capsys.readouterr()
    code, out_r = run(tmp_path, "retrieve", payload, "out_r")
    assert code == 2
    assert not out_r.exists()
    assert capsys.readouterr().err.startswith(f"error: {axis} axis has one coordinate")


def test_grid_span_too_many_steps_exits_2(tmp_path, capsys):
    grid = dict(GRID, xmin=-1e308, xmax=1e308)
    code, out = run(tmp_path, "transform", {"signal": ATOM_MIXTURE, "grid": grid})
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config: invalid field grid: grid span is not a finite number of steps" in err, err


def test_missing_config_file(tmp_path, capsys):
    code = main(["retrieve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def _measured(out) -> str:
    """What certify's summary reports for dist / ||S_f - S_g||^(1/2)."""
    prefix = "measured dist / ||S_f - S_g||^(1/2): "
    return next(line[len(prefix):] for line in (out / "summary.txt").read_text().splitlines()
                if line.startswith(prefix))


def test_certify_connected(tmp_path):
    payload = {
        "signal_f": ATOM_MIXTURE,
        "signal_g": {"kind": "mixture",
                     "atoms": [{"re": 0.9, "im": 0.1, "shift": 0.1, "modulation": 0.0}]},
        "cover": {"centers": [[-0.3, -0.3], [-0.3, 0.3], [0.3, -0.3], [0.3, 0.3]]},
        "grid": {"xmin": -2.5, "xmax": 2.5, "ymin": -2.5, "ymax": 2.5, "step": 0.05},
    }
    code, out = run(tmp_path, "certify", payload)
    assert code == 0
    rows = dict(line.split(",") for line in (out / "certificate.csv").read_text().splitlines()[1:])
    assert math.isfinite(float(rows["bound_cheeger"]))
    # the square edges sit on cell centres, where point-sampled coverage is exact
    ratio = measured_ratio(GaussianMixtureSignal((GaussianAtom(1.0),)),
                           GaussianMixtureSignal((GaussianAtom(0.9 + 0.1j, 0.1),)),
                           Grid2D.from_bounds(-2.5, 2.5, -2.5, 2.5, 0.05),
                           SquareCover(tuple(map(tuple, payload["cover"]["centers"]))).rects())
    assert float(_measured(out)) == pytest.approx(ratio, rel=1e-6)
    # M, L, nu re-derivable from the emitted vertex/edge lists
    verts = np.loadtxt(out / "vertices.csv", delimiter=",", skiprows=1, ndmin=2)
    assert float(rows["M"]) == pytest.approx(float(np.sum(verts[:, 1] ** -2.0)), rel=1e-9)
    assert int(float(rows["nu"])) == len(verts)
    edges = np.loadtxt(out / "edges.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(edges) == 6  # 4 pairwise overlaps + 2 diagonals of the 2x2 cover


def _strip_payload(a: float) -> dict:
    """certify's config for the sharpness pair on oracles.sharpness_strip(a)."""
    cover, _ = sharpness_strip(a)

    def mixture(sig):
        return {"kind": "mixture", "atoms": [
            {"re": atom.amplitude.real, "im": atom.amplitude.imag, "shift": atom.shift,
             "modulation": atom.modulation} for atom in sig.atoms]}

    f, g = make_sharpness_pair(a)
    return {
        "signal_f": mixture(f),
        "signal_g": mixture(g),
        "cover": {"centers": [list(c) for c in cover.centers]},
        "grid": {"xmin": -a - 2.5, "xmax": a + 2.5, "ymin": -2.5, "ymax": 2.5, "step": 0.05},
    }


def test_certify_weakly_connected_strip_does_not_warn(tmp_path, capsys):
    code, out = run(tmp_path, "certify", _strip_payload(4.0))
    assert code == 0
    assert "disconnected" not in capsys.readouterr().err
    rows = dict(line.split(",") for line in (out / "certificate.csv").read_text().splitlines()[1:])
    assert float(rows["cheeger"]) > 0
    assert math.isfinite(float(rows["bound_cheeger"]))


@pytest.mark.parametrize("a, resolved", [(2.0, True), (3.0, True), (4.0, False), (4.5, False),
                                         (6.0, False)])
def test_certify_strip_measured_ratio_against_the_bounds(tmp_path, a, resolved):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(tmp_path, "certify", _strip_payload(a))
    assert code == 0
    if not resolved:  # ||S_f - S_g|| is the rounding of the fields
        assert _measured(out).startswith("unresolved")
        return
    rows = dict(line.split(",") for line in (out / "certificate.csv").read_text().splitlines()[1:])
    ratio = float(_measured(out))
    assert float(rows["bound_lambda"]) >= ratio and float(rows["bound_cheeger"]) >= ratio


def test_certify_disconnected_warns(tmp_path, capsys):
    # identical signals: the measured ratio is 0 / 0, reported as unresolved
    payload = {
        "signal_f": ATOM_MIXTURE,
        "signal_g": ATOM_MIXTURE,
        "cover": {"centers": [[-1.5, 0.0], [1.5, 0.0]]},
        "grid": {"xmin": -2.5, "xmax": 2.5, "ymin": -2.5, "ymax": 2.5, "step": 0.05},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(tmp_path, "certify", payload)
    assert code == 0
    assert capsys.readouterr().err == "warning: disconnected cover: certificate bounds are infinite\n"
    assert _measured(out).startswith("unresolved")
    rows = dict(line.split(",") for line in (out / "certificate.csv").read_text().splitlines()[1:])
    assert math.isinf(float(rows["bound_cheeger"]))
    assert "disconnected" in (out / "summary.txt").read_text()


def test_certify_degenerate_square_exit_code(tmp_path, capsys):
    # the far square is distant enough that the spectrogram underflows to 0
    payload = {
        "signal_f": ATOM_MIXTURE,
        "signal_g": ATOM_MIXTURE,
        "cover": {"centers": [[0.0, 0.0], [11.5, 11.5]]},
        "grid": {"xmin": -12.5, "xmax": 12.5, "ymin": -12.5, "ymax": 12.5, "step": 0.1},
    }
    code, _ = run(tmp_path, "certify", payload)
    assert code == 3
    assert "indices [1]" in capsys.readouterr().err


def test_sharpness_command(tmp_path):
    payload = {"a_values": [0.5, 1.0], "grid_step": 0.05}
    code, out = run(tmp_path, "sharpness", payload)
    assert code == 0
    lines = (out / "sharpness.csv").read_text().splitlines()
    assert lines[0] == "a,dist,sqrt_specdiff,ratio,log_ratio"
    assert len(lines) == 3
    assert "regression slope" in (out / "summary.txt").read_text()


def test_sharpness_refinement_stability(tmp_path):
    ratios = []
    for step, name in ((0.04, "c"), (0.02, "f")):
        code, out = run(tmp_path, "sharpness", {"a_values": [1.0], "grid_step": step}, f"out_{name}")
        assert code == 0
        row = (out / "sharpness.csv").read_text().splitlines()[1].split(",")
        ratios.append(float(row[3]))
    assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.01


def test_sharpness_fits_no_slope_to_one_distinct_a_value(tmp_path):
    # a repeated a value is one point: its report is that of the single value
    for name, a_values in (("out_1", [1.0]), ("out_2", [1.0, 1.0])):
        code, out = run(tmp_path, "sharpness", {"a_values": a_values, "grid_step": 0.1}, name)
        assert code == 0
    summary = (tmp_path / "out_2" / "summary.txt").read_bytes()
    assert summary == (tmp_path / "out_1" / "summary.txt").read_bytes()
    assert b"single a value; no regression slope" in summary


def test_sharpness_empty_range_rejected(tmp_path):
    code, _ = run(tmp_path, "sharpness", {"a_values": []}, "out_e")
    assert code == 2
    code, _ = run(tmp_path, "sharpness", {"a_values": [3.5]}, "out_r")
    assert code == 2


@pytest.mark.xfail(strict=True, reason="measured sharpness-ratio growth on the unit "
                   "square is e^(pi a / 2); the asserted e^(pi a) window cannot hold")
def test_sharpness_slope_in_window(tmp_path):
    payload = {"a_values": [0.5, 1.0, 1.5, 2.0], "grid_step": 0.02}
    code, out = run(tmp_path, "sharpness", payload, "out_w")
    assert code == 0
    summary = (out / "summary.txt").read_text()
    slope = float(summary.split("regression slope: ")[1].splitlines()[0])
    assert 0.95 * math.pi <= slope <= 1.3 * math.pi


SHARP_F = {"kind": "mixture", "atoms": [
    {"re": 2**-0.5, "im": 0.0, "shift": -1.0, "modulation": 0.0},
    {"re": 2**-0.5, "im": 0.0, "shift": 1.0, "modulation": 0.0}]}
SHARP_G = {"kind": "mixture", "atoms": [
    {"re": 2**-0.5, "im": 0.0, "shift": -1.0, "modulation": 0.0},
    {"re": -(2**-0.5), "im": 0.0, "shift": 1.0, "modulation": 0.0}]}


def test_plan_sample_command(tmp_path):
    payload = {"epsilon": 0.25, "square": {"cx": 0.0, "cy": 0.0, "side": 1.0},
               "signal_f": SHARP_F, "signal_g": SHARP_G, "reference_n": 200}
    code, out = run(tmp_path, "plan-sample", payload)
    assert code == 0
    plan = dict(line.split(",") for line in (out / "plan.csv").read_text().splitlines()[1:])
    n = int(float(plan["N"]))
    assert abs(float(plan["achieved_error"])) <= 0.25**4
    assert int(float(plan["node_count"])) == n * n
    node_lines = (out / "nodes.csv").read_text().splitlines()
    assert len(node_lines) == n * n + 1
    assert float(plan["predicted_error"]) <= float(plan["epsilon4"])


def _plan_report(out) -> tuple[dict, str]:
    """plan-sample's plan.csv as floats, and what its summary reports for |E|."""
    plan = {k: float(v) for k, v in
            (line.split(",") for line in (out / "plan.csv").read_text().splitlines()[1:])}
    prefix = "achieved |E|: "
    achieved = next(line[len(prefix):] for line in (out / "summary.txt").read_text().splitlines()
                    if line.startswith(prefix))
    return plan, achieved


def _scaled(sig: dict, c: float) -> dict:
    return {"kind": "mixture", "atoms": [dict(a, re=c * a["re"], im=c * a["im"])
                                         for a in sig["atoms"]]}


def test_plan_sample_reports_a_resolved_error(tmp_path):
    # kappa ~ 2e-6 lets the bound's first rule, N = 1, meet eps^4; its error is far above rounding
    payload = {"epsilon": 0.25, "square": {"cx": 0.0, "cy": 0.0, "side": 1.0},
               "signal_f": _scaled(SHARP_F, 1e-3), "signal_g": _scaled(SHARP_G, 1e-3),
               "reference_n": 60}
    code, out = run(tmp_path, "plan-sample", payload)
    assert code == 0
    plan, achieved = _plan_report(out)
    assert plan["N"] == 1.0
    assert achieved == repr(abs(plan["achieved_error"]))
    assert abs(plan["achieved_error"]) > 1e3 * np.finfo(float).eps * plan["continuum_norm"] ** 2
    assert abs(plan["achieved_error"]) <= plan["predicted_error"] <= plan["epsilon4"]


def test_plan_sample_reports_an_unresolved_error(tmp_path):
    code, out = run(tmp_path, "plan-sample", dict(PLAN, reference_n=200))
    assert code == 0
    plan, achieved = _plan_report(out)
    assert plan["N"] < 200
    assert achieved == "unresolved (|E| <= 1e3 eps * integral)"
    assert abs(plan["achieved_error"]) <= 1e3 * np.finfo(float).eps * plan["continuum_norm"] ** 2


def test_plan_sample_does_not_measure_against_a_coarser_reference(tmp_path):
    code, out = run(tmp_path, "plan-sample", PLAN)
    assert code == 0
    plan, achieved = _plan_report(out)
    assert plan["N"] >= PLAN["reference_n"]
    assert achieved == "not measured (reference_n <= N)"
    assert math.isfinite(plan["achieved_error"])  # plan.csv keeps its signed number


def test_plan_sample_evaluates_closed_forms_on_open_meshes(tmp_path, monkeypatch):
    shapes = []

    def recording(sig, x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return gabor_closed_form(sig, x, y)

    monkeypatch.setattr(cli, "gabor_closed_form", recording)
    code, out = run(tmp_path, "plan-sample", PLAN)
    assert code == 0
    n = int(_plan_report(out)[0]["N"])
    # both signals on the reference rule's mesh and on the plan's
    m = PLAN["reference_n"]
    assert sorted(shapes) == sorted([((m, 1), (1, m))] * 2 + [((n, 1), (1, n))] * 2)


def test_plan_sample_epsilon_validation(tmp_path):
    payload = {"epsilon": 0.6, "square": {"cx": 0.0, "cy": 0.0, "side": 1.0},
               "signal_f": SHARP_F, "signal_g": SHARP_G}
    code, _ = run(tmp_path, "plan-sample", payload)
    assert code == 2


@pytest.mark.parametrize("side", [20.0, 1e6])
def test_plan_sample_over_node_cap_exits_2(tmp_path, capsys, side):
    payload = {"epsilon": 0.1, "square": {"cx": 0.0, "cy": 0.0, "side": side},
               "signal_f": SHARP_F, "signal_g": SHARP_G}
    code, out = run(tmp_path, "plan-sample", payload)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: the smallest rule meeting epsilon^4 needs more than 10**7 nodes\n")


def _with_value(payload, path, value):
    """Deep copy of payload with the entry at dotted `path` set to value."""
    out = json.loads(json.dumps(payload))
    *head, last = path.split(".")
    node = out
    for key in head:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return out


TWO_SQUARES = {"centers": [[-0.3, 0.0], [0.3, 0.0]]}


@pytest.mark.parametrize("command, payload, path", [
    ("transform", {"signal": ATOM_MIXTURE, "grid": GRID}, "grid.xmax"),
    ("certify", {"signal_f": ATOM_MIXTURE, "signal_g": ATOM_MIXTURE,
                 "cover": TWO_SQUARES, "grid": GRID}, "cover.centers.1.0"),
    ("sharpness", {"a_values": [0.5, 1.0]}, "grid_step"),
    ("sharpness", {"a_values": [0.5, 1.0]}, "a_values.1"),
    ("plan-sample", {"epsilon": 0.25, "square": {"cx": 0.0, "cy": 0.0, "side": 1.0},
                     "signal_f": SHARP_F, "signal_g": SHARP_G}, "square.side"),
    ("plan-sample", {"epsilon": 0.25, "square": {"cx": 0.0, "cy": 0.0, "side": 1.0},
                     "signal_f": SHARP_F, "signal_g": SHARP_G}, "square.cx"),
    ("retrieve", {"spectrogram": {"signal": ATOM_MIXTURE, "grid": GRID},
                  "cover": TWO_SQUARES}, "spectrogram.grid.step"),
    ("retrieve", {"spectrogram": {"signal": ATOM_MIXTURE, "grid": GRID},
                  "cover": TWO_SQUARES}, "cover.centers.0.1"),
], ids=["transform-grid", "certify-center", "sharpness-step", "sharpness-a", "plan-side",
        "plan-cx", "retrieve-step", "retrieve-center"])
def test_number_too_large_for_float_names_field(tmp_path, capsys, command, payload, path):
    code, out = run(tmp_path, command, _with_value(payload, path, HUGE_INT))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"config: invalid field {path}: integer too large for a float" in err, err


def test_retrieve_command_with_oracle(tmp_path):
    payload = {
        "spectrogram": {"signal": ATOM_MIXTURE,
                        "grid": {"xmin": -0.85, "xmax": 0.85, "ymin": -0.85, "ymax": 0.85,
                                 "step": 0.05}},
        "cover": {"centers": [[-0.3, -0.3], [-0.3, 0.3], [0.3, -0.3], [0.3, 0.3]]},
        "jet_source": "analytic",
        "order": 14,
    }
    code, out = run(tmp_path, "retrieve", payload)
    assert code == 0
    oracle = dict(line.split(",") for line in (out / "oracle.csv").read_text().splitlines()[1:])
    assert float(oracle["relative_error"]) <= 1e-3
    lines = (out / "retrieved.csv").read_text().splitlines()
    assert lines[0] == "x,y,re,im"


def test_retrieve_disconnected_warns(tmp_path, capsys):
    payload = {
        "spectrogram": {"signal": SHARP_F,
                        "grid": {"xmin": -2.6, "xmax": 2.6, "ymin": -1.2, "ymax": 1.2,
                                 "step": 0.05}},
        "cover": {"centers": [[-1.5, 0.0], [1.5, 0.0]]},
        "jet_source": "analytic",
    }
    code, out = run(tmp_path, "retrieve", payload)
    assert code == 0
    assert "multi-component" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("x0", [30.0, 60.0])
def test_retrieve_far_from_origin_exits_0_quietly(tmp_path, capsys, x0):
    atoms = [{"re": 1.0, "im": 0.0, "shift": x0 + 0.2, "modulation": 0.1},
             {"re": 0.8, "im": 0.3, "shift": x0 + 0.5, "modulation": 0.6}]
    payload = {
        "spectrogram": {"signal": {"kind": "mixture", "atoms": atoms},
                        "grid": {"xmin": x0 - 1.0, "xmax": x0 + 1.7, "ymin": -1.0, "ymax": 1.7,
                                 "step": 0.05}},
        "cover": {"centers": [[x0 + a, b] for a in (0.0, 0.7) for b in (0.0, 0.7)]},
        "jet_source": "analytic",
    }
    code, out = run(tmp_path, "retrieve", payload)
    assert code == 0
    assert capsys.readouterr().err == ""
    oracle = dict(line.split(",") for line in (out / "oracle.csv").read_text().splitlines()[1:])
    assert float(oracle["relative_error"]) <= 1e-10


def test_retrieve_singular_centre_exits_3_naming_square(tmp_path, capsys):
    # 11 from the atom the spectrogram falls by 1e-24 from the square's near edge
    # (its peak P) to its centre, so the order-1 jet there is below 1e-10 P
    payload = {
        "spectrogram": {"signal": ATOM_MIXTURE,
                        "grid": {"xmin": 10.0, "xmax": 12.0, "ymin": -1.0, "ymax": 1.0,
                                 "step": 0.05}},
        "cover": {"centers": [[11.0, 0.0]]},
        "jet_source": "analytic",
        "order": 1,
    }
    code, out = run(tmp_path, "retrieve", payload)
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err == ("numerical degeneracy: square 0: max |F^(m)(center)|^2 "
                                       "= 4.86e-163 <= threshold 1.89e-161\n")


def test_retrieve_stencil_off_the_grid_exits_2_naming_square(tmp_path, capsys):
    # the order-4 stencil at square 2's centre (1, 0) reaches past the grid's edge x = 1.5
    payload = {
        "spectrogram": {"signal": ATOM_MIXTURE,
                        "grid": {"xmin": -1.5, "xmax": 1.5, "ymin": -1.5, "ymax": 1.5,
                                 "step": 0.2}},
        "cover": {"centers": [[-0.5, 0.0], [0.5, 0.0], [1.0, 0.0]]},
        "jet_source": "finite_difference",
        "order": 4,
    }
    code, out = run(tmp_path, "retrieve", payload)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == ("error: square 2: jet center too close to the field "
                                       "boundary\n")


def test_retrieve_at_small_amplitudes_exits_as_at_unit_scale(tmp_path, capsys):
    # table D at x0 = 30 with amplitudes 1e-5 and 8e-6 + 3e-6i: every square's
    # spectrogram peak is below an absolute 1e-10, but not below 1e-10 of the data's peak
    atoms = [{"re": 1e-5, "im": 0.0, "shift": 30.2, "modulation": 0.1},
             {"re": 8e-6, "im": 3e-6, "shift": 30.5, "modulation": 0.6}]
    payload = {
        "spectrogram": {"signal": {"kind": "mixture", "atoms": atoms},
                        "grid": {"xmin": 29.0, "xmax": 31.7, "ymin": -1.0, "ymax": 1.7,
                                 "step": 0.05}},
        "cover": {"centers": [[30.0 + a, b] for a in (0.0, 0.7) for b in (0.0, 0.7)]},
        "jet_source": "analytic",
    }
    code, out = run(tmp_path, "retrieve", payload, "table-d")
    assert code == 0
    assert capsys.readouterr().err == ""
    oracle = dict(line.split(",") for line in (out / "oracle.csv").read_text().splitlines()[1:])
    assert float(oracle["relative_error"]) <= 1e-10
    # the singular centre below, at amplitude 1e-5, still exits 3 naming its square
    payload = {
        "spectrogram": {"signal": {"kind": "mixture", "atoms": [
            {"re": 1e-5, "im": 0.0, "shift": 0.0, "modulation": 0.0}]},
                        "grid": {"xmin": 10.0, "xmax": 12.0, "ymin": -1.0, "ymax": 1.0,
                                 "step": 0.05}},
        "cover": {"centers": [[11.0, 0.0]]},
        "jet_source": "analytic",
        "order": 1,
    }
    code, out = run(tmp_path, "retrieve", payload, "singular")
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("numerical degeneracy: square 0: ")


def test_retrieve_from_csv_with_finite_differences(tmp_path):
    # produce a spectrogram CSV with transform, then retrieve from the file
    # alone using finite-difference jets; ground truth only scores the result
    grid = {"xmin": -0.85, "xmax": 0.85, "ymin": -0.85, "ymax": 0.85, "step": 0.05}
    code, out_t = run(tmp_path, "transform", {"signal": ATOM_MIXTURE, "grid": grid}, "out_t")
    assert code == 0
    payload = {
        "spectrogram": {"csv": str(out_t / "spectrogram.csv")},
        "cover": {"centers": [[-0.3, -0.3], [-0.3, 0.3], [0.3, -0.3], [0.3, 0.3]]},
        "jet_source": "finite_difference",
        "order": 4,
        "ground_truth": ATOM_MIXTURE,
    }
    code, out = run(tmp_path, "retrieve", payload, "out_fd")
    assert code == 0
    oracle = dict(line.split(",") for line in (out / "oracle.csv").read_text().splitlines()[1:])
    assert float(oracle["relative_error"]) <= 5e-3


def test_retrieve_missing_csv(tmp_path):
    payload = {"spectrogram": {"csv": "missing.csv"},
               "cover": {"centers": [[0.0, 0.0]]},
               "jet_source": "finite_difference"}
    code, _ = run(tmp_path, "retrieve", payload)
    assert code == 2


def _without(payload, path):
    """Deep copy of payload without the key at dotted `path`."""
    out = json.loads(json.dumps(payload))
    *head, last = path.split(".")
    node = out
    for key in head:
        node = node[key]
    del node[last]
    return out


TRANSFORM = {"signal": ATOM_MIXTURE, "grid": GRID}
TRANSFORM_HUGE = _with_value(TRANSFORM, "signal.atoms.0.re", 1e308)
CERTIFY = {"signal_f": ATOM_MIXTURE, "signal_g": ATOM_MIXTURE, "cover": TWO_SQUARES, "grid": GRID}
PLAN = {"epsilon": 0.25, "square": {"cx": 0.0, "cy": 0.0, "side": 1.0},
        "signal_f": SHARP_F, "signal_g": SHARP_G, "reference_n": 60}
RETRIEVE = {"spectrogram": {"signal": ATOM_MIXTURE, "grid": GRID}, "cover": TWO_SQUARES,
            "jet_source": "analytic", "order": 4}
SAMPLED_SIGNAL = _sampled([[1.0, 0.0], [0.5, 0.0]])


# one malformed config per rule of the config checks, and the field its error names
@pytest.mark.parametrize("command, payload, path", [
    ("transform", _without(TRANSFORM, "signal"), "(root)"),
    ("transform", _without(TRANSFORM, "grid.xmin"), "grid"),
    ("plan-sample", _without(PLAN, "square.side"), "square"),
    ("transform", {"signal": _without(SAMPLED_SIGNAL, "t0"), "grid": GRID}, "signal"),
    ("transform", dict(TRANSFORM, extra=1), "(root)"),
    ("certify", _with_value(CERTIFY, "grid.zstep", 0.1), "grid"),
    ("transform", _with_value(TRANSFORM, "signal.t0", 0.0), "signal"),
    ("transform", [1, 2], "(root)"),
    ("transform", _with_value(TRANSFORM, "grid.xmin", "0"), "grid.xmin"),
    ("transform", _with_value(TRANSFORM, "grid.xmin", True), "grid.xmin"),
    ("plan-sample", _with_value(PLAN, "epsilon", True), "epsilon"),
    ("certify", _with_value(CERTIFY, "cover.centers.1.0", True), "cover.centers.1.0"),
    ("certify", _with_value(CERTIFY, "cover.centers", {"0": [0, 0]}), "cover.centers"),
    ("certify", _with_value(CERTIFY, "cover.centers.1", [0.0]), "cover.centers.1"),
    ("retrieve", _with_value(RETRIEVE, "order", True), "order"),
    ("retrieve", _with_value(RETRIEVE, "order", 4.5), "order"),
    ("retrieve", {"spectrogram": {"csv": 5}, "cover": TWO_SQUARES}, "spectrogram.csv"),
    ("transform", _with_value(TRANSFORM, "grid.step", 0), "grid.step"),
    ("certify", _with_value(CERTIFY, "grid.step", -0.05), "grid.step"),
    ("transform", {"signal": dict(SAMPLED_SIGNAL, dt=0), "grid": GRID}, "signal.dt"),
    ("transform", {"signal": dict(SAMPLED_SIGNAL, dt=-0.25), "grid": GRID}, "signal.dt"),
    ("plan-sample", _with_value(PLAN, "square.side", 0), "square.side"),
    ("plan-sample", _with_value(PLAN, "square.side", -1.0), "square.side"),
    ("sharpness", {"a_values": [0.5, 0]}, "a_values.1"),
    ("sharpness", {"a_values": [-0.5, 1.0]}, "a_values.0"),
    ("plan-sample", _with_value(PLAN, "epsilon", 0.5), "epsilon"),
    ("plan-sample", _with_value(PLAN, "reference_n", 9), "reference_n"),
    ("retrieve", _with_value(RETRIEVE, "order", -1), "order"),
    ("retrieve", _with_value(RETRIEVE, "jet_source", "spectral"), "jet_source"),
    ("retrieve", _with_value(RETRIEVE, "spectrogram.csv", "s.csv"), "spectrogram"),
    ("retrieve", _with_value(RETRIEVE, "spectrogram", {}), "spectrogram"),
    ("transform", _with_value(TRANSFORM, "signal", {"t0": 0.0}), "signal"),
    ("transform", _with_value(TRANSFORM, "signal", {"kind": "path", "path": "s.json"}), "signal"),
    ("retrieve", dict(RETRIEVE, ground_truth={"path": "s.json", "kind": "mixture"}), "ground_truth"),
    ("transform", {"signal": dict(SAMPLED_SIGNAL, dt=math.inf), "grid": GRID}, "signal.dt"),
    ("transform", {"signal": dict(SAMPLED_SIGNAL, dt=math.nan), "grid": GRID}, "signal.dt"),
    ("transform", {"signal": dict(SAMPLED_SIGNAL, t0=-math.inf), "grid": GRID}, "signal.t0"),
    ("transform", _with_value(TRANSFORM, "signal.atoms.0.shift", math.inf),
     "signal.atoms.0.shift"),
    ("transform", _with_value(TRANSFORM, "grid.xmax", math.nan), "grid.xmax"),
    ("transform", _with_value(TRANSFORM, "grid.step", math.nan), "grid.step"),
    ("certify", _with_value(CERTIFY, "cover.centers.1.0", -math.inf), "cover.centers.1.0"),
    ("plan-sample", _with_value(PLAN, "square.cx", math.inf), "square.cx"),
    ("plan-sample", _with_value(PLAN, "square.side", math.nan), "square.side"),
    ("plan-sample", _with_value(PLAN, "epsilon", math.nan), "epsilon"),
    ("sharpness", {"a_values": [1.0], "grid_step": math.inf}, "grid_step"),
    ("sharpness", {"a_values": [math.nan, 1.0]}, "a_values.0"),
    ("transform", {"signal": _sampled([[1.0, 0.0], [math.nan, 0.0]]), "grid": GRID},
     "signal.samples.1"),
    ("sharpness", {"a_values": [1.0, 3.5]}, "a_values.1"),
    # finite-difference jets take orders 0..4: a higher order is refused, not clamped
    ("retrieve", dict(RETRIEVE, jet_source="finite_difference", order=5), "order"),
    ("retrieve", dict(RETRIEVE, jet_source="finite_difference", order=14), "order"),
], ids=["missing-root-key", "missing-grid-key", "missing-square-key", "missing-sampled-key",
        "unexpected-root-key", "unexpected-grid-key", "unexpected-mixture-key", "root-not-object",
        "string-number", "true-number", "true-epsilon", "true-center", "centers-not-array",
        "center-not-pair", "true-integer", "fraction-integer", "csv-not-string", "zero-step",
        "negative-step", "zero-dt", "negative-dt", "zero-side", "negative-side", "zero-a",
        "negative-a", "epsilon-half", "reference-n-9", "order-minus-1", "unknown-jet-source",
        "spectrogram-both-forms", "spectrogram-no-form", "signal-no-form", "signal-unknown-kind",
        "path-signal-with-kind", "infinite-dt", "nan-dt", "minus-infinite-t0",
        "infinite-atom-shift", "nan-grid-bound", "nan-step", "minus-infinite-center",
        "infinite-cx", "nan-side", "nan-epsilon", "infinite-sharpness-step", "nan-a",
        "nan-sample", "a-above-3", "fd-order-5", "fd-order-14"])
def test_malformed_config_names_field(tmp_path, capsys, command, payload, path):
    (tmp_path / "s.json").write_text(json.dumps(ATOM_MIXTURE))
    code, out = run(tmp_path, command, payload)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: invalid field {path}: "), err


@pytest.mark.parametrize("command, payload, step", [
    ("transform", TRANSFORM, "inf"),
    ("transform", TRANSFORM, "nan"),
    ("sharpness", {"a_values": [1.0]}, "inf"),
    ("sharpness", {"a_values": [1.0]}, "-0.05"),
    ("transform", _with_value(TRANSFORM, "grid.step", math.nan), "0.05"),
], ids=["transform-inf", "transform-nan", "sharpness-inf", "sharpness-negative", "nan-config-step"])
def test_bad_grid_step_option_exits_2(tmp_path, capsys, command, payload, step):
    # the config's step is the one way to set a step: argparse refuses the
    # option, whatever its value, before the config is read
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, payload, extra=("--grid-step", step))
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
    assert f"unrecognized arguments: --grid-step {step}\n" in capsys.readouterr().err


def _mixture(payload) -> GaussianMixtureSignal:
    return GaussianMixtureSignal(tuple(GaussianAtom(complex(a["re"], a["im"]), a["shift"],
                                                    a["modulation"]) for a in payload["atoms"]))


def test_report_tables_match_cellwise_format(tmp_path):
    # every table cell as repr(float), str(int) or str, as written cell by cell
    code, out = run(tmp_path, "plan-sample", PLAN, "out_p")
    assert code == 0
    f, g = _mixture(SHARP_F), _mixture(SHARP_G)
    plan = plan_sampling(PLAN["epsilon"], 1.0, l2_norm(f) ** 2 + l2_norm(g) ** 2, (0.0, 0.0))
    nodes = [(x, y, w) for (x, y), w in zip(product_rule_points(plan.rule).tolist(),
                                            plan.rule.weights.tolist())]
    assert (out / "nodes.csv").read_bytes() == table_csv_bytes(["x", "y", "w"], nodes)
    payload = {"signal_f": SHARP_F, "signal_g": SHARP_G, "cover": TWO_SQUARES, "grid": GRID}
    code, out = run(tmp_path, "certify", payload, "out_c")
    assert code == 0
    grid = Grid2D.from_bounds(-1.0, 1.0, -1.0, 1.0, 0.05)
    cert = certificate(spectrogram(mixture_field(f, grid)), spectrogram(mixture_field(g, grid)),
                       SquareCover(tuple(map(tuple, TWO_SQUARES["centers"]))))
    i, j = cert.graph.edges()
    for name, header, rows in (("certificate", ["quantity", "value"], cert.rows()),
                               ("vertices", ["i", "w"], list(enumerate(cert.graph.w.tolist()))),
                               ("edges", ["i", "j", "sigma"],
                                list(zip(i.tolist(), j.tolist(), cert.graph.sigma[i, j].tolist())))):
        assert (out / f"{name}.csv").read_bytes() == table_csv_bytes(header, rows), name


@pytest.mark.parametrize("command, payload, what", [
    ("transform", _with_value(TRANSFORM_HUGE, "grid.step", 0.5), "spectrogram field"),
    ("transform", _with_value(TRANSFORM_HUGE, "signal.atoms.0.re", 1e154), "spectrogram mass"),
    ("certify", dict(CERTIFY, signal_g=TRANSFORM_HUGE["signal"]), "signal_g spectrogram"),
    # a finite spectrogram of 1e160 whose square overflows in ||S_f - S_g||
    ("certify", _with_value(CERTIFY, "signal_g.atoms.0.re", 1e80), "measured ratio"),
    ("plan-sample", dict(PLAN, signal_f=TRANSFORM_HUGE["signal"]), "kappa (signal energy)"),
], ids=["transform-field", "transform-mass", "certify", "certify-ratio", "plan-sample"])
def test_overflow_exits_3_naming_what(tmp_path, capsys, command, payload, what):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run(tmp_path, command, payload)
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err.endswith(f"numerical degeneracy: {what} is not finite (overflow)\n")


@pytest.mark.parametrize("payload", [
    # (x - 1e200)^2 overflows, so the atom's Gaussian is exp(-inf) = 0
    _with_value(dict(TRANSFORM, grid=dict(GRID, step=0.5)), "signal.atoms.0.shift", 1e200),
    # exp(-pi/2 29^2) underflows at every grid point, silently
    _with_value(TRANSFORM, "signal.atoms.0.shift", 30.0),
    dict(TRANSFORM, signal=dict(_sampled([[1.0, 0.0]] * 8), t0=40.0)),
], ids=["shift-1e200", "shift-30", "sampled-far"])
def test_underflow_to_zero_field_exits_3(tmp_path, capsys, payload):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "transform", payload)
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err == ("numerical degeneracy: gabor field of a nonzero signal "
                                       "is zero at every grid point (underflow)\n")


@pytest.mark.parametrize("signal", [
    _with_value(ATOM_MIXTURE, "atoms.0.re", 0.0),
    _sampled([[0.0, 0.0]] * 8),
], ids=["mixture", "sampled"])
def test_zero_signal_transform_exits_0(tmp_path, signal):
    code, out = run(tmp_path, "transform", dict(TRANSFORM, signal=signal))
    assert code == 0
    assert "max |field|: 0.0" in (out / "summary.txt").read_text().splitlines()


@pytest.mark.parametrize("command, payload, key", [
    ("retrieve", RETRIEVE, "order"),
    ("plan-sample", PLAN, "reference_n"),
])
def test_integer_given_as_float_runs_as_int(tmp_path, command, payload, key):
    # JSON Schema counts 4.0 as an integer; the command gets the int 4
    code, out_int = run(tmp_path, command, payload, "out_int")
    assert code == 0
    code, out_float = run(tmp_path, command, dict(payload, **{key: float(payload[key])}), "out_float")
    assert code == 0
    names = sorted(p.name for p in out_int.iterdir())
    assert names == sorted(p.name for p in out_float.iterdir())
    for name in names:
        a, b = (out / name for out in (out_int, out_float))
        if name == "config_echo.json":  # echoes "4" and "4.0"
            assert json.loads(a.read_text()) == json.loads(b.read_text())
        else:
            assert a.read_bytes() == b.read_bytes(), name


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_output_file_repeats(tmp_path, capsys, command):
    # every output file is a function of the config; the wall time goes to stdout only
    payload = {"transform": TRANSFORM, "certify": CERTIFY, "plan-sample": PLAN,
               "sharpness": {"a_values": [0.5, 1.0], "grid_step": 0.05},
               "retrieve": RETRIEVE}[command]
    (code1, out1), (code2, out2) = (run(tmp_path, command, payload, name)
                                    for name in ("out1", "out2"))
    assert code1 == code2 == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert sorted(json.loads((out1 / "meta.json").read_text())) == ["command", "numpy", "version"]
    assert capsys.readouterr().out.count(" (wall time ") == 2


@pytest.mark.parametrize("jet_source, order", [("analytic", 14), ("finite_difference", 4)])
def test_retrieve_default_order(tmp_path, jet_source, order):
    payload = _without(dict(RETRIEVE, jet_source=jet_source), "order")
    code, out_default = run(tmp_path, "retrieve", payload, "out_default")
    assert code == 0
    code, out_given = run(tmp_path, "retrieve", dict(payload, order=order), "out_given")
    assert code == 0
    assert (out_default / "retrieved.csv").read_bytes() == (out_given / "retrieved.csv").read_bytes()


def test_cli_runs_without_jsonschema(tmp_path):
    # numpy is the one runtime dependency: with jsonschema unimportable,
    # transform and certify still run
    for command, payload in (("transform", TRANSFORM), ("certify", CERTIFY)):
        write_config(tmp_path, f"{command}.json", payload)
    script = textwrap.dedent(f"""
        import sys
        sys.modules["jsonschema"] = None
        from gaborcert.cli import main
        tmp = {str(tmp_path)!r}
        for command in ("transform", "certify"):
            code = main([command, "--config", f"{{tmp}}/{{command}}.json", "--out", f"{{tmp}}/{{command}}"])
            if code:
                sys.exit(code)
    """)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "certify" / "certificate.csv").exists()


def _never_run(config, args):
    raise AssertionError("the command ran")


@pytest.mark.parametrize("command, payload, path, points", [
    ("transform", _with_value(TRANSFORM, "grid.step", 1e-5), "grid", "200001 x 200001"),
    ("certify", _with_value(CERTIFY, "grid.step", 1e-5), "grid", "200001 x 200001"),
    ("retrieve", _with_value(RETRIEVE, "spectrogram.grid.step", 1e-5), "spectrogram.grid",
     "200001 x 200001"),
    ("sharpness", {"a_values": [1.0], "grid_step": 1e-5}, "grid_step", "100001 x 100001"),
], ids=["transform", "certify", "retrieve", "sharpness"])
def test_grid_over_point_cap_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                     payload, path, points):
    monkeypatch.setitem(cli.COMMANDS, command, _never_run)
    code, out = run(tmp_path, command, payload)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: config: invalid field {path}: {points} points is more than the maximum of 10**7\n")


def test_grid_point_cap_is_inclusive():
    # 3162^2 = 9998244 points are within 10**7; 3163 x 3162 = 10001406 are not
    assert _bounded_grid((0.0, 3161.0, 0.0, 3161.0), 1.0, "config", "grid").nx == 3162
    with pytest.raises(ValueError, match="3163 x 3162 points is more than the maximum of 10\\*\\*7"):
        _bounded_grid((0.0, 3162.0, 0.0, 3161.0), 1.0, "config", "grid")


@pytest.mark.parametrize("n", [3163, 20000, 10**8])
def test_plan_sample_reference_n_over_node_cap_exits_2_before_any_work(tmp_path, capsys,
                                                                        monkeypatch, n):
    monkeypatch.setitem(cli.COMMANDS, "plan-sample", _never_run)
    code, out = run(tmp_path, "plan-sample", dict(PLAN, reference_n=n))
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: config: invalid field reference_n: {n}^2 nodes is more than the maximum of 10**7\n")
    assert _reference_n(3162, "config", "reference_n") == 3162
