"""The public surface: every module's __all__ resolves, the package re-exports
only names some module lists, and names pruned from the API and the CLI stay gone."""

import dataclasses
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest

import gaborcert
from gaborcert import cubature, tensor_phase
from gaborcert.cli import main
from gaborcert.cubature import GaussRule1D, ProductRule2D
from gaborcert.gabor_engine import Grid2D
from gaborcert.signal_model import GaussianAtom, GaussianMixtureSignal, gabor_closed_form
from gaborcert.stability_graph import SquareCover, WeightedGraph, _sweep_cheeger, cheeger_constant
from gaborcert.stitching import RetrievalResult, retrieve_phase
from gaborcert.tensor_phase import LocalJet, local_phase_from_modulus

from oracles import legendre_lower_bound_check

MODULES = sorted(m.name for m in pkgutil.iter_modules(gaborcert.__path__) if m.name != "__main__")

REMOVED = [
    "EntireExtensionParams", "entire_extension", "entire_extension_values", "fock_sup_norm",
    "smoothness_growth_constant", "gamma_tail_constant", "delta_structural_bound",
    "cubature_error", "chawla_bound", "local_align", "LocalAlignment", "GlobalAlignment",
    "synchronize", "NoInformationError", "Square", "Region", "_union_fractions", "_region_rects",
    "fock_value", "fock_derivatives", "cheeger_inequality_check", "ConnectivityReport",
    "cmd_selftest", "CliDegeneracyError", "legendre_eval", "legendre_lower_bound_check",
    "_mixture_t_grid", "_stacked_rect_norms", "region_inner_product", "graph_vertex_rows",
    "graph_edge_rows", "discrete_weighted_norm", "fock_coefficients", "EXACT_CHEEGER_LIMIT",
    "_union_norm", "_column_text", "delta_r", "tensor_weights", "distance_from_delta",
    "disk_norm_from_jet", "jet_from_taylor", "TensorWeights", "DeltaResult",
]


def _module(name):
    return importlib.import_module(f"gaborcert.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    namespace = {}
    exec(f"from gaborcert.{name} import *", namespace)
    assert set(getattr(_module(name), "__all__", ())) <= set(namespace)


def test_package_exports_are_listed_by_a_module():
    listed = set().union(*(getattr(_module(m), "__all__", ()) for m in MODULES))
    exported = {n for n, v in vars(gaborcert).items()
                if not n.startswith("_") and not inspect.ismodule(v)}
    assert exported <= listed, sorted(exported - listed)


def test_removed_names_stay_removed():
    for where in [gaborcert] + [_module(m) for m in MODULES]:
        present = [n for n in REMOVED if hasattr(where, n)]
        assert present == [], (where.__name__, present)
    # tensor_phase holds only what retrieve runs
    assert tensor_phase.__all__ == ["LocalJet", "SingularCenterError", "jet_from_mixture",
                                    "jet_from_field", "local_phase_from_modulus"]
    assert not hasattr(LocalJet, "truncated")
    assert not hasattr(Grid2D, "mesh") and not hasattr(GaussianMixtureSignal, "scale")
    assert not hasattr(GaussianMixtureSignal, "evaluate")
    assert not hasattr(GaussianMixtureSignal, "_fock_coefficients")
    assert "side" not in inspect.signature(SquareCover).parameters
    assert not hasattr(SquareCover, "squares") and not hasattr(SquareCover, "region")
    for fn, option in ((retrieve_phase, "threshold"), (local_phase_from_modulus, "threshold"),
                       (legendre_lower_bound_check, "samples"), (cheeger_constant, "method")):
        assert option not in inspect.signature(fn).parameters, (fn.__name__, option)
    # squares are sized by their side alone: no half-width `s` in cubature
    for name in cubature.__all__:
        assert "s" not in inspect.signature(getattr(cubature, name)).parameters, name
    assert [f.name for f in dataclasses.fields(GaussRule1D)] == ["n", "side", "nodes", "weights"]
    assert [f.name for f in dataclasses.fields(ProductRule2D)] == ["base", "center", "weights"]
    assert set(inspect.signature(RetrievalResult).parameters) == {"field", "components", "warnings"}


def test_closed_form_takes_only_an_open_mesh():
    # the closed form is one rank-K product on an open mesh; scattered points (a scalar,
    # a pair of 1-D arrays, a full meshgrid) are the test oracle's form, not the package's
    sig = GaussianMixtureSignal((GaussianAtom(1.0, 0.2, -0.3), GaussianAtom(0.5j, -0.4, 0.1)))
    xs, ys = np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 0.5, 3)
    for x, y in ((0.3, 0.1), (xs, ys), np.meshgrid(xs, ys, indexing="ij"),
                 (xs[None, :], ys[:, None])):
        shapes = f"x of shape {np.shape(x)} and y of shape {np.shape(y)}"
        with pytest.raises(ValueError, match=f"open mesh.*{re.escape(shapes)}"):
            gabor_closed_form(sig, x, y)
    field = gabor_closed_form(sig, xs[:, None], ys[None, :])
    assert field.shape == (5, 3) and field.dtype == complex
    # a single point is a 1 x 1 mesh
    assert gabor_closed_form(sig, xs[:1, None], ys[None, :1]) == field[0, 0]


def test_cheeger_constant_returns_h_alone():
    cut = np.array([[0.0, 0.7], [0.7, 0.0]])
    for fn in (cheeger_constant, _sweep_cheeger):
        h = fn(WeightedGraph(np.array([2.0, 0.5]), cut))
        assert type(h) is float and h == 0.7 / 0.5, fn.__name__


@pytest.mark.parametrize("argv, message", [
    (["selftest"], "invalid choice: 'selftest'"),
    (["certify", "--config", "c.json", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["certify"], "the following arguments are required: --config"),
    (["transform", "--config", "c.json", "--grid-step", "0.05"],
     "unrecognized arguments: --grid-step 0.05"),
], ids=["selftest", "seed", "no-config", "grid-step"])
def test_removed_cli_surface_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
