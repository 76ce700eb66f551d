"""The public surface: every module's __all__ resolves, the package re-exports
only names some module lists, and names pruned from the API and the CLI stay gone."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import gaborcert
from gaborcert.cli import main
from gaborcert.gabor_engine import Grid2D
from gaborcert.signal_model import GaussianMixtureSignal
from gaborcert.stability_graph import SquareCover, WeightedGraph, cheeger_constant
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
    "graph_edge_rows", "discrete_weighted_norm", "fock_coefficients",
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
    assert not hasattr(LocalJet, "truncated")
    assert not hasattr(Grid2D, "mesh") and not hasattr(GaussianMixtureSignal, "scale")
    assert not hasattr(GaussianMixtureSignal, "evaluate")
    assert not hasattr(GaussianMixtureSignal, "_fock_coefficients")
    assert "side" not in inspect.signature(SquareCover).parameters
    assert not hasattr(SquareCover, "squares") and not hasattr(SquareCover, "region")
    for fn, option in ((retrieve_phase, "threshold"), (local_phase_from_modulus, "threshold"),
                       (legendre_lower_bound_check, "samples")):
        assert option not in inspect.signature(fn).parameters, (fn.__name__, option)
    assert set(inspect.signature(RetrievalResult).parameters) == {"field", "components", "warnings"}


def test_cheeger_constant_returns_h_alone():
    cut = np.array([[0.0, 0.7], [0.7, 0.0]])
    for method in ("exact", "spectral_sweep"):
        h = cheeger_constant(WeightedGraph(np.array([2.0, 0.5]), cut), method)
        assert type(h) is float and h == 0.7 / 0.5, method


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
