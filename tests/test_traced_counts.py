"""The benchmark's traced work counts, recorded at smoke size by its own tracer.

The benchmark reads a count that was never recorded as zero, so a traced
function that drops off the call path (or is reached around its traced
name) would leave every smoke run passing.  These tests run the smoke-size
workloads of `perfbench/workloads.py` under `perfbench/tracing.py`, both
loaded read-only from the checkout, and tie the counts to the inputs.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gaborcert import SquareCover, cli
from gaborcert.gabor_engine import _window, coverage_fractions, read_field_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: its operations, their exit codes and one traced pass's metrics."""
    runs = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.generate(workload, 7, tmp_path_factory.mktemp(workload), "smoke")
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            codes = [cli.main(op.argv()) for op in ops]
        runs[workload] = ops, codes, tracing.layer_metrics(tracer)
    return runs


def _covered_cells(cover, grid) -> int:
    """Cells of each square's window whose coverage exceeds 1e-12, summed over the squares."""
    rects = cover.rects()
    total = 0
    for i in range(len(cover)):
        _, _, sub = _window(grid, rects[i:i + 1])
        total += np.count_nonzero(coverage_fractions(sub, rects[i:i + 1]) > 1e-12)
    return total


@pytest.mark.parametrize("workload", ["lattice", "data-path"])
def test_retrieve_counts_one_jet_per_square_and_every_covered_cell(traced, workload):
    ops, codes, metrics = traced[workload]
    assert codes == [0] * len(ops)
    retrieve = next(op for op in ops if op.command == "retrieve")
    centers = json.loads(retrieve.config.read_text())["cover"]["centers"]
    cover = SquareCover(tuple(map(tuple, centers)))
    grid = read_field_csv(retrieve.out / "retrieved.csv").grid
    assert metrics["tensor_phase.jet.calls"] == len(cover)
    assert metrics["tensor_phase.local_phase_from_modulus.points"] == _covered_cells(cover, grid)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_geometry_layers_record_calls(traced, workload):
    ops, codes, metrics = traced[workload]
    assert codes == [0] * len(ops)
    for name in ("gabor_engine.coverage_fractions", "gabor_engine.region_norm",
                 "stability_graph.build_graph"):
        assert metrics.get(f"{name}.calls", 0) > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_region_norm_calls_do_not_grow_with_the_cover(traced, workload):
    # every square and overlap mass of a cover graph comes from one stacked
    # rect_union_norm call; a per-square region_norm loop would break the bound
    # on the lattice and dense workloads
    ops, codes, metrics = traced[workload]
    assert codes == [0] * len(ops)
    for name in ("gabor_engine.region_norm", "gabor_engine.coverage_fractions"):
        assert metrics[f"{name}.calls"] <= 3 * len(ops), (name, metrics[f"{name}.calls"])
    assert (metrics["gabor_engine.rect_union_norm.calls"]
            == metrics["stability_graph.build_graph.calls"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pair_hit_ratio_counts_the_overlapping_pairs(traced, workload):
    # the tracer reads each graph's dense view; its ratio must be the brute-force
    # overlap count of every cover the workload builds a graph on, over its pairs
    ops, codes, metrics = traced[workload]
    assert codes == [0] * len(ops)
    hit = tried = 0
    for op in ops:
        if op.command in ("certify", "retrieve"):
            centers = json.loads(op.config.read_text())["cover"]["centers"]
            r = SquareCover(tuple(map(tuple, centers))).rects()
            n = len(r)
            hit += sum(min(r[a, 1], r[b, 1]) > max(r[a, 0], r[b, 0])
                       and min(r[a, 3], r[b, 3]) > max(r[a, 2], r[b, 2])
                       for a in range(n) for b in range(a + 1, n))
            tried += n * (n - 1) // 2
    assert hit > 0
    assert metrics["stability_graph.pair_hit_ratio"] == hit / tried
