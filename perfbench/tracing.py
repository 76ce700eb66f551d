"""Spans around the public functions of each gaborcert layer, recorded from outside.

`instrumented(tracer)` rebinds every listed function at every site that binds
it (its home module, importing modules, and dicts such as `cli.COMMANDS`) to a
wrapper that records a span and the work counts named in the layer table.
Spans are kept in memory as [name, start, end, parent index] and summarised by
`layer_metrics`; nothing inside the package changes.
"""

from __future__ import annotations

import math
import os
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _points(args, kwargs, result):
    x = kwargs.get("x", args[1] if len(args) > 1 else 0.0)
    y = kwargs.get("y", args[2] if len(args) > 2 else 0.0)
    return {"points": np.broadcast(np.asarray(x), np.asarray(y)).size}


def _eval_points(args, kwargs, result):
    pts = kwargs.get("eval_pts", args[1] if len(args) > 1 else ())
    return {"points": np.asarray(pts).size}


def _quadrature_flops(args, kwargs, result):
    sig = args[0] if args else kwargs["sig"]
    samples = getattr(sig, "samples", None)
    if samples is None:
        return {}
    grid = result.grid
    return {"flops_computed": 8 * grid.nx * len(samples) * grid.ny}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _graph_pairs(args, kwargs, result):
    n = result.n
    return {"pairs_hit": int(np.count_nonzero(np.triu(result.sigma, 1) > 0)),
            "pairs_tried": n * (n - 1) // 2}


def _plan_nodes(args, kwargs, result):
    return {"nodes": len(result.rule.weights)}


def _reference_nodes(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"nodes": n * n}


def _written_bytes(args, kwargs, result):
    outdir = args[1] if len(args) > 1 else kwargs["outdir"]
    return {"bytes": sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file())}


# (module, function, span name, counter); counters read only arguments and results
LAYER_FUNCTIONS = [
    ("signal_model", "gabor_closed_form", "signal_model.gabor_closed_form", _points),
    ("gabor_engine", "coverage_fractions", "gabor_engine.coverage_fractions", None),
    ("gabor_engine", "region_norm", "gabor_engine.region_norm", None),
    ("gabor_engine", "rect_union_norm", "gabor_engine.rect_union_norm", None),
    ("gabor_engine", "union_area", "gabor_engine.union_area", None),
    ("gabor_engine", "quadrature_gabor", "gabor_engine.quadrature_gabor", _quadrature_flops),
    ("gabor_engine", "read_field_csv", "gabor_engine.read_field_csv", _file_bytes),
    ("tensor_phase", "jet_from_mixture", "tensor_phase.jet", None),
    ("tensor_phase", "jet_from_field", "tensor_phase.jet", None),
    ("tensor_phase", "local_phase_from_modulus", "tensor_phase.local_phase_from_modulus",
     _eval_points),
    ("stability_graph", "build_graph", "stability_graph.build_graph", _graph_pairs),
    ("stability_graph", "certificate", "stability_graph.certificate", None),
    ("stability_graph", "algebraic_connectivity", "stability_graph.spectral", None),
    ("stability_graph", "cheeger_constant", "stability_graph.spectral", None),
    ("cubature", "plan_sampling", "cubature.plan_sampling", _plan_nodes),
    ("cubature", "tensor_product_integral", "cubature.tensor_product_integral", _reference_nodes),
    ("stitching", "retrieve_phase", "stitching.retrieve_phase", None),
    ("stitching", "min_phase_distance", "stitching.min_phase_distance", None),
    ("cli", "cmd_certify", "cli.certify", None),
    ("cli", "cmd_retrieve", "cli.retrieve", None),
    ("cli", "cmd_transform", "cli.transform", None),
    ("cli", "cmd_plan_sample", "cli.plan-sample", None),
]


class Tracer:
    """In-memory span and count recorder for one pass.

    Spans named in `memory_spans` also record the tracemalloc peak of the
    allocations made inside them, in MB; tracemalloc runs only inside those.
    """

    def __init__(self, memory_spans=()):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks_mb: dict[str, float] = {}
        self.memory_spans = frozenset(memory_spans)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), math.nan, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.counts[f"{name}.calls"] += 1
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            measure_memory = name in tracer.memory_spans and not tracemalloc.is_tracing()
            if measure_memory:
                tracemalloc.start()
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peaks_mb[name] = max(tracer.peaks_mb.get(name, 0.0), peak)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "gaborcert" or key.startswith("gaborcert."))]


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every function of LAYER_FUNCTIONS, and ReportBundle.write, to traced wrappers."""
    from gaborcert import cli

    modules = _package_modules()
    restore: list[tuple] = []
    for home, fname, span_name, counter in LAYER_FUNCTIONS:
        original = getattr(sys.modules[f"gaborcert.{home}"], fname)
        wrapper = tracer.wrap(original, span_name, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    restore.append((setattr, mod, key, original))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            restore.append((dict.__setitem__, value, dkey, original))
    write = cli.ReportBundle.write
    cli.ReportBundle.write = tracer.wrap(write, "cli.write", _written_bytes)
    restore.append((setattr, cli.ReportBundle, "write", write))
    try:
        yield tracer
    finally:
        for setter, target, key, original in reversed(restore):
            setter(target, key, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-pass totals: `<span>.s` (outermost spans of each name), `<span>.self_s`, counts."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.self_s"] += (end - start) - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] += end - start
    out.update(tracer.counts)
    hit = out.pop("stability_graph.build_graph.pairs_hit", 0.0)
    tried = out.pop("stability_graph.build_graph.pairs_tried", 0.0)
    if tried:
        out["stability_graph.pair_hit_ratio"] = hit / tried
    out["cubature.nodes"] = (out.pop("cubature.plan_sampling.nodes", 0.0)
                             + out.pop("cubature.tensor_product_integral.nodes", 0.0))
    for name, peak in tracer.peaks_mb.items():
        out[f"{name}.peak_mb"] = peak
    return dict(out)
