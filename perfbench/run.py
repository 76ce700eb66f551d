"""gaborcert benchmark: seeded CLI workloads, timed end to end and per layer.

Run from the root of a source checkout (the directory holding `src/gaborcert`):

    python3 perfbench/run.py --workload {lattice,dense,data-path,all} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Each run is one process and one closed-loop client: it calls
`gaborcert.cli.main(argv)` in-process for every operation of a pass and starts
the next pass only after the previous one has finished and been checked.  BLAS
threads are capped at the number of usable cores and the process re-executes
itself once with a fixed PYTHONHASHSEED and fixed glibc malloc thresholds.
Inputs are generated from the seed under `.perfbench_work/<workload>/`; every
operation's exit code and outputs are checked.  `--trace 1` rebinds the
layers' public functions to span recorders on alternate passes and reports
per-layer metrics plus the tracing overhead.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and the metrics
listed in BENCHMARK.json.  BENCHMARK.json lists `lattice` and `data-path`;
`dense` (the O(n^3) arrangement count of jittered covers) is run by hand or by
`--smoke`.  `--workload all` runs the three workloads one after another, each
in its own process.  `--smoke` runs every workload at tiny sizes, traced and
untraced, and tests the output checks on hand-made outputs; it exits non-zero
on any failure.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("lattice", "dense", "data-path")
WORK_DIR = ".perfbench_work"
# Set before the interpreter starts, by one re-exec.  String hashing changes
# allocation order.  glibc moves its mmap and trim thresholds on the first
# large frees, and how much freed heap it then kept varied between runs of the
# same input: ru_maxrss after a lattice pass read 177, 196 or 200 MB at random.
# With the mmap threshold fixed at glibc's ceiling (32 MiB) and the trim
# threshold at its initial 128 KiB it varies by under 0.5 MB.
PINNED_ENV = {"PYTHONHASHSEED": "0",
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(128 << 10)}
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MEMORY_SPANS = ("stitching.retrieve_phase",)
# table metrics printed by the traced run, in report order
LAYER_REPORT = (
    "cli.main.self_s", "cli.write.s", "cli.write.bytes",
    "cli.certify.s", "cli.retrieve.s", "cli.transform.s", "cli.plan-sample.s",
    "signal_model.gabor_closed_form.s", "signal_model.gabor_closed_form.points",
    "gabor_engine.coverage_fractions.s", "gabor_engine.coverage_fractions.calls",
    "gabor_engine.region_norm.s", "gabor_engine.region_norm.calls",
    "gabor_engine.rect_union_norm.s", "gabor_engine.rect_union_norm.calls",
    "gabor_engine.union_area.s",
    "gabor_engine.quadrature_gabor.s", "gabor_engine.quadrature_gabor.flops_computed",
    "gabor_engine.read_field_csv.s", "gabor_engine.read_field_csv.bytes",
    "tensor_phase.jet.s", "tensor_phase.jet.calls",
    "tensor_phase.local_phase_from_modulus.s", "tensor_phase.local_phase_from_modulus.points",
    "stability_graph.build_graph.s", "stability_graph.build_graph.calls",
    "stability_graph.pair_hit_ratio",
    "stability_graph.certificate.s", "stability_graph.certificate.self_s",
    "stability_graph.spectral.s",
    "cubature.plan_sampling.s", "cubature.tensor_product_integral.s", "cubature.nodes",
    "stitching.retrieve_phase.s", "stitching.retrieve_phase.self_s",
    "stitching.retrieve_phase.peak_mb", "stitching.min_phase_distance.s",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes with every check")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unavailable (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    try:
        return (git / head[5:]).read_text().strip()
    except OSError:
        return f"unresolved ({head[5:]})"


def _source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _environment(np, root: Path, nproc: int, seed) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "pinned_env": {var: os.environ.get(var) for var in PINNED_ENV},
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src" / "gaborcert"),
    }


def _tail(values):
    """Highest percentile with at least ten samples beyond it: (percentile, value) or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Session:
    """One closed-loop client: runs passes, checks every operation, tallies failures."""

    def __init__(self, cli, checker, tracing):
        self.cli = cli
        self.checker = checker
        self.tracing = tracing
        self.attempted = 0
        self.failed = 0
        self.rel_errs: list[float] = []
        self._reported = 0

    def _invoke(self, op, tracer):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                if tracer is None:
                    code = self.cli.main(op.argv())
                else:
                    with tracer.span("cli.main"):
                        code = self.cli.main(op.argv())
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                code = -1
        return code, sink.getvalue()

    def run_pass(self, ops, tracer=None) -> float:
        """Time one pass, then check each operation; returns the pass wall time."""
        results = []
        # each pass starts from a collected heap, as a fresh CLI process would
        gc.collect()
        start = time.perf_counter()
        if tracer is None:
            for op in ops:
                results.append(self._invoke(op, None))
        else:
            with self.tracing.instrumented(tracer):
                for op in ops:
                    results.append(self._invoke(op, tracer))
        elapsed = time.perf_counter() - start
        for op, (code, output) in zip(ops, results):
            problems, info = self.checker.verify(op, code)
            self.attempted += 1
            if "rel_err" in info:
                self.rel_errs.append(info["rel_err"])
            if problems:
                self.failed += 1
                if self._reported < 5:
                    self._reported += 1
                    print(f"FAILED {op.name}: {'; '.join(problems)}\n{output[-2000:]}",
                          file=sys.stderr)
        return elapsed


def _setup(workloads, workload, seed, work, size):
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workloads.generate(workload, seed, work, size)
        times.append(time.perf_counter() - start)
    return ops, statistics.median(times)


def _closed_loop(session, ops, seconds, min_passes, make_tracer):
    """Run passes until the next one would end past `seconds`; returns [(pass_s, tracer)]."""
    passes = []
    start = time.perf_counter()
    while True:
        tracer = make_tracer(len(passes))
        passes.append((session.run_pass(ops, tracer), tracer))
        typical = statistics.median(t for t, _ in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + typical > seconds:
            return passes


def _end_to_end(session, ops, seconds, setup):
    """Untraced passes: pass time, peak memory and set-up time."""
    passes = _closed_loop(session, ops, seconds, 1, lambda index: None)
    times = [t for t, _ in passes]
    p50 = statistics.median(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"pass_s.p50": (p50, "s"), "peak_rss_mb": (setup["rss_mb"], "MB"),
               "setup_s": (setup["s"], "s")}
    lines = [f"  setup_s      {setup['s']:.4f} s  (imports {setup['import_s']:.3f} + median of "
             f"{SETUP_REPEATS} input generations {setup['generate_s']:.3f} + warm-up pass "
             f"{setup['warmup_s']:.3f})",
             f"  pass_s.p50   {p50:.4f} s  (n={len(times)}: "
             f"{' '.join(f'{t:.3f}' for t in times)})"]
    tail = _tail(times)
    if tail is None:
        lines.append(f"  pass_s.tail  undefined: n={len(times)}, needs 11 samples for ten beyond")
    else:
        lines.append(f"  pass_s.tail  {tail[1]:.4f} s  (p{tail[0]:.1f}, n={len(times)})")
    lines.append(f"  peak_rss_mb  {setup['rss_mb']:.1f} MB  (ru_maxrss after the first pass, "
                 f"n=1; {rss_mb:.1f} MB after all {len(times) + 1} passes)")
    return metrics, lines, {"untraced": times}


def _per_layer(session, ops, seconds, tracing, spans_path):
    """Alternate traced and untraced passes; per-layer medians over the traced ones."""
    passes = _closed_loop(session, ops, seconds, 2,
                          lambda index: None if index % 2 else tracing.Tracer())
    traced = [(t, tracer) for t, tracer in passes if tracer is not None]
    untraced = [t for t, tracer in passes if tracer is None]
    memory = tracing.Tracer(MEMORY_SPANS)
    session.run_pass(ops, memory)
    per_pass = [tracing.layer_metrics(tracer) for _, tracer in traced]
    names = sorted({key for m in per_pass for key in m})
    layer = {key: statistics.median(m.get(key, 0.0) for m in per_pass) for key in names}
    layer.update((key, value) for key, value in tracing.layer_metrics(memory).items()
                 if key.endswith(".peak_mb"))
    traced_p50 = statistics.median(t for t, _ in traced)
    untraced_p50 = statistics.median(untraced)
    layer["trace.traced_pass_s.p50"] = traced_p50
    layer["trace.untraced_pass_s.p50"] = untraced_p50
    lines = [f"  per-layer medians over {len(traced)} traced passes (untraced passes: "
             f"{len(untraced)}; peak_mb from 1 extra pass with tracemalloc):"]
    for key in LAYER_REPORT:
        value = layer.get(key, 0.0)
        lines.append(f"    {key:48s} {value:.6g}" if value > 0 else f"    {key:48s} idle")
    lines.append(f"  tracing overhead: traced - untraced pass_s.p50 = {traced_p50:.4f} - "
                 f"{untraced_p50:.4f} = {traced_p50 - untraced_p50:+.4f} s")
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent"],
         "passes": [tracer.spans for _, tracer in traced] + [memory.spans]}))
    lines.append(f"  spans: {spans_path}")
    metrics = {key: (value, _unit(key)) for key, value in layer.items()}
    return metrics, lines, {"traced": [t for t, _ in traced], "untraced": untraced}


def measure(args, root, size="full"):
    """One benchmark run; returns (result, metrics with units, report lines)."""
    nproc = _cap_blas_threads()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from gaborcert import cli
    import_s = time.perf_counter() - _START

    import checks
    import tracing
    import workloads

    work = root / WORK_DIR / args.workload
    ops, generate_s = _setup(workloads, args.workload, args.seed, work, size)
    session = Session(cli, checks.Checker(), tracing)
    warmup_s = session.run_pass(ops)
    setup = {"import_s": import_s, "generate_s": generate_s, "warmup_s": warmup_s,
             "s": import_s + generate_s + warmup_s,
             # the peak a user sees running the workload once; later passes only reuse heap
             "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    lines = [f"workload {args.workload} ({size}), seed {args.seed}: {len(ops)} operations per pass "
             f"({', '.join(op.command for op in ops)}), closed loop, 1 client, "
             f"window {args.seconds:g} s, trace {args.trace}"]
    if args.trace:
        metrics, more, pass_times = _per_layer(session, ops, args.seconds, tracing,
                                               (work / "spans.json").relative_to(root))
    else:
        metrics, more, pass_times = _end_to_end(session, ops, args.seconds, setup)
    lines += more
    if session.rel_errs:
        lines.append(f"  rel_err.max  {max(session.rel_errs):.6g}  "
                     f"(oracle relative error, n={len(session.rel_errs)} retrieve calls)")
    lines.append(f"  fail_frac    {session.failed}/{session.attempted} = "
                 f"{session.failed / session.attempted:.4g}  (n={session.attempted} operations)")
    lines.append(f"  output checks: {'PASS' if session.failed == 0 else 'FAIL'}")
    env = _environment(np, root, nproc, args.seed)
    lines.append("environment: " + json.dumps(env, sort_keys=True))
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed}
    (work / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "trace": args.trace, "environment": env,
         "setup": setup, "pass_s": pass_times,
         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
         "report": lines}, indent=1))
    return result, metrics, lines


def _unit(key: str) -> str:
    if key.endswith((".s", ".self_s", ".p50")):
        return "s"
    if key.endswith(".peak_mb"):
        return "MB"
    if key.endswith(".bytes"):
        return "bytes"
    if key.endswith(".flops_computed"):
        return "flop"
    if key.endswith(".points") or key == "cubature.nodes":
        return "points"
    if key.endswith("ratio"):
        return "ratio"
    return "count"


def _selected(metrics, wanted):
    """The metrics BENCHMARK.json lists; a count never recorded is a count of zero."""
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name in metrics:
            value, unit = metrics[name]
        elif _unit(name) not in ("s", "MB"):
            value, unit = 0, _unit(name)
        else:
            raise ValueError(f"metric {name} was not measured")
        if unit != entry["unit"]:
            raise ValueError(f"metric {name}: unit {unit!r}, BENCHMARK.json says {entry['unit']!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def _smoke(root) -> int:
    """Every workload at tiny sizes, untraced and traced, plus checks of the checks."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=0.01, trace=trace)
            result, metrics, lines = measure(args, root, "smoke")
            print("\n".join(lines))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            try:
                _selected(metrics, wanted)
            except ValueError as exc:
                print(f"SMOKE FAIL {workload} trace {trace}: {exc}")
                ok = False
            if not result["correct"]:
                print(f"SMOKE FAIL {workload} trace {trace}: {result}")
                ok = False
    import check_cases
    from gaborcert import cli

    problems, note = check_cases.run(root / WORK_DIR / "self-test", cli)
    print(f"check self-test: {len(check_cases.CASES)} hand-made outputs; {note}")
    for problem in problems:
        print(f"SMOKE FAIL check self-test: {problem}")
    ok = ok and not problems
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _all(args) -> int:
    """Every workload in its own process, one after another; the worst exit code."""
    codes = []
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(argv, check=False).returncode)
    return max(codes)


def main(argv=None) -> int:
    if argv is None and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "gaborcert" / "cli.py").is_file():
        print(f"error: {root} holds no src/gaborcert; run from the root of a gaborcert checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return _smoke(root)
    if args.workload == "all":
        return _all(args)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    result, metrics, lines = measure(args, root)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("\n".join(lines))
    print(json.dumps({**result, "metrics": _selected(metrics, wanted)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
