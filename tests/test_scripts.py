"""Every experiment script has a smoke test, each runs end to end at tiny sizes and
writes its CSV with "\n" line ends, the benchmark's smoke outputs are byte-identical
to the checked-in digests, and the benchmark's smoke run passes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

SCRIPTS = {
    "output_digests": (["--smoke"], "output_digests.csv"),
    "run_accuracy_table": (["--smoke"], "accuracy_table.csv"),
    "run_certificate_sweep": ([], "ratios.csv"),
    "run_cubature_decay": ([], "decay.csv"),
    "run_noise_table": (["--smoke"], "noise_table.csv"),
    "run_scaling": (["--smoke"], "scaling.csv"),
    "run_strip_certificate": (["--smoke"], "strip_certificate.csv"),
}


def test_every_script_has_a_smoke_test():
    assert sorted(p.stem for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


def run_script(name, args, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_script_writes_its_csv(tmp_path, name):
    args, csv_name = SCRIPTS[name]
    run_script(name, args, tmp_path)
    data = (tmp_path / csv_name).read_bytes()
    assert b"\r" not in data  # the package's CSV writer ends lines with "\n"
    lines = data.decode().splitlines()
    assert len(lines) >= 2, lines  # a header and at least one row


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_script_options_are_smoke_and_out_only(tmp_path, name):
    # sizes, seeds and steps are constants of each script; only the smoke switch and the
    # output directory are settable
    names = {word for line in run_script(name, ["--help"], tmp_path).splitlines()
             if line.startswith("  -") for word in re.findall(r"--?\w[\w-]*", line.split("  ")[1])}
    assert names <= {"-h", "--help", "--smoke", "--out"}, names
    assert "--out" in names


def test_smoke_outputs_match_the_checked_in_digests(tmp_path):
    # every output of the benchmark's workloads at smoke size, byte for byte; the bits of
    # the transform's products depend on the BLAS thread split, so the check holds only on
    # the numpy, BLAS and thread cap the digests were written with.  A change that alters
    # outputs on purpose rewrites tests/data/output_digests_smoke.csv and .json from
    # `scripts/output_digests.py --smoke` (its CSV, and its JSON's "environment")
    run_script("output_digests", ["--smoke"], tmp_path)
    recorded = json.loads((DATA / "output_digests_smoke.json").read_text())
    fresh = json.loads((tmp_path / "output_digests.json").read_text())["environment"]
    differ = {key: (recorded[key], fresh[key]) for key in recorded if fresh[key] != recorded[key]}
    if differ:
        pytest.skip(f"digests were recorded on another environment (recorded, here): {differ}")
    assert (tmp_path / "output_digests.csv").read_bytes() \
        == (DATA / "output_digests_smoke.csv").read_bytes()


def test_perfbench_smoke_passes():
    # every workload at tiny sizes, untraced and traced, with its output checks: a traced
    # function gone from its module, an unmeasured time metric or a failing check exits 1
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
