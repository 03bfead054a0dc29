"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

They import capdisc from the repository's src/ directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jsonschema  # noqa: E402

import gates  # noqa: E402
import run  # noqa: E402
from capdisc import cli, freak_heights  # noqa: E402
from capdisc.sphere import PointSet, Provenance, fibonacci_sphere, save_points  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def validator():
    with open(os.path.join(ROOT, "docs", "output.schema.json"), encoding="utf-8") as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def _cli(pass_dir, label, argv):
    """Run one CLI command in pass_dir the way pipeline.py does; its record."""
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        rc = cli.main(argv + ["--json", f"{label}.json", "--no-timestamp"])
    finally:
        os.chdir(cwd)
    return {"label": label, "kind": argv[0], "rc": rc, "seconds": 0.0, "error": None}


def test_harness_metric_tables_match_benchmark_json():
    doc = _benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.pipeline.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_of_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "zonal_s2",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_zonal_gates_trip_on_uniform_input(tmp_path, validator):
    # A uniform Fibonacci set in place of the zonal sequence: the s=0 cap
    # discrepancy reads ~0 instead of ~c/16, and the row count is wrong.
    uniform = str(tmp_path / "uniform")
    os.mkdir(uniform)
    save_points(PointSet(fibonacci_sphere(20_000), Provenance("fibonacci", 0)),
                os.path.join(uniform, "points.csv"))
    disc = ["disc", "--in", "points.csv", "--family", "cap-fixed", "--s", "0", "--M", "500"]
    rec = _cli(uniform, "cap_zero", disc)
    problem = gates.check_command("zonal_s2", rec, uniform, validator)
    assert problem is not None and "outside [0.04, 0.06]" in problem

    # The same commands on a genuine zonal sequence pass the s=0 gate; only
    # the size differs from the workload's N, which the gen gate catches.
    zonal = str(tmp_path / "zonal")
    os.mkdir(zonal)
    gen = _cli(zonal, "gen", ["gen", "--density", "zonal", "--n", "3", "--k", "3",
                              "--c", "0.8", "--N", "20000", "--out", "points.csv"])
    assert "expected 100000 points" in gates.check_command("zonal_s2", gen, zonal, validator)
    rec = _cli(zonal, "cap_zero", disc)
    assert gates.check_command("zonal_s2", rec, zonal, validator) is None


def test_digest_change_between_passes_is_a_failure(tmp_path, validator):
    # Three passes whose one command passes its gate; the third writes a
    # different (equally valid) report, which must count as a failure.
    h4 = repr([e.height for e in freak_heights(3, 4).entries if e.degree == 4][0])
    runs = [("3", "0.4472135954999579"), ("3", "0.4472135954999579"), ("5", h4)]
    ledger = run.Ledger("zonal_s2", validator)
    missing = gates.EXPECTED_COMMANDS["zonal_s2"] - 1
    for i, (k, s) in enumerate(runs):
        pass_dir = str(tmp_path / f"pass{i}")
        os.mkdir(pass_dir)
        rec = _cli(pass_dir, "eigen_000", ["eigenvalue", "--n", "3", "--k", k, "--s", s])
        assert gates.check_command("zonal_s2", rec, pass_dir, validator) is None
        before = ledger.failed
        ledger.check(f"pass{i}", [rec], pass_dir)
        assert ledger.failed - before == missing + (i == 2)
    assert "pass2 eigen_*.json: digest differs from the first pass" in ledger.problems
