#!/usr/bin/env python3
"""capdisc benchmark: CLI pipelines with end-to-end and per-layer metrics.

Run from the root of a capdisc checkout (it imports capdisc from ./src):

    python3 perfbench/run.py --workload zonal_s2 --seed 0 --seconds 15 --trace 0

Every pass of a workload's command sequence runs in a fresh interpreter
(perfbench/pipeline.py) in its own directory under .perfbench/.  One untimed
warm-up pass comes first; then passes repeat until --seconds have gone by,
and each metric is the median over passes.  --trace 0 prints the end-to-end
metrics; --trace 1 makes the warm-up a tracemalloc pass, alternates
untraced and traced passes and prints the per-layer metrics.  Every pass
is checked (perfbench/gates.py); the last stdout line is the JSON result.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import gates
import pipeline

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Command kind -> per-layer metric of its summed wall time (untraced passes).
KIND_METRICS = {
    "gen": "cli.gen_s",
    "disc": "cli.disc_s",
    "freak-heights": "cli.freak_s",
    "verify-caps": "cli.verify_s",
    "eigenvalue": "cli.eigen_s",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.commands": "count",
    **{name: "s" for name in KIND_METRICS.values()},
    "sphere.save_points_s": "s",
    "sphere.load_points_s": "s",
    "sphere.csv_bytes": "bytes",
    "sphere.load_points_peak_mb": "MiB",
    "sphere.direction_grid_s": "s",
    "orthopoly.freak_heights_s": "s",
    "orthopoly.legendre_roots_s": "s",
    "orthopoly.legendre_roots_calls": "count",
    "orthopoly.legendre_eval_s": "s",
    "orthopoly.legendre_eval_calls": "count",
    "orthopoly.legendre_eval_points": "count",
    "cap_transform.funk_hecke_lambda_s": "s",
    "cap_transform.funk_hecke_lambda_calls": "count",
    "cap_transform.lambda_cache_hits": "count",
    "cap_transform.lambda_cache_misses": "count",
    "densities.generate_qud_s": "s",
    "densities.generate_qud_peak_mb": "MiB",
    "densities.zonal_cap_probability_s": "s",
    "densities.zonal_cap_probability_calls": "count",
    "densities.transport_residual_max": "1",
    "discrepancy.cap_fixed_s": "s",
    "discrepancy.cap_refine_s": "s",
    "discrepancy.refine_rounds": "count",
    "discrepancy.cap_dot_products": "count",
    "discrepancy.cap_fixed_peak_mb": "MiB",
    "discrepancy.arc_sweep_s": "s",
    "discrepancy.circle_s": "s",
    "trace.overhead_s": "s",
}

SETUP_SAMPLES = 7
# The slowest pass, planar_s1 under tracemalloc, takes ~45 s on a 2-vCPU VM.
PASS_TIMEOUT_S = 150
WORK_DIR = ".perfbench"


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child(src, workload, seed, mode, run_id):
    return [sys.executable, os.path.join(HERE, "pipeline.py"), "--src", src,
            "--workload", workload, "--seed", str(seed), "--mode", mode, "--run-id", run_id]


def time_setup(src, work):
    """Fresh interpreter until capdisc.cli is imported, timed from outside."""
    t0 = time.perf_counter()
    with subprocess.Popen(_child(src, "zonal_s2", 0, "setup", "setup"), cwd=work,
                          stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or not line.startswith("ready"):
        raise HarnessError(f"set-up child exited with {proc.returncode}")
    return seconds


class Ledger:
    """Checks every pass: gates, and digests against the first pass."""

    def __init__(self, workload, validator):
        self.workload = workload
        self.validator = validator
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = None

    def check(self, run_id, records, pass_dir):
        expected = gates.EXPECTED_COMMANDS[self.workload]
        self.attempted += max(expected, len(records))
        bad = set()
        if len(records) < expected:
            self.failed += expected - len(records)
            self.problems.append(f"{run_id}: {expected - len(records)} commands never ran")
        for rec in records:
            problem = gates.check_command(self.workload, rec, pass_dir, self.validator)
            if problem is not None:
                bad.add(rec["label"])
                self.problems.append(f"{run_id} {rec['label']}: {problem}")
        digests = gates.digests(records, pass_dir)
        if self.digests is None:
            self.digests = digests
        for name in sorted(set(digests) | set(self.digests)):
            if digests.get(name) != self.digests.get(name):
                bad.add(gates.digest_owner(name))
                self.problems.append(f"{run_id} {name}: digest differs from the first pass")
        self.failed += len(bad)


class Bench:
    def __init__(self, args, src, work, ledger):
        self.args = args
        self.src = src
        self.work = work
        self.ledger = ledger
        self.count = 0

    def run_pass(self, mode):
        run_id = f"{self.args.workload}-seed{self.args.seed}-{self.count}-{mode}"
        self.count += 1
        pass_dir = tempfile.mkdtemp(prefix=f"{run_id}-", dir=self.work)
        try:
            try:
                proc = subprocess.run(
                    _child(self.src, self.args.workload, self.args.seed, mode, run_id),
                    cwd=pass_dir, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:
                raise HarnessError(f"{run_id} took over {PASS_TIMEOUT_S} s") from exc
            if proc.returncode != 0:
                raise HarnessError(f"{run_id} exited with {proc.returncode}")
            with open(os.path.join(pass_dir, "pass.json"), encoding="utf-8") as fh:
                result = json.load(fh)
            self.ledger.check(run_id, result["commands"], pass_dir)
            if mode == "trace":
                os.replace(os.path.join(pass_dir, "spans.json"),
                           os.path.join(self.work, f"spans-{self.args.workload}-seed{self.args.seed}.json"))
            return result
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)


def _wall(result, kinds=None):
    return sum(c["seconds"] for c in result["commands"] if kinds is None or c["kind"] in kinds)


def _median(values):
    return float(statistics.median(values))


def _typed(value, unit):
    # Counts repeat exactly from pass to pass, so their median is whole.
    return int(round(value)) if unit in ("count", "bytes") else value


def machine_block(root, capdisc_version):
    import numpy

    def run(argv):
        try:
            return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    nproc = run(["nproc"])
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": int(nproc) if nproc else None,
        "os_cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "capdisc": capdisc_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": run(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(root, ".git")) else None,
    }


def reference_status(workload, seed, digests):
    """Compare with the recorded digests; a difference is a behaviour change."""
    with open(os.path.join(HERE, "reference_digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload, {})
    ref = recorded.get(str(seed))
    if ref is None:
        return "no reference for this seed"
    changed = sorted(name for name in set(ref) | set(digests) if ref.get(name) != digests.get(name))
    return "match" if not changed else "behaviour change: " + ", ".join(changed)


def measure(args, root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "capdisc", "cli.py")):
        raise HarnessError("run from the root of a capdisc checkout: src/capdisc/cli.py not found")
    try:
        import jsonschema
    except ImportError as exc:
        raise HarnessError("the jsonschema package is needed to validate reports") from exc
    with open(os.path.join(root, "docs", "output.schema.json"), encoding="utf-8") as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))

    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    ledger = Ledger(args.workload, validator)
    bench = Bench(args, src, work, ledger)

    # The untimed first pass warms the file cache and bytecode; in a traced
    # run it is the tracemalloc pass, whose timings are not used either.
    warm = bench.run_pass("memory" if args.trace else "plain")
    setup = [] if args.trace else [time_setup(src, work) for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < args.seconds:
        plain.append(bench.run_pass("plain"))
        if args.trace:
            traced.append(bench.run_pass("trace"))

    if args.trace:
        metrics = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        metrics.update(warm["layers"])
        for kind, name in KIND_METRICS.items():
            metrics[name] = _median([_wall(r, (kind,)) for r in plain])
        metrics["trace.overhead_s"] = _median([_wall(r) for r in traced]) - _median([_wall(r) for r in plain])
        unknown = sorted(set(metrics) - set(PER_LAYER))
        if unknown:
            raise HarnessError(f"layer metrics missing from PER_LAYER: {unknown}")
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": _median([_wall(r) for r in plain]),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([r["maxrss_kb"] / 1024.0 for r in plain]),
        }
        units = END_TO_END

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_wall_s": [_wall(r) for r in plain],
        "traced_pass_wall_s": [_wall(r) for r in traced],
        "machine": machine_block(root, warm["capdisc_version"]),
        "failed_frac": ledger.failed / ledger.attempted,
        "problems": ledger.problems[:20],
        "digests": ledger.digests,
        "reference": reference_status(args.workload, args.seed, ledger.digests),
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": _typed(metrics.get(name, 0), unit), "unit": unit}
                    for name, unit in units.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(pipeline.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="gen --seed, the low-discrepancy driver offset (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="measure passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        report, result = measure(args, os.getcwd())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
