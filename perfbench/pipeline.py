"""One pass of a benchmark workload, run in a fresh interpreter.

run.py starts this script once per pass, with the pass's own empty directory
as the working directory.  Every file name below is therefore relative, and
the JSON reports, which embed their flags, are byte-identical from pass to
pass.  The commands go through ``capdisc.cli.main``, the function behind the
``capdisc`` entry point, with the CLI's default ``--threads``.

Modes:
  setup   import capdisc.cli, print "ready", exit (run.py times this)
  plain   run the workload's commands, untraced
  trace   the same, with spans around every public call between modules
  memory  the same, with a tracemalloc peak around the three big calls

The pass writes ``pass.json`` (per-command exit codes and timings, the
child's ru_maxrss, per-layer metrics) and, when traced, ``spans.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

# First freak height on S^2: the positive root of the degree-2 Legendre
# polynomial of dimension 5.
FREAK_S2 = 1.0 / math.sqrt(5.0)
ZONAL_N = 100_000
PLANAR_N = 1_000_000
EIGEN_MAX_DEGREE = 40


def _result(label):
    with open(f"{label}.json", encoding="utf-8") as fh:
        return json.load(fh)["result"]


def zonal_s2(seed):
    # The sequence level: a zonal sequence on S^2 looks uniform to caps of
    # the freak height and not to hemispheres.
    yield "gen", ["gen", "--density", "zonal", "--n", "3", "--k", "3", "--c", "0.8",
                  "--axis", "0,0,1", "--N", str(ZONAL_N), "--seed", str(seed),
                  "--out", "points.csv"]
    for label, s in (("cap_freak", repr(FREAK_S2)), ("cap_zero", "0")):
        yield label, ["disc", "--in", "points.csv", "--family", "cap-fixed", "--s", s,
                      "--M", "2000", "--refine", "20"]
    # The measure level, the same for every seed: freak heights, the cap
    # equality they give, and the eigenvalue vanishing at each height.
    yield "freak_n3", ["freak-heights", "--n", "3", "--max-degree", "200"]
    yield "freak_n5", ["freak-heights", "--n", "5", "--max-degree", "120"]
    yield "verify_n3", ["verify-caps", "--n", "3", "--k", "3", "--c", "0.8",
                        "--s", repr(FREAK_S2), "--M", "20000"]
    # The n=5 height is the one freak height of degree 2, read back from
    # the CLI's own report the way a user would.
    h5 = [e["height"] for e in _result("freak_n5") if e["degree"] == 2][0]
    yield "verify_n5", ["verify-caps", "--n", "5", "--k", "3", "--c", "0.5",
                        "--s", repr(h5), "--M", "20000"]
    # Entries up to degree 40 of the degree-200 report are freak_heights(3, 40).
    sweep = [e for e in _result("freak_n3") if e["degree"] <= EIGEN_MAX_DEGREE]
    for i, e in enumerate(sweep):
        yield f"eigen_{i:03d}", ["eigenvalue", "--n", "3", "--k", str(e["degree"] + 1),
                                 "--s", repr(e["height"])]


def planar_s1(seed):
    yield "gen", ["gen", "--density", "planar", "--p", "1", "--q", "3",
                  "--N", str(PLANAR_N), "--seed", str(seed), "--out", "points.csv"]
    for label, a in (("arc_third", repr(1.0 / 3.0)), ("arc_0.3", "0.3")):
        yield label, ["disc", "--in", "points.csv", "--family", "arc-fixed", "--a", a]
    yield "circle", ["disc", "--in", "points.csv", "--family", "circle"]


WORKLOADS = {"zonal_s2": zonal_s2, "planar_s1": planar_s1}


def run_commands(cli, workload, seed, tracer=None):
    """Run the workload's commands in order; one record per command."""
    records = []
    commands = WORKLOADS[workload](seed)
    while True:
        try:
            label, argv = next(commands)
        except StopIteration:
            break
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # An earlier command left no usable report to build this one from.
            records.append({"label": "inputs", "kind": None, "rc": None, "seconds": 0.0,
                            "error": f"{type(exc).__name__}: {exc}"})
            break
        argv = argv + ["--json", f"{label}.json", "--no-timestamp"]
        rec = {"label": label, "kind": argv[0], "rc": None, "seconds": 0.0, "error": None}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rec["rc"] = cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    rec["rc"] = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rec["rc"] = exc.code
        except Exception as exc:  # a traceback is a failed command, not a failed pass
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - t0
        records.append(rec)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "plain", "trace", "memory"), required=True)
    parser.add_argument("--run-id", default="pass")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import capdisc
    from capdisc import cli

    if args.mode == "setup":
        print("ready", capdisc.__version__, flush=True)
        return 0

    tracer = probe = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer(args.run_id)
        probe = tracing.SpanProbe(tracer)
    elif args.mode == "memory":
        import tracer as tracing

        probe = tracing.PeakProbe()

    records = run_commands(cli, args.workload, args.seed, tracer)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        # Before layer_metrics, whose extra calls run through the wrappers.
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    out = {
        "capdisc_version": capdisc.__version__,
        "commands": records,
        "maxrss_kb": maxrss_kb,
        "layers": probe.layer_metrics() if probe is not None else {},
    }
    with open("pass.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
