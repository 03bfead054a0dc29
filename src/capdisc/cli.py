"""Command-line surface: reproducible generation, transforms and discrepancy
runs with file-based I/O.

Every command takes --json and --no-timestamp; gen also takes --out and
--threads, disc --threads.  Every JSON report embeds the flags as given
(``threads`` is null when defaulted), and floats are written in Python's
shortest round-trip form, so each double, -0.0 included, reads back as the
same float.  Exit codes: 0 success, 1 failed verification, 2 configuration
errors.

main holds the point set that the last gen wrote as CSV, and a later disc
in the same process reuses it, with the bits of a fresh parse, while the
file still holds the bytes gen wrote.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from .cap_transform import funk_hecke_lambda
from .densities import (
    DRIVER_KINDS,
    Driver,
    PlanarRationalDensity,
    ZonalDensity,
    generate_qud,
    zonal_cap_probability,
)
from .discrepancy import (
    arc_discrepancy_fixed_length,
    cap_discrepancy_fixed_height,
    circle_discrepancy,
    telescoping_check,
)
from .orthopoly import freak_heights
from .sphere import Cap, cap_measure, load_points, save_points, source_unchanged


def dumps_report(obj) -> str:
    """Deterministic JSON with floats in their shortest round-trip form."""
    return json.dumps(obj, allow_nan=False) + "\n"


def _emit(args, command, result) -> None:
    # Every parsed value is a str, int, float, bool or None.
    config = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
    envelope = {"command": command, "config": config}
    if not args.no_timestamp:
        envelope["timestamp"] = datetime.now(timezone.utc).isoformat()
    envelope["result"] = result
    text = dumps_report(envelope)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_axis(text, n):
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"axis needs {n} comma-separated coordinates, got {len(parts)}")
    return np.array(parts)


def _default_threads() -> int:
    """CPUs this process may run on, where the platform reports them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads(args) -> int:
    """--threads as given, else the CPUs this process may run on.  Resolved
    per call, so neither the shared parser nor the report's config holds the
    machine's core count."""
    threads = _default_threads() if args.threads is None else args.threads
    if threads < 1:
        raise ValueError(f"need at least one thread, got threads={threads}")
    return threads


def _cmd_gen(args) -> int:
    global _held
    threads = _threads(args)
    driver_kind = args.driver
    if args.density == "planar":
        if args.p is None or args.q is None:
            raise ValueError("planar generation needs --p and --q")
        density = PlanarRationalDensity(args.p, args.q)
        driver = Driver(driver_kind or "van_der_corput_base2", offset=args.seed)
    else:  # zonal
        if args.k is None or args.c is None:
            raise ValueError("zonal generation needs --k and --c")
        axis = _parse_axis(args.axis, args.n)
        density = ZonalDensity(dim=args.n, degree=args.k, coefficient=args.c, axis=axis)
        driver = Driver(driver_kind or "halton_2_3", offset=args.seed)

    ps = generate_qud(density, args.N, driver, threads=threads)
    spans = save_points(ps, args.out, threads=threads)
    if spans is not None:
        _held = ps, spans  # the bits load_points would read back from args.out
    result = {
        "points_file": args.out,
        "N": ps.size,
        "dim": ps.dim,
        "generator": ps.provenance.generator,
        "seed": ps.provenance.seed,
    }
    if args.json:
        _emit(args, "gen", result)
    return 0


def _cmd_freak_heights(args) -> int:
    fh = freak_heights(args.n, args.max_degree)
    _emit(args, "freak-heights", fh.to_json_obj())
    return 0


def _cmd_eigenvalue(args) -> int:
    lam = funk_hecke_lambda(args.n, args.k, args.s)
    _emit(args, "eigenvalue", {"n": args.n, "k": args.k, "s": args.s, "lambda": lam})
    return 0


# (point set, spans save_points returned) of the last `gen`, or None.  main
# drops it before every other command, and before gen generates; a disc
# that parses a file drops it too.
_held = None


def _points(path, threads):
    """The set gen wrote while the file holds the bytes it wrote
    (sphere.source_unchanged), else load_points(path).

    The held set gives the bits of a fresh parse: ".17g" round-trips every
    double, and generate_qud's rows are already normalized, so PointSet
    leaves a parse of them as it is.  A file that cannot be read, or holds
    other bytes, goes to load_points, so every error is the one a fresh
    parse raises.
    """
    global _held
    if _held is not None and source_unchanged(path, _held[1], threads=threads):
        return _held[0]
    _held = None  # one set alive at a time
    return load_points(path)


def _cmd_disc(args) -> int:
    threads = _threads(args)
    if args.family in ("arc-fixed", "telescope") and args.a is None:
        raise ValueError(f"family {args.family} needs --a")
    if args.family == "cap-fixed" and args.s is None:
        raise ValueError("family cap-fixed needs --s")
    ps = _points(args.infile, threads)
    if args.family == "arc-fixed":
        res = arc_discrepancy_fixed_length(ps, args.a, threads=threads)
    elif args.family == "cap-fixed":
        res = cap_discrepancy_fixed_height(ps, args.s, args.M, refine=args.refine, threads=threads)
    elif args.family == "circle":
        res = circle_discrepancy(ps)
    else:  # telescope
        res = telescoping_check(ps, args.a, args.m)
    report = dataclasses.asdict(res)
    if args.family == "telescope":
        report["exact_match"] = res.lhs == res.rhs
    _emit(args, "disc", report)
    return 0


def _cmd_verify_caps(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {args.tol}")
    # cap_measure rejects a dimension past 10^5 before the O(n) default axis.
    target = cap_measure(args.n, args.s)
    if args.axis is None:
        # The last coordinate axis, recorded in the report's config.
        args.axis = ",".join(["0"] * (args.n - 1) + ["1"])
    axis = _parse_axis(args.axis, args.n)
    density = ZonalDensity(dim=args.n, degree=args.k, coefficient=args.c, axis=axis)
    # A cap's probability is mu(s) + c lambda_k(s) P_k(axis . center), and
    # |P_k| <= 1 = P_k(1), so the deviation is largest at the axis: the
    # supremum over all centers, not a search's lower bound.  -axis ties.
    worst = abs(zonal_cap_probability(density, Cap(density.axis, args.s)) - target)
    passed = worst <= args.tol
    result = {
        "n": args.n,
        "k": args.k,
        "c": args.c,
        "s": args.s,
        "tol": args.tol,
        "max_deviation": worst,
        "uniform_cap_measure": target,
        "worst_direction": density.axis.tolist(),
        "passed": passed,
    }
    _emit(args, "verify-caps", result)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", default=None, help="write the JSON report here instead of stdout")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field for byte-identical reruns")
    threaded = argparse.ArgumentParser(add_help=False, parents=[common])
    threaded.add_argument("--threads", type=int, default=None,
                          help="worker threads for the cap scan, the arc sweep and gen (the "
                               "transport, and formatting and digesting a CSV) (default: the "
                               "CPUs this process may run on); the cap scan splits the points "
                               "into runs whose exact counts are summed, the others split fixed "
                               "blocks, so results do not depend on the thread count")

    parser = argparse.ArgumentParser(prog="capdisc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[threaded], help="generate a density-uniform point sequence")
    p_gen.add_argument("--out", default="points.csv",
                       help="points file to write: binary for a path ending in .npz, else CSV "
                            "(default: points.csv)")
    p_gen.add_argument("--density", choices=("planar", "zonal"), required=True)
    p_gen.add_argument("--p", type=int, default=None)
    p_gen.add_argument("--q", type=int, default=None)
    p_gen.add_argument("--n", type=int, default=3)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.add_argument("--c", type=float, default=None)
    p_gen.add_argument("--axis", default="0,0,1")
    p_gen.add_argument("--N", type=int, required=True)
    p_gen.add_argument("--driver", choices=DRIVER_KINDS, default=None)
    p_gen.add_argument("--seed", type=int, default=0, help="driver index offset")
    p_gen.set_defaults(func=_cmd_gen)

    p_fh = sub.add_parser("freak-heights", parents=[common],
                          help="heights at which fixed-size caps stop certifying uniformity")
    p_fh.add_argument("--n", type=int, required=True)
    p_fh.add_argument("--max-degree", type=int, required=True, dest="max_degree")
    p_fh.set_defaults(func=_cmd_freak_heights)

    p_ev = sub.add_parser("eigenvalue", parents=[common], help="cap-transform eigenvalue lambda_k(s)")
    p_ev.add_argument("--n", type=int, required=True)
    p_ev.add_argument("--k", type=int, required=True)
    p_ev.add_argument("--s", type=float, required=True)
    p_ev.set_defaults(func=_cmd_eigenvalue)

    p_disc = sub.add_parser("disc", parents=[threaded], help="discrepancy of a stored point set")
    p_disc.add_argument("--in", dest="infile", required=True, help="points file: .npz or CSV")
    p_disc.add_argument("--family", choices=("arc-fixed", "cap-fixed", "circle", "telescope"),
                        required=True)
    p_disc.add_argument("--a", type=float, default=None)
    p_disc.add_argument("--s", type=float, default=None)
    p_disc.add_argument("--M", type=int, default=2000)
    p_disc.add_argument("--refine", type=int, default=0)
    p_disc.add_argument("--m", type=int, default=1)
    p_disc.set_defaults(func=_cmd_disc)

    p_vc = sub.add_parser("verify-caps", parents=[common],
                          help="check that the zonal density matches the uniform measure on height-s caps")
    p_vc.add_argument("--n", type=int, required=True)
    p_vc.add_argument("--k", type=int, required=True)
    p_vc.add_argument("--c", type=float, required=True)
    p_vc.add_argument("--s", type=float, required=True)
    p_vc.add_argument("--M", type=int, default=200,
                      help="accepted and ignored: the deviation is exact at the axis")
    p_vc.add_argument("--axis", default=None)
    p_vc.add_argument("--tol", type=float, default=1e-9)
    p_vc.set_defaults(func=_cmd_verify_caps)

    return parser


@lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    # Building the parser costs more than a parse, so main builds it once.
    return build_parser()


def main(argv=None) -> int:
    global _held
    args = _shared_parser().parse_args(argv)
    if args.command != "disc":
        _held = None  # gen and the other commands need the memory, not the points
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"capdisc: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
