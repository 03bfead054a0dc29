"""Command-line surface: reproducible generation, transforms and discrepancy
runs with file-based I/O.

Every JSON output embeds the full configuration; numbers are serialized with
17 significant digits so doubles round-trip losslessly.  Exit codes: 0
success, 1 failed verification, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
    direction_grid,
    telescoping_check,
)
from .orthopoly import freak_heights
from .sphere import cap_measure, load_points, save_points


def _json_fragment(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError(f"non-finite number in output: {x}")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_json_fragment(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_fragment(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    return _json_fragment(obj) + "\n"


def _config_dict(args, skip=("func",)):
    cfg = {}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if isinstance(value, (str, int, float, bool)) or value is None:
            cfg[key] = value
        else:
            cfg[key] = str(value)
    return cfg


def _emit(args, command, result) -> None:
    envelope = {"command": command, "config": _config_dict(args)}
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


def _cmd_gen(args) -> int:
    driver_kind = args.driver
    if args.density == "planar":
        if args.p is None or args.q is None:
            raise ValueError("planar generation needs --p and --q")
        density = PlanarRationalDensity(args.p, args.q)
        driver = Driver(driver_kind or "van_der_corput_base2", offset=args.seed)
    elif args.density == "zonal":
        if args.k is None or args.c is None:
            raise ValueError("zonal generation needs --k and --c")
        axis = _parse_axis(args.axis, args.n)
        density = ZonalDensity(dim=args.n, degree=args.k, coefficient=args.c, axis=axis)
        driver = Driver(driver_kind or "halton_2_3", offset=args.seed)
    else:  # pragma: no cover - argparse enforces choices
        raise ValueError(f"unknown density {args.density!r}")

    ps = generate_qud(density, args.N, driver, threads=args.threads)
    out = args.out or "points.csv"
    save_points(ps, out)
    result = {
        "points_file": out,
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


def _cmd_disc(args) -> int:
    ps = load_points(args.infile)
    if args.family in ("arc-fixed", "telescope") and args.a is None:
        raise ValueError(f"family {args.family} needs --a")
    if args.family == "arc-fixed":
        res = arc_discrepancy_fixed_length(ps, args.a, threads=args.threads)
    elif args.family == "cap-fixed":
        if args.s is None:
            raise ValueError("family cap-fixed needs --s")
        res = cap_discrepancy_fixed_height(ps, args.s, args.M, refine=args.refine, threads=args.threads)
    elif args.family == "circle":
        res = circle_discrepancy(ps)
    elif args.family == "telescope":
        res = telescoping_check(ps, args.a, args.m)
    else:  # pragma: no cover - argparse enforces choices
        raise ValueError(f"unknown family {args.family!r}")
    report = dataclasses.asdict(res)
    if args.family == "telescope":
        report["exact_match"] = res.lhs == res.rhs
    _emit(args, "disc", report)
    return 0


def _cmd_verify_caps(args) -> int:
    axis = _parse_axis(args.axis, args.n)
    density = ZonalDensity(dim=args.n, degree=args.k, coefficient=args.c, axis=axis)
    target = cap_measure(args.n, args.s)
    dirs = direction_grid(args.n, args.M)
    # The deviation depends on a center only through axis . center, so the
    # whole grid is one array evaluation; argmax keeps the first maximum.
    dev = np.abs(zonal_cap_probability(density, dirs, args.s) - target)
    i = int(np.argmax(dev))
    worst, worst_dir = float(dev[i]), dirs[i]
    passed = worst <= args.tol
    result = {
        "n": args.n,
        "k": args.k,
        "c": args.c,
        "s": args.s,
        "M": args.M,
        "tol": args.tol,
        "max_deviation": worst,
        "uniform_cap_measure": target,
        "worst_direction": [float(x) for x in worst_dir],
        "passed": passed,
    }
    _emit(args, "verify-caps", result)
    return 0 if passed else 1


def _default_threads() -> int:
    """CPUs this process may run on, where the platform reports them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="primary output file")
    common.add_argument("--json", default=None, help="write the JSON report here instead of stdout")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads for the cap scan, the arc sweep and gen (default: the "
                             "CPUs this process may run on); the cap scan splits the points into "
                             "runs whose exact counts are summed, the others split fixed blocks, "
                             "so results do not depend on the thread count")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field for byte-identical reruns")

    parser = argparse.ArgumentParser(prog="capdisc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="generate a density-uniform point sequence")
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

    p_disc = sub.add_parser("disc", parents=[common], help="discrepancy of a stored point set")
    p_disc.add_argument("--in", dest="infile", required=True, help="points CSV")
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
    p_vc.add_argument("--M", type=int, default=200)
    p_vc.add_argument("--axis", default=None)
    p_vc.add_argument("--tol", type=float, default=1e-9)
    p_vc.set_defaults(func=_cmd_verify_caps)

    return parser


@lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    # Building the parser costs more than a parse, so main builds it once.
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    if args.threads is None:
        # Resolved per call, so the shared parser never freezes it.
        args.threads = _default_threads()
    if getattr(args, "axis", None) is None and args.command == "verify-caps":
        args.axis = ",".join(["0"] * (args.n - 1) + ["1"])
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"capdisc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
