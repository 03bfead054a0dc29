"""Correctness gates and output digests for one benchmark pass.

A command passes when it exits 0, its ``--json`` report validates against
``docs/output.schema.json`` and its workload's gate below holds.  The gate
values are the paper's: on the freak-height cap family (or the p/q arc
family) the doctored sequences look uniform, elsewhere they do not.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from pipeline import FREAK_S2, PLANAR_N, ZONAL_N

# Measure-level sup over arcs of length 2*pi*a of the planar density
# 1 + sin(6*theta)/2 is |sin(2*pi*3*a)| / (12*pi); over all arcs, 1/(12*pi).
ARC_03 = abs(math.sin(1.8 * math.pi)) / (12.0 * math.pi)
CIRCLE = 1.0 / (12.0 * math.pi)
# Sampling error of a 1e6-point van der Corput sequence is ~1e-5.
PLANAR_TOL = 1e-3


def csv_rows(path):
    """Lines of a points CSV that are not '#' header lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.count(b"\n") - data.count(b"\n#") - data.startswith(b"#")


def _value(report):
    return report["result"]["value"]


def _gen(n_points):
    def gate(report, pass_dir):
        rows = csv_rows(os.path.join(pass_dir, report["result"]["points_file"]))
        if report["result"]["N"] == n_points and rows == n_points:
            return None
        return f"expected {n_points} points, report says {report['result']['N']}, CSV has {rows} rows"
    return gate


def _below(limit):
    def gate(report, pass_dir):
        v = _value(report)
        return None if v < limit else f"value {v!r} is not below {limit}"
    return gate


def _between(lo, hi):
    def gate(report, pass_dir):
        v = _value(report)
        return None if lo <= v <= hi else f"value {v!r} is outside [{lo}, {hi}]"
    return gate


def _near(target, tol):
    def gate(report, pass_dir):
        v = _value(report)
        return None if abs(v - target) <= tol else f"value {v!r} is not within {tol} of {target!r}"
    return gate


def _freak(count, degree2=None):
    def gate(report, pass_dir):
        heights = report["result"]
        if len(heights) != count:
            return f"{len(heights)} heights, expected {count}"
        h = [e["height"] for e in heights if e["degree"] == 2]
        if degree2 is not None and (len(h) != 1 or abs(h[0] - degree2) > 1e-12):
            return f"degree-2 heights {h!r}, expected one within 1e-12 of {degree2!r}"
        return None
    return gate


def _verified(report, pass_dir):
    return None if report["result"]["passed"] else "verify-caps did not pass"


def _eigen(report, pass_dir):
    lam = report["result"]["lambda"]
    return None if abs(lam) <= 1e-12 else f"|lambda| = {abs(lam)!r} exceeds 1e-12"


# Gate per command label; every eigen_NNN label uses the "eigen" gate.
GATES = {
    "zonal_s2": {
        "gen": _gen(ZONAL_N),
        "cap_freak": _below(0.01),
        "cap_zero": _between(0.04, 0.06),
        "freak_n3": _freak(5050, degree2=FREAK_S2),
        "freak_n5": _freak(1830),
        "verify_n3": _verified,
        "verify_n5": _verified,
        "eigen": _eigen,
    },
    "planar_s1": {
        "gen": _gen(PLANAR_N),
        "arc_third": _below(1e-4),
        "arc_0.3": _near(ARC_03, PLANAR_TOL),
        "circle": _near(CIRCLE, PLANAR_TOL),
    },
}

# Commands in one pass: the eigenvalue sweep has one per height of
# freak_heights(3, 40), that is 1 + 2 + ... + 20.
EXPECTED_COMMANDS = {"zonal_s2": 3 + 4 + 210, "planar_s1": 4}


def gate_key(label):
    return "eigen" if label.startswith("eigen_") else label


def check_command(workload, rec, pass_dir, validator):
    """Problem with one command record, or None when it passes."""
    if rec["error"] is not None:
        return rec["error"]
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}"
    try:
        with open(os.path.join(pass_dir, f"{rec['label']}.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"no readable report: {exc}"
    errors = sorted(validator.iter_errors(report), key=str)
    if errors:
        return f"schema: {errors[0].message}"
    gate = GATES[workload].get(gate_key(rec["label"]))
    if gate is None:
        return f"no gate for command {rec['label']!r}"
    return gate(report, pass_dir)


def _sha256(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def digests(records, pass_dir):
    """SHA-256 of every report and CSV, the eigen sweep's reports as one."""
    out = {}
    eigen = []
    for rec in records:
        name = f"{rec['label']}.json"
        path = os.path.join(pass_dir, name)
        if not os.path.exists(path):
            continue
        if rec["label"].startswith("eigen_"):
            eigen.append(path)
        else:
            out[name] = _sha256([path])
    if eigen:
        out["eigen_*.json"] = _sha256(eigen)
    csv = os.path.join(pass_dir, "points.csv")
    if os.path.exists(csv):
        out["points.csv"] = _sha256([csv])
    return out


def digest_owner(name):
    """Command label whose output a digest name covers."""
    if name == "points.csv":
        return "gen"
    return name[: -len(".json")]
