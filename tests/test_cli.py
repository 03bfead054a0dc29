"""End-to-end tests of the command-line surface: outputs, schema, exit codes."""

import json
import math
import os
import subprocess
import sys
import threading
import time
import zipfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import capdisc.cli
import capdisc.sphere
from capdisc import (
    Driver,
    PlanarRationalDensity,
    arc_discrepancy_fixed_length,
    funk_hecke_lambda,
    generate_qud,
    generate_uniform,
    load_points,
    radical_inverse,
    save_points,
)
from capdisc.cli import main
from capdisc.discrepancy import direction_grid
from capdisc.sphere import unit_vector

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "output.schema.json").read_text())

S5 = "0.4472135954999579"


def run_json(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def validate(doc):
    jsonschema.validate(doc, SCHEMA)


def test_freak_heights_command(capsys):
    code, doc = run_json(["freak-heights", "--n", "3", "--max-degree", "2", "--no-timestamp"], capsys)
    assert code == 0
    validate(doc)
    assert doc["command"] == "freak-heights"
    assert len(doc["result"]) == 1
    assert doc["result"][0]["degree"] == 2
    assert doc["result"][0]["height"] == pytest.approx(1 / math.sqrt(5), abs=1e-12)
    assert "timestamp" not in doc


def test_eigenvalue_command(capsys):
    code, doc = run_json(["eigenvalue", "--n", "3", "--k", "3", "--s", S5, "--no-timestamp"], capsys)
    assert code == 0
    validate(doc)
    assert abs(doc["result"]["lambda"]) <= 1e-12
    assert doc["result"]["n"] == 3 and doc["result"]["k"] == 3


def test_eigenvalue_seventeen_digit_round_trip(capsys):
    code, doc = run_json(["eigenvalue", "--n", "3", "--k", "3", "--s", "0.25", "--no-timestamp"], capsys)
    assert code == 0
    raw = capsys.readouterr()
    assert doc["result"]["lambda"] == funk_hecke_lambda(3, 3, 0.25)


def test_eigenvalue_report_keeps_the_sign_of_zero(capsys):
    code, doc = run_json(["eigenvalue", "--n", "3", "--k", "2", "--s", "-0.0", "--no-timestamp"],
                         capsys)
    assert code == 0
    for x in (doc["config"]["s"], doc["result"]["s"], doc["result"]["lambda"]):
        assert type(x) is float and x == 0.0 and math.copysign(1.0, x) == -1.0, doc


def test_gen_planar_matches_library(tmp_path, capsys):
    out = tmp_path / "pl.csv"
    summary = tmp_path / "gen.json"
    code = main([
        "gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "200",
        "--out", str(out), "--json", str(summary), "--no-timestamp",
    ])
    assert code == 0
    doc = json.loads(summary.read_text())
    validate(doc)
    assert doc["result"]["N"] == 200 and doc["result"]["dim"] == 2
    ps = load_points(out)
    lib = generate_qud(PlanarRationalDensity(1, 3), 200, Driver("van_der_corput_base2"))
    assert np.array_equal(ps.coords, lib.coords)


def test_gen_zonal_and_disc_cap_fixed(tmp_path, capsys):
    out = tmp_path / "zl.csv"
    code = main([
        "gen", "--density", "zonal", "--n", "3", "--k", "3", "--c", "0.8",
        "--N", "5000", "--out", str(out), "--no-timestamp",
    ])
    assert code == 0
    code, doc = run_json([
        "disc", "--in", str(out), "--family", "cap-fixed", "--s", "0",
        "--M", "500", "--refine", "5", "--no-timestamp",
    ], capsys)
    assert code == 0
    validate(doc)
    assert doc["result"]["method"] == "sampled(M=500,refine=5)"
    assert 0.02 < doc["result"]["value"] < 0.09
    assert len(doc["result"]["trace"]) >= 1


def test_disc_arc_fixed_matches_library(tmp_path, capsys):
    out = tmp_path / "pl.csv"
    main(["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "1000",
          "--out", str(out), "--no-timestamp"])
    code, doc = run_json([
        "disc", "--in", str(out), "--family", "arc-fixed",
        "--a", repr(1 / 3), "--no-timestamp",
    ], capsys)
    assert code == 0
    validate(doc)
    lib = arc_discrepancy_fixed_length(load_points(out), 1 / 3)
    assert doc["result"]["value"] == lib.value
    assert doc["result"]["witness"]["length"] == pytest.approx(2 * math.pi / 3, abs=1e-12)


def test_disc_circle_and_telescope(tmp_path, capsys):
    out = tmp_path / "pl.csv"
    main(["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "2000",
          "--out", str(out), "--no-timestamp"])
    code, doc = run_json(["disc", "--in", str(out), "--family", "circle", "--no-timestamp"], capsys)
    assert code == 0
    validate(doc)
    assert doc["result"]["star_value"] is not None
    code, doc = run_json([
        "disc", "--in", str(out), "--family", "telescope", "--a", "0.41421356", "--m", "7",
        "--no-timestamp",
    ], capsys)
    assert code == 0
    validate(doc)
    assert doc["result"]["exact_match"] is True
    assert doc["result"]["lhs"] == doc["result"]["rhs"]
    # m up to 2^53 is read off fl(m*a) at once; above it float(m) would
    # round, so the run ends in one error line.
    telescope = ["disc", "--in", str(out), "--family", "telescope", "--a", "0.3", "--no-timestamp"]
    code, doc = run_json(telescope + ["--m", str(2**53)], capsys)
    assert code == 0
    validate(doc)
    assert doc["result"]["k"] == math.floor(float(2**53) * 0.3)
    code = main(telescope + ["--m", str(2**53 + 1)])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert "2**53" in captured.err


@pytest.mark.parametrize("s, expected", [(S5, 0), ("0.5", 1)])
def test_verify_caps_tol_zero_report_validates(capsys, s, expected):
    code, doc = run_json(["verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", s,
                          "--tol", "0", "--no-timestamp"], capsys)
    assert code == expected
    validate(doc)
    assert doc["result"]["tol"] == 0.0
    assert (doc["result"]["max_deviation"] == 0.0) is (expected == 0)


def test_verify_caps_pass_and_fail(tmp_path, capsys):
    code, doc = run_json([
        "verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", S5,
        "--M", "200", "--tol", "1e-9", "--no-timestamp",
    ], capsys)
    assert code == 0
    validate(doc)
    assert doc["result"]["passed"] is True
    assert doc["result"]["max_deviation"] <= 1e-9

    code, doc = run_json([
        "verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", "0",
        "--M", "200", "--tol", "1e-9", "--no-timestamp",
    ], capsys)
    assert code == 1
    validate(doc)
    assert doc["result"]["passed"] is False
    # sup over all centers is c * |lambda_3(0)| = 0.05, at the axis
    assert 0.045 < doc["result"]["max_deviation"] <= 0.05 + 1e-12


# verify-caps reports |mu(s) + c lambda_3(s) P_3(axis . axis) - mu(s)|, the
# supremum over all centers.  It differs from the exact rational below by the
# rounding of lambda, of axis . axis (within an ulp of 1) and of the sum and
# difference with mu(s): measured at most 0.625 units of 2^-53 (ulp(1/2)).
VERIFY_ULPS = 4 * 2.0**-53


def _closed_measure_level(n, c, s, axis, dirs):
    # c |lambda_3(s) P_3(axis . u)| per direction, with the closed degree-3
    # Legendre polynomial P_3(t) = t ((n+2) t^2 - 3) / (n-1) in place of the
    # three-term recurrence, and no cap measure added and taken away.
    axis = np.asarray(axis, dtype=float)
    t = np.clip(dirs @ (axis / np.linalg.norm(axis)), -1.0, 1.0)
    return np.abs(c * funk_hecke_lambda(n, 3, s) * (t * ((n + 2) * t * t - 3) / (n - 1)))


def _rational_measure_level(n, c, s):
    # c |lambda_3(s)| in exact rationals of the doubles c and s: lambda_3 is
    # (1 - s^2)(5 s^2 - 1)/16 at n = 3 and (1 - s^2)^2 (7 s^2 - 1)/32 at n = 5.
    c, s = Fraction(c), Fraction(s)
    if n == 3:
        return abs(c * (1 - s * s) * (5 * s * s - 1) / 16)
    assert n == 5
    return abs(c * (1 - s * s) ** 2 * (7 * s * s - 1) / 32)


def test_verify_caps_against_the_closed_measure_level(capsys):
    # The exact supremum over centers, c |lambda_3(s)|, reached at the axis;
    # a 20,000-direction grid search only bounds it from below.
    cases = [(3, 0.8, s) for s in (-0.999, -0.5, 0.0, 0.2, float(S5), 0.7, 0.95)]
    cases += [(5, 0.5, 0.2), (5, 0.5, 1 / math.sqrt(7)), (5, 0.8, -0.6)]
    for n, c, s in cases:
        grid = direction_grid(n, 20000)
        for axis in (None, [1.0, 2.0, 2.0] + [0.5] * (n - 3), [0.3, -2.0] + [0.7] * (n - 2)):
            args = ["verify-caps", "--n", str(n), "--k", "3", "--c", repr(c), "--s", repr(s),
                    "--no-timestamp"]
            if axis is not None:
                args.append("--axis=" + ",".join(repr(a) for a in axis))
            code, doc = run_json(args, capsys)
            validate(doc)
            res = doc["result"]
            axis = np.eye(n)[-1] if axis is None else np.array(axis)
            case = (n, c, s, axis)
            exact = _rational_measure_level(n, c, s)
            assert abs(Fraction(res["max_deviation"]) - exact) <= VERIFY_ULPS, case
            assert code == (0 if res["max_deviation"] <= 1e-9 else 1), case
            assert res["worst_direction"] == unit_vector(axis).tolist(), case
            grid_max = _closed_measure_level(n, c, s, axis, grid).max()
            assert res["max_deviation"] >= grid_max - VERIFY_ULPS, case
    # Here the 20,000-direction grid search read 1.0258e-2.
    code, doc = run_json(["verify-caps", "--n", "5", "--k", "3", "--c", "0.5", "--s", "0.2",
                          "--no-timestamp"], capsys)
    assert abs(doc["result"]["max_deviation"] - 1.0368e-2) <= VERIFY_ULPS


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_axis_exits_two(tmp_path, capsys, bad):
    for args in (
        ["verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", S5],
        ["gen", "--density", "zonal", "--k", "3", "--c", "0.8", "--N", "5",
         "--out", str(tmp_path / "z.csv")],
    ):
        code = main(args + [f"--axis={bad},0,1", "--no-timestamp"])
        captured = capsys.readouterr()
        assert code == 2, args[0]
        assert captured.out == ""
        assert "Traceback" not in captured.err and "non-finite" in captured.err
    assert not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize("s", ["1", "-1", "1.5", "nan"])
def test_cap_fixed_on_circle_rejects_bad_height(tmp_path, capsys, s):
    pts = tmp_path / "p.csv"
    assert main(["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "100",
                 "--out", str(pts), "--no-timestamp"]) == 0
    code = main(["disc", "--in", str(pts), "--family", "cap-fixed", "--s", s, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cap height must lie in (-1, 1)" in captured.err


def test_config_errors_exit_two(tmp_path, capsys):
    assert main(["gen", "--density", "planar", "--N", "10", "--no-timestamp"]) == 2
    assert main(["disc", "--in", str(tmp_path / "missing.csv"), "--family", "circle"]) == 2
    assert main(["gen", "--density", "zonal", "--k", "3", "--c", "2.0", "--N", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    for flags, message in ((["--c", "0.8"], "zonal generation needs --k and --c"),
                           (["--k", "3"], "zonal generation needs --k and --c"),
                           (["--k", "3", "--c", "0.8", "--n", "3", "--axis", "1,0"],
                            "axis needs 3 comma-separated coordinates, got 2")):
        capsys.readouterr()
        assert main(["gen", "--density", "zonal", *flags, "--N", "5",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"capdisc: error: {message}\n"
    assert not (tmp_path / "x.csv").exists()
    with pytest.raises(SystemExit) as exc:
        main(["disc", "--family", "circle"])  # missing required --in
    assert exc.value.code == 2
    # Only gen writes a points file, so only gen takes --out.
    for argv in (["disc", "--in", "p.csv", "--family", "circle"],
                 ["eigenvalue", "--n", "3", "--k", "1", "--s", "0.1"],
                 ["freak-heights", "--n", "3", "--max-degree", "2"],
                 ["verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", S5]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_verify_caps_result_does_not_depend_on_M(capsys):
    # --M is accepted and ignored; config still records it.
    for n in ("3", "5"):
        results = []
        for m in ("1", "0", "20000"):
            code, doc = run_json(["verify-caps", "--n", n, "--k", "3", "--c", "0.8", "--s", "0.3",
                                  "--M", m, "--no-timestamp"], capsys)
            assert code == 1 and doc["config"]["M"] == int(m), (n, m)
            validate(doc)
            results.append(doc["result"])
        assert results[0] == results[1] == results[2], n


def assert_one_error_line(code, captured):
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("capdisc: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("n", ["99999999999999999999", "4611686018427387904"])
def test_verify_caps_checks_the_dimension_before_the_default_axis(capsys, n):
    # The default axis has n coordinates, so the dimension bound comes first:
    # these would overflow or exhaust memory building it.
    code = main(["verify-caps", "--n", n, "--k", "3", "--c", "0.8", "--s", "0.3",
                 "--no-timestamp"])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert "dimension must be >= 2 (an integer <= 100000)" in captured.err


@pytest.mark.parametrize("bad", [["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
                                 ["--refine", "-3"]])
def test_bad_tol_and_refine_exit_two(tmp_path, capsys, bad):
    if bad[0] == "--refine":
        pts = tmp_path / "z.csv"
        assert main(["gen", "--density", "zonal", "--k", "3", "--c", "0.8", "--N", "50",
                     "--out", str(pts), "--no-timestamp"]) == 0
        args = ["disc", "--in", str(pts), "--family", "cap-fixed", "--s", "0", "--M", "20"]
    else:
        args = ["verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", S5]
    code = main(args + bad + ["--no-timestamp"])
    assert_one_error_line(code, capsys.readouterr())


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
def test_out_of_memory_exits_two(tmp_path, capsys, monkeypatch, message):
    # Each command's first large allocation, replaced by one that fails.
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    for name in ("generate_qud", "load_points"):
        monkeypatch.setattr(capdisc.cli, name, no_memory)
    for args in (
        ["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "10",
         "--out", str(tmp_path / "p.csv")],
        ["disc", "--in", str(tmp_path / "p.csv"), "--family", "telescope", "--a", "0.3"],
    ):
        code = main(args + ["--no-timestamp"])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert captured.err == f"capdisc: error: {message or 'MemoryError'}\n"


@pytest.mark.parametrize("family, needs", [("arc-fixed", "--a"), ("telescope", "--a"),
                                           ("cap-fixed", "--s")])
def test_disc_checks_the_family_flags_before_it_reads_the_points(capsys, monkeypatch,
                                                                family, needs):
    # A missing flag must end the run before a large point file is read.
    def no_read(*args, **kwargs):
        raise AssertionError("load_points was called")

    monkeypatch.setattr(capdisc.cli, "load_points", no_read)
    code = main(["disc", "--in", "points.csv", "--family", family, "--no-timestamp"])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert captured.err == f"capdisc: error: family {family} needs {needs}\n"


def test_cap_fixed_with_fewer_than_one_thread_exits_two(tmp_path, capsys):
    pts = tmp_path / "z.csv"
    assert main(["gen", "--density", "zonal", "--k", "3", "--c", "0.8", "--N", "200",
                 "--out", str(pts), "--no-timestamp"]) == 0
    for threads in ("0", "-2"):
        code = main(["disc", "--in", str(pts), "--family", "cap-fixed", "--s", S5,
                     "--M", "50", "--threads", threads, "--no-timestamp"])
        err = capsys.readouterr().err
        assert code == 2, threads
        assert "Traceback" not in err and "capdisc: error:" in err


def test_gen_and_arc_fixed_with_fewer_than_one_thread_exit_two(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    for threads in ("0", "-2"):
        code = main(["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "200",
                     "--out", str(pts), "--threads", threads, "--no-timestamp"])
        err = capsys.readouterr().err
        assert code == 2, threads
        assert "Traceback" not in err and "capdisc: error:" in err
    assert not pts.exists()
    assert main(["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "200",
                 "--out", str(pts), "--no-timestamp"]) == 0
    for threads in ("0", "-2"):
        code = main(["disc", "--in", str(pts), "--family", "arc-fixed", "--a", "0.3",
                     "--threads", threads, "--no-timestamp"])
        err = capsys.readouterr().err
        assert code == 2, threads
        assert "Traceback" not in err and "capdisc: error:" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", ["9223372036854775807", "99999999999999999999"])
def test_gen_seed_past_the_int64_indices_exits_two(tmp_path, capsys, seed):
    code = main(["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "10",
                 "--seed", seed, "--out", str(tmp_path / "p.csv"), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "capdisc: error:" in err and "2^63 - 1" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("density", ["planar", "zonal"])
def test_gen_seed_whose_last_index_is_the_int64_maximum(tmp_path, density):
    seed = 2**63 - 10
    out = tmp_path / "edge.csv"
    args = (["--p", "1", "--q", "3"] if density == "planar" else ["--k", "3", "--c", "0.8"])
    assert main(["gen", "--density", density, *args, "--N", "10", "--seed", str(seed),
                 "--out", str(out), "--no-timestamp"]) == 0
    assert load_points(out).provenance.seed == seed
    driver = Driver("van_der_corput_base2" if density == "planar" else "halton_2_3", seed)
    idx = np.array([seed + j for j in range(10)], dtype=np.int64)
    assert idx[-1] == np.iinfo(np.int64).max
    values = driver.values(10)
    assert np.array_equal(values if values.ndim == 1 else values[:, 0], radical_inverse(2, idx))


@pytest.mark.parametrize("command", [
    ["eigenvalue", "--n", "3", "--s", "0.5", "--k", "201"],
    ["verify-caps", "--n", "3", "--k", "201", "--c", "0.5", "--s", "0.3"],
    ["gen", "--density", "zonal", "--k", "201", "--c", "0.5", "--N", "10"],
], ids=["eigenvalue", "verify-caps", "gen"])
def test_degree_past_max_degree_exits_two(tmp_path, capsys, command):
    if command[0] == "gen":
        command = command + ["--out", str(tmp_path / "z.csv")]
    code = main([*command, "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "capdisc: error:" in err and "200" in err


def test_degrees_up_to_max_degree_still_work(tmp_path, capsys):
    for k in (199, 200):
        code, doc = run_json(["eigenvalue", "--n", "3", "--s", "0.5", "--k", str(k)], capsys)
        assert code == 0 and doc["result"]["lambda"] == funk_hecke_lambda(3, k, 0.5)
    code, doc = run_json(["verify-caps", "--n", "3", "--k", "199", "--c", "0.5", "--s", "0.3",
                          "--M", "50", "--tol", "1"], capsys)
    assert code == 0 and doc["result"]["passed"]
    out = tmp_path / "z.csv"
    assert main(["gen", "--density", "zonal", "--k", "199", "--c", "0.5", "--N", "10",
                 "--out", str(out), "--no-timestamp"]) == 0
    assert load_points(out).size == 10


def test_verify_caps_axis_whose_norm_overflows(capsys):
    args = ["verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", "0", "--M", "50",
            "--no-timestamp"]
    code_small, small = run_json(args + ["--axis", "1,1,0"], capsys)
    code_big, big = run_json(args + ["--axis", "1e308,1e308,0"], capsys)
    assert code_small == code_big == 1
    assert small["result"]["max_deviation"] > 0.04
    assert big["result"] == small["result"]


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "a.json"
    args = ["freak-heights", "--n", "3", "--max-degree", "8", "--no-timestamp",
            "--json", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first

    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    gen = ["gen", "--density", "zonal", "--k", "3", "--c", "0.8", "--N", "300", "--no-timestamp"]
    assert main(gen + ["--out", str(out1)]) == 0
    assert main(gen + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_flag_does_not_change_results(tmp_path, capsys):
    out = tmp_path / "z.csv"
    main(["gen", "--density", "zonal", "--k", "3", "--c", "0.8", "--N", "3000",
          "--out", str(out), "--no-timestamp"])
    args = ["disc", "--in", str(out), "--family", "cap-fixed", "--s", "0.2",
            "--M", "600", "--refine", "4", "--no-timestamp"]
    _, doc1 = run_json(args + ["--threads", "1"], capsys)
    for threads in ("2", "3"):
        _, doc = run_json(args + ["--threads", threads], capsys)
        assert doc["result"] == doc1["result"], threads

    # gen and the arc sweep split 2^16-point blocks across threads: three
    # blocks here, the last one partial.
    gens = {
        "planar": ["--density", "planar", "--p", "1", "--q", "3", "--N", "131077", "--seed", "9"],
        "zonal": ["--density", "zonal", "--k", "3", "--c", "0.8", "--axis", "1,2,2",
                  "--N", "131077", "--seed", "4"],
    }
    for density, gen in gens.items():
        csv = {}
        for threads in ("1", "2", "3"):
            path = tmp_path / f"{density}{threads}.csv"
            assert main(["gen", *gen, "--out", str(path), "--threads", threads]) == 0
            csv[threads] = path.read_bytes()
        assert csv["1"] == csv["2"] == csv["3"], density
    planar = str(tmp_path / "planar1.csv")
    for a in ("0.3333333333333333", "0.3"):
        args = ["disc", "--in", planar, "--family", "arc-fixed", "--a", a, "--no-timestamp"]
        _, doc1 = run_json(args + ["--threads", "1"], capsys)
        for threads in ("2", "3"):
            _, doc = run_json(args + ["--threads", threads], capsys)
            assert doc["result"] == doc1["result"], (a, threads)


def test_timestamp_present_by_default(capsys):
    code, doc = run_json(["eigenvalue", "--n", "3", "--k", "1", "--s", "0.1"], capsys)
    assert code == 0
    assert "timestamp" in doc
    validate(doc)


def run_fresh(script, cwd):
    """Run a Python script in a new interpreter that imports capdisc from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_disc_circle_reports_a_positive_zero_start(tmp_path):
    # atan2(-0.0, 1) is -0.0; the turn of the point (1, -0) must be 0.0.
    pts = tmp_path / "signed.csv"
    pts.write_text("# dim=2 generator=hand seed=0\n1,-0\n0,1\n-1,0\n")
    out = tmp_path / "circle.json"
    assert main(["disc", "--in", str(pts), "--family", "circle", "--no-timestamp",
                 "--json", str(out)]) == 0
    text = out.read_text()
    assert '"theta0": 0.0,' in text, text
    theta0 = json.loads(text)["result"]["witness"]["theta0"]
    assert theta0 == 0.0 and math.copysign(1.0, theta0) == 1.0


def assert_fresh_run_without_scipy(argv, tmp_path):
    """Run argv first in a fresh interpreter, check that scipy stays unloaded,
    and check that a run in this process writes the same bytes.

    Nor may the command load OpenSSL's _hashlib, nor, unless it is gen,
    _blake2: only gen digests, the file it writes, so a disc of a file
    this interpreter did not write loads no digest module.
    """
    unloaded = {"scipy", "_hashlib"} | ({"_blake2"} if argv[0] != "gen" else set())
    argv = argv + ["--json", str(tmp_path / "out.json"), "--no-timestamp"]
    script = (
        "import sys\nimport capdisc.cli\n"
        "assert not {'scipy', '_blake2', '_hashlib'} & set(sys.modules)\n"
        f"rc = capdisc.cli.main({argv!r})\n"
        f"assert not {unloaded!r} & set(sys.modules), sys.modules.keys()\nsys.exit(rc)\n"
    )
    proc = run_fresh(script, tmp_path)
    assert proc.returncode == 0, (argv, proc.stderr)
    fresh = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())} == fresh, argv


def test_commands_that_need_no_scipy_never_import_it(tmp_path):
    # The runtime needs only numpy: generation, the circle families, the
    # freak heights and the n = 5 cap check run without loading scipy.  The
    # n = 5 cap check builds no direction grid; cap-fixed-n4 below covers
    # the Halton grid.
    planar = ["--in", str(tmp_path / "planar.csv")]
    for argv in (
        ["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "300", "--out", planar[1]],
        ["disc", *planar, "--family", "arc-fixed", "--a", "0.3"],
        ["disc", *planar, "--family", "circle"],
        ["disc", *planar, "--family", "telescope", "--a", "0.3", "--m", "4"],
        ["disc", *planar, "--family", "cap-fixed", "--s", "0.5"],
        ["freak-heights", "--n", "3", "--max-degree", "6"],
        ["verify-caps", "--n", "5", "--k", "3", "--c", "0.5", "--s", repr(1 / math.sqrt(7)),
         "--M", "200"],
    ):
        assert_fresh_run_without_scipy(argv, tmp_path)


@pytest.mark.parametrize("command", ["gen-zonal", "cap-fixed-n3", "cap-fixed-n4",
                                     "verify-caps", "eigenvalue"])
def test_scipy_commands_work_first_in_a_fresh_interpreter(tmp_path, command):
    # The commands that once took masses, cap measures or normal quantiles
    # from scipy now compute them in closed form: each, run first in a fresh
    # interpreter, leaves scipy unloaded and writes the same bytes as a run
    # in this process.  The n = 4 case covers the Halton direction grid.
    for n in (3, 4):
        save_points(generate_uniform(n, 400, "random", seed=n), tmp_path / f"u{n}.csv")
    argv = {
        "gen-zonal": ["gen", "--density", "zonal", "--k", "3", "--c", "0.8", "--N", "300",
                      "--out", str(tmp_path / "z.csv")],
        "cap-fixed-n3": ["disc", "--in", str(tmp_path / "u3.csv"), "--family", "cap-fixed",
                         "--s", S5, "--M", "50", "--refine", "2"],
        "cap-fixed-n4": ["disc", "--in", str(tmp_path / "u4.csv"), "--family", "cap-fixed",
                         "--s", "0.3", "--M", "50", "--refine", "2"],
        "verify-caps": ["verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", S5,
                        "--M", "100"],
        "eigenvalue": ["eigenvalue", "--n", "3", "--k", "3", "--s", "0.25"],
    }[command]
    assert_fresh_run_without_scipy(argv, tmp_path)


def test_eigenvalue_past_the_dimension_bound_exits_two(capsys):
    # weight_mass takes n/2 steps, so dimensions stop at 10^5, and the check
    # comes before the quadrature.
    for n in ("100001", "1000000000"):
        t0 = time.perf_counter()
        code = main(["eigenvalue", "--n", n, "--k", "3", "--s", "0.5", "--no-timestamp"])
        err = capsys.readouterr().err
        assert code == 2 and time.perf_counter() - t0 < 5.0, n
        assert "Traceback" not in err and "capdisc: error: dimension must be >= 2" in err
    code, doc = run_json(["eigenvalue", "--n", "100000", "--k", "3", "--s", "0.5"], capsys)
    assert code == 0 and doc["result"]["lambda"] == funk_hecke_lambda(100000, 3, 0.5)


def test_main_builds_one_parser_and_reuses_it(tmp_path, monkeypatch):
    built = []
    build = capdisc.cli.build_parser
    monkeypatch.setattr(capdisc.cli, "build_parser", lambda: built.append(1) or build())
    pts = str(tmp_path / "planar.csv")
    verify = ["verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", S5, "--M", "100"]
    disc = ["disc", "--in", pts, "--family", "arc-fixed", "--a", "0.3"]
    commands = [
        verify + ["--axis", "0,1,0"],
        verify,
        ["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "300", "--out", pts],
        disc + ["--threads", "1"],
        disc + ["--threads", "2"],
        disc,
    ]
    reports = []
    for i, argv in enumerate(commands):
        argv = argv + ["--json", str(tmp_path / f"r{i}.json"), "--no-timestamp"]
        main(argv)
        reports.append((argv, (tmp_path / f"r{i}.json").read_bytes()))
    assert len(built) <= 1
    configs = [json.loads(text)["config"] for _, text in reports]
    assert configs[0]["axis"] == "0,1,0" and configs[1]["axis"] == "0,0,1"
    assert [c["threads"] for c in configs[3:5]] == [1, 2]
    assert configs[5]["threads"] is None
    for argv, text in reports:
        proc = run_fresh(f"import capdisc.cli, sys\nsys.exit(capdisc.cli.main({argv!r}))\n",
                         tmp_path)
        assert proc.returncode in (0, 1), proc.stderr
        assert Path(argv[argv.index("--json") + 1]).read_bytes() == text, argv


def test_reports_do_not_depend_on_the_core_count(tmp_path, monkeypatch):
    # The --threads default is resolved on each call, not when the parser
    # was built: the library sees each count, and no report records it.
    pts = str(tmp_path / "planar.csv")
    commands = {
        "gen": ["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "300", "--out", pts],
        "arc": ["disc", "--in", pts, "--family", "arc-fixed", "--a", "0.3"],
        "circle": ["disc", "--in", pts, "--family", "circle"],
        "freak": ["freak-heights", "--n", "3", "--max-degree", "6"],
        "eigen": ["eigenvalue", "--n", "3", "--k", "3", "--s", "0.5"],
        "verify": ["verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", S5, "--M", "100"],
    }
    seen = []

    def spy(name, call):
        def counted(*args, **kwargs):
            seen.append((name, kwargs.get("threads")))
            return call(*args, **kwargs)
        return counted

    for name in ("generate_qud", "source_unchanged", "load_points"):
        monkeypatch.setattr(capdisc.cli, name, spy(name, getattr(capdisc.cli, name)))
    reports = {}
    for cpus in (1, 3):
        monkeypatch.setattr(capdisc.cli, "_default_threads", lambda: cpus)
        for name, argv in commands.items():
            if name == "circle":
                capdisc.cli._held = None  # so that a parse runs on the round's threads
            out = tmp_path / f"{name}_{cpus}.json"  # config leaves the path out
            assert main(argv + ["--json", str(out), "--no-timestamp"]) == 0, argv
            reports[name, cpus] = out.read_bytes()
    # Each round's arc reuses the set its gen wrote, after a check of the
    # file; its circle parses the file, which takes no threads.
    assert seen == [(name, None if name == "load_points" else cpus) for cpus in (1, 3)
                    for name in ("generate_qud", "source_unchanged", "load_points")]
    for name in commands:
        assert reports[name, 1] == reports[name, 3], name


def test_one_run_written_to_two_json_paths_gives_the_same_bytes(tmp_path):
    pts = str(tmp_path / "planar.csv")
    commands = [
        ["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "300", "--out", pts],
        ["disc", "--in", pts, "--family", "arc-fixed", "--a", "0.3", "--threads", "1"],
        ["freak-heights", "--n", "3", "--max-degree", "6"],
        ["eigenvalue", "--n", "3", "--k", "3", "--s", "0.5"],
        ["verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", S5],
    ]
    for i, argv in enumerate(commands):
        paths = [tmp_path / f"a{i}.json", tmp_path / "sub" / f"b{i}.json"]
        paths[1].parent.mkdir(exist_ok=True)
        for path in paths:
            assert main(argv + ["--json", str(path), "--no-timestamp"]) == 0, argv
        first = paths[0].read_bytes()
        assert paths[1].read_bytes() == first, argv
        assert "json" not in json.loads(first)["config"], argv
        assert json.loads(first)["config"]["no_timestamp"] is True, argv


def count_loads(monkeypatch):
    """The paths main's disc reads through load_points from now on."""
    loads = []
    load = capdisc.cli.load_points

    def counted(path):
        loads.append(str(path))
        return load(path)

    monkeypatch.setattr(capdisc.cli, "load_points", counted)
    return loads


def disc_report(argv, path):
    """main(argv) writing its report to `path`: (exit code, report bytes)."""
    code = main(argv + ["--no-timestamp", "--json", str(path)])
    return code, path.read_bytes() if code == 0 else None


GEN_ARGS = {
    "planar": ["--density", "planar", "--p", "1", "--q", "3", "--N", "3000"],
    "zonal": ["--density", "zonal", "--k", "3", "--c", "0.8", "--N", "2000"],
}


def test_a_malformed_file_holds_nothing(tmp_path, capsys, monkeypatch):
    good, bad = str(tmp_path / "good.csv"), str(tmp_path / "bad.csv")
    Path(bad).write_text("# dim=2 generator=hand seed=0\n1,0\nx,1\n")
    assert main(["gen", *GEN_ARGS["planar"], "--out", good]) == 0
    assert capdisc.cli._held is not None
    loads = count_loads(monkeypatch)
    for path in (bad, good, bad, good):
        code = main(["disc", "--in", path, "--family", "circle", "--no-timestamp"])
        captured = capsys.readouterr()
        if path == good:
            assert code == 0
        else:
            assert_one_error_line(code, captured)
        assert capdisc.cli._held is None
    # The bad file dropped the set gen wrote, so gen's file is parsed.
    assert loads == [bad, good, bad, good]


def test_other_commands_release_the_held_set(tmp_path, monkeypatch):
    # gen drops the held set and holds the one it wrote; a disc of another
    # file and the measure-level commands drop it and hold nothing.
    path, out = tmp_path / "p.csv", str(tmp_path / "gen.csv")
    path.write_text("# dim=2 generator=hand seed=0\n1,0\n0,1\n-1,0\n")
    disc = ["disc", "--in", str(path), "--family", "circle", "--no-timestamp"]
    gen = ["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "300", "--out", out]
    loads = count_loads(monkeypatch)
    for argv in (disc, disc, gen, disc, ["eigenvalue", "--n", "3", "--k", "1", "--s", "0.1"],
                 gen, ["freak-heights", "--n", "3", "--max-degree", "4"], disc, gen,
                 ["verify-caps", "--n", "3", "--k", "3", "--c", "0.8", "--s", S5, "--M", "50"],
                 disc):
        held = capdisc.cli._held
        assert main(argv) == 0
        assert (capdisc.cli._held is None) == (argv[0] != "gen"), argv
        if argv[0] == "gen":
            assert capdisc.cli._held is not held
            assert capdisc.cli._held[1][-1][1] == os.path.getsize(out)
    assert loads == [str(path)] * 5  # every disc parses


def test_discs_of_a_file_gen_did_not_write_parse_it_each_time(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    save_points(generate_uniform(2, 300, "kronecker_s1"), path)
    argv = ["disc", "--in", str(path), "--family", "circle"]
    out = tmp_path / "r.json"
    loads = count_loads(monkeypatch)
    reports = [disc_report(argv, out) for _ in range(2)]
    assert loads == [str(path)] * 2 and capdisc.cli._held is None
    assert reports[0] == reports[1] and reports[0][0] == 0


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("density", sorted(GEN_ARGS))
def test_gen_holds_the_bits_a_load_of_its_file_gives(tmp_path, density, threads):
    path = tmp_path / "p.csv"
    assert main(["gen", *GEN_ARGS[density], "--threads", threads, "--out", str(path)]) == 0
    held, fresh = capdisc.cli._held[0], load_points(path)
    assert held.coords.shape == fresh.coords.shape and held.coords.dtype == fresh.coords.dtype
    assert held.coords.tobytes() == fresh.coords.tobytes()
    assert held.provenance == fresh.provenance
    assert not held.coords.flags.writeable


@pytest.mark.parametrize("threads", ["1", "2"])
def test_disc_after_gen_reports_what_a_fresh_load_does(tmp_path, monkeypatch, threads):
    planar, zonal = str(tmp_path / "planar.csv"), str(tmp_path / "zonal.csv")
    runs = {
        planar: [["--family", "arc-fixed", "--a", "0.3"], ["--family", "circle"],
                 ["--family", "arc-fixed", "--a", repr(1 / 3)]],
        zonal: [["--family", "cap-fixed", "--s", "0", "--M", "300", "--refine", "4"],
                ["--family", "cap-fixed", "--s", S5, "--M", "300"]],
    }
    out = tmp_path / "r.json"
    loads = count_loads(monkeypatch)
    for path, density in ((planar, "planar"), (zonal, "zonal")):
        assert main(["gen", *GEN_ARGS[density], "--threads", threads, "--out", path]) == 0
        held = [disc_report(["disc", "--in", path, *argv, "--threads", threads], out)
                for argv in runs[path]]
        assert loads == []
        fresh = []
        for argv in runs[path]:
            capdisc.cli._held = None
            fresh.append(disc_report(["disc", "--in", path, *argv, "--threads", threads], out))
        assert held == fresh and all(code == 0 for code, _ in held)
        loads.clear()


def test_disc_after_gen_reads_a_rewritten_file_again(tmp_path, monkeypatch):
    # The same size and modification time, the last row's coordinates
    # swapped: only the digests of the bytes tell the two files apart.
    path = tmp_path / "p.csv"
    assert main(["gen", *GEN_ARGS["planar"], "--out", str(path)]) == 0
    stat = path.stat()
    body, last = path.read_bytes()[:-1].rsplit(b"\n", 1)
    x, y = last.split(b",")
    path.write_bytes(body + b"\n" + y + b"," + x + b"\n")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
    argv = ["disc", "--in", str(path), "--family", "circle"]
    out = tmp_path / "r.json"
    loads = count_loads(monkeypatch)
    report = disc_report(argv, out)
    assert loads == [str(path)] and capdisc.cli._held is None
    assert report == disc_report(argv, out)
    assert loads == [str(path)] * 2


def test_gen_without_a_file_or_digests_holds_nothing(tmp_path, capsys, monkeypatch):
    # Each gen first drops the set the one before it wrote.
    good = str(tmp_path / "p.csv")
    gen = ["gen", *GEN_ARGS["planar"], "--out"]
    assert main(gen + [good]) == 0 and capdisc.cli._held is not None
    assert_one_error_line(main(gen + [str(tmp_path / "missing" / "p.csv")]), capsys.readouterr())
    assert capdisc.cli._held is None
    assert main(gen + [good]) == 0 and capdisc.cli._held is not None
    loads = count_loads(monkeypatch)
    with monkeypatch.context() as mp:
        mp.setitem(sys.modules, "_blake2", None)  # the import raises ImportError
        assert main(gen + [good]) == 0
        assert capdisc.cli._held is None
        assert main(["disc", "--in", good, "--family", "circle", "--no-timestamp"]) == 0
    assert loads == [good]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_gen_whose_block_fails_exits_two_and_leaves_no_thread(tmp_path, capsys, monkeypatch,
                                                              threads):
    # 3,000 rows in 429 blocks; the third block formatted raises.
    monkeypatch.setattr(capdisc.sphere, "_WRITE_ROWS", 7)
    gen = ["gen", *GEN_ARGS["planar"], "--threads", str(threads), "--out", str(tmp_path / "p.csv")]
    assert main(gen) == 0 and capdisc.cli._held is not None
    format_fields, calls, lock = capdisc.sphere._format_fields, [], threading.Lock()

    def failing(x, seps):
        with lock:
            calls.append(len(calls))
            if len(calls) == 3:
                raise OSError("No space left on device")
        return format_fields(x, seps)

    monkeypatch.setattr(capdisc.sphere, "_format_fields", failing)
    before = threading.active_count()
    assert_one_error_line(main(gen), capsys.readouterr())
    assert threading.active_count() == before
    assert capdisc.cli._held is None
    # The pool starts blocks in order and the write stops at the failed
    # third: at most 2 * threads blocks are submitted up to and past it.
    assert len(calls) == 3 if threads == 1 else len(calls) <= 2 * threads + 2, len(calls)


@pytest.mark.parametrize("argv", [
    ["disc", "--family", "circle"],  # neither the circle nor the CSV read takes threads
    ["disc", "--family", "arc-fixed", "--a", "0.3"],
    ["freak-heights", "--n", "3", "--max-degree", "6"],
    ["eigenvalue", "--n", "3", "--k", "1", "--s", "0.1"],
])
def test_fewer_than_one_thread_exits_two_for_every_command(tmp_path, capsys, argv):
    if argv[0] != "disc":
        # Only gen and disc take --threads; the others reject it as a usage error.
        for threads in ("1", "0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--threads", threads])
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads" in capsys.readouterr().err
        return
    path = tmp_path / "p.csv"
    path.write_bytes(b"# dim=2 generator=hand seed=0\r\n1,0\r\n0,1\r\n-1,0\r\n")
    argv = argv + ["--in", str(path)]
    assert main(argv + ["--threads", "1"]) == 0
    capsys.readouterr()
    for threads in ("0", "-1"):
        code = main(argv + ["--threads", threads])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert captured.err == f"capdisc: error: need at least one thread, got threads={threads}\n"


def write_members(path, members, compression=zipfile.ZIP_STORED):
    """A zip of .npy members (name, array), written as save_points does
    unless another zip compression method is given."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in members:
            info = zipfile.ZipInfo(f"{name}.npy")
            info.compress_type = compression
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=arr.dtype.hasobject)


_HEADER = np.array("# dim=2 generator=hand seed=0")
_UNIT = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


_BAD_NPZ = {
    "empty": "must be a zip archive",
    "truncated": "BadZipFile",
    "bad-deflate": "error: Error -3 while decompressing",
    "csv": "must be a zip archive",
    "npy": "must be a zip archive",
    "no-header": "header is not a file in the archive",
    "no-coords": "coords is not a file in the archive",
    "int-coords": "2-D float64 array, got 2-D int64",
    "flat-coords": "2-D float64 array, got 1-D float64",
    "dim-mismatch": "do not match declared dim=2",
    "bad-header": "malformed point-set header",
    "pickled": "allow_pickle=False",
    "bad-lzma": "member coords.npy uses zip method 14",
    "bad-bzip2": "member coords.npy uses zip method 12",
}


@pytest.mark.parametrize("case", list(_BAD_NPZ))
def test_bad_npz_exits_two_with_one_error_line(tmp_path, capsys, case):
    message = _BAD_NPZ[case]
    path = tmp_path / "bad.npz"
    if case == "empty":
        path.write_bytes(b"")
    elif case == "truncated":
        save_points(generate_uniform(2, 1000, "kronecker_s1"), path)
        path.write_bytes(path.read_bytes()[:10_000])
    elif case == "bad-deflate":
        # np.savez_compressed deflates its members; the stream is cut short.
        np.savez_compressed(path, coords=_UNIT, header=_HEADER)
        data = bytearray(path.read_bytes())
        start = data.index(b"coords.npy") + len("coords.npy") + 20  # past its zip64 extra
        data[start : start + 8] = b"\xff" * 8
        path.write_bytes(bytes(data))
    elif case in ("bad-lzma", "bad-bzip2"):
        # Members numpy never writes but zipfile reads, the stream corrupted
        # as above: their decoders would raise lzma.LZMAError and OSError.
        module, method = {"bad-lzma": ("lzma", zipfile.ZIP_LZMA),
                          "bad-bzip2": ("bz2", zipfile.ZIP_BZIP2)}[case]
        pytest.importorskip(module)
        write_members(path, [("coords", _UNIT), ("header", _HEADER)], method)
        data = bytearray(path.read_bytes())
        start = data.index(b"coords.npy") + len("coords.npy") + 20
        data[start : start + 30] = b"\xff" * 30
        path.write_bytes(bytes(data))
    elif case == "csv":
        path.write_text("# dim=2 generator=hand seed=0\n1,0\n")
    elif case == "npy":
        with open(path, "wb") as fh:
            np.save(fh, _UNIT)
    else:
        members = {
            "no-header": [("coords", _UNIT)],
            "no-coords": [("header", _HEADER)],
            "int-coords": [("coords", _UNIT.astype(np.int64)), ("header", _HEADER)],
            "flat-coords": [("coords", _UNIT[0]), ("header", _HEADER)],
            "dim-mismatch": [("coords", np.eye(3)), ("header", _HEADER)],
            "bad-header": [("coords", _UNIT), ("header", np.array(["x"]))],
            "pickled": [("coords", _UNIT.astype(object)), ("header", _HEADER)],
        }[case]
        write_members(path, members)
    with pytest.raises(ValueError, match=message):
        load_points(path)
    code = main(["disc", "--in", str(path), "--family", "circle", "--no-timestamp"])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert message in captured.err and "Traceback" not in captured.err


def test_npz_written_by_hand_reads_like_save_points(tmp_path):
    # The helper above writes what save_points writes, so the cases there
    # differ from a good file only in the member they change.
    path = tmp_path / "good.npz"
    write_members(path, [("coords", _UNIT), ("header", _HEADER)])
    ps = load_points(path)
    assert ps.coords.tolist() == _UNIT.tolist()
    save_points(ps, tmp_path / "again.npz")
    assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("density", sorted(GEN_ARGS))
def test_gen_npz_bytes_do_not_depend_on_threads_and_hold_nothing(tmp_path, density):
    data = []
    for threads in ("1", "2", "3"):
        path = tmp_path / f"t{threads}.npz"
        assert main(["gen", *GEN_ARGS[density], "--threads", threads, "--out", str(path)]) == 0
        assert capdisc.cli._held is None  # no digests of an .npz
        data.append(path.read_bytes())
        with zipfile.ZipFile(path) as zf:
            assert all(i.date_time == (1980, 1, 1, 0, 0, 0) for i in zf.infolist())
    assert data[0] == data[1] == data[2]
    csv = tmp_path / "p.csv"
    assert main(["gen", *GEN_ARGS[density], "--out", str(csv)]) == 0
    npz, fresh = load_points(tmp_path / "t1.npz"), load_points(csv)
    assert npz.coords.tobytes() == fresh.coords.tobytes() and npz.provenance == fresh.provenance


def test_disc_of_an_npz_reports_what_the_csv_of_the_same_set_does(tmp_path):
    # In this process after each gen (the CSV's disc reuses the held set,
    # the .npz's reads its file) and in a fresh process.
    runs = {
        "planar": [["--family", "arc-fixed", "--a", "0.3"], ["--family", "circle"],
                   ["--family", "telescope", "--a", "0.3", "--m", "7"]],
        "zonal": [["--family", "cap-fixed", "--s", "0", "--M", "300", "--refine", "4"]],
    }
    out = tmp_path / "r.json"
    for density, argvs in runs.items():
        results = {}
        for suffix in ("csv", "npz"):
            path = str(tmp_path / f"{density}.{suffix}")
            assert main(["gen", *GEN_ARGS[density], "--out", path]) == 0
            for i, argv in enumerate(argvs):
                disc = ["disc", "--in", path, *argv, "--no-timestamp", "--json", str(out)]
                assert main(disc) == 0
                results[suffix, i, "held"] = json.loads(out.read_text())["result"]
                proc = run_fresh(f"import capdisc.cli, sys\nsys.exit(capdisc.cli.main({disc!r}))\n",
                                 tmp_path)
                assert proc.returncode == 0, proc.stderr
                results[suffix, i, "fresh"] = json.loads(out.read_text())["result"]
        for i in range(len(argvs)):
            want = results["csv", i, "fresh"]
            assert all(results[key] == want for key in results if key[1] == i), (density, i)
