"""End-to-end tests of the command-line surface: outputs, schema, exit codes."""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from capdisc import (
    Driver,
    PlanarRationalDensity,
    arc_discrepancy_fixed_length,
    funk_hecke_lambda,
    generate_qud,
    load_points,
)
from capdisc.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output.schema.json").read_text()
)

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
    # sup over all centers is c * |lambda_3(0)| = 0.05 at the axis; a
    # 200-direction grid scan gets most of it
    assert 0.045 < doc["result"]["max_deviation"] <= 0.05 + 1e-12


def test_config_errors_exit_two(tmp_path, capsys):
    assert main(["gen", "--density", "planar", "--N", "10", "--no-timestamp"]) == 2
    assert main(["disc", "--in", str(tmp_path / "missing.csv"), "--family", "circle"]) == 2
    assert main(["gen", "--density", "zonal", "--k", "3", "--c", "2.0", "--N", "5",
                 "--out", str(tmp_path / "x.csv")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["disc", "--family", "circle"])  # missing required --in
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_caps_without_directions_exits_two(capsys):
    for n in ("3", "4"):
        for m in ("0", "-1"):
            code = main(["verify-caps", "--n", n, "--k", "3", "--c", "0.8", "--s", S5,
                         "--M", m, "--no-timestamp"])
            err = capsys.readouterr().err
            assert code == 2, (n, m)
            assert "Traceback" not in err and "capdisc: error:" in err


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
    _, doc2 = run_json(args + ["--threads", "3"], capsys)
    assert doc1["result"] == doc2["result"]


def test_timestamp_present_by_default(capsys):
    code, doc = run_json(["eigenvalue", "--n", "3", "--k", "1", "--s", "0.1"], capsys)
    assert code == 0
    assert "timestamp" in doc
    validate(doc)
