"""End-to-end tests of the command-line surface: outputs, schema, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import capdisc.cli
from capdisc import (
    Cap,
    Driver,
    PlanarRationalDensity,
    ZonalDensity,
    arc_discrepancy_fixed_length,
    cap_measure,
    freak_heights,
    funk_hecke_lambda,
    generate_qud,
    generate_uniform,
    legendre_eval,
    load_points,
    radical_inverse,
    save_points,
)
from capdisc.cli import main
from capdisc.discrepancy import direction_grid

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


def _per_direction_verify(n, k, c, s, axis, dirs):
    # The former verify-caps loop: one Cap and one scalar cap probability
    # per direction, keeping the first strict maximum.  lambda_k(s) and the
    # cap measure are the same doubles on every pass, so they are hoisted.
    density = ZonalDensity(dim=n, degree=k, coefficient=c, axis=axis)
    target = cap_measure(n, s)
    scale = density.coefficient * funk_hecke_lambda(n, k, s)
    worst, worst_dir = -1.0, dirs[0]
    for u in dirs:
        cap = Cap(u, s)
        dot = float(np.clip(np.dot(density.axis, cap.center), -1.0, 1.0))
        prob = target + scale * legendre_eval(n, k, dot)
        dev = abs(prob - target)
        if dev > worst:
            worst, worst_dir = dev, u
    return worst, worst_dir


def _assert_verify_matches_loop(capsys, n, s, m_dirs, axis, dirs):
    args = ["verify-caps", "--n", str(n), "--k", "3", "--c", "0.8", "--s", repr(s),
            "--M", str(m_dirs), "--no-timestamp"]
    if axis is not None:
        args.append("--axis=" + ",".join(repr(a) for a in axis))
    code, doc = run_json(args, capsys)
    axis = np.eye(n)[-1] if axis is None else np.array(axis)
    worst, worst_dir = _per_direction_verify(n, 3, 0.8, s, axis, dirs)
    res = doc["result"]
    assert code == (0 if worst <= 1e-9 else 1)
    # %.17g prints integral floats such as 1.0 or 0.0 as JSON integers.
    got = np.array([res["max_deviation"], *res["worst_direction"]], dtype=float)
    want = np.array([worst, *worst_dir], dtype=float)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, s, m_dirs, axis)


def test_verify_caps_bit_identical_to_per_direction_loop(capsys):
    # At a freak height lambda_k(s) ~ 0 hides any rounding in axis . u; the
    # non-freak cases include ones where a matrix-vector product in place
    # of the per-row dot changes the last bit of max_deviation.
    def axes(n):
        return {"default": None, "tilted": [0.3, -2.0] + [0.7] * (n - 2), "ones": [1.0] * n}

    for n in (3, 4, 5):
        freak = freak_heights(n, 2).entries[0].height
        for s in (freak, 0.1, 0.6, -0.2):
            for m_dirs in (1, 2, 257):
                for axis in axes(n).values():
                    _assert_verify_matches_loop(capsys, n, s, m_dirs, axis, direction_grid(n, m_dirs))
    # Full-size grids, a few: the scalar loop costs about 1 s each.
    for n, s, axis in ((3, 1.0 / math.sqrt(5.0), "tilted"), (3, -0.2, "tilted"),
                       (4, 0.6, "tilted"), (5, 0.6, "ones")):
        _assert_verify_matches_loop(capsys, n, s, 20000, axes(n)[axis], direction_grid(n, 20000))


def test_verify_caps_keeps_the_first_of_tied_maxima(capsys, monkeypatch):
    # Each ring of four directions shares one last coordinate, hence one
    # axis . u about the default axis and one deviation.  The z = -0.95
    # rings (rows 4-7 and 12-15) tie for the maximum; the loop's strict >
    # keeps row 4.
    ring = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.6, -0.8]])
    dirs = np.array([[*(np.sqrt(1.0 - z * z) * xy), z]
                     for z in (0.9, -0.95, 0.6, -0.95) for xy in ring])
    monkeypatch.setattr(capdisc.cli, "direction_grid", lambda n, M: dirs[:M])
    for s in (0.0, 0.3, -0.2):
        code, doc = run_json(["verify-caps", "--n", "3", "--k", "3", "--c", "0.8",
                              "--s", repr(s), "--M", str(len(dirs)), "--no-timestamp"], capsys)
        worst, worst_dir = _per_direction_verify(3, 3, 0.8, s, np.array([0.0, 0.0, 1.0]), dirs)
        assert code == 1
        assert np.array_equal(worst_dir, dirs[4]), s
        assert doc["result"]["max_deviation"] == worst
        assert doc["result"]["worst_direction"] == dirs[4].tolist()


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
    code = main([*command, "--out", str(tmp_path / "z.csv"), "--no-timestamp"])
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
    assert '"theta0": 0,' in text, text
    theta0 = json.loads(text)["result"]["witness"]["theta0"]
    assert theta0 == 0.0 and math.copysign(1.0, theta0) == 1.0


def test_commands_that_need_no_scipy_never_import_it(tmp_path):
    # Start-up cost: planar generation, the circle families and the freak
    # heights must run without loading scipy.
    script = """
import sys
import capdisc.cli

assert "scipy" not in sys.modules, "import capdisc.cli"
pts = ["--in", "planar.csv"]
for argv in (
    ["gen", "--density", "planar", "--p", "1", "--q", "3", "--N", "300", "--out", "planar.csv"],
    ["disc", *pts, "--family", "arc-fixed", "--a", "0.3"],
    ["disc", *pts, "--family", "circle"],
    ["disc", *pts, "--family", "telescope", "--a", "0.3", "--m", "4"],
    ["disc", *pts, "--family", "cap-fixed", "--s", "0.5"],
    ["freak-heights", "--n", "3", "--max-degree", "6"],
):
    assert capdisc.cli.main(argv + ["--json", "out.json", "--no-timestamp"]) == 0, argv
    assert "scipy" not in sys.modules, argv
"""
    proc = run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["gen-zonal", "cap-fixed-n3", "cap-fixed-n4",
                                     "verify-caps", "eigenvalue"])
def test_scipy_commands_work_first_in_a_fresh_interpreter(tmp_path, command):
    # Each loads scipy on its first use and writes the same bytes as a run
    # in this process.
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
    }[command] + ["--json", str(tmp_path / "out.json"), "--no-timestamp"]
    script = (
        "import sys\nimport capdisc.cli\n"
        f"rc = capdisc.cli.main({argv!r})\n"
        "assert 'scipy' in sys.modules\nsys.exit(rc)\n"
    )
    proc = run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    fresh = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())} == fresh


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
    assert configs[5]["threads"] == capdisc.cli._default_threads()
    for argv, text in reports:
        proc = run_fresh(f"import capdisc.cli, sys\nsys.exit(capdisc.cli.main({argv!r}))\n",
                         tmp_path)
        assert proc.returncode in (0, 1), proc.stderr
        assert Path(argv[argv.index("--json") + 1]).read_bytes() == text, argv

    # The --threads default is resolved on each call, not when the parser
    # was built.
    out = tmp_path / "threads.json"
    for cpus in (3, 5):
        monkeypatch.setattr(capdisc.cli, "_default_threads", lambda: cpus)
        assert main(disc + ["--json", str(out), "--no-timestamp"]) == 0
        assert json.loads(out.read_text())["config"]["threads"] == cpus
