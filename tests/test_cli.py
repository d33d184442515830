"""End-to-end CLI checks: records, CSV round-trips, exit codes, sweep."""
import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from cli_child import PACKAGE_PARENT, run_cli
from henon_lab import compute_ipn, solve_henon, solve_steklov
from henon_lab.cli import trapezoid_quotient

SCHEMA = "henon-lab/1"


def record_of(proc):
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout)


def read_profile(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "value", "derivative"]
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    return data[:, 0], data[:, 1], data[:, 2]


def test_steklov_record():
    proc = run_cli("steklov", "--n", "3", "--p", "2", "--refine", "6",
                   "--bessel-check")
    assert proc.returncode == 0
    rec = record_of(proc)
    assert rec["schema"] == SCHEMA
    assert rec["command"] == "steklov"
    assert rec["inputs"]["n"] == 3 and rec["inputs"]["bessel_check"] is True
    res = rec["results"]
    assert abs(res["lambda_p"] - 0.313035285499) <= 1e-9
    assert res["bessel_rel_err"] <= 1e-8
    assert res["phi_boundary"] > res["phi_origin"] > 0.0
    # Timing goes to stderr so stdout stays replayable.
    assert "wall_time_s" not in proc.stdout
    assert "wall_time_s=" in proc.stderr


def test_radial_profile_roundtrip(tmp_path):
    out = tmp_path / "prof.csv"
    proc = run_cli("radial", "--n", "4", "--p", "2", "--q", "3",
                   "--alpha", "25", "--refine", "5",
                   "--profile-out", str(out))
    assert proc.returncode == 0
    rec = record_of(proc)
    res = rec["results"]
    assert res["shoot_res"] <= 1e-8
    assert rec["profiles"]["profile"] == str(out)
    rs, vals, derivs = read_profile(out)
    assert rs[0] == 0.0 and rs[-1] == 1.0
    assert vals[-1] == res["v_boundary"]
    # 17 significant digits round-trip exactly, so the CSV alone reproduces
    # the reported quotient bit for bit.
    redo = trapezoid_quotient(rs, vals, derivs, 4, 2.0, 3.0, 25.0)
    assert redo == res["csv_quotient"]
    # The rough trapezoid number still sits near the solver's mu.
    assert abs(res["csv_quotient"] - res["mu"]) <= 5e-3 * res["mu"]


def test_radial_oracle_cross_check():
    proc = run_cli("radial", "--n", "4", "--p", "2", "--q", "3",
                   "--alpha", "25", "--refine", "6", "--oracle")
    assert proc.returncode == 0
    res = record_of(proc)["results"]
    assert 0.0 < res["mu_rel_gap"] <= 1e-3
    assert res["mu_variational"] >= res["mu"]
    assert res["l2_distance"] <= 1e-2
    assert record_of(proc)["diagnostics"]["oracle"]["iterations"] > 0


def test_second_variation_record(tmp_path):
    out = tmp_path / "eig.csv"
    proc = run_cli("second-variation", "--n", "4", "--p", "2", "--q", "3",
                   "--alpha", "200", "--refine", "6",
                   "--eigenprofile-out", str(out))
    assert proc.returncode == 0
    rec = record_of(proc)
    res = rec["results"]
    assert res["sigma"] > 0.0
    assert res["lambda_reg"] == 0.0
    assert res["angular"] == 3.0
    assert res["mu"] > 0.0
    rs, vals, derivs = read_profile(out)
    inner = rs[1:-1] * derivs[1:-1]
    assert float(np.max(inner) / vals[-1]) == res["csv_steepness"]
    assert abs(res["csv_steepness"] - res["steepness"]) <= 1e-8


def test_stability_record():
    proc = run_cli("stability", "--n", "4", "--p", "2", "--q", "4")
    assert proc.returncode == 0
    res = record_of(proc)["results"]
    assert abs(res["q_loc"] - 5.8431994761) <= 1e-5
    assert res["k_value"] > 0.0 and res["k_positive"] is True
    assert 2.2 < res["p_loc"] < 2.3
    chain = res["chain"]
    assert chain["all_hold"] is True
    assert len(chain["links"]) == 9

    proc = run_cli("stability", "--n", "3", "--p", "2.5")
    assert proc.returncode == 0
    res = record_of(proc)["results"]
    assert res["p_loc"] is None  # no threshold search below dimension 4
    assert "k_value" not in res


def test_appendix_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_cli("appendix-table", "--out", str(out))
    assert proc.returncode == 0
    res = record_of(proc)["results"]
    assert res["all_hold"] is True
    assert len(res["rows"]) == 20
    assert res["rows"][9]["gtilde_4dp"] == 2.2799
    lines = out.read_text().splitlines()
    assert lines[0] == "k,t,gtilde,bound,holds"
    assert len(lines) == 21
    assert lines[10] == "10,0.50,2.2799,2.9,true"


def test_exit_codes(tmp_path):
    # Parameter outside the admissible window: argument error, code 2.
    proc = run_cli("radial", "--n", "4", "--p", "2", "--q", "2", "--alpha", "5")
    assert proc.returncode == 2
    err = record_of(proc)["error"]
    assert err["type"] == "ValueError"
    assert "constant profile" in err["message"]

    # A solver giving up on good-looking inputs: code 1.
    proc = run_cli("radial", "--n", "4", "--p", "2", "--q", "3",
                   "--alpha", "25", "--d-lo", "1e9", "--d-hi", "2e9",
                   "--max-expansions", "0")
    assert proc.returncode == 1
    assert record_of(proc)["error"]["type"] == "BracketError"

    proc = run_cli("steklov", "--n", "3", "--p", "2.5", "--bessel-check")
    assert proc.returncode == 2
    assert record_of(proc)["error"]["type"] == "ValueError"

    # argparse problems: usage on stderr, nothing on stdout.
    proc = run_cli("steklov", "--n", "3", "--p", "2", "--bogus")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage" in proc.stderr

    proc = run_cli()
    assert proc.returncode == 2
    assert "usage" in proc.stderr

    # Unreadable config: code 2 with an error record.
    proc = run_cli("sweep", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert record_of(proc)["error"]["type"] == "FileNotFoundError"


def test_cli_import_leaves_multiprocessing_out():
    # Only a parallel sweep needs a process pool; plain commands do not pay
    # for importing it.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, henon_lab.cli; "
         "print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_scipy_out():
    # numpy is the whole runtime at import; scipy loads on first use.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, henon_lab.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _scipy_modules_after(argv):
    """Exit code and the scipy modules loaded by a cold `cli.main(argv)`."""
    code = "\n".join([
        "import contextlib, io, json, sys",
        "from henon_lab.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    code = main({argv!r})",
        "print(json.dumps([code, sorted(m for m in sys.modules",
        "                                if m.startswith('scipy'))]))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True,
                          env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_second_variation_loads_no_scipy():
    assert _scipy_modules_after(["second-variation", "--n", "4", "--p", "2",
                                 "--q", "3", "--alpha", "400",
                                 "--refine", "6"]) == [0, []]


def test_radial_oracle_loads_no_scipy():
    assert _scipy_modules_after(["radial", "--n", "5", "--p", "2.5", "--q",
                                 "4", "--alpha", "25", "--oracle"]) == [0, []]


def test_sweep(tmp_path):
    config = {
        "points": [
            {"n": 4, "p": 2.0, "q": 2.5, "alpha": 5.0},
            {"n": 4, "p": 2.0, "q": 3.0, "alpha": 10.0},
            {"n": 4, "p": 2.0, "q": 1.5, "alpha": 5.0},
            {"n": 4},
        ],
        "refinement": 5,
        "parallelism": 2,
        "output_dir": str(tmp_path / "profiles"),
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    proc = run_cli("sweep", str(cfg))
    assert proc.returncode == 0
    rec = record_of(proc)
    points = rec["results"]["points"]
    assert len(points) == 4
    # Output order follows the config regardless of parallelism.
    assert points[0]["point"]["q"] == 2.5
    assert points[1]["point"]["q"] == 3.0
    for entry in points[:2]:
        assert entry["mu"] > 0.0
        assert (tmp_path / "profiles" / entry["profile"].split("/")[-1]).exists()
    assert points[0]["profile"].endswith("profile_000.csv")
    # A bad parameter point and a malformed one are isolated, not fatal.
    assert points[2]["error"]["type"] == "ValueError"
    assert points[3]["error"]["type"] == "KeyError"

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"points": []}))
    proc = run_cli("sweep", str(empty))
    assert proc.returncode == 0
    assert record_of(proc)["results"]["points"] == []


# (CLI arguments, the same input in-process, the parameter to be named).
# The stability command stops at the Steklov validator; compute_ipn has its
# own.
NON_FINITE = [
    (("radial", "--n", "4", "--p", "2", "--q", "3", "--alpha", "inf"),
     lambda: solve_henon(4, 2.0, 3.0, math.inf), "alpha"),
    (("radial", "--n", "4", "--p", "2", "--q", "nan", "--alpha", "5"),
     lambda: solve_henon(4, 2.0, math.nan, 5.0), "q"),
    (("steklov", "--n", "3", "--p", "inf"),
     lambda: solve_steklov(3, math.inf), "p"),
    (("stability", "--n", "3", "--p", "inf"),
     lambda: compute_ipn(3, math.inf), "p"),
]


def names_bad_value(message: str, name: str) -> bool:
    return (re.search(rf"\b{name}\b", message) is not None
            and ("inf" in message or "nan" in message))


@pytest.mark.parametrize("argv, call, name", NON_FINITE,
                         ids=[" ".join(case[0]) for case in NON_FINITE])
def test_non_finite_input_is_rejected_by_name(argv, call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert names_bad_value(str(info.value), name), info.value
    proc = run_cli(*argv)
    assert proc.returncode == 2
    err = record_of(proc)["error"]
    assert err["type"] == "ValueError"
    assert names_bad_value(err["message"], name), err["message"]


def test_unrepresentable_origin_value_is_a_solver_error(tmp_path):
    # At q - p = 0.001 the predicted origin value is about e^2851.
    proc = run_cli("radial", "--n", "6", "--p", "2", "--q", "2.001",
                   "--alpha", "100")
    assert proc.returncode == 1
    assert record_of(proc)["error"]["type"] == "BracketError"

    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "points": [{"n": 6, "p": 2.0, "q": 2.001, "alpha": 100.0},
                   {"n": 4, "p": 2.0, "q": 3.0, "alpha": 10.0}],
        "refinement": 5,
    }))
    proc = run_cli("sweep", str(cfg))
    assert proc.returncode == 0
    bad, good = record_of(proc)["results"]["points"]
    assert bad["error"]["type"] == "BracketError"
    assert good["mu"] > 0.0
