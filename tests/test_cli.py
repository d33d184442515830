"""End-to-end CLI checks: records, CSV round-trips, exit codes, sweep."""
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_child import PACKAGE_PARENT, parse_record, run_cli
from henon_lab import (admissible_q_upper, cli, compute_ipn, compute_k,
                       solve_henon, solve_steklov)
from henon_lab.cli import trapezoid_quotient

SCHEMA = "henon-lab/1"


def record_of(proc):
    assert proc.stdout, proc.stderr
    return parse_record(proc.stdout)


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


def test_oracle_gap_above_its_tolerance_is_a_solver_error():
    # Beyond one_root_span the oracle, a local method, converges on the
    # mu = 4.014 critical point while shooting finds the ground state at
    # 1.179: the gap the record would state breaks its 1e-3 tolerance.
    argv = ["radial", "--n", "5", "--p", "4.5", "--q", "47.25", "--alpha",
            "5", "--oracle"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    proc = run_cli(*argv)
    assert code == proc.returncode == 1
    assert out.getvalue() == proc.stdout
    record = parse_record(proc.stdout)
    assert record["error"]["type"] == "ConvergenceError"
    message = record["error"]["message"]
    assert "oracle mu 4.014" in message and "shooting mu 1.179" in message


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
    # The certificate's bound, not a figure the record never checks.
    assert rec["tolerances"] == {"sigma": 1e-7, "csv_steepness": 1e-8}
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

    # A solver giving up on admissible inputs: code 1.  At q - p = 1e-3
    # the predicted origin value is far outside the float range.
    proc = run_cli("radial", "--n", "6", "--p", "2", "--q", "2.001",
                   "--alpha", "100")
    assert proc.returncode == 1
    assert record_of(proc)["error"]["type"] == "BracketError"

    proc = run_cli("steklov", "--n", "3", "--p", "2.5", "--bessel-check")
    assert proc.returncode == 2
    assert record_of(proc)["error"]["type"] == "ValueError"

    # p above n is refused before the shot, which at large p crawls at the
    # float overflow edge instead of finishing.
    for command in ("steklov", "stability"):
        proc = run_cli(command, "--n", "4", "--p", "1e5")
        assert proc.returncode == 2
        rec = record_of(proc)
        assert list(rec) == ["command", "error", "schema"]
        assert rec["error"]["type"] == "ValueError"
        assert "p=100000.0" in rec["error"]["message"], rec

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
            {"n": 4.9, "p": 2.0, "q": 2.5, "alpha": 5.0},
            {"n": True, "p": 2.0, "q": 2.5, "alpha": 5.0},
            {"n": 4, "p": True, "q": 2.5, "alpha": 5.0},
            {"n": 4, "p": 2.0, "q": False, "alpha": 5.0},
            {"n": 4, "p": 2.0, "q": 2.5, "alpha": True},
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
    assert len(points) == 9
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
    # n is not truncated: a fraction or a boolean is that point's error.
    for entry, shown in zip(points[4:], ("4.9", "True")):
        assert entry["error"]["type"] == "ValueError"
        message = entry["error"]["message"]
        assert f"n must be an integer, got {shown}" in message
    # Nor is a boolean p, q or alpha read as 1.0 or 0.0.
    for entry, (key, shown) in zip(points[6:], [("p", "True"), ("q", "False"),
                                                 ("alpha", "True")]):
        assert entry["error"]["type"] == "ValueError"
        message = entry["error"]["message"]
        assert f"{key} must be a number, got {shown}" in message

    # A bad refinement, tol or parallelism stops the sweep before any point
    # runs; only invalid parallelism values appear, so no pool starts.
    point = {"n": 4, "p": 2.0, "q": 2.5, "alpha": 5.0}
    for key, value in [("refinement", 6.7), ("refinement", True),
                       ("tol", math.nan), ("tol", math.inf), ("tol", 0.0),
                       ("tol", True), ("parallelism", 1.7),
                       ("parallelism", True), ("parallelism", 0)]:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": [point], key: value}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["sweep", str(bad)])
        assert code == 2, (key, value)
        rec = parse_record(out.getvalue())
        assert rec["error"]["type"] == "ValueError"
        assert rec["error"]["message"].startswith(key), rec
        assert "results" not in rec

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"points": []}))
    proc = run_cli("sweep", str(empty))
    assert proc.returncode == 0
    assert record_of(proc)["results"]["points"] == []


def test_sweep_pool_is_capped_by_points_and_cores(tmp_path, monkeypatch):
    # A pool forks all its workers at start, so a huge `parallelism` must
    # not reach it.  The stand-in records the request and maps serially.
    import concurrent.futures

    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    point = {"n": 4, "p": 2.0, "q": 3.0, "alpha": 10.0}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"points": [point, point], "refinement": 5,
                               "parallelism": 5000}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["sweep", str(cfg)])
    assert code == 0
    assert requested == [2]
    rec = parse_record(out.getvalue())
    assert rec["inputs"]["parallelism"] == 5000
    first, second = rec["results"]["points"]
    assert first["mu"] == second["mu"] > 0.0

    # One core: no pool at all, however many points and workers are asked.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["sweep", str(cfg)]) == 0
    assert requested == [2]


# (CLI arguments, the same input in-process, the parameter to be named).
# The stability command stops at the Steklov validator; compute_ipn has its
# own, and so has compute_k for q, whose K would be NaN or infinite.
NON_FINITE = [
    (("radial", "--n", "4", "--p", "2", "--q", "3", "--alpha", "inf"),
     lambda: solve_henon(4, 2.0, 3.0, math.inf), "alpha"),
    (("radial", "--n", "4", "--p", "2", "--q", "nan", "--alpha", "5"),
     lambda: solve_henon(4, 2.0, math.nan, 5.0), "q"),
    (("steklov", "--n", "3", "--p", "inf"),
     lambda: solve_steklov(3, math.inf), "p"),
    (("stability", "--n", "3", "--p", "inf"),
     lambda: compute_ipn(3, math.inf), "p"),
    (("radial", "--n", "4", "--p", "2", "--q", "3", "--alpha", "50", "--tol",
      "nan"), lambda: solve_henon(4, 2.0, 3.0, 50.0, tol=math.nan), "tol"),
    (("steklov", "--n", "3", "--p", "2", "--tol", "inf"),
     lambda: solve_steklov(3, 2.0, tol=math.inf), "tol"),
] + [(("stability", "--n", "4", "--p", "2.5", "--q", text),
      lambda value=float(text): compute_k(4, 2.5, value), "q")
     for text in ("nan", "inf", "-inf")]


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


NEGATIVE_EXPONENT_FORM = [
    ("radial", "--n", "4", "--p", "2", "--q", "3", "--alpha", "-1e-05"),
    ("radial", "--n", "4", "--p", "2", "--q", "3", "--alpha", "-inf"),
    ("radial", "--n", "4", "--p", "2", "--q", "3", "--alpha", "-1E+3"),
    ("steklov", "--n", "4", "--p", "-2e0"),
]


@pytest.mark.parametrize("argv", NEGATIVE_EXPONENT_FORM, ids=" ".join)
def test_negative_value_in_exponent_form_is_a_value(argv):
    # argparse alone reads -1e-05 and -inf as flags and exits with a usage
    # message; like -0.5 they must reach the range check as values.
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    assert code == 2
    assert parse_record(out.getvalue())["error"]["type"] == "ValueError"


def test_unrepresentable_origin_value_is_a_solver_error(tmp_path):
    # At q - p = 0.001 the predicted origin value is about e^2851;
    # `radial` exits 1 there (test_exit_codes), and a sweep goes on.
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


# A lattice spreads the draws of alpha and q - p over their ranges.
_FRACTIONS = st.sampled_from(np.linspace(0.0, 1.0, 65).tolist())


@st.composite
def radial_args(draw):
    """An admissible point with q - p in [1e-3, 10], and at most one of its
    four values replaced by any integer (n) or any float (p, q, alpha)."""
    n = draw(st.integers(3, 6))
    p = draw(st.floats(2.0, n - 0.5))
    alpha = 400.0 * draw(_FRACTIONS)
    top = min(10.0, admissible_q_upper(n, p, alpha) - p)
    q = p + 1e-3 * (top / 1e-3) ** draw(_FRACTIONS)
    args = {"n": n, "p": p, "q": q, "alpha": alpha}
    wild = draw(st.sampled_from([None, "n", "p", "q", "alpha"]))
    if wild is not None:
        args[wild] = draw(st.integers() if wild == "n" else st.floats())
    return args


@settings(derandomize=True, max_examples=300, deadline=None)
@given(radial_args())
# The root lies past the largest float, where d^(p-1) overflows: the
# centre-out residual forms no power of d, and the bracket gives up with a
# BracketError (exit 1), not an OverflowError.
@example({"n": 4, "p": 3.0, "q": 3.0011547819846895, "alpha": 6.25})
def test_radial_prints_one_record_and_a_known_exit_code(args):
    argv = ["radial"]
    for key, value in args.items():
        argv += [f"--{key}", repr(value)]
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    record = parse_record(out.getvalue())
    assert code == (0 if "error" not in record else
                    1 if record["error"]["type"] != "ValueError" else 2)
