"""Command-line interface: JSON result records and CSV profile tables.

Every subcommand prints one self-describing JSON record to standard output
and nothing else there; wall time goes to standard error so repeated runs
with identical inputs are bit-identical on stdout.  Profiles and tables are
written as CSV files with a header row, full 17-significant-digit floats,
and one row per grid node.

Exit codes: 0 success, 1 solver failure (diagnostic JSON still emitted),
2 input error (bad flag, bad parameter range, unreadable config).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, SolverError
from .henon import solve_henon
from .second_variation import eigenprofile_steepness, min_second_variation
from .special import surface_measure
from .stability import (appendix_table, compute_k, find_p_loc, find_q_loc,
                        stability_scale, verify_appendix_chain)
from .steklov import bessel_lambda2, solve_steklov, steklov_eigenvalue
from .variational import minimize_quotient

__all__ = ["main", "build_parser", "trapezoid_quotient"]

SCHEMA = "henon-lab/1"

# np.trapz was renamed; support both so the package floor stays at 1.24.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _record(command: str, inputs: dict, results: dict, tolerances: dict,
            diagnostics: dict, profiles: dict) -> dict:
    return {"schema": SCHEMA, "command": command, "inputs": inputs,
            "results": results, "tolerances": tolerances,
            "diagnostics": diagnostics, "profiles": profiles}


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(_jsonable(record), indent=2, sort_keys=True))
    sys.stdout.write("\n")


def _write_profile(path: str, rs, values, derivatives) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["r", "value", "derivative"])
        for r, v, d in zip(rs, values, derivatives):
            writer.writerow([f"{r:.17g}", f"{v:.17g}", f"{d:.17g}"])


def trapezoid_quotient(rs, values, derivatives, n: int, p: float, q: float,
                       alpha: float) -> float:
    """Weighted quotient of a sampled profile under the trapezoid rule.

    Deliberately rough: the point is that anyone holding only the CSV rows
    can reproduce the reported number exactly, since 17 significant digits
    round-trip through text.
    """
    rs = np.asarray(rs, dtype=float)
    values = np.asarray(values, dtype=float)
    derivatives = np.asarray(derivatives, dtype=float)
    vol = rs ** (n - 1)
    num = _trapezoid((np.abs(derivatives) ** p + np.abs(values) ** p) * vol, rs)
    den = _trapezoid(rs ** (alpha + n - 1.0) * np.abs(values) ** q, rs)
    return float(surface_measure(n) ** (1.0 - p / q) * num / den ** (p / q))


def _run_steklov(args) -> dict:
    sol = solve_steklov(args.n, args.p, refinement=args.refine, tol=args.tol)
    inputs = {"n": args.n, "p": args.p, "refine": args.refine,
              "tol": args.tol, "bessel_check": bool(args.bessel_check)}
    results = {"lambda_p": sol.lambda_p, "phi_origin": sol.phi0,
               "phi_boundary": sol.phi1,
               "surface_measure": sol.surface_measure}
    tolerances = {"lambda_p": args.tol}
    if args.bessel_check:
        if args.p != 2:
            raise ValueError("the Bessel cross-check applies to p = 2 only")
        reference = bessel_lambda2(args.n)
        results["bessel_lambda"] = reference
        results["bessel_rel_err"] = abs(sol.lambda_p - reference) / reference
        tolerances["bessel_rel_err"] = 1e-8
    return _record("steklov", inputs, results, tolerances,
                   dict(sol.diagnostics), {})


def _run_radial(args) -> dict:
    sol = solve_henon(args.n, args.p, args.q, args.alpha,
                      refinement=args.refine, tol=args.tol,
                      d_lo=args.d_lo, d_hi=args.d_hi,
                      max_expansions=args.max_expansions)
    inputs = {"n": args.n, "p": args.p, "q": args.q, "alpha": args.alpha,
              "refine": args.refine, "tol": args.tol,
              "oracle": bool(args.oracle)}
    results = {"mu": sol.mu, "d0": sol.d0, "norm_w": sol.norm_w,
               "shoot_res": sol.shoot_res,
               "v_origin": sol.v.origin_value,
               "v_boundary": sol.v.boundary_value}
    tolerances = {"mu": args.tol, "mu_quotient_rel_err": 1e-6}
    diagnostics = dict(sol.diagnostics)
    profiles = {}
    if args.profile_out:
        rs = sol.grid.nodes
        _write_profile(args.profile_out, rs, sol.v.values, sol.v.derivatives)
        results["csv_quotient"] = trapezoid_quotient(
            rs, sol.v.values, sol.v.derivatives,
            args.n, args.p, args.q, args.alpha)
        tolerances["csv_quotient"] = 1e-8
        profiles["profile"] = str(args.profile_out)
    if args.oracle:
        oracle = minimize_quotient(args.n, args.p, args.q, args.alpha)
        rq = sol.grid.quad_x
        gap = oracle.v(rq) - sol.v(rq)
        results["mu_variational"] = oracle.mu
        results["mu_rel_gap"] = (oracle.mu - sol.mu) / sol.mu
        results["l2_distance"] = float(np.sqrt(sol.grid.integrate(
            gap * gap * rq ** (args.n - 1))))
        tolerances["mu_rel_gap"] = 1e-3
        diagnostics["oracle"] = dict(oracle.diagnostics)
    return _record("radial", inputs, results, tolerances, diagnostics,
                   profiles)


def _run_second_variation(args) -> dict:
    sol = solve_henon(args.n, args.p, args.q, args.alpha,
                      refinement=args.refine, tol=args.tol)
    result = min_second_variation(sol, ell=args.harmonic)
    inputs = {"n": args.n, "p": args.p, "q": args.q, "alpha": args.alpha,
              "harmonic": args.harmonic, "refine": args.refine,
              "tol": args.tol}
    results = {"sigma": result.sigma, "lambda_reg": result.lambda_reg,
               "angular": result.angular, "mu": sol.mu,
               "steepness": eigenprofile_steepness(result)}
    tolerances = {"sigma_residual": 1e-8}
    diagnostics = {"radial": dict(sol.diagnostics),
                   "pencil": dict(result.diagnostics)}
    profiles = {}
    if args.eigenprofile_out:
        rs = result.grid.nodes
        _write_profile(args.eigenprofile_out, rs, result.h.values,
                       result.h.derivatives)
        inner = rs[1:-1] * result.h.derivatives[1:-1]
        results["csv_steepness"] = float(np.max(inner) / result.h.values[-1])
        tolerances["csv_steepness"] = 1e-8
        profiles["eigenprofile"] = str(args.eigenprofile_out)
    return _record("second-variation", inputs, results, tolerances,
                   diagnostics, profiles)


def _run_stability(args) -> dict:
    lam = steklov_eigenvalue(args.n, args.p)
    inputs = {"n": args.n, "p": args.p, "q": args.q}
    results = {"lambda_p": lam,
               "scale": stability_scale(args.n, args.p, lam),
               "q_loc": find_q_loc(args.n, args.p, lambda_p=lam)}
    if args.q is not None:
        k = compute_k(args.n, args.p, args.q, lam)
        results["k_value"] = k
        results["k_positive"] = k > 0.0
    if args.n >= 4:
        try:
            results["p_loc"] = find_p_loc(args.n)
        except ConvergenceError:
            results["p_loc"] = None
    else:
        results["p_loc"] = None  # no root below p = 2 in dimension 3
    chain = verify_appendix_chain(args.n, args.p, lam)
    results["chain"] = {
        "all_hold": chain.all_hold,
        "links": [{"name": link.name, "margin": link.margin,
                   "holds": link.holds} for link in chain.links],
    }
    tolerances = {"q_loc": 1e-6, "p_loc": 1e-6}
    return _record("stability", inputs, results, tolerances, {}, {})


def _run_appendix_table(args) -> dict:
    rows = appendix_table()
    results = {
        "rows": [{"k": row.k, "t": row.tk, "gtilde": row.gtilde,
                  "gtilde_4dp": round(row.gtilde, 4), "bound": row.bound,
                  "holds": row.holds} for row in rows],
        "all_hold": all(row.holds for row in rows),
    }
    profiles = {}
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "t", "gtilde", "bound", "holds"])
            for row in rows:
                # 4-decimal display; binary-to-decimal rounding is half-even
                writer.writerow([row.k, f"{row.tk:.2f}", f"{row.gtilde:.4f}",
                                 f"{row.bound:.1f}", str(row.holds).lower()])
        profiles["table"] = str(args.out)
    return _record("appendix-table", {}, results, {"gtilde": 1e-4}, {},
                   profiles)


def _sweep_point(task) -> dict:
    """One sweep unit; exceptions become data so a bad point cannot stop it."""
    index, point, refinement, tol, output_dir = task
    try:
        n = int(point["n"])
        p = float(point["p"])
        q = float(point["q"])
        alpha = float(point["alpha"])
    except (KeyError, TypeError, ValueError) as exc:
        return {"point": point, "error": {"type": type(exc).__name__,
                                          "message": str(exc)}}
    try:
        sol = solve_henon(n, p, q, alpha, refinement=refinement, tol=tol)
    except (SolverError, ValueError) as exc:
        return {"point": {"n": n, "p": p, "q": q, "alpha": alpha},
                "error": {"type": type(exc).__name__, "message": str(exc)}}
    entry = {"point": {"n": n, "p": p, "q": q, "alpha": alpha},
             "mu": sol.mu, "d0": sol.d0, "norm_w": sol.norm_w,
             "shoot_res": sol.shoot_res}
    if output_dir:
        path = Path(output_dir) / f"profile_{index:03d}.csv"
        _write_profile(str(path), sol.grid.nodes, sol.v.values,
                       sol.v.derivatives)
        entry["profile"] = str(path)
    return entry


def _run_sweep(args) -> dict:
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("sweep config must be a JSON object")
    points = config.get("points", [])
    if not isinstance(points, list):
        raise ValueError("'points' must be a list of parameter objects")
    refinement = int(config.get("refinement", 8))
    tol = float(config.get("tol", 1e-10))
    output_dir = config.get("output_dir")
    parallelism = int(config.get("parallelism", 1))
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if output_dir:
        Path(output_dir).mkdir(parents=True, exist_ok=True)

    tasks = [(i, point, refinement, tol, output_dir)
             for i, point in enumerate(points)]
    if parallelism > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_sweep_point, tasks))  # input order
    else:
        results = [_sweep_point(task) for task in tasks]

    inputs = {"config": str(args.config), "num_points": len(points),
              "refinement": refinement, "tol": tol,
              "parallelism": parallelism}
    return _record("sweep", inputs, {"points": results}, {"mu": tol}, {},
                   {"output_dir": str(output_dir)} if output_dir else {})


_HANDLERS = {
    "steklov": _run_steklov,
    "radial": _run_radial,
    "second-variation": _run_second_variation,
    "stability": _run_stability,
    "appendix-table": _run_appendix_table,
    "sweep": _run_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="henon-lab",
        description="Radial eigenvalue and ground-state computations on the "
                    "unit ball, with machine-checkable JSON/CSV output.")
    sub = parser.add_subparsers(dest="command", required=True)

    steklov = sub.add_parser("steklov", help="first nonlinear boundary "
                             "eigenvalue and eigenfunction")
    steklov.add_argument("--n", type=int, required=True)
    steklov.add_argument("--p", type=float, required=True)
    steklov.add_argument("--refine", type=int, default=8)
    steklov.add_argument("--tol", type=float, default=1e-10)
    steklov.add_argument("--bessel-check", action="store_true",
                         help="cross-check p=2 against the Bessel closed form")

    radial = sub.add_parser("radial", help="ground state of the weighted "
                            "quotient by shooting")
    radial.add_argument("--n", type=int, required=True)
    radial.add_argument("--p", type=float, required=True)
    radial.add_argument("--q", type=float, required=True)
    radial.add_argument("--alpha", type=float, required=True)
    radial.add_argument("--refine", type=int, default=8)
    radial.add_argument("--tol", type=float, default=1e-10)
    radial.add_argument("--oracle", action="store_true",
                        help="cross-check against direct minimization")
    radial.add_argument("--profile-out", metavar="CSV",
                        help="write the normalized profile as CSV")
    radial.add_argument("--d-lo", type=float, default=None,
                        help="override the lower shooting bracket")
    radial.add_argument("--d-hi", type=float, default=None,
                        help="override the upper shooting bracket")
    radial.add_argument("--max-expansions", type=int, default=12,
                        help="bracket growth attempts before giving up")

    second = sub.add_parser("second-variation", help="smallest "
                            "second-variation eigenvalue of an angular mode")
    second.add_argument("--n", type=int, required=True)
    second.add_argument("--p", type=float, required=True)
    second.add_argument("--q", type=float, required=True)
    second.add_argument("--alpha", type=float, required=True)
    second.add_argument("--harmonic", type=int, default=1,
                        help="angular mode index (default 1)")
    second.add_argument("--refine", type=int, default=8)
    second.add_argument("--tol", type=float, default=1e-10)
    second.add_argument("--eigenprofile-out", metavar="CSV",
                        help="write the minimizing profile as CSV")

    stability = sub.add_parser("stability", help="stability constant K, "
                               "its roots, and the inequality chain")
    stability.add_argument("--n", type=int, required=True)
    stability.add_argument("--p", type=float, required=True)
    stability.add_argument("--q", type=float, default=None,
                           help="also evaluate K at this exponent")

    table = sub.add_parser("appendix-table", help="the 20-row comparison "
                           "table behind the eigenvalue bound")
    table.add_argument("--out", metavar="CSV", help="write the table as CSV")

    sweep = sub.add_parser("sweep", help="batch-solve a list of parameter "
                           "points from a JSON config")
    sweep.add_argument("config", help="JSON file: {points: [{n,p,q,alpha}], "
                       "refinement, tol, output_dir, parallelism}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    code = 0
    try:
        record = _HANDLERS[args.command](args)
    except (SolverError, ValueError, OSError) as exc:
        record = {"schema": SCHEMA, "command": args.command,
                  "error": {"type": type(exc).__name__, "message": str(exc)}}
        code = 1 if isinstance(exc, SolverError) else 2
    _emit(record)
    print(f"wall_time_s={time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
