"""henon-lab benchmark: end-to-end metrics per workload, or a traced split.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {shoot,pencil,cli} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the workload runs for S seconds, every op is checked, and
the end-to-end metrics are printed.  With --trace 1 each op of a fixed,
seeded list runs untraced and then traced, and every per-layer metric is
printed (0 for a layer the workload does not reach), with the tracing
slowdown and exact work counts; S is not used.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a readable summary and the environment.

The package is imported from `src/` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, here and in every child, so a
# later change cannot show up as a gain or loss from a different count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import (nullcontext, redirect_stderr,  # noqa: E402
                        redirect_stdout)
from io import StringIO  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

IMPORT_ROUNDS = 5     # fresh imports per run, and
PREP_ROUNDS = 3       # pencil preparations; setup_s adds their medians
IMPORT_PROBES = 3     # fresh interpreters per traced run
TAIL_ABOVE = 10       # samples that must lie above the tail value
WORKLOADS = ("shoot", "pencil", "cli")

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}
IMPORTS = {"import.henon_lab_s": "henon_lab", "import.numpy_s": "numpy",
           "import.scipy_linalg_s": "scipy.linalg",
           "import.scipy_integrate_s": "scipy.integrate",
           "import.scipy_optimize_s": "scipy.optimize"}
LAYER_UNITS = {**{name: "s" for name in IMPORTS},
               **{f"cli.{kind}.process_s": "s"
                  for kind in workloads.CLI_KINDS},
               "cli.overhead_s": "s", **PER_LAYER,
               "trace.slowdown": "ratio"}


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src first, and
    bytecode caching on, so a cold process loads compiled modules as an
    installed package does whatever the caller's setting."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": vendor, "nproc": nproc,
            "blas_threads": BLAS_THREADS, "machine": platform.machine()}


def fresh_import_s(env: dict) -> float:
    """Spawn to `import henon_lab` done, in a fresh interpreter."""
    code = ("import time, henon_lab; "
            "print(time.monotonic()); print(henon_lab.__file__)")
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout.split("\n")
    if not Path(out[1]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"child imported henon_lab from {out[1]}")
    return float(out[0]) - start


def import_split(env: dict) -> dict:
    """Median cumulative import seconds per module from -X importtime; 0
    for a module that `import henon_lab` does not load."""
    samples = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_PROBES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import henon_lab"], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=120).stderr
        cumulative = {}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, module = line.split("|")
            if cum.strip().isdigit():
                cumulative.setdefault(module.strip(), int(cum) / 1e6)
        for name, module in IMPORTS.items():
            if module in cumulative:
                samples[name].append(cumulative[module])
    return {name: statistics.median(vals) if vals else 0.0
            for name, vals in samples.items()}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_ABOVE samples
    above it; the largest sample when there are too few."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_ABOVE:
        return ordered[-1], 100.0
    idx = len(ordered) - 1 - TAIL_ABOVE
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def execute(op, around=None):
    """Run one op, then its check: (seconds of the call, passed, result).
    `around`, a context manager such as `Tracer.op`, wraps the call alone."""
    start = time.perf_counter()
    try:
        with around or nullcontext():
            result = op.call()
    except Exception as exc:  # a raw exception is a failed op, not a crash
        return time.perf_counter() - start, False, exc
    elapsed = time.perf_counter() - start
    try:
        passed = bool(op.check(result))
    except Exception:
        passed = False
    return elapsed, passed, result


def prepare(workload: str, seed: int, env: dict):
    """(setup_s, prepared): the median of IMPORT_ROUNDS fresh imports, plus
    for pencil the median of PREP_ROUNDS ground-state preparations."""
    setup_s = statistics.median(fresh_import_s(env)
                                for _ in range(IMPORT_ROUNDS))
    if workload != "pencil":
        return setup_s, None
    rounds = []
    for _ in range(PREP_ROUNDS):
        start = time.perf_counter()
        prepared = workloads.pencil_prepare(seed)
        rounds.append(time.perf_counter() - start)
    return setup_s + statistics.median(rounds), prepared


def ops_for(workload: str, seed: int, prepared, env: dict):
    if workload == "shoot":
        return workloads.shoot_ops(seed)
    if workload == "pencil":
        return workloads.pencil_ops(prepared)
    return workloads.cli_ops(seed, env, str(ROOT))


def timed_run(workload: str, seed: int, seconds: float, env: dict):
    setup_s, prepared = prepare(workload, seed, env)
    times, passed, attempted = [], 0, 0
    started = time.perf_counter()
    for op in ops_for(workload, seed, prepared, env):
        elapsed, ok, _ = execute(op)
        times.append(elapsed)
        attempted += 1
        passed += ok
        if time.perf_counter() - started >= seconds:
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": passed / sum(times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = [f"op_tail_s is p{pct:.1f} of {attempted} ops",
             f"fail_frac {(attempted - passed) / attempted:.6g} ratio "
             f"({attempted - passed} of {attempted} ops failed)"]
    return attempted, attempted - passed, metrics, END_TO_END, notes


def _run_pass(op_list, tracer=None) -> tuple[list, int, list]:
    """Run ops in order: ([untraced, traced] seconds of the calls, failed,
    results).  With a tracer each op runs untraced, with no wrapper in
    place, and then traced, so both totals see the same machine speed;
    without one, traced stays 0."""
    seconds, failed, results = [0.0, 0.0], 0, []
    for op_id, op in enumerate(op_list):
        elapsed, ok, result = execute(op)
        seconds[0] += elapsed
        failed += not ok
        if tracer is not None:
            with tracer:   # wrappers go in and out outside the timing
                elapsed, ok, result = execute(op, tracer.op(op_id))
            seconds[1] += elapsed
            failed += not ok
        results.append((elapsed, ok, result))
    return seconds, failed, results


def _in_process(op):
    """The same cli op, through henon_lab.cli.main in this process."""
    import henon_lab.cli

    def call():
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = henon_lab.cli.main(op.argv)
        return subprocess.CompletedProcess(op.argv, code, out.getvalue(),
                                           err.getvalue())

    return workloads.Op(op.kind, call,
                        lambda proc: workloads.check_process(op.kind, proc),
                        argv=op.argv)


def traced_run(workload: str, seed: int, env: dict):
    metrics = import_split(env)
    prepared = workloads.pencil_prepare(seed) if workload == "pencil" \
        else None
    # Two rounds of the shoot strata, one pencil pass, one cycle of the cli
    # subcommands; each op runs untraced and then traced.
    count = {"shoot": 2 * len(workloads.SHOOT_STRATA),
             "pencil": len(prepared or ()),
             "cli": len(workloads.CLI_KINDS)}[workload]
    op_list = list(islice(ops_for(workload, seed, prepared, env), count))
    attempted, failed, cold = 0, 0, []
    process_s = {kind: [] for kind in workloads.CLI_KINDS}
    if workload == "cli":
        # Cold processes give the per-subcommand wall times; the same argv
        # then runs in process, untraced and traced, for the layer split.
        _, failed, cold = _run_pass(op_list)
        attempted = len(op_list)
        for op, (elapsed, _, _) in zip(op_list, cold):
            process_s[op.kind].append(elapsed)
        op_list = [_in_process(op) for op in op_list]

    tracer = Tracer()
    (plain_s, traced_s), pass_failed, _ = _run_pass(op_list, tracer)
    attempted += 2 * len(op_list)
    failed += pass_failed
    metrics.update(tracer.metrics())

    for kind, samples in process_s.items():
        metrics[f"cli.{kind}.process_s"] = \
            statistics.median(samples) if samples else 0.0
    handler_s = [end - start for _, name, start, end, _, _ in tracer.spans
                 if name == "cli.main"]
    overheads = [elapsed - metrics["import.henon_lab_s"] - handler
                 for (elapsed, _, _), handler in zip(cold, handler_s)]
    metrics["cli.overhead_s"] = \
        statistics.median(overheads) if overheads else 0.0
    metrics["trace.slowdown"] = traced_s / plain_s

    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl")
    notes = [f"work counts {json.dumps(tracer.work_counts(), sort_keys=True)}",
             f"traced pass {traced_s:.3f} s, untraced {plain_s:.3f} s, "
             f"{len(op_list)} ops"]
    if not tracer.trials_match():
        failed += 1
        notes.append("trial count disagrees with solve_henon diagnostics")
    return attempted, failed, metrics, LAYER_UNITS, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "henon_lab" / "__init__.py").is_file():
        print(f"perfbench: no henon_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import henon_lab

    if not Path(henon_lab.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported henon_lab from {henon_lab.__file__}",
              file=sys.stderr)
        return 2

    env = child_env()
    if args.trace:
        attempted, failed, metrics, units, notes = traced_run(
            args.workload, args.seed, env)
    else:
        attempted, failed, metrics, units, notes = timed_run(
            args.workload, args.seed, args.seconds, env)
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in sorted(units):
        print(f"  {name} {metrics[name]:.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
