"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`.

The pinned work counts come from one fixed seed; two traced runs of the
same ops must reproduce them exactly.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import henon_lab  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer, _package_modules  # noqa: E402

SEED = 7

# Work done by the first two shoot ops, two pencil ops (p = 2 at N = 1281,
# p > 2 at N = 641) and one in-process stability, second-variation and
# radial --oracle op of seed 7.
PINNED = {
    "flux_ode.rhs_evals": 57294,
    "flux_ode.steps": 8788,
    "henon.trials": 84,
    "rootfind.brent.evals": 24,
    "second_variation.dense_eigh.calls": 1,
    "second_variation.inverse_solves": 62,
    "steklov.shots": 50,
    "variational.lbfgs_iters": 2000,
}


def _pinned_ops():
    shoot = list(islice(workloads.shoot_ops(SEED), 2))
    pencil = list(islice(workloads.pencil_ops(
        workloads.pencil_prepare(SEED)), 36))
    dense = next(op for op in pencil if op.kind == "p=2 N=1281")
    inverse = next(op for op in pencil
                   if op.kind.endswith(" N=641") and op.kind != "p=2 N=641")
    cli = [op for op in islice(workloads.cli_ops(SEED, {}, str(ROOT)), 6)
           if op.kind in ("stability", "second-variation", "radial-oracle")]
    return shoot + [dense, inverse] + [run._in_process(op) for op in cli]


def _traced(ops):
    tracer = Tracer()
    _, failed, _ = run._run_pass(ops, tracer)
    assert failed == 0
    return tracer


def test_work_counts_repeat_exactly_and_match_pins():
    ops = _pinned_ops()
    first, second = _traced(ops), _traced(ops)
    assert first.work_counts() == second.work_counts() == PINNED
    assert first.trials_match()


def test_tracer_restores_every_binding():
    before = {(mod.__name__, attr): value for mod in _package_modules()
              for attr, value in vars(mod).items()}
    states = henon_lab.flux_ode.FluxTrajectory._states
    with Tracer():
        assert henon_lab.flux_ode.FluxTrajectory._states is not states
        assert henon_lab.henon._steklov_shot is not before[
            ("henon_lab.henon", "_steklov_shot")]
    after = {(mod.__name__, attr): value for mod in _package_modules()
             for attr, value in vars(mod).items()}
    assert all(after[key] is value for key, value in before.items())
    assert henon_lab.flux_ode.FluxTrajectory._states is states


def test_tracer_wraps_every_lookup_name():
    tracer = Tracer()
    with tracer, tracer.op(0):
        henon_lab.cli.steklov_eigenvalue(3, 2.0)
        henon_lab.stability.steklov_eigenvalue(3, 2.0)
    assert tracer.counts["steklov.shots"] == 2
    assert tracer.counts["stability.repeat_lambda"] == 1
    assert tracer.metrics()["stability.repeat_lambda_frac"] == 0.5


def test_only_the_call_is_traced_and_unreached_layers_read_zero():
    # min_second_variation assembles its two forms; the check's residual
    # assembles two more, which must not count as the program's work.
    pencil = next(workloads.pencil_ops(workloads.pencil_prepare(SEED)))
    shoot = next(workloads.shoot_ops(SEED))
    for op, reached, unreached in (
            (pencil, "mesh.assemble_forms.calls", "henon.solve_henon.calls"),
            (shoot, "henon.solve_henon.calls", "mesh.assemble_forms.calls")):
        tracer = Tracer()
        _, failed, _ = run._run_pass([op], tracer)
        metrics = tracer.metrics()
        assert failed == 0 and metrics.keys() == PER_LAYER.keys()
        assert metrics[unreached] == 0
        assert metrics[reached] == (2 if op is pencil else 1)
    assert metrics["second_variation.pencil_min_eig.self_s"] == 0.0
    assert metrics["second_variation.inverse_solves_per_pencil"] == 0.0


def test_tail_has_ten_samples_above_it_or_is_the_largest():
    assert run.tail([0.3, 0.1, 0.2]) == (0.3, 100.0)
    samples = [float(k) for k in range(40)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 75.0


def test_raw_exception_counts_as_failure():
    def boom():
        raise OverflowError("numerical result out of range")

    elapsed, passed, result = run.execute(workloads.Op("x", boom,
                                                       lambda r: True))
    assert not passed and isinstance(result, OverflowError) and elapsed >= 0


def test_record_parsing_rejects_extra_or_error_records():
    good = json.dumps({"schema": "henon-lab/1", "results": {}})
    assert workloads.parse_record(good + "\n")["schema"] == "henon-lab/1"
    with pytest.raises(ValueError):
        workloads.parse_record(good + good)
    with pytest.raises(ValueError):
        workloads.parse_record(json.dumps({"schema": "henon-lab/1",
                                           "error": {}}))


def test_inputs_depend_only_on_the_seed_and_stay_admissible():
    first = list(islice(workloads.shoot_points(SEED), 200))
    assert first == list(islice(workloads.shoot_points(SEED), 200))
    assert first != list(islice(workloads.shoot_points(SEED + 1), 200))
    shares = []
    for n, p, q, alpha in first:
        henon_lab.validate_parameters(n, p, q, alpha)
        assert 5.0 <= alpha <= 400.0 and 0.05 <= q - p <= 10.0
        share = (q - p) / (henon_lab.admissible_q_upper(n, p, alpha) - p)
        assert share <= (0.5 if p >= 3.5 else 1.0)
        shares.append(share)
    assert max(shares) > 0.5   # the upper part of the interval is drawn
    assert {(n, p == 2.0) for n, p, _, _ in first} >= {
        (n, two) for n in (3, 4, 5, 6) for two in (True, False)}
    for (n, p, q, alpha), _ in workloads.pencil_states(SEED):
        henon_lab.validate_parameters(n, p, q, alpha)
        assert 0.05 <= q - p <= 1.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_without_the_package_it_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "shoot", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
