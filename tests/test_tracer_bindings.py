"""The benchmark tracer must still install over the package's names.

`perfbench/tracer.py` wraps functions by the names the package binds
(`second_variation.solve_banded` and `eigh`, `flux_ode.solve_ivp`, ...).
Renaming or removing one of them breaks only the traced benchmark run, so
this installs and removes the tracer once as part of the unit suite, and
checks that the work it counts agrees with what the solvers report.
"""
import importlib.util
from pathlib import Path

import henon_lab
from henon_lab import second_variation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_and_restores():
    tracer = _tracer_module()
    solve = second_variation.solve_banded
    with tracer.Tracer():
        assert second_variation.solve_banded is not solve
    assert second_variation.solve_banded is solve


def test_counted_trials_match_the_solvers_diagnostics():
    # One centre-out solve, one scan-path solve (with a competing root that
    # fails its quotient check and is dropped) and one pencil.  The tracer
    # counts a trial per `shooting_miss` call and reads "trials",
    # "expansions" and the pencil's "method" from the results.
    centre_point = (4, 2.5, 3.0, 200.0)
    scan_point = (5, 4.1492357979689505, 46.3233984216942, 4.865953370121124)
    for (n, p, q, alpha), scan in ((centre_point, False), (scan_point, True)):
        assert (q - p > henon_lab.one_root_span(n, p, alpha)) == scan
    tracer = _tracer_module().Tracer()
    with tracer, tracer.op(0):
        # Called through the package so that the wrapped names are used.
        sols = [henon_lab.solve_henon(*centre_point),
                henon_lab.solve_henon(*scan_point)]
        pencil = henon_lab.min_second_variation(sols[0])
    assert "dropped_roots" in sols[1].diagnostics
    assert tracer.trials_match()
    assert tracer.counts["henon.trials"] == sum(
        sol.diagnostics["trials"] for sol in sols)
    assert tracer.counts["henon.expansions"] == sum(
        sol.diagnostics["expansions"] for sol in sols)
    assert pencil.diagnostics["method"] == "sturm+inverse"
    assert tracer.counts["second_variation.sturm_inverse"] == 1
    metrics = tracer.metrics()
    assert metrics["henon.solve_henon.calls"] == 2
    assert metrics["second_variation.pencil_min_eig.calls"] == 1
