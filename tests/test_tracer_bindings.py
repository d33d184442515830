"""The benchmark tracer must still install over the package's names.

`perfbench/tracer.py` wraps functions by the names the package binds
(`second_variation.solve_banded` and `eigh`, `flux_ode.solve_ivp`, ...).
Renaming or removing one of them breaks only the traced benchmark run, so
this installs and removes the tracer once as part of the unit suite.
"""
import importlib.util
from pathlib import Path

from henon_lab import second_variation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    solve = second_variation.solve_banded
    with tracer.Tracer():
        assert second_variation.solve_banded is not solve
    assert second_variation.solve_banded is solve
