"""Direct quotient minimization against the shooting route."""
import dataclasses
import json

import numpy as np
import pytest

from henon_lab import cli, variational
from henon_lab.errors import ConvergenceError
from henon_lab.mesh import build_grid
from henon_lab.special import surface_measure
from henon_lab.variational import minimize_quotient


def test_agrees_with_shooting(ground_state):
    sol = ground_state(4, 2.0, 3.0, 50.0)
    var = minimize_quotient(4, 2.0, 3.0, 50.0)
    # The P1 minimum sits above the continuum level but within the
    # interpolation error at this refinement.
    assert var.mu >= sol.mu * (1.0 - 1e-6)
    assert abs(var.mu - sol.mu) <= 1e-3 * sol.mu
    # The minimizing profiles agree in L2 on the ball.
    rs = var.v.grid.quad_x
    wq = var.v.grid.quad_w
    diff = var.v(rs) - sol.v(rs)
    l2 = np.sqrt(surface_measure(4) * np.dot(wq, diff ** 2 * rs ** 3))
    assert l2 <= 1e-2


def test_history_descends():
    var = minimize_quotient(4, 2.0, 3.0, 25.0, refinement=6)
    hist = np.asarray(var.history)
    assert hist.size >= 3
    assert hist[0] > hist[-1]
    # The Armijo line search accepts no rise beyond the rounding of f.
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])
    assert hist[-1] == min(hist)
    assert var.diagnostics["iterations"] > 0


def test_minimizer_normalized():
    var = minimize_quotient(4, 2.0, 3.0, 25.0, refinement=6)
    grid = var.v.grid
    rs, wq = grid.quad_x, grid.quad_w
    vals = var.v(rs)
    dvals = var.v.derivative(rs)
    norm_p = surface_measure(4) * np.dot(
        wq, (np.abs(dvals) ** 2 + vals ** 2) * rs ** 3)
    # Nodal renormalization is exact; quadrature of the P1 interpolant of
    # the derivative differs from the cellwise slopes by the stitching at
    # the nodes only.
    assert abs(norm_p - 1.0) <= 5e-2
    assert np.all(vals > 0.0)
    assert vals[-1] > vals[0]  # boundary-concentrating shape


def test_parameter_validation():
    with pytest.raises(ValueError, match="constant profile"):
        minimize_quotient(4, 2.0, 2.0, 25.0)


@pytest.mark.parametrize("n, p, q, alpha", [
    (4, 2.0, 3.0, 50.0),
    (5, 2.5, 4.0, 25.0),
    (4, 3.0, 3.5, 100.0),
    (4, 3.5, 225.75, 60.0),
    (4, 2.0, 3.0, 400.0),
])
def test_newton_meets_gradient_test(ground_state, n, p, q, alpha):
    var = minimize_quotient(n, p, q, alpha)
    assert var.diagnostics["converged"], var.diagnostics
    mu = ground_state(n, p, q, alpha).mu
    # What is left is the P1 interpolation error alone.
    assert abs(var.mu - mu) <= 1e-5 * mu


def test_newton_steps_pinned():
    # The golden `radial --oracle` point; the iteration is deterministic.
    var = minimize_quotient(5, 2.5, 4.0, 25.0)
    assert var.diagnostics["iterations"] == 8
    assert var.diagnostics["evaluations"] == 9


def test_damping_recovers_from_a_flat_start():
    # On a constant start |u'|^(p-2) vanishes for p > 2: the first Newton
    # models are indefinite, and only the raised damping makes progress.
    grid = build_grid(4, refinement=5, alpha_hint=100.0)
    evaluate = variational._LogQuotient(grid, 3.0, 3.5, 100.0)
    flat = variational.minimize(evaluate, np.ones(grid.num_nodes))
    var = minimize_quotient(4, 3.0, 3.5, 100.0, grid=grid)
    assert flat.success
    assert var.diagnostics["iterations"] < flat.nit
    mu_flat = (surface_measure(4) ** (1.0 - 3.0 / 3.5)
               * np.exp(evaluate(flat.x).f))
    assert abs(mu_flat - var.mu) <= 1e-12 * var.mu


def test_finest_grid_converges():
    var = minimize_quotient(4, 2.0, 3.0, 400.0, refinement=12)
    assert var.diagnostics["converged"]
    assert var.v.grid.num_nodes > 5000


def _poisoned_grid(n, alpha):
    grid = build_grid(n, refinement=5, alpha_hint=alpha)
    weights = grid.quad_w.copy()
    weights[-1] = np.inf
    return dataclasses.replace(grid, quad_w=weights)


def test_non_finite_quotient_is_a_convergence_error():
    with pytest.raises(ConvergenceError, match="not finite"):
        minimize_quotient(4, 2.0, 3.0, 25.0, grid=_poisoned_grid(4, 25.0))


def test_arithmetic_error_is_a_convergence_error(monkeypatch):
    def overflow(*args):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(variational, "ldlt", overflow)
    with pytest.raises(ConvergenceError, match="broke down"):
        minimize_quotient(4, 2.0, 3.0, 25.0, refinement=5)


def test_cli_reports_non_finite_oracle(monkeypatch, capsys):
    monkeypatch.setattr(variational, "build_grid",
                        lambda n, refinement, alpha_hint:
                        _poisoned_grid(n, alpha_hint))
    code = cli.main(["radial", "--n", "4", "--p", "2", "--q", "3",
                     "--alpha", "25", "--oracle"])
    out = capsys.readouterr()
    assert code == 1
    record = json.loads(out.out)
    assert record["error"]["type"] == "ConvergenceError"
    assert "Warning" not in out.err
