"""Radial eigenvalue problems and weighted ground states on the unit ball.

The package solves three tightly linked problems for 2 <= p < n on the unit
ball, reduced to ODEs in the radius:

* the first nonlinear boundary (Steklov-type) eigenvalue lambda_p with its
  eigenfunction phi_p (`steklov`),
* the ground state of the weighted quotient with boundary-concentrating
  weight r^alpha (`henon`), found by shooting and cross-checked by direct
  minimization (`variational`),
* the second variation of the quotient at the ground state, mode by mode,
  and the closed-form stability constant K that governs its sign for large
  alpha (`second_variation`, `stability`).

All solvers are deterministic: same inputs, same bits.
"""
from .errors import (BracketError, ConvergenceError, IntegrationError,
                     SolverError)
from .henon import (HenonSolution, LimitPoint, LimitReport, SlopeReport,
                    admissible_q_upper, critical_exponent,
                    derivative_asymptotics, limit_comparison, one_root_span,
                    shooting_miss, solve_henon, validate_parameters)
from .mesh import RadialFunction, RadialGrid, TridiagForm, assemble_forms, build_grid
from .second_variation import (EigenprofileReport, PencilResult,
                               eigenprofile_properties,
                               eigenprofile_steepness, limit_form_matrix,
                               limit_form_min_numeric, min_second_variation,
                               pencil_forms, pencil_min_eig,
                               second_variation_forms)
from .special import bessel_i, surface_measure
from .stability import (AppendixTableRow, ChainLink, ChainReport,
                        appendix_table, compute_ipn, compute_k,
                        conjugate_exponent, find_p_loc, find_q_loc, g_tilde,
                        kappa_value, stability_scale, t_star, tau_star,
                        verify_appendix_chain)
from .steklov import (SteklovSolution, bessel_lambda2, limit_form_min_closed,
                      solve_steklov, steklov_eigenvalue)
from .variational import VariationalResult, minimize_quotient

__version__ = "0.1.0"

__all__ = [
    "SolverError", "BracketError", "ConvergenceError", "IntegrationError",
    "RadialGrid", "RadialFunction", "TridiagForm", "assemble_forms",
    "build_grid",
    "bessel_i", "surface_measure",
    "SteklovSolution", "steklov_eigenvalue", "solve_steklov",
    "bessel_lambda2", "limit_form_min_closed", "limit_form_min_numeric",
    "limit_form_matrix",
    "HenonSolution", "solve_henon", "shooting_miss",
    "validate_parameters", "critical_exponent", "admissible_q_upper",
    "one_root_span",
    "SlopeReport", "derivative_asymptotics",
    "LimitPoint", "LimitReport", "limit_comparison",
    "PencilResult", "pencil_forms", "second_variation_forms",
    "pencil_min_eig", "min_second_variation", "eigenprofile_steepness",
    "EigenprofileReport", "eigenprofile_properties",
    "compute_k", "stability_scale",
    "find_q_loc", "find_p_loc", "compute_ipn", "kappa_value",
    "conjugate_exponent", "t_star", "tau_star", "g_tilde",
    "AppendixTableRow", "appendix_table",
    "ChainLink", "ChainReport", "verify_appendix_chain",
    "VariationalResult", "minimize_quotient",
    "__version__",
]
