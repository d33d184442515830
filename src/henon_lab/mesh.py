"""Graded radial grids on [0, 1], per-cell Gauss quadrature, P1 form assembly,
and radial profiles, which evaluate as P1 functions on the nodes unless a
solver attaches its dense output.

The grids serve three weighted measures at once: r^(n-1) (volume), r^(n-3)
(angular term of the reduced forms), and r^(alpha+n-1) (boundary-concentrated
weight). Quadrature weights are plain dr weights; any r-power enters through
the sampled integrand, so one grid serves all three measures.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "RadialGrid",
    "build_grid",
    "RadialFunction",
    "TridiagForm",
    "assemble_forms",
    "ldlt", "negative_pivots", "ldlt_solve",
]

MAX_REFINEMENT = 12
# Radial integrations start at r = 1e-4 (flux_ode.SEED_RADIUS) with a flux
# of order r^n, which leaves the normal float range past n = 76.
MAX_DIMENSION = 76
ZERO_PIVOT = -1e-300  # what `ldlt` stores for an exact zero pivot


def check_dimension(n) -> None:
    """Every radial reduction here needs an integer dimension n >= 3."""
    if not (isinstance(n, (int, np.integer)) and 3 <= n <= MAX_DIMENSION):
        raise ValueError(f"dimension n must be an integer >= 3 and <= "
                         f"{MAX_DIMENSION}, got {n!r}")


def _smoothstep_nodes(lo: float, hi: float, cells: int) -> np.ndarray:
    # 3x^2 - 2x^3 clusters quadratically at both ends of [lo, hi].
    xi = np.linspace(0.0, 1.0, cells + 1)
    return lo + (hi - lo) * xi * xi * (3.0 - 2.0 * xi)


def _boundary_layer_nodes(lo: float, cells: int) -> np.ndarray:
    # Quadratic clustering toward r = 1, resolving (1-r)^(1/(p-1)) profiles.
    eta = np.linspace(0.0, 1.0, cells + 1)
    return 1.0 - (1.0 - lo) * (1.0 - eta) ** 2


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Nodes on [0, 1] plus a fixed Gauss rule on every cell.

    Attributes
    ----------
    n : int
        Ambient dimension; fixes the quadrature degree so that
        r^(n-1) integrates exactly.
    nodes : ndarray
        Strictly increasing, nodes[0] == 0.0 and nodes[-1] == 1.0.
    quad_x, quad_w : ndarray
        Flattened per-cell Gauss abscissae and plain-measure weights.
    quad_cell : ndarray
        Cell index of each abscissa.
    """

    n: int
    nodes: np.ndarray
    quad_x: np.ndarray
    quad_w: np.ndarray
    quad_cell: np.ndarray
    quad_points: int

    @property
    def num_nodes(self) -> int:
        return self.nodes.size

    @property
    def num_cells(self) -> int:
        return self.nodes.size - 1

    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def integrate(self, values) -> float:
        """Integrate over [0, 1] the samples `values` at quad_x."""
        return float(np.dot(self.quad_w, values))

    def cell_slopes(self, node_values: np.ndarray) -> np.ndarray:
        return np.diff(node_values) / self.widths()

    def interior_derivatives(self, node_values: np.ndarray) -> np.ndarray:
        """Centered difference derivatives at nodes[1:-1]."""
        x = self.nodes
        return (node_values[2:] - node_values[:-2]) / (x[2:] - x[:-2])


@functools.cache
def _gauss_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """The npts-point Gauss-Legendre rule on [-1, 1], computed once per
    point count and shared read-only."""
    rule = np.polynomial.legendre.leggauss(npts)
    for array in rule:
        array.flags.writeable = False
    return rule


def _gauss_cells(nodes: np.ndarray, npts: int):
    gx, gw = _gauss_rule(npts)
    a = nodes[:-1]
    h = np.diff(nodes)
    x = (a[:, None] + 0.5 * h[:, None] * (gx[None, :] + 1.0)).ravel()
    w = (0.5 * h[:, None] * gw[None, :]).ravel()
    cell = np.repeat(np.arange(a.size), npts)
    return x, w, cell


def build_grid(n: int, refinement: int = 8,
               alpha_hint: float = 0.0) -> RadialGrid:
    """Build a graded grid with 2^refinement base cells.

    Parameters
    ----------
    n : int
        Dimension, n >= 3.
    refinement : int
        Doubling level in [1, 12]; node count grows ~2x per level.  A
        float or a bool raises ValueError, as for n.
    alpha_hint : float
        Finite and >= 0.  If positive, the boundary layer [1 - 10/alpha, 1]
        receives at least 50 nodes with quadratic clustering toward r = 1.
    """
    check_dimension(n)
    if (isinstance(refinement, bool)
            or not isinstance(refinement, (int, np.integer))
            or not 1 <= refinement <= MAX_REFINEMENT):
        raise ValueError(f"refinement must be an integer in "
                         f"[1, {MAX_REFINEMENT}], got {refinement!r}")
    if not 0.0 <= alpha_hint < np.inf:  # NaN fails too
        raise ValueError(f"alpha_hint must be finite and >= 0, "
                         f"got {alpha_hint}")
    m = max(3, -(-n // 2))

    base_cells = 2 ** refinement
    if alpha_hint > 0.0:
        width = min(10.0 / alpha_hint, 1.0)
        if width >= 1.0:
            nodes = _smoothstep_nodes(0.0, 1.0, max(base_cells, 64))
        else:
            layer_cells = max(56, base_cells // 4)
            interface = 1.0 - width
            base = _smoothstep_nodes(0.0, interface, base_cells)
            layer = _boundary_layer_nodes(interface, layer_cells)
            nodes = np.concatenate([base, layer[1:]])
    else:
        nodes = _smoothstep_nodes(0.0, 1.0, base_cells)

    nodes[0], nodes[-1] = 0.0, 1.0
    if np.any(np.diff(nodes) <= 0.0):
        raise ValueError("grid construction produced non-increasing nodes")
    x, w, cell = _gauss_cells(nodes, m)
    return RadialGrid(n=int(n), nodes=nodes, quad_x=x, quad_w=w,
                      quad_cell=cell, quad_points=m)


@dataclass
class RadialFunction:
    """A radial profile: values and derivative values on the grid nodes.

    Solvers that know the profile between nodes (dense ODE output) attach
    evaluator closures: r -> value, and r -> (value, derivative) from one
    evaluation.  Otherwise the profile is the P1 function on the
    nodes, which is what the nodal solvers compute: its value at r
    interpolates linearly, and its derivative at r is the slope of the cell
    that holds r (a node takes the cell on its right, the last node the
    last cell).  `derivatives` stays a nodal table for output.
    """

    grid: RadialGrid
    values: np.ndarray
    derivatives: np.ndarray
    _value_fn: Callable | None = field(default=None, repr=False, compare=False)
    _profile_fn: Callable | None = field(default=None, repr=False,
                                        compare=False)

    def __call__(self, r):
        if self._value_fn is not None:
            return self._value_fn(r)
        return np.interp(r, self.grid.nodes, self.values)

    def derivative(self, r):
        if self._profile_fn is not None:
            return self._profile_fn(r)[1]
        nodes = self.grid.nodes
        cell = np.clip(np.searchsorted(nodes, r, side="right") - 1,
                       0, nodes.size - 2)
        return self.grid.cell_slopes(self.values)[cell]

    def value_and_derivative(self, r):
        """(value, derivative) at r, from one evaluation where dense."""
        if self._profile_fn is not None:
            return self._profile_fn(r)
        return self(r), self.derivative(r)

    @classmethod
    def from_nodes(cls, grid: RadialGrid, values: np.ndarray) -> RadialFunction:
        """Nodal values; derivatives by centered differences, one-sided at the ends."""
        derivs = np.empty_like(values)
        derivs[1:-1] = grid.interior_derivatives(values)
        slopes = grid.cell_slopes(values)
        derivs[0], derivs[-1] = slopes[0], slopes[-1]
        return cls(grid, values, derivs)

    @property
    def boundary_value(self) -> float:
        return float(self.values[-1])

    @property
    def origin_value(self) -> float:
        return float(self.values[0])


@dataclass
class TridiagForm:
    """Symmetric tridiagonal quadratic form from P1 assembly."""

    diag: np.ndarray
    off: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        idx = np.arange(self.off.size)
        a[idx, idx + 1] = self.off
        a[idx + 1, idx] = self.off
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.off * x[1:]
        y[1:] += self.off * x[:-1]
        return y

    def quad_form(self, x: np.ndarray) -> float:
        return float(np.dot(x, self.matvec(x)))


def ldlt(diag: np.ndarray, off: np.ndarray) -> tuple[list, list]:
    """Pivots (D) and multipliers (L) of the symmetric tridiagonal matrix
    (diag, off) = L D L^T, as float lists.  No pivoting: the negative pivots
    count the negative eigenvalues (Sylvester).  A zero pivot becomes
    ZERO_PIVOT, so a shift that grazes an eigenvalue counts it as passed.
    The pivot recurrence is the one `negative_pivots` runs; a caller that
    needs only the count should call that, which keeps no lists."""
    d, e = diag.tolist(), off.tolist()
    piv = d[0] if d[0] != 0.0 else ZERO_PIVOT
    pivots, multipliers = [piv], []
    for d_i, e_i in zip(d[1:], e):
        multipliers.append(e_i / piv)
        piv = d_i - e_i * e_i / piv
        if piv == 0.0:
            piv = ZERO_PIVOT
        pivots.append(piv)
    return pivots, multipliers


def negative_pivots(diag: np.ndarray, off: np.ndarray) -> int:
    """Number of negative pivots of `ldlt(diag, off)`, found without
    storing them: the same recurrence d_i - e_{i-1}^2 / piv and the same
    ZERO_PIVOT rule, so the same count bit for bit.  e^2 is one numpy
    product, which rounds as the scalar e * e does."""
    d = diag.tolist()
    piv = d[0] if d[0] != 0.0 else ZERO_PIVOT
    count = int(piv < 0.0)
    for d_i, e2_i in zip(d[1:], (off * off).tolist()):
        piv = d_i - e2_i / piv
        if piv <= 0.0:  # NaN is not counted, as in `ldlt`
            count += 1
            if piv == 0.0:
                piv = ZERO_PIVOT
    return count


def ldlt_solve(pivots: list, multipliers: list, rhs: np.ndarray) -> np.ndarray:
    """Solve L D L^T x = rhs with the factor returned by `ldlt`.

    Forward substitution, then back substitution with the division by D
    taken in the same step: x_i = y_i / d_i - l_i x_{i+1}, which rounds
    exactly as dividing first and substituting after."""
    x = rhs.tolist()
    y = x[0]
    for i, m in enumerate(multipliers, 1):
        y = x[i] - m * y
        x[i] = y
    y = x[-1] / pivots[-1]
    x[-1] = y
    for i in range(len(multipliers) - 1, -1, -1):
        y = x[i] / pivots[i] - multipliers[i] * y
        x[i] = y
    return np.array(x)


def _first_cell_rule(grid: RadialGrid, exponent: float):
    # Substitution t = r^exponent on the cell touching r = 0 keeps fractional
    # powers r^(1/(exponent)) of the weight smooth for the Gauss rule.
    r1 = grid.nodes[1]
    gx, gw = _gauss_rule(grid.quad_points)
    t_hi = r1 ** exponent
    t = 0.5 * t_hi * (gx + 1.0)
    w = 0.5 * t_hi * gw
    inv = 1.0 / exponent
    r = t ** inv
    return r, w * inv * t ** (inv - 1.0)


def assemble_forms(grid: RadialGrid, weights: Callable,
                   first_cell_exponent: float | None = None) -> TridiagForm:
    """Assemble the P1 tridiagonal form of a(r) h'^2 + c(r) h^2 on [0, 1].

    `weights(r)` returns the pair (a(r), c(r)) at the quadrature abscissae
    r, so work the two share (a profile evaluation) is done once; both
    must already include the r-power measure.  `first_cell_exponent`
    switches the cell at r = 0 to a substituted rule (t = r^exponent) so
    degenerate gradient weights keep full order.
    """
    xs = grid.quad_x
    ws = grid.quad_w
    cells = grid.quad_cell
    if first_cell_exponent is not None:
        r0, w0 = _first_cell_rule(grid, first_cell_exponent)
        mask = cells == 0
        xs = xs.copy()
        ws = ws.copy()
        xs[mask] = r0
        ws[mask] = w0

    left = grid.nodes[cells]
    h = grid.widths()[cells]
    phi_r = (xs - left) / h
    phi_l = 1.0 - phi_r

    a, c = weights(xs)
    a = np.asarray(a, dtype=float) * ws
    c = np.asarray(c, dtype=float) * ws

    diag = np.zeros(grid.num_nodes)
    off = np.zeros(grid.num_nodes - 1)
    k = a / (h * h)
    np.add.at(diag, cells, k + c * phi_l * phi_l)
    np.add.at(diag, cells + 1, k + c * phi_r * phi_r)
    np.add.at(off, cells, -k + c * phi_l * phi_r)
    return TridiagForm(diag=diag, off=off)
