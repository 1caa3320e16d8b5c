"""Collocation solver for the equivalent Hammerstein integral system.

The system

    u(t) = int_0^1 k_1(t, s) f_1(s, u(s), v(s)) ds,
    v(t) = int_0^1 k_2(t, s) f_2(s, u(s), v(s)) ds,

is discretized on a shared node set (a uniform grid joined with the
kernel breakpoints eta_i and the cone interval ends b_i). For every node
t_j the s-integral uses graded Gauss panels split at {eta, t_j}, with the
integrand's nonlinear factor reconstructed from its node values by local
piecewise-cubic Lagrange interpolation. That yields one dense weight
matrix per equation, so one fixed-point application is two matrix-vector
products. The fixed point itself is found by damped Picard iteration;
non-convergence is a flagged outcome, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprlang import Expr, eval_expr_array
from .kernel import KernelModel, kernel_values

__all__ = [
    "SystemGrid",
    "build_grid",
    "interpolate_nodes",
    "apply_T",
    "GridSolution",
    "solve_picard",
    "ConeReport",
    "cone_metrics",
]

_MIN_NODES = 8

# dyadic grading depth of the panels toward the kernel kinks; 26 levels
# resolve the (distance)^(alpha-1) endpoint behaviour to well below 1e-12
# for alpha > 1
_SCAN_DEPTH = 26

# order-16 Gauss-Legendre rule of every panel
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)
_GAUSS_X, _GAUSS_W = 0.5 * (_GAUSS_X + 1.0), 0.5 * _GAUSS_W  # mapped to [0, 1]


def _graded_edges(lo: float, hi: float) -> np.ndarray:
    """Panel edges on [lo, hi], dyadically refined toward both ends."""
    w = hi - lo
    left = lo + 0.5 * w * 2.0 ** -np.arange(_SCAN_DEPTH, -1.0, -1.0)
    right = hi - 0.5 * w * 2.0 ** -np.arange(1.0, _SCAN_DEPTH + 1.0)
    return np.concatenate(([lo], left, right, [hi]))


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All Gauss nodes and weights for the panels delimited by ``edges``."""
    a = edges[:-1][:, None]
    h = np.diff(edges)[:, None]
    nodes = (a + h * _GAUSS_X[None, :]).ravel()
    weights = (h * _GAUSS_W[None, :]).ravel()
    return nodes, weights


def _lagrange_stencil(nodes: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Four-point Lagrange interpolation data for each evaluation point.

    Returns (idx, basis) with shapes (len(xs), 4): the node indices of the
    cubic stencil around each x and the basis weights, so that a function
    with node values w interpolates as (basis * w[idx]).sum(axis=1).
    """
    n = nodes.size
    cell = np.clip(np.searchsorted(nodes, xs, side="right") - 1, 0, n - 2)
    start = np.clip(cell - 1, 0, n - 4)
    idx = start[:, None] + np.arange(4)[None, :]
    xn = nodes[idx]
    basis = np.empty_like(xn)
    for p in range(4):
        num = np.ones(xs.shape)
        den = np.ones(xs.shape)
        for q in range(4):
            if q == p:
                continue
            num *= xs - xn[:, q]
            den *= xn[:, p] - xn[:, q]
        basis[:, p] = num / den
    return idx, basis


def interpolate_nodes(nodes: np.ndarray, values: np.ndarray, ts) -> np.ndarray:
    """Piecewise-cubic evaluation of node values at arbitrary points in [0, 1]."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    idx, basis = _lagrange_stencil(np.asarray(nodes, dtype=float), ts)
    return (basis * np.asarray(values, dtype=float)[idx]).sum(axis=1)


@dataclass(frozen=True, eq=False)
class SystemGrid:
    """Shared node set and per-equation integration weight matrices.

    ``weights[i][j, p]`` approximates int_0^1 k_{i+1}(t_j, s) L_p(s) ds
    for the piecewise-cubic cardinal function L_p of node p, so
    weights[i] @ g integrates k_{i+1}(t_j, .) against the interpolant of
    the node values g.
    """

    nodes: np.ndarray
    weights: tuple[np.ndarray, np.ndarray]
    n_requested: int
    breakpoints: tuple[float, ...]


def _row_rule(params, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Graded panel nodes/weights on [0, 1] split at the kernel kinks eta, t."""
    pts = sorted({0.0, 1.0, *(x for x in (params.eta, t) if 0.0 < x < 1.0)})
    all_nodes, all_weights = [], []
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a <= 1e-15:
            continue
        nodes, weights = _panel_nodes(_graded_edges(a, b))
        all_nodes.append(nodes)
        all_weights.append(weights)
    return np.concatenate(all_nodes), np.concatenate(all_weights)


def _weight_matrix(params, nodes: np.ndarray) -> np.ndarray:
    n = nodes.size
    W = np.zeros((n, n))
    for j, t in enumerate(nodes):
        sq, wq = _row_rule(params, float(t))
        contrib = wq * kernel_values(params, float(t), sq)
        idx, basis = _lagrange_stencil(nodes, sq)
        np.add.at(W[j], idx.ravel(), (contrib[:, None] * basis).ravel())
    return W


def build_grid(models: tuple[KernelModel, KernelModel], n: int = 201) -> SystemGrid:
    """Build the collocation grid and weight matrices for both equations.

    ``n`` uniform nodes on [0, 1] are joined with each equation's eta and
    b (values within 1e-12 of a uniform node collapse onto it).
    """
    if n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes, got {n}")
    base = np.linspace(0.0, 1.0, n)
    p1, p2 = models[0].params, models[1].params
    breaks = tuple(sorted({p1.eta, p2.eta, p1.b, p2.b}))
    extra = [x for x in breaks if np.min(np.abs(base - x)) > 1e-12]
    nodes = np.sort(np.concatenate((base, np.asarray(extra)))) if extra else base
    weights = (_weight_matrix(p1, nodes), _weight_matrix(p2, nodes))
    return SystemGrid(nodes=nodes, weights=weights, n_requested=n, breakpoints=breaks)


def apply_T(grid: SystemGrid, f1: Expr, f2: Expr, u: np.ndarray,
            v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One application of the Hammerstein operator at the grid nodes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != grid.nodes.shape or v.shape != grid.nodes.shape:
        raise ValueError(
            f"state shapes {u.shape}, {v.shape} do not match the grid {grid.nodes.shape}"
        )
    g1 = eval_expr_array(f1, grid.nodes, u, v)
    g2 = eval_expr_array(f2, grid.nodes, u, v)
    return grid.weights[0] @ g1, grid.weights[1] @ g2


@dataclass(frozen=True, eq=False)
class GridSolution:
    """Damped Picard outcome.

    ``residual_sup`` is the undamped defect max_i ||w_i - T(u, v)_i||_inf
    of the returned state, so converged implies residual_sup <= tol.
    """

    grid: SystemGrid
    u_values: np.ndarray
    v_values: np.ndarray
    residual_sup: float
    iterations: int
    converged: bool
    damping: float
    tol: float


def solve_picard(grid: SystemGrid, f1: Expr, f2: Expr,
                 init: tuple[np.ndarray, np.ndarray] | None = None,
                 tol: float = 1e-12, max_iter: int = 200,
                 damping: float = 0.5) -> GridSolution:
    """Solve the discretized system by damped Picard iteration.

    Iterates x <- (1 - damping) x + damping T(x) from ``init`` (zero by
    default) until the defect ||x - T(x)||_inf falls below ``tol``; the
    returned state is then the last undamped iterate with its defect as
    residual_sup. Exhausting ``max_iter`` damped updates, or a non-finite
    defect, yields converged=False rather than an error.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if init is None:
        u = np.zeros(grid.nodes.size)
        v = np.zeros(grid.nodes.size)
    else:
        u = np.asarray(init[0], dtype=float).copy()
        v = np.asarray(init[1], dtype=float).copy()
        if u.shape != grid.nodes.shape or v.shape != grid.nodes.shape:
            raise ValueError(
                f"init shapes {u.shape}, {v.shape} do not match the grid ({grid.nodes.shape})"
            )
    iterations = 0
    while True:
        Tu, Tv = apply_T(grid, f1, f2, u, v)
        residual = max(float(np.max(np.abs(Tu - u))), float(np.max(np.abs(Tv - v))))
        converged = math.isfinite(residual) and residual <= tol
        if converged or not math.isfinite(residual) or iterations >= max_iter:
            return GridSolution(grid=grid, u_values=u, v_values=v,
                                residual_sup=residual, iterations=iterations,
                                converged=converged, damping=damping, tol=tol)
        u = (1.0 - damping) * u + damping * Tu
        v = (1.0 - damping) * v + damping * Tv
        iterations += 1


@dataclass(frozen=True)
class ConeReport:
    """Cone membership of one solution component.

    margin = min over nodes in [0, b] minus c * sup norm; membership
    tolerates roundoff down to -tolerance.
    """

    equation: int
    min_on_interval: float
    sup_norm: float
    c: float
    margin: float
    in_cone: bool
    tolerance: float = 1e-9


def cone_metrics(sol: GridSolution, models: tuple[KernelModel, KernelModel],
                 tolerance: float = 1e-9) -> tuple[ConeReport, ConeReport]:
    """Check both components against their cones min_{[0,b]} w >= c ||w||."""
    out = []
    states = (np.asarray(sol.u_values, dtype=float), np.asarray(sol.v_values, dtype=float))
    for i, (model, w) in enumerate(zip(models, states), start=1):
        mask = sol.grid.nodes <= model.params.b + 1e-14
        low = float(np.min(w[mask]))
        sup = float(np.max(np.abs(w)))
        margin = low - model.c * sup
        out.append(ConeReport(equation=i, min_on_interval=low, sup_norm=sup,
                              c=model.c, margin=margin,
                              in_cone=margin >= -tolerance, tolerance=tolerance))
    return tuple(out)
