"""Collocation solver for the equivalent Hammerstein integral system.

The system

    u(t) = int_0^1 k_1(t, s) f_1(s, u(s), v(s)) ds,
    v(t) = int_0^1 k_2(t, s) f_2(s, u(s), v(s)) ds,

is discretized on a shared node set (a uniform grid joined with the
kernel breakpoints eta_i and the cone interval ends b_i). Each kernel row
is integrated exactly (product integration; its kinks eta and t_j are
nodes) against the local piecewise-cubic Lagrange interpolant of the
integrand's nonlinear factor. That yields one dense weight matrix per
equation, so one fixed-point application is two matrix-vector products.
The fixed point itself is found by damped Picard iteration;
non-convergence is a flagged outcome, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprlang import Expr, eval_expr_array
from .kernel import KernelModel

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

# order-8 Gauss-Legendre rule on [0, 1]: exact for the cubic basis, and
# within rho^-13 (relative) of the integral of (t - s)^(alpha-1) times it
# on a cell ending at least one width before t (rho >= 3 + sqrt(8))
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_GAUSS_X, _GAUSS_W = 0.5 * (_GAUSS_X + 1.0), 0.5 * _GAUSS_W

# bytes of the table of (t_j - s)^(alpha-1) at the Gauss nodes of one row block
_BLOCK_BYTES = 1 << 18


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

    ``weights[i][j, p]`` is int_0^1 k_{i+1}(t_j, s) L_p(s) ds, exact up to
    roundoff, for the piecewise-cubic cardinal function L_p of node p, so
    weights[i] @ g integrates k_{i+1}(t_j, .) against the interpolant of
    the node values g (exactly for cubic g, kinks of k included).
    """

    nodes: np.ndarray
    weights: tuple[np.ndarray, np.ndarray]
    n_requested: int
    breakpoints: tuple[float, ...]


def _weight_matrix(model: KernelModel, nodes: np.ndarray) -> np.ndarray:
    """W = beta * 1 B^T + (1 E^T - R)/Gamma(alpha), with B[p] = int_0^1 L_p,
    R[j, p] = int_0^{t_j} (t_j - s)^(alpha-1) L_p(s) ds and E = R at eta:
    each cell of row j of R takes the Gauss rule, or exact moments when t_j
    lies at most one cell width past the cell's end."""
    p = model.params
    n, g = nodes.size, _GAUSS_X.size
    width = np.diff(nodes)
    stencil = _lagrange_stencil(nodes, nodes[:-1])[0]  # node indices per cell
    # near (row, cell) pairs, among the cells ending within 2 max(width) of t_j
    first = np.searchsorted(nodes, nodes - 2.0 * width.max())
    c = first[:, None] - 1 + np.arange(np.max(np.arange(n) - first) + 2)
    gap = nodes[:, None] - nodes.take(c + 1, mode="clip")
    near = (c >= 0) & (c < np.arange(n)[:, None]) & (gap <= width.take(c, mode="clip"))
    rows, cells = np.nonzero(near)[0], c[near]
    # and their exact moments: in u = (t_j - s)/w the cell is [lo, lo + 1], lo <= 1,
    # and the stencil nodes u_r are O(1), so neither the moments of u^(alpha-1+k)
    # nor the product form of basis cubic q, prod_{r != q} (u - u_r)/(u_q - u_r), cancel
    t, w = nodes[rows, None], width[cells, None]
    k = p.alpha + np.arange(4.0)
    mom = (((t - nodes[cells, None]) / w) ** k - ((t - nodes[cells + 1, None]) / w) ** k) / k
    u = (t - nodes[stencil[cells]]) / w
    exact = np.empty((rows.size, 4))
    for q in range(4):
        r = u[:, np.arange(4) != q]
        e2 = r[:, 0] * r[:, 1] + r[:, 2] * (r[:, 0] + r[:, 1])
        num = mom[:, 3] - r.sum(axis=1) * mom[:, 2] + e2 * mom[:, 1] - r.prod(axis=1) * mom[:, 0]
        exact[:, q] = num / (u[:, q:q + 1] - r).prod(axis=1)
    exact *= w**p.alpha
    del c, gap, near, t, w, mom, u, r, e2, num
    # the Gauss rule times the basis on every cell
    gs = (nodes[:-1, None] + width[:, None] * _GAUSS_X).ravel()
    rule = _lagrange_stencil(nodes, gs)[1].reshape(n - 1, g, 4)
    rule *= (width[:, None] * _GAUSS_W)[:, :, None]
    B = np.bincount(stencil.ravel(), rule.sum(axis=1).ravel(), minlength=n)
    R = np.zeros((n, n))
    per = max(1, _BLOCK_BYTES // (8 * g * (n - 1)))
    buf = np.empty((per, g * (n - 1)))
    flat = stencil[:, None, :] + n * np.arange(per)[:, None]  # (cell, row, q) -> R block
    for j0 in range(1, n, per):  # row 0 is t = 0, where R vanishes
        j1 = min(n, j0 + per)
        m = j1 - 1  # cells that start left of some row of the block
        F = buf[:j1 - j0, :g * m]
        np.subtract(nodes[j0:j1, None], gs[:g * m], out=F)
        np.maximum(F[:, g * j0:], 0.0, out=F[:, g * j0:])  # cells from t_{j0} on
        F **= p.alpha - 1.0
        P = np.matmul(F.reshape(j1 - j0, m, g).transpose(1, 0, 2), rule[:m])
        a, b = np.searchsorted(rows, (j0, j1))
        P[cells[a:b], rows[a:b] - j0] = exact[a:b]
        R[j0:j1] += np.bincount(flat[:m, :j1 - j0].ravel(), P.ravel(),
                                minlength=(j1 - j0) * n).reshape(j1 - j0, n)
    R -= R[int(np.searchsorted(nodes, p.eta))].copy()  # eta is a node
    R *= -1.0 / model.gamma_alpha
    R += p.beta * B
    return R


def build_grid(models: tuple[KernelModel, KernelModel], n: int = 201) -> SystemGrid:
    """Build the collocation grid and weight matrices for both equations.

    ``n`` uniform nodes on [0, 1] are joined with each equation's eta and
    b. A breakpoint within h/4 of an interior uniform node (h = 1/(n-1))
    takes that node's place, so it leaves no sliver cell beside it.
    """
    if n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes, got {n}")
    p1, p2 = models[0].params, models[1].params
    breaks = tuple(sorted({p1.eta, p2.eta, p1.b, p2.b}))
    base = np.linspace(0.0, 1.0, n)
    gap = np.min(np.abs(base[:, None] - np.asarray(breaks)), axis=1)
    keep = gap > 0.25 / (n - 1)
    keep[[0, -1]] = gap[[0, -1]] > 0.0  # the ends of [0, 1] stay
    nodes = np.sort(np.concatenate((base[keep], breaks)))
    weights = (_weight_matrix(models[0], nodes), _weight_matrix(models[1], nodes))
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
