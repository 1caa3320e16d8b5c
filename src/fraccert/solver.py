"""Collocation solver for the equivalent Hammerstein integral system.

The system

    u(t) = int_0^1 k_1(t, s) f_1(s, u(s), v(s)) ds,
    v(t) = int_0^1 k_2(t, s) f_2(s, u(s), v(s)) ds,

is discretized on the uniform nodes np.linspace(0, 1, n). Each kernel row
is integrated exactly (product integration) against the local
piecewise-cubic Lagrange interpolant of the integrand's nonlinear factor;
the kink of k(t, .) at t is a node, and the one at eta is integrated
inside its cell. That yields one dense weight matrix per equation, so one
fixed-point application is two matrix-vector products. Every lattice
cell is one of the three cells of a unit lattice moved into place, so
the weights are built from those alone: a weight depends only on the
offset of row and column but in the first four columns and the last row,
which one routine integrates with the two rank-one rows. Cone membership
takes the minimum over the nodes in [0, b] and the interpolant at b.
The fixed point itself is found by damped Picard iteration;
non-convergence is a flagged outcome, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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

# roundoff tolerated below the cone's lower bound
_CONE_TOL = 1e-9


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
    the node values g (exactly for cubic g, kinks of k included). Outside
    the first four columns and the last row, the fractional part of the
    entry is a function of j - p alone.
    """

    nodes: np.ndarray
    weights: tuple[np.ndarray, np.ndarray]


class _Cells(NamedTuple):
    """Quadrature data of the cells between consecutive nodes: the stencil's
    node indices (cells, 4), the Gauss points (cells, 8) and the Gauss
    weights times the stencil's basis cubics there (cells, 8, 4)."""

    nodes: np.ndarray
    stencil: np.ndarray
    gauss: np.ndarray
    rule: np.ndarray


def _cells(nodes: np.ndarray) -> _Cells:
    g = _GAUSS_X.size
    width = np.diff(nodes)
    gs = nodes[:-1, None] + width[:, None] * _GAUSS_X
    stencil, basis = _lagrange_stencil(nodes, gs.ravel())
    rule = basis.reshape(width.size, g, 4) * (width[:, None] * _GAUSS_W)[:, :, None]
    return _Cells(nodes, stencil[::g], gs, rule)


# the cells [-1, 0], [0, 1], [1, 2] of stencil -1..2: a lattice's first, inner and last cell
_UNIT = _cells(np.arange(-1.0, 3.0))


def _cell_weights(alpha: float, cells: _Cells, sel: slice, t: np.ndarray) -> np.ndarray:
    """Product-integration weights of the cells ``sel`` for the rows ``t``.

    w[k, j, q] = int over the k-th selected cell, cut off at t_j, of
    (t_j - s)^(alpha-1) L_q(s) ds for the four cubics L_q of the cell's
    stencil: the Gauss rule when t_j lies more than one cell width past the
    cell's end, exact moments over [lo, min(t_j, hi)] when t_j lies past the
    cell's start and at most that far, and 0 when t_j lies at or before the
    start (alpha = 1, where 0^0 = 1, needs every cell before t).
    """
    nodes = cells.nodes
    lo, hi = nodes[:-1][sel], nodes[1:][sel]
    w = hi - lo
    F = t[None, :, None] - cells.gauss[sel][:, None, :]
    np.maximum(F, 0.0, out=F)
    F **= alpha - 1.0
    out = np.matmul(F, cells.rule[sel])
    # the near pairs take exact moments: in u = (t - s)/w the cell is
    # [d, d + 1], -1 < d <= 1, cut off at u = 0, and the stencil nodes u_r
    # are O(1), so neither the moments of u^(alpha-1+k) nor the product form
    # of basis cubic q, prod_{r != q} (u - u_r)/(u_q - u_r), cancel
    kk, jj = np.nonzero((t > lo[:, None]) & (t - hi[:, None] <= w[:, None]))
    tj, wk = t[jj, None], w[kk, None]
    k = alpha + np.arange(4.0)
    mom = (((tj - lo[kk, None]) / wk) ** k - (np.maximum(tj - hi[kk, None], 0.0) / wk) ** k) / k
    u = (tj - nodes[cells.stencil[sel][kk]]) / wk
    r = u[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]]  # the other three per q
    e2 = r[..., 0] * r[..., 1] + r[..., 2] * (r[..., 0] + r[..., 1])
    num = (mom[:, 3:] - r.sum(axis=2) * mom[:, 2:3] + e2 * mom[:, 1:2]
           - r.prod(axis=2) * mom[:, :1])
    out[kk, jj] = num / (u[:, :, None] - r).prod(axis=2) * wk**alpha
    return out


def _rows(alpha: float, x: np.ndarray, m: int, n: int) -> np.ndarray:
    """R's rows at the times ``x`` over the first ``m`` cells of the n-node
    lattice of step 1, as far as those cells' stencils reach. Cell c has
    stencil start s = clip(c - 1, 0, n - 4): it is the ``_UNIT`` cell c - s
    moved by s + 1, and only that unit cell is evaluated for it."""
    out = np.zeros((x.size, min(m + 2, n)))
    out[:, :4] = _cell_weights(alpha, _UNIT, slice(0, 1), x - 1.0)[0]
    c = np.arange(1.0, min(m, n - 2))
    w = _cell_weights(alpha, _UNIT, slice(1, 2), (x - c[:, None]).ravel())[0]
    for q in range(4):
        out[:, q:q + c.size] += w[:, q].reshape(c.size, x.size).T
    if m == n - 1:
        out[:, n - 4:] += _cell_weights(alpha, _UNIT, slice(2, 3), x - (n - 3.0))[0]
    return out


def _weight_matrices(models: tuple[KernelModel, KernelModel],
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """W = beta * 1 B^T + (1 E^T - R)/Gamma(alpha) per model, with
    B[p] = int_0^1 L_p, R[j, p] = int_0^{t_j} (t_j - s)^(alpha-1) L_p(s) ds
    and E = R at eta, on the nodes t_j = j h, h = 1/(n - 1).

    All are built in lattice units (h = 1, R scaled by h^alpha). A cell c
    with stencil c-1..c+2 (cells 1..n-3) has, in row j, the weights of the
    unit cell [0, 1] in row j - c, so R[j, p] = phi(j - p), phi folded from
    one table of the unit cell, but in the columns 0..3, which cell 0 also
    reaches, and in the last row: elsewhere the fold's cells past the right
    end and the real last cell start at or after t_j and weigh 0.
    ``_rows`` gives the columns 0..3 (cells 0..4), the last row, E and B.
    """
    h = 1.0 / (n - 1)
    x = np.arange(float(n))
    B = h * _rows(1.0, x[-1:], n - 1, n)
    out = []
    for model in models:
        p = model.params
        scale = -h**p.alpha / model.gamma_alpha  # R and E are built times this
        # the O(N) rows first, so that their temporaries never coexist with R
        left = scale * _rows(p.alpha, x, 5, n)[:, :4]
        last, E = scale * _rows(p.alpha, np.array([n - 1.0, p.eta * (n - 1)]), n - 1, n)
        # phi(m) = sum_q V[m-1+q, q] for the unit table V, stored reversed
        # at rev[n - m], so that row j of R is the window of rev from n - j,
        # a view with strides (-8, 8). It is built directly, as
        # sliding_window_view (as_strided) churns the interned-string table,
        # whose ~1 MB regrowth can pin freed heap
        V = scale * _cell_weights(p.alpha, _UNIT, slice(1, 2), x)[0]
        rev = np.zeros(2 * n + 3)
        for q in range(4):
            rev[q:n + q] += V[::-1, q]
        R = np.array(np.ndarray((n, n), buffer=rev, offset=8 * n, strides=(-8, 8)), order="C")
        R[:, :4] = left
        R[-1] = last
        R += p.beta * B - E
        out.append(R)
    return tuple(out)


def build_grid(models: tuple[KernelModel, KernelModel], n: int = 201) -> SystemGrid:
    """Build the collocation grid, ``n`` uniform nodes on [0, 1], and the
    weight matrices for both equations."""
    if n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes, got {n}")
    nodes = np.linspace(0.0, 1.0, n)
    return SystemGrid(nodes=nodes, weights=_weight_matrices(models, n))


def apply_T(grid: SystemGrid, f1: Expr, f2: Expr, u: np.ndarray,
            v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One application of the Hammerstein operator at the grid nodes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != grid.nodes.shape or v.shape != grid.nodes.shape:
        raise ValueError(
            f"state shapes {u.shape}, {v.shape} do not match the grid {grid.nodes.shape}"
        )
    # a constant f evaluates to a stride-0 view, which W @ g would multiply
    # without BLAS
    g1 = np.ascontiguousarray(eval_expr_array(f1, grid.nodes, u, v))
    g2 = np.ascontiguousarray(eval_expr_array(f2, grid.nodes, u, v))
    return grid.weights[0] @ g1, grid.weights[1] @ g2


@dataclass(frozen=True, eq=False)
class GridSolution:
    """Damped Picard outcome.

    ``residual_sup`` is the undamped defect max_i ||w_i - T(u, v)_i||_inf
    of the returned state and ``tol`` the tolerance applied to it (the
    requested one, or the rounding floor where that is larger), so
    converged implies residual_sup <= tol.
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
    default) until the defect ||x - T(x)||_inf falls below ``tol``, or
    below 8 ulps of max_i ||T(x)_i||_inf where that floor is larger: a
    defect cannot settle below the spacing of the doubles it is made of.
    The returned state is then the last undamped iterate with its defect
    as residual_sup. Exhausting ``max_iter`` damped updates, or a
    non-finite defect, yields converged=False rather than an error.
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
        size = max(float(np.max(np.abs(Tu))), float(np.max(np.abs(Tv))))
        applied = max(tol, 8.0 * float(np.spacing(size)))
        converged = math.isfinite(residual) and residual <= applied
        if converged or not math.isfinite(residual) or iterations >= max_iter:
            return GridSolution(grid=grid, u_values=u, v_values=v,
                                residual_sup=residual, iterations=iterations,
                                converged=converged, damping=damping, tol=applied)
        u = (1.0 - damping) * u + damping * Tu
        v = (1.0 - damping) * v + damping * Tv
        iterations += 1


@dataclass(frozen=True)
class ConeReport:
    """Cone membership of one solution component.

    margin = min over [0, b] (the nodes there and the interpolant at b)
    minus c * sup norm; membership tolerates roundoff down to -tolerance.
    """

    equation: int
    min_on_interval: float
    sup_norm: float
    c: float
    margin: float
    in_cone: bool
    tolerance: float


def cone_metrics(sol: GridSolution,
                 models: tuple[KernelModel, KernelModel]) -> tuple[ConeReport, ConeReport]:
    """Check both components against their cones min_{[0,b]} w >= c ||w||."""
    out = []
    nodes = sol.grid.nodes
    states = (np.asarray(sol.u_values, dtype=float), np.asarray(sol.v_values, dtype=float))
    for i, (model, w) in enumerate(zip(models, states), start=1):
        b = model.params.b
        low = float(min(np.min(w[nodes <= b]), interpolate_nodes(nodes, w, b)[0]))
        sup = float(np.max(np.abs(w)))
        margin = low - model.c * sup
        out.append(ConeReport(equation=i, min_on_interval=low, sup_norm=sup,
                              c=model.c, margin=margin,
                              in_cone=margin >= -_CONE_TOL, tolerance=_CONE_TOL))
    return tuple(out)
