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
Where a row and the cells around a column all sit on the uniform lattice,
a weight depends only on their lattice offset, so those entries are read
from one table of the unit cell scaled by h^alpha; rows at breakpoints and
the columns beside breakpoints and the ends of [0, 1] (the border) are
integrated cell by cell by the same rule.
The fixed point itself is found by damped Picard iteration;
non-convergence is a flagged outcome, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# bytes of one transient table: (t_j - s)^(alpha-1) at the Gauss points of a
# block of rows, or the weights of a chunk of border cells over all rows
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
    the node values g (exactly for cubic g, kinks of k included). For a
    lattice row j and a column p away from the border, the fractional
    part of the entry is a function of i_j - i_p alone (lattice indices).
    """

    nodes: np.ndarray
    weights: tuple[np.ndarray, np.ndarray]
    n_requested: int
    breakpoints: tuple[float, ...]


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


# the unit lattice cell [0, 1] with stencil -1, 0, 1, 2
_UNIT = _cells(np.arange(-1.0, 3.0))


def _cell_weights(alpha: float, cells: _Cells, sel: slice, t: np.ndarray) -> np.ndarray:
    """Product-integration weights of the cells ``sel`` for the rows ``t``.

    w[k, j, q] = int over the k-th selected cell of (t_j - s)^(alpha-1)
    L_q(s) ds for the four cubics L_q of the cell's stencil: the Gauss
    rule when t_j lies more than one cell width past the cell's end, exact
    moments when it lies at most that far. No t_j may lie inside a
    selected cell, so a cell not ending at or before t_j starts at or after
    it and weighs 0; alpha = 1 (where 0^0 = 1) needs every cell before t.
    """
    nodes = cells.nodes
    lo, hi = nodes[:-1][sel], nodes[1:][sel]
    w = hi - lo
    gs, rule = cells.gauss[sel], cells.rule[sel]
    m, g = gs.shape
    out = np.empty((m, t.size, 4))
    per = max(1, _BLOCK_BYTES // (8 * g * m))
    for j0 in range(0, t.size, per):
        F = t[None, j0:j0 + per, None] - gs[:, None, :]
        np.maximum(F, 0.0, out=F)
        F **= alpha - 1.0
        out[:, j0:j0 + per] = np.matmul(F, rule)
    # the near pairs take exact moments: in u = (t - s)/w the cell is
    # [d, d + 1], d <= 1, and the stencil nodes u_r are O(1), so neither
    # the moments of u^(alpha-1+k) nor the product form of basis cubic q,
    # prod_{r != q} (u - u_r)/(u_q - u_r), cancel
    gap = t - hi[:, None]
    kk, jj = np.nonzero((gap >= 0.0) & (gap <= w[:, None]))
    tj, wk = t[jj, None], w[kk, None]
    k = alpha + np.arange(4.0)
    mom = (((tj - lo[kk, None]) / wk) ** k - ((tj - hi[kk, None]) / wk) ** k) / k
    u = (tj - nodes[cells.stencil[sel][kk]]) / wk
    r = u[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]]  # the other three per q
    e2 = r[..., 0] * r[..., 1] + r[..., 2] * (r[..., 0] + r[..., 1])
    num = (mom[:, 3:] - r.sum(axis=2) * mom[:, 2:3] + e2 * mom[:, 1:2]
           - r.prod(axis=2) * mom[:, :1])
    out[kk, jj] = num / (u[:, :, None] - r).prod(axis=2) * wk**alpha
    return out


def _add_cells(R: np.ndarray, rows, c0: int, w: np.ndarray) -> None:
    """R[rows] += the weights w[k] of cell c0 + k on its stencil's columns."""
    N, m = R.shape[1], w.shape[0]
    a, b = max(c0, 1), min(c0 + m, N - 2)  # cells 1..N-3 have stencil c-1..c+2
    for q in range(4):
        R[rows, a - 1 + q:b - 1 + q] += w[a - c0:b - c0, :, q].T
    if c0 == 0:
        R[rows, :4] += w[0]
    if c0 + m == N - 1:
        R[rows, N - 4:] += w[-1]


def _runs(mask: np.ndarray, key: np.ndarray) -> list[tuple[int, int]]:
    """The maximal index ranges [a, b) on which mask holds and key is constant."""
    idx = np.flatnonzero(mask)
    if not idx.size:
        return []
    cut = np.flatnonzero((np.diff(idx) != 1) | (np.diff(key[idx]) != 0))
    return list(zip(idx[np.r_[0, cut + 1]].tolist(), (idx[np.r_[cut, -1]] + 1).tolist()))


def _lattice_index(nodes: np.ndarray, n: int) -> np.ndarray:
    """The index of each node in np.linspace(0, 1, n), or -1 for a node
    equal to none of them (no tolerance: one ulp off is off)."""
    base = np.linspace(0.0, 1.0, n)
    i = np.minimum(np.searchsorted(base, nodes), n - 1)
    return np.where(base[i] == nodes, i, -1)


def _weight_matrices(models: tuple[KernelModel, KernelModel], nodes: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """W = beta * 1 B^T + (1 E^T - R)/Gamma(alpha) per model, with
    B[p] = int_0^1 L_p, R[j, p] = int_0^{t_j} (t_j - s)^(alpha-1) L_p(s) ds
    and E = R at eta.

    The uniform nodes np.linspace(0, 1, n) form a lattice of step h. A node
    is on it only when equal to a lattice node (no tolerance). A cell whose
    stencil c-1..c+2 is four consecutive lattice nodes is regular: in a
    lattice row j its weights are h^alpha times those of the unit cell
    [0, 1] in row i_j - i_c. So R[j, p] = phi(i_j - i_p) for every lattice
    row j and every column p that only regular cells touch, phi folded
    from one table of the unit cell. The rest goes to ``_cell_weights``:
    rows off the lattice (breakpoints) over all cells, and every column an
    irregular cell touches (cells 0 and N-2 and those by a breakpoint)
    over each touching cell's rows to its right.
    """
    N = nodes.size
    cells = _cells(nodes)
    B = np.zeros((1, N))
    _add_cells(B, slice(None), 0, _cell_weights(1.0, cells, slice(None), np.ones(1)))
    lat = _lattice_index(nodes, n)
    on = lat >= 0
    regular = np.zeros(N - 1, dtype=bool)
    regular[1:-1] = on[:-3] & on[1:-2] & on[2:-1] & on[3:] & (lat[3:] - lat[:-3] == 3)
    border = np.zeros(N, dtype=bool)
    border[cells.stencil[~regular]] = True
    per = max(1, _BLOCK_BYTES // (32 * N))  # cells per call, for (cells, N, 4) weights
    chunks = [(c0, min(b, c0 + per))
              for a, b in _runs(border[cells.stencil].any(axis=1), np.zeros(N - 1))
              for c0 in range(a, b, per)]
    key = lat - np.arange(N)
    blocks = [(j0, j1, c0, c1) for c0, c1 in _runs(on & ~border, key)
              for j0, j1 in _runs(on, key)]
    off = np.flatnonzero(~on)
    out = []
    for model in models:
        p = model.params
        scale = -1.0 / model.gamma_alpha  # R is built times this
        R = np.zeros((N, N))
        for c0, c1 in chunks:
            w = _cell_weights(p.alpha, cells, slice(c0, c1), nodes[c0 + 1:])
            w *= scale
            _add_cells(R, slice(c0 + 1, None), c0, w)
        # phi(m) = sum_q V[m-1+q, q] for the scaled unit table V, stored
        # reversed at rev[n - m], so that a block of lattice rows and
        # columns is a view of its windows
        V = _cell_weights(p.alpha, _UNIT, slice(1, 2), np.arange(float(n)))[0]
        V *= scale * (1.0 / (n - 1)) ** p.alpha
        rev = np.zeros(2 * n + N + 2)
        for q in range(4):
            rev[q:n + q] += V[::-1, q]
        win = sliding_window_view(rev, N)
        for j0, j1, c0, c1 in blocks:
            s = n - lat[j0] + lat[c0]
            R[j0:j1, c0:c1] = win[s + j0 - j1 + 1:s + 1, :c1 - c0][::-1]
        if off.size:
            R[off] = 0.0
            w = _cell_weights(p.alpha, cells, slice(off.max()), nodes[off])
            w *= scale
            _add_cells(R, off, 0, w)
        R += p.beta * B - R[int(np.searchsorted(nodes, p.eta))]  # eta is a node
        out.append(R)
    return tuple(out)


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
    return SystemGrid(nodes=nodes, weights=_weight_matrices(models, nodes, n),
                      n_requested=n, breakpoints=breaks)


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
