"""Collocation solver for the equivalent Hammerstein integral system.

The system

    u(t) = int_0^1 k_1(t, s) f_1(s, u(s), v(s)) ds,
    v(t) = int_0^1 k_2(t, s) f_2(s, u(s), v(s)) ds,

is discretized on the uniform nodes np.linspace(0, 1, n). Each kernel row
is integrated exactly (product integration) against the local
piecewise-cubic Lagrange interpolant of the integrand's nonlinear factor;
the kink of k(t, .) at t is a node, and the one at eta is integrated
inside its cell. Every lattice cell is one of the three cells of a unit
lattice moved into place, so a weight depends only on the offset of row
and column but in the first four columns and the last row: the operator
is a lower-triangular Toeplitz matrix, applied as one FFT convolution
for both equations, plus O(n) corrections (those columns, that row and a
rank-one term), which one routine integrates. No dense matrix is formed.
Cone membership takes the minimum over the nodes in [0, b] and the
interpolant at b. The fixed point itself is found by Picard iteration
with Anderson mixing on one stacked state, each step one ``apply_T``
call; non-convergence is flagged, and a state or defect past RANGE raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exprlang import EvalError, Expr, eval_exprs
from .kernel import RANGE, KernelModel

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
# on a cell ending at least one width before t (rho >= 3 + sqrt(8)); the
# positive half of numpy's leggauss(8): importing numpy.polynomial held 1.5 MB
_GAUSS_X = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267,
                     0.9602898564975362])
_GAUSS_W = np.array([0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
                     0.10122853629037706])
_GAUSS_X = 0.5 * (np.concatenate((-_GAUSS_X[::-1], _GAUSS_X)) + 1.0)
_GAUSS_W = 0.5 * np.concatenate((_GAUSS_W[::-1], _GAUSS_W))

# roundoff tolerated below the cone's lower bound
_CONE_TOL = 1e-9

# Anderson mixing's memory, and the pivot ratio that drops a difference
_MEMORY, _DROP = 3, 1e-10

# row r, column q: the r-th of the three stencil nodes other than q
_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]).T


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
    others = xn[:, _OTHERS]
    basis = (xs[:, None, None] - others).prod(axis=1) / (xn[:, None, :] - others).prod(axis=1)
    return idx, basis


def interpolate_nodes(nodes: np.ndarray, values: np.ndarray, ts) -> np.ndarray:
    """Piecewise-cubic evaluation of node values at arbitrary points in [0, 1]."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    idx, basis = _lagrange_stencil(np.asarray(nodes, dtype=float), ts)
    return (basis * np.asarray(values, dtype=float)[idx]).sum(axis=1)


@dataclass(frozen=True, eq=False)
class SystemGrid:
    """Shared node set and the collocation operator of both equations.

    W_i[j, p] = int_0^1 k_{i+1}(t_j, s) L_p(s) ds, exact up to roundoff, for
    the piecewise-cubic cardinal function L_p of node p, so W_i g integrates
    k_{i+1}(t_j, .) against the interpolant of the node values g (exactly
    for cubic g, kinks of k included). W_i = R_i + 1 c_i^T with R_i = -R/Gamma
    and c_i = beta B + E/Gamma (``build_grid``), and R_i[j, p] = phi_i(j - p)
    but in the first four columns and the last row. Stacked over i:
    ``spectrum``, the rfft of length ``_transform_length(n)`` of
    phi_i(k - 2) for k = 0..n+2 (phi_i vanishes below -1); ``left``, the
    first four columns of R_i; ``rows``, c_i and the last row of R_i.
    """

    nodes: np.ndarray
    spectrum: np.ndarray
    left: np.ndarray
    rows: np.ndarray


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


_POWERS = np.arange(4.0)[:, None]  # the moments' exponents, less alpha - 1


def _cell_weights(alpha: float, cells: _Cells, sel: slice, t: np.ndarray) -> np.ndarray:
    """Product-integration weights of the cells ``sel`` for the rows ``t``.

    w[k, j, q] = int over the k-th selected cell, cut off at t_j, of
    (t_j - s)^(alpha-1) L_q(s) ds for the four cubics L_q of the cell's
    stencil: the Gauss rule when t_j lies more than one cell width past the
    cell's end, exact moments over [lo, min(t_j, hi)] when t_j lies past the
    cell's start and at most that far, and 0 when t_j lies at or before the
    start.
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
    tj, wk = t[jj], w[kk]
    k = _POWERS + alpha
    mom = (((tj - lo[kk]) / wk) ** k - (np.maximum(tj - hi[kk], 0.0) / wk) ** k) / k
    u = (tj - nodes[cells.stencil[sel][kk]].T) / wk
    r0, r1, r2 = u[_OTHERS]  # the other three stencil nodes of each q
    s, p = r0 + r1, r0 * r1
    num = mom[3] - (s + r2) * mom[2] + (p + r2 * s) * mom[1] - p * r2 * mom[0]
    out[kk, jj] = (num / ((u - r0) * (u - r1) * (u - r2)) * wk**alpha).T
    return out


def _rows(alpha: float, x: np.ndarray, n: int) -> np.ndarray:
    """R's rows at the times ``x`` on the n-node lattice of step 1. Cell c
    has stencil start s = clip(c - 1, 0, n - 4): it is the ``_UNIT`` cell
    c - s moved by s + 1, and only that unit cell is evaluated for it."""
    out = np.zeros((x.size, n))
    out[:, :4] = _cell_weights(alpha, _UNIT, slice(0, 1), x - 1.0)[0]
    c = np.arange(1.0, n - 2)
    w = _cell_weights(alpha, _UNIT, slice(1, 2), (x - c[:, None]).ravel())[0]
    for q in range(4):
        out[:, q:q + c.size] += w[:, q].reshape(c.size, x.size).T
    out[:, n - 4:] += _cell_weights(alpha, _UNIT, slice(2, 3), x - (n - 3.0))[0]
    return out


def _transform_length(n: int) -> int:
    """Twice the least 5-smooth integer >= n. The n + 3 taps on n inputs
    then do not wrap onto the outputs 2..n+1, no prime factor above 5 sends
    pocketfft to Bluestein's algorithm (several times slower), and
    ``apply_T`` reads the even length off the spectrum's shape."""
    # 30^bits holds every factor 2, 3 and 5 of k, so the gcd is k's 5-smooth part
    return 2 * next(k for k in range(n, 2 * n) if k // math.gcd(k, 30 ** k.bit_length()) == 1)


def build_grid(models: tuple[KernelModel, KernelModel], n: int = 201) -> SystemGrid:
    """The ``n`` uniform nodes on [0, 1] and the operator of both equations,
    W = beta * 1 B^T + (1 E^T - R)/Gamma(alpha) per model, with
    B[p] = int_0^1 L_p, R[j, p] = int_0^{t_j} (t_j - s)^(alpha-1) L_p(s) ds
    and E = R at eta, on the nodes t_j = j h, h = 1/(n - 1).

    All are built in lattice units (h = 1, R scaled by h^alpha). A cell c
    with stencil c-1..c+2 (cells 1..n-3) has, in row j, the weights V[j - c]
    of the unit cell [0, 1], so R[j, p] = phi(j - p), phi folded from V,
    but in the columns 0..3, which cell 0 also reaches, and in the last
    row: elsewhere the fold's cells past the right end and the real last
    cell start at or after t_j and weigh 0. The columns 0..3 are cell 0
    (the unit cell [-1, 0] moved by 1) plus cells 1..4 read from V;
    ``_rows`` gives the last row and E.
    """
    if n < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} nodes, got {n}")
    h = 1.0 / (n - 1)
    x = np.arange(float(n))
    # B/h folds the integrals of the cubics over one full unit cell, in 24ths:
    # [9, 19, -5, 1] for cell 0, [-1, 13, 13, -1] inner, [1, -5, 19, 9] last;
    # the integer sums are exact, so one division rounds each entry correctly
    B = np.convolve(np.ones(n - 3), [-1.0, 13.0, 13.0, -1.0])
    B[:4] += 9.0, 19.0, -5.0, 1.0
    B[n - 4:] += 1.0, -5.0, 19.0, 9.0
    B /= 24.0 * (n - 1)
    taps = np.zeros((2, _transform_length(n)))
    left = np.zeros((2, n, 4))
    rows = np.empty((2, 2, n))
    for i, model in enumerate(models):
        p = model.params
        scale = -h**p.alpha / model.gamma_alpha  # R and E are built times this
        last, E = scale * _rows(p.alpha, np.array([n - 1.0, p.eta * (n - 1)]), n)
        rows[i] = p.beta * B - E, last
        first, V = scale * _cell_weights(p.alpha, _UNIT, slice(0, 2), x)
        left[i, 1:] = first[:-1]
        for c in range(1, 5):
            left[i, c:, c - 1:] += V[:n - c, :5 - c]
        # phi(m) = sum_q V[m-1+q, q], at taps[m + 2]
        for q in range(4):
            taps[i, 3 - q:n + 3 - q] += V[:, q]
    return SystemGrid(nodes=np.linspace(0.0, 1.0, n), spectrum=np.fft.rfft(taps),
                      left=left, rows=rows)


def apply_T(grid: SystemGrid, f1: Expr, f2: Expr, u: np.ndarray,
            v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One application of the Hammerstein operator at the grid nodes: f1
    and f2 in one ``eval_exprs`` call, written into one (2, n) array, one
    FFT convolution for both equations, then the O(n) corrections. Returns
    the two rows of one (2, n) array."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    n = grid.nodes.size
    if u.shape != grid.nodes.shape or v.shape != grid.nodes.shape:
        raise ValueError(f"state shapes {u.shape}, {v.shape} do not match the grid "
                         f"{grid.nodes.shape}")
    g = np.empty((2, n))
    g[0], g[1] = eval_exprs((f1, f2), grid.nodes, u, v)
    dots = np.matmul(grid.rows, g[:, :, None])[..., 0]
    out = np.matmul(grid.left, g[:, :4, None])[..., 0]
    g[:, :4] = 0.0
    # the transforms sum O(n L) multiples of max|g|: scaled exactly, by a
    # power of two, to |g| < 2, they overflow only where W g itself would;
    # at scale 1 both rescales are skipped, which is exact too
    scale = 2.0 ** max(math.frexp(float(np.abs(g).max()))[1] - 1, 0)
    size = 2 * (grid.spectrum.shape[1] - 1)
    spec = np.fft.rfft(g if scale == 1.0 else g / scale, size)
    spec *= grid.spectrum
    conv = np.fft.irfft(spec, size)[:, 2:n + 2]
    out += conv if scale == 1.0 else conv * scale
    out[:, -1] = dots[:, 1]
    out += dots[:, :1]
    return out[0], out[1]


@dataclass(frozen=True, eq=False)
class GridSolution:
    """Outcome of ``solve_picard``; ``damping`` is its mixing parameter.

    ``residual_sup`` is the defect max_i ||w_i - T(u, v)_i||_inf
    of the returned state and ``tol`` the tolerance applied to it (the
    requested one, or the rounding floor where that is larger), so
    converged implies residual_sup <= tol; both are finite.
    """

    grid: SystemGrid
    u_values: np.ndarray
    v_values: np.ndarray
    residual_sup: float
    iterations: int
    converged: bool
    damping: float
    tol: float


def _mixing_coefficients(gram: list[list[float]], rhs: list[float]) -> list[float]:
    """gamma from the normal equations gram gamma = rhs, newest difference
    first, by Cholesky in Python floats. A pivot at most ``_DROP`` times its
    diagonal entry drops that difference and all older ones (Walker & Ni);
    [] (the newest difference zero, or gamma not finite) asks for the plain
    damped step."""
    L, y = [], []
    for k, (row, b) in enumerate(zip(gram, rhs)):
        lk = row[:k]
        for i in range(k):
            for p in range(i):
                lk[i] -= lk[p] * L[i][p]
            lk[i] /= L[i][i]
        pivot = row[k]
        for p in range(k):
            pivot -= lk[p] * lk[p]
            b -= lk[p] * y[p]
        if not pivot > _DROP * row[k]:
            break
        L.append(lk + [math.sqrt(pivot)])
        y.append(b / L[k][k])
    for k in reversed(range(len(y))):
        for i in range(k + 1, len(y)):
            y[k] -= L[i][k] * y[i]
        y[k] /= L[k][k]
    return y if math.isfinite(sum(y)) else []


@np.errstate(over="raise", invalid="raise")  # entered once per call: no cost per step
def solve_picard(grid: SystemGrid, f1: Expr, f2: Expr,
                 init: tuple[np.ndarray, np.ndarray] | None = None,
                 tol: float = 1e-12, max_iter: int = 200,
                 damping: float = 0.5) -> GridSolution:
    """Solve the discretized system by Picard iteration with Anderson mixing.

    From x = (u, v) stacked (``init``, zero by default) a step goes to the
    damped point P = (1 - damping) x + damping T(x) less sum_i gamma_i dP_i,
    gamma the least-squares fit of the defect F = T(x) - x by its last
    ``_MEMORY`` differences dF_i (type II, Walker & Ni), kept with those of P
    in (m, 2n) ring buffers: one ``apply_T`` call, and one matmul each for the
    new Gram row, the right-hand side and the mixing. It stops when ||F||_inf <=
    ``tol`` (finite, > 0), or <= 8 ulps of ||T(x)||_inf where that is larger,
    and returns that iterate with ||F||_inf as residual_sup. A mixed point where
    f1, f2 or T faults, or ||T(x)||_inf or ||F||_inf passes RANGE (so |dF| <= 2
    RANGE, and no Gram entry overflows below 2^61 nodes), is replaced by P; elsewhere
    a fault of f1 or f2 is raised, the others as a ValueError naming the step.
    ``max_iter`` steps give converged=False.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n = grid.nodes.size
    init = np.zeros((2, n)) if init is None else init
    u, v = np.asarray(init[0], dtype=float), np.asarray(init[1], dtype=float)
    if u.shape != grid.nodes.shape or v.shape != grid.nodes.shape:
        raise ValueError(f"init shapes {u.shape}, {v.shape} do not match the grid "
                         f"({grid.nodes.shape})")
    x = np.concatenate((u, v))
    dF, dP = np.zeros((2, _MEMORY, 2 * n))
    order, gram = [], []  # the ring slots in use, newest first, and their Gram matrix
    iterations, P = 0, None
    while True:
        try:
            Tx = np.concatenate(apply_T(grid, f1, f2, x[:n], x[n:]))
            F = Tx - x
            top, residual = float(abs(Tx).max()), float(abs(F).max())
            if max(top, residual) > RANGE:
                raise FloatingPointError
        except (EvalError, FloatingPointError) as exc:
            if x is not P and P is not None:
                x = P  # the mixed point left f's domain or T's range; P lies between x and T(x)
                continue
            if isinstance(exc, EvalError):
                raise
            raise ValueError(f"T(x) or T(x) - x passes 2^480 at iteration {iterations}") from None
        applied = max(tol, 8.0 * float(np.spacing(top)))
        converged = residual <= applied
        if converged or iterations >= max_iter:
            return GridSolution(grid=grid, u_values=x[:n], v_values=x[n:],
                                residual_sup=residual, iterations=iterations,
                                converged=converged, damping=damping, tol=applied)
        x = P = F * (damping - 1.0) + Tx  # (1 - damping) x + damping T(x)
        if iterations:
            j = iterations % _MEMORY
            np.subtract(F, F_last, out=dF[j])
            np.subtract(P, P_last, out=dP[j])
            row, rhs = np.dot(dF, dF[j]).tolist(), np.dot(dF, F).tolist()
            order = [j] + order[:_MEMORY - 1]
            gram = [[row[a] for a in order]] + [[row[a]] + r[:len(order) - 1]
                                                for a, r in zip(order[1:], gram)]
            gamma = _mixing_coefficients(gram, [rhs[a] for a in order])
            del order[len(gamma):]
            if gamma:  # gamma by ring slot, 0 where a slot is not in use
                try:
                    x = np.matmul([gamma[order.index(a)] if a in order else 0.0
                                   for a in range(_MEMORY)], dP)  # a ufunc: flags overflow
                    np.subtract(P, x, out=x)
                except FloatingPointError:
                    x = P  # the mixed point left the double range
        F_last, P_last = F, P
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
