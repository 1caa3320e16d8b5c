"""Collocation grid, Hammerstein operator, Picard iteration and cone checks."""

import hashlib
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraccert.exprlang import DivisionByZero, DomainError, EvalError, parse
from fraccert.kernel import (RANGE, KernelModel, build_model, check_params, compute_c,
                             kernel_values, validate_params)
from fraccert.solver import (
    _GAUSS_W,
    _GAUSS_X,
    _MIN_NODES,
    _UNIT,
    GridSolution,
    _cell_weights,
    _Cells,
    _cells,
    _lagrange_stencil,
    _mixing_coefficients,
    _rows,
    _transform_length,
    apply_T,
    build_grid,
    cone_metrics,
    interpolate_nodes,
    solve_picard,
)
from test_certify import S3_F1, S3_F2, S6_F1, S6_F2


def row_integral(params, t, degree=0):
    """Closed form of int_0^1 k(t, s) s^degree ds (t a float or an array)."""
    a = params.alpha
    factor = math.factorial(degree)
    return (params.beta / (degree + 1)
            + factor * (params.eta ** (a + degree) - t ** (a + degree))
            / math.gamma(a + degree + 1))


def pieces(nodes, eta):
    """The cells of ``nodes`` with the one holding eta split there: a list of
    (a, b) on which k(t_j, .) is smooth but for the right end, for every node t_j."""
    out = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        out += [(a, eta), (eta, b)] if a < eta < b else [(a, b)]
    return out


def oracle_weights(params, nodes, levels=40, order=10):
    """Brute-force int_0^1 k(t_j, s) L_p(s) ds for every node pair.

    Each piece gets a composite Gauss rule graded geometrically toward its
    right end, the only place a kink of k(t_j, .) (eta or t_j) can sit, and
    L_p is read off the interpolation stencil of the nodes.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.concatenate(([0.0], 1.0 - 2.0 ** -np.arange(1.0, levels + 1.0), [1.0]))
    widths = np.diff(edges)
    sigma = (edges[:-1, None] + 0.5 * widths[:, None] * (x + 1.0)).ravel()
    sigma_w = (0.5 * widths[:, None] * w).ravel()
    W = np.zeros((nodes.size, nodes.size))
    for a, b in pieces(nodes, params.eta):
        s = a + (b - a) * sigma
        idx, basis = _lagrange_stencil(nodes, s)
        for j, t in enumerate(nodes):
            W[j, idx[0]] += ((b - a) * sigma_w * kernel_values(params, float(t), s)) @ basis
    return W


def split_cells(nodes, eta):
    """``_cells(nodes)`` with the cell holding eta split at eta, each half keeping
    the stencil of the whole cell, and those stencils as indices of ``nodes``."""
    edges = np.array([a for a, _ in pieces(nodes, eta)] + [1.0])
    width = np.diff(edges)
    gs = edges[:-1, None] + width[:, None] * _GAUSS_X
    idx, basis = _lagrange_stencil(nodes, gs.ravel())
    stencil = idx[::_GAUSS_X.size]
    rule = basis.reshape(gs.shape + (4,)) * (width[:, None] * _GAUSS_W)[:, :, None]
    return _Cells(edges, np.searchsorted(edges, nodes[stencil]), gs, rule), stencil


def generic_weights(model, nodes):
    """W from ``_cell_weights`` on every (row, cell) pair, summed cell by cell.

    B comes the same way, as the alpha = 1 weights of the row t = 1, and E
    as the row t = eta over the cells split at eta, so that eta lies at a
    cell end as every other row does. The rows go 128 at a time, which
    keeps the (cells, rows, 8) Gauss table small at 1,601 nodes.
    """
    p = model.params
    stencil = _lagrange_stencil(nodes, nodes[:-1])[0]
    cells = _cells(nodes)
    ones = _cell_weights(1.0, cells, slice(None), np.ones(1))
    split, split_stencil = split_cells(nodes, p.eta)
    at_eta = _cell_weights(p.alpha, split, slice(None), np.array([p.eta]))
    R = np.zeros((nodes.size, nodes.size))
    B = np.zeros(nodes.size)
    E = np.zeros(nodes.size)
    for lo in range(0, nodes.size, 128):
        w = _cell_weights(p.alpha, cells, slice(None), nodes[lo:lo + 128])
        for c, cols in enumerate(stencil):
            R[lo:lo + 128, cols] += w[c]
    for c, cols in enumerate(stencil):
        B[cols] += ones[c, 0]
    for c, cols in enumerate(split_stencil):
        E[cols] += at_eta[c, 0]
    return p.beta * B + (E - R) / model.gamma_alpha


STATE_U, STATE_V = parse("u"), parse("v")


def dense_weights(grid):
    """Both W_i as dense matrices: column p is the operator applied to the
    unit vector e_p, with f_1 = u and f_2 = v."""
    cols = [apply_T(grid, STATE_U, STATE_V, e, e) for e in np.eye(grid.nodes.size)]
    return tuple(np.array([col[i] for col in cols]).T for i in range(2))


def assert_cubics_integrated(models, n):
    """W_i @ nodes**k against the closed form, k = 0..3, within 1e-13.
    Returns the grid and its dense W_i."""
    grid = build_grid(models, n)
    weights = dense_weights(grid)
    for W, model in zip(weights, models):
        for k in range(4):
            expected = row_integral(model.params, grid.nodes, k)
            assert np.max(np.abs(W @ grid.nodes**k - expected)) < 1e-13
    return grid, weights


def assert_matches_generic(models, n):
    grid, weights = assert_cubics_integrated(models, n)
    for W, model in zip(weights, models):
        ref = generic_weights(model, grid.nodes)
        assert np.max(np.abs(W - ref)) <= 1e-13 * np.max(np.abs(ref))
    return grid, weights


def assert_apply_matches_generic(models, n):
    """apply_T against generic_weights @ g for seeded random g, within
    1e-13 * max|W| * ||g||_1 per equation."""
    grid = build_grid(models, n)
    refs = [generic_weights(model, grid.nodes) for model in models]
    rng = np.random.default_rng(n)
    for _ in range(3):
        g1, g2 = rng.standard_normal((2, n))
        for Tg, W, g in zip(apply_T(grid, STATE_U, STATE_V, g1, g2), refs, (g1, g2)):
            bound = 1e-13 * np.max(np.abs(W)) * np.sum(np.abs(g))
            assert np.max(np.abs(Tg - W @ g)) <= bound


def unverified_model(alpha, beta, eta, b):
    """A kernel model for the weights alone, without the sampled envelope check."""
    params = validate_params(alpha, beta, eta, b)
    return KernelModel(params=params, c=compute_c(params), gamma_alpha=math.gamma(alpha))


@pytest.fixture(scope="module")
def grid16(model1, model2):
    return build_grid((model1, model2), 16)


@pytest.fixture(scope="module")
def grid64(model1, model2):
    return build_grid((model1, model2), 64)


ZERO = parse("0")
ONE = parse("1")


class TestGrid:
    def test_nodes_are_the_uniform_lattice(self, model1, model2):
        # eta_1 = 0.75 is the node 6/8 at n = 9, and 41/60 lies within h/4
        # of the node 5/7 at n = 8; no breakpoint is inserted or moves a node
        for n in (8, 9, 201):
            grid = build_grid((model1, model2), n)
            assert grid.nodes.tobytes() == np.linspace(0.0, 1.0, n).tobytes()

    def test_breakpoints_inserted(self, model1, model2):
        # the breakpoints 2/3, 41/60, 0.75 and 0.775 are no longer inserted
        # as nodes at n = 8: each lies inside a lattice cell, 41/60 leaves the
        # node 5/7 in place, and the weights still integrate exactly across them
        nodes = assert_cubics_integrated((model1, model2), 8)[0].nodes
        assert nodes.size == 8
        assert np.min(np.abs(nodes - 5.0 / 7.0)) < 1e-15
        for x in (2.0 / 3.0, 41.0 / 60.0, 0.75, 0.775):
            assert np.min(np.abs(nodes - x)) > 0.0

    def test_breakpoint_collapses_onto_uniform_node(self, model1, model2):
        # eta_1 = 0.75 is the uniform node 6/8 when n = 9; it stays one node
        nodes = assert_cubics_integrated((model1, model2), 9)[0].nodes
        assert nodes.size == 9
        assert np.count_nonzero(np.abs(nodes - 0.75) < 1e-15) == 1

    def test_gauss_rule_is_leggauss_bit_for_bit(self):
        x, w = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(_GAUSS_X, 0.5 * (x + 1.0))
        assert np.array_equal(_GAUSS_W, 0.5 * w)

    def test_too_few_nodes(self, model1, model2):
        with pytest.raises(ValueError):
            build_grid((model1, model2), 7)

    def test_weights_integrate_constant(self, grid64, params1, params2):
        ones = np.ones(grid64.nodes.size)
        for w, params in zip(dense_weights(grid64), (params1, params2)):
            expected = np.array([row_integral(params, t) for t in grid64.nodes])
            assert np.max(np.abs(w @ ones - expected)) < 1e-13

    def test_weights_integrate_cubics(self, grid64, params1, params2):
        nodes = grid64.nodes
        for w, params in zip(dense_weights(grid64), (params1, params2)):
            for k in range(4):
                expected = np.array([row_integral(params, t, k) for t in nodes])
                assert np.max(np.abs(w @ nodes**k - expected)) < 1e-13

    @pytest.mark.parametrize("n", [16, 64])
    def test_weights_match_oracle(self, model1, model2, n):
        grid = build_grid((model1, model2), n)
        for w, model in zip(dense_weights(grid), (model1, model2)):
            assert np.max(np.abs(w - oracle_weights(model.params, grid.nodes))) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.01, 2.0), st.floats(0.1, 0.9), st.floats(0.1, 0.9))
    def test_weights_match_oracle_over_alpha(self, alpha, eta, frac):
        # eta lies inside a cell unless it is a node; beta is a fraction of its bound
        beta = frac * (1.0 - eta) ** (alpha - 1.0) / math.gamma(alpha)
        model = unverified_model(alpha, beta, eta, eta)
        grid = build_grid((model, model), 16)
        oracle = oracle_weights(model.params, grid.nodes)
        assert np.max(np.abs(dense_weights(grid)[0] - oracle)) < 1e-10

    def test_alpha_two_weights_are_polynomial_integrals(self):
        # at alpha = 2 the kernel is piecewise linear with kinks at the
        # nodes and at eta = 0.5, inside the cell [7/15, 8/15]; split there,
        # a 3-point Gauss rule per piece integrates it times the cubic basis
        # exactly
        model = unverified_model(2.0, 0.3, 0.5, 0.6)
        grid = build_grid((model, model), 16)
        nodes = grid.nodes
        assert 0.5 not in nodes
        x, w = np.polynomial.legendre.leggauss(3)
        expected = np.zeros((nodes.size, nodes.size))
        for a, b in pieces(nodes, 0.5):
            s = a + 0.5 * (b - a) * (x + 1.0)
            idx, basis = _lagrange_stencil(nodes, s)
            for j, t in enumerate(nodes):
                expected[j, idx[0]] += (0.5 * (b - a) * w * kernel_values(model.params, t, s)) @ basis
        assert np.max(np.abs(dense_weights(grid)[0] - expected)) < 1e-14

    def test_breakpoint_near_uniform_node_leaves_no_sliver(self, model1, model2):
        # b_1 just off the uniform node 0.775 = 155/200 is no node at all
        params = validate_params(1.5, 0.2, 0.75, 0.775 + 1e-10)
        plain = build_grid((model1, model2), 201)
        grid = build_grid((build_model(params), model2), 201)
        assert grid.nodes.size == plain.nodes.size
        assert np.min(np.diff(grid.nodes)) > 0.25 / 200
        W, plain_W = dense_weights(grid)[0], dense_weights(plain)[0]
        assert np.max(np.abs(W)) < 2.0 * np.max(np.abs(plain_W))
        expected = np.array([row_integral(params, t) for t in grid.nodes])
        assert np.max(np.abs(W @ np.ones(grid.nodes.size) - expected)) < 1e-13


@st.composite
def admissible_models(draw):
    """A kernel model from the admissible range, eta = 0 included."""
    alpha = draw(st.floats(1.0, 2.0, exclude_min=True))
    eta = draw(st.one_of(st.just(0.0), st.floats(1e-9, 0.95)))
    bound = (1.0 - eta) ** (alpha - 1.0) / math.gamma(alpha)
    beta = draw(st.floats(0.05, 0.95)) * bound
    reach = min(1.0 - eta, (beta * math.gamma(alpha)) ** (1.0 / (alpha - 1.0)))
    b = eta + draw(st.floats(0.05, 0.95)) * reach
    # near alpha = 1 the reach is below one ulp of eta, and b rounds past it
    assume(not check_params(alpha, beta, eta, b))
    return unverified_model(alpha, beta, eta, b)


# (alpha, beta, eta, b) of one equation whose breakpoints would have made
# sliver cells as nodes; each is paired with reference equation 1
NODE = float(np.linspace(0.0, 1.0, 201)[150])
SLIVERS = {
    "eta-on-a-node": (1.5, 0.2, NODE, 0.775),
    "eta-one-ulp-off-a-node": (1.5, 0.2, NODE + np.spacing(NODE), 0.775),
    "eta-1e-9-past-eta-1": (1.25, 0.4, 0.75 + 1e-9, 0.75 + 1e-9),
    "eta-by-0": (1.5, 0.5 * (1.0 - 1e-3) ** 0.5 / math.gamma(1.5), 1e-3, 1e-3),
    "eta-by-1": (1.5, 0.5 * (1.0 - 0.999) ** 0.5 / math.gamma(1.5), 0.999, 0.999),
    "eta-zero": (1.5, 0.2, 0.0, 0.02),
    "b-2.7e-20": (1.0625, 0.06459413757360319, 0.0, 2.710505431213761e-20),
}


class TestLatticeAssembly:
    """The lattice table and its border against the generic routine on every
    row and cell, and the cubic moments of every row against closed forms."""

    def test_small_grid_has_no_lattice_part(self, model1, model2):
        assert_matches_generic((model1, model2), 8)

    def test_reference_at_801_nodes(self, model1, model2):
        assert_matches_generic((model1, model2), 801)

    @pytest.mark.parametrize("n", [8, 9, 201, 3201])
    def test_B_is_the_fold_of_rationals(self, n):
        # with beta = 1 and eta = 0, E vanishes and c_i = beta B + E/Gamma is B
        # itself: each entry is its exact fold of 24ths, correctly rounded,
        # within rounding of the Gauss rule at alpha = 1, and they sum to 1
        p = validate_params(1.5, 1.0, 0.0, 0.5)
        model = KernelModel(params=p, c=compute_c(p), gamma_alpha=math.gamma(p.alpha))
        B = build_grid((model, model), n).rows[0, 0]
        fold = [0] * n
        for c, cell in enumerate([[9, 19, -5, 1]] + [[-1, 13, 13, -1]] * (n - 3)
                                 + [[1, -5, 19, 9]]):
            for q, v in enumerate(cell):
                fold[min(max(c - 1, 0), n - 4) + q] += v
        assert B.tolist() == [float(Fraction(v, 24 * (n - 1))) for v in fold]
        gauss = _rows(1.0, np.array([n - 1.0]), n)[0] / (n - 1)
        assert np.max(np.abs(B - gauss)) <= 2e-16
        assert abs(math.fsum(B) - 1.0) <= 4 * np.spacing(1.0)

    def test_assembly_allocates_no_square_temporary(self, model1, model2):
        # the grid and its assembly are O(N): 2 KiB per node at most, which
        # a single (N, N) array (8 N^2 bytes) exceeds at either size
        for n in (801, 3201):
            build_grid((model1, model2), n)
            tracemalloc.start()
            try:
                build_grid((model1, model2), n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2048 * n

    def test_transform_length_is_smooth(self, model1, model2):
        # a prime factor above 5 in the FFT length sends pocketfft to
        # Bluestein's algorithm, several times slower; the length must also
        # reach 2n so that the circular convolution does not wrap
        for n in range(_MIN_NODES, 4001):
            size = _transform_length(n)
            assert size >= 2 * n
            for prime in (2, 3, 5):
                while size % prime == 0:
                    size //= prime
            assert size == 1, n
        for n in (8, 201, 801):
            grid = build_grid((model1, model2), n)
            assert grid.spectrum.shape == (2, _transform_length(n) // 2 + 1)

    @pytest.mark.parametrize("n", [8, 9, 201, 801, 1601])
    def test_apply_matches_generic_weights(self, model1, model2, n):
        assert_apply_matches_generic((model1, model2), n)

    @pytest.mark.parametrize("name", list(SLIVERS))
    def test_apply_matches_generic_weights_on_sliver_configs(self, model1, name):
        assert_apply_matches_generic((unverified_model(*SLIVERS[name]), model1), 201)

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_breakpoint_on_or_one_ulp_off_a_lattice_node(self, model2, ulps):
        # on a node or one ulp past it, eta sits at the end of a cell or
        # inside the next one; the weights move by rounding only
        name = "eta-on-a-node" if ulps == 0 else "eta-one-ulp-off-a-node"
        model = unverified_model(*SLIVERS[name])
        W = assert_matches_generic((model, model2), 201)[1][0]
        on_node = build_grid((unverified_model(*SLIVERS["eta-on-a-node"]), model2), 201)
        assert np.max(np.abs(W - dense_weights(on_node)[0])) < 1e-15

    @pytest.mark.parametrize("n", [33, 201])
    def test_breakpoints_within_a_quarter_step(self, model1, n):
        # eta_2 = 0.75 + 1e-9 sits 1e-9 inside the cell after eta_1 = 0.75;
        # as nodes the two made a 1e-9 cell and max|W| near 2.7e4
        model = unverified_model(*SLIVERS["eta-1e-9-past-eta-1"])
        weights = assert_matches_generic((model1, model), n)[1]
        assert max(np.max(np.abs(W)) for W in weights) < 1.0

    @pytest.mark.parametrize("eta", [1e-3, 0.999])
    def test_breakpoint_by_an_end(self, model1, eta):
        # within h/4 of 0 or 1, inside the first or last cell
        model = unverified_model(*SLIVERS["eta-by-0" if eta < 0.5 else "eta-by-1"])
        assert model.params.eta == eta
        assert_matches_generic((model, model1), 201)

    def test_eta_zero(self, model1):
        model = unverified_model(*SLIVERS["eta-zero"])
        grid = assert_matches_generic((model, model1), 201)[0]
        assert grid.nodes[0] == 0.0

    @pytest.mark.parametrize("n", [16, 64, 201, 801])
    def test_cubic_moments_on_sliver_configs(self, model1, model2, n):
        assert_cubics_integrated((model1, model2), n)
        for eq in SLIVERS.values():
            weights = assert_cubics_integrated((unverified_model(*eq), model1), n)[1]
            assert all(np.isfinite(W).all() for W in weights)

    @settings(max_examples=20, deadline=None)
    @given(admissible_models(), admissible_models(), st.integers(8, 400))
    def test_random_grids(self, first, second, n):
        assert_matches_generic((first, second), n)


class TestApplyT:
    def test_zero_nonlinearity(self, grid16):
        z = np.zeros(grid16.nodes.size)
        Tu, Tv = apply_T(grid16, ZERO, ZERO, z, z)
        assert np.all(Tu == 0.0) and np.all(Tv == 0.0)

    def test_shape_mismatch(self, grid16):
        z = np.zeros(grid16.nodes.size)
        with pytest.raises(ValueError):
            apply_T(grid16, ONE, ONE, z[:-1], z)

    @pytest.mark.parametrize("size", [1e-300, 1e306, 1.7e308])
    def test_extreme_magnitudes_scale_exactly(self, model1, model2, size):
        # the FFT sums up to L terms, which unscaled would overflow (a
        # RuntimeWarning, an error here) from about 1e306 at 201 nodes,
        # where W g stays finite
        grid = build_grid((model1, model2), 201)
        ones = np.ones(grid.nodes.size)
        Tu, Tv = apply_T(grid, STATE_U, STATE_V, size * ones, size * ones)
        unit = apply_T(grid, STATE_U, STATE_V, ones, ones)
        for T, T1 in zip((Tu, Tv), unit):
            assert np.all(np.isfinite(T))
            assert np.max(np.abs(T / size - T1)) <= 1e-14

    def test_time_dependent_factor(self, grid64, params1, params2):
        z = np.zeros(grid64.nodes.size)
        Tu, Tv = apply_T(grid64, parse("t"), parse("t"), z, z)
        exp1 = np.array([row_integral(params1, t, 1) for t in grid64.nodes])
        exp2 = np.array([row_integral(params2, t, 1) for t in grid64.nodes])
        assert np.max(np.abs(Tu - exp1)) < 1e-9
        assert np.max(np.abs(Tv - exp2)) < 1e-9

    def test_quadratic_state_is_cubic_exact(self, grid64, params1):
        # with u(s) = s the factor u^2 is interpolated exactly by the
        # piecewise cubic reconstruction
        u = grid64.nodes.copy()
        z = np.zeros(grid64.nodes.size)
        Tu, _ = apply_T(grid64, parse("u^2"), ZERO, u, z)
        expected = np.array([row_integral(params1, t, 2) for t in grid64.nodes])
        assert np.max(np.abs(Tu - expected)) < 1e-9

    def test_kinked_factor_matches_oracle(self, grid16, params1, params2):
        # |s - 0.4| has its kink at a node; the cubic stencils straddle it, so
        # the result is the exact integral of a non-polynomial interpolant
        nodes = grid16.nodes
        assert 0.4 in nodes
        z = np.zeros(nodes.size)
        f = parse("abs(t - 0.4)")
        Tu, Tv = apply_T(grid16, f, f, z, z)
        g = np.abs(nodes - 0.4)
        assert np.max(np.abs(Tu - oracle_weights(params1, nodes) @ g)) < 1e-10
        assert np.max(np.abs(Tv - oracle_weights(params2, nodes) @ g)) < 1e-10


class TestPicard:
    def test_zero_converges_immediately(self, grid16):
        sol = solve_picard(grid16, ZERO, ZERO)
        assert sol.converged and sol.iterations == 0
        assert sol.residual_sup == 0.0
        assert np.all(sol.u_values == 0.0)

    def test_constant_forcing_one_step_undamped(self, grid16):
        sol = solve_picard(grid16, ONE, ONE, damping=1.0)
        assert sol.converged and sol.iterations == 1
        assert sol.damping == 1.0

    def test_constant_forcing_closed_form(self, grid64, params1, params2):
        sol = solve_picard(grid64, ONE, ONE, tol=1e-13)
        assert sol.converged
        assert sol.residual_sup <= 1e-13
        exp_u = np.array([row_integral(params1, t) for t in grid64.nodes])
        exp_v = np.array([row_integral(params2, t) for t in grid64.nodes])
        assert np.max(np.abs(sol.u_values - exp_u)) < 1e-8
        assert np.max(np.abs(sol.v_values - exp_v)) < 1e-8
        assert sol.u_values[0] == pytest.approx(0.688602511903, abs=1e-9)
        assert sol.u_values[-1] == pytest.approx(-0.0636502661608, abs=1e-9)
        assert sol.v_values[0] == pytest.approx(0.931685515862, abs=1e-9)
        assert sol.v_values[-1] == pytest.approx(0.0490753948054, abs=1e-9)

    def test_contraction_converges(self, grid16):
        f1 = parse("0.2*cos(u) + 0.1*v")
        f2 = parse("0.3*sin(u + v) + 0.5")
        sol = solve_picard(grid16, f1, f2, tol=1e-12)
        assert sol.converged
        assert sol.tol == 1e-12  # the rounding floor lies far below
        Tu, Tv = apply_T(grid16, f1, f2, sol.u_values, sol.v_values)
        redone = max(np.max(np.abs(Tu - sol.u_values)), np.max(np.abs(Tv - sol.v_values)))
        assert redone == pytest.approx(sol.residual_sup, abs=1e-14)
        assert sol.residual_sup <= 1e-12

    def test_restart_from_solution(self, grid16):
        f1 = parse("0.2*cos(u) + 0.1*v")
        f2 = parse("0.3*sin(u + v) + 0.5")
        sol = solve_picard(grid16, f1, f2, tol=1e-12)
        again = solve_picard(grid16, f1, f2, init=(sol.u_values, sol.v_values),
                             tol=1e-12)
        assert again.converged and again.iterations == 0

    def test_divergent_iteration_is_flagged(self, grid16):
        # u^2 + 10 has no fixed point: phi >= 0 below with phi_p < sqrt(40) c_p,
        # c = phi^T W, turns u = W(u^2 + 10) into sum_p c_p u_p^2 - phi_p u_p
        # + 10 c_p = 0, whose every term is positive (negative discriminant);
        # so the iteration cannot settle (the affine 3u + 1 it used to fail
        # on is solved like a linear system, test_affine_map_is_solved)
        for W in dense_weights(grid16):
            phi = np.ones(grid16.nodes.size)
            for _ in range(200):
                phi = np.maximum(W.T @ phi, 0.0)
                phi /= phi.max()
            assert np.all(phi < math.sqrt(40.0) * (phi @ W))
        sol = solve_picard(grid16, parse("u*u + 10"), parse("v*v + 10"),
                           max_iter=60, damping=1.0)
        assert not sol.converged
        assert sol.iterations == 60
        assert math.isfinite(sol.residual_sup)
        assert sol.residual_sup > 1.0

    def test_affine_map_is_solved(self, grid16):
        # Anderson mixing on an affine map acts like GMRES: f = 3u + 1, on
        # which damped Picard diverges, converges to the solution of the
        # linear system (I - 3 W) w = W 1
        sol = solve_picard(grid16, parse("3*u + 1"), parse("3*v + 1"),
                           max_iter=60, damping=1.0)
        assert sol.converged and sol.residual_sup <= 1e-12
        eye, ones = np.eye(grid16.nodes.size), np.ones(grid16.nodes.size)
        for W, w in zip(dense_weights(grid16), (sol.u_values, sol.v_values)):
            exact = np.linalg.solve(eye - 3.0 * W, W @ ones)
            assert np.max(np.abs(w - exact)) < 1e-11
        assert -2.1 < np.min(sol.u_values) < np.max(sol.u_values) < 0.0

    def test_large_state_stops_at_rounding_floor(self, model1, model2):
        # from 1e4 the S6 plateaus lift ||v|| to ~4.7e6, where one ulp is
        # 9.3e-10: an absolute 1e-12 cannot be met, the 8-ulp floor can
        grid = build_grid((model1, model2), 201)
        start = np.full(grid.nodes.size, 1e4)
        f1, f2 = parse(S6_F1), parse(S6_F2)
        sol = solve_picard(grid, f1, f2, init=(start, start), tol=1e-12, max_iter=3000)
        assert sol.converged and sol.iterations < 100
        Tu, Tv = apply_T(grid, f1, f2, sol.u_values, sol.v_values)
        size = max(np.max(np.abs(Tu)), np.max(np.abs(Tv)))
        assert sol.tol == 8.0 * np.spacing(size) > 1e-12
        assert sol.residual_sup <= sol.tol

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"damping": 0.0},
            {"damping": 1.2},
            {"tol": 0.0},
            {"tol": -1e-3},
            {"max_iter": 0},
        ],
    )
    def test_parameter_validation(self, grid16, kwargs):
        with pytest.raises(ValueError):
            solve_picard(grid16, ONE, ONE, **kwargs)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tol_must_be_finite(self, grid16, tol):
        # an infinite tol would "converge" at step 0, whatever the defect
        with pytest.raises(ValueError, match=r"^tol must be finite and > 0, got (inf|nan)$"):
            solve_picard(grid16, ONE, ONE, tol=tol)

    def test_init_shape_validation(self, grid16):
        bad = np.zeros(grid16.nodes.size - 1)
        good = np.zeros(grid16.nodes.size)
        with pytest.raises(ValueError):
            solve_picard(grid16, ONE, ONE, init=(bad, good))


# picard_warm's forcings at amplitude 0.75, and at 0.76, one continuation step on
PICARD_F = ("{a}*(1 + 0.4*sin(u)) + 0.2*cos(v)", "{a}*(1 + 0.3*cos(u)) + 0.2*sin(v)")


def damped_picard(grid, f1, f2, start, tol, damping):
    """The plain damped iteration w <- (1 - damping) w + damping T(w), with
    solve_picard's stopping rule: the reference for its Anderson mixing."""
    w = np.array(start, dtype=float)
    for _ in range(5000):
        Tw = np.array(apply_T(grid, f1, f2, w[0], w[1]))
        if np.max(np.abs(Tw - w)) <= max(tol, 8.0 * np.spacing(np.max(np.abs(Tw)))):
            return w
        w = (1.0 - damping) * w + damping * Tw
    raise AssertionError("damped Picard did not converge")


# (nodes, f1, f2, constant start, damping, tol): the problems damped Picard
# solved in this suite, and the S3 plateau problem from 23 constant starts
PICARD_PROBLEMS = [
    (16, "1", "1", 0.0, 1.0, 1e-12),
    (64, "1", "1", 0.0, 0.5, 1e-13),
    (64, "10", "10", 0.0, 0.5, 1e-12),
    (16, "0.2*cos(u) + 0.1*v", "0.3*sin(u + v) + 0.5", 0.0, 0.5, 1e-12),
    (65, "exp(t)", "cos(3*t)", 0.0, 1.0, 1e-11),
    (401, PICARD_F[0].format(a=0.75), PICARD_F[1].format(a=0.75), 0.0, 0.7, 1e-12),
    (201, S6_F1, S6_F2, 1e4, 0.5, 1e-12),
] + [(201, S3_F1, S3_F2, float(c), 0.5, 1e-10) for c in np.logspace(-4.0, 7.0, 23)]


class TestAndersonMixing:
    def test_normal_equations_solved(self):
        dF = np.random.default_rng(3).standard_normal((3, 50))
        f = np.arange(50.0)
        gamma = _mixing_coefficients((dF @ dF.T).tolist(), (dF @ f).tolist())
        assert np.allclose(gamma, np.linalg.lstsq(dF.T, f, rcond=None)[0], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gram, rhs", [
        ([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]),
        ([[0.0, 0.0], [0.0, 1.0]], [0.0, 1.0]),
        ([[math.inf]], [1.0]),
        ([[1.0]], [math.inf]),
    ], ids=["zero", "newest-zero", "overflowed-gram", "overflowed-rhs"])
    def test_singular_gram_takes_the_plain_step(self, gram, rhs):
        assert _mixing_coefficients(gram, rhs) == []

    def test_ill_conditioned_gram_drops_the_oldest(self):
        # newest first: the oldest difference lies within 1e-6 of the span of
        # the two newer ones: its pivot is 2.5e-13 of its diagonal entry
        a, b = np.eye(4)[0], np.eye(4)[1] + 0.5 * np.eye(4)[0]
        dF = np.array([a, b, a - 2.0 * b + 1e-6 * np.eye(4)[2]])
        f = np.array([1.0, 2.0, 3.0, 4.0])
        gamma = _mixing_coefficients((dF @ dF.T).tolist(), (dF @ f).tolist())
        assert len(gamma) == 2
        assert gamma == _mixing_coefficients((dF[:2] @ dF[:2].T).tolist(), (dF[:2] @ f).tolist())
        assert np.allclose(gamma, np.linalg.lstsq(dF[:2].T, f, rcond=None)[0], rtol=1e-12)
        # an exact repeat of the newest drops itself and everything older
        assert _mixing_coefficients([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                                    [1.0, 1.0, 1.0]) == [1.0]

    @pytest.mark.parametrize("n, f1, f2, start, damping, tol", PICARD_PROBLEMS)
    def test_damped_picard_states_are_kept(self, model1, model2, n, f1, f2, start, damping,
                                           tol):
        # against damped Picard run to tol / 100: near these solutions T is
        # a weak contraction, so a state's distance to the fixed point is
        # about its defect
        grid = build_grid((model1, model2), n)
        f1, f2 = parse(f1), parse(f2)
        init = np.full((2, n), start)
        sol = solve_picard(grid, f1, f2, init=init, tol=tol, max_iter=1000, damping=damping)
        assert sol.converged
        ref = damped_picard(grid, f1, f2, init, tol / 100.0, damping)
        assert np.max(np.abs(np.stack((sol.u_values, sol.v_values)) - ref)) <= sol.tol

    @pytest.mark.parametrize("f, damping", [("sqrt(u + 0.5)*4", 0.5), ("log(u + 0.2) + 2", 0.5),
                                            ("log(u + 0.2) + 2", 1.0)])
    def test_fault_at_a_mixed_point_takes_the_damped_step(self, grid64, f, damping):
        # mixing extrapolates, here below u = -0.5 (-0.2) where f is not
        # defined; damped Picard's averages stay above it, and so does the
        # damped point that replaces a faulting mixed one. T' is not small
        # here: (I - T')^-1 takes a defect of 1e-12 to about 1.7e-12
        f1, f2 = parse(f), parse(f.replace("u", "v"))
        sol = solve_picard(grid64, f1, f2, tol=1e-12, max_iter=1000, damping=damping)
        assert sol.converged
        ref = damped_picard(grid64, f1, f2, np.zeros((2, 64)), 1e-14, damping)
        assert np.max(np.abs(np.stack((sol.u_values, sol.v_values)) - ref)) <= 10.0 * sol.tol

    def test_fault_at_a_damped_point_is_raised(self, grid64):
        with pytest.raises(DomainError):
            solve_picard(grid64, parse("sqrt(u + 0.3)*6"), parse("sqrt(v + 0.3)*6"))

    @pytest.mark.parametrize("start, f, steps", [((1e144, 1e144), "10", 4),
                                                 ((3e144, -3e144), "10", 12),
                                                 ((RANGE, RANGE), "10", 12),
                                                 ((0.0, 0.0), "2e144", 2)],
                             ids=["1e144", "3e144", "range", "f-2e144"])
    def test_states_at_the_range_end_keep_mixing(self, grid16, start, f, steps):
        # |dF| <= 2 RANGE, so no Gram entry overflows; with mixing off the
        # first two took 27 steps and over 200
        init = np.array([np.full(16, x) for x in start])
        sol = solve_picard(grid16, parse(f), parse(f), init=init)
        assert sol.converged and sol.iterations <= steps

    @pytest.mark.parametrize("n, f1, f2, start", [
        (16, "10", "10", (1e160, 1e160)),
        (16, "10", "10", (1e300, -1e300)),
        (16, "10", "10", (1.7e308, 1.7e308)),
        (16, "1.79e308", "1.79e308", (0.0, 0.0)),
        (16, "1e145", "1e145", (0.0, 0.0)),
        (33, "-0.99*u + 1e307", "u", (-6.479676553933506e+307, 1.0675414686039499e+304)),
        (8, "-0.99*u + 1e307", "-0.5*u - 0.5*v",
         (7.178219860799414e+307, -2.7132167897778746e+303)),
        (16, "1.79e308", "u + v", (1.1973231148222246e+306, -1.2085320788320504e+301)),
    ], ids=["1e160", "1e300", "1.7e308", "f-1.79e308", "f-1e145", "pair-33", "pair-8",
            "mixed-past-double"])
    def test_initial_state_past_the_range_named(self, model1, model2, n, f1, f2, start):
        # T(x) or T(x) - x past RANGE at the initial state is one named error
        grid = build_grid((model1, model2), n)
        init = np.array([np.full(n, x) for x in start])
        with pytest.raises(ValueError) as info:
            solve_picard(grid, parse(f1), parse(f2), init=init, damping=1.0)
        assert str(info.value) == "T(x) or T(x) - x passes 2^480 at iteration 0"

    def test_state_past_the_range_at_a_mixed_point_takes_the_damped_step(self, model2):
        # on this equation 1/m = 1.38, so T passes RANGE where f1 nears 2.3e144,
        # near u = 0; mixing lands there 18 times, and the damped point replaces it
        steep = build_model(validate_params(1.0206346419407315, 0.4793025377737877,
                                            0.9144134652258156, 0.9144134652258157))
        grid = build_grid((steep, model2), 8)
        sol = solve_picard(grid, parse("4e144*exp(-abs(u))"), ZERO,
                           init=(np.full(8, 100.0), np.zeros(8)), max_iter=20)
        assert sol.iterations == 20 and math.isfinite(sol.residual_sup)

    def test_overflow_at_a_mixed_point_takes_the_damped_step(self, model2):
        # f1 itself nears 1.5e308 near u = 0, where W f overflows: mixing lands
        # there 17 times, and the damped point replaces it
        steep = build_model(validate_params(1.0206346419407315, 0.4793025377737877,
                                            0.9144134652258156, 0.9144134652258157))
        grid = build_grid((steep, model2), 8)
        sol = solve_picard(grid, parse("1.5e308*exp(-abs(u))"), ZERO,
                           init=(np.full(8, 400.0), np.zeros(8)), max_iter=20)
        assert sol.iterations == 20 and math.isfinite(sol.residual_sup)

    def test_mixed_point_past_the_double_range_takes_the_damped_step(self, grid16, monkeypatch):
        # in the range only a gamma near the largest double overflows gamma dP;
        # stubbed so, each mixed point overflows or passes RANGE, and every step
        # is the damped one
        monkeypatch.setattr("fraccert.solver._mixing_coefficients",
                            lambda gram, rhs: [1e308] * len(rhs))
        f1, f2 = parse("0.2*cos(u) + 0.1*v"), parse("0.3*sin(u + v) + 0.5")
        init = np.full((2, 16), 1e6)
        sol = solve_picard(grid16, f1, f2, init=init, max_iter=1000)
        assert sol.converged
        ref = damped_picard(grid16, f1, f2, init, 1e-14, 0.5)
        assert np.max(np.abs(np.stack((sol.u_values, sol.v_values)) - ref)) <= sol.tol

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["0", "10", "3e144", "-3e144", "1e300", "u", "-u", "2*u",
                                     "u + v", "0.5*u + 1e144", "-0.99*u + 3e144",
                                     "0.3*v - 1e144", "-0.5*u - 0.5*v"]),
                    min_size=2, max_size=2),
           st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-480.0, 480.0)),
                    min_size=2, max_size=2),
           st.sampled_from([8, 16, 33]), st.sampled_from([0.3, 0.5, 1.0]))
    def test_states_in_the_range_end_finite_or_named(self, model1, model2, fs, starts, n,
                                                     damping):
        # from any start in the range a run returns a finite defect, or stops on
        # the named range error: never on a non-finite state (tier-1 already
        # fails on any RuntimeWarning)
        grid = build_grid((model1, model2), n)
        init = np.array([np.full(n, sign * 2.0 ** e) for sign, e in starts])
        try:
            sol = solve_picard(grid, parse(fs[0]), parse(fs[1]), init=init, damping=damping)
        except ValueError as exc:
            assert re.fullmatch(r"T\(x\) or T\(x\) - x passes 2\^480 at iteration \d+",
                                str(exc))
        except EvalError:
            pass
        else:
            assert math.isfinite(sol.residual_sup)

    def test_s3_plateau_starts_reach_three_states(self, model1, model2):
        grid = build_grid((model1, model2), 201)
        f1, f2 = parse(S3_F1), parse(S3_F2)
        norms = set()
        for c in np.logspace(-4.0, 7.0, 23):
            sol = solve_picard(grid, f1, f2, init=np.full((2, 201), c), tol=1e-10, max_iter=1000)
            assert sol.converged and sol.iterations < 30
            norms.add((round(float(np.max(np.abs(sol.u_values))), 1),
                       round(float(np.max(np.abs(sol.v_values))), 1)))
        assert norms == {(0.0, 0.0), (0.3, 0.5), (605.8, 4565.7)}


class TestInterpolation:
    def test_cubic_polynomials_exact(self, grid16):
        rng = np.random.default_rng(7)
        ts = rng.uniform(0.0, 1.0, size=200)
        values = 2.0 + grid16.nodes - 3.0 * grid16.nodes**3
        exact = 2.0 + ts - 3.0 * ts**3
        assert np.max(np.abs(interpolate_nodes(grid16.nodes, values, ts) - exact)) < 1e-12

    def test_smooth_function_error(self, grid64):
        values = np.sin(3.0 * grid64.nodes)
        ts = np.linspace(0.0, 1.0, 1001)
        err = np.max(np.abs(interpolate_nodes(grid64.nodes, values, ts) - np.sin(3.0 * ts)))
        assert err < 1e-5

    def test_scalar_input(self, grid16):
        out = interpolate_nodes(grid16.nodes, grid16.nodes, 0.5)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(0.5, abs=1e-13)

    def test_stencil_is_the_product_formula_bitwise(self):
        # the basis is prod_{q != p} (x - x_q) / prod_{q != p} (x_p - x_q),
        # each product taken in increasing q, bit for bit: the unit cells,
        # and through them every weight, and the generic reference rest on it
        def reference(nodes, xs):
            n = nodes.size
            cell = np.clip(np.searchsorted(nodes, xs, side="right") - 1, 0, n - 2)
            idx = np.clip(cell - 1, 0, n - 4)[:, None] + np.arange(4)
            xn = nodes[idx]
            basis = np.empty_like(xn)
            for p in range(4):
                num, den = np.ones(xs.shape), np.ones(xs.shape)
                for q in [q for q in range(4) if q != p]:
                    num *= xs - xn[:, q]
                    den *= xn[:, p] - xn[:, q]
                basis[:, p] = num / den
            return idx, basis

        rng = np.random.default_rng(11)
        lattice = np.linspace(0.0, 1.0, 16)
        ragged = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 30))))
        for nodes in (lattice, ragged, _UNIT.nodes):
            xs = np.concatenate((nodes, rng.uniform(nodes[0], nodes[-1], 500)))
            for got, want in zip(_lagrange_stencil(nodes, xs), reference(nodes, xs)):
                assert np.array_equal(got, want)
        basis = reference(_UNIT.nodes, _UNIT.gauss.ravel())[1].reshape(3, _GAUSS_X.size, 4)
        assert np.array_equal(_UNIT.rule, basis * _GAUSS_W[:, None])


class TestCone:
    def test_constant_forcing_solution_in_cone(self, grid64, model1, model2):
        sol = solve_picard(grid64, ONE, ONE, tol=1e-13)
        rep1, rep2 = cone_metrics(sol, (model1, model2))
        assert rep1.equation == 1 and rep2.equation == 2
        assert rep1.in_cone and rep2.in_cone
        assert rep1.c == model1.c and rep2.c == model2.c
        assert rep1.min_on_interval == pytest.approx(0.175367407143, abs=1e-9)
        assert rep2.min_on_interval == pytest.approx(0.383333226229, abs=1e-9)
        for rep in (rep1, rep2):
            assert rep.margin == pytest.approx(
                rep.min_on_interval - rep.c * rep.sup_norm, rel=1e-15)

    def test_negated_solution_leaves_cone(self, grid64, model1, model2):
        sol = solve_picard(grid64, ONE, ONE, tol=1e-13)
        flipped = replace(sol, u_values=-sol.u_values, v_values=-sol.v_values)
        rep1, rep2 = cone_metrics(flipped, (model1, model2))
        assert not rep1.in_cone and not rep2.in_cone
        assert rep1.margin < 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 5.0).map(lambda x: round(x, 3)),
        st.floats(0.0, 5.0).map(lambda x: round(x, 3)),
        st.floats(0.0, 5.0).map(lambda x: round(x, 3)),
        st.floats(0.0, 5.0).map(lambda x: round(x, 3)),
    )
    def test_operator_maps_nonnegative_data_into_cone(
            self, grid16, model1, model2, a1, b1, a2, b2):
        z = np.zeros(grid16.nodes.size)
        f1 = parse(f"{a1!r} + {b1!r}*t")
        f2 = parse(f"{a2!r} + {b2!r}*t")
        Tu, Tv = apply_T(grid16, f1, f2, z, z)
        image = GridSolution(grid=grid16, u_values=Tu, v_values=Tv,
                             residual_sup=0.0, iterations=0, converged=True,
                             damping=1.0, tol=1e-12)
        rep1, rep2 = cone_metrics(image, (model1, model2))
        assert rep1.in_cone and rep2.in_cone


class TestConvergenceOrder:
    def shared_values(self, sol, coarse_nodes):
        idx = [int(np.argmin(np.abs(sol.grid.nodes - t))) for t in coarse_nodes]
        assert all(abs(sol.grid.nodes[i] - t) < 1e-12 for i, t in zip(idx, coarse_nodes))
        return sol.u_values[idx], sol.v_values[idx]

    def test_self_convergence_rate(self, model1, model2):
        f1, f2 = parse("exp(t)"), parse("cos(3*t)")
        sols = {n: solve_picard(build_grid((model1, model2), n),
                                f1, f2, damping=1.0, tol=1e-11)
                for n in (33, 65, 129)}
        assert all(s.converged for s in sols.values())
        coarse = sols[33].grid.nodes
        u_ref, v_ref = self.shared_values(sols[129], coarse)
        errs = {}
        for n in (33, 65):
            u_n, v_n = self.shared_values(sols[n], coarse)
            errs[n] = max(np.max(np.abs(u_n - u_ref)), np.max(np.abs(v_n - v_ref)))
        assert errs[65] < 1e-6
        if errs[65] > 1e-12:
            order = math.log2(errs[33] / errs[65])
            assert order > 2.5

    def test_initial_slope_matches_fractional_profile(self, model1, model2):
        # for constant forcing u(t) - u(0) = -t^alpha / Gamma(alpha + 1),
        # so the first-node difference quotient is -t_1^(alpha-1)/Gamma(alpha+1)
        # and decays like h^(alpha-1): the flat start u'(0) = 0 emerges at
        # the fractional rate, not quadratically
        a = model1.params.alpha
        slopes = {}
        for n in (32, 128):
            grid = build_grid((model1, model2), n)
            sol = solve_picard(grid, ONE, ONE, damping=1.0)
            t1 = float(grid.nodes[1])
            slopes[n] = (sol.u_values[1] - sol.u_values[0]) / t1
            assert slopes[n] == pytest.approx(-t1 ** (a - 1.0) / math.gamma(a + 1.0),
                                              rel=1e-6)
        ratio = slopes[128] / slopes[32]
        assert 0.45 < ratio < 0.55


# the transforms and the power, sin and cos loops round per numpy build: the
# digests below were recorded with numpy 2.4 (C++ pocketfft) on x86-64
NUMPY_1 = np.lib.NumpyVersion(np.__version__) < "2.0.0"


class TestFrozenBits:
    # sha256 of u_values and v_values bytes, iterations, repr(residual_sup)
    # and repr(tol), from zero at amplitude 0.75 (damping 0.7) and warm from
    # that solution at 0.76 (damping 0.6)
    @pytest.mark.skipif(NUMPY_1, reason="digests recorded with numpy 2's pocketfft")
    @pytest.mark.parametrize("n, warm, digest", [
        (401, False,
         "00a118bbca15820fa7fdf48f522ce4850c87c8bb50c05e0573eb2d0b54825005"),
        (401, True,
         "4e73f44236dbfa00a3d5ac2a87463975f4359bdbd6fb1f71d591620eabf49da9"),
        (801, False,
         "bf3a0f2bb543c5d8ebd3e3148b6ecb01348c40879801aea160ed4f6574e9e3fe"),
        (801, True,
         "1234f89abeccd239ab5c875501160d5aea64126561e7717262775a04dacf3749"),
    ], ids=["401-zero", "401-warm", "801-zero", "801-warm"])
    def test_picard_bits_frozen(self, model1, model2, n, warm, digest):
        grid = build_grid((model1, model2), n)
        f = [parse(text.format(a=0.75)) for text in PICARD_F]
        sol = solve_picard(grid, *f, tol=1e-12, max_iter=1000, damping=0.7)
        if warm:
            f = [parse(text.format(a=0.76)) for text in PICARD_F]
            sol = solve_picard(grid, *f, init=(sol.u_values, sol.v_values), tol=1e-12,
                               max_iter=1000, damping=0.6)
        assert sol.converged
        h = hashlib.sha256(sol.u_values.tobytes() + sol.v_values.tobytes())
        h.update(f"{sol.iterations}|{sol.residual_sup!r}|{sol.tol!r}".encode())
        assert h.hexdigest() == digest


class TestEvaluationChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_init_rejected(self, grid16, bad, which):
        init = [np.zeros(grid16.nodes.size), np.zeros(grid16.nodes.size)]
        init[which][5] = bad
        with pytest.raises(ValueError, match="must be finite"):
            solve_picard(grid16, ONE, ONE, init=tuple(init))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_apply_T_non_finite_v_rejected(self, grid16, bad):
        z = np.zeros(grid16.nodes.size)
        v = z.copy()
        v[-1] = bad
        with pytest.raises(ValueError, match="^t, u and v must be finite$"):
            apply_T(grid16, ONE, ONE, z, v)

    def test_fault_of_the_second_nonlinearity(self, grid16):
        z = np.zeros(grid16.nodes.size)
        with pytest.raises(DivisionByZero) as info:
            apply_T(grid16, parse("u + 1"), parse("1/(u-u)"), z, z)
        assert info.value.position == 1
        assert str(info.value) == "division by zero (operator at offset 1)"

    def test_first_nonlinearity_faults_first(self, grid16):
        z = np.zeros(grid16.nodes.size)
        with pytest.raises(DomainError) as info:
            apply_T(grid16, parse("2 + log(u - u)"), parse("1/(u-u)"), z, z)
        assert info.value.position == 4
        assert str(info.value) == "log of a non-positive number (operator at offset 4)"
