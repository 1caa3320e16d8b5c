"""Collocation grid, Hammerstein operator, Picard iteration and cone checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccert.exprlang import parse
from fraccert.kernel import KernelModel, build_model, compute_c, kernel_values, validate_params
from fraccert.solver import (
    GridSolution,
    _lagrange_stencil,
    apply_T,
    build_grid,
    cone_metrics,
    interpolate_nodes,
    solve_picard,
)
from test_certify import S6_F1, S6_F2


def row_integral(params, t, degree=0):
    """Closed form of int_0^1 k(t, s) s^degree ds."""
    a = params.alpha
    factor = math.factorial(degree)
    return (params.beta / (degree + 1)
            + factor * (params.eta ** (a + degree) - t ** (a + degree))
            / math.gamma(a + degree + 1))


def oracle_weights(params, nodes, levels=40, order=10):
    """Brute-force int_0^1 k(t_j, s) L_p(s) ds for every node pair.

    Each cell gets a composite Gauss rule graded geometrically toward its
    right end, the only place a kink of k(t_j, .) (eta or t_j, both
    nodes) can sit, and L_p is read off the interpolation stencil.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.concatenate(([0.0], 1.0 - 2.0 ** -np.arange(1.0, levels + 1.0), [1.0]))
    widths = np.diff(edges)
    sigma = (edges[:-1, None] + 0.5 * widths[:, None] * (x + 1.0)).ravel()
    sigma_w = (0.5 * widths[:, None] * w).ravel()
    W = np.zeros((nodes.size, nodes.size))
    for a, b in zip(nodes[:-1], nodes[1:]):
        s = a + (b - a) * sigma
        idx, basis = _lagrange_stencil(nodes, s)
        for j, t in enumerate(nodes):
            W[j, idx[0]] += ((b - a) * sigma_w * kernel_values(params, float(t), s)) @ basis
    return W


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
    def test_breakpoints_inserted(self, model1, model2):
        grid = build_grid((model1, model2), 8)
        assert grid.n_requested == 8
        assert grid.breakpoints == (2.0 / 3.0, 41.0 / 60.0, 0.75, 0.775)
        # 41/60 is within h/4 of the uniform node 5/7 and takes its place
        assert grid.nodes.size == 11
        assert 5.0 / 7.0 not in grid.nodes
        for x in grid.breakpoints:
            assert np.min(np.abs(grid.nodes - x)) == 0.0
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0

    def test_breakpoint_collapses_onto_uniform_node(self, model1, model2):
        # eta_1 = 0.75 is the uniform node 6/8 when n = 9
        grid = build_grid((model1, model2), 9)
        assert grid.nodes.size == 12
        assert np.count_nonzero(np.abs(grid.nodes - 0.75) < 1e-15) == 1

    def test_too_few_nodes(self, model1, model2):
        with pytest.raises(ValueError):
            build_grid((model1, model2), 7)

    def test_weights_integrate_constant(self, grid64, params1, params2):
        ones = np.ones(grid64.nodes.size)
        for w, params in ((grid64.weights[0], params1), (grid64.weights[1], params2)):
            expected = np.array([row_integral(params, t) for t in grid64.nodes])
            assert np.max(np.abs(w @ ones - expected)) < 1e-13

    def test_weights_integrate_cubics(self, grid64, params1, params2):
        nodes = grid64.nodes
        for w, params in ((grid64.weights[0], params1), (grid64.weights[1], params2)):
            for k in range(4):
                expected = np.array([row_integral(params, t, k) for t in nodes])
                assert np.max(np.abs(w @ nodes**k - expected)) < 1e-13

    @pytest.mark.parametrize("n", [16, 64])
    def test_weights_match_oracle(self, model1, model2, n):
        grid = build_grid((model1, model2), n)
        for w, model in zip(grid.weights, (model1, model2)):
            assert np.max(np.abs(w - oracle_weights(model.params, grid.nodes))) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.01, 2.0), st.floats(0.1, 0.9), st.floats(0.1, 0.9))
    def test_weights_match_oracle_over_alpha(self, alpha, eta, frac):
        # b = eta adds no breakpoint of its own; beta is a fraction of its bound
        beta = frac * (1.0 - eta) ** (alpha - 1.0) / math.gamma(alpha)
        model = unverified_model(alpha, beta, eta, eta)
        grid = build_grid((model, model), 16)
        oracle = oracle_weights(model.params, grid.nodes)
        assert np.max(np.abs(grid.weights[0] - oracle)) < 1e-10

    def test_alpha_two_weights_are_polynomial_integrals(self):
        # at alpha = 2 the kernel is piecewise linear with kinks at nodes, so
        # a 3-point Gauss rule per cell integrates it times the cubic basis
        # exactly
        model = unverified_model(2.0, 0.3, 0.5, 0.6)
        grid = build_grid((model, model), 16)
        nodes = grid.nodes
        x, w = np.polynomial.legendre.leggauss(3)
        expected = np.zeros((nodes.size, nodes.size))
        for a, b in zip(nodes[:-1], nodes[1:]):
            s = a + 0.5 * (b - a) * (x + 1.0)
            idx, basis = _lagrange_stencil(nodes, s)
            for j, t in enumerate(nodes):
                expected[j, idx[0]] += (0.5 * (b - a) * w * kernel_values(model.params, t, s)) @ basis
        assert np.max(np.abs(grid.weights[0] - expected)) < 1e-14

    def test_breakpoint_near_uniform_node_leaves_no_sliver(self, model1, model2):
        # b_1 just off the uniform node 0.775 = 155/200 takes that node's
        # place instead of making a 1e-10 cell beside it
        params = validate_params(1.5, 0.2, 0.75, 0.775 + 1e-10)
        plain = build_grid((model1, model2), 201)
        grid = build_grid((build_model(params), model2), 201)
        assert grid.nodes.size == plain.nodes.size
        assert np.min(np.diff(grid.nodes)) > 0.25 / 200
        assert np.max(np.abs(grid.weights[0])) < 2.0 * np.max(np.abs(plain.weights[0]))
        expected = np.array([row_integral(params, t) for t in grid.nodes])
        assert np.max(np.abs(grid.weights[0] @ np.ones(grid.nodes.size) - expected)) < 1e-13


class TestApplyT:
    def test_zero_nonlinearity(self, grid16):
        z = np.zeros(grid16.nodes.size)
        Tu, Tv = apply_T(grid16, ZERO, ZERO, z, z)
        assert np.all(Tu == 0.0) and np.all(Tv == 0.0)

    def test_shape_mismatch(self, grid16):
        z = np.zeros(grid16.nodes.size)
        with pytest.raises(ValueError):
            apply_T(grid16, ONE, ONE, z[:-1], z)

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
        sol = solve_picard(grid16, parse("3*u + 1"), parse("3*v + 1"),
                           max_iter=60, damping=1.0)
        assert not sol.converged
        assert sol.iterations == 60
        assert math.isfinite(sol.residual_sup)
        assert sol.residual_sup > 1.0

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

    def test_init_shape_validation(self, grid16):
        bad = np.zeros(grid16.nodes.size - 1)
        good = np.zeros(grid16.nodes.size)
        with pytest.raises(ValueError):
            solve_picard(grid16, ONE, ONE, init=(bad, good))


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
