"""Threshold constants and the row integral against closed forms and oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraccert.kernel import KernelModel, ProblemParams, build_model, compute_c, validate_params
from fraccert.quadrature import (
    ConstantsReport,
    abs_row_integral,
    compute_M,
    compute_constants,
    compute_hat_constants,
    compute_m,
    row_crossings,
)


def phi_integral(p, x: float) -> float:
    """Closed-form integral of the envelope Phi over [0, x] for x >= eta."""
    g = math.gamma(p.alpha)
    g1 = math.gamma(p.alpha + 1.0)
    head = p.beta * p.eta + p.eta ** p.alpha / g1
    tail = (x - p.eta) * ((1.0 - p.eta) ** (p.alpha - 1.0) / g - p.beta)
    return head + tail


def kernel(p, t: float, s: np.ndarray) -> np.ndarray:
    """k(t, s) written out in numpy, independent of the package."""
    g = math.gamma(p.alpha)
    e = p.alpha - 1.0
    return (p.beta + np.where(s <= p.eta, np.maximum(p.eta - s, 0.0) ** e, 0.0) / g
            - np.where(s <= t, np.maximum(t - s, 0.0) ** e, 0.0) / g)


def brute_integral(p, t: float, hi: float = 1.0, absolute: bool = True,
                   n: int = 100_000) -> float:
    """int_0^hi |k(t, s)| ds (or k itself) by brute force.

    Midpoint rule on [0, hi] split at eta and t, the kernel's own
    breakpoints. On each piece s = a + (b - a) * (3u^2 - 2u^3) grades the
    nodes toward both ends, where k has its power singularities.
    """
    u = (np.arange(n) + 0.5) / n
    w, dw = u * u * (3.0 - 2.0 * u), 6.0 * u * (1.0 - u)
    edges = sorted({0.0, hi, *(x for x in (p.eta, t) if x < hi)})
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        k = kernel(p, t, a + (b - a) * w)
        total += (b - a) * float(np.mean((np.abs(k) if absolute else k) * dw))
    return total


def sign_changes(p, t: float) -> int:
    """Sign changes of k(t, .) on a fine uniform s-grid."""
    k = kernel(p, t, np.linspace(0.0, 1.0, 200_001))
    return int(np.count_nonzero(np.sign(k[:-1]) * np.sign(k[1:]) < 0))


# alpha = 1.9, small beta: k(1, 0) < 0, so the row k(1, .) crosses only on (eta, 1)
ONE_CROSSING = ProblemParams(alpha=1.9, beta=0.05, eta=0.2, b=0.21)
# alpha = 2: k(t, .) is piecewise linear with Gamma(2) = 1
LINEAR = ProblemParams(alpha=2.0, beta=0.1, eta=0.5, b=0.55)


class TestIntegration:
    """The closed-form row integral R(t) = int_0^1 |k(t, s)| ds."""

    def test_polynomial_exact(self):
        # for alpha = 2 the hand values are polynomial: below eta and on the
        # shallow row t = 0.55, R = beta + (eta^2 - t^2)/2; at t = 1, k = -0.4
        # on [0, eta] and k = s - 0.9 on (eta, 1], so R = 0.2 + 0.08 + 0.005
        got = [abs_row_integral(LINEAR, t) for t in (0.3, 0.55, 1.0)]
        np.testing.assert_allclose(got, [0.18, 0.07375, 0.285], rtol=1e-13)

    def test_fractional_power(self, params1, params2):
        # for t <= eta, k(t, .) > 0 and R is the plain integral of k
        for p in (params1, params2):
            ts = np.linspace(0.0, p.eta, 9)
            want = p.beta + (p.eta ** p.alpha - ts ** p.alpha) / math.gamma(p.alpha + 1.0)
            got = [abs_row_integral(p, t) for t in ts.tolist()]
            np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_kink_with_breakpoint(self, params1, params2):
        # t values on both sides of eta; |k(t, .)| kinks at every crossing
        counts = set()
        for p in (params1, params2, ONE_CROSSING):
            ts = [0.0, 0.5 * p.eta, p.eta, 0.5 * (p.eta + 1.0), 0.9, 0.97, 1.0]
            for t in ts:
                counts.add(sign_changes(p, t))
                assert abs_row_integral(p, t) == pytest.approx(brute_integral(p, t), rel=1e-8)
        assert counts == {0, 1, 2}

    def test_endpoint_singularity(self):
        # alpha near 1: k(t, .) has steep (distance)^(alpha-2) slopes at
        # s = eta and s = t, and the row at t = 1 crosses twice
        p = validate_params(1.05, 0.3, 0.4, 0.4)
        assert sign_changes(p, 1.0) == 2
        for t in (0.2, 0.4 + 1e-3, 0.7, 1.0):
            assert abs_row_integral(p, t) == pytest.approx(brute_integral(p, t), rel=1e-8)

    def test_subinterval(self, model1, model2, constants1, constants2):
        # 1/M integrates k over [0, b]; brute force over a t-grid puts the
        # infimum at t = b, where compute_M places it exactly
        for model, rep in ((model1, constants1), (model2, constants2)):
            p = model.params
            rows = [brute_integral(p, t, hi=p.b, absolute=False)
                    for t in np.linspace(0.0, p.b, 11)]
            assert int(np.argmin(rows)) == 10
            assert 1.0 / rep.M == pytest.approx(rows[-1], rel=1e-8)
            assert rep.t_star_M == p.b

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(1.02, 2.0), eta=st.floats(0.0, 0.95),
           frac=st.floats(0.02, 0.98), t=st.floats(0.0, 1.0))
    def test_random_rows_match_oracle(self, alpha, eta, frac, t):
        beta = frac * (1.0 - eta) ** (alpha - 1.0) / math.gamma(alpha)
        p = ProblemParams(alpha=alpha, beta=beta, eta=eta, b=eta)
        assert abs_row_integral(p, t) == pytest.approx(brute_integral(p, t), rel=1e-8)


class TestCrossings:
    def test_no_crossing(self, params1):
        # k(t, .) > 0 for t <= eta, and just above eta its minimum
        # k(t, eta) = beta - (t - eta)^(alpha-1)/Gamma(alpha) is still positive;
        # an absent crossing reads 0.0
        for t in (0.0, 0.4, 0.75, 0.76):
            assert row_crossings(params1, t) == (0.0, 0.0)
        assert sign_changes(params1, 0.76) == 0

    def test_kernel_row(self, params1):
        # the row k(1, .) starts positive, dips negative past s ~ 0.37, then
        # climbs back to k(1, 1) = beta > 0 because the (t - s)^(alpha-1) term
        # vanishes at s = t: two crossings.  The second is analytic here,
        # beta = (1 - s)^(alpha-1) / Gamma(alpha) giving s = 1 - pi/100.
        roots = row_crossings(params1, 1.0)
        assert all(type(r) is float for r in roots)
        assert roots[0] < params1.eta < roots[1]
        assert roots[1] == pytest.approx(1.0 - math.pi / 100.0, abs=1e-9)
        g = lambda s: kernel(params1, 1.0, np.array([s]))[0]
        for r in roots:
            assert abs(g(r)) < 1e-12
        assert g(roots[0] - 1e-6) > 0.0
        assert g(roots[0] + 1e-6) < 0.0
        assert g(roots[1] - 1e-6) < 0.0
        assert g(roots[1] + 1e-6) > 0.0

    def test_one_sided_row(self):
        # k(1, 0) < 0: the only crossing lies on (eta, 1)
        lo, hi = row_crossings(ONE_CROSSING, 1.0)
        assert lo == 0.0
        assert abs(kernel(ONE_CROSSING, 1.0, np.array([hi]))[0]) < 1e-12


class TestConstants:
    def test_m_closed_form(self, model1, model2, constants1, constants2):
        # sup_t int |k| is attained at t = 0 where k = Phi >= 0, giving
        # 1/m = beta + eta^alpha / Gamma(alpha+1)
        for model, rep in ((model1, constants1), (model2, constants2)):
            p = model.params
            inv_m = p.beta + p.eta ** p.alpha / math.gamma(p.alpha + 1.0)
            assert 1.0 / rep.m == pytest.approx(inv_m, rel=1e-9)
            assert rep.t_star_m == 0.0

    def test_M_closed_form(self, model1, model2, constants1, constants2):
        # inf over [0, b] of int_0^b k is attained at t = b, giving
        # 1/M = beta*b + (eta^alpha - b^alpha) / Gamma(alpha+1)
        for model, rep in ((model1, constants1), (model2, constants2)):
            p = model.params
            inv_M = p.beta * p.b + (p.eta ** p.alpha - p.b ** p.alpha) / math.gamma(p.alpha + 1.0)
            assert 1.0 / rep.M == pytest.approx(inv_M, rel=1e-9)
            assert rep.t_star_M == pytest.approx(p.b, abs=1e-6)

    @pytest.mark.parametrize("tup", [
        (2.0, 0.48, 0.04, 0.19),
        (2.0, 0.05, 0.9, 0.92),
        (2.0, 0.12, 0.75, 0.83),
        (2.0, 0.06, 0.88, 0.94),
        (2.0, 0.33, 0.34, 0.57),
    ])
    def test_M_order_two_exact(self, tup):
        # Gamma(3) = 2 is exact, so 1/M = beta*b + (eta^2 - b^2)/2 bit for bit
        _, beta, eta, b = tup
        M, _ = compute_M(build_model(validate_params(*tup)))
        assert M == 1.0 / (beta * b + (eta ** 2 - b ** 2) / 2.0)

    def test_frozen_values(self, constants1, constants2):
        assert constants1.m == pytest.approx(1.45221660205, rel=1e-9)
        assert constants1.M == pytest.approx(7.67062889351, rel=1e-9)
        assert constants1.m_hat == pytest.approx(1.37052028558, rel=1e-9)
        assert constants1.M_hat == pytest.approx(84.1916883607, rel=1e-8)
        assert constants2.m == pytest.approx(1.07332354424, rel=1e-9)
        assert constants2.M == pytest.approx(3.8961055219, rel=1e-9)
        assert constants2.m_hat == pytest.approx(1.05881547717, rel=1e-9)
        assert constants2.M_hat == pytest.approx(482.544914595, rel=1e-8)

    def test_hat_closed_forms(self, model1, model2):
        for model in (model1, model2):
            p = model.params
            m_hat, M_hat = compute_hat_constants(model)
            assert 1.0 / m_hat == pytest.approx(phi_integral(p, 1.0), rel=1e-10)
            assert 1.0 / M_hat == pytest.approx(model.c * phi_integral(p, p.b), rel=1e-10)

    def test_envelope_integrals_frozen(self, model1):
        m_hat, M_hat = compute_hat_constants(model1)
        assert 1.0 / m_hat == pytest.approx(0.72964990779, rel=1e-10)
        assert 1.0 / (model1.c * M_hat) == pytest.approx(0.647707251492, rel=1e-10)

    def test_sup_away_from_zero(self):
        # here the row integral peaks at t = 1, not at t = 0
        p = ONE_CROSSING
        model = KernelModel(params=p, c=compute_c(p), gamma_alpha=math.gamma(p.alpha))
        m, t_star = compute_m(model)
        rows = [brute_integral(p, t) for t in np.linspace(0.0, 1.0, 21)]
        assert int(np.argmax(rows)) == 20
        assert t_star == 1.0
        assert 1.0 / m == pytest.approx(rows[-1], rel=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.one_of(st.just(2.0), st.floats(1.0 + 1e-4, 1.01), st.floats(1.01, 2.0)),
           eta=st.one_of(st.just(0.0), st.floats(1e-9, 0.95)),
           log_beta=st.floats(math.log(1e-4), math.log(3.0)))
    def test_sup_at_an_endpoint(self, alpha, eta, log_beta):
        # R decreases up to eta + w and is convex past it, so its maximum
        # over a 4,001-point scan sits at t = 0 or t = 1, and m is 1 over it
        beta = math.exp(log_beta)
        assume(beta * math.gamma(alpha) < (1.0 - eta) ** (alpha - 1.0))
        p = ProblemParams(alpha=alpha, beta=beta, eta=eta, b=eta)
        m, t_star = compute_m(KernelModel(params=p, c=compute_c(p),
                                          gamma_alpha=math.gamma(alpha)))
        ts = np.linspace(0.0, 1.0, 4001)
        rows = np.array([abs_row_integral(p, t) for t in ts.tolist()])
        assert t_star in (0.0, 1.0)
        assert rows.max() == max(rows[0], rows[-1])
        # bit for bit against the endpoints on their own
        ends = [abs_row_integral(p, t) for t in (0.0, 1.0)]
        assert (m, t_star) == (1.0 / max(ends), float(ends[1] > ends[0]))
        assert m * rows.max() == pytest.approx(1.0, rel=1e-15, abs=0.0)
        # sign structure by finite differences, with a rounding slack of
        # 16 ulps of max R (the margins observed are >= 1e4 times larger)
        slack = 16.0 * np.finfo(float).eps * rows.max()
        w = (beta * math.gamma(alpha)) ** (1.0 / (alpha - 1.0))
        left = ts - eta <= w
        assert np.all(np.diff(rows)[left[1:]] <= slack)
        second = rows[2:] - 2.0 * rows[1:-1] + rows[:-2]
        assert np.all(second[~left[:-2]] >= -slack)

    def test_estimates_are_conservative(self, constants1, constants2):
        for rep in (constants1, constants2):
            assert rep.m >= rep.m_hat
            assert rep.M <= rep.M_hat

    def test_report_invariants_enforced(self, constants1):
        with pytest.raises(ValueError):
            replace(constants1, m=constants1.m_hat * 0.5)
        with pytest.raises(ValueError):
            replace(constants1, M=constants1.M_hat * 2.0)
        with pytest.raises(ValueError):
            replace(constants1, m=-1.0)

    def test_report_has_no_unsafe_slack(self, constants1):
        with pytest.raises(ValueError):
            replace(constants1, m=constants1.m_hat * (1.0 - 1e-9))
        with pytest.raises(ValueError):
            replace(constants1, M=constants1.M_hat * (1.0 + 1e-9))
        replace(constants1, m=constants1.m_hat, M=constants1.M_hat)

    def test_lost_positivity_raises(self):
        # eta = 0 and b = 0.9: the kernel row integral goes negative on [0, b]
        model = KernelModel(ProblemParams(1.5, 0.01, 0.0, 0.9), 0.5, math.gamma(1.5))
        with pytest.raises(ValueError) as info:
            compute_M(model)
        assert str(info.value) == "kernel integral lost positivity on [0, b]: inf = -6.333e-01"

    def test_compute_constants_consistent(self, model1, constants1):
        rep = compute_constants(model1)
        assert isinstance(rep, ConstantsReport)
        assert rep.m == pytest.approx(constants1.m, rel=1e-12)
        assert rep.M_hat == pytest.approx(constants1.M_hat, rel=1e-12)
