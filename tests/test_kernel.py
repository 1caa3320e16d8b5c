"""Kernel point values, envelope, cone constant and parameter admissibility."""

import math

import numpy as np
import pytest

from fraccert.kernel import (
    BoundReport,
    EtaOutOfRange,
    FocusCaseViolated,
    IntervalChoiceViolated,
    KernelBoundError,
    KernelModel,
    NonpositiveBeta,
    OrderOutOfRange,
    ParamError,
    ProblemParams,
    build_model,
    check_params,
    compute_c,
    default_interval_end,
    kernel_eval,
    kernel_values,
    phi_eval,
    phi_values,
    validate_params,
)

G15 = math.gamma(1.5)


def reference_kernel(p: ProblemParams, t: float, s: float) -> float:
    """Independent straight-line transcription of the kernel formula."""
    g = math.gamma(p.alpha)
    val = p.beta
    if s <= p.eta:
        val += (p.eta - s) ** (p.alpha - 1.0) / g
    if s <= t:
        val -= (t - s) ** (p.alpha - 1.0) / g
    return val


def reference_c(p: ProblemParams) -> float:
    """Independent transcription of the cone-constant formula."""
    g = math.gamma(p.alpha)
    e = p.alpha - 1.0
    num = p.beta * g - (p.b - p.eta) ** e
    return min(num / ((1.0 - p.eta) ** e - p.beta * g),
               num / (p.beta * g + p.eta ** e))


class TestParamValidation:
    def test_reference_pairs_valid(self, params1, params2):
        assert params1.alpha == 1.5 and params1.b == 0.775
        assert params2.alpha == 1.25 and params2.eta == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize(
        "alpha, beta, eta, b, err",
        [
            (2.5, 0.2, 0.75, 0.775, OrderOutOfRange),
            (1.0, 0.2, 0.75, 0.775, OrderOutOfRange),
            (0.5, 0.2, 0.75, 0.775, OrderOutOfRange),
            (1.5, 0.0, 0.75, 0.775, NonpositiveBeta),
            (1.5, -1.0, 0.75, 0.775, NonpositiveBeta),
            (1.5, 0.2, 1.0, 0.775, EtaOutOfRange),
            (1.5, 0.2, -0.1, 0.775, EtaOutOfRange),
            # 0.6 * Gamma(1.5) = 0.5317... >= (1 - 0.75)^0.5 = 0.5
            (1.5, 0.6, 0.75, 0.775, FocusCaseViolated),
            (1.5, 0.2, 0.75, 0.7, IntervalChoiceViolated),  # b < eta
            (1.5, 0.2, 0.75, 1.0, IntervalChoiceViolated),  # b >= 1
            # (0.999 - 0.75)^0.5 = 0.4990 >= 0.2 * Gamma(1.5)
            (1.5, 0.2, 0.75, 0.999, IntervalChoiceViolated),
            (math.nan, 0.2, 0.75, 0.775, ParamError),
        ],
    )
    def test_rejections(self, alpha, beta, eta, b, err):
        with pytest.raises(err):
            validate_params(alpha, beta, eta, b)

    def test_alpha_two_admitted(self):
        # order exactly 2 is the inclusive end of the admissible range
        p = validate_params(2.0, 0.3, 0.5, 0.6)
        assert p.alpha == 2.0

    def test_check_params_aggregates(self):
        problems = check_params(2.5, -1.0, 1.5, 0.775)
        assert [kind for kind, _ in problems] == [OrderOutOfRange, NonpositiveBeta, EtaOutOfRange]
        joined = "\n".join(msg for _, msg in problems)
        assert "alpha" in joined and "beta" in joined and "eta" in joined

    def test_check_params_valid_is_empty(self):
        assert check_params(1.5, 0.2, 0.75, 0.775) == []

    def test_default_interval_end_admissible(self):
        # 0.5 * Gamma(1.5) = 0.443 > (0.875 - 0.75)^0.5 = 0.354
        assert default_interval_end(1.5, 0.5, 0.75) == 0.875
        assert validate_params(1.5, 0.5, 0.75).b == 0.875

    def test_default_interval_end_inadmissible(self):
        # 0.2 * Gamma(1.5) = 0.177 < (0.875 - 0.75)^0.5 = 0.354
        assert default_interval_end(1.5, 0.2, 0.75) is None
        with pytest.raises(IntervalChoiceViolated):
            validate_params(1.5, 0.2, 0.75)

    def test_b_equal_eta_admissible(self):
        assert validate_params(1.5, 0.2, 0.75, 0.75).b == 0.75

    def test_non_numeric_rejected(self):
        with pytest.raises(ParamError):
            validate_params("1.5", 0.2, 0.75, 0.775)


class TestPointValues:
    def test_frozen_points(self, params1):
        assert kernel_eval(params1, 1.0, 1.0) == pytest.approx(0.2, abs=1e-15)
        assert kernel_eval(params1, 1.0, 0.8) == pytest.approx(-0.304626504404, rel=1e-11)
        assert kernel_eval(params1, 0.0, 0.0) == pytest.approx(1.17720502381, rel=1e-11)

    def test_formula_identities(self, params1):
        p = params1
        # at t = 0 the travelling term vanishes: k(0, s) = beta + (eta-s)^(a-1)/Gamma
        assert kernel_eval(p, 0.0, 0.0) == pytest.approx(
            p.beta + p.eta ** 0.5 / G15, rel=1e-14)
        # at s = 1 > eta, t = 1: k = beta - 0 = beta
        assert kernel_eval(p, 1.0, 1.0) == pytest.approx(p.beta, abs=1e-15)
        # on the jump s = eta with t <= s both special terms vanish
        assert kernel_eval(p, 0.0, p.eta) == pytest.approx(p.beta, abs=1e-15)

    def test_against_reference_kernel(self, params1, params2):
        rng = np.random.default_rng(2718)
        for p in (params1, params2):
            for _ in range(200):
                t, s = rng.uniform(0.0, 1.0, 2)
                assert kernel_eval(p, float(t), float(s)) == pytest.approx(
                    reference_kernel(p, float(t), float(s)), rel=1e-13, abs=1e-13)

    def test_phi_frozen(self, params1):
        assert phi_eval(params1, 0.0) == pytest.approx(1.17720502381, rel=1e-11)
        assert phi_eval(params1, 0.75) == pytest.approx(0.2, abs=1e-15)
        assert phi_eval(params1, 0.9) == pytest.approx(0.364189583548, rel=1e-11)

    def test_phi_formula(self, params1):
        p = params1
        assert phi_eval(p, 0.3) == pytest.approx(p.beta + (p.eta - 0.3) ** 0.5 / G15, rel=1e-14)
        upper = (1.0 - p.eta) ** 0.5 / G15 - p.beta
        assert phi_eval(p, 0.8) == pytest.approx(upper, rel=1e-14)
        assert phi_eval(p, 1.0) == pytest.approx(upper, rel=1e-14)

    def test_vectorized_matches_scalar(self, params1):
        s = np.linspace(0.0, 1.0, 57)
        for t in (0.0, 0.3, 0.75, 1.0):
            ks = kernel_values(params1, t, s)
            for j, sj in enumerate(s):
                assert ks[j] == pytest.approx(kernel_eval(params1, t, float(sj)), abs=1e-15)
        phis = phi_values(params1, s)
        for j, sj in enumerate(s):
            assert phis[j] == pytest.approx(phi_eval(params1, float(sj)), abs=1e-15)


class TestConeConstant:
    def test_frozen_values(self, params1, params2):
        assert compute_c(params1) == pytest.approx(0.018338002258036133, rel=1e-12)
        assert compute_c(params2) == pytest.approx(0.0025722429682660353, rel=1e-12)

    def test_matches_reference_formula(self, params1, params2):
        for p in (params1, params2):
            assert compute_c(p) == pytest.approx(reference_c(p), rel=1e-14)

    def test_b_equal_eta_value(self):
        p = validate_params(1.5, 0.2, 0.75, 0.75)
        assert compute_c(p) == pytest.approx(0.16989394027, rel=1e-10)
        assert compute_c(p) == pytest.approx(reference_c(p), rel=1e-14)

    def test_range(self, params1, params2):
        for p in (params1, params2):
            assert 0.0 < compute_c(p) <= 1.0


class TestBounds:
    def test_reference_models_pass(self, model1, model2):
        from fraccert.kernel import verify_kernel_bounds

        for model in (model1, model2):
            report = verify_kernel_bounds(model, 101, 101)
            assert isinstance(report, BoundReport)
            assert report.passed
            assert report.max_envelope_violation <= 1e-10
            assert report.max_cone_violation <= 1e-10

    def test_jump_sample_uses_essential_envelope(self, model1):
        from fraccert.kernel import verify_kernel_bounds

        p = model1.params
        # the branch envelope at the jump is beta = 0.2, but |k(1, eta)| is
        # larger; the check must compare against the two-sided limit instead
        assert abs(kernel_eval(p, 1.0, p.eta)) > phi_eval(p, p.eta)
        report = verify_kernel_bounds(model1, 5, 5)  # s grid hits 0.75 exactly
        assert report.passed

    def test_envelope_dominance_breakdown_rejected(self):
        # admissible parameters whose printed envelope does not dominate |k|
        # for s > eta (2 * beta * Gamma(alpha) > (1 - eta)^(alpha-1)):
        p = validate_params(1.5, 0.4, 0.75, 0.8)
        with pytest.raises(KernelBoundError):
            build_model(p)

    def test_grid_validation(self, model1):
        from fraccert.kernel import verify_kernel_bounds

        with pytest.raises(ValueError):
            verify_kernel_bounds(model1, 1, 101)

    def test_model_fields(self, model1, params1):
        assert isinstance(model1, KernelModel)
        assert model1.params == params1
        assert model1.gamma_alpha == pytest.approx(G15, rel=1e-14)
        assert model1.positivity_interval == (0.0, 0.775)
        assert 0.0 < model1.c <= 1.0

    def test_cone_bound_direct(self, model1):
        p = model1.params
        s = np.linspace(0.0, 1.0, 101)
        phi = phi_values(p, s)
        for t in np.linspace(0.0, p.b, 101):
            assert np.all(kernel_values(p, float(t), s) >= model1.c * phi - 1e-10)
