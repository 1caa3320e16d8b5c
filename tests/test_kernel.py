"""Kernel point values, envelope, cone constant and parameter admissibility."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraccert import kernel
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
    kernel_values,
    phi_values,
    validate_params,
    verify_kernel_bounds,
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
            # b = eta = 0 satisfies both interval inequalities, but [0, b] is a point
            (1.5, 0.2, 0.0, 0.0, IntervalChoiceViolated),
            (2.0, 0.04, 0.0, 0.0, IntervalChoiceViolated),
            (math.nan, 0.2, 0.75, 0.775, ParamError),
            # past the one input range: a subnormal or a huge number
            (1.5, 0.2, 0.0, 5e-324, ParamError),
            (1.5, 1e-150, 0.75, 0.775, ParamError),
            (1.5, 0.2, 5e-324, 0.775, ParamError),
            (1.5, 2.0 ** 481, 0.75, 0.775, ParamError),
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

    def test_range_named(self):
        assert check_params(1.5, 0.2, 0.0, 5e-324) == [
            (ParamError, "b must be 0 or of magnitude in [2^-480, 2^480], got 5e-324")]
        # the range's ends are admitted
        assert validate_params(1.5, 0.2, 0.0, 2.0 ** -480).b == 2.0 ** -480

    def test_default_interval_end_admissible(self):
        # 0.5 * Gamma(1.5) = 0.443 > (0.875 - 0.75)^0.5 = 0.354
        assert default_interval_end(1.5, 0.5, 0.75) == 0.875

    def test_default_interval_end_inadmissible(self):
        # 0.2 * Gamma(1.5) = 0.177 < (0.875 - 0.75)^0.5 = 0.354, so b = eta
        assert default_interval_end(1.5, 0.2, 0.75) == 0.75

    def test_b_equal_eta_admissible(self):
        assert validate_params(1.5, 0.2, 0.75, 0.75).b == 0.75

    def test_non_numeric_rejected(self):
        with pytest.raises(ParamError):
            validate_params("1.5", 0.2, 0.75, 0.775)


def k_at(p: ProblemParams, t: float, s: float) -> float:
    return float(kernel_values(p, t, s))


def phi_at(p: ProblemParams, s: float) -> float:
    return float(phi_values(p, s))


class TestPointValues:
    def test_frozen_points(self, params1):
        assert k_at(params1, 1.0, 1.0) == pytest.approx(0.2, abs=1e-15)
        assert k_at(params1, 1.0, 0.8) == pytest.approx(-0.304626504404, rel=1e-11)
        assert k_at(params1, 0.0, 0.0) == pytest.approx(1.17720502381, rel=1e-11)

    def test_formula_identities(self, params1):
        p = params1
        # at t = 0 the travelling term vanishes: k(0, s) = beta + (eta-s)^(a-1)/Gamma
        assert k_at(p, 0.0, 0.0) == pytest.approx(
            p.beta + p.eta ** 0.5 / G15, rel=1e-14)
        # at s = 1 > eta, t = 1: k = beta - 0 = beta
        assert k_at(p, 1.0, 1.0) == pytest.approx(p.beta, abs=1e-15)
        # on the jump s = eta with t <= s both special terms vanish
        assert k_at(p, 0.0, p.eta) == pytest.approx(p.beta, abs=1e-15)

    def test_against_reference_kernel(self, params1, params2):
        rng = np.random.default_rng(2718)
        for p in (params1, params2):
            for _ in range(200):
                t, s = rng.uniform(0.0, 1.0, 2)
                assert k_at(p, float(t), float(s)) == pytest.approx(
                    reference_kernel(p, float(t), float(s)), rel=1e-13, abs=1e-13)

    def test_phi_frozen(self, params1):
        assert phi_at(params1, 0.0) == pytest.approx(1.17720502381, rel=1e-11)
        assert phi_at(params1, 0.75) == pytest.approx(0.2, abs=1e-15)
        assert phi_at(params1, 0.9) == pytest.approx(0.364189583548, rel=1e-11)

    def test_phi_formula(self, params1):
        p = params1
        assert phi_at(p, 0.3) == pytest.approx(p.beta + (p.eta - 0.3) ** 0.5 / G15, rel=1e-14)
        upper = (1.0 - p.eta) ** 0.5 / G15 - p.beta
        assert phi_at(p, 0.8) == pytest.approx(upper, rel=1e-14)
        assert phi_at(p, 1.0) == pytest.approx(upper, rel=1e-14)

    def test_vectorized_matches_scalar(self, params1):
        # the broadcast table equals the row-by-row evaluation bit for bit
        s = np.linspace(0.0, 1.0, 57)
        t = np.array([0.0, 0.3, 0.75, 1.0])
        table = kernel_values(params1, t[:, None], s)
        assert table.shape == (4, 57)
        for i, ti in enumerate(t):
            assert np.array_equal(table[i], kernel_values(params1, float(ti), s))
        phis = phi_values(params1, s)
        for j, sj in enumerate(s):
            assert phis[j] == phi_at(params1, float(sj))


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

    @pytest.mark.parametrize("params, value, admissible", [
        # beta*Gamma(alpha) > 1 and b < eta: validate_params rejects this tuple,
        # compute_c takes it as given and names the value it reached
        ((1.5, 0.9, 0.5, 0.6), r"-5\.319", False),
        # b one ulp below beta leaves c = 1.2e-156, below 2^-480
        ((2.0, 1e-140, 0.0, 9.999999999999999e-141), r"1\.165", True),
    ], ids=["negative", "below-the-range"])
    def test_out_of_range_raises(self, params, value, admissible):
        assert (check_params(*params) == []) == admissible
        pattern = rf"^cone constant fell outside \[2\^-480, 1\]: {value}"
        with pytest.raises(ParamError, match=pattern):
            compute_c(ProblemParams(*params))


class TestGamma:
    # Gamma(alpha) rounded to double from 40-digit arithmetic, with one
    # parameter tuple per order that build_model accepts
    GAMMA_REFERENCE = [
        ((1.1, 0.05, 0.04, 0.04), 0.9513507698668731836292487177265402192551),
        ((1.25, 0.05, 0.75, 0.75), 0.9064024770554770779826712889669180007488),
        ((1.5, 0.2, 0.75, 0.75), 0.8862269254527580136490837416705725913988),
        ((1.75, 0.3, 0.5, 0.5), 0.9190625268488832338468237275221678951384),
        ((1.9, 0.4, 0.25, 0.25), 0.9617658319073874194075748021250327003528),
        ((2.0, 0.48, 0.04, 0.04), 1.0),
    ]

    @pytest.mark.parametrize("tup, expected", GAMMA_REFERENCE)
    def test_gamma_alpha_reference(self, tup, expected):
        model = build_model(validate_params(*tup))
        assert model.gamma_alpha == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_half_integer_identity(self):
        # Gamma(1/2 + 1) = sqrt(pi)/2, carried by every model of order 3/2
        model = build_model(validate_params(1.5, 0.2, 0.75, 0.75))
        assert model.gamma_alpha == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf, -math.inf, 1.0, 2.5])
    def test_gamma_domain_unreachable(self, monkeypatch, bad):
        # every order outside (1, 2] is rejected before Gamma is evaluated,
        # so the package needs no Gamma domain errors of its own
        def no_gamma(x):
            raise AssertionError(f"Gamma evaluated at {x!r}")

        monkeypatch.setattr(math, "gamma", no_gamma)
        assert check_params(bad, 0.2, 0.75, 0.775)
        with pytest.raises(ParamError):
            validate_params(bad, 0.2, 0.75, 0.775)


class TestBounds:
    def test_reference_models_pass(self, model1, model2):
        for model in (model1, model2):
            report = verify_kernel_bounds(model)
            assert isinstance(report, BoundReport)
            assert report.passed
            assert report.max_envelope_violation <= 1e-10
            assert report.max_cone_violation <= 1e-10

    def test_jump_sample_uses_essential_envelope(self, model1):
        p = model1.params
        # the branch envelope at the jump is beta = 0.2, but |k(1, eta)| is
        # larger; the check must compare against the two-sided limit instead
        assert abs(k_at(p, 1.0, p.eta)) > phi_at(p, p.eta)
        # the fixed s grid hits the jump 0.75 exactly
        assert kernel.GRID == 101 and np.linspace(0.0, 1.0, kernel.GRID)[75] == 0.75
        assert verify_kernel_bounds(model1).passed

    def test_envelope_dominance_breakdown_rejected(self):
        # admissible parameters whose printed envelope does not dominate |k|
        # for s > eta (2 * beta * Gamma(alpha) > (1 - eta)^(alpha-1)):
        p = validate_params(1.5, 0.4, 0.75, 0.8)
        with pytest.raises(KernelBoundError):
            build_model(p)

    def test_model_fields(self, model1, params1):
        assert isinstance(model1, KernelModel)
        assert model1.params == params1
        assert model1.gamma_alpha == pytest.approx(G15, rel=1e-14)
        assert 0.0 < model1.c <= 1.0

    def test_cone_bound_direct(self, model1):
        p = model1.params
        s = np.linspace(0.0, 1.0, 101)
        phi = phi_values(p, s)
        for t in np.linspace(0.0, p.b, 101):
            assert np.all(kernel_values(p, float(t), s) >= model1.c * phi - 1e-10)


def per_row_report(model: KernelModel) -> BoundReport:
    """The row-by-row form of verify_kernel_bounds: one kernel_values call
    per t sample, keeping a row only when it strictly beats the best so far."""
    p = model.params
    e = p.alpha - 1.0
    s = np.linspace(0.0, 1.0, 101)
    phi = phi_values(p, s)
    phi_env = phi.copy()
    phi_env[np.isclose(s, p.eta, rtol=0.0, atol=1e-13)] = max(
        p.beta, (1.0 - p.eta) ** e / model.gamma_alpha - p.beta)
    worst_env, env_loc = -math.inf, (0.0, 0.0)
    for t in np.linspace(0.0, 1.0, 101):
        viol = np.abs(kernel_values(p, t, s)) - phi_env
        j = int(np.argmax(viol))
        if viol[j] > worst_env:
            worst_env, env_loc = float(viol[j]), (float(t), float(s[j]))
    worst_cone, cone_loc = -math.inf, (0.0, 0.0)
    for t in np.linspace(0.0, p.b, 101):
        viol = model.c * phi - kernel_values(p, t, s)
        j = int(np.argmax(viol))
        if viol[j] > worst_cone:
            worst_cone, cone_loc = float(viol[j]), (float(t), float(s[j]))
    return BoundReport(max_envelope_violation=worst_env, envelope_location=env_loc,
                       max_cone_violation=worst_cone, cone_location=cone_loc,
                       passed=worst_env <= 1e-10 and worst_cone <= 1e-10)


@st.composite
def admissible_models(draw):
    """A kernel model anywhere in the admissible regime, whether or not it
    passes the sampled bounds (beta above half its cap usually fails)."""
    alpha = draw(st.floats(1.0, 2.0, exclude_min=True))
    eta = draw(st.floats(0.0, 1.0, exclude_max=True))
    e = alpha - 1.0
    g = math.gamma(alpha)
    beta = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * (1.0 - eta) ** e / g
    span = min((beta * g) ** (1.0 / e), 1.0 - eta)
    b = eta + draw(st.floats(0.0, 1.0, exclude_max=True)) * span
    assume(not check_params(alpha, beta, eta, b))
    p = ProblemParams(alpha, beta, eta, b)
    try:
        c = compute_c(p)
    except ParamError:
        assume(False)
    return KernelModel(params=p, c=c, gamma_alpha=math.gamma(alpha))


class TestBroadcastCheckParity:
    @settings(max_examples=300, deadline=None)
    @given(admissible_models())
    def test_matches_per_row_loop(self, model):
        # dataclass equality: both violations and both (t, s) locations exactly
        assert verify_kernel_bounds(model) == per_row_report(model)

    @pytest.mark.parametrize("tup, passed", [
        ((1.5, 0.2, 0.75, 0.775), True),
        ((1.25, 0.4, 2.0 / 3.0, 41.0 / 60.0), True),
        ((1.5, 0.4, 0.75, 0.8), False),
    ])
    def test_accepted_and_rejected(self, tup, passed):
        p = validate_params(*tup)
        model = KernelModel(params=p, c=compute_c(p), gamma_alpha=math.gamma(p.alpha))
        report = verify_kernel_bounds(model)
        assert report == per_row_report(model)
        assert report.passed is passed
