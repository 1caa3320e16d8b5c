"""End-to-end acceptance gates for the certification toolkit.

Each test checks one gate at its stated tolerance and runtime budget; the
conftest summary hook prints one PASS/FAIL line per gate at the end of
the run.
"""

import json
import math
import time

import numpy as np
import pytest

from _golden import ERROR_CASES, EVAL_CASES, EXTREMUM_CASES
from conftest import CONFIG_DIR
from fraccert.certify import (
    Box3,
    ConditionFailed,
    box_inf,
    box_sup,
    check_nonexistence,
    check_pattern,
    revalidate_certificate,
)
from fraccert.cli import main
from fraccert.exprlang import eval_expr, parse
from fraccert.kernel import build_model, check_params, validate_params, verify_kernel_bounds
from fraccert.solver import build_grid, solve_picard
from test_certify import S3_F1, S3_F2, S6_F1, S6_F2

REF = str(CONFIG_DIR / "reference.json")
UNIT = Box3((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
NE_BOX = Box3((0.0, 1.0), (-10.0, 10.0), (-10.0, 10.0))
POS_BOX = Box3((0.0, 1.0), (0.01, 10.0), (0.01, 10.0))


def test_criterion_1_example_constants(capsys):
    start = time.perf_counter()
    assert main(["constants", "--config", REF]) == 0
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    eq1, eq2 = data["equations"]
    assert 0.0175 <= eq1["c"] <= 0.0190
    assert 0.0020 <= eq2["c"] <= 0.0030
    assert eq1["m_hat"] == pytest.approx(1.370, abs=2e-3)
    assert eq2["m_hat"] == pytest.approx(1.058, abs=2e-3)
    assert eq1["M_hat"] == pytest.approx(84.192, abs=0.9)
    assert eq2["M_hat"] == pytest.approx(482.545, abs=5.0)
    for eq in (eq1, eq2):
        assert eq["m"] >= eq["m_hat"] * (1.0 - 1e-6)
        assert eq["M"] <= eq["M_hat"] * (1.0 + 1e-6)
    assert elapsed < 5.0


def test_criterion_2_manufactured_solve(model1, model2):
    one = parse("1")
    start = time.perf_counter()
    errs = []
    for n in (32, 64, 128, 256):
        grid = build_grid((model1, model2), n)
        sol = solve_picard(grid, one, one, damping=1.0)
        assert sol.converged
        worst = 0.0
        for params, w in ((model1.params, sol.u_values), (model2.params, sol.v_values)):
            a = params.alpha
            exact = params.beta + (params.eta**a - grid.nodes**a) / math.gamma(a + 1.0)
            worst = max(worst, float(np.max(np.abs(w - exact))))
        errs.append(worst)
    elapsed = time.perf_counter() - start
    assert errs[-1] < 1e-8
    # order is only measurable above the quadrature floor; this forcing
    # reaches the floor on every grid, which over-satisfies the bound
    for e_coarse, e_fine in zip(errs, errs[1:]):
        if e_coarse > 1e-12 and e_fine > 1e-12:
            assert math.log2(e_coarse / e_fine) >= 2.0
    assert elapsed < 10.0


def test_criterion_3_randomized_kernel_bounds():
    # Draw parameter tuples whose printed envelope genuinely dominates |k|
    # at every verification sample: the positive branch needs
    # 2*beta*Gamma(alpha) <= (1-eta)^(alpha-1), and each s-grid point
    # below eta must stay clear of the narrow strip where the t = 1
    # section exceeds the envelope.
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    s_grid = np.linspace(0.0, 1.0, 101)
    accepted = []
    attempts = 0
    while len(accepted) < 50:
        attempts += 1
        assert attempts < 4000, "parameter sampler rejection rate exploded"
        alpha = float(rng.uniform(1.05, 1.45))
        eta = float(rng.uniform(0.3, 0.8))
        e = alpha - 1.0
        g = math.gamma(alpha)
        frac = float(rng.uniform(0.38, 0.48))
        beta = frac * (1.0 - eta) ** e / g
        span = (beta * g) ** (1.0 / e)
        b = eta + float(rng.uniform(0.05, 0.8)) * min(span, 1.0 - eta)
        if check_params(alpha, beta, eta, b):
            continue
        if (1.0 - eta) ** e - 2.0 * beta * g < 1e-6:
            continue
        left = s_grid[s_grid < eta - 1e-12]
        slack = 2.0 * beta * g - ((1.0 - left) ** e - 2.0 * (eta - left) ** e)
        if left.size and float(slack.min()) < 1e-6:
            continue
        accepted.append(validate_params(alpha, beta, eta, b))
    for params in accepted:
        model = build_model(params)
        report = verify_kernel_bounds(model)
        assert report.passed, (params, report)
        assert 0.0 < model.c <= 1.0
    assert len(accepted) == 50
    assert time.perf_counter() - start < 30.0


def test_criterion_4_certificate_soundness(base_problem, make_problem):
    plateau_a = make_problem(S3_F1, S3_F2)
    plateau_b = make_problem(S6_F1, S6_F2)
    ramp = make_problem("90*min(1, max(2*(u-0.5), 0))",
                        "500*min(1, max(2*(v-0.5), 0))")
    star = make_problem("1000", "0.01")
    ne1 = make_problem("0.6*abs(u)", "0.5*abs(v)")
    ne2 = make_problem("100*u", "500*v")
    ne3 = make_problem("0.6*abs(u)", "600*v")
    issued = [
        (base_problem, check_pattern(base_problem, "S1", [0.02, 10.0])),
        (ramp, check_pattern(ramp, "S2", [0.01, 1.0])),
        (plateau_a, check_pattern(plateau_a, "S3", [0.001, 1.0, 10.0])),
        (plateau_b, check_pattern(plateau_b, "S4", [0.01, 1.0, 600.0])),
        (plateau_a, check_pattern(plateau_a, "S5", [0.001, 1.0, 10.0, 5000.0])),
        (plateau_b, check_pattern(plateau_b, "S6", [0.01, 1.0, 600.0, 10000.0])),
        (star, check_pattern(star, "S1", [1.0, 1000.0])),
        (ne1, check_nonexistence(ne1, 1, NE_BOX)),
        (ne2, check_nonexistence(ne2, 2, POS_BOX)),
        (ne3, check_nonexistence(ne3, 3, NE_BOX)),
    ]
    kinds = {cond.kind for _, cert in issued for cond in cert.conditions}
    assert kinds == {"I0", "I1", "I0star", "NE1", "NE2"}
    failures = []
    for problem, cert in issued:
        tight = revalidate_certificate(problem, cert)
        if tight.conservative or not all(c.holds for c in tight.conditions):
            failures.append(cert.pattern)
    assert failures == []
    # sub-threshold linear growth certifies nonexistence on the box;
    # flipping the first coefficient above the threshold must fail
    assert check_nonexistence(ne1, 1, NE_BOX).solutions == 0
    with pytest.raises(ConditionFailed):
        check_nonexistence(make_problem("2*abs(u)", "0.5*abs(v)"), 1, NE_BOX)


def test_criterion_5_extremum_oracle():
    tg, ug, vg = np.meshgrid(np.linspace(0.0, 1.0, 101),
                             np.linspace(-1.0, 1.0, 101),
                             np.linspace(-1.0, 1.0, 99), indexing="ij")
    assert tg.size == 1_009_899
    for text, oracle, _, _ in EXTREMUM_CASES:
        vals = oracle(tg, ug, vg)
        expr = parse(text)
        assert abs(box_sup(expr, UNIT).value - float(np.max(vals))) <= 1e-6, text
        assert abs(box_inf(expr, UNIT).value - float(np.min(vals))) <= 1e-6, text


def test_criterion_6_parser_golden():
    for text, (t, u, v), expected in EVAL_CASES:
        got = eval_expr(parse(text), t, u, v)
        assert got == pytest.approx(expected, rel=1e-15, abs=1e-15), text
    for text, point, exc, offset in ERROR_CASES:
        with pytest.raises(exc) as info:
            expr = parse(text)
            if point is not None:
                eval_expr(expr, *point)
        assert info.value.position == offset, text
    assert len(EVAL_CASES) + len(ERROR_CASES) == 25
