"""Box extrema, index conditions, pattern ladders and nonexistence checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _golden import EXTREMUM_CASES
from fraccert import certify
from fraccert.certify import (
    PATTERNS,
    Box3,
    Certificate,
    CertificateInvalid,
    ConditionFailed,
    ConditionResult,
    ExtremumEstimate,
    LadderOrderViolation,
    box_inf,
    box_sup,
    check_I0,
    check_I0_star,
    check_I1,
    check_nonexistence,
    check_pattern,
    revalidate_certificate,
    search_certificate,
)
from fraccert.exprlang import parse

UNIT = Box3(t_range=(0.0, 1.0), u_range=(-1.0, 1.0), v_range=(-1.0, 1.0))

# Two-plateau nonlinearities tuned to the reference thresholds: near zero
# they rise to a low plateau fast enough for an index-0 level at a tiny
# radius, stay there through an index-1 level, then climb to a second
# plateau for another index-0 level.
S3_F1 = "0.5*min(1, max((u-0.0005)/0.0005, 0)) + 900*min(1, max((u-5)/5, 0))"
S3_F2 = "0.5*min(1, max((v-0.0005)/0.0005, 0)) + 4900*min(1, max((v-5)/5, 0))"
S6_F1 = "90*min(1, max(2*(u-0.5), 0)) + 850000*min(1, max((u-5000)/1000, 0))"
S6_F2 = "500*min(1, max(2*(v-0.5), 0)) + 5000000*min(1, max((v-5000)/1000, 0))"


def assert_ladder_consistent(problem, cert):
    """Re-derive the strict ordering constraints the ladder must satisfy."""
    kinds, solutions = PATTERNS[cert.pattern]
    assert cert.solutions == solutions
    assert len(cert.ladder) == len(kinds)
    for j in range(len(kinds) - 1):
        for i in (1, 2):
            x, y = cert.ladder[j][i - 1], cert.ladder[j + 1][i - 1]
            if kinds[j] == "I0":
                assert x / problem.c(i) < y
            else:
                assert x < y


class TestBox3:
    def test_valid(self):
        box = Box3((0.0, 1.0), (-2.0, 3.0), (0.0, 0.0))
        assert box.u_range == (-2.0, 3.0)

    @pytest.mark.parametrize(
        "t, u, v",
        [
            ((-0.1, 1.0), (0.0, 1.0), (0.0, 1.0)),
            ((0.0, 1.1), (0.0, 1.0), (0.0, 1.0)),
            ((0.0, 1.0), (1.0, -1.0), (0.0, 1.0)),
            ((0.0, 1.0), (0.0, 1.0), (0.0, math.nan)),
        ],
    )
    def test_invalid(self, t, u, v):
        with pytest.raises(ValueError):
            Box3(t, u, v)


class TestBoxExtremum:
    @pytest.mark.parametrize("text, oracle, sup_true, inf_true", EXTREMUM_CASES)
    def test_known_extrema(self, text, oracle, sup_true, inf_true):
        expr = parse(text)
        assert box_sup(expr, UNIT).value == pytest.approx(sup_true, rel=1e-12, abs=1e-12)
        assert box_inf(expr, UNIT).value == pytest.approx(inf_true, rel=1e-12, abs=1e-12)

    def test_constant_and_location(self):
        est = box_sup(parse("4.25"), UNIT)
        assert est.value == 4.25
        assert est.kind == "sup"
        assert est.samples >= 33**3

    def test_degenerate_axes(self):
        box = Box3((0.5, 0.5), (2.0, 2.0), (3.0, 3.0))
        est = box_sup(parse("t + u + v"), box)
        assert est.value == 5.5
        assert est.location == (0.5, 2.0, 3.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            box_sup(parse("u"), UNIT, grid=2)

    def test_monotone_under_nested_grids(self):
        expr = parse("sin(3*t) - u*v + cos(2*v)")
        sups = [box_sup(expr, UNIT, grid=g, refine_rounds=0).value for g in (9, 17, 33)]
        infs = [box_inf(expr, UNIT, grid=g, refine_rounds=0).value for g in (9, 17, 33)]
        assert sups[0] <= sups[1] <= sups[2]
        assert infs[0] >= infs[1] >= infs[2]

    def test_monotone_under_refinement(self):
        expr = parse("sin(3*t) - u*v + cos(2*v)")
        vals = [box_sup(expr, UNIT, grid=9, refine_rounds=r).value for r in (0, 2, 8)]
        assert vals[0] <= vals[1] <= vals[2]
        assert box_sup(expr, UNIT, grid=9, refine_rounds=2).refined
        assert not box_sup(expr, UNIT, grid=9, refine_rounds=0).refined

    def test_refinement_reaches_interior_peak(self):
        # peak at u = 0.3141 falls between the 9 coarse grid points
        est = box_sup(parse("-(u - 0.3141)^2"), UNIT, grid=9, refine_rounds=12)
        assert est.value > -1e-9
        assert est.location[1] == pytest.approx(0.3141, abs=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-5.0, 5.0).map(lambda x: round(x, 3)),
        st.floats(-5.0, 5.0).map(lambda x: round(x, 3)),
        st.floats(-5.0, 5.0).map(lambda x: round(x, 3)),
    )
    def test_linear_sup_exact(self, a, b, c):
        # linear in (u, v): the supremum sits at a sampled corner
        expr = parse(f"{a!r} + {b!r}*u + {c!r}*v")
        est = box_sup(expr, UNIT, grid=5, refine_rounds=2)
        assert est.value == pytest.approx(a + abs(b) + abs(c), rel=1e-12, abs=1e-12)


def meshgrid_scan(fn, axes):
    """Reference for certify._scan: the same argmax on a materialised mesh."""
    tg, ug, vg = np.meshgrid(*axes, indexing="ij")
    vals = fn(tg, ug, vg)
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[idx]), (float(tg[idx]), float(ug[idx]), float(vg[idx])), vals.size


def on_mesh(monkeypatch, call):
    with monkeypatch.context() as patch:
        patch.setattr(certify, "_scan", meshgrid_scan)
        return call()


# Plateaus and kinks tie many samples at the extremum, so equal locations
# pin the first (C-order) maximum on both grids.
TIE_HEAVY = ["1", "min(1, max((u-0.2)/0.3, 0))", "abs(v)"]


class TestOpenGridParity:
    @pytest.mark.parametrize("extremum", [box_sup, box_inf])
    @pytest.mark.parametrize("box", [
        UNIT,
        Box3((0.0, 0.775), (0.5, 2.0), (-3.0, 3.0)),
        Box3((0.3, 0.3), (-1.0, 1.0), (0.0, 0.0)),
    ], ids=["unit", "I0-like", "degenerate"])
    @pytest.mark.parametrize("text", TIE_HEAVY)
    def test_box_extremum(self, monkeypatch, extremum, box, text):
        run = lambda: extremum(parse(text), box)
        # dataclass equality: value, location and samples
        assert run() == on_mesh(monkeypatch, run)

    @pytest.mark.parametrize("variant, f1, f2", [
        (1, "0.1*abs(u)", "0.1*min(1, max((v-0.2)/0.3, 0))"),
        (1, "1", "abs(v)"),
        (2, "100*abs(u)", "1000*min(1, max((v-0.2)/0.3, 0)) + 1000*v"),
        (2, "1", "abs(v)"),
        (3, "0.1*abs(u)", "1000*abs(v)"),
    ])
    @pytest.mark.parametrize("box", [
        Box3((0.0, 1.0), (-10.0, 10.0), (-10.0, 10.0)),
        Box3((0.0, 1.0), (-10.0, 10.0), (2.0, 2.0)),
    ], ids=["square", "degenerate"])
    def test_nonexistence(self, monkeypatch, make_problem, box, variant, f1, f2):
        problem = make_problem(f1, f2)

        def run():
            try:
                return check_nonexistence(problem, variant, box).conditions
            except ConditionFailed as exc:
                return (exc.result,)

        assert run() == on_mesh(monkeypatch, run)


class TestIndexConditions:
    def test_I1_small_constant_holds(self, make_problem):
        res1, res2 = check_I1(make_problem("0.1", "0.1"), 1.0, 1.0)
        assert res1.holds and res2.holds
        assert res1.lhs == 0.1 and res2.lhs == 0.1
        assert res1.threshold == pytest.approx(1.37052028558, rel=1e-9)
        assert res2.threshold == pytest.approx(1.05881547717, rel=1e-9)
        assert res1.kind == "I1" and res1.equation == 1 and res2.equation == 2
        assert res1.estimate.kind == "sup"
        assert res1.box == Box3((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))

    def test_I1_large_constant_fails(self, make_problem):
        res1, res2 = check_I1(make_problem("2", "2"), 1.0, 1.0)
        assert not res1.holds and not res2.holds
        assert res1.lhs == 2.0

    def test_I1_zero_holds(self, make_problem):
        assert all(r.holds for r in check_I1(make_problem("0", "0"), 1.0, 1.0))

    def test_I1_scales_with_rho(self, make_problem):
        res1, _ = check_I1(make_problem("2", "2"), 4.0, 4.0)
        assert res1.lhs == 0.5 and res1.holds

    def test_I0_large_constant_holds(self, make_problem):
        res1, res2 = check_I0(make_problem("500", "1000"), 1.0, 1.0)
        assert res1.holds and res2.holds
        assert res1.lhs == 500.0 and res2.lhs == 1000.0
        assert res1.threshold == pytest.approx(84.1916883607, rel=1e-8)
        assert res2.threshold == pytest.approx(482.544914595, rel=1e-8)
        assert res1.estimate.kind == "inf"

    def test_I0_zero_fails(self, make_problem):
        assert not any(r.holds for r in check_I0(make_problem("0", "0"), 1.0, 1.0))

    def test_I0_box_shapes(self, make_problem):
        problem = make_problem("500", "1000")
        c1, c2 = problem.c(1), problem.c(2)
        res1, res2 = check_I0(problem, 1.0, 2.0)
        assert res1.box.t_range == (0.0, problem.b(1))
        assert res1.box.u_range == (1.0, pytest.approx(1.0 / c1))
        assert res1.box.v_range == (pytest.approx(-2.0 / c2), pytest.approx(2.0 / c2))
        assert res2.box.t_range == (0.0, problem.b(2))
        assert res2.box.u_range == (pytest.approx(-1.0 / c1), pytest.approx(1.0 / c1))
        assert res2.box.v_range == (2.0, pytest.approx(2.0 / c2))

    def test_I0_star_box_starts_at_zero(self, make_problem):
        problem = make_problem("500", "1000")
        res = check_I0_star(problem, 1.0, 1.0, 1)
        assert res.kind == "I0star"
        assert res.box.u_range[0] == 0.0
        assert res.holds

    def test_I0_star_identity_fails(self, make_problem):
        # f(u) = u vanishes at the bottom of the starred range [0, rho/c]
        res = check_I0_star(make_problem("u", "u"), 1.0, 1.0, 1)
        assert not res.holds
        assert res.lhs == 0.0

    def test_I0_star_index_validation(self, make_problem):
        with pytest.raises(ValueError):
            check_I0_star(make_problem("1", "1"), 1.0, 1.0, 3)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rho_validation(self, make_problem, bad):
        with pytest.raises(ValueError):
            check_I1(make_problem("1", "1"), bad, 1.0)

    def test_margin_blocks_near_threshold(self, make_problem):
        tight = check_I1(make_problem("1", "1"), 1.0, 1.0)
        wide = check_I1(make_problem("1", "1", margin=0.5), 1.0, 1.0)
        assert all(r.holds for r in tight)
        assert not any(r.holds for r in wide)
        assert wide[0].margin == 0.5

    def test_conservative_vs_tight_thresholds(self, make_problem):
        # 1.06 sits between m_hat_2 = 1.0588 and m_2 = 1.0733: the
        # conservative route rejects what the tight route accepts
        problem = make_problem("1.06", "1.06")
        assert not check_I1(problem, 1.0, 1.0)[1].holds
        assert check_I1(problem.with_conservative(False), 1.0, 1.0)[1].holds

    def test_conservative_flag_recorded(self, make_problem):
        problem = make_problem("0.1", "0.1")
        assert check_I1(problem, 1.0, 1.0)[0].conservative
        assert not check_I1(problem.with_conservative(False), 1.0, 1.0)[0].conservative


class TestPattern:
    def test_S1_certificate(self, base_problem):
        cert = check_pattern(base_problem, "S1", [0.02, 10.0])
        assert cert.pattern == "S1"
        assert cert.solutions == 1
        assert cert.conclusion == "at least 1 nontrivial solution"
        assert cert.conservative
        assert cert.ladder == ((0.02, 0.02), (10.0, 10.0))
        kinds = [c.kind for c in cert.conditions]
        assert kinds == ["I0", "I0", "I1", "I1"]
        assert [c.equation for c in cert.conditions] == [1, 2, 1, 2]
        assert cert.conditions[0].lhs == pytest.approx(500.0, rel=1e-12)
        assert cert.conditions[2].lhs == pytest.approx(1.0, rel=1e-12)
        assert_ladder_consistent(base_problem, cert)

    def test_S1_scalar_and_pair_ladders_agree(self, base_problem):
        by_scalar = check_pattern(base_problem, "S1", [0.02, 10.0])
        by_pair = check_pattern(base_problem, "S1", [(0.02, 0.02), (10.0, 10.0)])
        assert by_scalar == by_pair

    def test_S1_ladder_violation(self, base_problem):
        with pytest.raises(LadderOrderViolation) as info:
            check_pattern(base_problem, "S1", [1.0, 1.0])
        assert "rho_1/c_1 < r_1" in str(info.value)

    def test_S2_certificate(self, make_problem):
        problem = make_problem("90*min(1, max(2*(u-0.5), 0))",
                               "500*min(1, max(2*(v-0.5), 0))")
        cert = check_pattern(problem, "S2", [0.01, 1.0])
        assert cert.solutions == 1
        kinds = [c.kind for c in cert.conditions]
        assert kinds == ["I1", "I1", "I0", "I0"]
        assert cert.conditions[0].lhs == 0.0
        assert cert.conditions[2].lhs == pytest.approx(90.0, rel=1e-12)
        assert cert.conditions[3].lhs == pytest.approx(500.0, rel=1e-12)
        assert_ladder_consistent(problem, cert)

    def test_S3_two_solutions(self, make_problem):
        problem = make_problem(S3_F1, S3_F2)
        cert = check_pattern(problem, "S3", [0.001, 1.0, 10.0])
        assert cert.solutions == 2
        assert [c.kind for c in cert.conditions] == ["I0", "I0", "I1", "I1", "I0", "I0"]
        assert cert.conditions[0].lhs == pytest.approx(500.0, rel=1e-9)
        assert cert.conditions[2].lhs == pytest.approx(0.5, rel=1e-9)
        assert cert.conditions[4].lhs == pytest.approx(90.05, rel=1e-9)
        assert cert.conditions[5].lhs == pytest.approx(490.05, rel=1e-9)
        assert_ladder_consistent(problem, cert)

    def test_S4_two_solutions(self, make_problem):
        problem = make_problem(S6_F1, S6_F2)
        cert = check_pattern(problem, "S4", [0.01, 1.0, 600.0])
        assert cert.solutions == 2
        assert [c.kind for c in cert.conditions] == ["I1", "I1", "I0", "I0", "I1", "I1"]
        assert_ladder_consistent(problem, cert)

    def test_S5_three_solutions(self, make_problem):
        problem = make_problem(S3_F1, S3_F2)
        cert = check_pattern(problem, "S5", [0.001, 1.0, 10.0, 5000.0])
        assert cert.solutions == 3
        assert len(cert.conditions) == 8
        assert cert.conclusion == "at least 3 nontrivial solutions"
        assert_ladder_consistent(problem, cert)

    def test_S6_three_solutions(self, make_problem):
        problem = make_problem(S6_F1, S6_F2)
        cert = check_pattern(problem, "S6", [0.01, 1.0, 600.0, 10000.0])
        assert cert.solutions == 3
        assert [c.kind for c in cert.conditions] == [
            "I1", "I1", "I0", "I0", "I1", "I1", "I0", "I0"]
        assert cert.conditions[6].lhs == pytest.approx(85.009, rel=1e-9)
        assert_ladder_consistent(problem, cert)

    def test_S4_zero_nonlinearity_fails(self, make_problem):
        with pytest.raises(ConditionFailed) as info:
            check_pattern(make_problem("0", "0"), "S4", [1.0, 10.0, 10000.0])
        assert info.value.result.kind == "I0"
        assert not info.value.result.holds

    def test_star_fallback_at_first_level(self, make_problem):
        # equation 2 cannot meet the plain index-0 bar, equation 1 meets
        # the harder starred one on its enlarged range
        problem = make_problem("1000", "0.01")
        cert = check_pattern(problem, "S1", [1.0, 1000.0])
        kinds = [c.kind for c in cert.conditions]
        assert kinds == ["I0star", "I1", "I1"]
        assert cert.conditions[0].equation == 1
        assert cert.solutions == 1
        assert_ladder_consistent(problem, cert)

    def test_plain_I0_preferred_over_star(self, base_problem):
        cert = check_pattern(base_problem, "S1", [0.02, 10.0])
        assert "I0star" not in [c.kind for c in cert.conditions]

    def test_unknown_pattern(self, base_problem):
        with pytest.raises(ValueError):
            check_pattern(base_problem, "S9", [1.0, 2.0])

    def test_wrong_ladder_length(self, base_problem):
        with pytest.raises(ValueError):
            check_pattern(base_problem, "S1", [1.0, 2.0, 3.0])

    def test_certificate_rejects_failed_condition(self):
        est = ExtremumEstimate(kind="sup", value=5.0, location=(0.0, 0.0, 0.0),
                               samples=1, refine_rounds=0)
        bad = ConditionResult(kind="I1", equation=1, rho=(1.0, 1.0), box=UNIT,
                              lhs=5.0, threshold=1.0, holds=False,
                              conservative=True, margin=0.0, estimate=est)
        with pytest.raises(CertificateInvalid):
            Certificate(pattern="S1", ladder=((1.0, 1.0), (2.0, 2.0)),
                        conditions=(bad,), solutions=1, conclusion="x",
                        conservative=True)


class TestSearch:
    def test_reference_search(self, base_problem):
        cert = search_certificate(base_problem, "S1", 1e-3, 1e3, 13)
        assert cert is not None
        assert cert.ladder[0][0] == pytest.approx(1e-3, rel=1e-12)
        assert cert.ladder[1][0] == pytest.approx(10.0, rel=1e-9)
        assert_ladder_consistent(base_problem, cert)

    def test_search_picks_smallest_feasible(self, base_problem):
        # the next-smaller grid point 10^3.5 * 1e-3 fails the index-1 bar
        cert = search_certificate(base_problem, "S1", 1e-3, 1e3, 13)
        skipped = 1e-3 * (1e6) ** (7.0 / 12.0)
        assert 10.0 / skipped > 1.37052028558

    def test_search_deterministic(self, base_problem):
        a = search_certificate(base_problem, "S1", 1e-3, 1e3, 13)
        b = search_certificate(base_problem, "S1", 1e-3, 1e3, 13)
        assert a == b

    def test_search_exhausted(self, make_problem):
        assert search_certificate(make_problem("0", "0"), "S1", 0.1, 10.0, 5) is None

    def test_search_grid_too_coarse_for_ladder(self, make_problem):
        # both levels certify individually, but no pair on the 2-point grid
        # clears rho/c < r
        assert search_certificate(make_problem("500", "500"), "S3", 0.1, 1.0, 2) is None

    @pytest.mark.parametrize(
        "lo, hi, points",
        [(0.0, 1.0, 5), (1.0, 0.5, 5), (1.0, 2.0, 1), (-1.0, 1.0, 5)],
    )
    def test_search_grid_validation(self, base_problem, lo, hi, points):
        with pytest.raises(ValueError):
            search_certificate(base_problem, "S1", lo, hi, points)

    def test_search_unknown_pattern(self, base_problem):
        with pytest.raises(ValueError):
            search_certificate(base_problem, "X1", 0.1, 1.0, 3)


class TestNonexistence:
    BOX = Box3((0.0, 1.0), (-10.0, 10.0), (-10.0, 10.0))
    POS_BOX = Box3((0.0, 1.0), (0.01, 10.0), (0.01, 10.0))

    def test_NE1_holds(self, make_problem):
        problem = make_problem("0.6*abs(u)", "0.5*abs(v)")
        cert = check_nonexistence(problem, 1, self.BOX)
        assert cert.pattern == "NONEXIST-1"
        assert cert.solutions == 0
        assert cert.ladder == ()
        assert cert.ne_box == self.BOX
        assert cert.samples_per_axis == 41
        assert [c.kind for c in cert.conditions] == ["NE1", "NE1"]
        assert cert.conditions[0].lhs == pytest.approx(0.6, rel=1e-12)
        assert cert.conditions[1].lhs == pytest.approx(0.5, rel=1e-12)
        assert cert.conditions[0].rho is None
        assert "sampled" in cert.conclusion and "slab" in cert.conclusion

    def test_NE1_exclusion_drops_zero_sample(self, make_problem):
        problem = make_problem("0.6*abs(u)", "0.5*abs(v)")
        cert = check_nonexistence(problem, 1, self.BOX, n=41)
        # the 41-point axis contains u = 0 exactly; without the exclusion
        # the ratio would be 0/0
        assert cert.conditions[0].estimate.samples == 41 * 40 * 41
        assert abs(cert.conditions[0].estimate.location[1]) >= 1e-5

    def test_NE1_flipped_coefficient_fails(self, make_problem):
        problem = make_problem("2*abs(u)", "0.5*abs(v)")
        with pytest.raises(ConditionFailed) as info:
            check_nonexistence(problem, 1, self.BOX)
        assert info.value.result.equation == 1
        assert info.value.result.lhs == pytest.approx(2.0, rel=1e-12)

    def test_NE2_holds(self, make_problem):
        problem = make_problem("100*u", "500*v")
        cert = check_nonexistence(problem, 2, self.POS_BOX)
        assert cert.pattern == "NONEXIST-2"
        assert [c.kind for c in cert.conditions] == ["NE2", "NE2"]
        assert cert.conditions[0].lhs == pytest.approx(100.0, rel=1e-12)
        assert cert.conditions[1].lhs == pytest.approx(500.0, rel=1e-12)
        assert "slab" not in cert.conclusion

    def test_NE2_t_restricted_to_interval(self, make_problem, base_problem):
        problem = make_problem("100*u", "500*v")
        cert = check_nonexistence(problem, 2, self.POS_BOX)
        assert cert.conditions[0].estimate.location[0] <= base_problem.b(1) + 1e-12
        assert cert.conditions[1].estimate.location[0] <= base_problem.b(2) + 1e-12

    def test_NE2_below_threshold_fails(self, make_problem):
        problem = make_problem("50*u", "500*v")
        with pytest.raises(ConditionFailed) as info:
            check_nonexistence(problem, 2, self.POS_BOX)
        assert info.value.result.equation == 1

    def test_NE3_first_assignment(self, make_problem):
        problem = make_problem("0.6*abs(u)", "600*v")
        cert = check_nonexistence(problem, 3, self.BOX)
        assert cert.pattern == "NONEXIST-3"
        assert [(c.kind, c.equation) for c in cert.conditions] == [("NE1", 1), ("NE2", 2)]

    def test_NE3_swapped_assignment(self, make_problem):
        problem = make_problem("200*u", "0.9*abs(v)")
        cert = check_nonexistence(problem, 3, self.BOX)
        assert [(c.kind, c.equation) for c in cert.conditions] == [("NE2", 1), ("NE1", 2)]

    def test_NE3_no_assignment_fits(self, make_problem):
        problem = make_problem("200*u", "600*v")
        with pytest.raises(ConditionFailed):
            check_nonexistence(problem, 3, self.BOX)

    def test_variant_validation(self, make_problem):
        problem = make_problem("0.6*abs(u)", "0.5*abs(v)")
        with pytest.raises(ValueError):
            check_nonexistence(problem, 0, self.BOX)
        with pytest.raises(ValueError):
            check_nonexistence(problem, 4, self.BOX)
        with pytest.raises(ValueError):
            check_nonexistence(problem, 1, self.BOX, n=2)

    def test_zero_scale_box_rejected(self, make_problem):
        problem = make_problem("0.6*abs(u)", "0.5*abs(v)")
        box = Box3((0.0, 1.0), (0.0, 0.0), (-1.0, 1.0))
        with pytest.raises(ValueError):
            check_nonexistence(problem, 1, box)

    def test_NE2_needs_positive_samples(self, make_problem):
        problem = make_problem("100*u", "500*v")
        box = Box3((0.0, 1.0), (-5.0, -1.0), (0.01, 10.0))
        with pytest.raises(ValueError):
            check_nonexistence(problem, 2, box)


class TestRevalidation:
    def test_pattern_certificate_revalidates_tight(self, base_problem):
        cert = check_pattern(base_problem, "S1", [0.02, 10.0])
        tight = revalidate_certificate(base_problem, cert)
        assert not tight.conservative
        assert tight.pattern == "S1" and tight.ladder == cert.ladder
        assert all(c.holds for c in tight.conditions)
        # the index-1 threshold switches from m_hat to the larger m
        assert tight.conditions[2].threshold == pytest.approx(1.45221660205, rel=1e-9)

    def test_nonexistence_certificate_revalidates_tight(self, make_problem):
        problem = make_problem("0.6*abs(u)", "0.5*abs(v)")
        cert = check_nonexistence(problem, 1, TestNonexistence.BOX)
        tight = revalidate_certificate(problem, cert)
        assert not tight.conservative
        assert tight.pattern == "NONEXIST-1"
        assert tight.ne_box == cert.ne_box
        assert tight.samples_per_axis == cert.samples_per_axis
        assert all(c.holds for c in tight.conditions)

    def test_tampered_pattern_reverified(self, base_problem):
        cert = check_pattern(base_problem, "S1", [0.02, 10.0])
        with pytest.raises(ConditionFailed):
            revalidate_certificate(base_problem, dataclasses.replace(cert, pattern="S2"))
