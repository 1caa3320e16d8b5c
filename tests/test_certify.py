"""Box extrema, index conditions, pattern ladders and nonexistence checks."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from fraccert.exprlang import DivisionByZero, DomainError, Num, Overflow, Var, parse, pretty
from fraccert.problem import Options, Problem
from fraccert.solver import build_grid, solve_picard
from test_exprlang import _branches, _fault_trees, _trees

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
        # the ends of the box range are admitted
        Box3((2.0 ** -480, 1.0), (-(2.0 ** 961), 2.0 ** 961), (-0.0, 2.0 ** -480))

    @pytest.mark.parametrize(
        "t, u, v, message",
        [
            ((-0.1, 1.0), (0.0, 1.0), (0.0, 1.0), "box t_range (-0.1, 1.0) must lie within [0, 1]"),
            ((0.0, 1.1), (0.0, 1.0), (0.0, 1.0), "box t_range (0.0, 1.1) must lie within [0, 1]"),
            ((0.0, 1.0), (1.0, -1.0), (0.0, 1.0), "box u_range = (1.0, -1.0) is not"),
            ((0.0, 1.0), (0.0, 1.0), (0.0, math.nan), "box v_range = (0.0, nan) is not"),
            # both ends are finite, but hi - lo is not
            ((0.0, 1.0), (-1e308, 1e308), (-1.0, 1.0), "box u_range = (-1e+308, 1e+308) is not"),
            # a subnormal width, where linspace divides before it scales
            ((0.0, 5e-324), (0.0, 1.0), (0.0, 1.0), "box t_range = (0.0, 5e-324) is not"),
            # 3 * (max/3) rounds past the largest double
            ((0.0, 1.0), (0.0, 1.0), (0.0, 1.7976931348623157e308),
             "box v_range = (0.0, 1.7976931348623157e+308) is not"),
            ((0.0, 1.0), (-1.0, 2.0 ** 962), (0.0, 1.0),
             f"box u_range = (-1.0, {2.0 ** 962!r}) is not"),
        ],
        ids=["t-below", "t-above", "unordered", "nan", "width-overflows", "subnormal",
             "largest-double", "past-the-range"],
    )
    def test_invalid(self, t, u, v, message):
        with pytest.raises(ValueError) as info:
            Box3(t, u, v)
        if message.endswith("is not"):
            message += " an ordered pair of ends 0 or of magnitude in [2^-480, 2^961]"
        assert str(info.value) == message


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

    @pytest.mark.parametrize("box, samples", [
        (Box3((0.5, 0.5), (1.0, 1.0), (2.0, 2.0)), 1),
        # the t half-width 1e-14/32 is already below 1e-15 before the first round
        (Box3((0.5, 0.5 + 1e-14), (1.0, 1.0), (2.0, 2.0)), 33),
    ], ids=["degenerate", "tiny"])
    def test_narrow_box_runs_no_round(self, box, samples):
        est = box_sup(parse("t+u+v"), box)
        assert (est.samples, est.refine_rounds, est.refined) == (samples, 0, False)

    @pytest.mark.parametrize("extremum", [box_sup, box_inf])
    @pytest.mark.parametrize("stop_after", range(9))
    def test_until_stops_refining(self, extremum, stop_after):
        expr = parse("sin(3*t) - u*v + cos(2*v)")
        seen = []

        def until(value):
            seen.append(value)
            return len(seen) > stop_after

        # until sees the estimate after the coarse scan and after each round
        # but the last; the rounds that ran give the estimate
        assert extremum(expr, UNIT, until=until) == extremum(expr, UNIT, refine_rounds=stop_after)
        assert seen == [extremum(expr, UNIT, refine_rounds=k).value
                        for k in range(min(stop_after + 1, 8))]

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


# an end of a box: 0, or of magnitude in [2^-480, 2^961]
_box_ends = st.just(0.0) | st.floats(2.0 ** -480, 2.0 ** 961) | st.floats(-(2.0 ** 961),
                                                                           -(2.0 ** -480))


class TestAxis:
    @settings(max_examples=200, deadline=None)
    @given(_box_ends, _box_ends, st.integers(3, 65))
    @example(-(2.0 ** 961), 2.0 ** 961, 4)
    @example(2.0 ** -480, math.nextafter(2.0 ** -480, 1.0), 65)
    def test_matches_linspace(self, lo, hi, grid):
        assume(hi > lo)
        with np.errstate(all="raise", under="ignore"):
            assert np.array_equal(certify._axis(lo, hi, grid), np.linspace(lo, hi, grid))

    def test_one_point(self):
        assert np.array_equal(certify._axis(0.5, 0.5, 33), [0.5])


def meshgrid_scan(fn, axes, sign):
    """Reference for certify._scan: the same argmax on a materialised mesh,
    and the mesh's size."""
    tg, ug, vg = np.meshgrid(*axes, indexing="ij")
    vals = sign * np.broadcast_to(fn(tg, ug, vg), tg.shape)
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[idx]), (float(tg[idx]), float(ug[idx]), float(vg[idx])), vals.size


# few values, with +0.0 and -0.0: many ties, and zeros of either sign
_tie_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])


@st.composite
def _scan_cases(draw):
    """Axes of 1-5 points and an un-broadcast value over them: 0-d (a numpy
    scalar or a 0-d array) or 3-d with any subset of the axes kept."""
    axes = [np.array(draw(st.lists(_tie_values | st.floats(-9.0, 9.0), min_size=1,
                                   max_size=5))) for _ in range(3)]
    kept = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    if not any(kept):
        value = draw(_tie_values)
        return axes, draw(st.sampled_from([np.float64(value), np.asarray(value)]))
    shape = tuple(axis.size if keep else 1 for axis, keep in zip(axes, kept))
    return axes, draw(hnp.arrays(float, shape, elements=_tie_values))


class TestScan:
    @settings(max_examples=300, deadline=None)
    @given(_scan_cases(), st.sampled_from([1.0, -1.0]))
    def test_matches_the_full_grid_argmax(self, case, sign):
        axes, vals = case
        full = tuple(axis.size for axis in axes)

        def fn(t, u, v):
            assert (t.shape, u.shape, v.shape) == ((full[0], 1, 1), (1, full[1], 1),
                                                   (1, 1, full[2]))
            return vals

        ref = sign * np.broadcast_to(vals, full)
        idx = np.unravel_index(np.argmax(ref), full)
        want = (float(ref[idx]), tuple(float(axis[k]) for axis, k in zip(axes, idx)))
        # repr tells -0.0 from +0.0, in the value and in the location
        assert repr(certify._scan(fn, axes, sign)) == repr(want)


def on_mesh(call):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify, "_scan", lambda fn, axes, sign: meshgrid_scan(fn, axes, sign)[:2])
        return call()


# Plateaus and kinks tie many samples at the extremum, so equal locations
# pin the first (C-order) maximum on both grids.
TIE_HEAVY = ["1", "min(1, max((u-0.2)/0.3, 0))", "abs(v)"]


# Parity inputs: random trees, constant trees and trees of one variable,
# on boxes with tenth-step ends (many ties) and often degenerate axes.
_tenths = st.integers(-30, 30).map(lambda k: k / 10)
_parity_leaves = st.integers(0, 30).map(lambda k: Num(k / 10))
_parity_trees = st.one_of(
    _trees,
    st.recursive(_parity_leaves, _branches, max_leaves=6),
    st.sampled_from("tuv").flatmap(lambda name: st.recursive(
        st.one_of(_parity_leaves, st.just(Var(name))), _branches, max_leaves=6)),
)


def _span(ends):
    return st.one_of(ends.map(lambda x: (x, x)),
                     st.tuples(ends, ends).map(lambda p: (min(p), max(p))))


_parity_boxes = st.builds(Box3, _span(st.integers(0, 10).map(lambda k: k / 10)),
                          _span(_tenths), _span(_tenths))


def _plane_trees(name):
    """A tree times a bump that is 0 for |w_i| >= 1e-9, alone (NE1 holds on the
    ratio) or over 1000*w_i (NE2 holds on it), so the plane w_i = 0 decides."""
    return st.tuples(_parity_trees, st.sampled_from(["", f"1000*{name} + "])).map(
        lambda p: parse(f"{p[1]}({pretty(p[0])})*max(0, 1 - 1e9*abs({name}))"))


# NE ranges: often one point, with -0.0 ends, and often holding the plane w_i = 0
_ne_ranges = _span(_tenths | st.just(-0.0)) | _tenths.map(lambda x: (-abs(x), abs(x)))


class TestOpenGridParity:
    @pytest.mark.parametrize("extremum", [box_sup, box_inf])
    @pytest.mark.parametrize("box", [
        UNIT,
        Box3((0.0, 0.775), (0.5, 2.0), (-3.0, 3.0)),
        Box3((0.3, 0.3), (-1.0, 1.0), (0.0, 0.0)),
    ], ids=["unit", "I0-like", "degenerate"])
    @pytest.mark.parametrize("text", TIE_HEAVY)
    def test_box_extremum(self, extremum, box, text):
        run = lambda: extremum(parse(text), box)
        # dataclass equality: value, location and samples
        assert run() == on_mesh(run)

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
    def test_nonexistence(self, make_problem, box, variant, f1, f2):
        problem = make_problem(f1, f2)

        def run():
            try:
                return check_nonexistence(problem, variant, box).conditions
            except ConditionFailed as exc:
                return (exc.result,)

        assert run() == on_mesh(run)

    @settings(max_examples=80, deadline=None)
    @given(_parity_trees, _parity_boxes, st.integers(3, 9), st.integers(0, 3))
    def test_random_box_extrema(self, tree, box, grid, rounds):
        for extremum in (box_sup, box_inf):
            run = lambda: extremum(tree, box, grid=grid, refine_rounds=rounds)
            assert run() == on_mesh(run)

    @settings(max_examples=60, deadline=None)
    @given(_parity_trees, _parity_trees, _parity_boxes, st.integers(1, 3), st.integers(3, 9))
    def test_random_nonexistence(self, base_problem, f1, f2, box, variant, n):
        problem = dataclasses.replace(base_problem, f=(f1, f2), f_text=(pretty(f1), pretty(f2)))

        def run():
            try:
                return check_nonexistence(problem, variant, box, n).conditions
            except ConditionFailed as exc:
                return (exc.result,)
            except ValueError as exc:  # a box the variant cannot sample
                return str(exc)

        assert run() == on_mesh(run)


def _outcome(call):
    """A result, the failed condition, or an error's class and message."""
    try:
        return call()
    except ConditionFailed as exc:
        return (exc.result,)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def on_full_mesh(call):
    """``_outcome(call)`` on the full 3-D mesh of the full axes, and the size
    of each mesh scanned: every tree reports that it reads t, u and v, and
    _scan is the meshgrid reference."""
    sizes = []
    compiled = certify._compiled

    def scan(fn, axes, sign):
        *found, size = meshgrid_scan(fn, axes, sign)
        sizes.append(size)
        return tuple(found)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify, "_scan", scan)
        patch.setattr(certify, "_compiled", lambda expr: (compiled(expr)[0], frozenset("tuv")))
        return _outcome(call), sizes


# -0.0 box ends: an unread axis must report the full axis's first point,
# 0 * step + lo, which is +0.0 unless the range is a single point
_SIGNED_ZERO_BOX = Box3((0.0, 1.0), (-0.0, 1.0), (-0.0, -0.0))


class TestReadAxes:
    """Only the axes a tree reads are built. Results compare by repr, so
    value, location (with the sign of a zero), samples and every fault's
    class, offset and message match the full-mesh scan."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_parity_trees, _fault_trees), _parity_boxes, st.integers(3, 9),
           st.integers(0, 3))
    @example(Var("t"), _SIGNED_ZERO_BOX, 3, 2)
    @example(Num(1.0), _SIGNED_ZERO_BOX, 5, 1)
    def test_box_extrema(self, tree, box, grid, rounds):
        for extremum in (box_sup, box_inf):
            call = lambda: extremum(tree, box, grid=grid, refine_rounds=rounds)
            want, sizes = on_full_mesh(call)
            assert repr(_outcome(call)) == repr(want)
            if isinstance(want, ExtremumEstimate):
                assert want.samples == sum(sizes)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_parity_trees, _fault_trees), _parity_trees, _parity_boxes,
           st.integers(1, 3), st.integers(3, 9))
    @example(Var("u"), Var("v"), Box3((0.0, 1.0), (-1.0, 1.0), (-0.0, 2.0)), 1, 5)
    def test_nonexistence(self, base_problem, f1, f2, box, variant, n):
        problem = dataclasses.replace(base_problem, f=(f1, f2), f_text=(pretty(f1), pretty(f2)))
        call = lambda: check_nonexistence(problem, variant, box, n).conditions
        want, sizes = on_full_mesh(call)
        assert repr(_outcome(call)) == repr(want)
        if isinstance(want[0], ConditionResult):
            # the last assignment tried scans, per equation, its ratio and, when
            # the w_i range holds 0, the plane w_i = 0: the last four meshes at most
            assert {cond.estimate.samples for cond in want} <= set(sizes[-4:])


class TestRefineFaults:
    # the 3-point coarse axis of u misses u = 0.75; a refine round hits it
    BOX = Box3((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))

    @pytest.mark.parametrize("text, extremum, error, message", [
        ("log(abs(u - 0.75)) + v", box_inf, DomainError,
         "log of a non-positive number (operator at offset 0)"),
        ("1/(u - 0.75) * t", box_sup, DivisionByZero, "division by zero (operator at offset 1)"),
        ("exp(1000*(1 - 4*abs(u - 0.75))) - v", box_sup, Overflow,
         "exp overflowed to a non-finite value (operator at offset 0)"),
    ])
    def test_fault_in_refine_round(self, text, extremum, error, message):
        expr = parse(text)
        extremum(expr, self.BOX, grid=3, refine_rounds=0)
        with pytest.raises(error) as info:
            extremum(expr, self.BOX, grid=3, refine_rounds=4)
        assert type(info.value) is error and str(info.value) == message

    def test_until_stops_before_the_faulting_round(self):
        est = box_sup(parse("1/(u - 0.75) * t"), self.BOX, grid=3, refine_rounds=4,
                      until=lambda value: True)
        assert (est.samples, est.refine_rounds) == (27, 0)


class TestLevelShortCircuit:
    @pytest.fixture
    def watch(self, monkeypatch):
        """Log (extremum, equation, box) of every box extremum sampled on a problem."""
        def install(problem):
            calls = []
            for name in ("box_sup", "box_inf"):
                def counted(expr, box, *args, _name=name, _real=getattr(certify, name), **kwargs):
                    calls.append((_name, 1 if expr is problem.f[0] else 2, box))
                    return _real(expr, box, *args, **kwargs)
                monkeypatch.setattr(certify, name, counted)
            return calls
        return install

    def test_I1_level_stops_at_equation_1(self, make_problem, watch):
        problem = make_problem("1000", "0.1")
        sampled = watch(problem)
        with pytest.raises(ConditionFailed) as info:
            check_pattern(problem, "S2", [1.0, 2.0])
        assert (info.value.result.kind, info.value.result.equation) == ("I1", 1)
        assert [call[:2] for call in sampled] == [("box_sup", 1)]

    def test_I0_level_goes_to_the_starred_fallback(self, make_problem, watch):
        problem = make_problem("0", "0")
        sampled = watch(problem)
        with pytest.raises(ConditionFailed) as info:
            check_pattern(problem, "S1", [1.0, 1000.0])
        assert (info.value.result.kind, info.value.result.equation) == ("I0", 1)
        # equation 2 is sampled only on its starred box, which starts at v = 0
        assert [call[:2] for call in sampled] == [("box_inf", 1), ("box_inf", 1), ("box_inf", 2)]
        assert sampled[2][2].v_range[0] == 0.0

    def test_second_equation_failing_samples_both(self, make_problem, watch):
        problem = make_problem("0.1", "1000")
        sampled = watch(problem)
        with pytest.raises(ConditionFailed) as info:
            check_pattern(problem, "S2", [1.0, 2.0])
        assert info.value.result.equation == 2
        assert [call[:2] for call in sampled] == [("box_sup", 1), ("box_sup", 2)]

    def test_checks_still_return_both_results(self, make_problem, watch):
        problem = make_problem("1000", "0")
        sampled = watch(problem)
        assert [res.holds for res in check_I1(problem, 1.0, 1.0)] == [False, True]
        assert [res.holds for res in check_I0(problem, 1.0, 1.0)] == [True, False]
        assert len(sampled) == 4


# Ramps h*min(1, max((w - s)/d, 0)) in u or v: on an index box a ramp can
# cross a threshold between the coarse scan and a refined round.
_ramps = st.builds(lambda var, h, s, d: parse(f"{h!r}*min(1, max(({var} - {s!r})/{d!r}, 0))"),
                   st.sampled_from("uv"), st.floats(0.0, 1000.0), st.floats(0.0, 10.0),
                   st.floats(0.01, 10.0))
_radii_pairs = st.tuples(st.floats(-3.0, 1.0), st.floats(-3.0, 1.0)).map(
    lambda p: (10.0 ** p[0], 10.0 ** p[1]))


class TestEarlyStop:
    """An index condition stops refining at its first failing round."""

    def test_failed_condition_stops_after_the_coarse_scan(self, make_problem):
        failed, held = check_I1(make_problem("1000", "0.1"), 1.0, 1.0)
        assert (failed.holds, failed.estimate.refine_rounds, failed.estimate.samples) == (
            False, 0, 33**3)
        assert (held.holds, held.estimate.refine_rounds) == (True, 8)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(_trees, _ramps), st.one_of(_trees, _ramps), _radii_pairs,
           st.floats(0.0, 1.0))
    # a peak (I1) and a notch (I0) between coarse u points: equation 1 fails at round 1
    @example(parse("2*max(0, 1 - abs(u - 0.34)/0.05)"), Num(0.1), (1.0, 1.0), 1e-9)
    @example(parse("100 - 20*max(0, 1 - abs(u - 20.3)/2)"), Num(0.1), (1.0, 1.0), 1e-9)
    def test_verdicts_match_full_refinement(self, base_problem, f1, f2, rho, margin):
        problem = dataclasses.replace(
            base_problem, f=(f1, f2), f_text=(pretty(f1), pretty(f2)),
            options=dataclasses.replace(base_problem.options, margin=margin))
        for kind, i in ((kind, i) for kind in ("I1", "I0", "I0star") for i in (1, 2)):
            sup = kind == "I1"
            box = certify._index_box(problem, kind, rho, i)
            full = certify._condition(problem, kind, i, rho, box,
                                      (box_sup if sup else box_inf)(problem.f[i - 1], box))
            early = certify._check_one(problem, kind, rho, i)
            if full.holds:
                assert early == full
                continue
            # only the estimate and lhs differ; the lhs is no further past the threshold
            assert not early.holds
            assert dataclasses.replace(early, lhs=full.lhs, estimate=full.estimate) == full
            assert early.lhs <= full.lhs if sup else early.lhs >= full.lhs
            assert early.estimate.refine_rounds <= full.estimate.refine_rounds


class TestNonexistenceShortCircuit:
    BOX = Box3((0.0, 1.0), (-10.0, 10.0), (-10.0, 10.0))

    @pytest.fixture
    def sampled(self, monkeypatch):
        """Log (kind, equation) of every nonexistence condition sampled."""
        calls = []

        def counted(problem, kind, i, box, n, _real=certify._ne_condition):
            calls.append((kind, i))
            return _real(problem, kind, i, box, n)
        monkeypatch.setattr(certify, "_ne_condition", counted)
        return calls

    def test_stops_at_equation_1(self, make_problem, sampled):
        with pytest.raises(ConditionFailed) as info:
            check_nonexistence(make_problem("2*abs(u)", "0.5*abs(v)"), 1, self.BOX)
        assert (info.value.result.kind, info.value.result.equation) == ("NE1", 1)
        assert sampled == [("NE1", 1)]

    def test_second_equation_failing_samples_both(self, make_problem, sampled):
        with pytest.raises(ConditionFailed) as info:
            check_nonexistence(make_problem("0.6*abs(u)", "2*abs(v)"), 1, self.BOX)
        assert info.value.result.equation == 2
        assert sampled == [("NE1", 1), ("NE1", 2)]

    def test_each_assignment_stops_at_its_first_failure(self, make_problem, sampled):
        # 10*|u| fails both NE1 (above m_1) and NE2 (below M_1) for equation 1
        with pytest.raises(ConditionFailed) as info:
            check_nonexistence(make_problem("10*abs(u)", "0.5*abs(v)"), 3, self.BOX)
        assert (info.value.result.kind, info.value.result.equation) == ("NE2", 1)
        assert sampled == [("NE1", 1), ("NE2", 1)]

    def test_holding_assignment_samples_both(self, make_problem, sampled):
        cert = check_nonexistence(make_problem("200*u", "0.9*abs(v)"), 3, self.BOX)
        assert [(c.kind, c.equation) for c in cert.conditions] == [("NE2", 1), ("NE1", 2)]
        assert sampled == [("NE1", 1), ("NE2", 1), ("NE1", 2)]

    def test_failure_comes_before_an_overflow_in_equation_2(self, make_problem):
        # equation 2's ratio 1e306/|v| would overflow, but equation 1 fails first
        box = Box3((0.0, 1.0), (-10.0, 10.0), (-1e-3, 1e-3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditionFailed) as info:
                check_nonexistence(make_problem("100*abs(u)", "1e306"), 1, box)
        assert (info.value.result.kind, info.value.result.equation) == ("NE1", 1)


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

    @pytest.mark.parametrize("check, rho", [
        (lambda p: check_I0(p, 1e306, 1e306), (1e306, 1e306)),
        (lambda p: check_I0(p, 1e307, 1.0), (1e307, 1.0)),
        (lambda p: check_I0_star(p, 1.0, 1e306, 2), (1.0, 1e306)),
        (lambda p: search_certificate(p, "S2", 1.0, 1e306, 3), (1.0, 1e306)),
        (lambda p: check_I1(p, 1e308, 1.0), (1e308, 1.0)),
        (lambda p: check_I0(p, 1.0, 3e305), (1.0, 3e305)),
        (lambda p: check_I0_star(p, 2e306, 1.0, 2), (2e306, 1.0)),
        (lambda p: check_pattern(p, "S1", [(2e306, 1.0), (1.5e308, 1000.0)]), (2e306, 1.0)),
        (lambda p: check_I1(p, 5e-324, 1.0), (5e-324, 1.0)),
        (lambda p: check_I1(p, 1.0, 2.0 ** 481), (1.0, 2.0 ** 481)),
        (lambda p: search_certificate(p, "S2", 2.0 ** -481, 1.0, 3), (2.0 ** -481, 1.0)),
    ], ids=["I0-other", "I0-own", "I0star", "search", "I1", "I0", "I0star-width",
            "starred-fallback", "subnormal", "past-the-top", "search-below"])
    def test_radius_out_of_range_named(self, make_problem, check, rho):
        # a radius past the range is rejected before any box is built from it, so
        # no rho_j/c_j and no box width overflows
        with pytest.raises(ValueError) as info:
            check(make_problem("0", "0"))
        assert str(info.value) == ("radii must be positive, of magnitude in [2^-480, 2^480], "
                                   f"got {rho!r}")

    @pytest.mark.parametrize("check", [
        lambda p: check_I0(p, 2.0 ** 480, 2.0 ** 480),
        lambda p: check_I1(p, 2.0 ** -480, 2.0 ** 480),
        lambda p: check_I0_star(p, 2.0 ** 480, 2.0 ** -480, 1),
        lambda p: search_certificate(p, "S2", 2.0 ** 479, 2.0 ** 480, 7),
    ], ids=["I0", "I1", "I0star", "search"])
    def test_radius_at_the_range_ends_builds_its_box(self, make_problem, check):
        # rho/c <= 2^960 with c >= 2^-480: every box end and width is finite
        check(make_problem("0", "0"))

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

    @pytest.mark.parametrize("ladder, message", [
        # 1e300 / 2^-480 is inf on Python floats; no certificate may hold it
        ([2.0 ** -480, 1.0], "condition I0 for equation 1: f1/rho_1 overflows"),
        ([1e-10, 1e300], "radii must be positive, of magnitude in [2^-480, 2^480], "
                         "got (1e+300, 1e+300)"),
    ], ids=["f-overflows", "radius-out-of-range"])
    def test_overflowing_ratio_raises(self, make_problem, ladder, message):
        problem = make_problem("1e300", "1e300")
        with pytest.raises(ValueError) as info:
            check_pattern(problem, "S1", ladder)
        assert str(info.value) == message

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


def _staircase(var, first, gap, steps, height):
    """Ramps h*s*min(1, max((w - s)/s, 0)) at s = 10^first, 10^(first + gap), ...:
    index 0 holds just past each step and index 1 far past it, so the search
    below certifies about half its draws."""
    scales = [10.0 ** (first + gap * k) for k in range(steps)]
    return parse(" + ".join(f"{height * s!r}*min(1, max(({var} - {s!r})/{s!r}, 0))"
                            for s in scales))


_staircases = st.builds(_staircase, st.sampled_from("uv"), st.integers(-3, 0),
                        st.integers(5, 8), st.integers(1, 3), st.floats(500.0, 50000.0))
_forcings = st.one_of(_staircases, _staircases, st.floats(0.0, 1e4).map(Num), _ramps, _trees)


def assert_boxes_distinct(cert):
    """No two conditions of ``cert`` sample one equation on one box."""
    pairs = [(cond.equation, cond.box) for cond in cert.conditions]
    assert len(set(pairs)) == len(pairs), pairs


class TestDistinctBoxes:
    """No certificate repeats an (equation, box) pair: ladder radii strictly
    increase per equation, I1 boxes reach t = 1 and I0 boxes stop at b_i < 1,
    the starred fallback replaces its level, and a nonexistence certificate
    holds one condition per equation. The CLI's nonnegativity warnings rely on it."""

    @settings(max_examples=40, deadline=None)
    @given(_forcings, _forcings, st.sampled_from(sorted(PATTERNS)), st.integers(2, 33))
    @example(Num(10.0), Num(10.0), "S1", 13)
    @example(Num(1000.0), Num(0.01), "S1", 7)  # the starred fallback at level 1
    @example(parse(S3_F1), parse(S3_F2), "S5", 25)
    @example(parse(S6_F1), parse(S6_F2), "S6", 25)
    def test_pattern_and_search(self, base_problem, f1, f2, pattern, points):
        problem = dataclasses.replace(base_problem, f=(f1, f2), f_text=(pretty(f1), pretty(f2)))
        cert = search_certificate(problem, pattern, 1e-4, 1e20, points)
        if cert is not None:
            assert_boxes_distinct(cert)
            assert_boxes_distinct(check_pattern(problem, pattern, cert.ladder))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0), st.integers(1, 3),
           st.sampled_from([Box3((0.0, 1.0), (-10.0, 10.0), (-10.0, 10.0)),
                            Box3((0.0, 1.0), (0.01, 10.0), (0.01, 10.0))]))
    def test_nonexistence(self, make_problem, a1, a2, variant, box):
        problem = make_problem(f"{a1!r}*abs(u)", f"{a2!r}*v")
        try:
            assert_boxes_distinct(check_nonexistence(problem, variant, box, 9))
        except ConditionFailed:
            pass


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

    def test_NE1_positive_on_the_plane_fails(self, make_problem):
        # the ratio 1e-9/|u| stays below m_1 off the slab, but f_1 > 0 on u = 0
        with pytest.raises(ConditionFailed) as info:
            check_nonexistence(make_problem("1e-9", "1e-9"), 1, self.BOX)
        res = info.value.result
        assert (res.kind, res.equation, res.holds) == ("NE1", 1, False)
        assert (res.lhs, res.threshold, res.estimate.value) == (1e-9, 0.0, 1e-9)
        assert res.estimate.location == (0.0, 0.0, -10.0)
        assert res.estimate.samples == 41 * 41
        assert str(info.value).startswith("condition NE1 failed for equation 1 on the plane u = 0:")

    def test_NE2_negative_on_the_plane_fails(self, make_problem):
        problem = make_problem("100*u", "500*v - 1e-9")
        # the box's v range leaves out 0, so the plane is never scanned
        assert check_nonexistence(problem, 2, self.POS_BOX).solutions == 0
        with pytest.raises(ConditionFailed) as info:
            check_nonexistence(problem, 2, self.BOX)
        res = info.value.result
        assert (res.kind, res.equation, res.lhs, res.threshold) == ("NE2", 2, -1e-9, 0.0)
        assert res.estimate.kind == "inf" and res.estimate.location[2] == 0.0
        assert "on the plane v = 0" in str(info.value)

    def test_no_NE1_box_holds_the_tiny_forcing_solution(self, make_problem, model1, model2):
        problem = make_problem("1e-9", "1e-9")
        sol = solve_picard(build_grid((model1, model2), 201), *problem.f)
        u, v = sol.u_values, sol.v_values
        assert sol.converged and 0.0 < np.abs(u).max() < 1e-8 and 0.0 < np.abs(v).max() < 1e-8
        hull = Box3((0.0, 1.0), (u.min(), u.max()), (v.min(), v.max()))
        for box in (self.BOX, UNIT, hull):
            with pytest.raises(ConditionFailed):
                check_nonexistence(problem, 1, box)

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

    _ranges = st.tuples(_box_ends, _box_ends).map(lambda r: tuple(sorted(r))).filter(
        lambda r: max(abs(r[0]), abs(r[1])) > 0.0)

    @settings(max_examples=100, deadline=None)
    @given(_ranges, _ranges, st.integers(3, 9))
    @example((0.0, 2.0 ** -480), (-1.0, 1.0), 41)  # the smallest scale: eps = 1e-6 * 2^-480
    @example((-1e-6, 1e-6), (2.0 ** -480, 2.0 ** -480), 3)
    @example((0.0, 1.0), (-(2.0 ** 961), 2.0 ** 961), 4)  # the widest box
    def test_NE1_never_short_of_samples(self, make_problem, u, v, n):
        # linspace keeps both ends, and one of them has |w_i| = scale, past the slab;
        # a one-point range is one sample
        cert = check_nonexistence(make_problem("0", "0"), 1, Box3((0.0, 1.0), u, v), n)
        for cond, own, other in zip(cert.conditions, (u, v), (v, u)):
            eps = certify.NE_EXCLUSION * max(abs(own[0]), abs(own[1]))
            kept = int(np.count_nonzero(np.abs(np.linspace(*own, n)) >= eps))
            kept = kept if own[1] > own[0] else 1
            assert kept >= 1
            assert cond.estimate.samples == n * kept * (n if other[1] > other[0] else 1)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_parity_trees, _plane_trees("u")), st.one_of(_parity_trees, _plane_trees("v")),
           _ne_ranges, _ne_ranges, st.integers(3, 9))
    @example(parse("max(0, 1 - 1e9*abs(u))"), Num(0.0), (-1.0, 1.0), (-0.0, -0.0), 3)
    @example(parse("1000*u - t*max(0, 1 - 1e9*abs(u))"), parse("v"), (-0.0, 2.0), (0.5, 0.5), 5)
    def test_ratio_and_plane_follow_the_box_rules(self, base_problem, f1, f2, u, v, n):
        # the plane is a _box_extremum call without refinement; the ratio's samples
        # count the open grid it scanned, a one-point range once
        problem = dataclasses.replace(base_problem, f=(f1, f2), f_text=(pretty(f1), pretty(f2)))
        for kind, i in ((kind, i) for kind in ("NE1", "NE2") for i in (1, 2)):
            try:
                res = certify._ne_condition(problem, kind, i, Box3((0.0, 1.0), u, v), n)
            except ValueError:  # a zero scale, or no positive samples for NE2
                continue
            ranges = [(0.0, 1.0 if kind == "NE1" else problem.b(i)), u, v]
            if res.threshold == 0.0:
                assert not res.holds
                ranges[i] = (0.0, 0.0)
                plane = certify._box_extremum(problem.f[i - 1], Box3(*ranges), n, 0,
                                              1.0 if kind == "NE1" else -1.0)
                assert repr(res.estimate) == repr(plane)  # the signs of zeros too
                continue
            lo, hi = ranges[i]
            eps = certify.NE_EXCLUSION * max(abs(lo), abs(hi))
            if kind == "NE1":
                own = np.count_nonzero(np.abs(np.linspace(lo, hi, n)) >= eps) if hi > lo else 1
            else:
                own = n if hi > max(lo, eps) else 1
            other = n if ranges[3 - i][1] > ranges[3 - i][0] else 1
            assert res.estimate.samples == n * own * other

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

    @pytest.mark.parametrize("variant, box", [
        (1, Box3((0.0, 1.0), (-1e-3, 1e-3), (-1e-3, 1e-3))),
        (2, Box3((0.0, 1.0), (1e-9, 1e-3), (1e-9, 1e-3))),
    ])
    def test_overflowing_ratio_raises(self, make_problem, variant, box):
        # 1e306 / 1e-9 overflows: an error naming the condition, no warning
        problem = make_problem("1e306", "1e306")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^condition NE{variant} for equation 1: "
                                                 r"growth ratio f1/\|u\| overflows$"):
                check_nonexistence(problem, variant, box)


class TestProblemChecks:
    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError) as info:
            Options(margin=-1.0)
        assert str(info.value) == "margin must be >= 0, got -1.0"

    def test_thresholds_need_constants(self, params1, params2):
        problem = Problem.build((params1, params2), ("10", "10"), with_constants=False)
        with pytest.raises(ValueError) as info:
            problem.m_used(1)
        assert str(info.value) == "problem was built without threshold constants"


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
