"""Expression parsing, evaluation, rendering and sampled sign checks."""

import copy
import dataclasses
import gc
import importlib
import inspect
import itertools
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraccert
from _golden import ERROR_CASES, EVAL_CASES
from fraccert import exprlang
from fraccert.certify import Box3, box_inf
from fraccert.exprlang import (
    MAX_DEPTH,
    ArityError,
    Call,
    DivisionByZero,
    DomainError,
    EvalError,
    ExprSyntaxError,
    Num,
    Overflow,
    UnknownIdentifier,
    Var,
    eval_exprs,
    parse,
    pretty,
)


def evaluate(expr, t, u, v):
    """``eval_exprs`` of the one tree ``expr``: its value, un-broadcast."""
    return eval_exprs((expr,), t, u, v)[0]


class TestGolden:
    @pytest.mark.parametrize("text, point, expected", EVAL_CASES)
    def test_eval(self, text, point, expected):
        assert evaluate(parse(text), *point) == pytest.approx(expected, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("text, point, err, offset", ERROR_CASES)
    def test_faults_with_positions(self, text, point, err, offset):
        if point is None:
            with pytest.raises(err) as info:
                parse(text)
        else:
            expr = parse(text)
            with pytest.raises(err) as info:
                evaluate(expr, *point)
        assert info.value.position == offset
        assert f"offset {offset}" in str(info.value)


class TestParsing:
    def test_number_forms(self):
        assert evaluate(parse(".5 + 2."), 0, 0, 0) == 2.5
        assert evaluate(parse("1e3"), 0, 0, 0) == 1000.0
        assert evaluate(parse("1.5E-2"), 0, 0, 0) == 0.015

    def test_whitespace(self):
        assert evaluate(parse("  1 +  2  "), 0, 0, 0) == 3.0

    def test_variables(self):
        assert parse("t") == Var("t")
        assert evaluate(parse("v"), 0.0, 0.0, -2.5) == -2.5

    @pytest.mark.parametrize("text, tree", [
        ("-u", Call("neg", (Var("u"),))),
        ("u - v", Call("-", (Var("u"), Var("v")))),
        ("u^2", Call("^", (Var("u"), Num(2.0)))),
        ("abs(u)", Call("abs", (Var("u"),))),
    ])
    def test_every_operation_is_a_call(self, text, tree):
        assert parse(text) == tree

    def test_neg_is_not_a_function(self):
        with pytest.raises(UnknownIdentifier) as info:
            parse("neg(u)")
        assert info.value.position == 0

    @pytest.mark.parametrize(
        "text, err",
        [
            ("", ExprSyntaxError),
            ("2*(3", ExprSyntaxError),
            ("(1))", ExprSyntaxError),
            ("1 @ 2", ExprSyntaxError),
            ("max(1, 2, 3)", ArityError),
            ("abs()", ExprSyntaxError),
            ("sin(w)", UnknownIdentifier),
        ],
    )
    def test_malformed(self, text, err):
        with pytest.raises(err):
            parse(text)

    def test_unexpected_character_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("1 @ 2")
        assert info.value.position == 2

    @pytest.mark.parametrize("text, message", [
        ("", "expected a value, found 'end of input' (at offset 0)"),
        ("   ", "expected a value, found 'end of input' (at offset 3)"),
        ("(u   ", "expected ')', found 'end of input' (at offset 5)"),
        ("(u", "expected ')', found 'end of input' (at offset 2)"),
        ("u +", "expected a value, found 'end of input' (at offset 3)"),
        ("\u00e9", "unexpected character '\u00e9' (at offset 0)"),
        # the tokenizer reads the whole text first, so its error wins over
        # the earlier syntax error at ')'
        ("u + ) @", "unexpected character '@' (at offset 6)"),
    ], ids=["empty", "blank", "trailing-blank", "open-paren", "dangling-op", "non-ascii",
            "bad-char-wins"])
    def test_syntax_error_messages(self, text, message):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert str(info.value) == message
        assert info.value.position == int(message.rsplit(" ", 1)[1][:-1])

    @pytest.mark.parametrize("text", ["u + 1   ", "u\xa0+\xa01", "\tu +\n1"])
    def test_any_unicode_space_separates(self, text):
        assert parse(text) == Call("+", (Var("u"), Num(1.0)))
        assert parse(text).args[1].pos == len(text.rstrip()) - 1

    @pytest.mark.parametrize(
        "text, offset",
        [("1e999", 0), ("1 + 1e999", 4), ("1/1e999", 2), ("min(1, 1e999)", 7),
         ("-1e400", 1), ("u^2e308", 2)],
    )
    def test_out_of_range_literal(self, text, offset):
        # a literal that rounds to +-inf is rejected where it stands, so no
        # evaluation ever starts from a non-finite number
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert info.value.position == offset
        assert "out of range" in str(info.value)

    def test_extreme_finite_literals(self):
        assert evaluate(parse("1.7976931348623157e308"), 0, 0, 0) == np.finfo(float).max
        assert evaluate(parse("1e-400"), 0, 0, 0) == 0.0  # underflow is not a fault


def nested(shape, levels):
    """A text of ``shape`` that nests ``levels`` levels, and the offset of the
    token that opens its last level."""
    if shape == "parentheses":
        return "(" * levels + "1" + ")" * levels, levels - 1
    if shape == "unary-minus":
        return "-" * levels + "1", levels - 1
    if shape == "call":
        return "abs(" * levels + "1" + ")" * levels, 4 * (levels - 1)
    op = {"power-chain": "^", "flat-sum": "+"}[shape]
    return op.join(["1"] * (levels + 1)), 2 * levels - 1


NESTED_SHAPES = ("parentheses", "unary-minus", "power-chain", "flat-sum")


class TestDepthLimit:
    @pytest.mark.parametrize("shape", NESTED_SHAPES + ("call",))
    def test_at_the_limit(self, shape):
        text, _ = nested(shape, MAX_DEPTH)
        expr = parse(text)
        grid = np.ix_(_T_AXIS, _U_AXIS, _V_AXIS)
        assert np.all(np.abs(evaluate(expr, *grid)) >= 1.0)
        assert parse(pretty(expr)) == expr
        assert pickle.loads(pickle.dumps(expr)) == expr

    @pytest.mark.parametrize("shape", NESTED_SHAPES + ("call",))
    def test_deep_copy_at_the_limit(self, shape):
        expr = parse(nested(shape, MAX_DEPTH)[0])
        assert copy.deepcopy(expr) == expr

    def test_deep_copy_of_a_problem_at_the_limit(self, make_problem):
        text = "min(u, " * MAX_DEPTH + "1" + ")" * MAX_DEPTH
        problem = make_problem(nested("call", MAX_DEPTH)[0], text)
        assert copy.deepcopy(problem) == problem

    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 10_000])
    @pytest.mark.parametrize("shape", NESTED_SHAPES + ("call",))
    def test_past_the_limit(self, shape, levels):
        # rejected where level MAX_DEPTH + 1 opens, however deep the text goes
        text, _ = nested(shape, levels)
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert info.value.position == nested(shape, MAX_DEPTH + 1)[1]
        assert f"nests deeper than {MAX_DEPTH} levels" in str(info.value)

    @pytest.mark.parametrize("text, levels", [
        ("u", 0), ("(u)", 1), ("u + v", 1), ("1 + 2 + 3", 2), ("-u^2", 2), ("2^3^4", 2),
        ("min(u, (v))", 2), ("((1 + 2) * 3)", 4),
    ])
    def test_levels_counted(self, text, levels):
        # each operator, function call and pair of parentheses is a level
        parse("(" * (MAX_DEPTH - levels) + text + ")" * (MAX_DEPTH - levels))
        with pytest.raises(ExprSyntaxError):
            parse("(" * (MAX_DEPTH - levels + 1) + text + ")" * (MAX_DEPTH - levels + 1))


class TestEvaluation:
    @pytest.mark.parametrize(
        "text, err",
        [
            ("log(0)", DomainError),
            ("log(-1)", DomainError),
            ("(-2)^0.5", DomainError),
            ("0^-1", DivisionByZero),
            ("exp(1000)", Overflow),
            ("10^400", Overflow),
        ],
    )
    def test_faults(self, text, err):
        with pytest.raises(err):
            evaluate(parse(text), 0.0, 0.0, 0.0)

    def test_eval_error_is_arithmetic(self):
        with pytest.raises(EvalError):
            evaluate(parse("1/0"), 0.0, 0.0, 0.0)
        assert issubclass(DivisionByZero, ArithmeticError)

    def test_negative_base_integer_exponent(self):
        assert evaluate(parse("(-2)^3"), 0, 0, 0) == -8.0
        assert evaluate(parse("(-2)^-2"), 0, 0, 0) == 0.25
        with pytest.raises(DomainError):
            evaluate(parse("(-8)^(1/3)"), 0.0, 0.0, 0.0)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(99)
        t = rng.uniform(0.0, 1.0, 40)
        u = rng.uniform(-3.0, 3.0, 40)
        v = rng.uniform(-3.0, 3.0, 40)
        for text, _, _ in (case for case in EVAL_CASES if "u" in case[0] or "t" in case[0]):
            expr = parse(text)
            arr = np.broadcast_to(evaluate(expr, t, u, v), t.shape)
            for j in range(t.size):
                assert arr[j] == evaluate(expr, float(t[j]), float(u[j]), float(v[j]))

    def test_array_fault(self):
        with pytest.raises(DivisionByZero):
            evaluate(parse("1/u"), 0.0, np.array([1.0, 0.0, 2.0]), 0.0)


class TestPretty:
    @pytest.mark.parametrize(
        "text, rendered",
        [
            ("2+3*4", "2.0 + 3.0 * 4.0"),
            ("(2+3)*4", "(2.0 + 3.0) * 4.0"),
            ("2^3^2", "2.0 ^ 3.0 ^ 2.0"),
            ("(2^3)^2", "(2.0 ^ 3.0) ^ 2.0"),
            ("-2^2", "-2.0 ^ 2.0"),
            ("min(u, max(v, 0))", "min(u, max(v, 0.0))"),
        ],
    )
    def test_rendering(self, text, rendered):
        assert pretty(parse(text)) == rendered

    @pytest.mark.parametrize("text", [case[0] for case in EVAL_CASES])
    def test_round_trip_golden(self, text):
        expr = parse(text)
        assert parse(pretty(expr)) == expr


# Random expression trees with nonnegative literals (the parser never
# produces a negative Num, it wraps a "neg" call around it instead).
_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False).map(lambda x: Num(round(x, 3))),
    st.sampled_from(["t", "u", "v"]).map(Var),
)


def _branches(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
            lambda p: Call(p[0], (p[1], p[2]))),
        children.map(lambda e: Call("neg", (e,))),
        st.tuples(st.sampled_from(["abs", "sin", "cos"]), children).map(
            lambda p: Call(p[0], (p[1],))),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda p: Call(p[0], (p[1], p[2]))),
    )


_trees = st.recursive(_leaves, _branches, max_leaves=12)


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(_trees)
    def test_pretty_round_trip(self, tree):
        assert parse(pretty(tree)) == tree

    @settings(max_examples=120, deadline=None)
    @given(_trees)
    def test_pretty_preserves_value(self, tree):
        point = (0.37, -1.25, 2.5)
        assert evaluate(parse(pretty(tree)), *point) == evaluate(tree, *point)


# Workload-sized axes of unequal lengths, so a transposed axis shows; u
# avoids 0 and v stays positive, so no expression below faults on them.
_T_AXIS = np.linspace(0.0, 1.0, 33)
_U_AXIS = np.linspace(-3.0, 3.0, 34)
_V_AXIS = np.linspace(0.5, 2.5, 35)

_MIXED = [
    "u^2", "u^3 - t^2", "(u*v)^2", "u^-2 + v^-1", "abs(u)^v", "abs(u)^0.5 * v",
    "t^v", "v^t", "exp(u)^t", "(2 + sin(u))^(t*v)", "(t + v)^(u/3)",
    "u/(1 + t^2)", "(t + 1)/(v^2 + u)", "t/v - u/v",
    "exp(t*u) - exp(v)", "log(1 + u^2 + t) * log(v)", "sqrt(abs(u*v)) + sqrt(t)",
    "min(1, max((u - 0.2)/0.3, 0)) * v", "max(t*u, cos(v))^2",
]


def _variables(node):
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Num):
        return set()
    return set().union(*map(_variables, node.args))


def _both_grids(expr, t, u, v):
    """Evaluate on the open grid and on the materialised mesh of the same axes,
    each value broadcast to the mesh's shape."""
    return tuple(np.broadcast_to(evaluate(expr, *grid), (t.size, u.size, v.size))
                 for grid in (np.ix_(t, u, v), np.meshgrid(t, u, v, indexing="ij")))


class TestOpenGrid:
    @settings(max_examples=80, deadline=None)
    @given(_trees)
    def test_random_trees_match_mesh(self, tree):
        open_vals, mesh_vals = _both_grids(tree, _T_AXIS, _U_AXIS, _V_AXIS)
        assert np.array_equal(open_vals, mesh_vals)

    @pytest.mark.parametrize("text", _MIXED)
    def test_mixed_expressions_match_mesh(self, text):
        open_vals, mesh_vals = _both_grids(parse(text), _T_AXIS, _U_AXIS, _V_AXIS)
        assert np.array_equal(open_vals, mesh_vals)

    @pytest.mark.parametrize(
        "text, err",
        [
            ("1/u", DivisionByZero),
            ("log(u)", DomainError),
            ("sqrt(v)", DomainError),
            ("(u-2)^0.5", DomainError),
            ("exp(1000*u)", Overflow),
            ("t/(u*v)", DivisionByZero),
            ("1/u + log(v)", DivisionByZero),
            ("log(v) + 1/u", DomainError),
        ],
    )
    def test_faults_match_mesh(self, text, err):
        # u holds 0 and negatives, v a negative: every case faults somewhere
        axes = (np.linspace(0.0, 1.0, 4), np.linspace(-1.0, 3.0, 5), np.linspace(-1.0, 1.0, 3))
        expr = parse(text)
        with pytest.raises(err) as on_open:
            evaluate(expr, *np.ix_(*axes))
        with pytest.raises(err) as on_mesh:
            evaluate(expr, *np.meshgrid(*axes, indexing="ij"))
        assert type(on_open.value) is type(on_mesh.value)
        assert on_open.value.position == on_mesh.value.position

    def test_empty_axis_does_not_fault(self):
        # the grid has no samples, so the 0 on the u axis is never evaluated
        expr = parse("1/u")
        out = evaluate(expr, *np.ix_(np.empty(0), np.array([0.0]), np.array([1.0])))
        assert out.shape == (0, 1, 1)
        assert evaluate(expr, np.empty(0), 0.0, 0.0).shape == (0,)

    def test_axes_past_the_intp_range(self):
        # (2^21 + 1)^3 samples are more than numpy can give a shape; the
        # open evaluation never forms that grid
        n = 2**21 + 1
        t, u, v = (np.broadcast_to(x, shape) for x, shape in
                   ((0.5, (n, 1, 1)), (2.0, (1, n, 1)), (1.0, (1, 1, n))))
        with pytest.raises(ValueError):
            np.broadcast(t, u, v)
        out = evaluate(parse("3*u"), t, u, v)
        assert out.shape == (1, n, 1) and np.all(out == 6.0)

    @settings(max_examples=80, deadline=None)
    @given(_trees)
    def test_open_result_keeps_unused_axes(self, tree):
        # length 1 exactly along the axes of variables the tree never reads
        used = _variables(tree)
        grid = np.ix_(_T_AXIS, _U_AXIS, _V_AXIS)
        res = evaluate(tree, *grid)
        lengths = {"t": 33, "u": 34, "v": 35}
        want = tuple(lengths[name] if name in used else 1 for name in "tuv") if used else ()
        assert res.shape == want


# The checked walker the flag-based evaluator replaced, kept as the parity
# reference: a finiteness scan after every operation that can overflow,
# explicit divisor and domain pre-checks, and a scan of the root.
def _check_finite(res, node_pos, what):
    if not np.all(np.isfinite(res)):
        raise Overflow(f"{what} overflowed to a non-finite value", node_pos)
    return res


def _evaluate(node, t, u, v):
    if isinstance(node, Num):
        return np.asarray(node.value, dtype=float)
    if isinstance(node, Var):
        return np.asarray({"t": t, "u": u, "v": v}[node.name], dtype=float)
    if node.fn == "neg":
        return -_evaluate(node.args[0], t, u, v)
    if node.fn in ("+", "-", "*", "/", "^"):
        a = _evaluate(node.args[0], t, u, v)
        b = _evaluate(node.args[1], t, u, v)
        if node.fn == "+":
            return _check_finite(a + b, node.pos, "addition")
        if node.fn == "-":
            return _check_finite(a - b, node.pos, "subtraction")
        if node.fn == "*":
            return _check_finite(a * b, node.pos, "multiplication")
        if node.fn == "/":
            if np.any(b == 0.0):
                raise DivisionByZero("division by zero", node.pos)
            return _check_finite(a / b, node.pos, "division")
        neg_base = a < 0.0
        if np.any(neg_base & (b != np.floor(b))):
            raise DomainError("negative base with a non-integer exponent", node.pos)
        if np.any((a == 0.0) & (b < 0.0)):
            raise DivisionByZero("zero base with a negative exponent", node.pos)
        res = np.where(neg_base, np.sign(np.where(b % 2.0 == 0.0, 1.0, -1.0)), 1.0) * (
            np.abs(a) ** b
        )
        return _check_finite(res, node.pos, "power")
    a = _evaluate(node.args[0], t, u, v)
    if node.fn == "abs":
        return np.abs(a)
    if node.fn == "sqrt":
        if np.any(a < 0.0):
            raise DomainError("sqrt of a negative number", node.pos)
        return np.sqrt(a)
    if node.fn == "exp":
        return _check_finite(np.exp(a), node.pos, "exp")
    if node.fn == "log":
        if np.any(a <= 0.0):
            raise DomainError("log of a non-positive number", node.pos)
        return np.log(a)
    if node.fn == "sin":
        return np.sin(a)
    if node.fn == "cos":
        return np.cos(a)
    b = _evaluate(node.args[1], t, u, v)
    if node.fn == "min":
        return np.minimum(a, b)
    return np.maximum(a, b)


def scanned_eval(expr, t, u, v):
    """The reference evaluation, un-broadcast; its overflows run silently into
    the scans."""
    t, u, v = (np.asarray(x, dtype=float) for x in (t, u, v))
    with np.errstate(all="ignore"):
        return np.asarray(_check_finite(_evaluate(expr, t, u, v), expr.pos, "expression"))


def _outcome(evaluate, expr, inputs):
    try:
        res = evaluate(expr, *inputs)
    except EvalError as exc:
        return type(exc), exc.position, str(exc)
    return "value", res.shape, res.tobytes()


def _numbered(tree):
    """The tree with a distinct offset on every node, in pre-order."""
    counter = itertools.count()

    def walk(node):
        pos = next(counter)
        if isinstance(node, Call):
            return Call(node.fn, tuple(walk(arg) for arg in node.args), pos)
        return dataclasses.replace(node, pos=pos)

    return walk(tree)


# Signed zeros, near-overflow and near-underflow leaves and inputs, so
# every fault kind occurs and every node kind sees a zero.
_EDGES = [0.0, -0.0, 1e300, 1e160, 1e-300, 0.5, 2.0, 3.0]
_fault_leaves = st.one_of(
    st.sampled_from(_EDGES).map(Num),
    st.floats(min_value=-4.0, max_value=4.0).map(Num),
    st.sampled_from(["t", "u", "v"]).map(Var),
)


def _all_branches(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children).map(
            lambda p: Call(p[0], (p[1], p[2]))),
        children.map(lambda e: Call("neg", (e,))),
        st.tuples(st.sampled_from(["abs", "sqrt", "exp", "log", "sin", "cos"]), children).map(
            lambda p: Call(p[0], (p[1],))),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda p: Call(p[0], (p[1], p[2]))),
    )


# the root is always an operation, so no example is a bare leaf
_fault_trees = _all_branches(st.recursive(_fault_leaves, _all_branches, max_leaves=8)).map(
    _numbered)
_input_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e160, 1e300, -1e300, 1e-300,
                                 5e-324])
_axis = st.lists(_input_values, min_size=1, max_size=4).map(np.array)
_inputs = st.one_of(
    st.tuples(_input_values, _input_values, _input_values),  # 0-d scalars
    st.integers(1, 5).flatmap(lambda n: st.tuples(
        *[st.lists(_input_values, min_size=n, max_size=n).map(np.array)] * 3)),  # 1-D
    st.tuples(_axis, _axis, _axis).map(lambda axes: np.ix_(*axes)),  # open grid
)


class TestFlagParity:
    @settings(max_examples=400, deadline=None)
    @given(_fault_trees, _inputs)
    def test_matches_scanned_walker(self, tree, inputs):
        # same bits on success; same fault class, offset and message otherwise
        assert _outcome(evaluate, tree, inputs) == _outcome(scanned_eval, tree, inputs)

    @pytest.mark.parametrize("text, u, expected", [
        ("1/u", -0.0, DivisionByZero),  # divide-by-zero flag
        ("0/u", 0.0, DivisionByZero),  # invalid flag, same name
        ("1e300/u", 1e-300, Overflow),  # overflow flag at a nonzero divisor
        ("sqrt(u)", -1e-300, DomainError),
        ("log(u)", -0.0, DomainError),
        ("exp(u)", 710.0, Overflow),
        ("min(1, u*u)", 1e300, Overflow),  # the flag fires before min hides it
        ("u^2", 1e300, Overflow),
        ("u*u + 1", 1e-300, "value"),  # underflow is not a fault
        ("sqrt(u)", -0.0, "value"),
    ])
    def test_flag_routes(self, text, u, expected):
        expr = parse(text)
        got = _outcome(evaluate, expr, (0.0, u, 0.0))
        assert got == _outcome(scanned_eval, expr, (0.0, u, 0.0))
        assert got[0] == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # the scans blamed offset 1 for 2*u + 1 at u = nan; no node is to blame
        with pytest.raises(ValueError, match="must be finite"):
            evaluate(parse("2*u + 1"), 0.0, bad, 0.0)
        with pytest.raises(ValueError, match="must be finite"):
            evaluate(parse("t"), np.array([0.0, 1.0]), np.array([1.0, bad]), 0.0)

    @pytest.mark.parametrize("text, hex_bits", [
        ("(-0)^3", "0x0.0p+0"),  # np.power would give -0.0
        ("2^log(2)", "0x1.9de70ac53b8aap+0"),  # np.power on 0-d operands ends in ...a9
    ])
    def test_power_keeps_scanned_bits(self, text, hex_bits):
        expr = parse(text)
        value = float(evaluate(expr, 0.0, 0.0, 0.0))
        assert value.hex() == hex_bits
        assert np.float64(value).tobytes() == scanned_eval(expr, 0.0, 0.0, 0.0).tobytes()


class TestCompiledCode:
    def test_equal_trees_keep_their_offsets(self):
        # equality ignores offsets, so code shared between equal trees
        # would blame the other tree's operator
        for texts in (("1/u", " 1/u"), (" 1/u", "1/u")):
            trees = [parse(text) for text in texts]
            assert trees[0] == trees[1] and hash(trees[0]) == hash(trees[1])
            for expr, text in zip(trees, texts):
                with pytest.raises(DivisionByZero) as info:
                    evaluate(expr, 0.0, 0.0, 0.0)
                assert info.value.position == text.index("/")

    def test_code_dies_with_its_tree(self):
        expr = parse("2*u + sin(v)")
        assert evaluate(expr, 0.0, 1.0, 0.0) == 2.0
        ref = weakref.ref(expr)
        del expr
        gc.collect()
        assert ref() is None

    def test_deep_copy_is_the_tree(self):
        # a frozen tree needs no copy; its compiled code comes along
        expr = parse(" 1/u")
        assert evaluate(expr, 0.0, 2.0, 0.0) == 0.5
        assert copy.deepcopy(expr) is expr and "_code" in vars(expr)
        shallow = copy.copy(expr)
        assert shallow == expr and "_code" not in vars(shallow)

    def test_evaluated_tree_pickles(self):
        # the compiled closures stay behind; the copy compiles its own
        expr = parse(" 1/u")
        assert evaluate(expr, 0.0, 2.0, 0.0) == 0.5
        clone = pickle.loads(pickle.dumps(expr))
        assert clone == expr and "_code" not in vars(clone)
        with pytest.raises(DivisionByZero) as info:
            evaluate(clone, 0.0, 0.0, 0.0)
        assert info.value.position == 2


def nonneg_check(text, box, grid=21):
    """The sampled sign check run on certified boxes: a single 21^3 scan."""
    return box_inf(parse(text), box, grid=grid, refine_rounds=0)


def argmin_reference(text, box, n=21):
    """First minimum of the expression on the full n^3 meshgrid (degenerate
    axes repeat their point n times)."""
    axes = [np.linspace(lo, hi, n) for lo, hi in (box.t_range, box.u_range, box.v_range)]
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = np.broadcast_to(evaluate(parse(text), *mesh), mesh[0].shape)
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    return float(vals[idx]), tuple(float(axis[k]) for axis, k in zip(axes, idx))


class TestNonnegativity:
    def test_negative_sample_found(self):
        rep = nonneg_check("u", Box3((0.0, 1.0), (-1.0, 1.0), (0.0, 0.0)))
        assert rep.value < 0.0
        assert rep.value == -1.0
        assert rep.location[1] == -1.0

    def test_nonnegative_square(self):
        rep = nonneg_check("u^2", Box3((0.0, 1.0), (-1.0, 1.0), (0.0, 0.0)))
        assert rep.value >= 0.0
        assert rep.value == 0.0

    def test_sample_count_and_validation(self):
        rep = nonneg_check("1", Box3((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), grid=5)
        assert rep.samples == 125
        with pytest.raises(ValueError):
            nonneg_check("1", Box3((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), grid=1)

    @pytest.mark.parametrize("box", [
        Box3((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        Box3((0.0, 1.0), (-1.0, 1.0), (0.0, 0.0)),
        Box3((0.3, 0.3), (-2.0, 0.5), (1.0, 1.0)),
        Box3((0.5, 0.5), (0.25, 0.25), (-1.0, -1.0)),
    ], ids=["unit", "degenerate-v", "degenerate-t-v", "point"])
    @pytest.mark.parametrize("text", ["1", "u^2", "u", "abs(u) - 0.5", "min(u, v) * t",
                                      "min(1, max((u-0.2)/0.3, 0)) - 0.5"])
    def test_matches_argmin_reference(self, box, text):
        rep = nonneg_check(text, box)
        assert (rep.value, rep.location) == argmin_reference(text, box)


_MODULES = ("certify", "cli", "exprlang", "kernel", "problem", "quadrature", "solver")


class TestExports:
    def test_all_names_resolve(self):
        for mod in (fraccert, *(importlib.import_module(f"fraccert.{m}") for m in _MODULES)):
            assert len(set(mod.__all__)) == len(mod.__all__), mod.__name__
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"

    def test_package_exports_what_it_imports(self):
        imported = {name for name, obj in vars(fraccert).items()
                    if not name.startswith("_") and not inspect.ismodule(obj)}
        assert set(fraccert.__all__) == imported

    def test_eval_exprs_is_the_one_evaluator(self):
        assert fraccert.eval_exprs is exprlang.eval_exprs
        for mod in (fraccert, exprlang):
            assert [name for name in dir(mod) if name.startswith("eval")] == ["eval_exprs"]
