"""Small arithmetic expression language for the nonlinear right-hand sides.

Variables: t, u, v. Operators: + - * / ^ (power, right-associative) and
unary minus, with precedence ^ > unary- > * / > + -. Functions: abs, sqrt,
exp, log, sin, cos (unary) and min, max (binary). A tree is made of Num,
Var and Call nodes: unary minus *is* a call of "neg", which a config cannot
write, so every operation is a Call and compiles alike.

Literals and inputs must be finite; evaluation then never returns a
non-finite number: division by zero, domain faults (sqrt/log of a negative,
negative base with a non-integer exponent) and overflow, found by the
floating-point flags they raise inside one errstate block, raise typed
EvalError subclasses carrying the byte offset of the offending token.

A tree nests at most MAX_DEPTH levels (an operator, a function call or a
pair of parentheses is one), so compiling and evaluating it fit the stack.
A tree is compiled on its first evaluation into nested closures, paired
with the set of variables it reads, and kept on the tree. ``eval_exprs``,
the one evaluator, returns a tuple of trees' values on the inputs' open
grid, un-broadcast; ``certify`` runs the code on axes it checked.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifier",
    "ArityError",
    "EvalError",
    "DivisionByZero",
    "DomainError",
    "Overflow",
    "Expr",
    "Num",
    "Var",
    "Call",
    "MAX_DEPTH",
    "parse",
    "eval_exprs",
    "pretty",
]


class ExprError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifier(ExprError):
    pass


class ArityError(ExprError):
    pass


class EvalError(ArithmeticError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (operator at offset {position})")
        self.position = position


class DivisionByZero(EvalError):
    pass


class DomainError(EvalError):
    pass


class Overflow(EvalError):
    pass


class _Node:
    """Base of the tree nodes: pickles and shallow copies leave out the compiled
    code; a deep copy is the tree itself, which is frozen, code and all."""

    def __getstate__(self):
        return {key: val for key, val in vars(self).items() if key != "_code"}

    def __deepcopy__(self, memo):
        return self


@dataclass(frozen=True)
class Num(_Node):
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var(_Node):
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call(_Node):
    """An operation: ``fn`` is an operator's symbol, "neg" or a FUNCTIONS name."""

    fn: str
    args: tuple["Expr", ...]
    pos: int = field(default=0, compare=False)


Expr = Num | Var | Call

VARIABLES = ("t", "u", "v")
FUNCTIONS = {"abs": 1, "sqrt": 1, "exp": 1, "log": 1, "sin": 1, "cos": 1, "min": 2, "max": 2}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)

# binding powers: + - (10) < * / (20) < unary - (30) < ^ (40, right-assoc)
_BIN_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30
# the most levels a tree may nest; compiling and evaluating recurse once a level
MAX_DEPTH = 200


class _Tokens:
    def __init__(self, text: str):
        # every non-space character starts a token, so finditer skips only whitespace
        self.toks = [(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup))
                     for m in _TOKEN.finditer(text)]
        for kind, val, pos in self.toks:
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {val!r}", pos)
        self.toks.append(("end", "end of input", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, val, pos = self.next()
        if val != text:
            raise ExprSyntaxError(f"expected {text!r}, found {val!r}", pos)


def _nest(depth: int, pos: int) -> int:
    """The level below ``depth``, opened by the token at ``pos``."""
    if depth >= MAX_DEPTH:
        raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
    return depth + 1


def _parse_prefix(ts: _Tokens, depth: int) -> tuple[Expr, int]:
    kind, val, pos = ts.next()
    if kind == "num":
        value = float(val)
        if math.isinf(value):
            raise ExprSyntaxError(f"number {val!r} is out of range", pos)
        return Num(value, pos), depth
    if kind == "ident":
        if ts.peek()[1] == "(":
            if val not in FUNCTIONS:
                raise UnknownIdentifier(f"unknown function {val!r}", pos)
            ts.expect("(")
            inner = _nest(depth, pos)
            args = [_parse_expr(ts, 0, inner)]
            while ts.peek()[1] == ",":
                ts.next()
                args.append(_parse_expr(ts, 0, inner))
            ts.expect(")")
            if len(args) != FUNCTIONS[val]:
                raise ArityError(
                    f"{val} takes {FUNCTIONS[val]} argument(s), got {len(args)}", pos
                )
            return Call(val, tuple(arg for arg, _ in args), pos), max(d for _, d in args)
        if val not in VARIABLES:
            raise UnknownIdentifier(f"unknown identifier {val!r}", pos)
        return Var(val, pos), depth
    if val == "-":
        operand, deepest = _parse_expr(ts, _UNARY_BP, _nest(depth, pos))
        return Call("neg", (operand,), pos), deepest
    if val == "(":
        inner = _parse_expr(ts, 0, _nest(depth, pos))
        ts.expect(")")
        return inner
    raise ExprSyntaxError(f"expected a value, found {val!r}", pos)


def _parse_expr(ts: _Tokens, min_bp: int, depth: int) -> tuple[Expr, int]:
    """The expression at ``ts``, ``depth`` levels down, and its deepest leaf's level."""
    left, deepest = _parse_prefix(ts, depth)
    while True:
        kind, val, pos = ts.peek()
        bp = _BIN_BP.get(val, -1) if kind == "op" else -1
        if bp < min_bp or bp == -1:
            return left, deepest
        ts.next()
        deepest = _nest(deepest, pos)  # the new node pushes ``left`` a level down
        # right-associative power re-enters at its own binding power
        right, right_deepest = _parse_expr(ts, bp if val == "^" else bp + 1, depth + 1)
        left, deepest = Call(val, (left, right), pos), max(deepest, right_deepest)


def parse(text: str) -> Expr:
    """Parse an expression; raises ExprSyntaxError / UnknownIdentifier / ArityError."""
    ts = _Tokens(text)
    expr, _ = _parse_expr(ts, 0, 0)
    kind, val, pos = ts.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input starting with {val!r}", pos)
    return expr


# The ufunc each Call applies; "^" is _power. Unary minus *is* a "neg" call.
_UFUNCS = {
    "neg": np.negative, "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "abs": np.absolute, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "sin": np.sin, "cos": np.cos, "min": np.minimum, "max": np.maximum,
}
_OP_NAMES = {"+": "addition", "-": "subtraction", "*": "multiplication", "/": "division",
             "^": "power"}


def _power(a, b, pos: int):
    # sign * |a|**b, not np.power: it keeps (-0.0)^3 = +0.0 and scalar ** bits
    neg_base = a < 0.0
    if np.any(neg_base & (b != np.floor(b))):
        raise DomainError("negative base with a non-integer exponent", pos)
    if np.any((a == 0.0) & (b < 0.0)):
        raise DivisionByZero("zero base with a negative exponent", pos)
    return np.where(neg_base & (b % 2.0 != 0.0), -1.0, 1.0) * np.abs(a) ** b


def _fault(op: str, args, pos: int) -> EvalError:
    """Name the fault behind a floating-point flag raised at node ``op``."""
    if op == "/" and np.any(args[1] == 0.0):
        return DivisionByZero("division by zero", pos)
    if op == "sqrt":
        return DomainError("sqrt of a negative number", pos)
    if op == "log":
        return DomainError("log of a non-positive number", pos)
    return Overflow(f"{_OP_NAMES.get(op, op)} overflowed to a non-finite value", pos)


# the code of a Var leaf: its input, as given
_VAR_CODE = {"t": lambda t, u, v: t, "u": lambda t, u, v: u, "v": lambda t, u, v: v}


def _compile(node: Expr):
    """Turn a tree into nested closures of (t, u, v) that evaluate it in post-order,
    paired with the set of variables the tree reads."""
    if isinstance(node, Num):
        value = np.asarray(node.value, dtype=float)
        value.flags.writeable = False
        return (lambda t, u, v: value), frozenset()
    if isinstance(node, Var):
        return _VAR_CODE[node.name], frozenset((node.name,))
    op, children, pos = node.fn, node.args, node.pos
    apply = (lambda a, b: _power(a, b, pos)) if op == "^" else _UFUNCS[op]
    codes, reads = zip(*[_compile(child) for child in children])
    reads = frozenset().union(*reads)
    if len(codes) == 1:
        arg = codes[0]

        def call1(t, u, v):
            a = arg(t, u, v)
            try:
                return apply(a)
            except FloatingPointError:
                raise _fault(op, (a,), pos) from None

        return call1, reads
    left, right = codes

    def call2(t, u, v):
        a, b = left(t, u, v), right(t, u, v)
        try:
            return apply(a, b)
        except FloatingPointError:
            raise _fault(op, (a, b), pos) from None

    return call2, reads


def _compiled(expr: Expr):
    """The tree's (code, variables read), compiled on first use and kept in the
    root's instance ``__dict__``, outside the fields equality, hashing and repr
    read: it dies with the tree and is never shared between equal trees, whose
    offsets may differ. Callers run the code on finite inputs in ``eval_exprs``' errstate."""
    return vars(expr).get("_code") or vars(expr).setdefault("_code", _compile(expr))


def eval_exprs(exprs: tuple[Expr, ...], t, u, v) -> tuple[np.ndarray, ...]:
    """Evaluate trees on broadcastable numpy arrays without broadcasting.

    Every node runs on its operands as given, so on an open grid a value
    has length 1 along each axis it does not depend on (a constant is 0-d);
    it broadcasts to the inputs' shape and may be one of them. Inputs must
    be finite (else ValueError); an empty grid never faults. The errstate
    block raises on overflow, division by zero and invalid operations, the
    only ways from finite operands to a non-finite value; the first node to
    raise (in tree order, then post-order) is the fault, named at its offset.
    """
    t, u, v = np.asarray(t, dtype=float), np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if 0 in t.shape + u.shape + v.shape:  # an empty grid has no samples, so none can fault
        t, u, v = np.broadcast_arrays(t, u, v)
    if not (np.isfinite(t).all() and np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("t, u and v must be finite")
    codes = [_compiled(e)[0] for e in exprs]
    with np.errstate(all="raise", under="ignore"):
        return tuple([np.asarray(code(t, u, v)) for code in codes])


def _prec(node: Expr) -> int:
    if not isinstance(node, Call):
        return 100
    return _UNARY_BP if node.fn == "neg" else _BIN_BP.get(node.fn, 100)


def _operand(node: Expr, bp: int, tie: bool) -> str:
    """``node`` rendered under an operator of binding power ``bp``: in parentheses
    if it binds looser, or (``tie``) as tightly."""
    text = pretty(node)
    return f"({text})" if _prec(node) < bp or (tie and _prec(node) == bp) else text


def pretty(expr: Expr) -> str:
    """Render an expression; parse(pretty(e)) is structurally equal to e."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if expr.fn == "neg":
        return f"-{_operand(expr.args[0], _UNARY_BP, False)}"
    if expr.fn in _BIN_BP:
        # an operand binding as tightly as the operator needs parentheses on the
        # side the operator does not associate to: the left for ^, else the right
        (left, right), bp, right_assoc = expr.args, _BIN_BP[expr.fn], expr.fn == "^"
        return (f"{_operand(left, bp, right_assoc)} {expr.fn} "
                f"{_operand(right, bp, not right_assoc)}")
    return f"{expr.fn}({', '.join(pretty(a) for a in expr.args)})"
