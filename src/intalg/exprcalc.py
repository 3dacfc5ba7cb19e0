"""Precedence-climbing parser, printer and evaluator for interval expressions.

Grammar, lowest precedence first::

    expr    := unary (BINOP unary)*    # BINOP and precedence from _BINARY
    unary   := '-' unary | primary ('^' exponent)?   # '**' is a synonym for '^'
    primary := NUMBER | NUMBER '±' NUMBER | '[' number ',' number ']'
             | NAME | FUNC '(' expr ')' | '(' expr ')'

Binary operators associate to the left.  Exponents are nonnegative integer
literals; chained exponents associate to the right and are folded at parse
time.  Positions in errors are 1-based.

Tokens and literals are read by ``interval._Reader``, which option values and
matrix files share; this module adds the operators.
"""

from __future__ import annotations

import math
from operator import add, mul, sub, truediv
from typing import Mapping, Union

from .algebra import AlgebraOrder, _as_order, _Record
from .errors import EvalError, ExprSyntaxError
from .interval import (
    ArithmeticMode,
    IntervalNumber,
    _Reader,
    _as_mode,
    _is_number,
    exp,
    interval,
    log,
    pow_int,
    sqrt,
)

__all__ = [
    "Num",
    "IntervalLit",
    "Var",
    "Neg",
    "BinOp",
    "Power",
    "Call",
    "ExprNode",
    "parse",
    "unparse",
    "evaluate",
    "FUNCTIONS",
]

FUNCTIONS = {"exp": exp, "log": log, "sqrt": sqrt}

_MAX_EXPONENT = 1_000_000

# The binary operators: precedence for the parser and printer, and the
# interval operation the evaluator applies.
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2}
_APPLY = {"+": add, "-": sub, "*": mul, "/": truediv}


def _depth_guarded(method, verb: str):
    """A record method that recurses into the children, failing typed on a deep tree."""

    def guarded(self, *args):
        try:
            return method(self, *args)
        except RecursionError:
            raise EvalError(f"expression nests too deeply to {verb}") from None

    return guarded


class _Node(_Record):
    """Base of the expression nodes: ==, hash and repr of a tree too deep for
    the recursion limit raise EvalError, as evaluate and unparse do."""

    __eq__ = _depth_guarded(_Record.__eq__, "compare")
    __hash__ = _depth_guarded(_Record.__hash__, "hash")
    __repr__ = _depth_guarded(_Record.__repr__, "represent")


class Num(_Node):
    value: float


class IntervalLit(_Node):
    lo: float
    hi: float


class Var(_Node):
    name: str


class Neg(_Node):
    operand: "ExprNode"


class BinOp(_Node):
    op: str  # one of + - * /
    left: "ExprNode"
    right: "ExprNode"


class Power(_Node):
    base: "ExprNode"
    exponent: int


class Call(_Node):
    func: str
    arg: "ExprNode"


ExprNode = Union[Num, IntervalLit, Var, Neg, BinOp, Power, Call]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(_Reader):
    """Precedence climbing over the reader's tokens: one that is not a NUMBER
    is a NAME when it is an identifier, else an operator ('**' reads as '^')."""

    def parse(self) -> ExprNode:
        node = self.binary(1)
        if tok := self.peek():
            raise self.error(f"unexpected {tok!r}", self.i)
        return node

    def binary(self, min_prec: int) -> ExprNode:
        """Precedence climbing over _BINARY: operators binding at least min_prec."""
        node = self.unary()
        while (prec := _BINARY.get(self.peek(), 0)) >= min_prec:
            op = self.advance()
            node = BinOp(op, node, self.binary(prec + 1))
        return node

    def unary(self) -> ExprNode:
        if self.peek() == "-":
            self.i += 1
            return Neg(self.unary())
        base = self.primary()
        if self.peek() in ("^", "**"):
            self.i += 1
            return Power(base, self.exponent())
        return base

    def exponent(self) -> int:
        i, tok = self.i, self.advance()
        value = float(tok) if _is_number(tok) else math.nan
        if value == math.inf:  # a literal past the float range, such as 1e400
            raise self.error(f"exponent too large (> {_MAX_EXPONENT})", i)
        if not value.is_integer():
            raise self.error("exponent must be a nonnegative integer", i)
        k = int(value)
        if self.peek() in ("^", "**"):
            self.i += 1
            e = self.exponent()
            # bail before materializing a huge integer
            k = k**e if k < 2 or e <= 20 else _MAX_EXPONENT + 1
        if k > _MAX_EXPONENT:
            raise self.error(f"exponent too large (> {_MAX_EXPONENT})", i)
        return k

    def primary(self) -> ExprNode:
        i, tok = self.i, self.advance()
        if _is_number(tok):
            values = self.ball(i, float(tok))
            return Num(*values) if len(values) == 1 else IntervalLit(*values)
        if tok == "[":
            return IntervalLit(*self.bracket(i))
        if tok.isidentifier():
            if self.peek() != "(":
                return Var(tok)
            if tok not in FUNCTIONS:
                raise self.error(f"unknown function {tok!r}", i)
            self.i += 1
            arg = self.binary(1)
            self.expect(")", "')'")
            return Call(tok, arg)
        if tok == "(":
            node = self.binary(1)
            self.expect(")", "')'")
            return node
        raise self.error(f"unexpected {tok!r}" if tok else "unexpected end of input", i)


def parse(text: str) -> ExprNode:
    """Parse expression text into an AST or raise a positioned syntax error,
    also for nesting deeper than the interpreter's recursion limit allows."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.error("expression nests too deeply") from None  # at the last token read


# ---------------------------------------------------------------------------
# Printer (minimal parentheses; reparses to an equal AST)
# ---------------------------------------------------------------------------

# Binary operators take their precedence from _BINARY; leaves bind tightest.
_PREC_NEG, _PREC_POW, _PREC_ATOM = 3, 4, 5
_PREC = {Neg: _PREC_NEG, Power: _PREC_POW}


def _prec(node: ExprNode) -> int:
    if isinstance(node, BinOp):
        return _BINARY[node.op]
    return _PREC.get(type(node), _PREC_ATOM)


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


def unparse(node: ExprNode) -> str:
    """Text that parses back to an equal tree; a tree too deep to print raises EvalError."""
    try:
        return _unparse(node)
    except RecursionError:
        raise EvalError("expression nests too deeply to print") from None


def _unparse(node: ExprNode) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, IntervalLit):
        return f"[{node.lo!r},{node.hi!r}]"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _unparse(node.operand)
        return "-" + _wrap(inner, _prec(node.operand) < _PREC_NEG)
    if isinstance(node, Power):
        base = _unparse(node.base)
        return _wrap(base, _prec(node.base) < _PREC_ATOM) + f"^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({_unparse(node.arg)})"
    if isinstance(node, BinOp):
        my = _prec(node)
        left = _wrap(_unparse(node.left), _prec(node.left) < my)
        # the grammar is left associative, so a right operand of equal
        # precedence must keep its parentheses to reparse to the same tree
        right = _wrap(_unparse(node.right), _prec(node.right) <= my)
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

def evaluate(
    node: ExprNode,
    bindings: Mapping[str, IntervalNumber] | None = None,
    mode: ArithmeticMode | str = ArithmeticMode.TRUE,
    order: int | AlgebraOrder = 4,
) -> IntervalNumber:
    """Evaluate an AST through interval arithmetic, never collapsing midway.

    ``mode`` is an ArithmeticMode member or its value; anything else raises
    ValueError.  A tree too deep for the recursion limit raises EvalError.
    """
    bindings = bindings or {}
    mode = _as_mode(mode)
    order = _as_order(order)
    for name, value in bindings.items():
        if not isinstance(value, IntervalNumber):
            raise EvalError(
                f"binding {name!r} is a {type(value).__name__}, not an IntervalNumber"
            )
        if value.mode is not mode:
            raise EvalError(
                f"binding {name!r} has mode {value.mode.value}, expected {mode.value}"
            )
        if value.order != order:
            raise EvalError(
                f"binding {name!r} has order {int(value.order)}, expected {int(order)}"
            )
    try:
        return _eval(node, bindings, mode, order)
    except RecursionError:
        raise EvalError("expression nests too deeply to evaluate") from None


def _eval(node, bindings, mode, order) -> IntervalNumber:
    if isinstance(node, Num):
        return interval(node.value, order=order, mode=mode)
    if isinstance(node, IntervalLit):
        return interval(node.lo, node.hi, order=order, mode=mode)
    if isinstance(node, Var):
        try:
            return bindings[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval(node.operand, bindings, mode, order)
    if isinstance(node, Power):
        return pow_int(_eval(node.base, bindings, mode, order), node.exponent)
    if isinstance(node, Call):
        return FUNCTIONS[node.func](_eval(node.arg, bindings, mode, order))
    if isinstance(node, BinOp):
        return _APPLY[node.op](
            _eval(node.left, bindings, mode, order),
            _eval(node.right, bindings, mode, order),
        )
    raise TypeError(f"not an expression node: {node!r}")
