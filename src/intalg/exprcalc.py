"""Tokenizer, precedence-climbing parser and evaluator for interval expressions.

Grammar, lowest precedence first::

    expr    := unary (BINOP unary)*    # BINOP and precedence from _BINARY
    unary   := '-' unary | primary ('^' exponent)?   # '**' is a synonym for '^'
    primary := NUMBER | NUMBER '±' NUMBER | '[' number ',' number ']'
             | NAME | FUNC '(' expr ')' | '(' expr ')'

Binary operators associate to the left.  Exponents are nonnegative integer
literals; chained exponents associate to the right and are folded at parse
time.  Positions in errors are 1-based.
"""

from __future__ import annotations

import math
import re
from operator import add, mul, sub, truediv
from typing import Mapping, Union

from .algebra import AlgebraOrder, _as_order, _Record
from .errors import EvalError, ExprSyntaxError
from .interval import (
    ArithmeticMode,
    IntervalNumber,
    _UNSIGNED_NUM,
    _as_mode,
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


class Num(_Record):
    value: float


class IntervalLit(_Record):
    lo: float
    hi: float


class Var(_Record):
    name: str


class Neg(_Record):
    operand: "ExprNode"


class BinOp(_Record):
    op: str  # one of + - * /
    left: "ExprNode"
    right: "ExprNode"


class Power(_Record):
    base: "ExprNode"
    exponent: int


class Call(_Record):
    func: str
    arg: "ExprNode"


ExprNode = Union[Num, IntervalLit, Var, Neg, BinOp, Power, Call]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<NUMBER>{_UNSIGNED_NUM})|(?P<NAME>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<OP>\*\*|[-+*/^()\[\],±]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, 1-based position) triples ending in an END token.

    A name or number has kind NAME or NUMBER; an operator's kind is its own
    text, with '**' spelled '^'.
    """
    tokens = []
    pos = 0
    while m := _TOKEN_RE.match(text, pos):
        kind = m.lastgroup
        tok = m[kind]
        start = m.start(kind) + 1
        if kind == "OP":
            kind = "^" if tok == "**" else tok
        tokens.append((kind, tok, start))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ExprSyntaxError(
            f"unexpected character {rest[0]!r}", len(text) - len(rest) + 1
        )
    tokens.append(("END", "", len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse(self) -> ExprNode:
        node = self.binary(1)
        kind, text, pos = self.tokens[self.i]
        if kind != "END":
            raise ExprSyntaxError(f"unexpected {text!r}", pos)
        return node

    def binary(self, min_prec: int) -> ExprNode:
        """Precedence climbing over _BINARY: operators binding at least min_prec."""
        node = self.unary()
        while (prec := _BINARY.get(self.peek(), 0)) >= min_prec:
            op = self.advance()[0]
            node = BinOp(op, node, self.binary(prec + 1))
        return node

    def unary(self) -> ExprNode:
        if self.peek() == "-":
            self.i += 1
            return Neg(self.unary())
        base = self.primary()
        if self.peek() == "^":
            self.i += 1
            return Power(base, self.exponent())
        return base

    def exponent(self) -> int:
        kind, text, pos = self.advance()
        value = float(text) if kind == "NUMBER" else math.nan
        if value == math.inf:  # a literal past the float range, such as 1e400
            raise ExprSyntaxError(f"exponent too large (> {_MAX_EXPONENT})", pos)
        if not value.is_integer():
            raise ExprSyntaxError("exponent must be a nonnegative integer", pos)
        k = int(value)
        if self.peek() == "^":
            self.i += 1
            e = self.exponent()
            # bail before materializing a huge integer
            k = k**e if k < 2 or e <= 20 else _MAX_EXPONENT + 1
        if k > _MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent too large (> {_MAX_EXPONENT})", pos)
        return k

    def primary(self) -> ExprNode:
        kind, text, pos = self.advance()
        if kind == "NUMBER":
            center = float(text)
            if self.peek() == "±":
                self.i += 1
                radius = float(self.expect("NUMBER", "a radius after '±'")[1])
                return IntervalLit(*_finite(pos, center - radius, center + radius))
            return Num(*_finite(pos, center))
        if kind == "[":
            lo = self.signed_number()
            self.expect(",", "','")
            hi = self.signed_number()
            self.expect("]", "']'")
            return IntervalLit(*_finite(pos, lo, hi))
        if kind == "NAME":
            if self.peek() != "(":
                return Var(text)
            if text not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {text!r}", pos)
            self.i += 1
            arg = self.binary(1)
            self.expect(")", "')'")
            return Call(text, arg)
        if kind == "(":
            node = self.binary(1)
            self.expect(")", "')'")
            return node
        raise ExprSyntaxError(
            f"unexpected {text!r}" if text else "unexpected end of input", pos
        )

    def signed_number(self) -> float:
        sign = 1.0
        while self.peek() in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        return sign * float(self.expect("NUMBER", "a number")[1])


def _finite(pos: int, *values: float) -> tuple[float, ...]:
    """A literal's values, unless one is infinite or NaN, such as 1e400."""
    if all(map(math.isfinite, values)):
        return values
    raise ExprSyntaxError("literal is not finite", pos)


def parse(text: str) -> ExprNode:
    """Parse expression text into an AST or raise a positioned syntax error."""
    return _Parser(_tokenize(text)).parse()


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
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, IntervalLit):
        return f"[{node.lo!r},{node.hi!r}]"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = unparse(node.operand)
        return "-" + _wrap(inner, _prec(node.operand) < _PREC_NEG)
    if isinstance(node, Power):
        base = unparse(node.base)
        return _wrap(base, _prec(node.base) < _PREC_ATOM) + f"^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({unparse(node.arg)})"
    if isinstance(node, BinOp):
        my = _prec(node)
        left = _wrap(unparse(node.left), _prec(node.left) < my)
        # the grammar is left associative, so a right operand of equal
        # precedence must keep its parentheses to reparse to the same tree
        right = _wrap(unparse(node.right), _prec(node.right) <= my)
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
    ValueError.
    """
    bindings = bindings or {}
    mode = _as_mode(mode)
    order = _as_order(order)
    for name, value in bindings.items():
        if value.mode is not mode:
            raise EvalError(
                f"binding {name!r} has mode {value.mode.value}, expected {mode.value}"
            )
        if value.order != order:
            raise EvalError(
                f"binding {name!r} has order {int(value.order)}, expected {int(order)}"
            )
    return _eval(node, bindings, mode, order)


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
