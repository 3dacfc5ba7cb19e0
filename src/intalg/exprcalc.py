"""Tokenizer, recursive-descent parser and evaluator for interval expressions.

Grammar, lowest precedence first::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' exponent)?          # '**' is a synonym for '^'
    primary := NUMBER | NUMBER '±' NUMBER | '[' number ',' number ']'
             | NAME | FUNC '(' expr ')' | '(' expr ')'

Exponents are nonnegative integer literals; chained exponents associate to
the right and are folded at parse time.  Positions in errors are 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .algebra import AlgebraOrder, _as_order
from .errors import EvalError, ExprSyntaxError
from .interval import (
    ArithmeticMode,
    IntervalNumber,
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

FUNCTIONS = {
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
}

_MAX_EXPONENT = 1_000_000


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class IntervalLit:
    lo: float
    hi: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprNode"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Power:
    base: "ExprNode"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprNode"


ExprNode = Union[Num, IntervalLit, Var, Neg, BinOp, Power, Call]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int  # 1-based


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_SINGLE = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    "±": "PM",
}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("**", i):
            tokens.append(_Token("CARET", "**", i + 1))
            i += 2
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(0), i + 1))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token("NAME", m.group(0), i + 1))
            i = m.end()
            continue
        kind = _SINGLE.get(ch)
        if kind is None:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i + 1)
        tokens.append(_Token(kind, ch, i + 1))
        i += 1
    tokens.append(_Token("END", "", n + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {what}", tok.pos)
        return self.advance()

    def parse(self) -> ExprNode:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self) -> ExprNode:
        node = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.term()
            node = BinOp("+" if op.kind == "PLUS" else "-", node, rhs)
        return node

    def term(self) -> ExprNode:
        node = self.unary()
        while self.peek().kind in ("STAR", "SLASH"):
            op = self.advance()
            rhs = self.unary()
            node = BinOp("*" if op.kind == "STAR" else "/", node, rhs)
        return node

    def unary(self) -> ExprNode:
        if self.peek().kind == "MINUS":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> ExprNode:
        base = self.primary()
        if self.peek().kind == "CARET":
            self.advance()
            return Power(base, self.exponent())
        return base

    def exponent(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER":
            raise ExprSyntaxError("exponent must be a nonnegative integer", tok.pos)
        self.advance()
        value = float(tok.text)
        if value != int(value):
            raise ExprSyntaxError("exponent must be a nonnegative integer", tok.pos)
        k = int(value)
        if self.peek().kind == "CARET":
            self.advance()
            e = self.exponent()
            # bail before materializing a huge integer
            if k > 1 and e > 20:
                raise ExprSyntaxError(
                    f"exponent too large (> {_MAX_EXPONENT})", tok.pos
                )
            k = k**e
        if k > _MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent too large (> {_MAX_EXPONENT})", tok.pos)
        return k

    def primary(self) -> ExprNode:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            center = float(tok.text)
            if self.peek().kind == "PM":
                self.advance()
                radius_tok = self.expect("NUMBER", "a radius after '±'")
                radius = float(radius_tok.text)
                return IntervalLit(center - radius, center + radius)
            return Num(center)
        if tok.kind == "LBRACKET":
            self.advance()
            lo = self.signed_number()
            self.expect("COMMA", "','")
            hi = self.signed_number()
            self.expect("RBRACKET", "']'")
            return IntervalLit(lo, hi)
        if tok.kind == "NAME":
            self.advance()
            if self.peek().kind == "LPAREN":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.expr()
                self.expect("RPAREN", "')'")
                return Call(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        raise ExprSyntaxError(
            f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
            tok.pos,
        )

    def signed_number(self) -> float:
        sign = 1.0
        while self.peek().kind in ("PLUS", "MINUS"):
            if self.advance().kind == "MINUS":
                sign = -sign
        tok = self.expect("NUMBER", "a number")
        return sign * float(tok.text)


def parse(text: str) -> ExprNode:
    """Parse expression text into an AST or raise a positioned syntax error."""
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Printer (minimal parentheses; reparses to an equal AST)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: ExprNode) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Power):
        return _PREC_POW
    return _PREC_ATOM


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
    mode: ArithmeticMode = ArithmeticMode.TRUE,
    order: int | AlgebraOrder = 4,
) -> IntervalNumber:
    """Evaluate an AST through interval arithmetic, never collapsing midway."""
    bindings = bindings or {}
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
        left = _eval(node.left, bindings, mode, order)
        right = _eval(node.right, bindings, mode, order)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    raise TypeError(f"not an expression node: {node!r}")
