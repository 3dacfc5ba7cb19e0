"""Parser, printer and evaluator for interval expressions.

The parser is one loop over the tokens that keeps explicit stacks: each
operator, unary minus, open parenthesis and call still waiting for its operand
is a frame (operator precedence, as in Dijkstra's shunting-yard), and an
exponent chain is a list of links, so nesting of any depth parses without
recursion.  The evaluator and printer walk flat sums and products in a loop
and recurse into everything else, so a tree nested too deeply for the
recursion limit raises EvalError there.

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

from .algebra import AlgebraOrder, _as_order, _float, _Record
from .errors import EvalError
from .interval import (
    ArithmeticMode,
    IntervalNumber,
    _Reader,
    _as_mode,
    _is_number,
    _point,
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


def _known(table: Mapping, name: str, kind: str):
    """table[name], for the operator or function name a node holds; EvalError
    names one that only a hand-built tree can hold, as no text spells it."""
    try:
        return table[name]
    except KeyError:
        raise EvalError(f"unknown {kind} {name!r}") from None


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

# Parser frames, one per construct still open: (binding, op, left).  A binary
# operator binds at its _BINARY precedence and holds its left operand, a unary
# minus binds tighter than any of them, an open parenthesis or call (op: the
# function's name) is closed only by ')', and the bottom frame by the end.
_NEG_FRAME = (3, None, None)
_OPEN_FRAME = (0, None, None)
_BOTTOM_FRAME = (-1, None, None)


class _Parser(_Reader):
    """Operator precedence over the reader's tokens, in one loop with an
    explicit stack of frames, so nesting costs no recursion: a token that is
    not a NUMBER is a NAME when it is an identifier, else an operator ('**'
    reads as '^')."""

    def parse(self) -> ExprNode:
        tokens = self.tokens
        frames = [_BOTTOM_FRAME]
        i = 0
        while True:
            # an operand: its prefixes open frames, then a primary
            tok = tokens[i]
            i += 1
            if tok == "(":
                frames.append(_OPEN_FRAME)
                continue
            if tok.isidentifier():
                if tokens[i] != "(":
                    node = Var(tok)
                elif tok in FUNCTIONS:
                    frames.append((0, tok, None))
                    i += 1
                    continue
                else:
                    raise self.error(f"unknown function {tok!r}", i - 1)
            elif _is_number(tok):
                self.i = i
                values = self.ball(i - 1, float(tok))
                i = self.i
                node = Num(*values) if len(values) == 1 else IntervalLit(*values)
            elif tok == "-":
                frames.append(_NEG_FRAME)
                continue
            elif tok == "[":
                self.i = i
                node = IntervalLit(*self.bracket(i - 1))
                i = self.i
            else:
                raise self.error(
                    f"unexpected {tok!r}" if tok else "unexpected end of input", i - 1
                )
            # after an operand: an exponent, then a binary operator opens a
            # frame, and anything else closes frames, ')' one parenthesis
            while True:
                tok = tokens[i]
                if tok == "^" or tok == "**":
                    self.i = i + 1
                    node = Power(node, self.exponent())
                    i = self.i
                    tok = tokens[i]
                prec = _BINARY.get(tok, 0)
                while frames[-1][0] >= (prec or 1):
                    _, op, left = frames.pop()
                    node = Neg(node) if op is None else BinOp(op, left, node)
                if prec:
                    frames.append((prec, tok, node))
                    i += 1
                    break
                binding, func, _ = frames[-1]
                if binding < 0:
                    if tok:
                        raise self.error(f"unexpected {tok!r}", i)
                    return node
                if tok != ")":
                    raise self.error("expected ')'", i)
                frames.pop()
                i += 1
                if func is not None:
                    node = Call(func, node)

    def exponent(self) -> int:
        """An exponent chain, read after its first '^': literals joined by '^',
        each checked as it is read, then folded from the right."""
        links = []
        while True:
            i, tok = self.i, self.advance()
            value = float(tok) if _is_number(tok) else math.nan
            if value == math.inf:  # a literal past the float range, such as 1e400
                raise self.error(f"exponent too large (> {_MAX_EXPONENT})", i)
            if not value.is_integer():
                raise self.error("exponent must be a nonnegative integer", i)
            links.append((i, int(value)))
            if self.peek() not in ("^", "**"):
                break
            self.i += 1
        k = 1
        for i, base in reversed(links):
            # bail before materializing a huge integer
            k = base**k if base < 2 or k <= 20 else _MAX_EXPONENT + 1
            if k > _MAX_EXPONENT:
                raise self.error(f"exponent too large (> {_MAX_EXPONENT})", i)
        return k


def parse(text: str) -> ExprNode:
    """Parse expression text into an AST or raise a positioned syntax error;
    nesting of any depth parses, in a loop."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printer (minimal parentheses; reparses to an equal AST)
# ---------------------------------------------------------------------------

# Binary operators take their precedence from _BINARY; leaves bind tightest.
_PREC_NEG, _PREC_POW, _PREC_ATOM = 3, 4, 5
_PREC = {Neg: _PREC_NEG, Power: _PREC_POW}


def _prec(node: ExprNode) -> int:
    if isinstance(node, BinOp):
        return _known(_BINARY, node.op, "operator")
    return _PREC.get(type(node), _PREC_ATOM)


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


def unparse(node: ExprNode) -> str:
    """Text that parses back to an equal tree, each leaf printed as its float.
    A tree nested too deeply to print, a number no literal spells (negative,
    -0.0 or not finite), or an operator or function name that parse does not
    know raises EvalError."""
    try:
        return _unparse(node)
    except RecursionError:
        raise EvalError("expression nests too deeply to print") from None


def _unparse(node: ExprNode) -> str:
    if isinstance(node, Num):
        # a leaf prints as its float; a sign or a name would read back as Neg or Var
        v = _float(node.value)
        if math.isfinite(v) and math.copysign(1.0, v) > 0:
            return repr(v)
        raise EvalError(f"no literal spells the number {v!r}")
    if isinstance(node, IntervalLit):
        lo, hi = _float(node.lo), _float(node.hi)
        if math.isfinite(lo) and math.isfinite(hi):
            return f"[{lo!r},{hi!r}]"
        raise EvalError(f"no literal spells the interval [{lo!r},{hi!r}]")
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _unparse(node.operand)
        return "-" + _wrap(inner, _prec(node.operand) < _PREC_NEG)
    if isinstance(node, Power):
        base = _unparse(node.base)
        return _wrap(base, _prec(node.base) < _PREC_ATOM) + f"^{node.exponent}"
    if isinstance(node, Call):
        _known(FUNCTIONS, node.func, "function")
        return f"{node.func}({_unparse(node.arg)})"
    if isinstance(node, BinOp):
        # a flat sum or product is a left-leaning chain, printed in a loop: the
        # parentheses that wrap the text so far close in turn and open at the end
        chain = [node]
        while isinstance(node := node.left, BinOp):
            chain.append(node)
        parts, opens = [_unparse(node)], 0
        for link in reversed(chain):
            my = _prec(link)
            if _prec(link.left) < my:
                parts.append(")")
                opens += 1
            # the grammar is left associative, so a right operand of equal
            # precedence must keep its parentheses to reparse to the same tree
            parts += (link.op, _wrap(_unparse(link.right), _prec(link.right) <= my))
        return "(" * opens + "".join(parts)
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
    ValueError.  A tree nested too deeply for the recursion limit, or one
    holding an operator or function name that parse does not know, raises
    EvalError; flat sums and products of any length evaluate.
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
    # dispatch on the node's own class, the most frequent first
    cls = node.__class__
    if cls is BinOp:
        # a flat sum or product is a left-leaning chain, evaluated in a loop,
        # each left operand before its right one
        chain = [node]
        while (node := node.left).__class__ is BinOp:
            chain.append(node)
        value = _eval(node, bindings, mode, order)
        for link in reversed(chain):
            apply = _known(_APPLY, link.op, "operator")
            value = apply(value, _eval(link.right, bindings, mode, order))
        return value
    if cls is Var:
        try:
            return bindings[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}") from None
    if cls is Num:
        return _point(node.value, order, mode)  # interval(value), mode and order checked
    if cls is Power:
        return pow_int(_eval(node.base, bindings, mode, order), node.exponent)
    if cls is Call:
        # looked up per call: bench/tracer.py rewrites FUNCTIONS' entries
        return _known(FUNCTIONS, node.func, "function")(_eval(node.arg, bindings, mode, order))
    if cls is IntervalLit:
        return interval(node.lo, node.hi, order=order, mode=mode)
    if cls is Neg:
        return -_eval(node.operand, bindings, mode, order)
    raise TypeError(f"not an expression node: {node!r}")
