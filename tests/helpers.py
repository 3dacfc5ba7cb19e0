"""Shared numeric assertions for the test suite."""

from __future__ import annotations

import math
import random
import re
import struct
import sys
from fractions import Fraction

from intalg import (
    AlgebraOrder,
    ConvergenceError,
    DomainError,
    FdStyle,
    IntervalMatrix,
    IntervalNumber,
    IntervalVector,
    IterationRecord,
    alg_mul,
    dot,
    frob_sq,
    generator_endpoints,
    identity_matrix,
    interval,
    matmul,
    matvec,
    schulz_invert,
    structure_table,
    transpose,
    two_norm,
)
from intalg.algebra import _Record
from intalg.errors import ExprSyntaxError
from intalg.exprcalc import (
    _MAX_EXPONENT,
    FUNCTIONS,
    BinOp,
    Call,
    ExprNode,
    IntervalLit,
    Neg,
    Num,
    Power,
    Var,
)


def ulp_scale(*values: float) -> float:
    scale = max(abs(v) for v in values)
    return math.ulp(scale) if scale > 0 else 5e-324


def close_ulps(a: float, b: float, n: int) -> bool:
    """|a - b| within n ulps at the scale of the larger magnitude."""
    return abs(a - b) <= n * ulp_scale(a, b)


def leq_ulps(a: float, b: float, n: int) -> bool:
    """a <= b with n ulps of slack."""
    return a <= b + n * ulp_scale(a, b)


def close_rel(a: float, b: float, rel: float) -> bool:
    """|a - b| within rel, relative to max(1, |b|)."""
    return abs(a - b) <= rel * max(1.0, abs(b))


def vectors_close_ulps(u, v, n: int, scale: float | None = None) -> bool:
    """Componentwise closeness, n ulps at the computation's magnitude scale.

    By default the scale is the largest entry of either vector; sums that
    cancel should pass the scale of their accumulated terms instead.
    """
    if scale is None:
        scale = max((abs(x) for x in (*u, *v)), default=0.0)
    if scale == 0.0:
        return all(a == b for a, b in zip(u, v))
    tol = n * math.ulp(scale)
    return all(abs(a - b) <= tol for a, b in zip(u, v))


def inf_norm(coeffs) -> float:
    return max(abs(c) for c in coeffs)


def bits(values) -> bytes:
    """IEEE-754 bytes of a float sequence: equal only when every bit is, so
    0.0 and -0.0 differ."""
    values = tuple(values)
    return struct.pack(f"{len(values)}d", *values)


# Special values for bit-for-bit comparisons: signed zeros, subnormals, the
# smallest normal, and magnitudes whose products overflow or underflow.
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.5, 3.0,
)


def draw_float(rng) -> float:
    """A special value, a number of random magnitude, or a plain uniform one."""
    r = rng.random()
    if r < 0.3:
        return rng.choice(SPECIAL_FLOATS)
    if r < 0.5:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)
    return rng.uniform(-5.0, 5.0)


def draw_coeff(rng) -> float:
    """``draw_float`` with an infinity of either sign one time in twenty."""
    if rng.random() < 0.05:
        return rng.choice((math.inf, -math.inf))
    return draw_float(rng)


def reference_alg_mul(u, v) -> tuple[float, ...]:
    """The algebra product as a direct walk over the structure table.

    Kept as the oracle for the library's scheduled kernel: same terms, same
    order of additions, so the two must agree bit for bit.
    """
    table = structure_table(u.order)
    n = len(table)
    a, b = u.coeffs, v.coeffs
    out = [0.0] * n
    for i in range(n):
        row = table[i]
        out[row[i]] += a[i] * b[i]
        for j in range(i + 1, n):
            out[row[j]] += a[i] * b[j] + a[j] * b[i]
    return tuple(out)


# Oracles for the generated coefficientwise kernels, as generator expressions
# over the coefficients: the same float operations, so they agree bit for bit.

def reference_add(u, v) -> tuple[float, ...]:
    return tuple(a + b for a, b in zip(u.coeffs, v.coeffs))


def reference_sub(u, v) -> tuple[float, ...]:
    return tuple(a - b for a, b in zip(u.coeffs, v.coeffs))


def reference_neg(u) -> tuple[float, ...]:
    return tuple(-c for c in u.coeffs)


def reference_scale(u, factor) -> tuple[float, ...]:
    return tuple(factor * c for c in u.coeffs)


def reference_collapse(u) -> tuple[float, float]:
    """The raw endpoint pair as the loop over the generators that the
    generated collapse kernel unrolled, NaN endpoints included."""
    return _collapse_raw(u.order, u.coeffs)


def reference_reads(x) -> dict[str, float]:
    """The float reads of an interval number, as the endpoint pair's own
    formulas give them on ``reference_collapse``'s endpoints: min, max,
    width, midpoint and norm.  Raises DomainError when an endpoint is NaN,
    as the library's reads do.

    Kept as the oracle for ``IntervalNumber``'s reads, which take their
    endpoints straight from the generated collapse kernel: the same float
    operations, so the two agree bit for bit.
    """
    lo, hi = reference_collapse(x)
    if lo != lo or hi != hi:
        raise DomainError(f"the reference collapse of {x.coeffs!r} is NaN")
    width = abs(hi - lo)
    midpoint = (lo + hi) / 2.0
    return {
        "min": lo if lo <= hi else hi,
        "max": hi if lo <= hi else lo,
        "width": width,
        "midpoint": midpoint,
        "norm": width + abs(midpoint),
    }


def reference_midpoint(x) -> float:
    return reference_reads(x)["midpoint"]


def reference_norm(x) -> float:
    return reference_reads(x)["norm"]


def reference_is_invertible(u) -> bool:
    """The invertibility test as a direct check of the split pairs.

    Kept as the oracle for the library's ``is_invertible``, which asks
    ``alg_inv`` instead: the element has order 4 and neither split pair
    (a1, a4), (a1 + a2, a3 + a4) has a zero or non-finite x^2 - y^2.
    """
    if u.order != 4:
        return False
    a1, a2, a3, a4 = u.coeffs
    for x, y in ((a1, a4), (a1 + a2, a3 + a4)):
        d = x * x - y * y
        if d == 0.0 or not math.isfinite(d):
            return False
    return True


def reference_alg_inv(u) -> tuple[float, ...]:
    """The order-4 inverse with each split pair's x^2 - y^2 formed unscaled.

    Kept as the oracle for the library's scaled split inverse where
    ``split_squares_in_range`` holds: there the scaling is exact and the
    two must agree bit for bit.
    """
    a1, a2, a3, a4 = u.coeffs
    inverse = []
    for x, y in ((a1, a4), (a1 + a2, a3 + a4)):
        d = x * x - y * y
        inverse.append((x / d, -y / d))
    (x1, x4), (x2, x3) = inverse
    return (x1, x2 - x1, x3 - x4, x4)


def split_squares_in_range(u) -> bool:
    """True when the squares of every order-4 split coordinate of u are
    zero or normal finite floats, so x*x - y*y neither underflows nor
    overflows and ``reference_is_invertible`` decides u exactly."""
    a1, a2, a3, a4 = u.coeffs
    return all(
        s == 0.0 or sys.float_info.min <= s * s < math.inf
        for s in (a1, a4, a1 + a2, a3 + a4)
    )


def exact_is_invertible(u) -> bool:
    """Invertibility decided in rational arithmetic.

    True when u has order 4, neither split pair (x, y) (the float
    coordinates a1, a4 and a1 + a2, a3 + a4) has x^2 == y^2 exactly, and
    every coefficient of the exact inverse rounds to a finite float.
    """
    if u.order != 4:
        return False
    a1, a2, a3, a4 = u.coeffs
    inverse = []
    for x, y in ((a1, a4), (a1 + a2, a3 + a4)):
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        d = Fraction(x) ** 2 - Fraction(y) ** 2
        if d == 0:
            return False
        inverse.append((Fraction(x) / d, -Fraction(y) / d))
    (x1, x4), (x2, x3) = inverse
    try:
        for c in (x1, x2 - x1, x3 - x4, x4):
            float(c)
    except OverflowError:
        return False
    return True


def _reference_dot(u, v):
    # The per-term fold: one alg_mul per pair, summed with AlgebraElement.__add__.
    acc = alg_mul(u[0].element, v[0].element)
    for a, b in zip(u.entries[1:], v.entries[1:]):
        acc = acc + alg_mul(a.element, b.element)
    return IntervalNumber(u[0].mode, acc)


def reference_matmul(a, b):
    """The matrix product as transpose, then one fold per entry.

    Kept as the oracle for the library's matmul, matvec, dot and frob_sq,
    which accumulate raw coefficient tuples instead: same products, same
    order of additions, so they must agree bit for bit.  Vectors pass as
    one-column matrices.
    """
    nrows, ncols = b.shape
    bt = IntervalMatrix(
        tuple(
            IntervalVector(tuple(b.rows[i][j] for i in range(nrows)))
            for j in range(ncols)
        )
    )
    return IntervalMatrix(
        tuple(
            IntervalVector(tuple(_reference_dot(row, col) for col in bt.rows))
            for row in a.rows
        )
    )


def reference_power_iterate(m, u0, iters: int):
    """Power iteration as it divided every entry of M u by the norm.

    Kept as the oracle for ``power_iterate``, which inverts the norm once per
    step and multiplies each entry by that inverse: division is the product
    with the divisor's inverse, so the two agree bit for bit.  Returns the
    eigenvalue, the eigenvector and the trace.
    """
    u = u0
    trace = []
    for k in range(1, iters + 1):
        w = matvec(m, u)
        norm = two_norm(w)
        u = IntervalVector(tuple(wi / norm for wi in w))
        lam = dot(u, matvec(m, u)) / dot(u, u)
        trace.append(IterationRecord(k, lam.raw))
    return lam, u, tuple(trace)


def reference_schulz_invert(m, tol: float = 1e-12, max_iter: int = 100):
    """Schulz-Hotelling inversion as it iterated the interval matrices
    themselves: X <- X (2I - M X), two ``matmul`` calls a step, stopping when
    every entry of M X has midpoint within tol of the identity.

    Kept as the oracle for ``schulz_invert``, which runs the same iteration
    from the same seed in the four character planes: the values are the same
    up to rounding, so the two agree within a measured ulp bound, not bit for
    bit.  The argument checks are the library's and are left out here.
    """
    n = m.shape[0]
    scale = interval(1.0, order=m.order, mode=m.mode) / frob_sq(m)
    x = transpose(m).scale(scale)
    two_i = identity_matrix(n, m.order, m.mode).scale(2.0)
    resid = None
    for _ in range(max_iter):
        p = matmul(m, x)
        resid = max(
            abs(reference_midpoint(p[i, j]) - (1.0 if i == j else 0.0))
            for i in range(n)
            for j in range(n)
        )
        if resid < tol:
            return x
        x = matmul(x, two_i - p)
    raise ConvergenceError("matrix inversion did not converge", residual=resid)


def dominant_matrix(rng, n: int, max_radius: float = 0.01) -> IntervalMatrix:
    """A diagonally dominant interval matrix: centres in [-1, 1] off the
    diagonal, as the benchmark draws them, each entry with its own radius.
    Each diagonal is a left-to-right fold, so the matrices are the same on
    every Python version; the builtin ``sum`` of floats is compensated from
    3.12 on."""
    rows = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        d = 0.0
        for j, v in enumerate(row):
            if j != i:
                d += abs(v)
        d += rng.uniform(1.0, 1.5)
        row[i] = d if rng.random() < 0.5 else -d
    return IntervalMatrix(
        [[interval(c, eps=rng.uniform(0.0, max_radius)) for c in row] for row in rows]
    )


def schulz_worst_ulps(seeds, sizes) -> float:
    """The largest distance of an endpoint of ``schulz_invert`` from that of
    ``reference_schulz_invert``, in ulps of the task's largest reference
    endpoint, over one ``dominant_matrix`` per size drawn from each seed's
    ``random.Random``."""
    worst = 0.0
    for seed in seeds:
        rng = random.Random(seed)
        for n in sizes:
            m = dominant_matrix(rng, n)
            got, want = schulz_invert(m), reference_schulz_invert(m)
            ends = [(e.raw.lo, e.raw.hi) for r in want.rows for e in r]
            unit = math.ulp(max(max(abs(lo), abs(hi)) for lo, hi in ends))
            for e, (lo, hi) in zip((e for r in got.rows for e in r), ends):
                worst = max(worst, abs(e.raw.lo - lo) / unit, abs(e.raw.hi - hi) / unit)
    return worst


def reference_scalar(s: float, x: IntervalNumber) -> IntervalNumber:
    """A real operand as the library coerced it before scalars went straight
    to coefficients: the point interval ``interval(s)`` at x's order and mode.
    Kept as the oracle for the scalar operand path of ``IntervalNumber``."""
    return interval(s, order=x.order, mode=x.mode)


def _reference_center(x: IntervalNumber, style: FdStyle) -> IntervalNumber:
    if style is FdStyle.MIDPOINT:
        return interval(reference_midpoint(x), order=x.order, mode=x.mode)
    return x


def reference_fd_first(f, x: IntervalNumber, h: float, style: FdStyle):
    """``fd_first`` with every real operand built by ``reference_scalar``."""
    c = _reference_center(x, style)
    d = f(c + reference_scalar(h, c)) - f(c - reference_scalar(h, c))
    if style is FdStyle.MIDPOINT:
        return interval(reference_midpoint(d) / (2.0 * h), order=x.order, mode=x.mode)
    return d / reference_scalar(2.0 * h, x)


def reference_fd_second(f, x: IntervalNumber, h: float, style: FdStyle):
    """``fd_second`` with every real operand built by ``reference_scalar``;
    ``2.0 * f(c)`` is written as the product the library formed for it."""
    h2 = h * h
    c = _reference_center(x, style)
    up = f(c + reference_scalar(h, c))
    down = f(c - reference_scalar(h, c))
    fc = f(c)
    s = up + down - fc * reference_scalar(2.0, fc)
    if style is FdStyle.MIDPOINT:
        return interval(reference_midpoint(s) / h2, order=x.order, mode=x.mode)
    return s / reference_scalar(h2, x)


def reference_gradient_descent(f, x0: IntervalNumber, cfg) -> tuple:
    """Gradient descent with every difference taken by ``reference_fd_first``,
    which divides by the point [2h, 2h] afresh on each call.

    Kept as the oracle for ``gradient_descent``, which multiplies by a
    stored inverse of that point in full style: ``/`` is that product, so
    the two traces agree bit for bit.  Returns the trace up to convergence
    or ``max_iter`` updates.
    """
    x = x0
    trace = [IterationRecord(0, x.raw, f(x).raw)]
    for k in range(1, cfg.max_iter + 1):
        fp = reference_fd_first(f, x, cfg.h, cfg.style)
        if reference_norm(fp) <= cfg.eps:
            break
        x = x - fp * reference_scalar(cfg.rho, fp)
        trace.append(IterationRecord(k, x.raw, f(x).raw))
    return tuple(trace)


def reference_newton_iterates(f, x0: IntervalNumber, cfg):
    """The iterates x0, x1, ... of ``reference_newton_raphson``, up to
    convergence or ``max_iter`` updates; each step is taken from separate
    ``fd_first`` and ``fd_second`` calls, 8 evaluations of f an iteration."""
    x = x0
    yield x
    for _ in range(cfg.max_iter):
        if reference_norm(reference_fd_first(f, x, cfg.h, cfg.style)) <= cfg.eps:
            return
        fp = reference_fd_first(f, x, cfg.h, cfg.style)
        fpp = reference_fd_second(f, x, cfg.h, cfg.style)
        x = x - fp / fpp
        yield x


def reference_newton_raphson(f, x0: IntervalNumber, cfg) -> tuple:
    """Newton-Raphson as it took each step from separate ``fd_first`` and
    ``fd_second`` calls, with f(x) for the trace taken before each stop test.

    Kept as the oracle for ``newton_raphson``, which reuses the stop test's
    f(x+h), f(x-h) and first difference in the step, and in full style the
    trace's f(x), so it evaluates each distinct point once: the values are
    the same, so the traces, and the errors an objective raises partway,
    agree.  Returns the trace up to convergence or ``max_iter`` updates.
    """
    return tuple(
        IterationRecord(k, x.raw, f(x).raw)
        for k, x in enumerate(reference_newton_iterates(f, x0, cfg))
    )


def _neighbors(value: float):
    # The value itself first, then the four nearest doubles.
    yield value
    down = math.nextafter(value, -math.inf)
    up = math.nextafter(value, math.inf)
    yield down
    yield up
    yield math.nextafter(down, -math.inf)
    yield math.nextafter(up, math.inf)


def _collapse_raw(order, coeffs) -> tuple[float, float]:
    lo = 0.0
    hi = 0.0
    for c, (glo, ghi) in zip(coeffs, generator_endpoints(order)):
        lo += c * glo
        hi += c * ghi
    return lo, hi


def _best_two_ray(order, lo, hi, idx_a, cands_a, idx_b, cands_b) -> list[float]:
    n = int(order)
    best = None
    best_err = math.inf
    for a in cands_a:
        if a < 0.0:
            continue
        for b in cands_b(a) if callable(cands_b) else cands_b:
            if b < 0.0:
                continue
            coeffs = [0.0] * n
            coeffs[idx_a] = a
            coeffs[idx_b] = b
            l2, h2 = _collapse_raw(order, coeffs)
            if l2 == lo and h2 == hi:
                return coeffs
            err = abs(l2 - lo) + abs(h2 - hi)
            if err < best_err:
                best_err = err
                best = coeffs
    if best is None:
        raise DomainError(f"no embedding of ({lo!r}, {hi!r}) found at order {n}")
    return best


def _embed_zero_cone(lo: float, hi: float, order: AlgebraOrder) -> list[float]:
    # lo < 0 < hi strictly.  Generator rays fanning across the cone, sorted by
    # -lo/hi slope; the gates below are exact float comparisons.
    if order == AlgebraOrder.ORDER_4:
        n = int(order)
        coeffs = [0.0] * n
        coeffs[1] = hi
        coeffs[2] = -lo
        return coeffs
    if order == AlgebraOrder.ORDER_5:
        if -lo <= hi:
            # between [0,1] and [-1,1]: lo pins the e5 coefficient exactly
            return _best_two_ray(order, lo, hi, 4, (-lo,), 1, _neighbors(hi + lo))
        # between [-1,1] and [-1,0]: hi pins the e5 coefficient exactly
        return _best_two_ray(order, lo, hi, 4, (hi,), 2, _neighbors(-lo - hi))
    # order 7
    if -2.0 * lo <= hi:
        # between [0,1] and [-1/2,1]
        return _best_two_ray(
            order, lo, hi, 6, (-2.0 * lo,), 1, _neighbors(hi + 2.0 * lo)
        )
    if -lo <= hi:
        # between [-1/2,1] and [-1,1]: both rays touch both endpoints
        return _best_two_ray(
            order,
            lo,
            hi,
            6,
            _neighbors(2.0 * (lo + hi)),
            4,
            lambda a: _neighbors(hi - a),
        )
    if -lo <= 2.0 * hi:
        # between [-1,1] and [-1,1/2]
        return _best_two_ray(
            order,
            lo,
            hi,
            5,
            _neighbors(-2.0 * (lo + hi)),
            4,
            lambda a: _neighbors(hi - 0.5 * a),
        )
    # between [-1,1/2] and [-1,0]
    return _best_two_ray(order, lo, hi, 5, (2.0 * hi,), 2, _neighbors(-lo - 2.0 * hi))


def reference_embed(lo: float, hi: float, order: int) -> tuple[float, ...]:
    """The coefficients of embed(lo, hi, order) for finite endpoints, as the
    hand-written per-cone ray probe builds them.

    Kept as the oracle for the library's table-driven embedding kernel and
    its closed-form point embedding.  Each cone has its own branch: one
    coefficient is pinned by an endpoint (or solved, with its four nearest
    doubles tried), the other is solved from the remaining endpoint and
    probed the same way, and the first pair whose full collapse is exact
    wins, else the closest.  Points take the lo >= 0 or hi <= 0 branch;
    improper pairs are the negation of the mirrored proper pair.
    """
    order = AlgebraOrder(order)
    lo = float(lo)
    hi = float(hi)
    if lo > hi:
        return tuple(-c for c in reference_embed(-lo, -hi, order))
    if lo >= 0.0:
        coeffs = _best_two_ray(order, lo, hi, 0, (lo,), 1, _neighbors(hi - lo))
    elif hi <= 0.0:
        coeffs = _best_two_ray(order, lo, hi, 3, (-hi,), 2, _neighbors(hi - lo))
    else:
        coeffs = _embed_zero_cone(lo, hi, order)
    return tuple(coeffs)


# -- expression parser oracle ---------------------------------------------------
#
# The hand-written recursive-descent front end that the one-pattern tokenizer
# and precedence-climbing parser of ``intalg.exprcalc`` replaced, kept as the
# oracle for their ASTs, error messages and error positions.

class _Token(_Record):
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


def reference_parse(text: str):
    """The AST (or positioned ExprSyntaxError) of the recursive-descent parser.

    One exception is known: an exponent literal that overflows to inf (such
    as ``x^1e400``) raises a bare OverflowError here, where the library
    reports "exponent too large".
    """
    return _Parser(_tokenize(text)).parse()


# -- interval literal oracle ----------------------------------------------------
#
# The regex reader of option values that ``intalg.interval._Reader`` replaced,
# frozen as the oracle for which texts read as which endpoint pairs.

_REF_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_REF_BRACKET_RE = re.compile(rf"^\[\s*({_REF_NUM})\s*,\s*({_REF_NUM})\s*\]$")
_REF_BALL_RE = re.compile(rf"^({_REF_NUM})\s*(?:±|\+-)\s*({_REF_NUM})$")
_REF_BARE_RE = re.compile(rf"^({_REF_NUM})$")


def reference_parse_interval_literal(text: str) -> tuple[float, float]:
    """Parse "[a,b]", "c±e" (ASCII synonym "c+-e") or a bare number.

    Raises ValueError for malformed text and for endpoints that are not finite.
    """
    s = text.strip()
    if m := _REF_BRACKET_RE.match(s):
        lo, hi = float(m[1]), float(m[2])
    elif m := _REF_BALL_RE.match(s):
        c, e = float(m[1]), float(m[2])
        if e < 0:
            raise ValueError(f"negative radius in interval literal: {text!r}")
        lo, hi = c - e, c + e
    elif m := _REF_BARE_RE.match(s):
        lo = hi = float(m[1])
    else:
        raise ValueError(f"invalid interval literal: {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval literal is not finite: {text!r}")
    return lo, hi


# Pieces of literal soups: numbers (Unicode digits, an overflowing one and one
# whose ball overflows among them), signs, both ball spellings, the two
# characters of '+-' spaced apart, brackets, commas, whitespace and strays.
LITERAL_NUMBERS = ("1", "2", "0", "2.5", ".5", "3.", "1e3", "2E-2", "1e400", "1e308",
                   "٣", "١.٢", "１")
LITERAL_PIECES = LITERAL_NUMBERS + (
    "+", "-", "±", "+-", "+ -", "+\t-", "[", "]", ",", " ", "\t", "　", "\xa0",
    "\x1c", "\n", "x", "e", "1e", ";", ".",
)


def literal_soup(rng) -> str:
    """Text shaped like an interval literal or a near miss of one: a token
    soup, or a number, bracket or ball whose numbers carry random signs and
    spacing, with at times one more piece put in."""

    def gap():
        return rng.choice(("", "", " ", "\t", "　"))

    def number():
        signs = "".join(rng.choices(("+", "-", "-", " "), k=rng.choice((0, 0, 1, 1, 2, 3))))
        return signs + rng.choice(LITERAL_NUMBERS)

    r = rng.random()
    if r < 0.3:
        text = "".join(rng.choices(LITERAL_PIECES, k=rng.randint(1, 8)))
    elif r < 0.5:
        text = gap() + number() + gap()
    elif r < 0.75:
        text = f"{gap()}[{gap()}{number()}{gap()},{gap()}{number()}{gap()}]{gap()}"
    else:
        op = rng.choice(("±", "+-", "+-", "+ -", "+", "-"))
        text = f"{gap()}{number()}{gap()}{op}{gap()}{number()}{gap()}"
    if rng.random() < 0.2:
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(LITERAL_PIECES) + text[i:]
    return text
