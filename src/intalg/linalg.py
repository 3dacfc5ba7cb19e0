"""Interval vectors and matrices, power iteration and Schulz-Hotelling inversion.

All reductions run in a fixed left-to-right order so results are reproducible;
nothing collapses to endpoints between operations.  ``matmul``, ``matvec``,
``dot`` and ``power_iterate`` run the algebra's product kernel, and their
results are pinned bit for bit.  ``schulz_invert`` forms its seed, iterates
and takes each step's residual in the four character planes of the order-4
algebra, where an interval matrix is four real matrices; it keeps X by
columns, and one compile per size generates the step's kernels: the product,
the columns of 2I - M X and the residual.  Its results are checked against
the interval iteration within a measured rounding bound, and the X it
returns passes the ``matmul`` stop test.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from operator import add, mul, truediv
from typing import Iterator, Sequence

from .algebra import (
    _ADD,
    AlgebraOrder,
    _chars,
    _check_count,
    _check_positive,
    _compile,
    _from_chars,
    _Record,
    alg_mul,
)
from .errors import (
    ConvergenceError,
    DivisionNotAllowedError,
    DomainError,
    ExprSyntaxError,
    ModeMismatchError,
    OrderMismatchError,
    ShapeMismatchError,
    UnsupportedOrderError,
)
from .interval import (
    ArithmeticMode,
    IntervalNumber,
    IterationRecord,
    _number,
    _operand,
    _option_reader,
    _reciprocal,
    format_interval,
    interval,
    sqrt,
)

__all__ = [
    "IntervalVector",
    "IntervalMatrix",
    "identity_matrix",
    "dot",
    "matvec",
    "matmul",
    "transpose",
    "frob_sq",
    "two_norm",
    "PowerIterationResult",
    "power_iterate",
    "schulz_invert",
    "parse_matrix_text",
    "format_matrix",
]


def _check_uniform(entries: Sequence[IntervalNumber], what: str) -> None:
    """Raise unless entries are interval numbers (TypeError), at least one
    (ShapeMismatchError), of one mode and one order."""
    if not entries:
        raise ShapeMismatchError(f"{what} must not be empty")
    first = entries[0]
    for e in entries:
        if not isinstance(e, IntervalNumber):
            raise TypeError(f"{what} entries must be IntervalNumbers, not {type(e).__name__}")
        if e.mode is not first.mode:
            raise ModeMismatchError(f"{what} mixes arithmetic modes")
        if e.order != first.order:
            raise OrderMismatchError(f"{what} mixes algebra orders")


class IntervalVector(_Record):
    entries: tuple[IntervalNumber, ...]

    def __init__(self, entries: Sequence[IntervalNumber]):
        entries = tuple(entries)
        _check_uniform(entries, "vector")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[IntervalNumber]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> IntervalNumber:
        return self.entries[i]

    @property
    def mode(self) -> ArithmeticMode:
        return self.entries[0].mode

    @property
    def order(self) -> AlgebraOrder:
        return self.entries[0].order

    def __add__(self, other: "IntervalVector") -> "IntervalVector":
        if len(other) != len(self):
            raise ShapeMismatchError("vector lengths differ")
        return IntervalVector(tuple(a + b for a, b in zip(self, other)))

    def __sub__(self, other: "IntervalVector") -> "IntervalVector":
        if len(other) != len(self):
            raise ShapeMismatchError("vector lengths differ")
        return IntervalVector(tuple(a - b for a, b in zip(self, other)))

    def scale(self, factor) -> "IntervalVector":
        return IntervalVector(tuple(e * factor for e in self.entries))


class IntervalMatrix(_Record):
    rows: tuple[IntervalVector, ...]

    def __init__(self, rows: Sequence[IntervalVector | Sequence[IntervalNumber]]):
        rows = tuple(
            r if isinstance(r, IntervalVector) else IntervalVector(r) for r in rows
        )
        if not rows:
            raise ShapeMismatchError("matrix must not be empty")
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatchError("matrix rows have unequal lengths")
        # Each row is uniform, so the rows' first entries speak for all.
        _check_uniform(tuple(r[0] for r in rows), "matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    @property
    def mode(self) -> ArithmeticMode:
        return self.rows[0].mode

    @property
    def order(self) -> AlgebraOrder:
        return self.rows[0].order

    def __getitem__(self, ij: tuple[int, int]) -> IntervalNumber:
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        if other.shape != self.shape:
            raise ShapeMismatchError("matrix shapes differ")
        return IntervalMatrix(tuple(a + b for a, b in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        if other.shape != self.shape:
            raise ShapeMismatchError("matrix shapes differ")
        return IntervalMatrix(tuple(a - b for a, b in zip(self.rows, other.rows)))

    def __matmul__(self, other):
        if isinstance(other, IntervalMatrix):
            return matmul(self, other)
        if isinstance(other, IntervalVector):
            return matvec(self, other)
        return NotImplemented

    def scale(self, factor) -> "IntervalMatrix":
        return IntervalMatrix(tuple(r.scale(factor) for r in self.rows))


def identity_matrix(
    n: int,
    order: int | AlgebraOrder = 4,
    mode: ArithmeticMode = ArithmeticMode.TRUE,
) -> IntervalMatrix:
    one = interval(1.0, order=order, mode=mode)
    zero = interval(0.0, order=order, mode=mode)
    return IntervalMatrix(
        tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    )


def _dot(
    us: Sequence[IntervalNumber], vs: Sequence[IntervalNumber]
) -> tuple[float, ...]:
    """Coefficients of the left-to-right sum of ``alg_mul(us[k], vs[k])``
    over k, one product per term, accumulated as raw coefficients.

    ``alg_mul`` reads only the numbers' orders and coefficients, so the
    entries go to it as they are.  The additions are those of folding the
    products with ``+``.  Callers have checked that all entries share one
    mode and one order.
    """
    products = map(alg_mul, us, vs)
    first = next(products)
    add = _ADD[first.order]
    acc = first.coeffs
    for p in products:
        acc = add(acc, p.coeffs)
    return acc


def dot(u: IntervalVector, v: IntervalVector) -> IntervalNumber:
    """Left-to-right sum of the entrywise products, accumulated as
    coefficients and wrapped as an interval number once."""
    if len(u) != len(v):
        raise ShapeMismatchError("vector lengths differ")
    head = u[0]
    # Raises on mixed modes or orders as head * v[0] would; each vector is
    # uniform, so the first pair speaks for all of them.
    _operand(head, v[0])
    return _number(head.mode, head.order, _dot(u.entries, v.entries))


def matvec(m: IntervalMatrix, u: IntervalVector) -> IntervalVector:
    if m.shape[1] != len(u):
        raise ShapeMismatchError(
            f"matrix of shape {m.shape} cannot multiply vector of length {len(u)}"
        )
    return IntervalVector(tuple(dot(row, u) for row in m.rows))


def transpose(m: IntervalMatrix) -> IntervalMatrix:
    nrows, ncols = m.shape
    return IntervalMatrix(
        tuple(tuple(m.rows[i][j] for i in range(nrows)) for j in range(ncols))
    )


def matmul(a: IntervalMatrix, b: IntervalMatrix) -> IntervalMatrix:
    """Entry (i, j) is ``dot`` of row i of a and column j of b."""
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"cannot multiply shapes {a.shape} and {b.shape}")
    head = a.rows[0][0]
    # Each matrix is uniform, so the first pair speaks for all of them.
    _operand(head, b.rows[0][0])
    mode, order = head.mode, head.order
    cols = list(zip(*(r.entries for r in b.rows)))
    return IntervalMatrix(
        tuple(
            tuple(_number(mode, order, _dot(row.entries, col)) for col in cols)
            for row in a.rows
        )
    )


def frob_sq(m: IntervalMatrix) -> IntervalNumber:
    """Sum of squared entries (row-major, left to right)."""
    flat = [e for r in m.rows for e in r.entries]
    return _number(m.mode, m.order, _dot(flat, flat))


def two_norm(u: IntervalVector) -> IntervalNumber:
    """Euclidean norm through the algebra: sqrt of the sum of squares."""
    return sqrt(dot(u, u))


class PowerIterationResult(_Record):
    eigenvalue: IntervalNumber
    eigenvector: IntervalVector
    trace: tuple[IterationRecord, ...]


def power_iterate(
    m: IntervalMatrix, u0: IntervalVector, iters: int
) -> PowerIterationResult:
    """Normalized power iteration with a Rayleigh quotient estimate per step.

    Each step maps u to M u / ||M u||, multiplying every entry by the one
    inverse of the norm; the eigenvalue estimate after a step is
    <u, M u> / <u, u>.  The trace records the estimate's endpoints per step.
    """
    nrows, ncols = m.shape
    if nrows != ncols:
        raise ShapeMismatchError(f"matrix must be square, got shape {m.shape}")
    if len(u0) != nrows:
        raise ShapeMismatchError("start vector length does not match the matrix")
    if m.order != AlgebraOrder.ORDER_4:
        raise UnsupportedOrderError("power iteration divides, which needs order 4")
    _check_count("iters", iters)
    u = u0
    w = matvec(m, u)
    trace: list[IterationRecord] = []
    lam = None
    for k in range(1, iters + 1):
        norm = two_norm(w)
        scale = _number(norm.mode, norm.order, _reciprocal(norm))
        u = IntervalVector(tuple(wi * scale for wi in w))
        w = matvec(m, u)  # the Rayleigh quotient's M u is the next step's
        lam = dot(u, w) / dot(u, u)
        trace.append(IterationRecord(k, lam.raw))
    return PowerIterationResult(lam, u, tuple(trace))


@functools.lru_cache(maxsize=64)
def _plane_product(n: int):
    """The real matrix product for rows and columns of length n, compiled on
    the length's first use: ``product(rows, cols)`` is the list of rows
    ``[[dot(row, col) for col in cols] for row in rows]``.

    Each entry is the left-to-right fold ``a0*b0 + a1*b1 + ...``, one rounding
    per product and per addition in that order, so its results are the same on
    every Python version; the builtin ``sum`` of floats is compensated from
    3.12 on, and ``math.fsum`` and ``math.sumprod`` round differently too.
    Each row is unpacked into locals once, and the loop over the columns is
    generated statements, not a call per entry.  One statement per 16 terms,
    ``s = s + t + ...``, keeps the expressions shallow and the source linear
    in n without changing the fold.

    The same compile makes the Schulz step's two other kernels for n x n
    matrices given by columns, kept as attributes of the product:
    ``product.two_i_minus(cols)`` is the columns of 2I - P, ``0.0 - v`` off
    the diagonal (+0.0 for a zero, unlike -v) and ``2.0 - v`` on it; and
    ``product.residual(c1, c3)`` is ``(largest, total)`` of the distances
    ``abs((a + b) / 2.0 - identity entry)`` over the entries a of c1 and b of
    c3, where total, their sum, is finite only if every distance is.
    """
    terms = [f"a{i} * b{i}" for i in range(n)]
    chunks = [" + ".join(terms[k : k + 16]) for k in range(0, n, 16)]
    dists = [f"d{i}" for i in range(n)]
    a_vars, b_vars, e_vars = ("(" + "".join(f"{p}{i}, " for i in range(n)) + ")" for p in "abe")
    diffs = ", ".join(f"e{i} - b{i}" for i in range(n))
    source = "\n".join(
        [
            "def product(rows, cols):",
            "    out = []",
            f"    for {a_vars} in rows:",
            "        row = []",
            f"        for {b_vars} in cols:",
            f"            s = {chunks[0]}",
            *(f"            s = s + {c}" for c in chunks[1:]),
            "            row.append(s)",
            "        out.append(row)",
            "    return out",
            "def two_i_minus(cols):",
            f"    return [[{diffs}] for {e_vars}, {b_vars} in zip(_twos, cols)]",
            "def residual(c1, c3):",
            "    r = t = 0.0",
            f"    for {e_vars}, {a_vars}, {b_vars} in zip(_ones, c1, c3):",
            *(f"        d{i} = abs((a{i} + b{i}) / 2.0 - e{i})" for i in range(n)),
            *(f"        t = t + {' + '.join(dists[k : k + 16])}" for k in range(0, n, 16)),
            f"        r = max(r, {', '.join(dists)})",
            "    return r, t",
        ]
    )
    unit = [[float(i == j) for i in range(n)] for j in range(n)]
    twos = [[2.0 * v for v in col] for col in unit]
    names = _compile(source, f"<plane product, length {n}>", _ones=unit, _twos=twos)
    product = names["product"]
    product.two_i_minus, product.residual = names["two_i_minus"], names["residual"]
    return product


def _planes(rows) -> tuple:
    """The four character planes of a square matrix given as rows of order-4
    coefficient tuples: plane k is the real matrix of the entries' k-th
    characters, as a tuple of rows."""
    return tuple(zip(*(tuple(zip(*map(_chars, row))) for row in rows)))


def _identity_residual(rows) -> float:
    """The largest |midpoint - identity entry| over a square matrix given as
    rows of midpoints.  A non-finite midpoint (the iteration overflowed)
    raises DomainError."""
    resid = 0.0
    for i, row in enumerate(rows):
        for j, mid in enumerate(row):
            r = abs(mid - (1.0 if i == j else 0.0))
            if not math.isfinite(r):
                raise DomainError(
                    f"matrix inversion overflowed: entry ({i}, {j}) of M X is not finite"
                )
            resid = max(resid, r)
    return resid


def _plane_residual(c1, c3) -> float:
    """``_identity_residual`` of the midpoints (a + b) / 2 of a square matrix
    whose characters 1 and 3 are given by the columns c1 and c3: the same
    value, or the same error, taken by the size's generated ``residual``."""
    resid, total = _plane_product(len(c1)).residual(c1, c3)
    if math.isfinite(total):
        return resid
    # A distance is not finite, or only their sum overflowed: the entry loop
    # names the first non-finite entry in row order, or returns the largest.
    return _identity_residual(
        [list(map(truediv, map(add, a, b), repeat(2.0))) for a, b in zip(zip(*c1), zip(*c3))]
    )


_SCHULZ_TOL, _SCHULZ_MAX_ITER = 1e-12, 100  # schulz_invert's defaults, which the CLI shares


def schulz_invert(
    m: IntervalMatrix,
    tol: float = _SCHULZ_TOL,
    max_iter: int = _SCHULZ_MAX_ITER,
) -> IntervalMatrix:
    """Quadratic inverse iteration X <- X (2I - M X), seeded with M^T / sum(M_ij^2).

    The iteration runs in the four character planes of the order-4 algebra,
    where the product is componentwise.  M, scaled by 2**-e so that its
    largest coefficient lies in [0.5, 1), is mapped there once; plane k of the
    seed divides by that plane's sum of squares.  Each plane of X is kept by
    columns, so a step runs the generated kernels of the matrix's size: two
    real matrix products per plane, M X and X (2I - M X), both by columns,
    the columns of 2I - M X, and its residual, the largest |midpoint -
    identity entry| of M X, read off planes 1 and 3, whose half sum is the
    order-4 midpoint.  Results obey the rounding-error bound of a real matrix
    product, not the interval bits.

    Below ``tol``, X is mapped back, scaled back and confirmed with
    ``matmul(m, x)``, the documented stop test: the returned X always passes
    it, and a candidate that fails it iterates on.  Requires true
    arithmetic: the cancellation in 2I - M X is what keeps the iteration
    contracting.  On failure the ConvergenceError carries the residual of the
    last candidate X.  A matrix whose inverse is too large for a float raises
    DomainError.
    """
    nrows, ncols = m.shape
    if nrows != ncols:
        raise ShapeMismatchError(f"matrix must be square, got shape {m.shape}")
    if m.order != AlgebraOrder.ORDER_4:
        raise UnsupportedOrderError("matrix inversion divides, which needs order 4")
    if m.mode is not ArithmeticMode.TRUE:
        raise ModeMismatchError("schulz_invert requires true arithmetic")
    _check_count("max_iter", max_iter)
    _check_positive("tol", tol, finite=False)
    mode, order = m.mode, m.order
    e = math.frexp(max(abs(c) for r in m.rows for x in r for c in x.coeffs))[1]
    scaled = ([tuple(math.ldexp(c, -e) for c in x.coeffs) for x in r] for r in m.rows)
    m_planes = _planes(scaled)
    flats = ([v for row in mk for v in row] for mk in m_planes)
    # the left-to-right fold of the squares, as _plane_product folds a dot
    sums = [functools.reduce(add, map(mul, f, f)) for f in flats]
    if 0.0 in sums:
        divisor = _number(mode, order, _from_chars(*sums))
        raise DivisionNotAllowedError(
            "matrix is not invertible: the sum of its squared entries (scaled by "
            f"2**{-2 * e}) is {format_interval(divisor.raw)}",
            divisor=divisor,
        )
    # column j of X is row j of M over the sum
    x_planes = [[[v / s for v in row] for row in mk] for mk, s in zip(m_planes, sums)]
    product = _plane_product(nrows)
    resid = None
    for _ in range(max_iter):
        # Columns by rows give the columns of the rows-by-columns product: each
        # term's factors swap, which leaves its IEEE product exact, and the
        # fold keeps its order.
        p_planes = [product(xk, mk) for xk, mk in zip(x_planes, m_planes)]
        resid = _plane_residual(p_planes[0], p_planes[2])
        if resid < tol:
            try:  # map X back out of the planes and scale it back by 2**-e
                x = IntervalMatrix(
                    [_number(mode, order, tuple(math.ldexp(c, -e) for c in cs)) for cs in r]
                    for r in (
                        map(_from_chars, *rows)
                        for rows in zip(*(zip(*xk) for xk in x_planes))
                    )
                )
            except OverflowError:
                raise DomainError(
                    "the inverse of the matrix is too large for a float"
                ) from None
            resid = _identity_residual([[y.midpoint for y in r] for r in matmul(m, x).rows])
            if resid < tol:
                return x
        x_planes = [
            product(product.two_i_minus(pk), tuple(zip(*xk)))
            for xk, pk in zip(x_planes, p_planes)
        ]
    raise ConvergenceError(
        f"matrix inversion did not reach tol={tol:g} after {max_iter} iterations "
        f"(last residual {resid:.3e})",
        residual=resid,
    )


# ---------------------------------------------------------------------------
# Text form: one row per line, entries comma separated, interval literals
# ---------------------------------------------------------------------------

def _row_literals(number: int, line: str) -> list[tuple[float, ...]]:
    """Matrix line ``number``'s pairs: literals, comma separated, empty entries skipped."""
    try:
        reader, pairs = _option_reader(line), []
        while tok := reader.peek():
            if tok == ",":
                reader.advance()
            else:
                pairs.append(reader.literal((",", "")))
        return pairs
    except ExprSyntaxError as err:
        raise ValueError(f"matrix text line {number}: {err}") from None


def parse_matrix_text(
    text: str,
    order: int | AlgebraOrder = 4,
    mode: ArithmeticMode = ArithmeticMode.TRUE,
) -> IntervalMatrix:
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ShapeMismatchError("matrix text contained no rows")
    # IntervalMatrix wraps each row as it is parsed, so the first bad line
    # raises first, be it an empty row or a bad literal.
    return IntervalMatrix(
        [interval(*pair, order=order, mode=mode) for pair in _row_literals(n, line)]
        for n, line in lines
    )


def format_matrix(m: IntervalMatrix, raw: bool = False) -> str:
    """Session layout: rows of concatenated interval displays inside [* ... *]."""
    lines = ["[*"]
    for row in m.rows:
        lines.append("".join(format_interval(e.raw, raw=raw) for e in row))
    lines.append("*]")
    return "\n".join(lines)
