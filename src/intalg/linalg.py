"""Interval vectors and matrices, power iteration and Schulz-Hotelling inversion.

All reductions run in a fixed left-to-right order so results are reproducible;
nothing collapses to endpoints between operations.
"""

from __future__ import annotations

from operator import add
from typing import Iterator, Sequence

from .algebra import AlgebraElement, AlgebraOrder, _element, _Record, alg_mul
from .errors import (
    ConvergenceError,
    ModeMismatchError,
    OrderMismatchError,
    ShapeMismatchError,
    UnsupportedOrderError,
)
from .interval import (
    ArithmeticMode,
    IntervalNumber,
    IterationRecord,
    _reciprocal,
    format_interval,
    interval,
    parse_interval_literal,
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
    if not entries:
        raise ShapeMismatchError(f"{what} must not be empty")
    first = entries[0]
    for e in entries[1:]:
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
        tuple(
            IntervalVector(tuple(one if i == j else zero for j in range(n)))
            for i in range(n)
        )
    )


def _dot(us: Sequence[AlgebraElement], vs: Sequence[AlgebraElement]) -> AlgebraElement:
    """Left-to-right sum of ``alg_mul(us[k], vs[k])`` over k, one product per
    term, accumulated as raw coefficients and wrapped as an element once.

    The additions are those of folding the products with
    ``AlgebraElement.__add__``.  Callers have checked that all elements share
    one order.
    """
    products = map(alg_mul, us, vs)
    first = next(products)
    acc = first.coeffs
    for p in products:
        acc = tuple(map(add, acc, p.coeffs))
    return _element(first.order, acc)


def dot(u: IntervalVector, v: IntervalVector) -> IntervalNumber:
    """Left-to-right sum of the entrywise products, accumulated as algebra
    elements and wrapped as an interval number once."""
    if len(u) != len(v):
        raise ShapeMismatchError("vector lengths differ")
    head = u[0]
    # Raises on mixed modes or orders as head * v[0] would; each vector is
    # uniform, so the first pair speaks for all of them.
    head._coerce(v[0])
    return IntervalNumber(
        head.mode,
        _dot([a.element for a in u.entries], [b.element for b in v.entries]),
    )


def matvec(m: IntervalMatrix, u: IntervalVector) -> IntervalVector:
    if m.shape[1] != len(u):
        raise ShapeMismatchError(
            f"matrix of shape {m.shape} cannot multiply vector of length {len(u)}"
        )
    return IntervalVector(tuple(dot(row, u) for row in m.rows))


def transpose(m: IntervalMatrix) -> IntervalMatrix:
    nrows, ncols = m.shape
    return IntervalMatrix(
        tuple(
            IntervalVector(tuple(m.rows[i][j] for i in range(nrows)))
            for j in range(ncols)
        )
    )


def matmul(a: IntervalMatrix, b: IntervalMatrix) -> IntervalMatrix:
    """Entry (i, j) is ``dot`` of row i of a and column j of b."""
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"cannot multiply shapes {a.shape} and {b.shape}")
    head = a.rows[0][0]
    # Each matrix is uniform, so the first pair speaks for all of them.
    head._coerce(b.rows[0][0])
    mode = head.mode
    cols = [[e.element for e in col] for col in zip(*(r.entries for r in b.rows))]
    return IntervalMatrix(
        tuple(
            IntervalVector(
                tuple(IntervalNumber(mode, _dot(row, col)) for col in cols)
            )
            for row in ([e.element for e in r.entries] for r in a.rows)
        )
    )


def frob_sq(m: IntervalMatrix) -> IntervalNumber:
    """Sum of squared entries (row-major, left to right)."""
    flat = [e.element for r in m.rows for e in r.entries]
    return IntervalNumber(m.mode, _dot(flat, flat))


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
    if iters < 1:
        raise ValueError("iters must be at least 1")
    u = u0
    trace: list[IterationRecord] = []
    lam = None
    for k in range(1, iters + 1):
        w = matvec(m, u)
        norm = two_norm(w)
        scale = IntervalNumber(norm.mode, _reciprocal(norm))
        u = IntervalVector(tuple(wi * scale for wi in w))
        lam = dot(u, matvec(m, u)) / dot(u, u)
        trace.append(IterationRecord(k, lam.raw))
    return PowerIterationResult(lam, u, tuple(trace))


def schulz_invert(
    m: IntervalMatrix,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> IntervalMatrix:
    """Quadratic inverse iteration X <- X (2I - M X), seeded with M^T / sum(M_ij^2).

    Stops when every entry of M X has midpoint within ``tol`` of the identity.
    Requires true arithmetic: the cancellation in 2I - M X is what keeps the
    iteration contracting.  On failure the ConvergenceError carries the
    residual of the last candidate X.
    """
    nrows, ncols = m.shape
    if nrows != ncols:
        raise ShapeMismatchError(f"matrix must be square, got shape {m.shape}")
    if m.order != AlgebraOrder.ORDER_4:
        raise UnsupportedOrderError("matrix inversion divides, which needs order 4")
    if m.mode is not ArithmeticMode.TRUE:
        raise ModeMismatchError("schulz_invert requires true arithmetic")
    if not max_iter >= 1:
        raise ValueError("max_iter must be at least 1")
    if not tol > 0:  # NaN fails this too
        raise ValueError("tol must be positive")
    n = nrows
    scale = interval(1.0, order=m.order, mode=m.mode) / frob_sq(m)
    x = transpose(m).scale(scale)
    two_i = identity_matrix(n, m.order, m.mode).scale(2.0)
    resid = None
    for _ in range(max_iter):
        p = matmul(m, x)
        resid = max(
            abs(p[i, j].midpoint - (1.0 if i == j else 0.0))
            for i in range(n)
            for j in range(n)
        )
        if resid < tol:
            return x
        x = matmul(x, two_i - p)
    raise ConvergenceError(
        f"matrix inversion did not reach tol={tol:g} after {max_iter} iterations "
        f"(last residual {resid:.3e})",
        residual=resid,
    )


# ---------------------------------------------------------------------------
# Text form: one row per line, entries comma separated, interval literals
# ---------------------------------------------------------------------------

def _split_entries(line: str) -> list[str]:
    # Commas inside [..] belong to the literal, not the row.
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in line:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in (s.strip() for s in parts) if p]


def parse_matrix_text(
    text: str,
    order: int | AlgebraOrder = 4,
    mode: ArithmeticMode = ArithmeticMode.TRUE,
) -> IntervalMatrix:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        entries = [
            interval(*parse_interval_literal(tok), order=order, mode=mode)
            for tok in _split_entries(line)
        ]
        rows.append(IntervalVector(tuple(entries)))
    if not rows:
        raise ShapeMismatchError("matrix text contained no rows")
    return IntervalMatrix(tuple(rows))


def format_matrix(m: IntervalMatrix, raw: bool = False) -> str:
    """Session layout: rows of concatenated interval displays inside [* ... *]."""
    lines = ["[*"]
    for row in m.rows:
        lines.append("".join(format_interval(e.raw, raw=raw) for e in row))
    lines.append("*]")
    return "\n".join(lines)
