"""Finite-dimensional associative algebras hosting interval arithmetic.

Three commutative associative algebras are supported, of orders 4, 5 and 7.
Their generators are unit intervals and the product of two generators is the
generator whose interval equals their set product, so every structure
constant is 0 or 1 and the whole table fits in a small index matrix.  The
order-4 algebra splits into two ideals under a change of basis; that split
form is what makes elements invertible component by component.

The product runs one straight-line kernel per order, generated at import
from the product schedule, which is read off the structure table.  Float
addition does not associate, so the kernels' order of operations is part of
the results the tests pin bit for bit: change the schedule or the generator
and those results change with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import (
    DomainError,
    NotInvertibleError,
    OrderMismatchError,
    UnsupportedOrderError,
)

__all__ = [
    "AlgebraOrder",
    "AlgebraElement",
    "SplitCoords",
    "generator_endpoints",
    "structure_table",
    "alg_mul",
    "alg_inv",
    "is_invertible",
    "to_split",
    "from_split",
]


class AlgebraOrder(IntEnum):
    """The three supported algebra dimensions."""

    ORDER_4 = 4
    ORDER_5 = 5
    ORDER_7 = 7


def _as_order(order: int | AlgebraOrder) -> AlgebraOrder:
    try:
        return AlgebraOrder(order)
    except ValueError:
        raise UnsupportedOrderError(
            f"unsupported algebra order {order!r}; choose one of 4, 5, 7"
        ) from None


# Generator intervals, in coefficient order.
_GENERATORS_4 = ((1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, -1.0))
_GENERATORS_5 = _GENERATORS_4 + ((-1.0, 1.0),)
_GENERATORS_7 = _GENERATORS_5 + ((-1.0, 0.5), (-0.5, 1.0))

_GENERATORS = {
    AlgebraOrder.ORDER_4: _GENERATORS_4,
    AlgebraOrder.ORDER_5: _GENERATORS_5,
    AlgebraOrder.ORDER_7: _GENERATORS_7,
}

# Multiplication tables: entry [i][j] is the index of the generator equal to
# the set product of generators i and j.  0-based indices.
_TABLE_4 = (
    (0, 1, 2, 3),
    (1, 1, 2, 2),
    (2, 2, 1, 1),
    (3, 2, 1, 0),
)

_TABLE_5 = (
    (0, 1, 2, 3, 4),
    (1, 1, 2, 2, 4),
    (2, 2, 1, 1, 4),
    (3, 2, 1, 0, 4),
    (4, 4, 4, 4, 4),
)

_TABLE_7 = (
    (0, 1, 2, 3, 4, 5, 6),
    (1, 1, 2, 2, 4, 5, 6),
    (2, 2, 1, 1, 4, 6, 5),
    (3, 2, 1, 0, 4, 6, 5),
    (4, 4, 4, 4, 4, 4, 4),
    (5, 5, 6, 6, 4, 6, 5),
    (6, 6, 5, 5, 4, 5, 6),
)

_TABLES = {
    AlgebraOrder.ORDER_4: _TABLE_4,
    AlgebraOrder.ORDER_5: _TABLE_5,
    AlgebraOrder.ORDER_7: _TABLE_7,
}

# Product schedules: one (k, i, j) triple per unordered index pair i <= j,
# i ascending and j ascending within each i; k = table[i][j] is the target.
_SCHEDULES = {
    order: tuple(
        (table[i][j], i, j) for i in range(len(table)) for j in range(i, len(table))
    )
    for order, table in _TABLES.items()
}


def _kernel_source(schedule: tuple[tuple[int, int, int], ...], n: int) -> str:
    """Source of a straight-line product of two length-n coefficient tuples.

    Coefficient k is ``0.0 + t1 + t2 + ...`` over the schedule's terms for k,
    in schedule order, each cross pair written ``(a[i]*b[j] + a[j]*b[i])``:
    the same float operations, in the same order, as accumulating the
    schedule into zeros one term at a time.
    """
    terms = [["0.0"] for _ in range(n)]
    for k, i, j in schedule:
        terms[k].append(
            f"a{i} * b{i}" if i == j else f"(a{i} * b{j} + a{j} * b{i})"
        )
    lines = [
        "def kernel(a, b):",
        "    " + ", ".join(f"a{i}" for i in range(n)) + " = a",
        "    " + ", ".join(f"b{i}" for i in range(n)) + " = b",
        "    return (",
        *(f"        {' + '.join(t)}," for t in terms),
        "    )",
    ]
    return "\n".join(lines) + "\n"


def _compile_kernel(order: AlgebraOrder):
    n = int(order)
    code = compile(
        _kernel_source(_SCHEDULES[order], n), f"<alg_mul kernel, order {n}>", "exec"
    )
    namespace: dict = {}
    exec(code, namespace)
    return namespace["kernel"]


_KERNELS = {order: _compile_kernel(order) for order in _SCHEDULES}


def generator_endpoints(order: int | AlgebraOrder) -> tuple[tuple[float, float], ...]:
    """Endpoint pairs of the generator intervals, in coefficient order."""
    return _GENERATORS[_as_order(order)]


def structure_table(order: int | AlgebraOrder) -> tuple[tuple[int, ...], ...]:
    """Multiplication table of the algebra; entry [i][j] is a generator index (0-based)."""
    return _TABLES[_as_order(order)]


@dataclass(frozen=True)
class AlgebraElement:
    """A coefficient vector over the generator basis of one fixed algebra.

    Coefficients may be negative: differences of embedded intervals leave the
    nonnegative cone even though embeddings of proper intervals never do.
    """

    order: AlgebraOrder
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        order = _as_order(self.order)
        object.__setattr__(self, "order", order)
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) != int(order):
            raise ValueError(
                f"expected {int(order)} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, order: int | AlgebraOrder) -> "AlgebraElement":
        n = int(_as_order(order))
        return cls(order, (0.0,) * n)

    @classmethod
    def unit(cls, order: int | AlgebraOrder) -> "AlgebraElement":
        n = int(_as_order(order))
        return cls(order, (1.0,) + (0.0,) * (n - 1))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_orders(self, other)
        return _element(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_orders(self, other)
        return _element(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "AlgebraElement":
        return _element(self.order, tuple(-c for c in self.coeffs))

    def scale(self, factor: float) -> "AlgebraElement":
        return _element(self.order, tuple(factor * c for c in self.coeffs))


def _element(order: AlgebraOrder, coeffs: tuple[float, ...]) -> AlgebraElement:
    """Build an element from an AlgebraOrder member and a tuple of floats of
    its length, skipping the public constructor's conversion and checks."""
    element = object.__new__(AlgebraElement)
    fields = element.__dict__
    fields["order"] = order
    fields["coeffs"] = coeffs
    return element


def _check_orders(u: AlgebraElement, v: AlgebraElement) -> None:
    # Every element holds an AlgebraOrder member, so identity is equality.
    if u.order is not v.order:
        raise OrderMismatchError(
            f"algebra orders differ: {int(u.order)} vs {int(v.order)}"
        )


def alg_mul(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the structure table.

    Terms are accumulated over unordered index pairs so that the result is
    bit-identical under argument swap (the tables are symmetric and float
    addition of the two cross products commutes exactly).  The generated
    kernel adds the pairs i ascending, then j ascending, to sums that start
    at 0.0: float addition does not associate, so this order of additions is
    part of the result, and the results are pinned bit for bit.
    """
    order = u.order
    if order is not v.order:
        _check_orders(u, v)
    return _element(order, _KERNELS[order](u.coeffs, v.coeffs))


@dataclass(frozen=True)
class SplitCoords:
    """Order-4 element in the basis that splits the algebra into two ideals.

    ``i1`` holds the pair coupling coefficients 1 and 4, ``i2`` the pair
    coupling coefficients 2 and 3.  Multiplication acts on each pair
    independently, like split-complex numbers.
    """

    i1: tuple[float, float]
    i2: tuple[float, float]


def to_split(u: AlgebraElement) -> SplitCoords:
    """Change of basis into the split (ideal) coordinates. Order 4 only."""
    if u.order != AlgebraOrder.ORDER_4:
        raise UnsupportedOrderError("split coordinates exist only at order 4")
    a1, a2, a3, a4 = u.coeffs
    return SplitCoords(i1=(a1, a4), i2=(a1 + a2, a3 + a4))


def from_split(s: SplitCoords) -> AlgebraElement:
    """Inverse change of basis from split coordinates."""
    x1, x4 = s.i1
    x2, x3 = s.i2
    return _element(AlgebraOrder.ORDER_4, (x1, x2 - x1, x3 - x4, x4))


def _split_inverse(u: float, v: float) -> tuple[float, float]:
    # Split-complex inverse: (u, v)^-1 = (u, -v) / (u^2 - v^2).  The squares
    # are formed on the pair scaled by 2**-e, which brings its larger entry
    # into [0.5, 1), so they neither underflow nor overflow.  The scaled
    # quotients divide by d * 2**e, which scales them back with a single
    # rounding, the one the unscaled formula makes.  A nonzero d is at least
    # 2**-54, so for the tiniest pairs k lifts that divisor out of the
    # subnormal range and ldexp(., k) scales back, raising OverflowError
    # when a quotient is too large for a float.
    e = math.frexp(max(abs(u), abs(v)))[1]
    u = math.ldexp(u, -e)
    v = math.ldexp(v, -e)
    d = u * u - v * v
    if d == 0.0 or not math.isfinite(d):
        raise NotInvertibleError(
            "element is not invertible: split component is singular"
        )
    k = max(0, -960 - e)
    d = math.ldexp(d, e + k)
    return (math.ldexp(u / d, k), math.ldexp(-v / d, k))


def alg_inv(u: AlgebraElement) -> AlgebraElement:
    """Multiplicative inverse of an order-4 element.

    Computed ideal by ideal in split coordinates; an element is invertible
    exactly when neither split pair lies on a diagonal (|x| == |y|).  An
    invertible element whose inverse has an entry too large for a float
    raises DomainError.
    """
    if u.order != AlgebraOrder.ORDER_4:
        raise UnsupportedOrderError("inversion is only defined at order 4")
    s = to_split(u)
    try:
        inv = from_split(SplitCoords(_split_inverse(*s.i1), _split_inverse(*s.i2)))
        if all(map(math.isfinite, inv.coeffs)):
            return inv
    except OverflowError:
        pass
    raise DomainError(f"the inverse of element {u.coeffs} is too large for a float")


def is_invertible(u: AlgebraElement) -> bool:
    """True when ``alg_inv(u)`` succeeds: u has order 4 and a finite inverse."""
    try:
        alg_inv(u)
    except (NotInvertibleError, UnsupportedOrderError, DomainError):
        return False
    return True
