"""Finite-dimensional associative algebras hosting interval arithmetic.

Three commutative associative algebras are supported, of orders 4, 5 and 7.
Their generators are unit intervals and the product of two generators is the
generator whose interval equals their set product, so every structure
constant is 0 or 1 and the whole table fits in a small index matrix.  The
order-4 algebra splits into two ideals under a change of basis; that split
form is what makes elements invertible component by component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import NotInvertibleError, OrderMismatchError, UnsupportedOrderError

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
    object.__setattr__(element, "order", order)
    object.__setattr__(element, "coeffs", coeffs)
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
    addition of the two cross products commutes exactly).  The schedule walks
    the pairs i ascending, then j ascending, into accumulators that start at
    0.0: float addition does not associate, so this order of additions is
    part of the result, and the results are pinned bit for bit.
    """
    _check_orders(u, v)
    a, b = u.coeffs, v.coeffs
    out = [0.0] * len(a)
    for k, i, j in _SCHEDULES[u.order]:
        if i == j:
            out[k] += a[i] * b[i]
        else:
            out[k] += a[i] * b[j] + a[j] * b[i]
    return _element(u.order, tuple(out))


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


def _split_inverse(pair: tuple[float, float]) -> tuple[float, float]:
    # Split-complex inverse: (u, v)^-1 = (u, -v) / (u^2 - v^2).
    u, v = pair
    d = u * u - v * v
    if d == 0.0 or not math.isfinite(d):
        raise NotInvertibleError(
            "element is not invertible: split component is singular"
        )
    return (u / d, -v / d)


def alg_inv(u: AlgebraElement) -> AlgebraElement:
    """Multiplicative inverse of an order-4 element.

    Computed ideal by ideal in split coordinates; an element is invertible
    exactly when neither split pair lies on a diagonal (|x| == |y|).
    """
    if u.order != AlgebraOrder.ORDER_4:
        raise UnsupportedOrderError("inversion is only defined at order 4")
    s = to_split(u)
    return from_split(SplitCoords(_split_inverse(s.i1), _split_inverse(s.i2)))


def is_invertible(u: AlgebraElement) -> bool:
    """True when ``alg_inv(u)`` succeeds: u has order 4 and an inverse."""
    try:
        alg_inv(u)
    except (NotInvertibleError, UnsupportedOrderError):
        return False
    return True
