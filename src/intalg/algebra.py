"""Finite-dimensional associative algebras hosting interval arithmetic.

Three commutative associative algebras are supported, of orders 4, 5 and 7.
Their generators are unit intervals and the product of two generators is the
generator whose interval equals their set product, so every structure
constant is 0 or 1 and the whole table fits in a small index matrix.  The
order-4 algebra splits into two ideals under a change of basis; that split
form is what makes elements invertible component by component.

Every coefficient operation runs a straight-line kernel per order, all of
an order's kernels generated as one source and compiled on the order's first
use: the product from the product schedule, which is read off the structure
table; sum, difference, negation and scaling coefficientwise; collapse to
endpoints from the generator intervals; and the embedding of any pair of
floats, whose cone tests and two-ray solves for a proper pair are written out
from the cone table with the generator endpoints as constants: one plain
solve per cone, whose collapse is at most one ulp off an endpoint, with no
search.  That kernel is the only code that solves a cone.  The kernels do
their own checks: collapse raises DomainError for a NaN endpoint and embed
for a non-finite one, so callers index a kernel table directly
(``_COLLAPSE[order](coeffs)``), through no wrapper.  Float addition does not
associate, so the kernels' order of operations is part of the results the
tests pin bit for bit: change the schedule or the generator and those
results change with it.  ``_compile`` compiles all generated code: these
kernels, the records' ``__init__`` and ``_make``, and linalg's plane
kernels.
"""

from __future__ import annotations

import math
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
]


class _Record:
    """Base of the package's immutable value classes.

    A subclass names its fields with class annotations, in order, and gets
    what a frozen dataclass gives: equality and hashing over the field values
    (only against the same class), a ``Name(field=value, ...)`` repr, and
    assignment and deletion that raise AttributeError.  One that declares
    ``__slots__`` has no instance ``__dict__`` (the base has no slots) and gets
    ``_make(*fields)``, its one builder, which trusts its arguments; its
    public constructor is a ``__new__`` that checks and converts them and
    returns ``_make(...)``.  Its slots are its fields, in order.  One that
    defines neither ``__init__`` nor ``__new__`` gets a generated ``__init__``
    taking the fields in order, class-attribute values as defaults, that calls
    ``__post_init__`` if the class defines one.  Pickling and copying call the
    class on the field values; the default would restore them by assignment.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        if "__slots__" in cls.__dict__:
            cls._make = staticmethod(_slot_make(cls))
        if "__init__" not in cls.__dict__ and "__new__" not in cls.__dict__:
            cls.__init__ = _field_init(cls)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return (type(self), self._values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")


def _compile(source: str, label: str, **names) -> dict:
    """Run generated source with ``names`` as its globals, and return them with
    the functions it defined; label is the file name their code reports."""
    exec(compile(source, label, "exec"), names)
    return names


def _generated(cls, name: str, source: str, **names):
    """The function name defined by source, compiled for record class cls."""
    fn = _compile(source, f"<{cls.__qualname__}.{name}>", **names)[name]
    fn.__qualname__ = f"{cls.__qualname__}.{name}"
    return fn


def _field_init(cls):
    """The generated ``__init__`` of a record class.  Storing each field by
    name with ``object.__setattr__`` keeps CPython's compact instance layout,
    so field reads stay fast, and literal names beat a loop over ``_fields``."""
    names = cls._fields
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    body = [f"    _set(self, {n!r}, {n})" for n in names]
    if "__post_init__" in cls.__dict__:
        body.append("    self.__post_init__()")
    source = "\n".join([f"def __init__(self, {params}):", *(body or ["    pass"])])
    return _generated(cls, "__init__", source, _set=object.__setattr__, _defaults=defaults)


def _slot_make(cls):
    """The generated ``_make`` of a slotted record class, which stores each
    field through its slot's setter: the refused assignment is bypassed here,
    and nothing writes the record after ``_make`` returns."""
    setters = {f"_set_{n}": cls.__dict__[n].__set__ for n in cls._fields}
    stores = [f"    _set_{n}(self, {n})" for n in cls._fields]
    head = [f"def _make({', '.join(cls._fields)}):", "    self = _new(_cls)"]
    source = "\n".join([*head, *stores, "    return self"])
    return _generated(cls, "_make", source, _new=object.__new__, _cls=cls, **setters)


def _float(v: float) -> float:
    """A float as it is and an int (a bool counts as one) as float(v), except
    that an int too large for a float is an infinity of its sign, so that it
    meets the checks an infinity meets; TypeError for anything else, so that
    text is read only by the literal grammar."""
    if v.__class__ is float:
        return v
    if not isinstance(v, (int, float)):
        raise TypeError(f"expected a real number, not {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _check_count(name: str, value) -> None:
    """Raise ValueError, naming the argument, unless value is an int (a bool
    is not one here) of at least 1: an iteration count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def _check_real(name: str, value) -> None:
    """Raise ValueError, naming the argument, unless value is an int or a
    float (a bool is not a real number here)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_positive(name: str, value, finite: bool = True) -> None:
    """Raise ValueError, naming the argument, unless value is a real number
    above 0, and finite unless told otherwise; an int too large for a float,
    such as 10**400, is not finite here."""
    _check_real(name, value)
    # each test is written so that NaN fails it
    if finite:
        if not (0 < value and math.isfinite(_float(value))):
            raise ValueError(f"{name} must be positive and finite")
    elif not value > 0:
        raise ValueError(f"{name} must be positive")


class AlgebraOrder(IntEnum):
    """The three supported algebra dimensions."""

    ORDER_4 = 4
    ORDER_5 = 5
    ORDER_7 = 7


_ORDERS = {int(order): order for order in AlgebraOrder}  # what AlgebraOrder(v) looks up first


def _as_order(order: int | AlgebraOrder) -> AlgebraOrder:
    try:
        return _ORDERS[order]
    except (KeyError, TypeError):
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

# Cones of proper pairs lo < hi, as rows (g, ia, ib).  A pair lies in the
# first cone with lo*g[1] - hi*g[0] >= 0, the side of the line through the
# integer direction g that holds the cone; g's entries have magnitude at most
# 2, and at most one of them 2, so each product is exact or overflows past
# the other term, and the test's sign is exact.  Inside, the pair is a
# nonnegative combination of the generators ia and ib.  The rows run lo >= 0,
# hi <= 0, then the cones that hold zero from [0,1] to [-1,0]; the last gate,
# hi >= 0, is always met.
_SIGNED_CONES = (
    ((0, 1), 0, 1),  # [1,1] .. [0,1]
    ((1, 0), 3, 2),  # [-1,-1] .. [-1,0]
)
_CONES = {
    AlgebraOrder.ORDER_4: _SIGNED_CONES + (((-1, 0), 2, 1),),  # [0,1] .. [-1,0]
    AlgebraOrder.ORDER_5: _SIGNED_CONES + (
        ((-1, 1), 4, 1),  # [0,1] .. [-1,1]
        ((-1, 0), 4, 2),  # [-1,1] .. [-1,0]
    ),
    AlgebraOrder.ORDER_7: _SIGNED_CONES + (
        ((-1, 2), 6, 1),  # [0,1] .. [-1/2,1]
        ((-1, 1), 6, 4),  # [-1/2,1] .. [-1,1]
        ((-2, 1), 5, 4),  # [-1,1] .. [-1,1/2]
        ((-1, 0), 5, 2),  # [-1,1/2] .. [-1,0]
    ),
}


def _product_table(generators) -> tuple[tuple[int, ...], ...]:
    """Multiplication table of a generator list: entry [i][j] is the index
    (0-based) of the generator equal to the set product of generators i and
    j.  ValueError if the list is not closed under set products."""
    index = {g: k for k, g in enumerate(generators)}
    ends = [[(a * c, a * d, b * c, b * d) for c, d in generators] for a, b in generators]
    table = tuple(tuple(index.get((min(e), max(e))) for e in row) for row in ends)
    if any(None in row for row in table):
        raise ValueError("the generators are not closed under set products")
    return table


_TABLES = {order: _product_table(gens) for order, gens in _GENERATORS.items()}

# Product schedules: one (k, i, j) triple per unordered index pair i <= j,
# i ascending and j ascending within each i; k = table[i][j] is the target.
_SCHEDULES = {
    order: tuple(
        (table[i][j], i, j) for i in range(len(table)) for j in range(i, len(table))
    )
    for order, table in _TABLES.items()
}


def _kernel_source(order: AlgebraOrder) -> str:
    """Source of the order's straight-line coefficient kernels.

    Each kernel unpacks its coefficient tuples and returns a tuple.  In
    ``mul(a, b)`` coefficient k is ``0.0 + t1 + t2 + ...`` over the
    schedule's terms for k, in schedule order, each cross pair written
    ``(a[i]*b[j] + a[j]*b[i])``: the same float operations, in the same
    order, as accumulating the schedule into zeros one term at a time.
    ``add``, ``sub``, ``neg`` and ``scale`` (``f * a[i]``) act
    coefficientwise.  ``collapse(a)`` is ``(lo, hi)``, each endpoint
    ``0.0 + a0*g0 + a1*g1 + ...`` over the generators' endpoints, zeros
    included, so an infinite coefficient still makes a NaN endpoint, for
    which it raises DomainError, as overflowed coefficients meet in
    inf - inf or inf * 0.  ``embed(lo, hi)`` takes any pair of floats and
    raises DomainError unless both are finite (x - x is 0.0 only for a
    finite x).  A point lo == hi is v on [1, 1] and the zero hi - lo on
    [0, 1] when v >= 0 (negative zero included), -v on [-1, -1] and hi - lo
    on [-1, 0] otherwise: exact, and hi - lo rather than 0.0 keeps the sign
    of that zero for the pair (0.0, -0.0).  An improper pair is the negation
    of the mirrored proper pair's embedding.  A proper pair lo < hi is found
    in its cone with the cone table's gates and written as a*e_ia + b*e_ib
    on the cone's rays.  When e_ib has a zero endpoint, the other
    endpoint's equation fixes a alone; otherwise a comes from Cramer's
    rule.  b then solves the hi equation, or the lo one where e_ib's hi
    endpoint is zero.  This one plain solve is the embedding; its collapse
    can land one ulp off an endpoint, and no pair of neighbouring doubles
    does better:

    * Both endpoints of e_ib are nonzero only in the Cramer cones, rows 3
      and 4 of order 7.  There lo lies in [-2hi, -hi/2], so lo + hi is
      exact (Sterbenz's lemma), a is that sum over 1/2 or -1/2, b is exact
      by the same lemma, and so is the collapse.
    * In every other cone one endpoint's equation holds exactly for any b.
      The other endpoint is p + fl(q - p) with ulp(b) <= ulp(q), so a miss
      is a rounding tie one ulp of q away, and moving b by an ulp or two
      lands no closer.
    * Rounding is monotone, so a and b are >= 0 inside their cone.
    """
    n = int(order)
    terms = [["0.0"] for _ in range(n)]
    for k, i, j in _SCHEDULES[order]:
        terms[k].append(f"a{i} * b{i}" if i == j else f"(a{i} * b{j} + a{j} * b{i})")
    endpoints = [
        "0.0" + "".join(f" + a{i} * {g!r}" for i, g in enumerate(end))
        for end in zip(*_GENERATORS[order])
    ]
    kernels = {
        "mul": ("a, b", [" + ".join(t) for t in terms]),
        "add": ("a, b", [f"a{i} + b{i}" for i in range(n)]),
        "sub": ("a, b", [f"a{i} - b{i}" for i in range(n)]),
        "neg": ("a", [f"-a{i}" for i in range(n)]),
        "scale": ("a, f", [f"f * a{i}" for i in range(n)]),
    }
    unpack = {p: "    " + ", ".join(f"{p}{i}" for i in range(n)) + f" = {p}" for p in "ab"}
    lines = []
    for name, (params, values) in kernels.items():
        lines.append(f"def {name}({params}):")
        lines += [unpack[p] for p in ("a", "b") if p in params]
        lines += ["    return (", *(f"        {v}," for v in values), "    )"]
    points = (["lo", "hi - lo"], ["0.0", "0.0", "hi - lo", "-hi"])
    points = [", ".join(p + ["0.0"] * (n - len(p))) for p in points]
    lines += [
        "def collapse(a):",
        unpack["a"],
        f"    lo = {endpoints[0]}",
        f"    hi = {endpoints[1]}",
        "    if lo != lo or hi != hi:",
        "        raise DomainError(",
        f'            f"element {{a!r}} of order {n} has no endpoints: "',
        '            f"its collapse ({lo!r}, {hi!r}) is NaN"',
        "        )",
        "    return (lo, hi)",
        "def embed(lo, hi):",
        "    if lo - lo != 0.0 or hi - hi != 0.0:",
        '        raise DomainError(f"interval endpoints must be finite, got ({lo!r}, {hi!r})")',
        "    if lo == hi:",
        "        if lo >= 0.0:",
        f"            return ({points[0]})",
        f"        return ({points[1]})",
        "    if lo > hi:",
        "        return neg(embed(-lo, -hi))",
    ]
    cones = _CONES[order]
    for row, ((g0, g1), ia, ib) in enumerate(cones):
        if row == len(cones) - 1:
            lines.append("    else:")  # the last gate is always met
        else:
            # a zero term of the gate changes at most the sign of a zero sum,
            # which >= 0 does not see
            gate = _form(*((c, x) for c, x in ((g1, "lo"), (-g0, "hi")) if c))
            lines.append(f"    {'elif' if row else 'if'} {gate} >= 0:")
        (alo, ahi), (blo, bhi) = _GENERATORS[order][ia], _GENERATORS[order][ib]
        if blo == 0.0:
            a = _quotient("lo", alo)
        elif bhi == 0.0:
            a = _quotient("hi", ahi)
        else:
            a = _quotient(_form((bhi, "lo"), (-blo, "hi")), alo * bhi - ahi * blo)
        if bhi:
            b = _quotient(_form((1.0, "hi"), (-ahi, "a")), bhi)
        else:
            b = _quotient(_form((1.0, "lo"), (-alo, "a")), blo)
        coeffs = ["0.0"] * n
        coeffs[ia], coeffs[ib] = "a", "b"
        lines += [f"        a = {a}", f"        b = {b}", f"        return ({', '.join(coeffs)})"]
    return "\n".join(lines) + "\n"


def _form(*terms: tuple[float, str]) -> str:
    """Source of the sum of x * c over the terms (c, x), left to right.  A
    factor of magnitude 1 is left out and a negative factor's sign becomes
    the operator before its term: both are exact, as x * -c is -(x * c) and
    p + -q is p - q, so the source computes the same floats as the sum."""
    text = ""
    for c, x in terms:
        term = x if abs(c) == 1 else f"{x} * {abs(c)!r}"
        sign = "-" if math.copysign(1.0, c) < 0 else "+"
        text = f"{text} {sign} {term}" if text else term if sign == "+" else f"-{term}"
    return text


def _quotient(text: str, d: float) -> str:
    """Source of text / d; dividing by 1 or -1 is exact, so only a sign remains."""
    if d == 1:
        return text
    if " " in text:
        text = f"({text})"
    return f"-{text}" if d == -1 else f"{text} / {d!r}"


def _first_use(name: str, order: AlgebraOrder):
    """The stand-in for a kernel until its order is compiled: its first call
    compiles all of the order's kernels, in one call, into every table, so a
    process pays only for the orders it uses."""

    def kernel(*args):
        if _KERNELS[name][order] is kernel:
            label = f"<kernels, order {int(order)}>"
            namespace = _compile(_kernel_source(order), label, DomainError=DomainError)
            for other, table in _KERNELS.items():
                table[order] = namespace[other]
        return _KERNELS[name][order](*args)

    return kernel


_KERNELS = {
    name: {order: _first_use(name, order) for order in AlgebraOrder}
    for name in ("mul", "add", "sub", "neg", "scale", "collapse", "embed")
}
_MUL, _ADD, _SUB, _NEG, _SCALE, _COLLAPSE, _EMBED = _KERNELS.values()


def generator_endpoints(order: int | AlgebraOrder) -> tuple[tuple[float, float], ...]:
    """Endpoint pairs of the generator intervals, in coefficient order."""
    return _GENERATORS[_as_order(order)]


def structure_table(order: int | AlgebraOrder) -> tuple[tuple[int, ...], ...]:
    """Multiplication table of the algebra; entry [i][j] is a generator index (0-based)."""
    return _TABLES[_as_order(order)]


class AlgebraElement(_Record):
    """A coefficient vector over the generator basis of one fixed algebra.

    Coefficients may be negative: differences of embedded intervals leave the
    nonnegative cone even though embeddings of proper intervals never do.
    """

    __slots__ = ("order", "coeffs")
    order: AlgebraOrder
    coeffs: tuple[float, ...]

    def __new__(cls, order: int | AlgebraOrder, coeffs) -> "AlgebraElement":
        order = _as_order(order)
        coeffs = tuple(map(_float, coeffs))
        if len(coeffs) != int(order):
            raise ValueError(
                f"expected {int(order)} coefficients, got {len(coeffs)}"
            )
        return _element(order, coeffs)

    @classmethod
    def zero(cls, order: int | AlgebraOrder) -> "AlgebraElement":
        n = int(_as_order(order))
        return cls(order, (0.0,) * n)

    @classmethod
    def unit(cls, order: int | AlgebraOrder) -> "AlgebraElement":
        n = int(_as_order(order))
        return cls(order, (1.0,) + (0.0,) * (n - 1))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        order = self.order
        if order is not other.order:
            _check_orders(self, other)
        return _element(order, _ADD[order](self.coeffs, other.coeffs))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        order = self.order
        if order is not other.order:
            _check_orders(self, other)
        return _element(order, _SUB[order](self.coeffs, other.coeffs))

    def __neg__(self) -> "AlgebraElement":
        return _element(self.order, _NEG[self.order](self.coeffs))

    def scale(self, factor: float) -> "AlgebraElement":
        return _element(self.order, _SCALE[self.order](self.coeffs, _float(factor)))


_element = AlgebraElement._make  # every result: an AlgebraOrder and floats, unchecked


def _check_orders(u: AlgebraElement, v: AlgebraElement) -> None:
    # Every element holds an AlgebraOrder member, so identity is equality.
    if u.order is not v.order:
        raise OrderMismatchError(
            f"algebra orders differ: {int(u.order)} vs {int(v.order)}"
        )


def alg_mul(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the structure table.

    Reads only ``order`` and ``coeffs`` of its arguments, so interval numbers
    may stand in for elements.

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
    return _element(order, _MUL[order](u.coeffs, v.coeffs))


class SplitCoords(_Record):
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


# The four characters of the order-4 algebra: the real-valued linear maps with
# chi(e0) = 1 and chi(u v) = chi(u) chi(v).  They are the split pairs' sums and
# differences, (a1 - a4, a1 + a4) and (a1 + a2) -+ (a3 + a4), so in their
# coordinates the product is componentwise and an element is four reals.  Both
# maps divide by 2, not multiply by 0.5, so exact (Fraction) inputs stay exact.

def _chars(c: tuple) -> tuple:
    """The four order-4 characters of a coefficient tuple."""
    c0, c1, c2, c3 = c
    return (c0 - c3, c0 + c3, c0 + c1 - c2 - c3, c0 + c1 + c2 + c3)


def _from_chars(x1, x2, x3, x4) -> tuple:
    """The order-4 coefficient tuple whose characters are x1, x2, x3, x4."""
    c0 = (x1 + x2) / 2
    c3 = (x2 - x1) / 2
    return (c0, (x3 + x4) / 2 - c0, (x4 - x3) / 2 - c3, c3)


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
    if u.order is not AlgebraOrder.ORDER_4:
        raise UnsupportedOrderError(
            f"inversion is only defined at order 4 (got order {int(u.order)})"
        )
    a1, a2, a3, a4 = u.coeffs
    try:
        (x1, x4), (x2, x3) = _split_inverse(a1, a4), _split_inverse(a1 + a2, a3 + a4)
        coeffs = (x1, x2 - x1, x3 - x4, x4)
        if all(map(math.isfinite, coeffs)):
            return _element(AlgebraOrder.ORDER_4, coeffs)
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
