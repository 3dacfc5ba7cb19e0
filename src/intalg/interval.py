"""Interval numbers backed by coefficient vectors in a generator algebra.

An interval is embedded once as a nonnegative combination of two adjacent
generators and then lives as a coefficient vector until a result is needed;
collapsing back to endpoints mid-computation would forfeit distributivity,
so arithmetic here never does it implicitly.

An ``IntervalNumber`` is one flat object: mode, order and coefficient tuple;
its endpoints are collapsed on each read.  Its operators run the order's
generated kernels (``algebra._MUL``, ``_ADD``, ...) on coefficient tuples, a
real operand goes straight to the coefficients of its point interval, and the
``AlgebraElement`` view is built only when asked for.  One dispatch,
``_embed_coeffs``, turns endpoint pairs into coefficient tuples for ``embed``,
the lifted functions and semantic negation alike, and ``collapse`` builds its
``GeneralizedInterval`` with the record's trusted ``_make``, so the hot paths
build no element and convert no float twice.

Interval text has one grammar: ``_Reader`` reads the tokens and literals of
expressions (``exprcalc``), option values and matrix files (``linalg``).

Two subtraction semantics coexist:

* ``TRUE``      - subtraction is coefficientwise, so x - x == [0, 0] and
                  finite differences of nearby intervals are small.
* ``SEMANTIC``  - subtraction is x + (-y) with set negation, matching
                  classical interval arithmetic.

Raw endpoint pairs may come out reversed (lo > hi); those are the "negative"
elements of the completed interval space.  Display and comparison use the
sorted (canonical) pair, the raw orientation is preserved internally.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Callable

from .algebra import (
    _ADD,
    _COLLAPSE,
    _GENERATORS,
    _MUL,
    _NEG,
    _SCALE,
    _SUB,
    AlgebraElement,
    AlgebraOrder,
    _as_order,
    _check_real,
    _element,
    _Record,
    alg_inv,
)
from .errors import (
    DivisionNotAllowedError,
    DomainError,
    ExprSyntaxError,
    ModeMismatchError,
    NotInvertibleError,
    OrderMismatchError,
)

__all__ = [
    "ArithmeticMode",
    "GeneralizedInterval",
    "IntervalNumber",
    "interval",
    "embed",
    "collapse",
    "compare",
    "scalar_mul",
    "pow_int",
    "exp",
    "log",
    "sqrt",
    "mink_add",
    "mink_sub",
    "mink_mul",
    "mink_div",
    "format_number",
    "format_interval",
    "parse_interval_literal",
    "IterationRecord",
    "TRACE_CSV_HEADER",
    "write_trace_csv",
]


class ArithmeticMode(Enum):
    SEMANTIC = "semantic"
    TRUE = "true"


def _as_mode(mode) -> ArithmeticMode:
    """``ArithmeticMode(mode)``: a member, or the member whose value mode is;
    anything else raises ValueError.  A member is returned without the
    enum's lookup, since the evaluator builds every literal through
    ``interval()``."""
    return mode if mode.__class__ is ArithmeticMode else ArithmeticMode(mode)


class GeneralizedInterval(_Record):
    """An endpoint pair; improper (lo > hi) pairs are allowed.

    The endpoints live in the slots ``lo`` and ``hi``, with no instance
    ``__dict__``.  The public constructor converts both to float;
    ``collapse`` and ``canonical``, which hold floats already, build through
    ``_make`` instead.
    """

    __slots__ = ("lo", "hi")
    lo: float
    hi: float

    def __new__(cls, lo: float, hi: float) -> "GeneralizedInterval":
        return _pair(float(lo), float(hi))

    @property
    def is_proper(self) -> bool:
        return self.lo <= self.hi

    @property
    def canonical(self) -> "GeneralizedInterval":
        if self.lo <= self.hi:
            return self
        return _pair(self.hi, self.lo)

    @property
    def width(self) -> float:
        return _width(self.lo, self.hi)

    @property
    def midpoint(self) -> float:
        return _midpoint(self.lo, self.hi)

    @property
    def norm(self) -> float:
        return _norm(self.lo, self.hi)

    def __str__(self) -> str:
        return format_interval(self)


_pair = GeneralizedInterval._make


def _width(lo: float, hi: float) -> float:
    return abs(hi - lo)


def _midpoint(lo: float, hi: float) -> float:
    return (lo + hi) / 2.0


def _norm(lo: float, hi: float) -> float:
    return _width(lo, hi) + abs(_midpoint(lo, hi))


# ---------------------------------------------------------------------------
# Embedding and collapse
# ---------------------------------------------------------------------------

def _endpoints(x: AlgebraElement | IntervalNumber) -> tuple[float, float]:
    """x's raw (lo, hi) straight off its order's collapse kernel; DomainError
    when one is NaN, as overflowed coefficients meet in inf - inf or inf * 0."""
    lo, hi = _COLLAPSE[x.order](x.coeffs)
    if lo != lo or hi != hi:
        raise DomainError(
            f"element {x.coeffs!r} of order {int(x.order)} has no "
            f"endpoints: its collapse ({lo!r}, {hi!r}) is NaN"
        )
    return lo, hi


def _canonical_endpoints(x: IntervalNumber) -> tuple[float, float]:
    """x's (lo, hi) off the collapse kernel, ordered as ``canonical`` orders them."""
    lo, hi = _endpoints(x)
    return (lo, hi) if lo <= hi else (hi, lo)


def collapse(element: AlgebraElement) -> GeneralizedInterval:
    """Map a coefficient vector back to its endpoint pair (a lossy linear
    map); raises DomainError when an endpoint comes out NaN."""
    return _pair(*_endpoints(element))  # the kernel's endpoints are floats already


def _neighbors(value: float) -> tuple[float, ...]:
    # The value itself first, then the four nearest doubles.
    down = math.nextafter(value, -math.inf)
    up = math.nextafter(value, math.inf)
    return (
        value,
        down,
        up,
        math.nextafter(down, -math.inf),
        math.nextafter(up, math.inf),
    )


# Cones of proper pairs lo < hi, as rows (g, ia, ib).  A pair lies in the
# first cone with lo*g[1] - hi*g[0] >= 0, the side of the line through the
# integer direction g that holds the cone; g's entries are 0, 1 or 2, so the
# test never rounds.  Inside, the pair is a nonnegative combination of the
# generators ia and ib.  The rows run lo >= 0, hi <= 0, then the cones that
# hold zero from [0,1] to [-1,0]; the last gate, hi >= 0, is always met.
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


def _embed_proper(lo: float, hi: float, order: AlgebraOrder) -> tuple[float, ...]:
    """The coefficients of finite lo < hi as a*e_ia + b*e_ib on the rays of
    its cone.

    When e_ib has a zero endpoint, the other endpoint's equation fixes a
    alone; otherwise a comes from Cramer's rule.  b then solves the hi
    equation, or the lo one where e_ib's hi endpoint is zero.
    A plain solve can land one ulp off an endpoint when an intermediate sum
    ties, so unless the plain pair is exact, each solved coefficient is tried
    with its four neighbouring doubles, and the first pair whose collapse is
    exact wins; failing that, the closest one.  The search tries the plain
    pair first, so taking an exact one up front gives the same coefficients.
    """
    for (g0, g1), ia, ib in _CONES[order]:
        if lo * g1 - hi * g0 >= 0:
            break
    gens = _GENERATORS[order]
    alo, ahi = gens[ia]
    blo, bhi = gens[ib]
    if blo == 0.0:
        a = lo / alo
    elif bhi == 0.0:
        a = hi / ahi
    else:
        a = (lo * bhi - hi * blo) / (alo * bhi - ahi * blo)
    b = (hi - a * ahi) / bhi if bhi else (lo - a * alo) / blo
    coeffs = [0.0] * len(gens)
    if a >= 0.0 and b >= 0.0 and a * alo + b * blo == lo and a * ahi + b * bhi == hi:
        coeffs[ia], coeffs[ib] = a, b
        return tuple(coeffs)
    best = None
    best_err = math.inf
    for a in _neighbors(a) if blo and bhi else (a,):
        if a < 0.0:
            continue
        for b in _neighbors((hi - a * ahi) / bhi if bhi else (lo - a * alo) / blo):
            if b < 0.0:
                continue
            err = abs(a * alo + b * blo - lo) + abs(a * ahi + b * bhi - hi)
            if err < best_err:
                best, best_err = (a, b), err
                if err == 0.0:
                    break
        if best_err == 0.0:
            break
    if best is None:
        raise DomainError(
            f"no embedding of ({lo!r}, {hi!r}) found at order {int(order)}"
        )
    coeffs[ia], coeffs[ib] = best
    return tuple(coeffs)


def _check_finite(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"interval endpoints must be finite, got ({lo!r}, {hi!r})")


def _embed_point(lo: float, hi: float, order: AlgebraOrder) -> tuple[float, ...]:
    """The coefficients of ``embed(lo, hi, order)`` for finite ``lo == hi``,
    in closed form.

    For a point the first pair the ray probe tries is already exact: v on
    [1, 1] and the zero hi - lo on [0, 1] when v >= 0 (negative zero
    included), -v on [-1, -1] and hi - lo on [-1, 0] otherwise.  Collapsing
    adds only zeros to v.  Taking hi - lo rather than 0.0 keeps the sign of
    that zero for the pair (0.0, -0.0).
    """
    if lo >= 0.0:
        return (lo, hi - lo, 0.0, 0.0, 0.0, 0.0, 0.0)[:order]
    return (0.0, 0.0, hi - lo, -hi, 0.0, 0.0, 0.0)[:order]


def embed(lo: float, hi: float, order: int | AlgebraOrder = 4) -> AlgebraElement:
    """Embed an endpoint pair as nonnegative coordinates on two adjacent rays.

    Improper pairs embed as the negation of the mirrored proper pair.  The
    collapse of the result gives points back exactly and other pairs within
    one ulp per endpoint; depending on how the endpoints' magnitudes spread,
    up to a few percent of pairs miss by that ulp.  Endpoints must be finite.
    """
    order = _as_order(order)
    return _element(order, _embed_coeffs(float(lo), float(hi), order))


def _embed_coeffs(lo: float, hi: float, order: AlgebraOrder) -> tuple[float, ...]:
    """The coefficients of ``embed(lo, hi, order)`` for float endpoints and
    an AlgebraOrder member, which is all the lifted functions and semantic
    negation need: they have floats in hand and want no element."""
    _check_finite(lo, hi)
    if lo == hi:
        return _embed_point(lo, hi, order)
    if lo > hi:
        return _NEG[order](_embed_proper(-lo, -hi, order))
    return _embed_proper(lo, hi, order)


def _real(v: float, order: AlgebraOrder) -> tuple[float, ...]:
    """The coefficients of the point interval [v, v] of a real operand,
    which must be finite."""
    v = float(v)
    if not math.isfinite(v):
        _check_finite(v, v)
    return _embed_point(v, v, order)


def _point(v: float, order: AlgebraOrder, mode: ArithmeticMode) -> IntervalNumber:
    """The point interval [v, v] for a scalar operand or ``interval(c)``."""
    return _number(mode, order, _real(v, order))


# ---------------------------------------------------------------------------
# Interval numbers
# ---------------------------------------------------------------------------

class IntervalNumber(_Record):
    """An interval as a coefficient vector of one algebra, tagged with an
    arithmetic mode.

    One flat object: the slots ``mode``, ``order`` (an AlgebraOrder) and
    ``coeffs`` (a tuple of floats) hold the value, and nothing else is
    stored.  The operators run the order's coefficient kernels on ``coeffs``.
    ``min``, ``max``, ``width``, ``midpoint`` and ``norm`` are floats read off
    the collapse kernel, as are the endpoints that equality, hashing,
    containment, ordering and semantic negation compare; ``element`` and the
    endpoint pairs ``raw`` and ``canonical`` are built on each read.
    ``IntervalNumber(mode, element)`` is the public constructor.

    Values are immutable; equality and ordering act on the canonical endpoint
    pair (two distinct elements can denote the same interval), while
    ``x.coeffs == y.coeffs`` compares the underlying coefficient vectors.
    """

    __slots__ = ("mode", "order", "coeffs")
    mode: ArithmeticMode
    order: AlgebraOrder
    coeffs: tuple[float, ...]

    def __new__(cls, mode: ArithmeticMode | str, element: AlgebraElement) -> "IntervalNumber":
        if not isinstance(element, AlgebraElement):
            raise TypeError(f"expected an AlgebraElement, not {type(element).__name__}")
        return _number(_as_mode(mode), element.order, element.coeffs)

    def __reduce__(self):
        # The public constructor takes an element, not the fields.
        return (type(self), (self.mode, self.element))

    @property
    def element(self) -> AlgebraElement:
        return _element(self.order, self.coeffs)

    @property
    def raw(self) -> GeneralizedInterval:
        """The endpoint pair in its raw orientation, collapsed on each read."""
        return collapse(self)

    @property
    def canonical(self) -> GeneralizedInterval:
        return self.raw.canonical

    @property
    def min(self) -> float:
        return _canonical_endpoints(self)[0]

    @property
    def max(self) -> float:
        return _canonical_endpoints(self)[1]

    @property
    def width(self) -> float:
        return _width(*_endpoints(self))

    @property
    def midpoint(self) -> float:
        return _midpoint(*_endpoints(self))

    @property
    def norm(self) -> float:
        return _norm(*_endpoints(self))

    __abs__ = norm.fget

    def __str__(self) -> str:
        return format_interval(self.raw)

    def __repr__(self) -> str:
        r = self.raw
        return (
            f"IntervalNumber(({r.lo!r}, {r.hi!r}), order={int(self.order)}, "
            f"mode={self.mode.value})"
        )

    # -- coercion and compatibility checks ---------------------------------

    def _coerce(self, other) -> tuple[float, ...] | None:
        """The coefficients of an operand at this number's mode and order,
        or None when other is neither an interval number nor a real."""
        if isinstance(other, IntervalNumber):
            if other.mode is not self.mode:
                raise ModeMismatchError(
                    f"mixed arithmetic modes: {self.mode.value} vs {other.mode.value}"
                )
            if other.order is not self.order:
                raise OrderMismatchError(
                    f"mixed algebra orders: {int(self.order)} vs {int(other.order)}"
                )
            return other.coeffs
        if isinstance(other, (int, float)):
            return _real(other, self.order)
        return None

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "IntervalNumber":
        return _number(self.mode, self.order, _negated(self))

    def __add__(self, other) -> "IntervalNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _number(self.mode, self.order, _ADD[self.order](self.coeffs, o))

    __radd__ = __add__

    def __sub__(self, other) -> "IntervalNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = self.order
        if self.mode is ArithmeticMode.TRUE:
            return _number(self.mode, order, _SUB[order](self.coeffs, o))
        if not isinstance(other, IntervalNumber):
            other = _number(self.mode, order, o)
        return _number(self.mode, order, _ADD[order](self.coeffs, _negated(other)))

    def __rsub__(self, other) -> "IntervalNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.mode is ArithmeticMode.TRUE:
            return _number(self.mode, self.order, _SUB[self.order](o, self.coeffs))
        return _number(self.mode, self.order, _ADD[self.order](o, _negated(self)))

    def __mul__(self, other) -> "IntervalNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _number(self.mode, self.order, _MUL[self.order](self.coeffs, o))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "IntervalNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = self.order
        if not isinstance(other, IntervalNumber):
            other = _number(self.mode, order, o)
        return _number(self.mode, order, _MUL[order](self.coeffs, _reciprocal(other)))

    def __rtruediv__(self, other) -> "IntervalNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _number(self.mode, self.order, _MUL[self.order](o, _reciprocal(self)))

    def __pow__(self, exponent) -> "IntervalNumber":
        return pow_int(self, exponent)

    # -- ordering and containment -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, float)):
            # The point [v, v] collapses to exactly (v, v), so no embedding
            # is needed; nan equals nothing, inf only an overflowed interval.
            v = float(other)
            lo, hi = _canonical_endpoints(self)
            return lo == v and hi == v
        if not isinstance(other, IntervalNumber):
            return NotImplemented
        # no endpoint is NaN, so comparing the tuples compares the floats
        return _canonical_endpoints(self) == _canonical_endpoints(other)

    def __hash__(self) -> int:
        # A point interval equals its scalar, so it must hash like one.
        lo, hi = _canonical_endpoints(self)
        if lo == hi:
            return hash(lo)
        return hash((lo, hi))

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    # Comparisons and containment act on canonical pairs only, so they
    # accept any mode/order combination (unlike arithmetic).

    def _cmp(self, other) -> int:
        if isinstance(other, (int, float)):
            other = _point(float(other), self.order, self.mode)
        elif not isinstance(other, IntervalNumber):
            raise TypeError(f"cannot compare IntervalNumber with {type(other)!r}")
        return compare(self, other)

    def contains(self, other) -> bool:
        """Set containment of the canonical intervals."""
        if isinstance(other, (int, float)):
            v = float(other)
            lo, hi = _canonical_endpoints(self)
            return lo <= v <= hi
        if not isinstance(other, IntervalNumber):
            raise TypeError(f"cannot compare IntervalNumber with {type(other)!r}")
        a_lo, a_hi = _canonical_endpoints(self)
        b_lo, b_hi = _canonical_endpoints(other)
        return a_lo <= b_lo and b_hi <= a_hi


_number = IntervalNumber._make  # every result: a mode, an AlgebraOrder and floats


def _negated(x: IntervalNumber) -> tuple[float, ...]:
    """The coefficients of -x: negated one by one in true mode, and in
    semantic mode the embedding of the mirrored canonical pair."""
    if x.mode is ArithmeticMode.TRUE:
        return _NEG[x.order](x.coeffs)
    lo, hi = _canonical_endpoints(x)
    return _embed_coeffs(-hi, -lo, x.order)


def _reciprocal(v: IntervalNumber) -> tuple[float, ...]:
    """The coefficients of ``alg_inv(v)`` for a divisor v, which raises
    UnsupportedOrderError unless v has order 4; its other failures are
    reported against the divisor: DivisionNotAllowedError when v is not
    invertible, DomainError when the inverse is too large for a float."""
    try:
        return alg_inv(v).coeffs
    except NotInvertibleError:
        raise DivisionNotAllowedError(
            f"interval division not allowed: divisor {format_interval(v.raw)} "
            "is not invertible",
            divisor=v,
        ) from None
    except DomainError:
        raise DomainError(
            f"interval division overflows: the inverse of divisor "
            f"{format_interval(v.raw)} is too large for a float"
        ) from None


def interval(
    lo: float,
    hi: float | None = None,
    *,
    eps: float | None = None,
    order: int | AlgebraOrder = 4,
    mode: ArithmeticMode | str = ArithmeticMode.TRUE,
) -> IntervalNumber:
    """Build an interval number.

    ``interval(a, b)`` is [a, b]; ``interval(c)`` the point interval [c, c];
    ``interval(c, eps=e)`` the ball [c - e, c + e] for a real e >= 0.
    ``mode`` is an ArithmeticMode member or its value; anything else raises
    ValueError.
    """
    mode = _as_mode(mode)
    if eps is not None:
        if hi is not None:
            raise ValueError("give either hi or eps, not both")
        _check_real("eps", eps)
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        lo, hi = float(lo) - eps, float(lo) + eps
    elif hi is None:
        return _point(float(lo), _as_order(order), mode)
    e = embed(float(lo), float(hi), order)
    return _number(mode, e.order, e.coeffs)


def compare(x: IntervalNumber, y: IntervalNumber) -> int:
    """Total order: midpoint first for non-nested pairs, width first for nested.

    Ties on the deciding key fall through to the other key; a full tie means
    equal.  Returns -1, 0 or 1.
    """
    a_lo, a_hi = _canonical_endpoints(x)
    b_lo, b_hi = _canonical_endpoints(y)
    widths = (_width(a_lo, a_hi), _width(b_lo, b_hi))
    midpoints = (_midpoint(a_lo, a_hi), _midpoint(b_lo, b_hi))
    nested = (a_lo <= b_lo and b_hi <= a_hi) or (b_lo <= a_lo and a_hi <= b_hi)
    keys = (widths, midpoints) if nested else (midpoints, widths)
    for ka, kb in keys:
        if ka < kb:
            return -1
        if ka > kb:
            return 1
    return 0


def scalar_mul(a: float, x: IntervalNumber) -> IntervalNumber:
    """Scale by a real: nonnegative factors scale coefficients directly."""
    a = float(a)
    _check_finite(a, a)
    order = x.order
    if a >= 0.0 or x.mode is ArithmeticMode.TRUE:
        return _number(x.mode, order, _SCALE[order](x.coeffs, a))
    return _number(x.mode, order, _SCALE[order](_negated(x), -a))


def pow_int(x: IntervalNumber, exponent: int) -> IntervalNumber:
    """Left-fold power through the algebra product; exponent must be >= 0."""
    if not isinstance(exponent, int) or isinstance(exponent, bool):
        raise ValueError(f"integer exponent required, got {exponent!r}")
    if exponent < 0:
        raise ValueError("negative exponents are not supported")
    order = x.order
    mul = _MUL[order]
    coeffs = x.coeffs
    acc = _embed_point(1.0, 1.0, order)  # the unit [1, 1]
    for _ in range(exponent):
        acc = mul(acc, coeffs)
    return _number(x.mode, order, acc)


# ---------------------------------------------------------------------------
# Monotone function lifting
# ---------------------------------------------------------------------------

def _lift(fn: Callable[[float], float], x: IntervalNumber, domain: str = "") -> IntervalNumber:
    """fn on x's raw endpoints, embedded; fn's ValueError marks its domain's edge."""
    lo, hi = _endpoints(x)
    try:
        lo, hi = fn(lo), fn(hi)
    except OverflowError:
        raise DomainError(
            f"{fn.__name__} overflows on the endpoints ({lo!r}, {hi!r})"
        ) from None
    except ValueError:
        raise DomainError(
            f"{fn.__name__} requires {domain} interval, got {format_interval(x.raw)}"
        ) from None
    return _number(x.mode, x.order, _embed_coeffs(lo, hi, x.order))


def exp(x: IntervalNumber) -> IntervalNumber:
    """Endpoint lift of exp; improper orientation is preserved."""
    return _lift(math.exp, x)


def log(x: IntervalNumber) -> IntervalNumber:
    return _lift(math.log, x, "a strictly positive")


def sqrt(x: IntervalNumber) -> IntervalNumber:
    return _lift(math.sqrt, x, "a nonnegative")


# ---------------------------------------------------------------------------
# Minkowski (set extension) reference arithmetic
# ---------------------------------------------------------------------------

def _require_proper(g: GeneralizedInterval, op: str) -> GeneralizedInterval:
    if not g.is_proper:
        raise ValueError(f"{op} requires proper intervals, got {g!r}")
    return g


def mink_add(x: GeneralizedInterval, y: GeneralizedInterval) -> GeneralizedInterval:
    x = _require_proper(x, "mink_add")
    y = _require_proper(y, "mink_add")
    return GeneralizedInterval(x.lo + y.lo, x.hi + y.hi)


def mink_sub(x: GeneralizedInterval, y: GeneralizedInterval) -> GeneralizedInterval:
    x = _require_proper(x, "mink_sub")
    y = _require_proper(y, "mink_sub")
    return GeneralizedInterval(x.lo - y.hi, x.hi - y.lo)


def mink_mul(x: GeneralizedInterval, y: GeneralizedInterval) -> GeneralizedInterval:
    x = _require_proper(x, "mink_mul")
    y = _require_proper(y, "mink_mul")
    products = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return GeneralizedInterval(min(products), max(products))


def mink_div(x: GeneralizedInterval, y: GeneralizedInterval) -> GeneralizedInterval:
    x = _require_proper(x, "mink_div")
    y = _require_proper(y, "mink_div")
    if y.lo <= 0.0 <= y.hi:
        raise ZeroDivisionError(
            f"mink_div by an interval containing zero: {y!r}"
        )
    quotients = (x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi)
    return GeneralizedInterval(min(quotients), max(quotients))


# ---------------------------------------------------------------------------
# Display formats and literals
# ---------------------------------------------------------------------------

def format_number(value: float) -> str:
    """12 significant digits, with a trailing .0 on integral values."""
    if value == 0.0:
        value = 0.0  # never print the sign of a negative zero
    s = "%.12g" % value
    if s.lstrip("+-").isdigit():
        s += ".0"
    return s


def format_interval(g: GeneralizedInterval, raw: bool = False) -> str:
    if raw:
        return f"({format_number(g.lo)},{format_number(g.hi)})"
    c = g.canonical
    return f"[{format_number(c.lo)},{format_number(c.hi)}]"


class IterationRecord(_Record):
    """One step of an iterative algorithm: its iterate x and, where the
    algorithm evaluates an objective, f(x)."""

    index: int
    x: GeneralizedInterval
    fx: GeneralizedInterval | None = None


TRACE_CSV_HEADER = "iter,x_lo,x_hi,x_mid,x_width,f_lo,f_hi"


def write_trace_csv(path: str, trace: tuple[IterationRecord, ...]) -> None:
    """One row per iteration, 12 significant digits per value; the f columns
    stay empty for records without f(x)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_CSV_HEADER + "\n")
        for rec in trace:
            x = rec.x.canonical
            fx = rec.fx.canonical if rec.fx is not None else None
            cols = [
                str(rec.index),
                format_number(x.lo),
                format_number(x.hi),
                format_number(rec.x.midpoint),
                format_number(rec.x.width),
                format_number(fx.lo) if fx is not None else "",
                format_number(fx.hi) if fx is not None else "",
            ]
            fh.write(",".join(cols) + "\n")


# ---------------------------------------------------------------------------
# Text: the tokenizer and literal rules of expressions, options and matrices
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()\[\],±])"
)


def _tokenize(text: str) -> list[str]:
    """The token texts, ending in an empty END token.  findall skips what
    starts no token, so the tokens must cover every character but whitespace
    (the pattern's is ``str.split``'s); if not, the match loop finds the
    first stray character."""
    tokens = _TOKEN_RE.findall(text)
    if sum(map(len, tokens)) != len("".join(text.split())):
        pos = 0
        while m := _TOKEN_RE.match(text, pos):
            pos = m.end()
        rest = text[pos:].lstrip()
        raise ExprSyntaxError(
            f"unexpected character {rest[0]!r}", len(text) - len(rest) + 1
        )
    tokens.append("")
    return tokens


def _is_number(token: str) -> bool:
    # \d is any Unicode decimal digit, which is what isdecimal tests
    return token[:1].isdecimal() or token[:1] == "."


class _Reader:
    """A cursor over the token texts, with the literal rules; literal i starts
    at token i.  1-based positions are found only for errors."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i]

    def advance(self) -> str:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, i: int | None = None) -> ExprSyntaxError:
        """A syntax error at token i, by default the last one read (END: past the text)."""
        starts = [m.start(1) + 1 for m in _TOKEN_RE.finditer(self.text)]
        starts.append(len(self.text) + 1)
        return ExprSyntaxError(message, starts[self.i - 1 if i is None else i])

    def expect(self, tok: str, what: str) -> None:
        if self.advance() != tok:
            raise self.error(f"expected {what}")

    def number(self, what: str) -> float:
        tok = self.advance()
        if not _is_number(tok):
            raise self.error(f"expected {what}")
        return float(tok)

    def signed_number(self) -> float:
        sign = 1.0
        while self.peek() in ("+", "-"):
            if self.advance() == "-":
                sign = -sign
        return sign * self.number("a number")

    def finite(self, i: int, *values: float) -> tuple[float, ...]:
        """Literal i's values, unless one is infinite or NaN, such as 1e400."""
        if all(map(math.isfinite, values)):
            return values
        raise self.error("literal is not finite", i)

    def bracket(self, i: int) -> tuple[float, ...]:
        """'[' a ',' b ']', read after its '[', token i."""
        lo = self.signed_number()
        self.expect(",", "','")
        hi = self.signed_number()
        self.expect("]", "']'")
        return self.finite(i, lo, hi)

    def ball(self, i: int, center: float) -> tuple[float, ...]:
        """Literal i: center, or center ± radius, the radius unsigned."""
        if self.peek() != "±":
            return self.finite(i, center)
        self.i += 1
        radius = self.number("a radius after '±'")
        return self.finite(i, center - radius, center + radius)

    def literal(self, ends: tuple[str, ...] = ("",)) -> tuple[float, ...]:
        """An option value's literal, then a token in ends: [a,b], or signs, c and maybe ±e."""
        i = self.i
        if self.peek() == "[":
            self.i += 1
            values = self.bracket(i)
        else:
            values = self.ball(i, self.signed_number())
        if self.peek() not in ends:
            raise self.error(f"unexpected {self.peek()!r}", self.i)
        return values if len(values) == 2 else values * 2


def _option_reader(text: str) -> _Reader:
    """Option values and matrix lines spell '±' as touching '+-' (padded: positions hold)."""
    return _Reader(text.replace("+-", "± "))


def parse_interval_literal(text: str) -> tuple[float, float]:
    """Parse "[a,b]", "c±e" (ASCII synonym "c+-e") or a number c, c with any
    signs; raise ValueError, with the reader's position, for malformed text
    and for endpoints that are not finite."""
    try:
        return _option_reader(text).literal()
    except ExprSyntaxError as err:
        raise ValueError(f"invalid interval literal {text!r}: {err}") from None
