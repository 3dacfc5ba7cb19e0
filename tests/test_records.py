"""The immutable value classes: the contract a frozen dataclass gave them."""

import copy
import math
import pickle

import pytest
from helpers import bits

import intalg as ia
from intalg import (
    AlgebraElement,
    AlgebraOrder,
    FdStyle,
    GeneralizedInterval,
    IntervalMatrix,
    IntervalVector,
    IterationRecord,
    OptimizerConfig,
    PowerIterationResult,
    SplitCoords,
    interval,
)
from intalg.algebra import _Record
from intalg.exprcalc import BinOp, Call, IntervalLit, Neg, Num, Power, Var


class Empty(_Record):
    """A record with no fields: its generated ``__init__`` takes none."""


GI = GeneralizedInterval(1, 2)
X = interval(1, 2)
ROW = IntervalVector([X, interval(3)])

# (value, its repr, its fields in order).  The reprs are the ones a frozen
# dataclass printed.
RECORDS = [
    (
        AlgebraElement(4, (1, 2, 3, 4)),
        "AlgebraElement(order=<AlgebraOrder.ORDER_4: 4>, coeffs=(1.0, 2.0, 3.0, 4.0))",
        (AlgebraOrder.ORDER_4, (1.0, 2.0, 3.0, 4.0)),
    ),
    (
        SplitCoords((1.0, 2.0), (3.0, 4.0)),
        "SplitCoords(i1=(1.0, 2.0), i2=(3.0, 4.0))",
        ((1.0, 2.0), (3.0, 4.0)),
    ),
    (GI, "GeneralizedInterval(lo=1.0, hi=2.0)", (1.0, 2.0)),
    (
        IterationRecord(3, GI),
        "IterationRecord(index=3, x=GeneralizedInterval(lo=1.0, hi=2.0), fx=None)",
        (3, GI, None),
    ),
    (Num(1.5), "Num(value=1.5)", (1.5,)),
    (IntervalLit(-1.0, 2.0), "IntervalLit(lo=-1.0, hi=2.0)", (-1.0, 2.0)),
    (Var("x"), "Var(name='x')", ("x",)),
    (Neg(Var("x")), "Neg(operand=Var(name='x'))", (Var("x"),)),
    (
        BinOp("+", Num(1.0), Var("x")),
        "BinOp(op='+', left=Num(value=1.0), right=Var(name='x'))",
        ("+", Num(1.0), Var("x")),
    ),
    (Power(Var("x"), 2), "Power(base=Var(name='x'), exponent=2)", (Var("x"), 2)),
    (Call("exp", Var("x")), "Call(func='exp', arg=Var(name='x'))", ("exp", Var("x"))),
    (IntervalVector([X]), f"IntervalVector(entries=({X!r},))", ((X,),)),
    (IntervalMatrix([ROW]), f"IntervalMatrix(rows=({ROW!r},))", ((ROW,),)),
    (
        PowerIterationResult(X, ROW, ()),
        f"PowerIterationResult(eigenvalue={X!r}, eigenvector={ROW!r}, trace=())",
        (X, ROW, ()),
    ),
    (
        OptimizerConfig(),
        "OptimizerConfig(h=1e-06, rho=0.01, eps=1e-06, max_iter=100000, "
        "style=<FdStyle.MIDPOINT: 'midpoint'>)",
        (1e-6, 1e-2, 1e-6, 100_000, FdStyle.MIDPOINT),
    ),
    (Empty(), "Empty()", ()),
]
IDS = [type(r[0]).__name__ for r in RECORDS]


def _rebuilt(value):
    return type(value)(*(getattr(value, name) for name in type(value)._fields))


@pytest.mark.parametrize("value, text, fields", RECORDS, ids=IDS)
def test_eq_hash_and_repr_over_the_fields(value, text, fields):
    assert tuple(getattr(value, name) for name in type(value)._fields) == fields
    assert repr(value) == text
    twin = _rebuilt(value)
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(fields)
    assert value != fields and value != object()


@pytest.mark.parametrize("value, text, fields", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(value, text, fields):
    for name in (*type(value)._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(value, text, fields):
    # every record is rebuilt by calling its class on its fields
    for round_trip in _ROUND_TRIPS:
        twin = round_trip(value)
        assert type(twin) is type(value) and twin == value and repr(twin) == text


def test_different_node_classes_with_equal_fields_differ():
    assert Num("x") != Var("x") and Var("x") != Num("x")
    assert Neg(Num(1.0)) != Num(Num(1.0))
    assert len({Num("x"), Var("x")}) == 2


def test_keyword_positional_and_default_construction():
    assert SplitCoords(i1=(1.0, 2.0), i2=(3.0, 4.0)) == SplitCoords((1.0, 2.0), (3.0, 4.0))
    assert IterationRecord(0, GI, fx=GI).fx == GI
    assert IterationRecord(index=0, x=GI).fx is None
    assert GeneralizedInterval(hi=2, lo=1) == GI
    for bad in ((), (1, 2, 3, 4)):
        with pytest.raises(TypeError):
            IterationRecord(*bad)
    with pytest.raises(TypeError):
        IterationRecord(0, GI, fy=None)
    with pytest.raises(TypeError):
        IterationRecord(0, GI, index=1)


def test_optimizer_config_defaults_and_checks():
    cfg = OptimizerConfig(1e-4, style=FdStyle.FULL)
    assert (cfg.h, cfg.rho, cfg.eps, cfg.max_iter, cfg.style) == (
        1e-4, 1e-2, 1e-6, 100_000, FdStyle.FULL,
    )
    for args, kwargs, field in (
        ((0,), {}, "h"),
        ((), {"rho": 0}, "rho"),
        ((), {"rho": 10**400}, "rho"),  # finite as an int, too large for a float
        ((10**400,), {}, "h"),
        ((1e-6, 1e-2, -1e-6), {}, "eps"),
        ((), {"max_iter": 0}, "max_iter"),
        ((True,), {}, "h"),
        ((), {"rho": True}, "rho"),
        ((), {"eps": True}, "eps"),
        (("1e-6",), {}, "h"),
    ):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(*args, **kwargs)


def _numbers():
    # negative coefficients, and a semantic order-7 number with signed zeros
    return (
        interval(1, 2) - interval(3, 5),
        ia.IntervalNumber(
            ia.ArithmeticMode.SEMANTIC,
            AlgebraElement(7, (-0.0, 0.0, 5e-324, -1e300, 2.5, 0.0, -3.0)),
        ),
    )


_ROUND_TRIPS = [
    *(
        (lambda x, p=protocol: pickle.loads(pickle.dumps(x, protocol=p)))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ),
    copy.deepcopy,
    copy.copy,
]


@pytest.mark.parametrize("read_raw", (False, True))
def test_interval_number_round_trips_keep_the_element(read_raw):
    # Pickle at every protocol, deepcopy and copy, with raw read before the
    # round trip or not: slots are restored differently across Python
    # versions, and reading raw must leave nothing behind to restore.
    for round_trip in _ROUND_TRIPS:
        for x in _numbers():
            if read_raw:
                x.raw
            twin = round_trip(x)
            assert type(twin) is ia.IntervalNumber and twin.coeffs == x.coeffs
            assert bits(twin.coeffs) == bits(x.coeffs)
            assert twin.mode is x.mode and twin.order is x.order
            assert bits((twin.raw.lo, twin.raw.hi)) == bits((x.raw.lo, x.raw.hi))
            with pytest.raises(AttributeError):
                twin.mode = ia.ArithmeticMode.SEMANTIC


def test_generalized_interval_is_slotted_and_round_trips_bit_for_bit():
    # collapse fills the slots directly; both ways give the same record
    pairs = [
        GeneralizedInterval(-0.0, 5e-324),
        ia.collapse(AlgebraElement(4, (0.0, -0.0, 5e-324, 1e300))),
        interval(3, 1).raw,
    ]
    for g in pairs:
        assert type(g) is GeneralizedInterval and not hasattr(g, "__dict__")
        assert g == GeneralizedInterval(g.lo, g.hi)
        for name in ("lo", "hi", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(g, name)
        for round_trip in _ROUND_TRIPS:
            twin = round_trip(g)
            assert type(twin) is GeneralizedInterval
            assert bits((twin.lo, twin.hi)) == bits((g.lo, g.hi))


@pytest.mark.parametrize("read_raw", (False, True))
def test_interval_number_is_one_slotted_object(read_raw):
    for x in _numbers():
        if read_raw:
            x.raw
        assert not hasattr(x, "__dict__")
        for name in (*ia.IntervalNumber.__slots__, "raw", "element", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert bits(x.raw._values()) == bits(x.raw._values())
        assert x.element == AlgebraElement(x.order, x.coeffs)
        assert not hasattr(x.element, "__dict__")


# (slotted record, its fields for _make, the same value's public constructor
# arguments)
SLOTTED = [
    (
        AlgebraElement,
        (AlgebraOrder.ORDER_4, (1.0, -0.0, 5e-324, 4.0)),
        (4, [1, -0.0, 5e-324, 4]),
    ),
    (GeneralizedInterval, (2.0, -1.5), (2, -1.5)),
    (
        ia.IntervalNumber,
        (ia.ArithmeticMode.SEMANTIC, AlgebraOrder.ORDER_5, (0.0, 1.0, 0.0, 0.0, 2.0)),
        ("semantic", AlgebraElement(5, (0, 1, 0, 0, 2))),
    ),
]


@pytest.mark.parametrize("cls, fields, args", SLOTTED, ids=[s[0].__name__ for s in SLOTTED])
def test_make_builds_the_slotted_record_the_constructor_builds(cls, fields, args):
    made, built = cls._make(*fields), cls(*args)
    assert type(made) is cls and not hasattr(made, "__dict__")
    assert made == built and made._values() == built._values() == fields
    # repr tells -0.0 from 0.0, which == does not
    assert repr(made._values()) == repr(built._values()) == repr(fields)
    assert cls._make.__code__.co_filename == f"<{cls.__name__}._make>"
    assert "__init__" not in cls.__dict__ and "__new__" in cls.__dict__


def _record_classes(cls=_Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_slots_are_the_fields():
    # _make stores exactly the fields: no slot is left for a later write.
    slotted = [cls for cls in _record_classes() if "__slots__" in cls.__dict__]
    assert {cls for cls, _, _ in SLOTTED} <= set(slotted)
    for cls in slotted:
        assert cls.__slots__ == cls._fields, cls


def test_reading_every_property_leaves_the_fields_unchanged():
    for x in _numbers():
        before = repr(x._values())
        x.raw, x.canonical, x.min, x.max, x.width, x.midpoint, x.norm, x.element
        str(x), repr(x), abs(x), hash(x), x == x, x < x, x.contains(x)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(x._values()) == before


def test_only_slotted_records_have_make():
    for cls in (IterationRecord, Num, OptimizerConfig):
        assert not hasattr(cls, "_make") and "__init__" in cls.__dict__


def test_public_constructors_still_convert_and_check():
    assert type(GeneralizedInterval(1, 2).lo) is float
    assert type(GeneralizedInterval(1, 2).hi) is float
    element = AlgebraElement(4.0, (1, 2, 3, 4))
    assert type(element.order) is AlgebraOrder and element.coeffs == (1.0, 2.0, 3.0, 4.0)
    assert all(type(c) is float for c in element.coeffs)
    with pytest.raises(ValueError, match="expected 4 coefficients, got 3"):
        AlgebraElement(4, (1, 2, 3))
    with pytest.raises(ValueError):
        ia.IntervalNumber("exact", AlgebraElement.unit(4))
    assert ia.IntervalNumber("true", AlgebraElement.unit(4)).mode is ia.ArithmeticMode.TRUE


@pytest.mark.parametrize(
    "huge, infinity", ((10**400, math.inf), (-(10**400), -math.inf)), ids=("10**400", "-10**400")
)
def test_an_int_too_large_for_a_float_converts_as_an_infinity(huge, infinity):
    # each once raised a bare OverflowError
    assert GeneralizedInterval(huge, 1) == GeneralizedInterval(infinity, 1)
    assert GeneralizedInterval(1, huge) == GeneralizedInterval(1, infinity)
    element = AlgebraElement(4, (huge, 0, 0, 0))
    assert element == AlgebraElement(4, (infinity, 0, 0, 0))
    # the infinite factor meets a zero coefficient: NaNs, so compare bits
    unit = X.element
    assert bits(unit.scale(huge).coeffs) == bits(unit.scale(infinity).coeffs)
    assert ia.format_number(huge) == ia.format_number(infinity) == str(infinity)
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        OptimizerConfig(rho=huge)


@pytest.mark.parametrize(
    "element", ((1.0, 2.0, 3.0, 4.0), None, X), ids=("tuple", "None", "IntervalNumber")
)
def test_interval_number_takes_only_an_element(element):
    with pytest.raises(TypeError, match=f"AlgebraElement, not {type(element).__name__}$"):
        ia.IntervalNumber("true", element)


def test_generated_code_keeps_its_labels():
    from intalg import linalg

    assert linalg._plane_product(3).__code__.co_filename == "<plane product, length 3>"
    assert linalg._plane_product(3)([(1.0, 2.0, 3.0)], [(4.0, 5.0, 6.0)]) == [[32.0]]
    assert IterationRecord.__init__.__code__.co_filename == "<IterationRecord.__init__>"
    assert IterationRecord.__init__.__qualname__ == "IterationRecord.__init__"
    assert GeneralizedInterval._make.__qualname__ == "GeneralizedInterval._make"
