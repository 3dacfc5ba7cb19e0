"""The immutable value classes: the contract a frozen dataclass gave them."""

import copy
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
from intalg.exprcalc import BinOp, Call, IntervalLit, Neg, Num, Power, Var

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
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
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
    # Pickle at every protocol, deepcopy and copy, with the collapse cached
    # or not: slots are restored differently across Python versions.
    for round_trip in _ROUND_TRIPS:
        for x in _numbers():
            if read_raw:
                x.raw
            twin = round_trip(x)
            assert type(twin) is ia.IntervalNumber and twin.same_element(x)
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
        assert x.raw is x.raw
        assert x.element == AlgebraElement(x.order, x.coeffs)
