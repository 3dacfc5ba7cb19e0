import ast
import inspect
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from helpers import (
    bits,
    close_ulps,
    draw_coeff,
    draw_float,
    exact_is_invertible,
    inf_norm,
    reference_alg_inv,
    reference_add,
    reference_alg_mul,
    reference_is_invertible,
    reference_neg,
    reference_scale,
    reference_sub,
    split_squares_in_range,
    vectors_close_ulps,
)
from hypothesis import given
from hypothesis import strategies as st

from intalg import (
    AlgebraElement,
    AlgebraOrder,
    DomainError,
    NotInvertibleError,
    OrderMismatchError,
    UnsupportedOrderError,
    alg_inv,
    alg_mul,
    generator_endpoints,
    is_invertible,
    structure_table,
    to_split,
)
from intalg.algebra import _as_order
from intalg.interval import GeneralizedInterval, collapse, mink_mul

ORDERS = (4, 5, 7)


def elem(order, *coeffs):
    return AlgebraElement(order, coeffs)


def rand_elem(order, rng, lo=-4.0, hi=4.0):
    return AlgebraElement(order, tuple(rng.uniform(lo, hi) for _ in range(order)))


# -- structure tables ---------------------------------------------------------

@pytest.mark.parametrize("order", ORDERS)
def test_table_rederived_from_generator_set_products(order):
    # Every table entry must be the generator whose interval is the set
    # product of the two generator intervals.
    gens = generator_endpoints(order)
    table = structure_table(order)
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            prod = mink_mul(GeneralizedInterval(*gi), GeneralizedInterval(*gj))
            assert (prod.lo, prod.hi) == gens[table[i][j]], (i, j)


def test_table_spot_values():
    assert structure_table(4)[1][2] == 2  # e2 . e3 = e3
    assert structure_table(5)[3][4] == 4  # e4 . e5 = e5
    assert structure_table(7)[5][5] == 6  # e6 . e6 = e7


@pytest.mark.parametrize("order", ORDERS)
def test_table_is_symmetric(order):
    t = structure_table(order)
    n = len(t)
    assert all(t[i][j] == t[j][i] for i in range(n) for j in range(n))


def test_only_three_orders_constructible():
    with pytest.raises(UnsupportedOrderError):
        generator_endpoints(6)
    with pytest.raises(UnsupportedOrderError):
        AlgebraElement(3, (1.0, 2.0, 3.0))


class _EqualsFour:
    """Unhashable, and equal to 4: the enum finds it by comparison alone."""

    __hash__ = None

    def __eq__(self, other):
        return other == 4


@pytest.mark.parametrize(
    "value", (4, 4.0, AlgebraOrder.ORDER_5, 6, 4.5, "4", True, None, [4], _EqualsFour())
)
def test_as_order_agrees_with_the_enum(value):
    try:
        want = AlgebraOrder(value)
    except ValueError:
        with pytest.raises(UnsupportedOrderError, match="unsupported algebra order"):
            _as_order(value)
    else:
        assert _as_order(value) is want


def test_public_constructor_validates_and_normalizes():
    with pytest.raises(ValueError):
        AlgebraElement(4, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        AlgebraElement(5, (1.0,) * 7)
    with pytest.raises(UnsupportedOrderError):
        AlgebraElement(6, (1.0,) * 6)
    u = AlgebraElement(7, (1, 2, 3, 4, 5, 6, True))
    assert u.order is AlgebraOrder.ORDER_7
    assert all(type(c) is float for c in u.coeffs)


# -- product ------------------------------------------------------------------

def test_mul_session_example():
    out = alg_mul(elem(4, 0, 2, 1, 0), elem(4, 3, 1, 0, 0))
    assert out.coeffs == (0.0, 8.0, 4.0, 0.0)


def test_mul_order7_example():
    out = alg_mul(elem(7, 0, 0, 0, 0, 1, 0, 2), elem(7, 0, 0, 0, 0, 0, 4, 0))
    assert out.coeffs == (0.0, 0.0, 0.0, 0.0, 4.0, 8.0, 0.0)


@pytest.mark.parametrize("order", ORDERS)
def test_unit_is_exact_identity(order):
    rng = random.Random(101)
    unit = AlgebraElement.unit(order)
    for _ in range(500):
        v = rand_elem(order, rng)
        assert alg_mul(unit, v).coeffs == v.coeffs
        assert alg_mul(v, unit).coeffs == v.coeffs


@pytest.mark.parametrize("order", ORDERS)
def test_commutativity_exact(order):
    rng = random.Random(order)
    for _ in range(10_000):
        u, v = rand_elem(order, rng), rand_elem(order, rng)
        assert alg_mul(u, v).coeffs == alg_mul(v, u).coeffs


@pytest.mark.parametrize("order", ORDERS)
def test_product_matches_table_walk_bit_for_bit(order):
    rng = random.Random(order + 30)
    for _ in range(10_000):
        u = AlgebraElement(order, tuple(draw_float(rng) for _ in range(order)))
        v = AlgebraElement(order, tuple(draw_float(rng) for _ in range(order)))
        out = alg_mul(u, v)
        assert bits(out.coeffs) == bits(reference_alg_mul(u, v)), (u, v)
        assert out.order is u.order


@pytest.mark.parametrize("order", ORDERS)
def test_linear_kernels_match_generator_forms_bit_for_bit(order):
    # Signed zeros, subnormals, huge and infinite coefficients included.
    rng = random.Random(order + 90)
    for _ in range(10_000):
        u = AlgebraElement(order, tuple(draw_coeff(rng) for _ in range(order)))
        v = AlgebraElement(order, tuple(draw_coeff(rng) for _ in range(order)))
        factor = draw_coeff(rng)
        for out, ref in (
            (u + v, reference_add(u, v)),
            (u - v, reference_sub(u, v)),
            (-u, reference_neg(u)),
            (u.scale(factor), reference_scale(u, factor)),
        ):
            assert bits(out.coeffs) == bits(ref), (u, v, factor)
            assert out.order is u.order


@pytest.mark.parametrize("order", ORDERS)
def test_product_kernel_is_straight_line(order):
    # Every kernel generated for the order, and every operation that calls
    # one, runs no Python loop.
    algebra = sys.modules["intalg.algebra"]
    alg_mul(AlgebraElement.unit(order), AlgebraElement.unit(order))
    kernels = algebra._kernel_source(AlgebraOrder(order))
    names = [node.name for node in ast.parse(kernels).body]
    assert names == list(algebra._KERNELS)
    for name, table in algebra._KERNELS.items():
        kernel = table[AlgebraOrder(order)]
        assert kernel.__name__ == name
        assert kernel.__code__.co_filename == f"<kernels, order {order}>"
    callers = (
        alg_mul,
        AlgebraElement.__add__,
        AlgebraElement.__sub__,
        AlgebraElement.__neg__,
        AlgebraElement.scale,
        collapse,
    )
    for source in (kernels, *(textwrap.dedent(inspect.getsource(f)) for f in callers)):
        loops = (ast.For, ast.While, ast.comprehension)
        assert not any(isinstance(node, loops) for node in ast.walk(ast.parse(source)))


def test_kernels_compile_per_order_on_first_use():
    # Importing compiles no kernel; the first operation at an order compiles
    # every kernel of that order and no other.
    script = """
import intalg.algebra as a
def compiled():
    return [int(o) for o in a.AlgebraOrder if a._ADD[o].__name__ == "add"]
print(compiled())
u = a.AlgebraElement.unit(5)
print((u - u).coeffs, compiled())
print([table[a.AlgebraOrder(5)].__name__ for table in a._KERNELS.values()])
"""
    src = os.path.dirname(os.path.dirname(sys.modules["intalg"].__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert run.stdout.splitlines() == [
        "[]",
        "(0.0, 0.0, 0.0, 0.0, 0.0) [5]",
        "['mul', 'add', 'sub', 'neg', 'scale', 'collapse']",
    ], run.stderr


@pytest.mark.parametrize("order", ORDERS)
def test_associativity_within_4_ulps(order):
    # 4 ulps at the scale the triple products accumulate at; the result
    # entries themselves can be much smaller through cancellation.
    rng = random.Random(order + 10)
    for _ in range(10_000):
        u, v, w = (rand_elem(order, rng) for _ in range(3))
        lhs = alg_mul(alg_mul(u, v), w).coeffs
        rhs = alg_mul(u, alg_mul(v, w)).coeffs
        scale = (
            inf_norm(u.coeffs) * inf_norm(v.coeffs) * inf_norm(w.coeffs) * order**2
        )
        assert vectors_close_ulps(lhs, rhs, 4, scale=scale)


@pytest.mark.parametrize("order", ORDERS)
def test_nonnegative_cone_closure(order):
    rng = random.Random(order + 20)
    for _ in range(2000):
        u = rand_elem(order, rng, 0.0, 5.0)
        v = rand_elem(order, rng, 0.0, 5.0)
        assert all(c >= 0.0 for c in alg_mul(u, v).coeffs)


def test_mul_order_mismatch():
    with pytest.raises(OrderMismatchError):
        alg_mul(AlgebraElement.unit(4), AlgebraElement.unit(5))


@pytest.mark.parametrize("op", ("+", "-"))
def test_sum_and_difference_order_mismatch(op):
    u, v = AlgebraElement.unit(4), AlgebraElement.unit(7)
    for a, b in ((u, v), (v, u)):
        with pytest.raises(OrderMismatchError, match="orders differ"):
            a + b if op == "+" else a - b


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
)
def test_commutativity_hypothesis(a, b):
    u, v = AlgebraElement(4, tuple(a)), AlgebraElement(4, tuple(b))
    assert alg_mul(u, v).coeffs == alg_mul(v, u).coeffs


# -- split coordinates --------------------------------------------------------

def test_split_examples():
    s = to_split(elem(4, 3, 1, 0, 0))
    assert s.i1 == (3.0, 0.0) and s.i2 == (4.0, 0.0)
    s = to_split(AlgebraElement.unit(4))
    assert s.i1 == (1.0, 0.0) and s.i2 == (1.0, 0.0)
    s = to_split(AlgebraElement.zero(4))
    assert s.i1 == (0.0, 0.0) and s.i2 == (0.0, 0.0)


def test_split_requires_order_4():
    with pytest.raises(UnsupportedOrderError):
        to_split(AlgebraElement.unit(5))


def test_split_product_isomorphism():
    # The table product must agree with the componentwise split-pair product.
    def pair_mul(p, q):
        return (p[0] * q[0] + p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    rng = random.Random(9)
    for _ in range(5000):
        u, v = rand_elem(4, rng), rand_elem(4, rng)
        su, sv = to_split(u), to_split(v)
        via_table = to_split(alg_mul(u, v))
        via_split = (*pair_mul(su.i1, sv.i1), *pair_mul(su.i2, sv.i2))
        scale = inf_norm(u.coeffs) * inf_norm(v.coeffs) * 16
        assert vectors_close_ulps((*via_table.i1, *via_table.i2), via_split, 4, scale=scale)


# Each algebra is R^n with a componentwise product: it has n characters, the
# linear maps chi with chi(e0) = 1 and chi(u v) = chi(u) chi(v), given here
# by their values on the generators.  Order 5 adds the sum of all
# coefficients to the four of order 4; order 7 adds three others.
_ORDER_4_CHARACTERS = ((1, 0, 0, -1), (1, 0, 0, 1), (1, 1, -1, -1), (1, 1, 1, 1))
CHARACTERS = {
    4: _ORDER_4_CHARACTERS,
    5: tuple(c + (0,) for c in _ORDER_4_CHARACTERS) + ((1, 1, 1, 1, 1),),
    7: tuple(c + (0, 0, 0) for c in _ORDER_4_CHARACTERS)
    + ((1, 1, -1, -1, 0, -1, 1), (1, 1, 1, 1, 0, 1, 1), (1,) * 7),
}


def _rank(rows) -> int:
    """Rank over the rationals, by Gaussian elimination in Fractions."""
    rows = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("order", ORDERS)
def test_characters_turn_the_product_componentwise(order):
    # Small integer coefficients keep every float product and sum of the
    # kernel exact, so chi(u v) == chi(u) chi(v) must hold exactly.
    chars = CHARACTERS[order]
    assert len(set(chars)) == order and _rank(chars) == order

    def chi(c, u):
        return sum(Fraction(k) * Fraction(a) for k, a in zip(c, u.coeffs))

    rng = random.Random(order + 53)
    for _ in range(2000):
        u, v = (AlgebraElement(order, [rng.randint(-99, 99) for _ in range(order)]) for _ in "uv")
        w = alg_mul(u, v)
        assert all(a == int(a) for a in w.coeffs)
        for c in chars:
            assert chi(c, w) == chi(c, u) * chi(c, v)


# -- inverse ------------------------------------------------------------------

def test_inverse_of_embedded_positive_interval():
    u = elem(4, 3, 1, 0, 0)  # the embedding of [3, 4]
    s = to_split(alg_inv(u))
    assert s.i1 == (1 / 3, 0.0) and s.i2 == (0.25, 0.0)
    prod = alg_mul(u, alg_inv(u))
    unit = AlgebraElement.unit(4)
    assert vectors_close_ulps(prod.coeffs, unit.coeffs, 8)


def test_zero_containing_interval_not_invertible():
    u = elem(4, 0, 2, 1, 0)  # the embedding of [-1, 2]
    assert not is_invertible(u)
    with pytest.raises(NotInvertibleError):
        alg_inv(u)


def _draw_invertibility_case(order, rng):
    """Coefficients that hit every branch of the singularity test: signed
    zeros and small integers (split pairs with |x| == |y|), magnitudes near
    1e200 (x^2 - y^2 not finite), and special or random floats."""
    kind = rng.randrange(4)
    if kind == 0:
        coeffs = [float(rng.randint(-3, 3)) * rng.choice((1.0, -1.0)) for _ in range(order)]
    elif kind == 1:
        coeffs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(198, 202) for _ in range(order)]
    else:
        coeffs = [draw_float(rng) for _ in range(order)]
    if order == 4 and rng.random() < 0.3:
        # put one split pair on a diagonal: a4 = +-a1, or a1 + a2 = +-(a3 + a4)
        sign = rng.choice((1.0, -1.0))
        if rng.random() < 0.5:
            coeffs[3] = sign * coeffs[0]
        else:
            coeffs[2] = sign * (coeffs[0] + coeffs[1]) - coeffs[3]
    return AlgebraElement(order, tuple(coeffs))


@pytest.mark.parametrize("order", ORDERS)
def test_is_invertible_matches_split_pair_predicate(order):
    # Where the split squares stay in the float range the float predicate is
    # exact; elsewhere (coefficients near 1e200, subnormals) the rational one
    # decides, since the library scales each pair before squaring it.
    rng = random.Random(20260 + order)
    answers = set()
    for _ in range(10_000):
        u = _draw_invertibility_case(order, rng)
        in_range = order != 4 or split_squares_in_range(u)
        want = reference_is_invertible(u) if in_range else exact_is_invertible(u)
        assert is_invertible(u) is want, u.coeffs
        answers.add((in_range, want))
    if order == 4:
        assert answers == {(True, True), (True, False), (False, True), (False, False)}
    else:
        assert answers == {(True, False)}


def test_inverse_matches_unscaled_formula_bit_for_bit():
    # Scaling a split pair by a power of two before squaring it changes no
    # bit of the inverse while the unscaled squares stay in range.
    rng = random.Random(77)
    checked = 0
    for _ in range(20_000):
        u = AlgebraElement(
            4,
            [
                rng.choice((-1.0, 1.0, 0.0)) * rng.random() * 10.0 ** rng.randint(-150, 150)
                for _ in range(4)
            ],
        )
        if not (split_squares_in_range(u) and reference_is_invertible(u)):
            continue
        assert bits(alg_inv(u).coeffs) == bits(reference_alg_inv(u)), u.coeffs
        checked += 1
    assert checked > 15_000


@pytest.mark.parametrize("lo, hi", ((1e-170, 2e-170), (1e160, 2e160), (3e-300, 1e-299)))
def test_inverse_where_unscaled_squares_leave_the_float_range(lo, hi):
    # Each split coordinate of the embedding of [lo, hi] squares to 0 or inf.
    u = elem(4, lo, hi - lo, 0, 0)
    assert not split_squares_in_range(u) and not reference_is_invertible(u)
    s = to_split(alg_inv(u))
    (x1, x4), (x2, x3) = s.i1, s.i2
    assert close_ulps(x1, 1 / lo, 2) and close_ulps(x2, 1 / hi, 2)
    assert x3 == 0.0 and x4 == 0.0


def test_overflowing_inverse_is_a_domain_error():
    u = elem(4, 1e-320, 1e-320, 0, 0)  # the embedding of [1e-320, 2e-320]
    assert exact_is_invertible(u) is False and is_invertible(u) is False
    with pytest.raises(DomainError, match="too large"):
        alg_inv(u)
    huge = elem(4, 1e-308, -2e-308, 0, 0)  # split inverse finite, x2 - x1 not
    assert is_invertible(huge) is False
    with pytest.raises(DomainError):
        alg_inv(huge)


def test_unit_inverse_is_unit():
    unit = AlgebraElement.unit(4)
    assert alg_inv(unit).coeffs == unit.coeffs


def test_inverse_requires_order_4():
    with pytest.raises(UnsupportedOrderError, match=r"\(got order 7\)"):
        alg_inv(AlgebraElement.unit(7))


def _random_invertible(rng):
    while True:
        u = rand_elem(4, rng)
        s = to_split(u)
        ok = True
        for x, y in (s.i1, s.i2):
            if abs(abs(x) - abs(y)) <= 1e-3 * (abs(x) + abs(y)):
                ok = False
        if ok:
            return u


def test_inverse_random_products_give_unit_within_8_ulps():
    rng = random.Random(11)
    unit = AlgebraElement.unit(4)
    for _ in range(10_000):
        u = _random_invertible(rng)
        inv = alg_inv(u)
        prod = alg_mul(u, inv)
        scale = max(
            1.0,
            max(abs(c) for c in u.coeffs) * max(abs(c) for c in inv.coeffs),
        )
        tol = 8 * math.ulp(scale)
        assert all(
            abs(p - e) <= tol for p, e in zip(prod.coeffs, unit.coeffs)
        ), (u, prod)
