import math
import random
import re
import sys
from itertools import chain
from operator import attrgetter, neg

import pytest
from helpers import (
    bits,
    close_ulps,
    draw_coeff,
    draw_float,
    inf_norm,
    leq_ulps,
    literal_soup,
    reference_add,
    reference_alg_inv,
    reference_alg_mul,
    reference_collapse,
    reference_embed,
    reference_is_invertible,
    reference_neg,
    reference_parse_interval_literal,
    reference_reads,
    reference_scalar,
    reference_scale,
    reference_sub,
    split_squares_in_range,
    vectors_close_ulps,
)

import intalg as ia
from intalg import (
    ArithmeticMode,
    DivisionNotAllowedError,
    DomainError,
    GeneralizedInterval,
    ModeMismatchError,
    OrderMismatchError,
    UnsupportedOrderError,
    collapse,
    compare,
    embed,
    interval,
    mink_add,
    mink_div,
    mink_mul,
    mink_sub,
    parse_interval_literal,
    pow_int,
    scalar_mul,
)

TRUE = ArithmeticMode.TRUE
SEM = ArithmeticMode.SEMANTIC
ORDERS = (4, 5, 7)


def gi(lo, hi):
    return GeneralizedInterval(lo, hi)


# -- embed / collapse ---------------------------------------------------------

def test_embed_examples():
    assert embed(3, 4, 4).coeffs == (3.0, 1.0, 0.0, 0.0)
    assert embed(-2, 3, 7).coeffs == (0, 0, 0, 0, 1.0, 0, 2.0)
    assert embed(-4, 2, 7).coeffs == (0, 0, 0, 0, 0, 4.0, 0)
    for order in ORDERS:
        assert embed(0, 0, order).coeffs == (0.0,) * order


def test_embed_order5_examples():
    assert embed(-2, 3, 5).coeffs == (0, 1.0, 0, 0, 2.0)
    assert embed(-4, 2, 5).coeffs == (0, 0, 2.0, 0, 2.0)


@pytest.mark.parametrize(
    "lo, hi, order",
    [
        (math.nan, 1.0, 4),
        (-math.inf, math.inf, 4),
        (math.nan, 1.0, 5),
        (-math.inf, math.inf, 5),
        (math.nan, 1.0, 7),
        (-math.inf, math.inf, 7),
        (0.0, math.inf, 4),
        (0.0, math.inf, 5),
        (0.0, math.inf, 7),
        (math.inf, math.inf, 4),
    ],
)
def test_non_finite_endpoints_raise_domain_error(lo, hi, order):
    with pytest.raises(DomainError, match="finite"):
        embed(lo, hi, order)
    with pytest.raises(DomainError, match="finite"):
        interval(lo, hi, order=order)


def test_non_finite_scalars_raise_domain_error():
    x = interval(1, 2)
    with pytest.raises(DomainError):
        interval(math.inf)
    with pytest.raises(DomainError):
        x * math.inf
    with pytest.raises(DomainError):
        x + math.nan
    with pytest.raises(DomainError):
        x < math.inf
    # An int too large for a float meets the checks of an infinity of its
    # sign: a DomainError where it is converted, False from == and contains.
    huge = 10**400
    for convert in (
        lambda: x + huge,
        lambda: huge - x,
        lambda: x / huge,
        lambda: x * -huge,
        lambda: x < huge,
        lambda: scalar_mul(huge, x),
        lambda: interval(huge),
        lambda: interval(1, eps=2**1024),
        lambda: interval(1, huge),
        lambda: embed(1, huge),
        lambda: embed(-huge, 1),
    ):
        with pytest.raises(DomainError, match="finite"):
            convert()
    assert not x == huge and x != -huge
    assert not x.contains(huge) and not x.contains(-huge)
    # Equality only compares endpoints: no finite interval equals nan or inf.
    for order in ORDERS:
        p = interval(2.0, order=order)
        assert not p == math.nan and p != math.nan
        assert not p == math.inf and not p == -math.inf
    assert math.nan not in [x]
    assert (interval(1e300) * 1e300) == math.inf


_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _outcome(fn):
    """An operation's result as (mode, order, coefficient bits), or its
    exception as (type, message)."""
    try:
        r = fn()
    except ia.IntalgError as exc:
        return type(exc), str(exc)
    return r.mode, r.order, bits(r.element.coeffs)


@pytest.mark.parametrize("order", ORDERS)
def test_kernel_checks_keep_their_domain_error_text(order):
    # The collapse kernel refuses a NaN endpoint and the embed kernel a
    # non-finite one, with the texts of the Python checks they replaced.
    def number(mode, coeffs):
        return ia.IntervalNumber(mode, ia.AlgebraElement(order, coeffs))

    def text(fn):
        with pytest.raises(DomainError) as err:
            fn()
        return str(err.value)

    # inf on [1, 1] and on [-1, -1]: each endpoint is inf - inf
    nan_coeffs = (math.inf, 0.0, 0.0, math.inf) + (0.0,) * (order - 4)
    nan_text = (
        f"element {nan_coeffs!r} of order {order} has no endpoints: "
        "its collapse (nan, nan) is NaN"
    )
    for mode in (TRUE, SEM):
        x = number(mode, nan_coeffs)
        for read in ("raw", "min", "max", "width", "midpoint", "norm"):
            assert text(lambda: getattr(x, read)) == nan_text, read
        for fn in (lambda: x == x, lambda: hash(x), lambda: ia.exp(x)):
            assert text(fn) == nan_text

    def finite_text(lo, hi):
        return f"interval endpoints must be finite, got ({lo!r}, {hi!r})"

    inf_coeffs = (math.inf,) + (0.0,) * (order - 1)  # collapses to (inf, inf)
    cases = [
        (lambda: embed(math.inf, 1.0, order), finite_text(math.inf, 1.0)),
        (lambda: embed(1.0, -math.inf, order), finite_text(1.0, -math.inf)),
        (lambda: embed(-1.0, math.nan, order), finite_text(-1.0, math.nan)),
        (lambda: interval(math.inf, order=order), finite_text(math.inf, math.inf)),
        (lambda: interval(0.0, -math.inf, order=order), finite_text(0.0, -math.inf)),
        (lambda: -number(SEM, inf_coeffs), finite_text(-math.inf, -math.inf)),
        (lambda: -number(SEM, nan_coeffs), nan_text),
    ]
    for lift in (ia.exp, ia.log, ia.sqrt):
        cases.append((lambda f=lift: f(number(TRUE, inf_coeffs)), finite_text(math.inf, math.inf)))
    for mode in (TRUE, SEM):
        x = interval(-1, 2, order=order, mode=mode)
        cases += [
            (lambda x=x: x + math.nan, finite_text(math.nan, math.nan)),
            (lambda x=x: math.inf * x, finite_text(math.inf, math.inf)),
            (lambda x=x: x - -math.inf, finite_text(-math.inf, -math.inf)),
            (lambda x=x: x < math.inf, finite_text(math.inf, math.inf)),
        ]
    for fn, want in cases:
        assert text(fn) == want


@pytest.mark.parametrize("op", ("+", "-", "*", "/"))
def test_non_finite_scalars_raise_domain_error_on_either_side(op):
    for order in ORDERS:
        for mode in (TRUE, SEM):
            x = interval(-1, 2, order=order, mode=mode)
            for s in (math.inf, -math.inf, math.nan):
                for a, b in ((x, s), (s, x)):
                    with pytest.raises(DomainError, match="finite"):
                        _OPS[op](a, b)


@pytest.mark.parametrize("op", ("+", "-", "*", "/"))
@pytest.mark.parametrize("order", ORDERS)
def test_scalar_operands_match_point_intervals_bit_for_bit(op, order):
    # A real operand goes straight to its point element; it must give what
    # the interval number interval(s) did as the operand, on either side.
    fn = _OPS[op]
    xs = [(-1.0, 2.0), (3.0, 12.0), (2.0, -1.0), (-4.0, -0.5), (0.0, 0.0), (-0.0, 1e300)]
    for mode in (TRUE, SEM):
        for lo, hi in xs:
            x = interval(lo, hi, order=order, mode=mode)
            for s in (0.0, -0.0, 5e-324, -3.0, 1e308, 7):
                point = reference_scalar(s, x)
                got, want = _outcome(lambda: fn(x, s)), _outcome(lambda: fn(x, point))
                assert got == want, (x, s)
                got, want = _outcome(lambda: fn(s, x)), _outcome(lambda: fn(point, x))
                assert got == want, (s, x)


def _draw_number(rng, order, mode):
    """An embedded interval or, one time in three, a raw element whose
    coefficients may be negative, zeros of either sign, subnormal or near
    1e300."""
    if rng.random() < 1 / 3:
        coeffs = [draw_float(rng) for _ in range(order)]
        return ia.IntervalNumber(mode, ia.AlgebraElement(order, coeffs))
    return interval(draw_float(rng), draw_float(rng), order=order, mode=mode)


def _mirror(x):
    """The element of semantic -x: the embedded mirror of x's canonical pair."""
    lo, hi = sorted(reference_collapse(x))
    return embed(-hi, -lo, x.order)


def _reference_sub(a, b):
    if a.mode is TRUE:
        return reference_sub(a, b)
    return reference_add(a, _mirror(b))


@pytest.mark.parametrize("order", ORDERS)
def test_operators_match_element_forms_bit_for_bit(order):
    # The operators run the kernels on coefficient tuples and take a real
    # operand straight to its point's coefficients; on either side they must
    # build what the element forms build from the operand's point interval
    # reference_scalar(s, x): sums, differences, negation and scaling
    # coefficientwise, products by the table walk, semantic subtraction as
    # the sum with the embedded mirror, powers as repeated products.
    rng = random.Random(order + 60)
    for mode in (TRUE, SEM):
        for _ in range(10_000):
            x, y = _draw_number(rng, order, mode), _draw_number(rng, order, mode)
            s = rng.choice((draw_float(rng), rng.randint(-3, 3), True))
            p = reference_scalar(s, x)
            cases = []  # (what, result, its element form)
            for (a, b), (ga, gb) in (((x, y), (x, y)), ((x, p), (x, s)), ((p, x), (s, x))):
                cases += [
                    (("+", ga, gb), ga + gb, reference_add(a, b)),
                    (("-", ga, gb), ga - gb, _reference_sub(a, b)),
                    (("*", ga, gb), ga * gb, reference_alg_mul(a, b)),
                ]
                if order == 4 and split_squares_in_range(b) and reference_is_invertible(b):
                    inv = reference_alg_inv(b)
                    if all(map(math.isfinite, inv)):
                        want = reference_alg_mul(a, ia.AlgebraElement(4, inv))
                        cases.append((("/", ga, gb), ga / gb, want))
            want = reference_neg(x) if mode is TRUE else _mirror(x).coeffs
            cases.append((("neg", x), -x, want))
            if mode is TRUE or s >= 0:
                want = reference_scale(x, float(s))
            else:
                want = reference_scale(_mirror(x), -float(s))
            cases.append((("scalar_mul", s, x), scalar_mul(s, x), want))
            k = rng.randint(0, 4)
            acc = ia.AlgebraElement(order, (1.0,) + (0.0,) * (order - 1))
            for _ in range(k):
                acc = ia.AlgebraElement(order, reference_alg_mul(acc, x))
            cases.append((("**", x, k), x**k, acc.coeffs))
            got = [r.element.coeffs for _, r, _ in cases]
            want = [w for _, _, w in cases]
            # one comparison a draw; on a mismatch, name the first case
            if bits(chain.from_iterable(got)) != bits(chain.from_iterable(want)):
                for (what, _, _), g, w in zip(cases, got, want):
                    assert bits(g) == bits(w), what
            for _, r, _ in cases:
                assert r.mode is mode and r.order is x.order


@pytest.mark.parametrize("order", ORDERS)
def test_point_embedding_matches_ray_probe_bit_for_bit(order):
    # embed(v, v), scalar coercion, comparison and interval(c) share one
    # closed-form point embedding; it must equal what the neighbour probe
    # of the general embed built for the same pair.
    point = sys.modules["intalg.interval"]._point
    rng = random.Random(order + 40)
    values = [draw_float(rng) for _ in range(10_000)] + [0, -7, 3]
    for v in values:
        want = bits(reference_embed(float(v), float(v), order))
        assert bits(embed(v, v, order).coeffs) == want, v
        for mode in (TRUE, SEM):
            got = point(float(v), ia.AlgebraOrder(order), mode)
            assert bits(got.element.coeffs) == want, v
            assert got.mode is mode and got.order is ia.AlgebraOrder(order)
        assert bits(interval(v, order=order).element.coeffs) == want
        assert bits(interval(v, v, order=order).element.coeffs) == want
        assert bits(interval(v, eps=0, order=order).element.coeffs) == want
    for lo, hi in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0)):
        want = bits(reference_embed(lo, hi, order))
        assert bits(embed(lo, hi, order).coeffs) == want, (lo, hi)


def _cone_probe_pairs(rng, n):
    """Finite endpoint pairs where the embedding's cases meet: on and next to
    the cone gates hi = -lo, -2*lo and -lo/2, points, signed zeros,
    subnormals and magnitudes near 1e308, about a third of them improper."""
    pairs = []
    while len(pairs) < n:
        if rng.random() < 0.8:
            lo = draw_float(rng)
        else:
            lo = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.79) * 1e308
        r = rng.random()
        if r < 0.5:
            hi = rng.choice((-1.0, -2.0, -0.5)) * lo
            step = rng.choice((-math.inf, math.inf))
            for _ in range(rng.randint(0, 2)):
                hi = math.nextafter(hi, step)
        elif r < 0.6:
            hi = lo
        else:
            hi = draw_float(rng)
        if math.isfinite(hi):
            pairs.append((lo, hi) if rng.random() < 0.67 else (hi, lo))
    return pairs


def _tie_pairs(rng, n):
    """Proper pairs on which the plain solve often ties and lands an ulp off
    an endpoint: n draws each of two-decimal pairs in [-8, 8], integer pairs
    up to 2**54 and 3-significant-digit pairs log-uniform from 1e-8 to 1e8,
    of either sign (about 3 %, 2 % and 0.4 % of them miss)."""

    def log_uniform():
        return rng.choice((-1.0, 1.0)) * float(f"{10.0 ** rng.uniform(-8, 8):.3g}")

    draws = (
        lambda: round(rng.uniform(-8.0, 8.0), 2),
        lambda: float(rng.randint(-2**54, 2**54)),
        log_uniform,
    )
    pairs = []
    for draw in draws:
        for _ in range(n):
            lo, hi = sorted((draw(), draw()))
            if lo < hi:
                pairs.append((lo, hi))
    return pairs


@pytest.mark.parametrize("order", ORDERS)
def test_embed_matches_cone_probe_bit_for_bit(order):
    # The table-driven kernel must build the per-cone probe's coefficients,
    # signed zeros included.  The probe still searches the neighbouring
    # doubles, so the tie-heavy pairs check that the plain solve is never
    # beaten.
    rng = random.Random(order + 50)
    ties = _tie_pairs(random.Random(order + 55), 2000)
    pairs = _cone_probe_pairs(rng, 12_000) + ties + [(hi, lo) for lo, hi in ties]
    for lo, hi in pairs:
        want = bits(reference_embed(lo, hi, order))
        assert bits(embed(lo, hi, order).coeffs) == want, (lo, hi)


def _gate_pairs():
    """Pairs on each gate of the embedding kernel's cones and an ulp to either
    side: lo = 0 and hi = 0, hi = -lo (orders 5 and 7), hi = -2*lo and
    lo = -2*hi (order 7), at magnitudes from subnormal to near overflow, with
    signed zeros and pairs one ulp wide, each in both orientations."""
    tiny = 5e-324
    pairs = [(0.0, -0.0), (0.0, tiny), (-0.0, tiny), (-tiny, 0.0), (-tiny, -0.0), (-tiny, tiny)]
    for m in (tiny, 3 * tiny, 1e-310, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 3.0,
              7.77, 1e300, 8.9e307):
        up = math.nextafter(m, math.inf)
        for lo, hi in ((0.0, m), (-0.0, m), (-m, 0.0), (-m, -0.0), (-m, m), (-m, 2 * m),
                       (-2 * m, m), (m, up), (-up, -m)):
            for near in (math.nextafter(hi, -math.inf), hi, math.nextafter(hi, math.inf)):
                pairs += [(lo, near), (near, lo)]
    return pairs


@pytest.mark.parametrize("order", ORDERS)
def test_embed_kernel_matches_the_cone_probe_on_every_gate(order):
    # On these pairs the kernel's plain solve is the probe's pair, and its
    # collapse gives both endpoints back exactly.
    for lo, hi in _gate_pairs():
        coeffs = embed(lo, hi, order).coeffs
        assert bits(coeffs) == bits(reference_embed(lo, hi, order)), (lo, hi)
        assert collapse(ia.AlgebraElement(order, coeffs)) == gi(lo, hi), (lo, hi)


# Decimal pairs on which the plain solve lands an ulp off an endpoint, at
# least one for each pair of rays that such pairs reach at the order.
SEARCHED_PAIRS = {
    4: ((-6.86, -2.56), (-3.35, -1.16), (0.51, 3.32), (1.4, 7.78)),
    5: (
        (-0.27, 6.69), (-2.4, 7.87), (-7.64, 0.94), (-7.3, 2.6),
        (-3.77, -1.53), (0.27, 7.22),
    ),
    7: (
        (-0.12, 2.64), (-0.49, 6.97), (-1.82, -0.66), (0.86, 1.93),
        (-6.78, 1.3), (-7.05, 1.28),
    ),
}


@pytest.mark.parametrize("order", ORDERS)
def test_embed_pairs_whose_plain_solve_misses_match_the_probe(order):
    # The kernel keeps the plain pair where its collapse misses; the probe,
    # which searches the neighbouring doubles, must find that same pair.
    for lo, hi in SEARCHED_PAIRS[order]:
        for pair in ((lo, hi), (hi, lo)):
            coeffs = embed(*pair, order).coeffs
            assert bits(coeffs) == bits(reference_embed(*pair, order)), pair
            got = collapse(ia.AlgebraElement(order, coeffs))
            # exactly one endpoint misses, onto a neighbouring double
            missed = [(g, w) for g, w in zip((got.lo, got.hi), pair) if g != w]
            assert len(missed) == 1, (pair, got)
            g, w = missed[0]
            assert g in (math.nextafter(w, -math.inf), math.nextafter(w, math.inf)), (pair, got)


def test_improper_pair_is_embedded_once(monkeypatch):
    # The mirrored proper pair goes straight to the kernel, not back through
    # the public embed with its conversions and finiteness check.
    module = sys.modules["intalg.interval"]
    calls = []

    def counting_embed(*args):
        calls.append(args)
        return embed(*args)

    monkeypatch.setattr(module, "embed", counting_embed)
    for order in ORDERS:
        calls.clear()
        x = interval(3, 1, order=order)
        assert calls == [(3.0, 1.0, order)]
        assert bits(x.element.coeffs) == bits(reference_embed(3.0, 1.0, order))


@pytest.mark.parametrize("order", ORDERS)
def test_lifts_and_semantic_negation_skip_the_public_embed(monkeypatch, order):
    # They have float endpoints in hand and go straight to coefficients;
    # the results are still the embeddings of their endpoint pairs.
    module = sys.modules["intalg.interval"]
    lifts = ((ia.exp, math.exp), (ia.log, math.log), (ia.sqrt, math.sqrt))
    xs = [
        interval(lo, hi, order=order, mode=mode)
        for mode in (TRUE, SEM)
        for lo, hi in ((4.0, 9.0), (9.0, 4.0), (2.5, 2.5))
    ]

    def no_embed(*args):
        raise AssertionError(f"embed{args} called")

    monkeypatch.setattr(module, "embed", no_embed)
    for x in xs:
        r = x.raw
        for lift, fn in lifts:
            got = lift(x)
            assert got.mode is x.mode
            assert bits(got.coeffs) == bits(reference_embed(fn(r.lo), fn(r.hi), order))
        if x.mode is SEM:
            c = x.canonical
            assert bits((-x).coeffs) == bits(reference_embed(-c.hi, -c.lo, order))


def test_every_raw_read_is_a_fresh_collapse_bit_for_bit(monkeypatch):
    # raw is collapse(x) on each read, looked up by the module-level name, so
    # a patched collapse sees every read.  Coefficients with signed zeros
    # collapse to +0.0 endpoints, and an improper pair keeps its orientation.
    module = sys.modules["intalg.interval"]
    calls = []

    def counting_collapse(element):
        calls.append(element)
        return collapse(element)

    monkeypatch.setattr(module, "collapse", counting_collapse)
    numbers = [
        interval(1, 2) - interval(3, 5),
        interval(0.0, -0.0),
        ia.IntervalNumber(SEM, ia.AlgebraElement(4, (-0.0, -0.0, 0.0, -0.0))),
        ia.IntervalNumber(SEM, ia.AlgebraElement(7, (-0.0, 0.0, 5e-324, 2.0, 2.5, 0.0, -3.0))),
    ]
    assert bits(numbers[0].raw._values()) == bits((-2.0, -3.0))
    assert bits(numbers[1].coeffs) == bits((0.0, -0.0, 0.0, 0.0))
    for x in numbers[1:3]:
        assert bits(x.raw._values()) == bits((0.0, 0.0))
    calls.clear()
    for x in numbers:
        expected = bits(collapse(x.element)._values())
        for _ in range(3):
            assert bits(x.raw._values()) == expected
    assert len(calls) == 3 * len(numbers)


_READS = {name: attrgetter(name) for name in ("min", "max", "width", "midpoint", "norm")}


@pytest.mark.parametrize("order", ORDERS)
def test_float_reads_match_the_reference_collapse_bit_for_bit(order):
    # min, max, width, midpoint, norm and abs() take their endpoints straight
    # from the collapse kernel; they must give the pair formulas' bits on
    # reference_collapse, and raise collapse's DomainError text where an
    # endpoint is NaN.  Infinite coefficients come one time in twenty, and
    # large finite ones overflow an endpoint without a NaN.
    rng = random.Random(2100 + order)
    vectors = [tuple(draw_coeff(rng) for _ in range(order)) for _ in range(3000)]
    vectors += [
        (1e308, 1e308) + (0.0,) * (order - 2),  # (1e308, inf)
        (0.0, 0.0, 1e308, 1e308) + (0.0,) * (order - 4),  # (-inf, -1e308)
    ]
    if order > 4:
        vectors.append((0.0,) * 4 + (math.inf,) + (0.0,) * (order - 5))  # (-inf, inf)
    seen = set()
    for coeffs in vectors:
        x = ia.IntervalNumber(TRUE, ia.AlgebraElement(order, coeffs))
        lo, hi = reference_collapse(x)
        if lo != lo or hi != hi:
            seen.add("nan")
            with pytest.raises(DomainError) as want:
                collapse(x.element)
            for read in (*_READS.values(), abs, ia.exp, ia.log, ia.sqrt):
                with pytest.raises(DomainError) as got:
                    read(x)
                assert str(got.value) == str(want.value)
            continue
        seen.update(
            name
            for name, hit in (
                ("improper", lo > hi),
                ("signed zero", any(c == 0.0 and math.copysign(1.0, c) < 0 for c in coeffs)),
                ("subnormal", any(0.0 < abs(c) < 2.2250738585072014e-308 for c in coeffs)),
                ("infinite", math.isinf(lo) or math.isinf(hi)),
                ("nan midpoint", math.isinf(lo) and lo == -hi),
            )
            if hit
        )
        want = reference_reads(x)
        for name, read in _READS.items():
            assert bits((read(x),)) == bits((want[name],)), (name, coeffs)
        assert bits((abs(x),)) == bits((want["norm"],))
    assert {"nan", "improper", "signed zero", "subnormal", "infinite"} <= seen
    assert ("nan midpoint" in seen) == (order > 4)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("lift", (ia.exp, ia.log, ia.sqrt), ids=("exp", "log", "sqrt"))
def test_lifts_run_the_collapse_kernel_once(monkeypatch, order, lift):
    # A lift reads its argument's endpoints once: log and sqrt check their
    # domain on the pair they lift.
    algebra = sys.modules["intalg.algebra"]
    x = interval(1.5, 2.5, order=order)
    algebra._COLLAPSE[x.order](x.coeffs)  # compile the order's kernels first
    kernel = algebra._COLLAPSE[x.order]
    calls = []

    def counted(a):
        calls.append(a)
        return kernel(a)

    monkeypatch.setitem(algebra._COLLAPSE, x.order, counted)
    lift(x)
    assert calls == [x.coeffs]


def test_float_reads_and_lifts_build_no_pair(monkeypatch):
    # Only raw, canonical and what is printed build a GeneralizedInterval,
    # through the module-level collapse: the float reads, the lifts, semantic
    # negation and the comparisons read the collapse kernel's endpoints.
    module = sys.modules["intalg.interval"]

    class PairBuilt(Exception):
        pass

    def no_pair(element):
        raise PairBuilt

    numbers = [
        interval(lo, hi, order=order, mode=mode)
        for order in ORDERS
        for mode in (TRUE, SEM)
        for lo, hi in ((0.5, 6.0), (6.0, 0.5), (2.0, 2.0))
    ]
    compared = (
        neg, lambda x: x - x, hash, lambda x: x == x, lambda x: x == 2.0,
        lambda x: x.contains(x), lambda x: x.contains(2.0), lambda x: x < x,
        lambda x: x >= 2.0, lambda x: compare(x, x),
    )
    monkeypatch.setattr(module, "collapse", no_pair)
    for x in numbers:
        for read in (*_READS.values(), abs, ia.exp, ia.log, ia.sqrt, *compared):
            read(x)
        for read in (lambda x: x.raw, lambda x: x.canonical, str):
            with pytest.raises(PairBuilt):
                read(x)


def _read_outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except DomainError as err:
        return ("error", str(err))


@pytest.mark.parametrize("order", ORDERS)
def test_comparisons_and_negation_read_the_canonical_pair_bit_for_bit(order):
    # ==, hash, contains, compare and semantic negation order the kernel's
    # endpoints themselves; they must agree with the same operations spelled
    # on the canonical GeneralizedInterval, and raise its DomainError text.
    rng = random.Random(2300 + order)

    def pair_compare(a, b):
        nested = (a.lo <= b.lo and b.hi <= a.hi) or (b.lo <= a.lo and a.hi <= b.hi)
        keys = ((a.width, b.width), (a.midpoint, b.midpoint))
        for ka, kb in keys if nested else keys[::-1]:
            if ka < kb:
                return -1
            if ka > kb:
                return 1
        return 0  # also where a key is NaN, as for the pair [-inf, inf]

    def pair_hash(a):
        return hash(a.lo) if a.lo == a.hi else hash((a.lo, a.hi))

    def pair_negated(a):
        return bits(embed(-a.hi, -a.lo, order).coeffs)

    vectors = [tuple(draw_coeff(rng) for _ in range(order)) for _ in range(1500)]
    numbers = [ia.IntervalNumber(SEM, ia.AlgebraElement(order, c)) for c in vectors]
    numbers += [interval(lo, hi, order=order, mode=SEM) for lo, hi in ((1, 3), (3, 1), (2, 2))]
    for x in numbers:
        y = rng.choice(numbers)
        for z in (x, y):
            assert _read_outcome(lambda: x == z) == _read_outcome(lambda: x.canonical == z.canonical)
            assert _read_outcome(x.contains, z) == _read_outcome(
                lambda: x.canonical.lo <= z.canonical.lo and z.canonical.hi <= x.canonical.hi
            )
            assert _read_outcome(compare, x, z) == _read_outcome(
                lambda: pair_compare(x.canonical, z.canonical)
            )
        assert _read_outcome(hash, x) == _read_outcome(lambda: pair_hash(x.canonical))
        assert _read_outcome(lambda: bits((-x).coeffs)) == _read_outcome(
            lambda: pair_negated(x.canonical)
        )


@pytest.mark.parametrize("order", ORDERS)
def test_log_and_sqrt_domains_at_their_edges(order):
    # log needs a canonical lo > 0 and sqrt one >= 0, on proper and improper
    # pairs alike; outside, the message shows the canonical pair.
    edges = (0.0, 5e-324, -5e-324, 1.0, -1.0)
    for a in edges:
        for b in (2.0, -2.0, *edges):
            x = interval(a, b, order=order)
            low = reference_reads(x)["min"]
            for lift, name, ok, domain in (
                (ia.log, "log", low > 0.0, "a strictly positive"),
                (ia.sqrt, "sqrt", low >= 0.0, "a nonnegative"),
            ):
                if ok:
                    lift(x)
                    continue
                with pytest.raises(DomainError) as exc:
                    lift(x)
                assert str(exc.value) == f"{name} requires {domain} interval, got {x}"


def test_embed_proper_is_nonnegative():
    rng = random.Random(1)
    for order in ORDERS:
        for _ in range(2000):
            lo = rng.uniform(-50, 50)
            hi = lo + rng.uniform(0, 50)
            assert all(c >= 0.0 for c in embed(lo, hi, order).coeffs)
        # an improper pair is the negation of its mirror's embedding
        for lo, hi in _tie_pairs(random.Random(order + 60), 2000):
            assert all(c >= 0.0 for c in embed(lo, hi, order).coeffs), (lo, hi)
            assert all(c <= 0.0 for c in embed(hi, lo, order).coeffs), (hi, lo)


def test_collapse_examples():
    assert collapse(ia.AlgebraElement(4, (1, 1, 2, 0))) == gi(-1, 2)
    raw = collapse(ia.AlgebraElement(4, (0, -16, -8, 0)))
    assert raw == gi(8, -16)
    assert raw.canonical == gi(-16, 8)
    assert collapse(ia.AlgebraElement.zero(7)) == gi(0, 0)


@pytest.mark.parametrize("order", ORDERS)
def test_nan_collapse_is_a_domain_error(order):
    # Coefficients that overflow to inf meet as inf * 0 or inf - inf.
    x = interval(1e200, 1e201, order=order)
    with pytest.raises(DomainError, match=r"\(inf, inf, 0\.0.*NaN"):
        (x * x).raw
    y = interval(-1e200, 1e201, order=order)
    z = interval(1e300, 1e301, order=order)
    with pytest.raises(DomainError, match="NaN"):
        str(y * y - z * z)
    # An infinite endpoint without a NaN still collapses.
    assert (interval(1e300, order=order) * 1e300) == math.inf


@pytest.mark.parametrize("order", ORDERS)
def test_collapse_matches_generator_loop_bit_for_bit(order):
    # Signed zeros, subnormals, huge and infinite coefficients included; a
    # NaN endpoint in the loop form is a DomainError in the library.
    rng = random.Random(order + 95)
    nan_seen = 0
    for _ in range(10_000):
        u = ia.AlgebraElement(order, tuple(draw_coeff(rng) for _ in range(order)))
        lo, hi = reference_collapse(u)
        if lo != lo or hi != hi:
            nan_seen += 1
            with pytest.raises(DomainError, match="NaN"):
                collapse(u)
        else:
            g = collapse(u)
            assert bits((g.lo, g.hi)) == bits((lo, hi)), u
    assert nan_seen > 500


@pytest.mark.parametrize("order", ORDERS)
def test_infinite_coefficient_collapse_is_a_domain_error(order):
    # inf * 0.0 is NaN, so an infinite coefficient on a generator with a
    # zero endpoint has no collapse, whatever the other coefficients are.
    gens = ia.generator_endpoints(order)
    for i, (glo, ghi) in enumerate(gens):
        for inf in (math.inf, -math.inf):
            coeffs = [0.0] * order
            coeffs[i] = inf
            u = ia.AlgebraElement(order, coeffs)
            if glo == 0.0 or ghi == 0.0:
                with pytest.raises(DomainError, match="NaN"):
                    collapse(u)
            else:
                g = collapse(u)
                assert math.isinf(g.lo) and math.isinf(g.hi)
    # Opposite infinities meet as inf - inf.
    coeffs = [0.0] * order
    coeffs[0] = coeffs[3] = math.inf
    with pytest.raises(DomainError, match="NaN"):
        collapse(ia.AlgebraElement(order, coeffs))


@pytest.mark.parametrize("order", ORDERS)
def test_roundtrip_exact_uniform_floats(order):
    rng = random.Random(order * 33)
    for _ in range(10_000):
        lo = rng.uniform(-100, 100)
        hi = lo + rng.uniform(0, 120)
        r = collapse(embed(lo, hi, order))
        assert (r.lo, r.hi) == (lo, hi)


@pytest.mark.parametrize("order", ORDERS)
def test_roundtrip_exact_integers_and_improper(order):
    rng = random.Random(order * 44)
    for _ in range(5000):
        lo = float(rng.randint(-500, 500))
        hi = float(rng.randint(-500, 500))
        r = collapse(embed(lo, hi, order))
        assert (r.lo, r.hi) == (lo, hi)


@pytest.mark.parametrize("order", ORDERS)
def test_roundtrip_within_one_ulp_across_magnitudes(order):
    # Far from the pairs above, the probe does not always find an exact
    # preimage: a few of these pairs in a thousand come back one ulp off an
    # endpoint (never more, measured on 10^5 such pairs per order).
    rng = random.Random(order * 55)

    def draw(exponent):
        return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0**exponent

    for _ in range(20_000):
        k = rng.randint(-300, 299)
        lo = draw(k)
        hi = draw(k if rng.random() < 0.5 else rng.randint(-300, 299))
        r = collapse(embed(lo, hi, order))
        assert abs(r.lo - lo) <= math.ulp(lo), (lo, hi)
        assert abs(r.hi - hi) <= math.ulp(hi), (lo, hi)


# -- negation -----------------------------------------------------------------

def test_semantic_neg_example():
    x = interval(3, 12, mode=SEM)
    n = -x
    assert n.element.coeffs == (0.0, 0.0, 9.0, 3.0)
    assert n.raw.canonical == gi(-12, -3)


def test_semantic_neg_mirrors_embedding():
    rng = random.Random(2)
    for order in ORDERS:
        for _ in range(10_000 if order == 4 else 2000):
            lo = rng.uniform(-40, 40)
            hi = lo + rng.uniform(0, 40)
            x = ia.IntervalNumber(SEM, embed(lo, hi, order))
            assert (-x).element.coeffs == embed(-hi, -lo, order).coeffs


def test_true_neg_is_coefficientwise():
    x = ia.IntervalNumber(TRUE, ia.AlgebraElement(4, (0, 2, 1, 0)))
    n = -x
    assert n.element.coeffs == (0.0, -2.0, -1.0, 0.0)
    assert n.raw == gi(1, -2)
    assert n.raw.canonical == gi(-2, 1)


@pytest.mark.parametrize("mode", (TRUE, SEM))
def test_neg_is_involution(mode):
    rng = random.Random(3)
    for _ in range(1000):
        x = interval(rng.uniform(-9, 9), eps=rng.uniform(0, 5), mode=mode)
        assert -(-x) == x


# -- add / sub / scalars ------------------------------------------------------

def test_true_subtraction_cancels_exactly():
    rng = random.Random(4)
    for order in ORDERS:
        for _ in range(300):
            x = interval(rng.uniform(-5, 5), eps=rng.uniform(0, 3), order=order)
            d = x - x
            assert d.element.coeffs == (0.0,) * order
            assert d.raw == gi(0, 0)


def test_session_sub_examples():
    a_true = interval(-1, 2)
    assert (a_true - a_true).raw == gi(0, 0)
    a_sem = interval(-1, 2, mode=SEM)
    assert (a_sem - a_sem).canonical == gi(-3, 3)
    d = interval(2, 3) - interval(0, 1)
    assert d.element.coeffs == (2.0, 0.0, 0.0, 0.0)
    assert d.raw == gi(2, 2)


@pytest.mark.parametrize("mode", (TRUE, SEM))
def test_scalar_add_example(mode):
    c = interval(3, 12, mode=mode)
    assert (c + 1).canonical == gi(4, 13)
    assert (1 + c).canonical == gi(4, 13)


def test_scalar_mul_rules():
    x = interval(-1, 2)
    assert scalar_mul(2.0, x).element.coeffs == (0.0, 4.0, 2.0, 0.0)
    assert scalar_mul(-2.0, x).element.coeffs == (0.0, -4.0, -2.0, 0.0)
    xs = interval(-1, 2, mode=SEM)
    assert scalar_mul(-2.0, xs).canonical == gi(-4, 2)
    # operator multiplication by a scalar agrees on the canonical value
    assert (x * -2.0).canonical == scalar_mul(-2.0, x).canonical


# -- multiplication -----------------------------------------------------------

def test_mul_ladder():
    expected = {4: (-16.0, 14.0), 5: (-12.0, 10.0), 7: (-12.0, 8.0)}
    for order, (lo, hi) in expected.items():
        p = interval(-2, 3, order=order) * interval(-4, 2, order=order)
        assert p.canonical == gi(lo, hi)
    assert mink_mul(gi(-2, 3), gi(-4, 2)) == gi(-12, 8)


def test_mul_by_unit_interval_is_identity():
    rng = random.Random(5)
    for order in ORDERS:
        one = interval(1, 1, order=order)
        for _ in range(200):
            x = interval(rng.uniform(-9, 9), eps=rng.uniform(0, 4), order=order)
            assert (x * one).element.coeffs == x.element.coeffs


def test_mul_example_neg_times_pos():
    assert (interval(-1, 2) * interval(3, 4)).canonical == gi(-4, 8)


def test_mode_and_order_mismatch():
    with pytest.raises(ModeMismatchError):
        interval(1, 2) + interval(1, 2, mode=SEM)
    with pytest.raises(OrderMismatchError):
        interval(1, 2) * interval(1, 2, order=5)


# -- division -----------------------------------------------------------------

def test_division_session_values():
    a, b, c = interval(-1, 2), interval(3, 4), interval(3, 12)
    assert (b / b).canonical == gi(1, 1)
    q = (a + b) / c
    assert abs(q.raw.lo - 11 / 12) < 1e-12
    assert abs(q.raw.hi - 0.5) < 1e-12
    assert not q.raw.is_proper
    with pytest.raises(DivisionNotAllowedError) as exc:
        b / a
    assert exc.value.divisor.canonical == gi(-1, 2)


def test_division_by_unit_is_identity():
    x = interval(-7, 3)
    assert (x / interval(1, 1)).element.coeffs == x.element.coeffs


def test_division_rejected_outside_order_4():
    with pytest.raises(UnsupportedOrderError, match=r"\(got order 7\)"):
        interval(1, 2, order=7) / interval(1, 2, order=7)
    for x, y in ((interval(1, 2, order=5), 2.0), (2.0, interval(1, 2, order=5))):
        with pytest.raises(UnsupportedOrderError, match=r"\(got order 5\)"):
            x / y


def test_division_distributes():
    rng = random.Random(6)
    for _ in range(500):
        x = interval(rng.uniform(-5, 5), eps=rng.uniform(0, 3))
        y = interval(rng.uniform(-5, 5), eps=rng.uniform(0, 3))
        c = interval(rng.choice([-1, 1]) * rng.uniform(1, 6), eps=rng.uniform(0, 0.4))
        lhs = (x + y) / c
        rhs = x / c + y / c
        scale = max(1.0, inf_norm(lhs.element.coeffs))
        assert vectors_close_ulps(lhs.element.coeffs, rhs.element.coeffs, 8, scale=scale)
        lhs = (x - y) / c
        rhs = x / c - y / c
        assert vectors_close_ulps(lhs.element.coeffs, rhs.element.coeffs, 8, scale=scale)


# -- scalar_mul -----------------------------------------------------------------

@pytest.mark.parametrize("factor", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("mode", (TRUE, SEM))
def test_scalar_mul_rejects_non_finite_factors(factor, mode):
    # raised at the call, as x * factor does, not when the result is read
    for order in ORDERS:
        with pytest.raises(DomainError, match="finite"):
            scalar_mul(factor, interval(-1, 2, order=order, mode=mode))


@pytest.mark.parametrize("mode", (TRUE, SEM))
def test_scalar_mul_finite_factors_scale_coefficients(mode):
    # true mode scales the coefficients; semantic mode negates the interval
    # first for a negative factor
    for order in ORDERS:
        for lo, hi in ((-1, 2), (3, 3.5)):
            x = interval(lo, hi, order=order, mode=mode)
            for a in (0.0, -0.0, 5e-324, 2.5, -3.0, 1e308, 7):
                if a >= 0.0 or mode is TRUE:
                    want = x.element.scale(float(a))
                else:
                    want = (-x).element.scale(-float(a))
                got = scalar_mul(a, x)
                assert got.mode is mode and bits(got.element.coeffs) == bits(want.coeffs)


# -- width / midpoint / norm --------------------------------------------------

def test_norm_width_midpoint_session():
    c = interval(3, 12)
    assert (abs(c), c.width, c.midpoint) == (16.5, 9.0, 7.5)
    z = interval(0)
    assert (abs(z), z.width, z.midpoint) == (0.0, 0.0, 0.0)


def test_improper_stats():
    x = ia.IntervalNumber(TRUE, ia.AlgebraElement(4, (0, -16, -8, 0)))
    assert x.raw == gi(8, -16)
    assert (x.width, x.midpoint, x.norm) == (24.0, -4.0, 28.0)
    # the endpoint pair reads the same and prints canonical
    assert (x.raw.width, x.raw.midpoint, x.raw.norm) == (24.0, -4.0, 28.0)
    assert str(x.raw) == str(x) == "[-16.0,8.0]"


def test_norm_axioms():
    rng = random.Random(7)
    for _ in range(2000):
        x = interval(rng.uniform(-8, 8), eps=rng.uniform(0, 5))
        y = interval(rng.uniform(-8, 8), eps=rng.uniform(0, 5))
        a = rng.uniform(-3, 3)
        assert (x.norm == 0) == (x.raw == gi(0, 0))
        assert math.isclose(scalar_mul(a, x).norm, abs(a) * x.norm, rel_tol=1e-12)
        assert (x + y).norm <= x.norm + y.norm + 1e-12


# -- ordering and containment -------------------------------------------------

def test_compare_session_examples():
    a, b = interval(-1, 2), interval(3, 4)
    c, d = interval(3, 12), interval(2, eps=1)
    assert a < b
    assert d < c
    assert compare(a, a) == 0
    assert a <= b and a <= a and not b <= a
    assert b >= a and a >= a and not a >= b


def test_compare_nested_uses_width():
    inner, outer = interval(4, 5), interval(1, 10)
    assert inner < outer
    assert outer > inner


def test_compare_tie_breaking():
    # same midpoint, nested: width decides
    assert interval(-1, 1) < interval(-2, 2)
    # same width, not nested: midpoint decides
    assert interval(0, 2) < interval(1, 3)


def test_contains():
    assert interval(-16, 14).contains(interval(-12, 8))
    assert interval(1, 2).contains(interval(1, 2))
    assert not interval(0, 1).contains(interval(0, 2))
    assert interval(0, 2).contains(1.5)
    for op in (
        lambda x: x.contains("1"),
        lambda x: x < "1",
        lambda x: x <= "1",
        lambda x: x > "1",
        lambda x: x >= "1",
        lambda x: compare(x, 1),
        lambda x: compare(1.5, x),
        lambda x: compare(x.raw, x),
    ):
        with pytest.raises(TypeError, match="cannot compare"):
            op(interval(0, 2))


@pytest.mark.parametrize("mode", (TRUE, SEM))
def test_arithmetic_with_a_non_number_is_a_type_error(mode):
    x = interval(1, 2, mode=mode)
    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
        for other in ("a", None, [1], object()):
            assert getattr(x, f"__{name}__")(other) is NotImplemented
    for op in (
        lambda x: x + "a",
        lambda x: "a" * x,
        lambda x: x / [1],
        lambda x: x - None,
        lambda x: None - x,
        lambda x: [1] / x,
    ):
        with pytest.raises(TypeError):
            op(x)


def test_comparison_ignores_mode_and_order():
    # ordering and containment act on canonical pairs only
    assert interval(1, 2) == interval(1, 2, mode=SEM)
    assert interval(1, 2, order=5) < interval(3, 4, mode=SEM, order=7)
    assert interval(0, 9, order=7).contains(interval(1, 2, mode=SEM))


def test_equality_is_canonical_not_elementwise():
    x = interval(1, 2)
    y = x + interval(0, 0)
    z = ia.IntervalNumber(TRUE, embed(2, 1, 4))  # improper orientation
    assert x == y and x.coeffs == y.coeffs
    assert x == z and x.coeffs != z.coeffs
    assert hash(x) == hash(z)
    # a string is not a number: no conversion, so unequal
    assert (interval(1) == "1") is False and interval(1) != "1"


def test_equal_values_hash_equal():
    assert interval(2.0) == 2.0 and hash(interval(2.0)) == hash(2.0)
    assert interval(-3) == -3 and hash(interval(-3)) == hash(-3)
    assert interval(2.5, order=5) == interval(2.5, mode=SEM, order=7)
    assert hash(interval(2.5, order=5)) == hash(interval(2.5, mode=SEM, order=7))
    x, y = interval(-1, 2, order=4), interval(-1, 2, order=7)
    assert x == y and hash(x) == hash(y)
    assert len({interval(2.0), 2.0, interval(2.0, order=5)}) == 1


# -- Minkowski oracle ---------------------------------------------------------

def test_mink_examples():
    assert mink_mul(gi(3, 4), gi(3, 12)) == gi(9, 48)
    assert mink_mul(gi(0, 0), gi(-5, 7)) == gi(0, 0)
    assert mink_add(gi(1, 2), gi(10, 20)) == gi(11, 22)
    assert mink_sub(gi(2, 3), gi(0, 1)) == gi(1, 3)
    assert mink_div(gi(1, 2), gi(4, 8)) == gi(0.125, 0.5)
    with pytest.raises(ZeroDivisionError):
        mink_div(gi(1, 2), gi(-1, 1))
    for op in (mink_add, mink_sub, mink_mul, mink_div):
        for x, y in ((gi(2, 1), gi(3, 4)), (gi(3, 4), gi(2, 1))):
            with pytest.raises(ValueError, match=f"{op.__name__} requires proper"):
                op(x, y)


@pytest.mark.parametrize("op", (mink_add, mink_sub, mink_mul, mink_div))
def test_mink_refuses_operands_that_are_not_finite_pairs(op):
    # mink_mul([inf, inf], [0, 0]) once returned [nan, nan]
    for bad in (gi(math.inf, math.inf), gi(-math.inf, 1), gi(1, math.nan), gi(10**400, 10**400)):
        for x, y in ((bad, gi(1, 2)), (gi(1, 2), bad)):
            with pytest.raises(DomainError, match=f"{op.__name__} requires finite") as err:
                op(x, y)
            assert repr(bad) in str(err.value)
    for bad in (2.0, (1, 2), interval(1, 2)):
        with pytest.raises(TypeError, match=f"{op.__name__} takes GeneralizedIntervals"):
            op(bad, gi(1, 2))


@pytest.mark.parametrize("op", (mink_add, mink_sub, mink_mul, mink_div))
def test_mink_of_finite_operands_overflows_but_is_never_nan(op):
    big = sys.float_info.max
    ends = (-big, -1e300, -1.0, -5e-324, 0.0, 5e-324, 1.0, 1e300, big)
    pairs = [gi(a, b) for a in ends for b in ends if a <= b]
    overflowed = 0
    for x in pairs:
        for y in pairs:
            if op is mink_div and y.lo <= 0.0 <= y.hi:
                continue
            got = op(x, y)
            assert not (math.isnan(got.lo) or math.isnan(got.hi)), (x, y, got)
            overflowed += math.isinf(got.lo) or math.isinf(got.hi)
    assert overflowed


def test_mink_mul_against_dense_sampling():
    # Bilinear products attain extrema at corners, so the hull of a sampled
    # grid pins the set product up to corner rounding.
    rng = random.Random(8)
    for _ in range(200):
        x = sorted(rng.uniform(-9, 9) for _ in range(2))
        y = sorted(rng.uniform(-9, 9) for _ in range(2))
        result = mink_mul(gi(*x), gi(*y))
        samples = [
            (x[0] + (x[1] - x[0]) * i / 16) * (y[0] + (y[1] - y[0]) * j / 16)
            for i in range(17)
            for j in range(17)
        ]
        assert close_ulps(result.lo, min(samples), 16)
        assert close_ulps(result.hi, max(samples), 16)


# -- lifted functions and powers ----------------------------------------------

def test_exp_examples():
    assert ia.exp(interval(0, 0)).canonical == gi(1, 1)
    e = ia.exp(interval(1.9, 2.1))
    assert e.canonical == gi(math.exp(1.9), math.exp(2.1))


@pytest.mark.parametrize("order", (4, 5, 7))
def test_exp_overflow_is_a_domain_error(order):
    with pytest.raises(DomainError, match=r"exp overflows .*\(800\.0, 900\.0\)"):
        ia.exp(interval(800, 900, order=order))
    # one overflowing endpoint is enough
    with pytest.raises(DomainError, match="exp"):
        ia.exp(interval(0, 710, order=order))


def test_lift_preserves_improper_orientation():
    x = ia.IntervalNumber(TRUE, -embed(1, 4, 4))  # raw (-1, -4) improper
    assert x.raw == gi(-1, -4)
    y = -x  # raw (1, 4)? no: true neg twice returns original; build directly
    imp = ia.IntervalNumber(TRUE, embed(4.0, 1.0, 4))
    assert imp.raw == gi(4, 1)
    s = ia.sqrt(imp)
    assert s.raw == gi(2, 1)
    assert not s.raw.is_proper


def test_log_sqrt_domains():
    with pytest.raises(DomainError):
        ia.log(interval(0, 1))
    with pytest.raises(DomainError):
        ia.sqrt(interval(-1, 1))
    assert ia.log(interval(1, math.e)).canonical == gi(0, 1)
    assert ia.sqrt(interval(4, 9)).canonical == gi(2, 3)


def test_pow_examples():
    x = interval(-1, 2)
    sq = pow_int(x, 2)
    assert sq.element.coeffs == (0.0, 5.0, 4.0, 0.0)
    assert sq.canonical == gi(-4, 5)
    assert pow_int(x, 0).canonical == gi(1, 1)
    assert (x**2).canonical == sq.canonical
    with pytest.raises(ValueError):
        pow_int(x, -1)
    with pytest.raises(ValueError):
        pow_int(x, 1.5)


# -- algebraic laws on intervals ----------------------------------------------

def _int_interval(rng, order, mode):
    lo = rng.randint(-60, 60)
    hi = lo + rng.randint(0, 60)
    return interval(lo, hi, order=order, mode=mode)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("mode", (TRUE, SEM))
def test_distributivity_coefficient_identity(order, mode):
    rng = random.Random(9)
    for _ in range(2000):
        x, y, z = (_int_interval(rng, order, mode) for _ in range(3))
        assert (x * (y + z)).element.coeffs == (x * y + x * z).element.coeffs
        if mode is TRUE:
            assert (x * (y - z)).element.coeffs == (x * y - x * z).element.coeffs


def test_minkowski_agreement_for_non_nested_pieces():
    # At order 4 the product equals the set product unless both factors
    # straddle zero.
    rng = random.Random(10)
    for _ in range(2000):
        lo1 = rng.uniform(0.01, 9)
        x = gi(lo1, lo1 + rng.uniform(0, 9))
        if rng.random() < 0.5:
            x = gi(-x.hi, -x.lo)
        y = gi(rng.uniform(-9, 9), 0)
        y = gi(y.lo, y.lo + rng.uniform(0, 9))
        got = collapse(
            ia.alg_mul(embed(x.lo, x.hi, 4), embed(y.lo, y.hi, 4))
        ).canonical
        want = mink_mul(x, y)
        assert close_ulps(got.lo, want.lo, 4) and close_ulps(got.hi, want.hi, 4)


def test_zero_cone_closed_form_order4():
    rng = random.Random(11)
    for _ in range(2000):
        a, b = -rng.uniform(0, 9), rng.uniform(0, 9)
        c, d = -rng.uniform(0, 9), rng.uniform(0, 9)
        got = collapse(ia.alg_mul(embed(a, b, 4), embed(c, d, 4)))
        assert got.lo == b * c + a * d
        assert got.hi == b * d + a * c


def test_enclosure_and_tightness():
    rng = random.Random(12)
    for _ in range(2000):
        x = gi(-rng.uniform(0, 9), rng.uniform(0, 9))
        y = gi(-rng.uniform(0, 9), rng.uniform(0, 9))
        mink = mink_mul(x, y)
        widths = {}
        prev = mink
        for order in (7, 5, 4):
            got = collapse(
                ia.alg_mul(embed(x.lo, x.hi, order), embed(y.lo, y.hi, order))
            ).canonical
            assert leq_ulps(got.lo, prev.lo, 4) and leq_ulps(prev.hi, got.hi, 4)
            widths[order] = got.width
            prev = got
        assert widths[7] <= widths[5] <= widths[4]


def test_product_of_proper_is_proper():
    rng = random.Random(13)
    for order in ORDERS:
        for _ in range(500):
            x = interval(rng.uniform(-9, 9), eps=rng.uniform(0, 5), order=order)
            y = interval(rng.uniform(-9, 9), eps=rng.uniform(0, 5), order=order)
            assert (x * y).raw.is_proper


def test_monotony_of_products():
    rng = random.Random(14)
    for order in ORDERS:
        for _ in range(1000):
            lo2 = rng.uniform(-9, 9)
            hi2 = lo2 + rng.uniform(0.1, 9)
            w = hi2 - lo2
            lo1 = lo2 + rng.uniform(0.01, 0.45) * w
            hi1 = hi2 - rng.uniform(0.01, 0.45) * w
            z = interval(rng.uniform(-9, 9), eps=rng.uniform(0, 5), order=order)
            x1 = interval(lo1, hi1, order=order)
            x2 = interval(lo2, hi2, order=order)
            assert (x2 * z).contains(x1 * z)


def test_no_dependency_polynomials():
    for mode, point, expected in (
        (TRUE, (-1, 2), gi(-1, 2)),
        (TRUE, (3, 4), gi(4, 9)),
        (SEM, (-1, 2), gi(-7, 8)),
        (SEM, (3, 4), gi(2, 11)),
    ):
        x = interval(*point, mode=mode)
        f1 = x**2 - 2 * x + 1
        f2 = x * (x - 2) + 1
        f3 = (x - 1) ** 2
        assert f1.element.coeffs == f2.element.coeffs == f3.element.coeffs
        assert f1.canonical == expected


# -- literals and formatting ----------------------------------------------------

def test_parse_interval_literal():
    assert parse_interval_literal("[3,4]") == (3.0, 4.0)
    assert parse_interval_literal("[-1.5e1, 2]") == (-15.0, 2.0)
    assert parse_interval_literal("2±0.1") == (1.9, 2.1)
    assert parse_interval_literal("2+-0.1") == (1.9, 2.1)
    assert parse_interval_literal("-1±0") == (-1.0, -1.0)
    assert parse_interval_literal("5") == (5.0, 5.0)
    for bad in ("[1;2]", "1±-2", "[1,2", "x", ""):
        with pytest.raises(ValueError):
            parse_interval_literal(bad)
    for non_finite in ("[0,1e400]", "[-1e400,0]", "1e400", "1e308±1e308", "0±1e400"):
        with pytest.raises(ValueError, match="finite"):
            parse_interval_literal(non_finite)


@pytest.mark.parametrize(
    "text, pair",
    (
        ("--5", (5.0, 5.0)),
        ("- 5", (-5.0, -5.0)),
        ("[--1, - 2]", (1.0, -2.0)),
        ("2 +- 0.1", (1.9, 2.1)),
        ("-2+- 1", (-3.0, -1.0)),
    ),
)
def test_literal_signs_and_spacing(text, pair):
    assert parse_interval_literal(text) == pair


@pytest.mark.parametrize(
    "text, message",
    (
        ("[1;2]", "unexpected character ';' (at position 3)"),
        ("2 + - 0.1", "unexpected '+' (at position 3)"),  # '+-' only when touching
        ("2±+1", "expected a radius after '±' (at position 3)"),
        ("1+--0e5", "expected a radius after '±' (at position 4)"),
        ("-[1,2]", "expected a number (at position 2)"),
        ("[1,2] 3", "unexpected '3' (at position 7)"),
        ("1e308±1e308", "literal is not finite (at position 1)"),
    ),
)
def test_literal_errors_carry_the_position(text, message):
    with pytest.raises(ValueError) as exc:
        parse_interval_literal(text)
    assert str(exc.value) == f"invalid interval literal {text!r}: {message}"


_SIGN_RUN = re.compile(r"(^|[\[,])(\s*)([+-][+\-\s]*)")


def _fold_signs(text):
    """text with each run of signs and whitespace before a number, at the
    start or after '[' or ',', written as the one sign it amounts to."""
    return _SIGN_RUN.sub(lambda m: m[1] + m[2] + "+-"[m[3].count("-") % 2], text)


def _literal_outcome(parse_fn, text):
    try:
        return tuple(map(float.hex, parse_fn(text)))  # tells -0.0 from 0.0
    except ValueError as err:
        return ("ValueError", str(err))


def test_literals_match_the_regex_reference():
    rng = random.Random(2011)
    differences = {"signs": 0, "signed radius": 0}
    for _ in range(40_000):
        text = literal_soup(rng)
        want = _literal_outcome(reference_parse_interval_literal, text)
        got = _literal_outcome(parse_interval_literal, text)
        if got[0] == "ValueError":
            # every refusal names where the reader stopped
            position = int(re.search(r"\(at position (\d+)\)$", got[1])[1])
            assert 1 <= position <= len(text) + 1, text
        if want[0] == got[0] == "ValueError" or got == want:
            continue
        if want[0] == "ValueError":
            # an intended difference: a run of signs and whitespace before a
            # number reads as the one sign it amounts to (--5 is 5, - 5 is
            # -5), where the reference takes one sign with no space after it
            assert _fold_signs(text) != text, text
            assert _literal_outcome(reference_parse_interval_literal, _fold_signs(text)) == got, text
            differences["signs"] += 1
        else:
            # the other one: the radius is unsigned, as in an expression, so
            # 2±+1 and 1+--0e5 are refused where the reference read a sign
            assert re.search(r"(±|\+-)\s*[+-]", text) and "a radius" in got[1], text
            differences["signed radius"] += 1
    assert differences["signs"] > 1000 and differences["signed radius"] > 100, differences


def test_format_number_session_style():
    assert ia.format_number(4.0) == "4.0"
    assert ia.format_number(-16.0) == "-16.0"
    assert ia.format_number(16.5) == "16.5"
    assert ia.format_number(11 / 12) == "0.916666666667"
    assert ia.format_number(-13 / 12) == "-1.08333333333"
    assert ia.format_number(-2.775557561562891e-17) == "-2.77555756156e-17"


def test_format_interval():
    q = (interval(-1, 2) + interval(3, 4)) / interval(3, 12)
    assert str(q) == "[0.5,0.916666666667]"
    assert ia.format_interval(q.raw, raw=True) == "(0.916666666667,0.5)"


def test_mode_is_an_arithmetic_mode_member_or_its_value():
    # mode="true" once built a number whose x - x was [-1, 1]
    for value, member in (("true", TRUE), ("semantic", SEM)):
        for x in (
            interval(1, 2, mode=value),
            interval(1.5, mode=value),
            interval(1.5, eps=0.5, mode=value),
            ia.IntervalNumber(value, embed(1, 2)),
        ):
            assert x.mode is member
            d = x - x
            assert d.canonical.midpoint == 0.0
            assert d.width == (0.0 if member is TRUE else 2 * x.width)
    for bad in ("TRUE", "", None, 1, ia.FdStyle.FULL):
        with pytest.raises(ValueError):
            interval(1, 2, mode=bad)
        with pytest.raises(ValueError):
            interval(1, mode=bad)
        with pytest.raises(ValueError):
            ia.IntervalNumber(bad, embed(1, 2))


def test_interval_factory():
    assert interval(2, eps=1).canonical == gi(1, 3)
    assert interval(5).canonical == gi(5, 5)
    assert interval(2, 1).raw == gi(2, 1)
    with pytest.raises(ValueError):
        interval(1, 2, eps=0.5)
    with pytest.raises(ValueError):
        interval(1, eps=-1)
    for bad in (True, "x", [1]):
        with pytest.raises(ValueError, match="eps must be a real number"):
            interval(1, eps=bad)
    for radius in (math.nan, math.inf):
        with pytest.raises(DomainError):
            interval(1, eps=radius)
