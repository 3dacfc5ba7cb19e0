import random

import pytest
from helpers import literal_soup, reference_parse
from hypothesis import given, settings
from hypothesis import strategies as st

import intalg as ia
from intalg import ArithmeticMode, EvalError, ExprSyntaxError, evaluate, interval, parse, unparse
from intalg.exprcalc import BinOp, Call, ExprNode, IntervalLit, Neg, Num, Power, Var

TRUE = ArithmeticMode.TRUE
SEM = ArithmeticMode.SEMANTIC


# -- parsing ------------------------------------------------------------------

def test_parse_polynomial_shape():
    ast = parse("x^2-2*x+1")
    assert ast == BinOp(
        "+",
        BinOp("-", Power(Var("x"), 2), BinOp("*", Num(2.0), Var("x"))),
        Num(1.0),
    )


def test_parse_call_shape():
    assert parse("x*exp(x)") == BinOp("*", Var("x"), Call("exp", Var("x")))


def test_double_star_synonym():
    assert parse("x**2-2*x+1") == parse("x^2-2*x+1")


def test_power_is_right_associative():
    assert parse("x^2^3") == Power(Var("x"), 8)
    assert parse("2^3^2") == Power(Num(2.0), 9)


def test_unary_minus_binds_below_power():
    assert parse("-x^2") == Neg(Power(Var("x"), 2))
    assert parse("(-x)^2") == Power(Neg(Var("x")), 2)


def test_interval_literals_in_expressions():
    assert parse("[1,2]+1") == BinOp("+", IntervalLit(1.0, 2.0), Num(1.0))
    assert parse("[-1.5, 2e1]") == IntervalLit(-1.5, 20.0)
    assert parse("2±0.1") == IntervalLit(1.9, 2.1)


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x*+")
    assert exc.value.position == 3
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x*(1+2")
    assert exc.value.position == 7
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x$2")
    assert exc.value.position == 2


def test_exponent_errors():
    for text in ("x^-2", "x^2.5", "x^y"):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert "exponent" in str(exc.value)


def test_unknown_function():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("foo(x)")
    assert "unknown function" in str(exc.value)
    assert exc.value.position == 1


def test_whitespace_ignored():
    assert parse(" x * ( x - 2 ) + 1 ") == parse("x*(x-2)+1")


# -- evaluation ---------------------------------------------------------------

SESSION_CASES = (
    (TRUE, (-1, 2), (-1.0, 2.0)),
    (TRUE, (3, 4), (4.0, 9.0)),
    (SEM, (-1, 2), (-7.0, 8.0)),
    (SEM, (3, 4), (2.0, 11.0)),
)


@pytest.mark.parametrize("mode,point,expected", SESSION_CASES)
def test_eval_session_polynomials(mode, point, expected):
    x = interval(*point, mode=mode)
    values = [
        evaluate(parse(t), {"x": x}, mode=mode)
        for t in ("x^2-2*x+1", "x*(x-2)+1", "(x-1)^2")
    ]
    for v in values:
        assert v.canonical == ia.GeneralizedInterval(*expected)
    assert (
        values[0].element.coeffs
        == values[1].element.coeffs
        == values[2].element.coeffs
    )


def test_eval_unbound_variable():
    with pytest.raises(EvalError):
        evaluate(parse("x+y"), {"x": interval(1)})


def test_eval_checks_binding_consistency():
    with pytest.raises(EvalError):
        evaluate(parse("x"), {"x": interval(1, mode=SEM)}, mode=TRUE)
    with pytest.raises(EvalError):
        evaluate(parse("x"), {"x": interval(1, order=5)}, order=4)
    for value in (1.0, (1.0, 2.0), None):
        with pytest.raises(EvalError, match="binding 'x' is a"):
            evaluate(parse("x+1"), {"x": value})


def test_eval_mode_is_an_arithmetic_mode_member_or_its_value():
    x = {"x": interval(1, 2, mode=SEM)}
    got = evaluate(parse("x - x"), x, mode="semantic")
    assert got.mode is SEM and got.canonical == ia.GeneralizedInterval(-1, 1)
    assert evaluate(parse("1 - 1"), mode="true").mode is TRUE
    for bad in ("SEMANTIC", None, 1):
        with pytest.raises(ValueError):
            evaluate(parse("1"), mode=bad)


def test_eval_unsupported_order():
    with pytest.raises(ia.UnsupportedOrderError):
        evaluate(parse("1"), order=6)


def test_eval_division_and_functions():
    b = interval(3, 4)
    assert evaluate(parse("b/b"), {"b": b}).canonical == ia.GeneralizedInterval(1, 1)
    got = evaluate(parse("sqrt(x)"), {"x": interval(4, 9)})
    assert got.canonical == ia.GeneralizedInterval(2, 3)
    assert evaluate(parse("exp([0,0])")).canonical == ia.GeneralizedInterval(1, 1)


def test_eval_unary_minus_uses_mode_negation():
    xs = interval(1, 2, mode=SEM)
    got = evaluate(parse("-x"), {"x": xs}, mode=SEM)
    assert got.element.coeffs == ia.embed(-2, -1, 4).coeffs
    xt = interval(1, 2)
    got = evaluate(parse("-x"), {"x": xt})
    assert got.element.coeffs == tuple(-c for c in xt.element.coeffs)


# -- polynomial identity corpus ------------------------------------------------

IDENTITIES = (
    ("x^2-2*x+1", "(x-1)^2"),
    ("x^2-2*x+1", "x*(x-2)+1"),
    ("x*(y+z)", "x*y+x*z"),
    ("x*(y-z)", "x*y-x*z"),
    ("(x+y)*(x-y)", "x^2-y^2"),
    ("(x+y)^2", "x^2+2*x*y+y^2"),
    ("(x-y)^2", "x^2-2*x*y+y^2"),
    ("(x+1)^3", "x^3+3*x^2+3*x+1"),
    ("(x-1)^3", "x^3-3*x^2+3*x-1"),
    ("x^3-y^3", "(x-y)*(x^2+x*y+y^2)"),
    ("x^3+y^3", "(x+y)*(x^2-x*y+y^2)"),
    ("(x+y)*z", "x*z+y*z"),
    ("(x+y+z)^2", "x^2+y^2+z^2+2*x*y+2*x*z+2*y*z"),
    ("x*y*z", "z*y*x"),
    ("(x*y)*z", "x*(y*z)"),
    ("2*(x+y)", "2*x+2*y"),
    ("x^4", "(x^2)^2"),
    ("(x+y)^2-(x-y)^2", "4*x*y"),
    ("x*(x*(x+1)+1)", "x^3+x^2+x"),
    ("-(x-y)", "y-x"),
)


@pytest.mark.parametrize("order", (4, 7))
def test_identity_corpus_true_mode(order):
    # Ring identities must produce bit-identical coefficient vectors in true
    # arithmetic; integer endpoints keep every operation exact.
    rng = random.Random(order)
    for left, right in IDENTITIES:
        for _ in range(20):
            def rand_iv():
                lo = rng.randint(-20, 20)
                return interval(lo, lo + rng.randint(0, 20), order=order)

            bindings = {name: rand_iv() for name in ("x", "y", "z")}
            lhs = evaluate(parse(left), bindings, order=order)
            rhs = evaluate(parse(right), bindings, order=order)
            assert lhs.element.coeffs == rhs.element.coeffs, (left, right)


def test_associativity_exception_identity():
    # x*(y*z) vs (x*y)*z is exact on integer inputs
    b = {"x": interval(-3, 5), "y": interval(2, 7), "z": interval(-4, -1)}
    assert (
        evaluate(parse("(x*y)*z"), b).element.coeffs
        == evaluate(parse("x*(y*z)"), b).element.coeffs
    )


# -- printing round trip ---------------------------------------------------------

CORPUS_TEXTS = [t for pair in IDENTITIES for t in pair] + [
    "x*exp(x)",
    "exp(x)*log(sqrt(x))",
    "-(-x)",
    "[1.5,2.5]^2-x/3",
    "2±0.5+x",
]


@pytest.mark.parametrize("text", CORPUS_TEXTS)
def test_unparse_reparse_corpus(text):
    ast = parse(text)
    assert parse(unparse(ast)) == ast


_leaves = st.one_of(
    st.builds(Num, st.floats(0, 1e6, allow_nan=False)),
    st.builds(Var, st.sampled_from(("x", "y", "z"))),
    st.builds(
        IntervalLit,
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    ),
)


def _branches(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Power, children, st.integers(0, 9)),
        st.builds(Call, st.sampled_from(("exp", "log", "sqrt")), children),
    )


@settings(max_examples=300)
@given(st.recursive(_leaves, _branches, max_leaves=25))
def test_unparse_reparse_random_asts(ast):
    assert parse(unparse(ast)) == ast


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_parsing_is_total(text):
    # any input either parses or raises a positioned syntax error
    try:
        parse(text)
    except ExprSyntaxError as err:
        assert 1 <= err.position <= len(text) + 1


# -- parity with the recursive-descent parser -------------------------------------

# Pieces of token soups: numbers (Unicode digits and an overflowing one among
# them), names, every operator spelling, whitespace and stray characters.  The
# tokenizer finds a stray character by counting what findall skipped, so the
# pieces include what \s, str.split, \d and isdecimal must agree on.
SOUP_PIECES = (
    "1", "2", "0", "10", "2.5", ".5", "3.", "1e3", "2E-2", "1e", "1e400",
    "\u0663", "\u0661.\u0662", "x", "y", "exp", "log", "sqrt", "foo", "_a1", "e",
    "+", "-", "*", "/", "^", "**", "(", ")", "[", "]", ",", "\u00b1", "+-",
    " ", "  ", "\t", "\n", "\u3000", "\xa0", "$", ".",
    # whitespace to both \s and str.split, two more Nd digits, a digit that
    # is not decimal (a stray character), and a stray one after whitespace
    "\x1c", "\u2028", "\uff11", "\U0001d7ce", "\u00b2", "x @",
)


def _outcome(parse_fn, text):
    # reprs tell -0.0 from 0.0 and make NaN (from inf-inf) equal to itself
    try:
        return ("ast", repr(parse_fn(text)))
    except ExprSyntaxError as err:
        return ("error", str(err), err.position)
    except OverflowError:
        return ("overflow",)


def _assert_same_parse(text):
    want = _outcome(reference_parse, text)
    got = _outcome(parse, text)
    if got[0] == "error" and got[1].startswith("literal is not finite"):
        # an intended difference: a literal that is not finite is a syntax
        # error at its position, so the reference either kept it in its AST
        # or failed on a later token
        if want[0] == "ast":
            assert "inf" in want[1] or "nan" in want[1], text
        elif want[0] == "error":
            assert want[2] > got[2], text
    elif want == ("overflow",):
        # the other one: an exponent literal that overflows to inf is a
        # syntax error instead of a bare OverflowError
        assert got[0] == "error" and got[1].startswith("exponent too large"), text
    else:
        assert got == want, text


def _bench_style(rng, depth):
    """Expression text shaped like the benchmark's generated expressions."""
    if depth <= 1:
        r = rng.random()
        if r < 0.6:
            return rng.choice("xyz")
        if r < 0.85:
            return repr(rng.choice((1.0, 2.0, 3.0, 0.5, 1.5)))
        lo = round(rng.uniform(-2.0, 2.0), 3)
        return f"[{lo!r},{round(lo + rng.uniform(0.0, 2.0), 3)!r}]"
    sub = _bench_style(rng, depth - 1)
    atom = sub if sub.isidentifier() or sub.startswith("[") else f"({sub})"
    r = rng.random()
    if r < 0.55:
        right = _bench_style(rng, rng.randint(1, depth - 1))
        return f"({sub}){rng.choice('+-*/')}({right})"
    if r < 0.72:
        return f"{atom}^{rng.randint(2, 4)}"
    if r < 0.9:
        return f"{rng.choice(('exp', 'log', 'sqrt'))}({sub})"
    return f"-{atom}"


def test_parse_matches_the_recursive_descent_reference():
    rng = random.Random(2011)
    for _ in range(30_000):
        pieces = rng.choices(SOUP_PIECES, k=rng.randint(1, 12))
        _assert_same_parse("".join(pieces))
    for _ in range(3_000):
        text = _bench_style(rng, rng.randint(2, 5))
        _assert_same_parse(text)
        # and near misses: one piece inserted or one character replaced
        i = rng.randrange(len(text))
        _assert_same_parse(text[:i] + rng.choice(SOUP_PIECES) + text[i:])
        _assert_same_parse(text[:i] + rng.choice(SOUP_PIECES) + text[i + 1:])
    for text in CORPUS_TEXTS + ["x*+", "x*(1+2", "x$2", "x^-2", "x^2.5", "x^y",
                                "foo(x)", "x^2^21", "2^3^2", "-x^2", "[-1.5, 2e1]"]:
        _assert_same_parse(text)



@pytest.mark.parametrize("mode", (TRUE, SEM))
def test_literals_read_alike_as_option_values_and_in_expressions(mode):
    # '+-' is a ball only in option values; any other text that both read
    # must be the same interval, or one spelling would be silently misread
    rng = random.Random(2011)
    compared = 0
    for _ in range(10_000):
        text = literal_soup(rng)
        if "+-" in text:
            continue
        try:
            pair = ia.parse_interval_literal(text)
            tree = parse(text)
        except (ValueError, ExprSyntaxError):
            continue
        assert interval(*pair, mode=mode).canonical == evaluate(tree, mode=mode).canonical, text
        compared += 1
    assert compared > 1000, compared


@pytest.mark.parametrize("text", ("x^1e400", "x^1e400^0", "x^1e400^y"))
def test_overflowing_exponent_literal_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert "exponent too large" in str(exc.value) and exc.value.position == 3


@pytest.mark.parametrize(
    "text, position",
    (
        ("1e400", 1),
        ("x*1e400", 3),
        ("x*[0,1e400]", 3),
        ("x-[-1e400,0]", 3),
        ("1e308±1e308", 1),
        ("2+1±1e400", 3),
        ("1e400±1e400", 1),
        ("exp(1e400)", 5),
        ("x+[0,1e400]*y^2", 3),
    ),
)
def test_non_finite_literal_is_a_syntax_error(text, position):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert "literal is not finite" in str(exc.value)
    assert exc.value.position == position


# Far deeper than the default recursion limit of 1000: nesting fails typed,
# at a position that depends on the limit, so none is pinned.
DEEP_NESTING = {
    "parentheses": "(" * 5000 + "x" + ")" * 5000,
    "unary-minus": "-" * 5000 + "x",
    "sqrt": "sqrt(" * 3000 + "x" + ")" * 3000,
}
DEEP_SUM = "+".join(["x"] * 5000)


@pytest.mark.parametrize("text", DEEP_NESTING.values(), ids=DEEP_NESTING)
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match="nests too deeply") as exc:
        parse(text)
    assert 1 <= exc.value.position <= len(text)


def test_deep_tree_is_an_eval_error():
    # a flat sum parses in a loop but is a left-leaning tree 4999 levels deep
    ast = parse(DEEP_SUM)
    with pytest.raises(EvalError, match="nests too deeply to evaluate"):
        evaluate(ast, {"x": interval(1.0, 2.0)})
    with pytest.raises(EvalError, match="nests too deeply to print"):
        unparse(ast)


def test_deep_tree_compares_hashes_and_prints_typed():
    # node ==, hash() and repr() recurse through the children as well
    ast, again = parse(DEEP_SUM), parse(DEEP_SUM)
    assert ast == ast  # the same children: the tuple compare stops at identity
    with pytest.raises(EvalError, match="nests too deeply to compare"):
        ast == again
    with pytest.raises(EvalError, match="nests too deeply to compare"):
        ast != again
    with pytest.raises(EvalError, match="nests too deeply to hash"):
        hash(ast)
    with pytest.raises(EvalError, match="nests too deeply to represent"):
        repr(ast)
    # a shallow tree keeps the record's equality, hash and repr
    small = parse("x+1")
    assert small == parse("x+1") and hash(small) == hash(parse("x+1")) and small != parse("x+2")
    assert repr(small) == "BinOp(op='+', left=Var(name='x'), right=Num(value=1.0))"


NODES = (Num(1.0), IntervalLit(0.0, 1.0), Var("x"), Neg(Var("x")),
         BinOp("+", Var("x"), Num(1.0)), Power(Var("x"), 2), Call("exp", Var("x")))


def test_every_node_class_has_vars():
    # bench/tracer.py sizes every evaluated tree through vars(node); a slotted
    # node class would turn each traced expr task into an untyped failure
    assert {type(node) for node in NODES} == set(ExprNode.__args__)
    for node in NODES:
        assert vars(node) == dict(zip(node._fields, node._values()))
