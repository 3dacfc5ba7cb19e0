import math
import random
import sys

import pytest
from helpers import (
    SPECIAL_FLOATS,
    bits,
    close_ulps,
    draw_float,
    reference_matmul,
    reference_power_iterate,
)

import intalg as ia
from intalg import (
    ArithmeticMode,
    ConvergenceError,
    IntervalMatrix,
    IntervalVector,
    ModeMismatchError,
    ShapeMismatchError,
    UnsupportedOrderError,
    dot,
    format_matrix,
    frob_sq,
    identity_matrix,
    interval,
    matmul,
    matvec,
    parse_matrix_text,
    power_iterate,
    schulz_invert,
    transpose,
    two_norm,
)

TRUE = ArithmeticMode.TRUE
SEM = ArithmeticMode.SEMANTIC


def deg_matrix(rows, eps=0.0, mode=TRUE, order=4):
    return IntervalMatrix(
        [
            IntervalVector([interval(c, eps=eps, order=order, mode=mode) for c in row])
            for row in rows
        ]
    )


def deg_vector(values, mode=TRUE, order=4):
    return IntervalVector([interval(v, order=order, mode=mode) for v in values])


M2 = ((1.0, 2.0), (3.0, 4.0))
M3 = ((1.0, 4.0, 5.0), (4.0, 2.0, 6.0), (5.0, 6.0, 3.0))


# -- basic operations ---------------------------------------------------------

def test_identity_matvec():
    u = IntervalVector([interval(-1, 2), interval(3, 4)])
    assert all(
        (matvec(identity_matrix(2), u))[i].same_element(u[i]) for i in range(2)
    )


def test_degenerate_matvec():
    w = matvec(deg_matrix(M2), deg_vector((1.0, 1.0)))
    assert [e.canonical for e in w] == [
        ia.GeneralizedInterval(3, 3),
        ia.GeneralizedInterval(7, 7),
    ]


def test_dot_and_shapes():
    u = deg_vector((1.0, 2.0, 3.0))
    v = deg_vector((4.0, 5.0, 6.0))
    assert dot(u, v).canonical == ia.GeneralizedInterval(32, 32)
    with pytest.raises(ShapeMismatchError):
        dot(u, deg_vector((1.0, 2.0)))
    with pytest.raises(ShapeMismatchError):
        matmul(deg_matrix(M2), deg_matrix(M3))


@pytest.mark.parametrize("order", (4, 5, 7))
@pytest.mark.parametrize("mode", (TRUE, SEM))
def test_dot_and_two_norm_match_per_entry_fold(order, mode):
    # The fold through IntervalNumber operators is the definition; dot and
    # two_norm accumulate algebra elements and must agree bit for bit.
    # Entries avoid zero so that every sum of squares has a square root.
    rng = random.Random(order)

    def rand_vector(n):
        return IntervalVector(
            [
                interval(
                    rng.choice((-1, 1)) * rng.uniform(1, 9),
                    eps=rng.uniform(0, 0.9),
                    order=order,
                    mode=mode,
                )
                for _ in range(n)
            ]
        )

    for n in (1, 2, 5, 9):
        u, v = rand_vector(n), rand_vector(n)
        acc = u[0] * v[0]
        for a, b in zip(u.entries[1:], v.entries[1:]):
            acc = acc + a * b
        got = dot(u, v)
        assert bits(got.element.coeffs) == bits(acc.element.coeffs)
        assert got.mode is mode
        sq = u[0] * u[0]
        for e in u.entries[1:]:
            sq = sq + e * e
        want = ia.sqrt(sq)
        assert bits(two_norm(u).element.coeffs) == bits(want.element.coeffs)


def _oracle_entry(order, mode, rng, plain):
    # Raw elements as well as embeddings: signed zeros, subnormals and
    # 1e200-scale coefficients whose products overflow.  Plain entries are
    # embeddings of moderate intervals, so that sums stay finite and the
    # order of additions shows in their last bits.
    r = 1.0 if plain else rng.random()
    if r < 0.4:
        coeffs = [draw_float(rng) for _ in range(order)]
    elif r < 0.6:
        coeffs = [rng.choice(SPECIAL_FLOATS) for _ in range(order)]
    elif r < 0.7:
        coeffs = [rng.uniform(-1.0, 1.0) * 1e200 for _ in range(order)]
    else:
        lo, hi = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        return interval(lo, hi, order=order, mode=mode)
    return ia.IntervalNumber(mode, ia.AlgebraElement(order, coeffs))


def _oracle_matrix(nrows, ncols, order, mode, rng, plain):
    return IntervalMatrix(
        [
            [_oracle_entry(order, mode, rng, plain) for _ in range(ncols)]
            for _ in range(nrows)
        ]
    )


def _matrix_bits(m):
    return [bits(e.element.coeffs) for row in m.rows for e in row]


@pytest.mark.parametrize("order", (4, 5, 7))
@pytest.mark.parametrize("mode", (TRUE, SEM))
def test_matrix_kernels_match_per_entry_fold_bit_for_bit(order, mode):
    # matmul, matvec, dot and frob_sq sum raw coefficient tuples; the oracle
    # transposes and folds alg_mul with AlgebraElement.__add__ per entry.
    rng = random.Random(100 * order + (mode is SEM))
    for trial in range(40):
        plain = trial % 2 == 1
        n, k, p = (rng.randint(1, 5) for _ in range(3))
        a = _oracle_matrix(n, k, order, mode, rng, plain)
        b = _oracle_matrix(k, p, order, mode, rng, plain)
        want = _matrix_bits(reference_matmul(a, b))
        assert _matrix_bits(matmul(a, b)) == want
        assert _matrix_bits(a @ b) == want
        u = IntervalVector([_oracle_entry(order, mode, rng, plain) for _ in range(k)])
        column = IntervalMatrix([[e] for e in u])
        assert [bits(e.element.coeffs) for e in matvec(a, u)] == _matrix_bits(
            reference_matmul(a, column)
        )
        assert [bits(dot(a.rows[0], u).element.coeffs)] == _matrix_bits(
            reference_matmul(IntervalMatrix([a.rows[0]]), column)
        )
        flat = [e for r in a.rows for e in r]
        assert [bits(frob_sq(a).element.coeffs)] == _matrix_bits(
            reference_matmul(IntervalMatrix([flat]), IntervalMatrix([[e] for e in flat]))
        )
        assert matmul(a, b).mode is mode and frob_sq(a).mode is mode


def _count_products(monkeypatch):
    # Wrap every module binding of alg_mul the way the benchmark's tracer does.
    calls = []
    for name in ("intalg.linalg", "intalg.algebra", "intalg.interval"):
        module = sys.modules[name]
        original = module.alg_mul

        def counted(u, v, _original=original):
            calls.append(1)
            return _original(u, v)

        monkeypatch.setattr(module, "alg_mul", counted)
    return calls


def test_products_per_matmul_and_dot(monkeypatch):
    # One alg_mul per term: 27 for a 3x3 product, n for a length-n dot.
    m = IntervalMatrix(
        [[interval(i + 2.0 * j + 1.0, eps=0.01) for j in range(3)] for i in range(3)]
    )
    calls = _count_products(monkeypatch)
    for product in (ia.matmul, sys.modules["intalg.linalg"].matmul, lambda a, b: a @ b):
        calls.clear()
        product(m, m)
        assert len(calls) == 27
    for n in (1, 2, 7):
        u = deg_vector([float(i + 1) for i in range(n)])
        calls.clear()
        dot(u, u)
        assert len(calls) == n
    calls.clear()
    frob_sq(m)
    assert len(calls) == 9


def test_dot_rejects_mixed_modes_and_orders():
    u = deg_vector((1.0, 2.0))
    with pytest.raises(ModeMismatchError):
        dot(u, deg_vector((1.0, 2.0), mode=SEM))
    with pytest.raises(ia.OrderMismatchError):
        dot(u, deg_vector((1.0, 2.0), order=5))
    m = deg_matrix(M2)
    with pytest.raises(ModeMismatchError):
        matmul(m, deg_matrix(M2, mode=SEM))
    with pytest.raises(ia.OrderMismatchError):
        matmul(m, deg_matrix(M2, order=5))


def test_transpose_and_matmul():
    m = deg_matrix(M2)
    t = transpose(m)
    assert t[0, 1].canonical == ia.GeneralizedInterval(3, 3)
    p = matmul(m, identity_matrix(2))
    assert all(p[i, j] == m[i, j] for i in range(2) for j in range(2))


def test_frob_sq_demo_matrix():
    assert frob_sq(deg_matrix(M3)).canonical == ia.GeneralizedInterval(168, 168)


def test_matmul_distributes_over_addition_exactly():
    rng = random.Random(21)
    for _ in range(100):
        def rand_m():
            return IntervalMatrix(
                [
                    IntervalVector(
                        [
                            interval(rng.randint(-9, 9), rng.randint(10, 19))
                            for _ in range(2)
                        ]
                    )
                    for _ in range(2)
                ]
            )

        a, b, c = rand_m(), rand_m(), rand_m()
        lhs = matmul(a, b + c)
        rhs = matmul(a, b) + matmul(a, c)
        assert all(
            lhs[i, j].element.coeffs == rhs[i, j].element.coeffs
            for i in range(2)
            for j in range(2)
        )


def test_vector_matrix_validation():
    with pytest.raises(ShapeMismatchError):
        IntervalVector([])
    with pytest.raises(ModeMismatchError):
        IntervalVector([interval(1), interval(2, mode=SEM)])
    with pytest.raises(ShapeMismatchError):
        IntervalMatrix([[interval(1)], [interval(1), interval(2)]])
    # Rows that are uniform each but differ from one another.
    with pytest.raises(ModeMismatchError, match="matrix"):
        IntervalMatrix([[interval(1), interval(2)], [interval(1, mode=SEM)] * 2])
    with pytest.raises(ia.OrderMismatchError, match="matrix"):
        IntervalMatrix([[interval(1)], [interval(1)], [interval(1, order=5)]])


# -- two_norm -----------------------------------------------------------------

def test_two_norm_345():
    n = two_norm(deg_vector((3.0, 4.0)))
    assert n.canonical == ia.GeneralizedInterval(5, 5)


def test_two_norm_sqrt2():
    n = two_norm(deg_vector((1.0, 1.0)))
    c = n.canonical
    assert close_ulps(c.lo, math.sqrt(2.0), 4) and close_ulps(c.hi, math.sqrt(2.0), 4)


def test_two_norm_containment():
    u = IntervalVector([interval(1, eps=1e-3), interval(0)])
    assert two_norm(u).contains(interval(1))


# -- power iteration ----------------------------------------------------------

def _scalar_power_oracle(rows, iters):
    # Mirrors power_iterate on plain floats: normalize, then Rayleigh quotient.
    u = [1.0] * len(rows)
    history = []
    for _ in range(iters):
        w = [sum(r[j] * u[j] for j in range(len(u))) for r in rows]
        nrm = math.sqrt(sum(x * x for x in w))
        u = [x / nrm for x in w]
        mu = [sum(r[j] * u[j] for j in range(len(u))) for r in rows]
        lam = sum(a * b for a, b in zip(u, mu)) / sum(a * a for a in u)
        history.append(lam)
    return lam, u, history


def test_power_iteration_reference_values():
    res = power_iterate(deg_matrix(M2), deg_vector((1.0, 1.0)), 10)
    assert abs(res.eigenvalue.midpoint - 5.3722813) < 1e-6
    mids = [e.midpoint for e in res.eigenvector]
    assert abs(mids[0] - 0.4159736) < 1e-6
    assert abs(mids[1] - 0.9093767) < 1e-6
    assert [r.index for r in res.trace] == list(range(1, 11))


def test_power_iteration_matches_scalar_oracle_per_iteration():
    res = power_iterate(deg_matrix(M2), deg_vector((1.0, 1.0)), 10)
    _, _, history = _scalar_power_oracle(M2, 10)
    for rec, lam in zip(res.trace, history):
        assert abs(rec.x.midpoint - lam) < 1e-9


def test_power_iteration_identity():
    res = power_iterate(identity_matrix(2), deg_vector((1.0, 1.0)), 1)
    c = res.eigenvalue.canonical
    assert abs(c.lo - 1.0) < 1e-12 and abs(c.hi - 1.0) < 1e-12


def test_power_iteration_interval_contains_point_result():
    lam_ref, _, _ = _scalar_power_oracle(M2, 10)
    res = power_iterate(deg_matrix(M2, eps=1e-3), deg_vector((1.0, 1.0)), 10)
    assert res.eigenvalue.contains(lam_ref)


def test_interval_results_contain_point_results_across_radii():
    # entrywise containment of the eps=0 answers, for radii 1e-1 .. 1e-9
    lam_ref, vec_ref, _ = _scalar_power_oracle(M2, 10)
    inv_ref = schulz_invert(deg_matrix(M3))
    for k in range(1, 10):
        eps = 10.0**-k
        res = power_iterate(deg_matrix(M2, eps), deg_vector((1.0, 1.0)), 10)
        assert res.eigenvalue.contains(lam_ref)
        for entry, ref in zip(res.eigenvector, vec_ref):
            assert entry.contains(ref)
        inv = schulz_invert(deg_matrix(M3, eps))
        for i in range(3):
            for j in range(3):
                assert inv[i, j].contains(inv_ref[i, j].midpoint)


def test_power_step_inverts_the_norm_once(monkeypatch):
    # One alg_inv for the normalisation and one for the Rayleigh quotient per
    # step (it made n + 1 when every entry was divided by the norm), with the
    # per-entry division's bits.
    module = sys.modules["intalg.interval"]
    original = module.alg_inv
    calls = []

    def counted(u):
        calls.append(1)
        return original(u)

    monkeypatch.setattr(module, "alg_inv", counted)
    rng = random.Random(6)
    rows = [[rng.uniform(0.5, 3.0) for _ in range(6)] for _ in range(6)]
    m = deg_matrix(rows, eps=1e-3)
    u0 = deg_vector([1.0] * 6)
    res = power_iterate(m, u0, 10)
    assert len(calls) == 20
    calls.clear()
    lam, vec, trace = reference_power_iterate(m, u0, 10)
    assert len(calls) == 70
    assert bits(res.eigenvalue.element.coeffs) == bits(lam.element.coeffs)
    assert [bits(e.element.coeffs) for e in res.eigenvector] == [
        bits(e.element.coeffs) for e in vec
    ]
    assert [bits((r.x.lo, r.x.hi)) for r in res.trace] == [
        bits((r.x.lo, r.x.hi)) for r in trace
    ]


def test_power_iteration_validation():
    with pytest.raises(ShapeMismatchError):
        power_iterate(deg_matrix(((1.0, 2.0),)), deg_vector((1.0, 1.0)), 3)
    with pytest.raises(UnsupportedOrderError):
        power_iterate(deg_matrix(M2, order=5), deg_vector((1.0, 1.0), order=5), 3)


# -- Schulz-Hotelling inversion -------------------------------------------------

def _adjugate_over_det(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple(x / det for x in row) for row in adj)


def test_schulz_matches_adjugate_inverse():
    inv = schulz_invert(deg_matrix(M3))
    want = _adjugate_over_det(M3)
    for i in range(3):
        for j in range(3):
            assert abs(inv[i, j].midpoint - want[i][j]) < 1e-9
            assert inv[i, j].width < 1e-12


def test_schulz_identity():
    inv = schulz_invert(identity_matrix(3))
    for i in range(3):
        for j in range(3):
            c = inv[i, j].canonical
            want = 1.0 if i == j else 0.0
            assert abs(c.lo - want) < 1e-12 and abs(c.hi - want) < 1e-12


def test_schulz_residuals_monotone_decreasing():
    # The residual of the k-th candidate is the one a run capped at k
    # iterations reports; the last is that of the returned inverse.
    m = deg_matrix(M3)
    residuals: list[float] = []
    for max_iter in range(1, 100):
        try:
            inv = schulz_invert(m, max_iter=max_iter)
        except ConvergenceError as err:
            residuals.append(err.residual)
            continue
        p = matmul(m, inv)
        residuals.append(
            max(
                abs(p[i, j].midpoint - (1.0 if i == j else 0.0))
                for i in range(3)
                for j in range(3)
            )
        )
        break
    assert len(residuals) >= 5
    assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_schulz_double_inverse_reproduces_matrix():
    m = deg_matrix(M3, eps=0.01)
    back = schulz_invert(schulz_invert(m))
    for i in range(3):
        for j in range(3):
            c, o = back[i, j].canonical, m[i, j].canonical
            assert abs(c.lo - o.lo) < 1e-9 and abs(c.hi - o.hi) < 1e-9


def test_schulz_nonconvergence_carries_residual():
    with pytest.raises(ConvergenceError) as exc:
        schulz_invert(deg_matrix(M3), max_iter=2)
    assert exc.value.residual is not None and exc.value.residual > 1e-12


@pytest.mark.parametrize("kwargs", (dict(tol=math.nan), dict(tol=0.0), dict(max_iter=0)))
def test_schulz_rejects_bad_tol_and_max_iter(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        schulz_invert(deg_matrix(M3), **kwargs)


def test_schulz_requires_true_mode_and_order4():
    with pytest.raises(ModeMismatchError):
        schulz_invert(deg_matrix(M3, mode=SEM))
    with pytest.raises(UnsupportedOrderError):
        schulz_invert(deg_matrix(M3, order=5))


# -- matrix text format ---------------------------------------------------------

def test_parse_matrix_text():
    text = "[1,2], 3±0.5\n[4,4], [5,6]\n"
    m = parse_matrix_text(text)
    assert m.shape == (2, 2)
    assert m[0, 1].canonical == ia.GeneralizedInterval(2.5, 3.5)
    assert m[1, 0].canonical == ia.GeneralizedInterval(4, 4)


def test_parse_matrix_text_errors():
    with pytest.raises(ShapeMismatchError):
        parse_matrix_text("  \n  ")
    with pytest.raises(ShapeMismatchError):
        parse_matrix_text("[1,2]\n[1,2],[3,4]")
    with pytest.raises(ValueError):
        parse_matrix_text("[1,2],oops")
    with pytest.raises(ValueError, match="finite"):
        parse_matrix_text("[0,1e400]")


def test_format_matrix_session_layout():
    m = deg_matrix(M2, eps=0.1)
    out = format_matrix(m)
    assert out.splitlines() == [
        "[*",
        "[0.9,1.1][1.9,2.1]",
        "[2.9,3.1][3.9,4.1]",
        "*]",
    ]
