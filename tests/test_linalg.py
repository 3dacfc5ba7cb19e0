import hashlib
import math
import random
import sys
import time

import pytest
from helpers import (
    SPECIAL_FLOATS,
    bits,
    close_ulps,
    dominant_matrix,
    draw_coeff,
    draw_float,
    reference_matmul,
    reference_power_iterate,
    reference_schulz_invert,
    schulz_worst_ulps,
)

import intalg as ia
from intalg import (
    ArithmeticMode,
    ConvergenceError,
    DivisionNotAllowedError,
    DomainError,
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
from intalg.linalg import _identity_residual, _plane_product, _plane_residual

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
        (matvec(identity_matrix(2), u))[i].coeffs == u[i].coeffs for i in range(2)
    )


def test_matmul_operator_dispatches_on_the_right_operand():
    m, u = deg_matrix(M2, eps=0.1), IntervalVector([interval(-1, 2), interval(3, 4)])
    assert [bits(e.element.coeffs) for e in m @ u] == [
        bits(e.element.coeffs) for e in matvec(m, u)
    ]
    assert [bits(e.element.coeffs) for r in (m @ m).rows for e in r] == [
        bits(e.element.coeffs) for r in matmul(m, m).rows for e in r
    ]
    with pytest.raises(TypeError):
        m @ interval(1)


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
    with pytest.raises(ShapeMismatchError, match="cannot multiply vector of length 3"):
        matvec(deg_matrix(M2), u)


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
    for name in ("intalg.linalg", "intalg.algebra"):
        module = sys.modules[name]
        original = module.alg_mul

        def counted(u, v, _original=original):
            calls.append(1)
            return _original(u, v)

        monkeypatch.setattr(module, "alg_mul", counted)
    return calls


def _count_kernel_products(monkeypatch):
    # Wrap the product kernels themselves, which every product runs: through
    # alg_mul or straight from an IntervalNumber operator.
    algebra = sys.modules["intalg.algebra"]
    calls = []
    for order in ia.AlgebraOrder:
        zero = (0.0,) * int(order)
        algebra._MUL[order](zero, zero)  # compile the order's kernels first
        kernel = algebra._MUL[order]

        def counted(a, b, _kernel=kernel):
            calls.append(1)
            return _kernel(a, b)

        monkeypatch.setitem(algebra._MUL, order, counted)
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
    with pytest.raises(ShapeMismatchError, match="matrix must not be empty"):
        IntervalMatrix([])
    u2, u3 = deg_vector((1.0, 2.0)), deg_vector((1.0, 2.0, 3.0))
    m2, m3 = deg_matrix(M2), deg_matrix(M3)
    for shorter, longer, what in ((u2, u3, "vector lengths"), (m2, m3, "matrix shapes")):
        for a, b in ((shorter, longer), (longer, shorter)):
            with pytest.raises(ShapeMismatchError, match=f"{what} differ"):
                a + b
            with pytest.raises(ShapeMismatchError, match=f"{what} differ"):
                a - b


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


def test_power_iteration_makes_one_matvec_per_step(monkeypatch):
    # The Rayleigh quotient's M u is the next step's M u: k steps make k + 1
    # matvecs, not 2k, with the bits of the two-matvec reference.  Each step
    # adds n products each for the norm, the scaling and two dots, plus the
    # quotient's one; the scaling and the quotient are operators, which run
    # the kernel without alg_mul, so the products are counted at the kernel.
    module = sys.modules["intalg.linalg"]
    original = module.matvec
    matvecs = []

    def counted(m, u):
        matvecs.append(1)
        return original(m, u)

    monkeypatch.setattr(module, "matvec", counted)
    products = _count_kernel_products(monkeypatch)
    rng = random.Random(8)
    for n, iters in ((1, 1), (3, 4), (6, 10)):
        rows = [[rng.uniform(0.5, 3.0) for _ in range(n)] for _ in range(n)]
        m = deg_matrix(rows, eps=1e-3)
        u0 = deg_vector([1.0] * n)
        matvecs.clear()
        products.clear()
        res = power_iterate(m, u0, iters)
        assert len(matvecs) == iters + 1
        assert len(products) == (iters + 1) * n * n + iters * (4 * n + 1)
        lam, vec, trace = reference_power_iterate(m, u0, iters)
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
    with pytest.raises(ShapeMismatchError, match="start vector length"):
        power_iterate(deg_matrix(M2), deg_vector((1.0, 1.0, 1.0)), 3)
    with pytest.raises(UnsupportedOrderError):
        power_iterate(deg_matrix(M2, order=5), deg_vector((1.0, 1.0), order=5), 3)


@pytest.mark.parametrize("iters", (0, 2.5, True, False, "3", None))
def test_power_iteration_rejects_iters_that_are_not_positive_integers(iters):
    with pytest.raises(ValueError, match="iters"):
        power_iterate(deg_matrix(M2), deg_vector((1.0, 1.0)), iters)


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


@pytest.mark.parametrize(
    "kwargs",
    (
        dict(tol=math.nan),
        dict(tol=0.0),
        dict(tol="x"),
        dict(tol=True),
        dict(max_iter=0),
        dict(max_iter=2.5),
        dict(max_iter=True),
        dict(max_iter="3"),
    ),
)
def test_schulz_rejects_bad_tol_and_max_iter(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        schulz_invert(deg_matrix(M3), **kwargs)


def test_schulz_requires_true_mode_and_order4():
    with pytest.raises(ModeMismatchError):
        schulz_invert(deg_matrix(M3, mode=SEM))
    with pytest.raises(UnsupportedOrderError):
        schulz_invert(deg_matrix(M3, order=5))


def _stop_residual(m, x):
    p = matmul(m, x)
    n = m.shape[0]
    return max(
        abs(p[i, j].midpoint - (1.0 if i == j else 0.0)) for i in range(n) for j in range(n)
    )


# The plane iteration against the interval-matrix iteration it replaced:
# over seeds 0-219, n = 1..12 and radii up to 0.01, the worst endpoint moved
# 8.0 ulps of the largest endpoint of the task's inverse.  The sweep, from
# the repository root:
# PYTHONPATH=src:tests python -c "from helpers import schulz_worst_ulps as w; print(w(range(220), range(1, 13)))"
SCHULZ_ULPS = 8


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_schulz_planes_match_the_kernel_iteration(seed):
    assert schulz_worst_ulps((seed,), range(1, 13)) <= SCHULZ_ULPS
    rng = random.Random(seed)
    for n in range(1, 13):
        m = dominant_matrix(rng, n)
        assert _stop_residual(m, schulz_invert(m)) < 1e-12


def test_schulz_of_a_point_matrix_has_zero_width():
    # A point matrix has four equal character planes, so the planes iterate
    # alike and map back to points exactly.
    rng = random.Random(4)
    for n in range(1, 13):
        m = dominant_matrix(rng, n, max_radius=0.0)
        inv = schulz_invert(m)
        assert all(e.raw.lo == e.raw.hi for r in inv.rows for e in r)
        assert _stop_residual(m, inv) < 1e-12


@pytest.mark.parametrize("tol", (1e-6, 1e-12, 1e-15))
def test_schulz_result_passes_the_public_stop_test(tol):
    rng = random.Random(5)
    for n in (2, 7, 12):
        m = dominant_matrix(rng, n)
        assert _stop_residual(m, schulz_invert(m, tol=tol)) < tol


@pytest.mark.parametrize(
    "rows, error",
    (
        (((0.0, 0.0), (0.0, 0.0)), DivisionNotAllowedError),
        ((((-1.0, 1.0), (-2.0, 1.0)), ((0.0, 0.0), (-1.0, 3.0))), DivisionNotAllowedError),
        (((1.0, 2.0), (2.0, 4.0)), ConvergenceError),
    ),
    ids=("zero", "zero-containing", "singular"),
)
def test_schulz_failures_keep_their_types(rows, error):
    m = IntervalMatrix(
        [[interval(*c) if isinstance(c, tuple) else interval(c) for c in r] for r in rows]
    )
    with pytest.raises(error) as got:
        schulz_invert(m)
    with pytest.raises(error) as want:
        reference_schulz_invert(m)
    if error is ConvergenceError:
        assert close_ulps(got.value.residual, want.value.residual, 8)
    else:
        # the divisor is the scaled sum of squares, which has no inverse
        divisor = got.value.divisor
        assert isinstance(divisor, ia.IntervalNumber) and divisor.order == 4
        with pytest.raises(DivisionNotAllowedError):
            interval(1.0) / divisor
        assert str(got.value).startswith(
            "matrix is not invertible: the sum of its squared entries (scaled by 2**"
        )
        assert str(got.value).endswith(f" is {ia.format_interval(divisor.raw)}")


@pytest.mark.parametrize(
    "diagonal",
    (
        (1e200,),
        (1e-200,),
        (1e160, 2e160),
        (1e-160, 3e-160, 5e-161),
        (1e-308,),
        (1.5e308,),
    ),
)
def test_schulz_inverts_matrices_whose_squares_leave_the_float_range(diagonal):
    # The sum of squared entries overflows or underflows here, and the last
    # two inverses are near the ends of the float range; the iteration runs
    # on the matrix scaled by a power of two, so these invert, to the
    # relative accuracy the stop test asks of each diagonal entry.
    n = len(diagonal)
    m = deg_matrix([[d if i == j else 0.0 for j in range(n)] for i, d in enumerate(diagonal)])
    inv = schulz_invert(m)
    for i in range(n):
        for j in range(n):
            c = inv[i, j].raw
            want = 1.0 / diagonal[i] if i == j else 0.0
            assert c.lo == c.hi and abs(c.lo - want) <= 1e-12 * abs(want), (i, j, c)
    assert _stop_residual(m, inv) < 1e-12


@pytest.mark.parametrize("value", (1e-320, 1e-310, 5e-324))
def test_schulz_unrepresentable_inverse_raises_domain_error(value):
    with pytest.raises(DomainError, match="too large"):
        schulz_invert(deg_matrix(((value,),)))


def _fold(a, b):
    s = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        s = s + x * y
    return s


def test_plane_product_is_a_left_to_right_fold():
    # (1e16 + 1) rounds back to 1e16, so the fold gives 0.0; a compensated
    # sum (the builtin sum of floats from Python 3.12 on) gives 1.0.
    assert _plane_product(3)([(1e16, 1.0, -1e16)], [(1.0, 1.0, 1.0)]) == [[0.0]]
    # -0.0 + -0.0 is -0.0, where a sum that starts from 0.0 gives 0.0
    got = _plane_product(2)([(-0.0, -0.0), (0.0, -0.0)], [(1.0, 1.0), (-1.0, 1.0)])
    assert bits(v for row in got for v in row) == bits((-0.0, 0.0, 0.0, -0.0))
    rng = random.Random(7)
    # 16 and 17 sit either side of the first 16-term statement, 40 spans three
    for n in (1, 2, 15, 16, 17, 40):
        rows = [[draw_float(rng) for _ in range(n)] for _ in range(3)]
        cols = [[draw_float(rng) for _ in range(n)] for _ in range(2)]
        got = _plane_product(n)(rows, cols)
        want = [[_fold(a, b) for b in cols] for a in rows]
        assert bits(v for row in got for v in row) == bits(v for row in want for v in row)


def test_plane_product_of_columns_by_rows_is_the_transpose():
    # Schulz keeps X by columns and takes M X as product(x_cols, m_rows): each
    # term's factors swap, which IEEE multiplication leaves exact, and the
    # fold keeps its order, so the result is the transpose, bit for bit.
    canary = ([(1e16, 1.0, -1e16), (-0.0, 0.0, -0.0)], [(1.0, 1.0, 1.0), (1.0, -1.0, 1.0)])
    zeros = ([(-0.0, -0.0), (0.0, -0.0)], [(1.0, 1.0), (-1.0, 1.0), (-0.0, 0.0)])
    cases = [canary, zeros]
    rng = random.Random(19)
    for n in (1, 16, 17, 40):
        rows = [[draw_float(rng) for _ in range(n)] for _ in range(3)]
        cols = [[draw_float(rng) for _ in range(n)] for _ in range(2)]
        cases.append((rows, cols))
    for rows, cols in cases:
        product = _plane_product(len(rows[0]))
        by_rows, by_cols = product(rows, cols), product(cols, rows)
        assert bits(v for col in by_cols for v in col) == bits(
            v for col in zip(*by_rows) for v in col
        )


def test_plane_product_code_grows_linearly():
    # one row and one column unpack per entry, never the whole matrix, so
    # doubling n at most doubles the code (plus wider opcodes past 256 locals)
    sizes = {n: len(_plane_product(n).__code__.co_code) for n in (10, 20, 40, 80, 160)}
    for n in (10, 20, 40, 80):
        assert sizes[2 * n] < 2.5 * sizes[n], sizes


def test_identity_residual_names_the_first_non_finite_entry():
    # distances whose sum overflows are each finite
    assert _identity_residual([[2.0, -1e308], [1e308, 1.0]]) == 1e308
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match=r"entry \(1, 0\) of M X is not finite"):
            _identity_residual([[1.0, 0.5], [bad, math.nan]])
    # a NaN after a larger distance, which max() would pass over
    with pytest.raises(DomainError, match=r"entry \(0, 1\) of M X is not finite"):
        _identity_residual([[3.0, math.nan], [0.0, 1.0]])


def _residual_outcome(residual, *args):
    try:
        return bits((residual(*args),))
    except DomainError as error:
        return str(error)


@pytest.mark.parametrize(
    "mids",
    (
        [[2.0, -0.8e308], [0.8e308, -0.8e308]],  # distances whose sum overflows
        [[1.0, 0.5], [math.inf, math.nan]],
        [[1.0, 0.5], [-math.inf, math.nan]],
        [[1.0, 0.5], [math.nan, math.nan]],
        [[3.0, math.nan], [0.0, 1.0]],  # a NaN after a larger distance
        [[1.0, math.nan], [math.inf, 1.0]],  # the first in row order, not by columns
    ),
)
def test_plane_residual_is_the_identity_residual(mids):
    # Planes 1 and 3 both equal to the midpoints have them as half sums.
    cols = [list(col) for col in zip(*mids)]
    want = _residual_outcome(_identity_residual, mids)
    assert _residual_outcome(_plane_residual, cols, cols) == want


def test_plane_residual_is_the_identity_residual_on_random_planes():
    rng = random.Random(20)
    for n in (1, 2, 3, 10, 17):
        for _ in range(50):
            c1, c3 = (
                [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)] for _ in range(2)
            )
            for _ in range(rng.randint(0, 2)):  # specials, huge and tiny values
                rng.choice((c1, c3))[rng.randrange(n)][rng.randrange(n)] = draw_coeff(rng)
            mids = [
                [(a + b) / 2.0 for a, b in zip(r1, r3)] for r1, r3 in zip(zip(*c1), zip(*c3))
            ]
            want = _residual_outcome(_identity_residual, mids)
            assert _residual_outcome(_plane_residual, c1, c3) == want, (c1, c3)


def test_schulz_confirms_with_one_matmul_per_converged_call(monkeypatch):
    # The stop test runs the public matmul once a plane residual falls below
    # tol; at the default tol the first candidate passes it.
    module = sys.modules["intalg.linalg"]
    original = module.matmul
    calls = []

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(module, "matmul", counted)
    rng = random.Random(21)
    for n in range(1, 13):
        for radius in (0.0, 0.01, 0.2):
            m = dominant_matrix(rng, n, max_radius=radius)
            calls.clear()
            schulz_invert(m)
            assert len(calls) == 1, (n, radius)


# SHA-256 of the bits of schulz_invert's outputs on seeded dominant matrices of
# sizes 3 to 12 and radii 0, 0.01 and 0.2, and of the residual that each one's
# ConvergenceError carries after two steps.  Recorded with the per-entry plane
# dots that the product kernel replaced; any change to the order of the plane
# arithmetic changes it.
SCHULZ_SHA256 = "4d89003628d4963675bdb08908e2a8e2e9d118afdde52270b8a6664773184592"


def test_schulz_outputs_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    rng = random.Random(18)
    for n in range(3, 13):
        for radius in (0.0, 0.01, 0.2):
            m = dominant_matrix(rng, n, max_radius=radius)
            inv = schulz_invert(m)
            digest.update(bits(c for r in inv.rows for e in r for c in e.coeffs))
            with pytest.raises(ConvergenceError) as failed:
                schulz_invert(m, max_iter=2)
            digest.update(bits((failed.value.residual,)))
    assert digest.hexdigest() == SCHULZ_SHA256


def test_schulz_large_matrix_compiles_and_inverts_in_time():
    # 60 x 60 takes about 1.5 s on a 2-core x86-64 machine, compiling the
    # kernels for length 60 included; the seed's sum of squares compiles none
    m = dominant_matrix(random.Random(60), 60)
    _plane_product.cache_clear()
    start = time.perf_counter()
    inv = schulz_invert(m)
    assert time.perf_counter() - start < 30.0
    assert _stop_residual(m, inv) < 1e-12


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
    # rows are checked in order: an empty row fails before a later bad literal
    with pytest.raises(ShapeMismatchError, match="vector must not be empty"):
        parse_matrix_text("1,2\n , \n[1,2],oops")


def test_parse_matrix_text_reads_rows_as_literals():
    # entries are the literals of option values, +- among them; commas inside
    # brackets belong to the literal, and empty entries are skipped
    m = parse_matrix_text(",[1, 2],, 3 +- 0.5 ,\n--4, [5,6]\n")
    assert [[e.canonical for e in row] for row in m.rows] == [
        [ia.GeneralizedInterval(1, 2), ia.GeneralizedInterval(2.5, 3.5)],
        [ia.GeneralizedInterval(4, 4), ia.GeneralizedInterval(5, 6)],
    ]


@pytest.mark.parametrize(
    "text, message",
    (
        ("[1,2],[3,4]\n[5,6],oops", "line 2: expected a number (at position 7)"),
        ("1,2\n\n3 4,5", "line 3: unexpected '4' (at position 3)"),
        ("[1;2]", "line 1: unexpected character ';' (at position 3)"),
        ("1,[2,3],\n1,[2,3", "line 2: expected ']' (at position 7)"),
    ),
)
def test_parse_matrix_text_errors_name_line_and_position(text, message):
    with pytest.raises(ValueError) as exc:
        parse_matrix_text(text)
    assert str(exc.value) == f"matrix text {message}"


def test_format_matrix_session_layout():
    m = deg_matrix(M2, eps=0.1)
    out = format_matrix(m)
    assert out.splitlines() == [
        "[*",
        "[0.9,1.1][1.9,2.1]",
        "[2.9,3.1][3.9,4.1]",
        "*]",
    ]
