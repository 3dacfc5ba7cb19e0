"""Shared numeric assertions for the test suite."""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction

from intalg import (
    AlgebraOrder,
    DomainError,
    IntervalMatrix,
    IntervalNumber,
    IntervalVector,
    IterationRecord,
    alg_mul,
    dot,
    generator_endpoints,
    matvec,
    structure_table,
    two_norm,
)


def ulp_scale(*values: float) -> float:
    scale = max(abs(v) for v in values)
    return math.ulp(scale) if scale > 0 else 5e-324


def close_ulps(a: float, b: float, n: int) -> bool:
    """|a - b| within n ulps at the scale of the larger magnitude."""
    return abs(a - b) <= n * ulp_scale(a, b)


def leq_ulps(a: float, b: float, n: int) -> bool:
    """a <= b with n ulps of slack."""
    return a <= b + n * ulp_scale(a, b)


def close_rel(a: float, b: float, rel: float) -> bool:
    """|a - b| within rel, relative to max(1, |b|)."""
    return abs(a - b) <= rel * max(1.0, abs(b))


def vectors_close_ulps(u, v, n: int, scale: float | None = None) -> bool:
    """Componentwise closeness, n ulps at the computation's magnitude scale.

    By default the scale is the largest entry of either vector; sums that
    cancel should pass the scale of their accumulated terms instead.
    """
    if scale is None:
        scale = max((abs(x) for x in (*u, *v)), default=0.0)
    if scale == 0.0:
        return all(a == b for a, b in zip(u, v))
    tol = n * math.ulp(scale)
    return all(abs(a - b) <= tol for a, b in zip(u, v))


def inf_norm(coeffs) -> float:
    return max(abs(c) for c in coeffs)


def bits(values) -> bytes:
    """IEEE-754 bytes of a float sequence: equal only when every bit is, so
    0.0 and -0.0 differ."""
    values = tuple(values)
    return struct.pack(f"{len(values)}d", *values)


# Special values for bit-for-bit comparisons: signed zeros, subnormals, the
# smallest normal, and magnitudes whose products overflow or underflow.
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.5, 3.0,
)


def draw_float(rng) -> float:
    """A special value, a number of random magnitude, or a plain uniform one."""
    r = rng.random()
    if r < 0.3:
        return rng.choice(SPECIAL_FLOATS)
    if r < 0.5:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)
    return rng.uniform(-5.0, 5.0)


def reference_alg_mul(u, v) -> tuple[float, ...]:
    """The algebra product as a direct walk over the structure table.

    Kept as the oracle for the library's scheduled kernel: same terms, same
    order of additions, so the two must agree bit for bit.
    """
    table = structure_table(u.order)
    n = len(table)
    a, b = u.coeffs, v.coeffs
    out = [0.0] * n
    for i in range(n):
        row = table[i]
        out[row[i]] += a[i] * b[i]
        for j in range(i + 1, n):
            out[row[j]] += a[i] * b[j] + a[j] * b[i]
    return tuple(out)


def reference_is_invertible(u) -> bool:
    """The invertibility test as a direct check of the split pairs.

    Kept as the oracle for the library's ``is_invertible``, which asks
    ``alg_inv`` instead: the element has order 4 and neither split pair
    (a1, a4), (a1 + a2, a3 + a4) has a zero or non-finite x^2 - y^2.
    """
    if u.order != 4:
        return False
    a1, a2, a3, a4 = u.coeffs
    for x, y in ((a1, a4), (a1 + a2, a3 + a4)):
        d = x * x - y * y
        if d == 0.0 or not math.isfinite(d):
            return False
    return True


def reference_alg_inv(u) -> tuple[float, ...]:
    """The order-4 inverse with each split pair's x^2 - y^2 formed unscaled.

    Kept as the oracle for the library's scaled split inverse where
    ``split_squares_in_range`` holds: there the scaling is exact and the
    two must agree bit for bit.
    """
    a1, a2, a3, a4 = u.coeffs
    inverse = []
    for x, y in ((a1, a4), (a1 + a2, a3 + a4)):
        d = x * x - y * y
        inverse.append((x / d, -y / d))
    (x1, x4), (x2, x3) = inverse
    return (x1, x2 - x1, x3 - x4, x4)


def split_squares_in_range(u) -> bool:
    """True when the squares of every order-4 split coordinate of u are
    zero or normal finite floats, so x*x - y*y neither underflows nor
    overflows and ``reference_is_invertible`` decides u exactly."""
    a1, a2, a3, a4 = u.coeffs
    return all(
        s == 0.0 or sys.float_info.min <= s * s < math.inf
        for s in (a1, a4, a1 + a2, a3 + a4)
    )


def exact_is_invertible(u) -> bool:
    """Invertibility decided in rational arithmetic.

    True when u has order 4, neither split pair (x, y) (the float
    coordinates a1, a4 and a1 + a2, a3 + a4) has x^2 == y^2 exactly, and
    every coefficient of the exact inverse rounds to a finite float.
    """
    if u.order != 4:
        return False
    a1, a2, a3, a4 = u.coeffs
    inverse = []
    for x, y in ((a1, a4), (a1 + a2, a3 + a4)):
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        d = Fraction(x) ** 2 - Fraction(y) ** 2
        if d == 0:
            return False
        inverse.append((Fraction(x) / d, -Fraction(y) / d))
    (x1, x4), (x2, x3) = inverse
    try:
        for c in (x1, x2 - x1, x3 - x4, x4):
            float(c)
    except OverflowError:
        return False
    return True


def _reference_dot(u, v):
    # The per-term fold: one alg_mul per pair, summed with AlgebraElement.__add__.
    acc = alg_mul(u[0].element, v[0].element)
    for a, b in zip(u.entries[1:], v.entries[1:]):
        acc = acc + alg_mul(a.element, b.element)
    return IntervalNumber(u[0].mode, acc)


def reference_matmul(a, b):
    """The matrix product as transpose, then one fold per entry.

    Kept as the oracle for the library's matmul, matvec, dot and frob_sq,
    which accumulate raw coefficient tuples instead: same products, same
    order of additions, so they must agree bit for bit.  Vectors pass as
    one-column matrices.
    """
    nrows, ncols = b.shape
    bt = IntervalMatrix(
        tuple(
            IntervalVector(tuple(b.rows[i][j] for i in range(nrows)))
            for j in range(ncols)
        )
    )
    return IntervalMatrix(
        tuple(
            IntervalVector(tuple(_reference_dot(row, col) for col in bt.rows))
            for row in a.rows
        )
    )


def reference_power_iterate(m, u0, iters: int):
    """Power iteration as it divided every entry of M u by the norm.

    Kept as the oracle for ``power_iterate``, which inverts the norm once per
    step and multiplies each entry by that inverse: division is the product
    with the divisor's inverse, so the two agree bit for bit.  Returns the
    eigenvalue, the eigenvector and the trace.
    """
    u = u0
    trace = []
    for k in range(1, iters + 1):
        w = matvec(m, u)
        norm = two_norm(w)
        u = IntervalVector(tuple(wi / norm for wi in w))
        lam = dot(u, matvec(m, u)) / dot(u, u)
        trace.append(IterationRecord(k, lam.raw))
    return lam, u, tuple(trace)


def _neighbors(value: float):
    # The value itself first, then the four nearest doubles.
    yield value
    down = math.nextafter(value, -math.inf)
    up = math.nextafter(value, math.inf)
    yield down
    yield up
    yield math.nextafter(down, -math.inf)
    yield math.nextafter(up, math.inf)


def _collapse_raw(order, coeffs) -> tuple[float, float]:
    lo = 0.0
    hi = 0.0
    for c, (glo, ghi) in zip(coeffs, generator_endpoints(order)):
        lo += c * glo
        hi += c * ghi
    return lo, hi


def _best_two_ray(order, lo, hi, idx_a, cands_a, idx_b, cands_b) -> list[float]:
    n = int(order)
    best = None
    best_err = math.inf
    for a in cands_a:
        if a < 0.0:
            continue
        for b in cands_b(a) if callable(cands_b) else cands_b:
            if b < 0.0:
                continue
            coeffs = [0.0] * n
            coeffs[idx_a] = a
            coeffs[idx_b] = b
            l2, h2 = _collapse_raw(order, coeffs)
            if l2 == lo and h2 == hi:
                return coeffs
            err = abs(l2 - lo) + abs(h2 - hi)
            if err < best_err:
                best_err = err
                best = coeffs
    if best is None:
        raise DomainError(f"no embedding of ({lo!r}, {hi!r}) found at order {n}")
    return best


def _embed_zero_cone(lo: float, hi: float, order: AlgebraOrder) -> list[float]:
    # lo < 0 < hi strictly.  Generator rays fanning across the cone, sorted by
    # -lo/hi slope; the gates below are exact float comparisons.
    if order == AlgebraOrder.ORDER_4:
        n = int(order)
        coeffs = [0.0] * n
        coeffs[1] = hi
        coeffs[2] = -lo
        return coeffs
    if order == AlgebraOrder.ORDER_5:
        if -lo <= hi:
            # between [0,1] and [-1,1]: lo pins the e5 coefficient exactly
            return _best_two_ray(order, lo, hi, 4, (-lo,), 1, _neighbors(hi + lo))
        # between [-1,1] and [-1,0]: hi pins the e5 coefficient exactly
        return _best_two_ray(order, lo, hi, 4, (hi,), 2, _neighbors(-lo - hi))
    # order 7
    if -2.0 * lo <= hi:
        # between [0,1] and [-1/2,1]
        return _best_two_ray(
            order, lo, hi, 6, (-2.0 * lo,), 1, _neighbors(hi + 2.0 * lo)
        )
    if -lo <= hi:
        # between [-1/2,1] and [-1,1]: both rays touch both endpoints
        return _best_two_ray(
            order,
            lo,
            hi,
            6,
            _neighbors(2.0 * (lo + hi)),
            4,
            lambda a: _neighbors(hi - a),
        )
    if -lo <= 2.0 * hi:
        # between [-1,1] and [-1,1/2]
        return _best_two_ray(
            order,
            lo,
            hi,
            5,
            _neighbors(-2.0 * (lo + hi)),
            4,
            lambda a: _neighbors(hi - 0.5 * a),
        )
    # between [-1,1/2] and [-1,0]
    return _best_two_ray(order, lo, hi, 5, (2.0 * hi,), 2, _neighbors(-lo - 2.0 * hi))


def reference_embed(lo: float, hi: float, order: int) -> tuple[float, ...]:
    """The coefficients of embed(lo, hi, order) for finite endpoints, as the
    hand-written per-cone ray probe builds them.

    Kept as the oracle for the library's table-driven embedding kernel and
    its closed-form point embedding.  Each cone has its own branch: one
    coefficient is pinned by an endpoint (or solved, with its four nearest
    doubles tried), the other is solved from the remaining endpoint and
    probed the same way, and the first pair whose full collapse is exact
    wins, else the closest.  Points take the lo >= 0 or hi <= 0 branch;
    improper pairs are the negation of the mirrored proper pair.
    """
    order = AlgebraOrder(order)
    lo = float(lo)
    hi = float(hi)
    if lo > hi:
        return tuple(-c for c in reference_embed(-lo, -hi, order))
    if lo >= 0.0:
        coeffs = _best_two_ray(order, lo, hi, 0, (lo,), 1, _neighbors(hi - lo))
    elif hi <= 0.0:
        coeffs = _best_two_ray(order, lo, hi, 3, (-hi,), 2, _neighbors(hi - lo))
    else:
        coeffs = _embed_zero_cone(lo, hi, order)
    return tuple(coeffs)
