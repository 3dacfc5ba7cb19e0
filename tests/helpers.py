"""Shared numeric assertions for the test suite."""

from __future__ import annotations

import math
import struct

from intalg import generator_endpoints, structure_table


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


def reference_point_embed(lo: float, hi: float, order: int) -> tuple[float, ...]:
    """embed(lo, hi) for lo == hi as the general ray probe builds it.

    Kept as the oracle for the library's closed-form point embedding: the
    value goes on [1, 1] (v >= 0) or [-1, -1], and hi - lo and its four
    nearest doubles are tried on the adjacent ray until the collapse is exact.
    """
    gens = generator_endpoints(order)
    if lo >= 0.0:
        idx_a, a, idx_b = 0, lo, 1
    else:
        idx_a, a, idx_b = 3, -hi, 2
    b = hi - lo
    down = math.nextafter(b, -math.inf)
    up = math.nextafter(b, math.inf)
    best, best_err = None, math.inf
    for cand in (b, down, up, math.nextafter(down, -math.inf), math.nextafter(up, math.inf)):
        if cand < 0.0:
            continue
        coeffs = [0.0] * len(gens)
        coeffs[idx_a] = a
        coeffs[idx_b] = cand
        l2 = h2 = 0.0
        for c, (glo, ghi) in zip(coeffs, gens):
            l2 += c * glo
            h2 += c * ghi
        if l2 == lo and h2 == hi:
            return tuple(coeffs)
        err = abs(l2 - lo) + abs(h2 - hi)
        if err < best_err:
            best, best_err = coeffs, err
    return tuple(best)
