"""Plain-float oracles that check the benchmark's outputs without importing intalg.

``Ref`` is a frozen copy of the interval arithmetic semantics (generator
tables, two-ray embedding with neighbour probing, table product, split
inverse, collapse, both subtraction modes).  It follows the same float
operation order, so at the commit that defined the benchmark it agrees with
intalg bit for bit; later commits are held to the acceptance suite's 1e-9
relative tolerance.  The remaining helpers are classical oracles: the
Minkowski product, a Gauss-Jordan inverse, scalar power iteration and the
critical points of the descent objectives.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9

GENERATORS = {
    4: ((1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, -1.0)),
}
GENERATORS[5] = GENERATORS[4] + ((-1.0, 1.0),)
GENERATORS[7] = GENERATORS[5] + ((-1.0, 0.5), (-0.5, 1.0))

TABLES = {
    4: ((0, 1, 2, 3), (1, 1, 2, 2), (2, 2, 1, 1), (3, 2, 1, 0)),
    5: (
        (0, 1, 2, 3, 4),
        (1, 1, 2, 2, 4),
        (2, 2, 1, 1, 4),
        (3, 2, 1, 0, 4),
        (4, 4, 4, 4, 4),
    ),
    7: (
        (0, 1, 2, 3, 4, 5, 6),
        (1, 1, 2, 2, 4, 5, 6),
        (2, 2, 1, 1, 4, 6, 5),
        (3, 2, 1, 0, 4, 6, 5),
        (4, 4, 4, 4, 4, 4, 4),
        (5, 5, 6, 6, 4, 6, 5),
        (6, 6, 5, 5, 4, 5, 6),
    ),
}


class RefTyped(Exception):
    """An outcome intalg reports with a typed ``IntalgError``."""


class RefDefect(Exception):
    """An outcome intalg reported with an untyped exception when the benchmark was defined."""


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    """Acceptance-suite closeness: |got - want| <= rel * max(1, |want|)."""
    if math.isnan(got) or math.isnan(want):
        return False
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rel * max(1.0, abs(want))


def widened_contains(lo: float, hi: float, v: float, rel: float = REL_TOL) -> bool:
    pad = rel * max(1.0, abs(v))
    return lo - pad <= v <= hi + pad


# -- the algebra --------------------------------------------------------------

def collapse(order: int, coeffs) -> tuple[float, float]:
    lo = 0.0
    hi = 0.0
    for c, (glo, ghi) in zip(coeffs, GENERATORS[order]):
        lo += c * glo
        hi += c * ghi
    return lo, hi


def _neighbors(value: float):
    down = math.nextafter(value, -math.inf)
    up = math.nextafter(value, math.inf)
    return (value, down, up, math.nextafter(down, -math.inf), math.nextafter(up, math.inf))


def _two_ray(order, lo, hi, ia, cands_a, ib, cands_b):
    best = None
    best_err = math.inf
    for a in cands_a:
        if a < 0.0:
            continue
        for b in cands_b(a) if callable(cands_b) else cands_b:
            if b < 0.0:
                continue
            coeffs = [0.0] * order
            coeffs[ia] = a
            coeffs[ib] = b
            l2, h2 = collapse(order, coeffs)
            if l2 == lo and h2 == hi:
                return tuple(coeffs)
            err = abs(l2 - lo) + abs(h2 - hi)
            if err < best_err:
                best_err = err
                best = coeffs
    if best is None:
        raise RefDefect("no embedding candidate (non-finite endpoints)")
    return tuple(best)


def _zero_cone(order, lo, hi):
    if order == 4:
        return (0.0, hi, -lo, 0.0)
    if order == 5:
        if -lo <= hi:
            return _two_ray(order, lo, hi, 4, (-lo,), 1, _neighbors(hi + lo))
        return _two_ray(order, lo, hi, 4, (hi,), 2, _neighbors(-lo - hi))
    if -2.0 * lo <= hi:
        return _two_ray(order, lo, hi, 6, (-2.0 * lo,), 1, _neighbors(hi + 2.0 * lo))
    if -lo <= hi:
        return _two_ray(
            order, lo, hi, 6, _neighbors(2.0 * (lo + hi)), 4, lambda a: _neighbors(hi - a)
        )
    if -lo <= 2.0 * hi:
        return _two_ray(
            order,
            lo,
            hi,
            5,
            _neighbors(-2.0 * (lo + hi)),
            4,
            lambda a: _neighbors(hi - 0.5 * a),
        )
    return _two_ray(order, lo, hi, 5, (2.0 * hi,), 2, _neighbors(-lo - 2.0 * hi))


def embed(order: int, lo: float, hi: float) -> tuple[float, ...]:
    lo = float(lo)
    hi = float(hi)
    if lo > hi:
        return tuple(-c for c in embed(order, -lo, -hi))
    if lo >= 0.0:
        return _two_ray(order, lo, hi, 0, (lo,), 1, _neighbors(hi - lo))
    if hi <= 0.0:
        return _two_ray(order, lo, hi, 3, (-hi,), 2, _neighbors(hi - lo))
    return _zero_cone(order, lo, hi)


def mul(order: int, a, b) -> tuple[float, ...]:
    table = TABLES[order]
    out = [0.0] * order
    for i in range(order):
        row = table[i]
        out[row[i]] += a[i] * b[i]
        for j in range(i + 1, order):
            out[row[j]] += a[i] * b[j] + a[j] * b[i]
    return tuple(out)


def _split_inv(u: float, v: float) -> tuple[float, float]:
    d = u * u - v * v
    if d == 0.0 or not math.isfinite(d):
        raise RefTyped("not invertible")
    return u / d, -v / d


def inv4(a) -> tuple[float, ...]:
    a1, a2, a3, a4 = a
    x1, x4 = _split_inv(a1, a4)
    x2, x3 = _split_inv(a1 + a2, a3 + a4)
    return (x1, x2 - x1, x3 - x4, x4)


class Ref:
    """Interval numbers of one order and subtraction mode ('true' or 'semantic')."""

    def __init__(self, order: int, mode: str):
        self.order = order
        self.true = mode == "true"

    def interval(self, lo, hi=None):
        return embed(self.order, lo, lo if hi is None else hi)

    def canonical(self, x):
        lo, hi = collapse(self.order, x)
        return (lo, hi) if lo <= hi else (hi, lo)

    def neg(self, x):
        if self.true:
            return tuple(-c for c in x)
        lo, hi = self.canonical(x)
        return embed(self.order, -hi, -lo)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        if self.true:
            return tuple(a - b for a, b in zip(x, y))
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        return mul(self.order, x, y)

    def div(self, x, y):
        if self.order != 4:
            raise RefTyped("division needs order 4")
        return mul(4, x, inv4(y))

    def pow(self, x, k: int):
        result = (1.0,) + (0.0,) * (self.order - 1)
        for _ in range(k):
            result = mul(self.order, result, x)
        return result

    def lift(self, name: str, x):
        lo, hi = collapse(self.order, x)
        low = min(lo, hi)
        if name == "log" and low <= 0.0:
            raise RefTyped("log domain")
        if name == "sqrt" and low < 0.0:
            raise RefTyped("sqrt domain")
        fn = getattr(math, name)
        return embed(self.order, fn(lo), fn(hi))


def evaluate(node, env: dict, ref: Ref):
    """Evaluate a benchmark expression tree (see workloads.py) in the reference."""
    kind = node[0]
    if kind == "var":
        return env[node[1]]
    if kind == "num":
        return ref.interval(node[1])
    if kind == "lit":
        return ref.interval(node[1], node[2])
    if kind == "neg":
        return ref.neg(evaluate(node[1], env, ref))
    if kind == "pow":
        return ref.pow(evaluate(node[1], env, ref), node[2])
    if kind == "call":
        return ref.lift(node[1], evaluate(node[2], env, ref))
    op, left, right = node[1], node[2], node[3]
    a = evaluate(left, env, ref)
    b = evaluate(right, env, ref)
    return {"+": ref.add, "-": ref.sub, "*": ref.mul, "/": ref.div}[op](a, b)


def expected_expression(node, bindings: dict, order: int, mode: str):
    """('value', (lo, hi)), ('typed',) or ('defect',) for one expression task."""
    ref = Ref(order, mode)
    try:
        env = {name: ref.interval(lo, hi) for name, (lo, hi) in bindings.items()}
        lo, hi = ref.canonical(evaluate(node, env, ref))
    except RefTyped:
        return ("typed",)
    except (RefDefect, OverflowError):
        return ("defect",)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return ("defect",)
    return ("value", (lo, hi))


# -- classical oracles -----------------------------------------------------------

def mink_mul(x, y) -> tuple[float, float]:
    p = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(p), max(p)


def invert(rows) -> list[list[float]]:
    """Gauss-Jordan inverse with partial pivoting."""
    n = len(rows)
    a = [list(map(float, r)) + [1.0 if i == j else 0.0 for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def power_oracle(rows, iters: int):
    """Scalar power iteration with the Rayleigh quotient, as in acceptance criterion 9."""
    n = len(rows)
    u = [1.0] * n
    lam = None
    for _ in range(iters):
        w = [sum(r[j] * u[j] for j in range(n)) for r in rows]
        nrm = math.sqrt(sum(x * x for x in w))
        u = [x / nrm for x in w]
        mu = [sum(r[j] * u[j] for j in range(n)) for r in rows]
        lam = sum(a * b for a, b in zip(u, mu)) / sum(a * a for a in u)
    return lam, u


# Closed-form critical points of the descent objectives x*exp(x), (x^2-1)^2
# and exp(x)-2x: the zeros of (1+x)e^x, 4x(x^2-1) and e^x-2.
CRITICAL_POINTS = {
    "xexp": (-1.0,),
    "quartic": (-1.0, 0.0, 1.0),
    "expm2x": (math.log(2.0),),
}


def near_critical(objective: str, t: float, tol: float) -> bool:
    """t lies within tol of a critical point of the objective."""
    return any(abs(t - c) <= tol for c in CRITICAL_POINTS[objective])


# Acceptance criterion 1 (order 4): canonical session values per mode.
SESSION_BINDINGS = {"a": (-1.0, 2.0), "b": (3.0, 4.0), "c": (3.0, 12.0)}
SESSION = {
    "a-a": ((0.0, 0.0), (-3.0, 3.0)),
    "a*b": ((-4.0, 8.0), (-4.0, 8.0)),
    "b*a": ((-4.0, 8.0), (-4.0, 8.0)),
    "b/b": ((1.0, 1.0), (1.0, 1.0)),
    "c+1": ((4.0, 13.0), (4.0, 13.0)),
    "a*(b+c)": ((-16.0, 32.0), (-16.0, 32.0)),
    "a*b+a*c": ((-16.0, 32.0), (-16.0, 32.0)),
    "(a+b)/c": ((0.5, 11 / 12), (0.5, 11 / 12)),
    "a/c+b/c": ((0.5, 11 / 12), (0.5, 11 / 12)),
    "a*(b-c)": ((-16.0, 8.0), (-28.0, 20.0)),
    "a*b-a*c": ((-16.0, 8.0), (-28.0, 20.0)),
    "(a-b)/c": ((-13 / 12, -1 / 6), (-5 / 6, -5 / 12)),
    "a/c-b/c": ((-13 / 12, -1 / 6), (-13 / 12, -1 / 6)),
    "a^2-2*a+1": ((-1.0, 2.0), (-7.0, 8.0)),
    "a*(a-2)+1": ((-1.0, 2.0), (-7.0, 8.0)),
    "(a-1)^2": ((-1.0, 2.0), (-7.0, 8.0)),
    "b^2-2*b+1": ((4.0, 9.0), (2.0, 11.0)),
    "b*(b-2)+1": ((4.0, 9.0), (2.0, 11.0)),
    "(b-1)^2": ((4.0, 9.0), (2.0, 11.0)),
}

# The paper's compare-mul ladder for [-2,3] x [-4,2]: (lo, hi, width) per row.
PAPER_LADDER = {
    "minkowski": (-12.0, 8.0, 20.0),
    "order-4": (-16.0, 14.0, 30.0),
    "order-5": (-12.0, 10.0, 22.0),
    "order-7": (-12.0, 8.0, 20.0),
}

# Paper demo matrices and the printed Schulz inverse at entry radius 0.01.
PAPER_2X2 = ((1.0, 2.0), (3.0, 4.0))
PAPER_3X3 = ((1.0, 4.0, 5.0), (4.0, 2.0, 6.0), (5.0, 6.0, 3.0))
PRINTED_INV_001 = (
    ((-0.267860324247, -0.267853946662), (0.160698378764, 0.160730266691), (0.124977730269, 0.125022373367)),
    ((0.160698378764, 0.160730266691), (-0.196508106182, -0.196348666547), (0.124888651345, 0.125111866834)),
    ((0.124977730269, 0.125022373367), (0.124888651345, 0.125111866834), (-0.125155888117, -0.124843386433)),
)
