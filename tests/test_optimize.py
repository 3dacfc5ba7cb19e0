import math
import random
import sys

import pytest
from helpers import (
    bits,
    reference_fd_first,
    reference_fd_second,
    reference_gradient_descent,
    reference_newton_raphson,
)

import intalg as ia
from intalg import (
    ArithmeticMode,
    ConvergenceError,
    DomainError,
    FdStyle,
    OptimizerConfig,
    fd_first,
    fd_second,
    gradient_descent,
    interval,
    newton_raphson,
    write_trace_csv,
)

TRUE = ArithmeticMode.TRUE
SEM = ArithmeticMode.SEMANTIC


def xexp(x):
    return x * ia.exp(x)


def square(x):
    return x**2


def quartic(x):
    return (x**2 - 1) ** 2


def expm2x(x):
    return ia.exp(x) - 2 * x


class Counted:
    """An objective that counts its evaluations."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def trace_bits(trace):
    return [(r.index, bits((r.x.lo, r.x.hi, r.fx.lo, r.fx.hi))) for r in trace]


# -- finite differences ---------------------------------------------------------

@pytest.mark.parametrize("style", (FdStyle.MIDPOINT, FdStyle.FULL))
def test_fd_first_xexp_at_2(style):
    # analytic derivative of x e^x is (1 + x) e^x
    got = fd_first(xexp, interval(2, 2), 1e-6, style)
    assert abs(got.midpoint - 3 * math.exp(2)) < 1e-4


@pytest.mark.parametrize("style", (FdStyle.MIDPOINT, FdStyle.FULL))
@pytest.mark.parametrize("c", (-1.5, 0.25, 3.0))
def test_fd_first_square(style, c):
    got = fd_first(square, interval(c, c), 1e-6, style)
    assert abs(got.midpoint - 2 * c) < 1e-8


def test_fd_second_square_is_two():
    got = fd_second(square, interval(1, 1), 1e-4)
    assert abs(got.midpoint - 2.0) < 1e-6


def test_fd_full_constant_cancels_exactly():
    const = lambda x: interval(3.5, order=x.order, mode=x.mode) * 1.0 + 0.0
    got = fd_first(const, interval(1, 2), 1e-6, FdStyle.FULL)
    assert got.raw == ia.GeneralizedInterval(0, 0)
    assert got.element.coeffs == (0.0, 0.0, 0.0, 0.0)


def test_fd_accuracy_improves_with_h():
    # truncation is O(h^2); at h=1e-6 rounding dominates but stays below the
    # h=1e-4 truncation error
    analytic = 3 * math.exp(2)
    errs = {
        h: abs(fd_first(xexp, interval(2, 2), h).midpoint - analytic)
        for h in (1e-4, 1e-6)
    }
    assert errs[1e-4] < 10 * (1e-4) ** 2 * 4 * math.exp(2)
    assert errs[1e-6] <= errs[1e-4]


def test_fd_full_requires_true_mode():
    with pytest.raises(ValueError):
        fd_first(square, interval(1, 2, mode=SEM), 1e-6, FdStyle.FULL)
    assert fd_first(square, interval(1, 1, mode=SEM), 1e-6).midpoint == pytest.approx(2.0)


@pytest.mark.parametrize("fd", (fd_first, fd_second))
@pytest.mark.parametrize("h", (0.0, -1e-6, math.nan, math.inf, True, "1e-6", None))
def test_fd_rejects_a_step_that_is_not_a_positive_finite_real(fd, h):
    # h = 0 once raised a bare ZeroDivisionError in midpoint style
    for style in FdStyle:
        f = Counted(xexp)
        with pytest.raises(ValueError, match="h must be"):
            fd(f, interval(2, eps=0.1), h, style)
        assert f.calls == 0


@pytest.mark.parametrize("fd", (fd_first, fd_second))
def test_fd_style_is_an_fd_style_member_or_its_value(fd):
    x = interval(2, eps=0.1)
    for value, member in (("midpoint", FdStyle.MIDPOINT), ("full", FdStyle.FULL)):
        got = fd(xexp, x, 1e-6, value)
        assert bits(got.coeffs) == bits(fd(xexp, x, 1e-6, member).coeffs)
    for bad in ("MIDPOINT", "Full", None, 0):
        with pytest.raises(ValueError):
            fd(xexp, x, 1e-6, bad)
    # the full style's true-mode check sees the value too
    with pytest.raises(ValueError, match="true arithmetic"):
        fd(xexp, interval(2, eps=0.1, mode=SEM), 1e-6, "full")


def test_config_style_is_an_fd_style_member_or_its_value():
    assert OptimizerConfig(style="midpoint").style is FdStyle.MIDPOINT
    assert OptimizerConfig(style="full").style is FdStyle.FULL
    for bad in ("MIDPOINT", None, 1):
        with pytest.raises(ValueError):
            OptimizerConfig(style=bad)
    # the value "midpoint" keeps the point iterates of midpoint style
    x0 = interval(2, eps=0.1)
    want = trace_bits(gradient_descent(xexp, x0))
    assert trace_bits(gradient_descent(xexp, x0, OptimizerConfig(style="midpoint"))) == want


@pytest.mark.parametrize("fd, h, q", ((fd_first, 1e-320, 2e-320), (fd_second, 1e-160, 1e-320)))
def test_full_style_divisor_without_a_float_inverse(fd, h, q):
    # [q, q] = [2h, 2h] or [h*h, h*h] has no float inverse; each call raises
    # the error of dividing by it after the same evaluations, every time
    with pytest.raises(DomainError) as direct:
        interval(1.0) / q
    for _ in range(2):
        f = Counted(xexp)
        with pytest.raises(DomainError) as exc:
            fd(f, interval(2, eps=0.1), h, FdStyle.FULL)
        assert str(exc.value) == str(direct.value)
        assert f.calls == (2 if fd is fd_first else 3)


def test_full_style_gradient_inverts_its_divisor_once(monkeypatch):
    # 300 iterations divide by [2h, 2h] 600 times; the inverse is taken once,
    # or not at all when an earlier run at the same h stored it
    module = sys.modules["intalg.interval"]
    inverted = []

    def counting_inv(u):
        inverted.append(u.coeffs)
        return ia.alg_inv(u)

    monkeypatch.setattr(module, "alg_inv", counting_inv)
    cfg = OptimizerConfig(h=3e-6, max_iter=300, style=FdStyle.FULL)
    try:
        trace = gradient_descent(xexp, interval(2, eps=0.1), cfg)
    except ConvergenceError as exc:
        trace = exc.trace
    assert trace[-1].index > 100
    assert len(inverted) <= 1


def test_config_validation():
    nan, inf = math.nan, math.inf
    for bad in (
        dict(h=0), dict(rho=-1), dict(eps=0), dict(max_iter=0),
        dict(h=nan), dict(rho=nan), dict(eps=nan), dict(h=inf), dict(rho=inf),
        dict(max_iter=2.5), dict(max_iter=3.0), dict(max_iter=True), dict(max_iter="3"),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            OptimizerConfig(**bad)


@pytest.mark.parametrize("style", (FdStyle.MIDPOINT, FdStyle.FULL))
def test_fd_second_rejects_h_whose_square_underflows(style):
    with pytest.raises(ValueError, match="h=1e-200"):
        fd_second(square, interval(1, 1), 1e-200, style)


@pytest.mark.parametrize("style", (FdStyle.MIDPOINT, FdStyle.FULL))
@pytest.mark.parametrize("f", (xexp, quartic, expm2x))
def test_fd_values_match_reference_bit_for_bit(style, f):
    rng = random.Random(31)
    for _ in range(20):
        x = interval(rng.uniform(-2.0, 2.0), eps=rng.choice((0.0, 0.05, 0.1)))
        h = rng.choice((1e-6, 1e-4, 1e-3))
        for got, want in (
            (fd_first(f, x, h, style), reference_fd_first(f, x, h, style)),
            (fd_second(f, x, h, style), reference_fd_second(f, x, h, style)),
        ):
            assert bits(got.element.coeffs) == bits(want.element.coeffs)


@pytest.mark.parametrize("style", (FdStyle.MIDPOINT, FdStyle.FULL))
def test_fd_evaluation_counts(style):
    f = Counted(xexp)
    fd_first(f, interval(2, eps=0.1), 1e-6, style)
    assert f.calls == 2
    f = Counted(xexp)
    fd_second(f, interval(2, eps=0.1), 1e-6, style)
    assert f.calls == 3


def _evaluations(method, f, cfg):
    counted = Counted(f)
    try:
        method(counted, interval(2, eps=0.1), cfg)
    except ConvergenceError:
        pass
    return counted.calls


def test_gradient_iteration_costs_five_evaluations():
    # the stopping test's two, the update's two and the trace's f(x); the
    # benchmark tracer's self-check counts the same
    calls = [_evaluations(gradient_descent, xexp, OptimizerConfig(max_iter=n)) for n in (1, 2)]
    assert calls[1] - calls[0] == 5


@pytest.mark.parametrize("style", (FdStyle.MIDPOINT, FdStyle.FULL))
def test_newton_iteration_costs_six_evaluations(style):
    # the stopping test's two, one each at x+h, x-h and x for both
    # differences of the step, and the trace's f(x)
    calls = [
        _evaluations(newton_raphson, quartic, OptimizerConfig(eps=1e-10, max_iter=n, style=style))
        for n in (1, 2)
    ]
    assert calls[1] - calls[0] == 6


# -- gradient descent -----------------------------------------------------------

def test_gradient_midpoint_style_converges_keeping_width():
    trace = gradient_descent(xexp, interval(2, eps=0.1))
    last = trace[-1]
    assert abs(last.x.midpoint - (-1.0)) < 1e-3
    assert abs(last.x.width - 0.2) < 0.02
    assert [r.index for r in trace] == list(range(len(trace)))
    fp = fd_first(xexp, interval(last.x.lo, last.x.hi), 1e-6)
    assert fp.norm <= 1e-6


def test_gradient_full_style_shrinks_width():
    cfg = OptimizerConfig(style=FdStyle.FULL)
    trace = gradient_descent(xexp, interval(2, eps=0.1), cfg)
    last = trace[-1]
    assert abs(last.x.midpoint - (-1.0)) < 1e-3
    assert last.x.width < 1e-6


def test_gradient_stationary_start_stops_immediately():
    trace = gradient_descent(xexp, interval(-1, -1))
    assert len(trace) == 1 and trace[0].index == 0
    assert abs(trace[0].x.midpoint - (-1.0)) < 1e-9


def test_gradient_descent_midpoints_decrease_towards_minimum():
    trace = gradient_descent(xexp, interval(2, eps=0.1))
    mids = [r.x.midpoint for r in trace]
    assert all(a > b for a, b in zip(mids, mids[1:]))
    assert mids[0] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "method, f, cfg",
    (
        (gradient_descent, square, OptimizerConfig(rho=0.25)),
        (newton_raphson, quartic, OptimizerConfig(eps=1e-10)),
        (newton_raphson, quartic, OptimizerConfig(eps=1e-10, style=FdStyle.FULL)),
    ),
)
def test_descent_converges_on_its_last_allowed_update(method, f, cfg):
    # a run that needs n updates succeeds with max_iter=n, and with one
    # fewer fails carrying the same trace less its last row
    x0 = interval(2, eps=0.1)
    trace = method(f, x0, cfg)
    n = trace[-1].index
    assert n > 1
    exact = OptimizerConfig(cfg.h, cfg.rho, cfg.eps, n, cfg.style)
    assert trace_bits(method(f, x0, exact)) == trace_bits(trace)
    short = OptimizerConfig(cfg.h, cfg.rho, cfg.eps, n - 1, cfg.style)
    with pytest.raises(ConvergenceError) as exc:
        method(f, x0, short)
    assert trace_bits(exc.value.trace) == trace_bits(trace[:-1])
    assert exc.value.residual > cfg.eps


def test_gradient_max_iter_error_carries_trace():
    cfg = OptimizerConfig(max_iter=3)
    with pytest.raises(ConvergenceError) as exc:
        gradient_descent(xexp, interval(2, eps=0.1), cfg)
    assert len(exc.value.trace) == 4  # start plus three updates
    assert exc.value.trace[-1].index == 3


# -- Newton-Raphson ---------------------------------------------------------------

def test_newton_xexp_reference():
    trace = newton_raphson(xexp, interval(2, eps=0.1))
    last = trace[-1]
    assert last.index <= 50
    assert abs(last.x.midpoint - (-1.0)) < 1e-6


def test_newton_on_square_is_one_step():
    # exact Newton is one-step on a quadratic; the fd version reproduces it
    # to the cancellation noise of the second difference (~eps/h^2)
    trace = newton_raphson(square, interval(1, 1), OptimizerConfig(h=1e-4, eps=1e-10))
    assert abs(trace[1].x.midpoint) < 1e-6


def test_newton_quartic_critical_points():
    cfg = OptimizerConfig(eps=1e-10, style=FdStyle.FULL)
    for start, target in ((-2.0, -1.0), (0.3, 0.0), (2.0, 1.0)):
        trace = newton_raphson(
            lambda x: (x**2 - 1) ** 2, interval(start, eps=0.1), cfg
        )
        assert abs(trace[-1].x.midpoint - target) < 1e-6


@pytest.mark.parametrize("style", (FdStyle.MIDPOINT, FdStyle.FULL))
@pytest.mark.parametrize("f", (xexp, quartic, expm2x))
def test_newton_traces_match_reference_bit_for_bit(style, f):
    rng = random.Random(17)
    for _ in range(6):
        x0 = interval(round(rng.uniform(-2.0, 2.0), 3), eps=rng.choice((0.0, 0.05, 0.1)))
        cfg = OptimizerConfig(h=rng.choice((1e-6, 1e-4)), eps=1e-10, max_iter=60, style=style)
        want = trace_bits(reference_newton_raphson(f, x0, cfg))
        assert trace_bits(newton_raphson(f, x0, cfg)) == want


# (start range, rho range) per objective, where fixed-step descent converges
# in both styles
_GRADIENT_STARTS = {
    xexp: ((-1.5, 2.0), (0.05, 0.3)),
    quartic: ((0.3, 1.6), (0.02, 0.12)),
    expm2x: ((-1.5, 2.0), (0.1, 0.8)),
}


@pytest.mark.parametrize("style", (FdStyle.MIDPOINT, FdStyle.FULL))
@pytest.mark.parametrize("f", (xexp, quartic, expm2x))
def test_gradient_traces_match_reference_bit_for_bit(style, f):
    rng = random.Random(29)
    (slo, shi), (rlo, rhi) = _GRADIENT_STARTS[f]
    # full style divides, which only order 4 can
    orders = (4,) if style is FdStyle.FULL else (4, 5, 7)
    for _ in range(6):
        x0 = interval(
            round(rng.uniform(slo, shi), 3),
            eps=rng.choice((0.0, 0.05, 0.1)),
            order=rng.choice(orders),
        )
        cfg = OptimizerConfig(
            h=rng.choice((1e-6, 1e-4)),
            rho=round(rng.uniform(rlo, rhi), 3),
            max_iter=60,
            style=style,
        )
        try:
            got = gradient_descent(f, x0, cfg)
        except ConvergenceError as exc:
            got = exc.trace
        assert trace_bits(got) == trace_bits(reference_gradient_descent(f, x0, cfg))


@pytest.mark.parametrize("style", (FdStyle.MIDPOINT, FdStyle.FULL))
def test_newton_rejects_h_whose_square_underflows(style):
    # the step checks h*h as fd_second does: at 0, f(h) - f(-h) of x e^x
    # does not vanish although h*h does
    with pytest.raises(ValueError, match="h=1e-170"):
        newton_raphson(xexp, interval(0.0), OptimizerConfig(h=1e-170, style=style))


# -- trace CSV --------------------------------------------------------------------

def test_write_trace_csv(tmp_path):
    trace = gradient_descent(xexp, interval(2, eps=0.1), OptimizerConfig(eps=1e-2))
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,x_lo,x_hi,x_mid,x_width,f_lo,f_hi"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1.9" and first[2] == "2.1"
    assert first[4] == "0.2"
