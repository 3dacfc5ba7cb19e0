import math

import pytest

import intalg as ia
from intalg import (
    ArithmeticMode,
    ConvergenceError,
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


def test_config_validation():
    nan, inf = math.nan, math.inf
    for bad in (
        dict(h=0), dict(rho=-1), dict(eps=0), dict(max_iter=0),
        dict(h=nan), dict(rho=nan), dict(eps=nan), dict(h=inf), dict(rho=inf),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            OptimizerConfig(**bad)


@pytest.mark.parametrize("style", (FdStyle.MIDPOINT, FdStyle.FULL))
def test_fd_second_rejects_h_whose_square_underflows(style):
    with pytest.raises(ValueError, match="h=1e-200"):
        fd_second(square, interval(1, 1), 1e-200, style)


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
