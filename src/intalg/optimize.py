"""Interval finite differences and scalar descent loops with full traces."""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .algebra import _Record
from .errors import ConvergenceError
from .interval import ArithmeticMode, IntervalNumber, IterationRecord, interval

__all__ = [
    "FdStyle",
    "OptimizerConfig",
    "fd_first",
    "fd_second",
    "gradient_descent",
    "newton_raphson",
]

IntervalFunction = Callable[[IntervalNumber], IntervalNumber]


class FdStyle(Enum):
    """How finite differences are evaluated.

    MIDPOINT differences f at the degenerate center of the interval and
    returns a point interval, so descent iterates keep their width and the
    center tracks the classical derivative.  FULL differences f on the whole
    interval and keeps the interval quotient; it needs true arithmetic, where
    nearby evaluations cancel and widths can contract.
    """

    MIDPOINT = "midpoint"
    FULL = "full"


class OptimizerConfig(_Record):
    h: float = 1e-6
    rho: float = 1e-2
    eps: float = 1e-6
    max_iter: int = 100_000
    style: FdStyle = FdStyle.MIDPOINT

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _check_style(x: IntervalNumber, style: FdStyle) -> None:
    if style is FdStyle.FULL and x.mode is not ArithmeticMode.TRUE:
        raise ValueError("full-style finite differences require true arithmetic")


def _center(x: IntervalNumber) -> IntervalNumber:
    return interval(x.midpoint, order=x.order, mode=x.mode)


def fd_first(
    f: IntervalFunction,
    x: IntervalNumber,
    h: float = 1e-6,
    style: FdStyle = FdStyle.MIDPOINT,
) -> IntervalNumber:
    """Central first difference (f(x+h) - f(x-h)) / 2h."""
    _check_style(x, style)
    if style is FdStyle.MIDPOINT:
        c = _center(x)
        d = f(c + h) - f(c - h)
        return interval(d.midpoint / (2.0 * h), order=x.order, mode=x.mode)
    d = f(x + h) - f(x - h)
    return d / interval(2.0 * h, order=x.order, mode=x.mode)


def fd_second(
    f: IntervalFunction,
    x: IntervalNumber,
    h: float = 1e-6,
    style: FdStyle = FdStyle.MIDPOINT,
) -> IntervalNumber:
    """Central second difference (f(x+h) + f(x-h) - 2 f(x)) / h^2."""
    _check_style(x, style)
    if style is FdStyle.MIDPOINT:
        c = _center(x)
        s = f(c + h) + f(c - h) - 2.0 * f(c)
        return interval(s.midpoint / (h * h), order=x.order, mode=x.mode)
    s = f(x + h) + f(x - h) - 2.0 * f(x)
    return s / interval(h * h, order=x.order, mode=x.mode)


def _descend(
    f: IntervalFunction,
    x0: IntervalNumber,
    cfg: OptimizerConfig,
    step: Callable[[IntervalNumber], IntervalNumber],
) -> tuple[IterationRecord, ...]:
    x = x0
    trace = [IterationRecord(0, x.raw, f(x).raw)]
    for k in range(1, cfg.max_iter + 1):
        fp = fd_first(f, x, cfg.h, cfg.style)
        if fp.norm <= cfg.eps:
            return tuple(trace)
        x = step(x)
        trace.append(IterationRecord(k, x.raw, f(x).raw))
    fp = fd_first(f, x, cfg.h, cfg.style)
    if fp.norm <= cfg.eps:
        return tuple(trace)
    raise ConvergenceError(
        f"no convergence after {cfg.max_iter} iterations "
        f"(derivative norm {fp.norm:.3e} > {cfg.eps:.3e})",
        trace=tuple(trace),
        residual=fp.norm,
    )


def gradient_descent(
    f: IntervalFunction,
    x0: IntervalNumber,
    cfg: OptimizerConfig | None = None,
) -> tuple[IterationRecord, ...]:
    """Fixed-step descent x <- x - rho * f'(x) until norm(f'(x)) <= eps.

    The last trace row is the answer.  Raises ConvergenceError (carrying the
    trace) if max_iter updates do not reach the threshold.
    """
    cfg = cfg or OptimizerConfig()

    def step(x: IntervalNumber) -> IntervalNumber:
        return x - cfg.rho * fd_first(f, x, cfg.h, cfg.style)

    return _descend(f, x0, cfg, step)


def newton_raphson(
    f: IntervalFunction,
    x0: IntervalNumber,
    cfg: OptimizerConfig | None = None,
) -> tuple[IterationRecord, ...]:
    """Critical-point search x <- x - f'(x)/f''(x) until norm(f'(x)) <= eps."""
    cfg = cfg or OptimizerConfig(eps=1e-10)

    def step(x: IntervalNumber) -> IntervalNumber:
        fp = fd_first(f, x, cfg.h, cfg.style)
        fpp = fd_second(f, x, cfg.h, cfg.style)
        return x - fp / fpp

    return _descend(f, x0, cfg, step)
