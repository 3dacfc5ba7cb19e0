"""Interval finite differences and scalar descent loops with full traces."""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Callable

from .algebra import AlgebraOrder, _check_count, _Record
from .errors import ConvergenceError
from .interval import (
    ArithmeticMode,
    IntervalNumber,
    IterationRecord,
    _number,
    _point,
    _reciprocal,
)

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
        _check_positive("h", self.h)
        _check_positive("rho", self.rho)
        _check_positive("eps", self.eps, finite=False)
        _check_count("max_iter", self.max_iter)
        object.__setattr__(self, "style", FdStyle(self.style))


def _check_positive(name: str, value, finite: bool = True) -> None:
    """Raise ValueError, naming the argument, unless value is a real number
    (a bool is not one here) above 0, and finite unless told otherwise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    # each test is written so that NaN fails it
    if finite:
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    elif not value > 0:
        raise ValueError(f"{name} must be positive")


def _fd_style(x: IntervalNumber, h: float, style: FdStyle | str) -> FdStyle:
    """Check a finite difference's arguments and return ``FdStyle(style)``:
    h as OptimizerConfig checks it, and full style only for x in true
    arithmetic.  A member passes without the enum lookup."""
    _check_positive("h", h)
    if style.__class__ is not FdStyle:
        style = FdStyle(style)
    if style is FdStyle.FULL and x.mode is not ArithmeticMode.TRUE:
        raise ValueError("full-style finite differences require true arithmetic")
    return style


def _center(x: IntervalNumber, style: FdStyle) -> IntervalNumber:
    return _point(x.midpoint, x.order, x.mode) if style is FdStyle.MIDPOINT else x


def _quotient(d: IntervalNumber, q: float, x: IntervalNumber, style: FdStyle):
    """d / q at x's order and mode; in midpoint style, the point d.midpoint / q."""
    if style is FdStyle.MIDPOINT:
        return _point(d.midpoint / q, x.order, x.mode)
    return d * _inverse_point(q, x.order)


@lru_cache(maxsize=16)
def _inverse_point(q: float, order: AlgebraOrder) -> IntervalNumber:
    """1 / [q, q] in true arithmetic, the only mode full style runs in.

    A full-style run divides by the same [2h, 2h] and [h*h, h*h] on every
    iteration; ``/`` multiplies by this same reciprocal, so the product with
    the stored one has the same bits.  A failed inverse is not stored: each
    call raises it again, against the divisor [q, q], as ``/`` would.
    """
    p = _point(q, order, ArithmeticMode.TRUE)
    return _number(ArithmeticMode.TRUE, order, _reciprocal(p))


def _h_squared(h: float) -> float:
    h2 = h * h
    if h2 == 0.0:
        raise ValueError(f"h={h!r} is too small for a second difference: h*h is 0")
    return h2


def fd_first(
    f: IntervalFunction,
    x: IntervalNumber,
    h: float = 1e-6,
    style: FdStyle | str = FdStyle.MIDPOINT,
) -> IntervalNumber:
    """Central first difference (f(x+h) - f(x-h)) / 2h.

    h must be a positive, finite real and style an FdStyle member or its
    value; anything else raises ValueError.
    """
    style = _fd_style(x, h, style)
    c = _center(x, style)
    return _quotient(f(c + h) - f(c - h), 2.0 * h, x, style)


def fd_second(
    f: IntervalFunction,
    x: IntervalNumber,
    h: float = 1e-6,
    style: FdStyle | str = FdStyle.MIDPOINT,
) -> IntervalNumber:
    """Central second difference (f(x+h) + f(x-h) - 2 f(x)) / h^2; a Newton
    step shares f(x+h) and f(x-h) with its first difference.  Its arguments
    are checked as ``fd_first``'s, and h*h must not underflow to 0."""
    style = _fd_style(x, h, style)
    h2 = _h_squared(h)
    c = _center(x, style)
    return _quotient(f(c + h) + f(c - h) - 2.0 * f(c), h2, x, style)


def _descend(
    f: IntervalFunction,
    x0: IntervalNumber,
    cfg: OptimizerConfig,
    step: Callable[[IntervalNumber], IntervalNumber],
) -> tuple[IterationRecord, ...]:
    x = x0
    trace = [IterationRecord(0, x.raw, f(x).raw)]
    for k in range(1, cfg.max_iter + 2):  # the last pass only tests
        fp = fd_first(f, x, cfg.h, cfg.style)
        if fp.norm <= cfg.eps:
            return tuple(trace)
        if k > cfg.max_iter:
            break
        x = step(x)
        trace.append(IterationRecord(k, x.raw, f(x).raw))
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
    """Critical-point search x <- x - f'(x)/f''(x) until norm(f'(x)) <= eps; a
    step evaluates f once each at x+h, x-h and x for both differences."""
    cfg = cfg or OptimizerConfig(eps=1e-10)

    def step(x: IntervalNumber) -> IntervalNumber:
        h2 = _h_squared(cfg.h)
        c = _center(x, cfg.style)
        up, down = f(c + cfg.h), f(c - cfg.h)
        fp = _quotient(up - down, 2.0 * cfg.h, x, cfg.style)
        fpp = _quotient(up + down - 2.0 * f(c), h2, x, cfg.style)
        return x - fp / fpp

    return _descend(f, x0, cfg, step)
