"""Interval finite differences and scalar descent loops with full traces."""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Callable

from .algebra import AlgebraOrder, _check_count, _check_positive, _Record
from .errors import ConvergenceError, DomainError
from .interval import (
    ArithmeticMode,
    IntervalNumber,
    IterationRecord,
    _number,
    _point,
    _reciprocal,
    format_interval,
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

_NEWTON_EPS = 1e-10  # newton_raphson's eps; its other defaults are OptimizerConfig's


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


def _fd_style(x: IntervalNumber, h: float, style: FdStyle | str) -> FdStyle:
    """Check a finite difference's arguments and return ``FdStyle(style)``:
    x an interval number (TypeError), h as OptimizerConfig checks it, and
    full style only for x in true arithmetic.  A member passes without the
    enum lookup."""
    if not isinstance(x, IntervalNumber):
        raise TypeError(f"x must be an IntervalNumber, not {type(x).__name__}")
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


def _check_step(c: IntervalNumber, c_up, c_down, h: float) -> None:
    """Raise DomainError when c_up = c + h or c_down = c - h rounds back to
    c: the difference would be exactly 0, a false stationary point."""
    if c_up.coeffs == c.coeffs or c_down.coeffs == c.coeffs:
        raise DomainError(
            f"finite-difference step h={h!r} is lost next to "
            f"{format_interval(c.raw)}: adding or subtracting it rounds back"
        )


def fd_first(
    f: IntervalFunction,
    x: IntervalNumber,
    h: float = 1e-6,
    style: FdStyle | str = FdStyle.MIDPOINT,
) -> IntervalNumber:
    """Central first difference (f(x+h) - f(x-h)) / 2h.

    x must be an interval number (TypeError), h a positive, finite real and
    style an FdStyle member or its value; anything else raises ValueError.
    A step that rounds away next to the center raises DomainError.
    """
    return _first_difference(f, x, h, _fd_style(x, h, style))[3]


def _first_difference(f: IntervalFunction, x: IntervalNumber, h: float, style: FdStyle):
    """The center c, f(c+h), f(c-h) and fd_first's quotient, for arguments
    that ``_fd_style`` has checked."""
    c = _center(x, style)
    c_up, c_down = c + h, c - h
    up, down = f(c_up), f(c_down)
    fp = _quotient(up - down, 2.0 * h, x, style)
    _check_step(c, c_up, c_down, h)  # after the quotient, whose errors come first
    return c, up, down, fp


def _second_difference(up, down, fc, h2: float, x: IntervalNumber, style: FdStyle):
    """(f(c+h) + f(c-h) - 2 f(c)) / h^2 from the three values."""
    return _quotient(up + down - 2.0 * fc, h2, x, style)


def fd_second(
    f: IntervalFunction,
    x: IntervalNumber,
    h: float = 1e-6,
    style: FdStyle | str = FdStyle.MIDPOINT,
) -> IntervalNumber:
    """Central second difference (f(x+h) + f(x-h) - 2 f(x)) / h^2; a Newton
    step takes f(x+h) and f(x-h) from its stop test's first difference
    instead.  Its arguments are checked as ``fd_first``'s, and h*h must not
    underflow to 0."""
    style = _fd_style(x, h, style)
    h2 = _h_squared(h)
    c = _center(x, style)
    c_up, c_down = c + h, c - h
    d2 = _second_difference(f(c_up), f(c_down), f(c), h2, x, style)
    _check_step(c, c_up, c_down, h)
    return d2


def _descend(
    f: IntervalFunction,
    x0: IntervalNumber,
    cfg: OptimizerConfig,
    step: Callable[..., IntervalNumber],
) -> tuple[IterationRecord, ...]:
    """Trace x <- step(x, c, f(c+h), f(c-h), f'(x), f(x)) from x0 until
    norm(f'(x)) <= eps, or raise ConvergenceError after max_iter updates.

    Each pass evaluates f at c+h and c-h once, for the stop test's first
    difference, and hands those values and the trace row's f(x) to step.
    x0 and f(x0) must be interval numbers (TypeError); h and the style are
    checked once, after f(x0), since updates keep x0's mode and order.
    """
    if not isinstance(x0, IntervalNumber):
        raise TypeError(f"x0 must be an IntervalNumber, not {type(x0).__name__}")
    x, fx = x0, f(x0)
    if not isinstance(fx, IntervalNumber):
        raise TypeError(
            f"the objective must return an IntervalNumber, not {type(fx).__name__}"
        )
    trace = [IterationRecord(0, x.raw, fx.raw)]
    h, style = cfg.h, _fd_style(x, cfg.h, cfg.style)
    for k in range(1, cfg.max_iter + 2):  # the last pass only tests
        c, up, down, fp = _first_difference(f, x, h, style)
        if fp.norm <= cfg.eps:
            return tuple(trace)
        if k > cfg.max_iter:
            break
        x = step(x, c, up, down, fp, fx)
        fx = f(x)
        trace.append(IterationRecord(k, x.raw, fx.raw))
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
    trace) if max_iter updates do not reach the threshold, and DomainError
    when h rounds away next to an iterate, as ``fd_first`` does.
    """
    cfg = cfg or OptimizerConfig()

    def step(x: IntervalNumber, *_) -> IntervalNumber:
        # its own fd_first, not the stop test's: bench/tracer.py's self-check
        # pins 5 evaluations per gradient iteration
        return x - cfg.rho * fd_first(f, x, cfg.h, cfg.style)

    return _descend(f, x0, cfg, step)


def newton_raphson(
    f: IntervalFunction,
    x0: IntervalNumber,
    cfg: OptimizerConfig | None = None,
) -> tuple[IterationRecord, ...]:
    """Critical-point search x <- x - f'(x)/f''(x) until norm(f'(x)) <= eps.

    A step reuses the stop test's f(x+h), f(x-h) and first difference, and
    in full style the trace row's f(x); it evaluates f only at the midpoint
    in midpoint style, so an iteration makes 4 evaluations (midpoint) or 3
    (full).
    """
    cfg = cfg or OptimizerConfig(eps=_NEWTON_EPS)

    def step(x, c, up, down, fp, fx) -> IntervalNumber:
        h2 = _h_squared(cfg.h)
        fc = fx if c is x else f(c)  # full style differences at x itself
        return x - fp / _second_difference(up, down, fc, h2, x, cfg.style)

    return _descend(f, x0, cfg, step)
