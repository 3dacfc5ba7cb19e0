"""Command-line front end: calculator, product comparison, optimizers, linalg demos."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .algebra import AlgebraOrder
from .errors import ConvergenceError, DomainError, IntalgError, NotInvertibleError
from .exprcalc import evaluate, parse
from .interval import (
    ArithmeticMode,
    GeneralizedInterval,
    _option_reader,
    format_interval,
    format_number,
    interval,
    mink_mul,
    parse_interval_literal,
    write_trace_csv,
)
from .linalg import (
    _SCHULZ_MAX_ITER,
    _SCHULZ_TOL,
    IntervalMatrix,
    IntervalVector,
    format_matrix,
    matmul,
    parse_matrix_text,
    power_iterate,
    schulz_invert,
)
from .optimize import _NEWTON_EPS, FdStyle, OptimizerConfig, gradient_descent, newton_raphson

_ALGO_ERRORS = (ConvergenceError, NotInvertibleError, DomainError)

DEMO_MATRICES = {
    "paper2x2": ((1.0, 2.0), (3.0, 4.0)),
    "paper3x3": ((1.0, 4.0, 5.0), (4.0, 2.0, 6.0), (5.0, 6.0, 3.0)),
}


def _fmt(args, x) -> str:
    return format_interval(x.raw, raw=args.raw)


def _flag_number(text: str) -> float:
    """argparse type of the real-valued flags: signs and one finite number, as
    option literals spell them, so '1_0e-6', 'nan' and 'inf' are bad input."""
    try:
        reader = _option_reader(text)
        value = reader.signed_number()
        if math.isfinite(value) and not reader.peek():
            return value
    except IntalgError:  # the reader's ExprSyntaxError
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _flag_count(text: str) -> int:
    """argparse type of the counts and --order: read as _flag_number reads, and whole."""
    value = _flag_number(text)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"expected a finite whole number, got {text!r}")
    return int(value)


def _parse_binding(text: str) -> tuple[str, tuple[float, float]]:
    name, sep, literal = text.partition("=")
    name = name.strip()
    if not sep or not name.isidentifier():
        raise ValueError(f"invalid binding {text!r}; expected NAME=INTERVAL")
    return name, parse_interval_literal(literal.strip())


def _cmd_calc(args) -> int:
    mode = ArithmeticMode(args.mode)
    bindings = {}
    for binding in args.let or []:
        name, (lo, hi) = _parse_binding(binding)
        bindings[name] = interval(lo, hi, order=args.order, mode=mode)
    ast = parse(args.expr)
    result = evaluate(ast, bindings, mode=mode, order=args.order)
    if not (math.isfinite(result.min) and math.isfinite(result.max)):
        raise DomainError("the result overflows: an endpoint is not finite")
    print(_fmt(args, result))
    return 0


def _cmd_compare_mul(args) -> int:
    x = parse_interval_literal(args.x)
    y = parse_interval_literal(args.y)
    if x[0] > x[1] or y[0] > y[1]:
        raise ValueError("compare-mul needs proper intervals")
    rows = [("minkowski", mink_mul(GeneralizedInterval(*x), GeneralizedInterval(*y)))]
    for order in (4, 5, 7):
        prod = interval(*x, order=order) * interval(*y, order=order)
        rows.append((f"order-{order}", prod.raw))
    if not all(math.isfinite(g.lo) and math.isfinite(g.hi) for _, g in rows):
        raise DomainError("the product overflows: an endpoint is not finite")
    for label, g in rows:
        c = g.canonical
        print(
            f"{label:<10} {format_interval(g, raw=args.raw):<32} "
            f"width {format_number(c.width)}"
        )
    return 0


def _make_function(expr_text: str, mode: ArithmeticMode, order: int):
    ast = parse(expr_text)

    def f(x):
        return evaluate(ast, {"x": x}, mode=mode, order=order)

    return f


def _run_optimizer(args) -> int:
    mode = ArithmeticMode(args.mode)
    f = _make_function(args.expr, mode, args.order)
    lo, hi = parse_interval_literal(args.x0)
    x0 = interval(lo, hi, order=args.order, mode=mode)
    # the optimizer flags are named after the config fields they set
    cfg = OptimizerConfig(**{name: getattr(args, name) for name in OptimizerConfig._fields})
    trace = None
    try:
        trace = args.runner(f, x0, cfg)
    except ConvergenceError as err:
        trace = err.trace
        raise
    finally:
        if args.csv and trace:
            write_trace_csv(args.csv, trace)
    last = trace[-1]
    print(f"final: {format_interval(last.x, raw=args.raw)}")
    print(f"iterations: {last.index}")
    return 0


def _load_matrix(args) -> IntervalMatrix:
    mode = ArithmeticMode(args.mode)
    if args.file:
        if args.eps is not None:
            raise ValueError("--eps is the entry radius of --demo matrices, not of --file")
        text = Path(args.file).read_text(encoding="utf-8")
        return parse_matrix_text(text, order=args.order, mode=mode)
    centers = DEMO_MATRICES[args.demo]
    eps = 0.0 if args.eps is None else args.eps
    return IntervalMatrix(
        [
            [interval(c, eps=eps, order=args.order, mode=mode) for c in row]
            for row in centers
        ]
    )


def _cmd_eigen(args) -> int:
    m = _load_matrix(args)
    n = m.shape[0]
    u0 = IntervalVector(
        [interval(1.0, order=args.order, mode=m.mode) for _ in range(n)]
    )
    result = power_iterate(m, u0, args.iters)
    if args.csv:
        write_trace_csv(args.csv, result.trace)
    print(f"eigenvalue: {_fmt(args, result.eigenvalue)}")
    print("eigenvector:")
    for entry in result.eigenvector:
        print(f"  {_fmt(args, entry)}")
    print(f"iterations: {args.iters}")
    return 0


def _cmd_invert(args) -> int:
    m = _load_matrix(args)
    inv = schulz_invert(m, tol=args.tol, max_iter=args.max_iter)
    inv_inv = schulz_invert(inv, tol=args.tol, max_iter=args.max_iter)
    print(f"M= {format_matrix(m, raw=args.raw)}")
    print(f"Inverse matrix = {format_matrix(inv, raw=args.raw)}")
    print(f"M^(-1)*M= {format_matrix(matmul(inv, m), raw=args.raw)}")
    print(f"M*M^(-1)= {format_matrix(matmul(m, inv), raw=args.raw)}")
    print(f"(M^(-1))^(-1)= {format_matrix(inv_inv, raw=args.raw)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intalg",
        description=(
            "Interval arithmetic in associative algebras: distributive products, "
            "two subtraction semantics, interval linear algebra and optimization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Shared flags as parent parsers.  compare-mul takes only --raw: it shows
    # every order, and a product is the same in both modes.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--mode",
        choices=[m.value for m in ArithmeticMode],
        default=ArithmeticMode.TRUE.value,
        help="arithmetic mode (default: true)",
    )
    common.add_argument(
        "--order",
        type=_flag_count,
        choices=[int(o) for o in AlgebraOrder],
        default=4,
        help="algebra order (default: 4; division needs 4)",
    )
    raw = argparse.ArgumentParser(add_help=False)
    raw.add_argument(
        "--raw",
        action="store_true",
        help="print raw (lo,hi) pairs instead of canonical [min,max]",
    )

    p = sub.add_parser(
        "calc", parents=[common, raw], help="evaluate an interval expression"
    )
    p.add_argument(
        "--let",
        action="append",
        metavar="NAME=INTERVAL",
        help="bind a variable, e.g. --let a=[-1,2] (repeatable)",
    )
    p.add_argument("expr", help="expression, e.g. 'a*b+a*c'")
    p.set_defaults(handler=_cmd_calc, algo_exit=2)

    p = sub.add_parser(
        "compare-mul",
        parents=[raw],
        help="compare a product across the set extension and all orders",
    )
    p.add_argument("--x", required=True, help="left factor, e.g. [-2,3]")
    p.add_argument("--y", required=True, help="right factor, e.g. [-4,2]")
    p.set_defaults(handler=_cmd_compare_mul, algo_exit=2)

    optimizer = argparse.ArgumentParser(add_help=False, parents=[common, raw])
    optimizer.add_argument("--expr", required=True, help="objective, e.g. 'x*exp(x)'")
    optimizer.add_argument("--x0", required=True, help="start interval, e.g. 2±0.1")
    optimizer.add_argument(
        "--h", type=_flag_number, default=OptimizerConfig.h, help="finite-difference step"
    )
    optimizer.add_argument(
        "--style",
        choices=[s.value for s in FdStyle],
        default=OptimizerConfig.style.value,
        help="finite-difference style",
    )
    optimizer.add_argument("--max-iter", type=_flag_count, default=OptimizerConfig.max_iter)
    optimizer.add_argument("--csv", help="write the iteration trace to this path")
    optimizer.set_defaults(handler=_run_optimizer, algo_exit=3)
    p = sub.add_parser(
        "gradient", parents=[optimizer], help="run gradient on an expression in x"
    )
    p.add_argument("--rho", type=_flag_number, default=OptimizerConfig.rho, help="step size")
    p.add_argument(
        "--eps", type=_flag_number, default=OptimizerConfig.eps, help="derivative-norm stop"
    )
    p.set_defaults(runner=gradient_descent)
    p = sub.add_parser(
        "newton", parents=[optimizer], help="run newton on an expression in x"
    )
    p.add_argument("--eps", type=_flag_number, default=_NEWTON_EPS, help="derivative-norm stop")
    p.set_defaults(runner=newton_raphson, rho=OptimizerConfig.rho)

    matrix = argparse.ArgumentParser(add_help=False, parents=[common, raw])
    src = matrix.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="matrix file (rows of interval literals)")
    src.add_argument("--demo", choices=sorted(DEMO_MATRICES))
    matrix.add_argument(
        "--eps",
        type=_flag_number,
        help="entry radius for --demo matrices (default: 0)",
    )
    matrix.set_defaults(algo_exit=3)
    p = sub.add_parser(
        "eigen", parents=[matrix], help="power iteration on an interval matrix"
    )
    p.add_argument("--iters", type=_flag_count, default=10)
    p.add_argument("--csv", help="write per-iteration eigenvalue bounds")
    p.set_defaults(handler=_cmd_eigen)
    p = sub.add_parser(
        "invert",
        parents=[matrix],
        help="Schulz-Hotelling inversion of an interval matrix",
    )
    p.add_argument("--tol", type=_flag_number, default=_SCHULZ_TOL)
    p.add_argument("--max-iter", type=_flag_count, default=_SCHULZ_MAX_ITER)
    p.set_defaults(handler=_cmd_invert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _ALGO_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return args.algo_exit
    except (IntalgError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
