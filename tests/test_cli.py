import pytest

import intalg as ia
from intalg import cli
from intalg.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# Every interval-valued print of the reference sessions, as calc invocations.
LETS = ("--let", "a=[-1,2]", "--let", "b=[3,4]", "--let", "c=[3,12]")
GOLDEN = [
    ("true", "a-a", "[0.0,0.0]"),
    ("true", "a*b", "[-4.0,8.0]"),
    ("true", "b*a", "[-4.0,8.0]"),
    ("true", "b/b", "[1.0,1.0]"),
    ("true", "c+1", "[4.0,13.0]"),
    ("true", "a*(b+c)", "[-16.0,32.0]"),
    ("true", "a*b+a*c", "[-16.0,32.0]"),
    ("true", "(a+b)/c", "[0.5,0.916666666667]"),
    ("true", "a/c+b/c", "[0.5,0.916666666667]"),
    ("true", "a*(b-c)", "[-16.0,8.0]"),
    ("true", "a*b-a*c", "[-16.0,8.0]"),
    ("true", "(a-b)/c", "[-1.08333333333,-0.166666666667]"),
    ("true", "a/c-b/c", "[-1.08333333333,-0.166666666667]"),
    ("true", "x^2-2*x+1", "[-1.0,2.0]", ("--let", "x=[-1,2]")),
    ("true", "x*(x-2)+1", "[-1.0,2.0]", ("--let", "x=[-1,2]")),
    ("true", "(x-1)^2", "[-1.0,2.0]", ("--let", "x=[-1,2]")),
    ("true", "x^2-2*x+1", "[4.0,9.0]", ("--let", "x=[3,4]")),
    ("true", "x*(x-2)+1", "[4.0,9.0]", ("--let", "x=[3,4]")),
    ("true", "(x-1)^2", "[4.0,9.0]", ("--let", "x=[3,4]")),
    ("semantic", "a-a", "[-3.0,3.0]"),
    ("semantic", "a*b", "[-4.0,8.0]"),
    ("semantic", "b*a", "[-4.0,8.0]"),
    ("semantic", "b/b", "[1.0,1.0]"),
    ("semantic", "c+1", "[4.0,13.0]"),
    ("semantic", "a*(b+c)", "[-16.0,32.0]"),
    ("semantic", "a*b+a*c", "[-16.0,32.0]"),
    ("semantic", "(a+b)/c", "[0.5,0.916666666667]"),
    ("semantic", "a/c+b/c", "[0.5,0.916666666667]"),
    ("semantic", "a*(b-c)", "[-28.0,20.0]"),
    ("semantic", "a*b-a*c", "[-28.0,20.0]"),
    ("semantic", "(a-b)/c", "[-0.833333333333,-0.416666666667]"),
    ("semantic", "a/c-b/c", "[-1.08333333333,-0.166666666667]"),
    ("semantic", "x^2-2*x+1", "[-7.0,8.0]", ("--let", "x=[-1,2]")),
    ("semantic", "x*(x-2)+1", "[-7.0,8.0]", ("--let", "x=[-1,2]")),
    ("semantic", "(x-1)^2", "[-7.0,8.0]", ("--let", "x=[-1,2]")),
    ("semantic", "x^2-2*x+1", "[2.0,11.0]", ("--let", "x=[3,4]")),
    ("semantic", "x*(x-2)+1", "[2.0,11.0]", ("--let", "x=[3,4]")),
    ("semantic", "(x-1)^2", "[2.0,11.0]", ("--let", "x=[3,4]")),
]


def test_golden_session(capsys):
    failures = []
    for case in GOLDEN:
        mode, expr, expected = case[0], case[1], case[2]
        lets = case[3] if len(case) > 3 else LETS
        code, out, _ = run_cli(capsys, "calc", "--mode", mode, *lets, expr)
        if code != 0 or out.strip() != expected:
            failures.append((mode, expr, out.strip(), expected))
    assert not failures, failures


def test_session_scalar_attributes():
    # min/max, norm, width and midpoint prints of the reference session
    c = ia.interval(3, 12)
    d = ia.interval(2, eps=1)
    a, b = ia.interval(-1, 2), ia.interval(3, 4)
    fmt = ia.format_number
    assert f"{fmt(c.min)} {fmt(c.max)}" == "3.0 12.0"
    assert f"{fmt(abs(c))} {fmt(c.width)} {fmt(c.midpoint)}" == "16.5 9.0 7.5"
    assert f"{a} {b} {a < b}" == "[-1.0,2.0] [3.0,4.0] True"
    assert f"{c} {d} {d < c}" == "[3.0,12.0] [1.0,3.0] True"


def test_calc_raw_flag(capsys):
    code, out, _ = run_cli(capsys, "calc", "--raw", *LETS, "(a+b)/c")
    assert code == 0
    assert out.strip() == "(0.916666666667,0.5)"


def test_calc_division_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "calc", *LETS, "b/a")
    assert code == 2
    assert "division" in err and "[-1.0,2.0]" in err


@pytest.mark.parametrize(
    "expr, want",
    (("1/[1e-170,2e-170]", "[5e+169,1e+170]"), ("1/[1e160,2e160]", "[5e-161,1e-160]")),
)
def test_calc_divides_by_tiny_and_huge_intervals(capsys, expr, want):
    # x^2 - y^2 of these divisors under- or overflows unless scaled first.
    code, out, err = run_cli(capsys, "calc", expr)
    assert code == 0 and err == ""
    assert out.strip() == want


def test_calc_overflowing_inverse_exits_2(capsys):
    code, out, err = run_cli(capsys, "calc", "1/[1e-320,2e-320]")
    assert code == 2
    assert out == "" and "too large" in err and "Traceback" not in err
    assert "divisor [9.99988867183e-321,1.99997773437e-320]" in err


def test_calc_non_finite_literal_exits_2(capsys):
    code, out, err = run_cli(capsys, "calc", "--let", "a=[0,1e400]", "a")
    assert code == 2
    assert out == "" and "finite" in err and "Traceback" not in err


def test_calc_exp_overflow_exits_2(capsys):
    code, out, err = run_cli(capsys, "calc", "exp([800,900])")
    assert code == 2
    assert out == "" and "exp overflows" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "expr",
    (
        "[1e200,1e201]*[1e200,1e201]",
        "[-1e200,1e201]*[-1e200,1e201]-[1e300,1e301]*[1e300,1e301]",
    ),
)
def test_calc_nan_result_exits_2(capsys, expr):
    code, out, err = run_cli(capsys, "calc", expr)
    assert code == 2
    assert out == "" and "NaN" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    (("1e300*1e300",), ("--", "-1e300*1e300"), ("1e308+1e308",), ("exp(700)*exp(700)",)),
)
def test_calc_infinite_result_exits_2(capsys, args):
    # an overflowed endpoint is no answer to print; compare-mul rejects the
    # same products
    code, out, err = run_cli(capsys, "calc", *args)
    assert code == 2
    assert out == "" and "overflows" in err and "Traceback" not in err


def test_calc_parse_error_position(capsys):
    code, _, err = run_cli(capsys, "calc", "x*+")
    assert code == 2
    assert "position 3" in err


@pytest.mark.parametrize(
    "expr",
    (
        "(" * 5000 + "x" + ")" * 5000,
        "-" * 5000 + "x",
        "+".join(["x"] * 5000),
        "sqrt(" * 3000 + "x" + ")" * 3000,
    ),
    ids=("parentheses", "unary-minus", "sum", "sqrt"),
)
def test_calc_deep_expression_exits_2(capsys, expr):
    code, out, err = run_cli(capsys, "calc", "--let", "x=[1,2]", "--", expr)
    assert code == 2
    assert out == "" and "nests too deeply" in err and "Traceback" not in err


def test_calc_higher_order(capsys):
    code, out, _ = run_cli(
        capsys, "calc", "--order", "7", "--let", "x=[-2,3]", "--let", "y=[-4,2]", "x*y"
    )
    assert code == 0 and out.strip() == "[-12.0,8.0]"


@pytest.mark.parametrize("binding", ("a", "=[1,2]", "1a=[1,2]", "a=[1,", "a=[0,inf]"))
def test_calc_malformed_binding_exits_2(capsys, binding):
    code, out, err = run_cli(capsys, "calc", "--let", binding, "1")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_bad_order_rejected(capsys):
    code, _, _ = run_cli(capsys, "calc", "--order", "6", "x")
    assert code == 2


def test_compare_mul_table(capsys):
    code, out, _ = run_cli(capsys, "compare-mul", "--x", "[-2,3]", "--y", "[-4,2]")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("minkowski") and "[-12.0,8.0]" in lines[0]
    assert "width 20.0" in lines[0]
    assert "[-16.0,14.0]" in lines[1] and "width 30.0" in lines[1]
    assert "[-12.0,10.0]" in lines[2] and "width 22.0" in lines[2]
    assert "[-12.0,8.0]" in lines[3] and "width 20.0" in lines[3]


@pytest.mark.parametrize("flag", (("--mode", "semantic"), ("--order", "7")))
def test_compare_mul_takes_no_mode_or_order(capsys, flag):
    # every order is shown, so the flags would have nothing to choose
    code, out, err = run_cli(capsys, "compare-mul", *flag, "--x", "[-2,3]", "--y", "[-4,2]")
    assert code == 2
    assert out == "" and f"unrecognized arguments: {' '.join(flag)}" in err


def test_compare_mul_raw(capsys):
    code, out, _ = run_cli(capsys, "compare-mul", "--raw", "--x", "[-2,3]", "--y", "[-4,2]")
    assert code == 0
    assert "(-16.0,14.0)" in out.splitlines()[1]


def test_compare_mul_minkowski_row_takes_the_typed_endpoints(capsys, monkeypatch):
    # Embedding [1.77, 7.3945] and collapsing it back moves hi by an ulp; the
    # set product must see the endpoints as typed.  The 12-digit display
    # hides that ulp, so the arguments are captured instead.
    assert ia.interval(1.77, 7.3945).raw.hi != 7.3945
    calls = []

    def capturing_mink_mul(x, y):
        calls.append((x, y))
        return ia.mink_mul(x, y)

    monkeypatch.setattr(cli, "mink_mul", capturing_mink_mul)
    code, _, _ = run_cli(capsys, "compare-mul", "--x", "[1.77,7.3945]", "--y", "[7.3945,8]")
    assert code == 0
    x, y = calls[0]
    assert (x.lo, x.hi, y.lo, y.hi) == (1.77, 7.3945, 7.3945, 8.0)


def test_compare_mul_same_piece(capsys):
    code, out, _ = run_cli(capsys, "compare-mul", "--x", "[1,2]", "--y", "[3,4]")
    assert code == 0
    assert all("[3.0,8.0]" in line for line in out.strip().splitlines())


def test_compare_mul_rejects_improper_factors(capsys):
    code, out, err = run_cli(capsys, "compare-mul", "--x", "[3,1]", "--y", "[-4,2]")
    assert code == 2
    assert out == "" and "needs proper intervals" in err


def test_compare_mul_zero(capsys):
    code, out, _ = run_cli(capsys, "compare-mul", "--x", "[0,0]", "--y", "[-4,2]")
    assert code == 0
    assert all("[0.0,0.0]" in line for line in out.strip().splitlines())


@pytest.mark.parametrize("x, y", (("1e300", "1e300"), ("1e300", "[-1e300,-1e300]")))
def test_compare_mul_overflow_exits_2(capsys, x, y):
    # an overflowing product has an infinite endpoint, and its width can be NaN
    code, out, err = run_cli(capsys, "compare-mul", "--x", x, "--y", y)
    assert code == 2
    assert out == "" and "overflows" in err and "Traceback" not in err


def test_gradient_cli(tmp_path, capsys):
    csv = tmp_path / "grad.csv"
    code, out, _ = run_cli(
        capsys,
        "gradient",
        "--expr",
        "x*exp(x)",
        "--x0",
        "2±0.1",
        "--rho",
        "0.01",
        "--eps",
        "1e-6",
        "--csv",
        str(csv),
    )
    assert code == 0
    final = out.splitlines()[0].split(": ")[1]
    lo, hi = ia.parse_interval_literal(final)
    assert abs((lo + hi) / 2 - (-1.0)) < 1e-3
    lines = csv.read_text().splitlines()
    assert lines[0] == "iter,x_lo,x_hi,x_mid,x_width,f_lo,f_hi"
    assert len(lines) > 1000


def test_gradient_stationary_start(capsys):
    # leading dash needs the --flag=value form so argparse keeps it as a value
    code, out, _ = run_cli(
        capsys, "gradient", "--expr", "x*exp(x)", "--x0=-1±0"
    )
    assert code == 0
    assert "iterations: 0" in out


def test_gradient_failure_exit_3_writes_trace(tmp_path, capsys):
    csv = tmp_path / "grad.csv"
    code, _, err = run_cli(
        capsys,
        "gradient",
        "--expr",
        "x*exp(x)",
        "--x0",
        "2±0.1",
        "--max-iter",
        "5",
        "--csv",
        str(csv),
    )
    assert code == 3
    assert "no convergence" in err
    assert len(csv.read_text().splitlines()) == 7  # header + records 0..5


@pytest.mark.parametrize(
    "argv",
    (
        ("gradient", "--expr", "x*x", "--x0", "[0,1e400]"),
        ("gradient", "--expr", "x*x", "--x0", "1", "--h", "nan"),
        ("gradient", "--expr", "x*x", "--x0", "1", "--h", "abc"),
        ("gradient", "--expr", "x*x", "--x0", "1", "--rho", "nan"),
        ("gradient", "--expr", "x*x", "--x0", "1", "--eps", "inf"),
        ("newton", "--expr", "x*x", "--x0", "1", "--h=-inf"),
        ("eigen", "--demo", "paper2x2", "--eps", "1e400"),
        ("eigen", "--demo", "paper2x2", "--eps", "nan"),
        ("invert", "--demo", "paper2x2", "--tol", "nan"),
        ("invert", "--file", "{matrix}"),
        ("gradient", "--expr", "x*1e400", "--x0", "1"),
        ("newton", "--expr", "x*[0,1e400]", "--x0", "1"),
        ("calc", "x+1e308±1e308", "--let", "x=1"),
    ),
    ids=lambda argv: " ".join(argv),
)
def test_non_finite_input_exits_2(tmp_path, capsys, argv):
    matrix = tmp_path / "m.txt"
    matrix.write_text("[1,1],[0,1e400]\n[0,0],[1,1]\n")
    code, out, err = run_cli(capsys, *(a.format(matrix=matrix) for a in argv))
    assert code == 2
    assert out == "" and "finite" in err and "Traceback" not in err


def test_newton_with_h_too_small_for_second_difference_exits_2(capsys):
    # at 0 the first difference of x+x*x is 1, so Newton takes a step
    code, out, err = run_cli(
        capsys, "newton", "--expr", "x+x*x", "--x0", "0", "--h", "1e-200"
    )
    assert code == 2
    assert out == "" and "h=1e-200" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    (
        ("gradient", "--expr", "(x-3)^2", "--x0", "[1e12,1e12]"),
        ("newton", "--expr", "x*x", "--x0", "[1,2]", "--h", "1e-200"),
    ),
    ids=lambda argv: " ".join(argv),
)
def test_step_that_rounds_away_exits_3(capsys, argv):
    # the difference would be exactly 0 and report x0 as converged
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == "" and "is lost next to" in err and "Traceback" not in err


def test_gradient_exp_overflow_exits_3(capsys):
    # full-style descent with this step size diverges until exp overflows
    code, out, err = run_cli(
        capsys, "gradient", "--expr", "x*exp(x)", "--x0=-0.38±0.048",
        "--rho", "0.7466", "--style", "full",
    )
    assert code == 3
    assert out == "" and "exp overflows" in err


def test_newton_cli(capsys):
    code, out, _ = run_cli(
        capsys, "newton", "--expr", "x*exp(x)", "--x0", "2±0.1", "--eps", "1e-10"
    )
    assert code == 0
    final = out.splitlines()[0].split(": ")[1]
    lo, hi = ia.parse_interval_literal(final)
    assert abs((lo + hi) / 2 - (-1.0)) < 1e-6


def test_eigen_demo(tmp_path, capsys):
    csv = tmp_path / "eig.csv"
    code, out, _ = run_cli(
        capsys, "eigen", "--demo", "paper2x2", "--eps", "0", "--iters", "10",
        "--csv", str(csv),
    )
    assert code == 0
    lines = out.splitlines()
    lam_lo, lam_hi = ia.parse_interval_literal(lines[0].split(": ")[1])
    assert abs((lam_lo + lam_hi) / 2 - 5.3722813) < 1e-6
    v1 = ia.parse_interval_literal(lines[2].strip())
    v2 = ia.parse_interval_literal(lines[3].strip())
    assert abs(sum(v1) / 2 - 0.4159736) < 1e-6
    assert abs(sum(v2) / 2 - 0.9093767) < 1e-6
    csv_lines = csv.read_text().splitlines()
    assert csv_lines[0] == "iter,x_lo,x_hi,x_mid,x_width,f_lo,f_hi"
    assert len(csv_lines) == 11
    last = csv_lines[-1].split(",")
    assert last[0] == "10" and last[5:] == ["", ""]
    assert (float(last[1]), float(last[2])) == (lam_lo, lam_hi)


def test_invert_demo_session_values(capsys):
    code, out, _ = run_cli(capsys, "invert", "--demo", "paper3x3", "--eps", "0.01")
    assert code == 0
    # first row of the inverse exactly as the reference session prints it
    assert (
        "[-0.267860324247,-0.267853946662]"
        "[0.160698378764,0.160730266691]"
        "[0.124977730269,0.125022373367]"
    ) in out
    for label in ("M= [*", "Inverse matrix = [*", "M^(-1)*M= [*", "M*M^(-1)= [*", "(M^(-1))^(-1)= [*"):
        assert label in out
    # the double inverse reproduces the original entries to 1e-9
    block = out.split("(M^(-1))^(-1)= [*")[1].split("*]")[0]
    row = block.strip().splitlines()[0]
    values = [float(v) for v in row.replace("[", " ").replace("]", " ").replace(",", " ").split()]
    for got, want in zip(values, (0.99, 1.01, 3.99, 4.01, 4.99, 5.01)):
        assert abs(got - want) < 1e-9


def test_invert_identity(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("[1,1],[0,0]\n[0,0],[1,1]\n")
    code, out, _ = run_cli(capsys, "invert", "--file", str(path))
    assert code == 0
    inverse_block = out.split("Inverse matrix = [*")[1].split("*]")[0]
    assert "[1.0,1.0][0.0,0.0]" in inverse_block
    assert "[0.0,0.0][1.0,1.0]" in inverse_block


@pytest.mark.parametrize("value", ("1e200", "1e-200"))
def test_invert_matrix_whose_square_leaves_the_float_range(tmp_path, capsys, value):
    # 1e200 squared overflows and 1e-200 squared underflows; both invert.
    path = tmp_path / "m.txt"
    path.write_text(f"[{value},{value}]\n")
    code, out, err = run_cli(capsys, "invert", "--file", str(path))
    assert code == 0 and err == ""
    x, inverse = (f"{v:.12g}" for v in (float(value), 1 / float(value)))
    assert f"Inverse matrix = [*\n[{inverse},{inverse}]\n*]" in out
    assert "M*M^(-1)= [*\n[1.0,1.0]\n*]" in out
    assert f"(M^(-1))^(-1)= [*\n[{x},{x}]\n*]" in out


def test_matrix_file_shape_error(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("[1,1],[0,0]\n[0,0]\n")
    code, _, err = run_cli(capsys, "invert", "--file", str(path))
    assert code == 2 and "rows" in err


def test_matrix_file_literal_error_names_line_and_position(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("[1,1],[0,0]\n[0,0],[1;1]\n")
    code, out, err = run_cli(capsys, "invert", "--file", str(path))
    assert code == 2 and out == ""
    assert err == "error: matrix text line 2: unexpected character ';' (at position 9)\n"


@pytest.mark.parametrize(
    "argv, message",
    (
        (("calc", "--let", "x=[1;2]", "x"), "'[1;2]': unexpected character ';' (at position 3)"),
        (("compare-mul", "--x", "2 + - 1", "--y", "1"), "'2 + - 1': unexpected '+' (at position 3)"),
        (("newton", "--expr", "x", "--x0", "2±+1"), "'2±+1': expected a radius after '±' (at position 3)"),
    ),
)
def test_option_literal_error_carries_the_position(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: invalid interval literal {message}\n"


@pytest.mark.parametrize("command", ("gradient", "newton"))
def test_optimizer_flag_defaults_are_the_library_defaults(monkeypatch, command):
    # the config the command line builds from its defaults is the one the
    # library uses when called with none
    seen = []
    monkeypatch.setattr(ia.optimize, "_descend", lambda f, x0, cfg, step: seen.append(cfg))
    runner = {"gradient": ia.gradient_descent, "newton": ia.newton_raphson}[command]
    runner(None, None)
    args = cli.build_parser().parse_args([command, "--expr", "x", "--x0", "1"])
    assert args.runner is runner
    cfg = ia.OptimizerConfig(
        h=args.h, rho=args.rho, eps=args.eps, max_iter=args.max_iter, style=args.style
    )
    assert seen == [cfg]


@pytest.mark.parametrize("command", ("eigen", "invert"))
def test_eps_with_a_matrix_file_exits_2(tmp_path, capsys, command):
    # --eps is the entry radius of --demo matrices; a file's literals carry
    # their own, so the flag is refused rather than ignored.
    path = tmp_path / "m.txt"
    path.write_text("[2,2],[0,0]\n[0,0],[3,3]\n")
    for eps in ("0", "0.5"):
        code, out, err = run_cli(capsys, command, "--file", str(path), "--eps", eps)
        assert code == 2 and out == ""
        assert "--eps is the entry radius of --demo matrices" in err
    code, out, err = run_cli(capsys, command, "--file", str(path))
    assert code == 0 and err == ""


def test_eigen_requires_matrix_source(capsys):
    code, _, _ = run_cli(capsys, "eigen")
    assert code == 2
