"""Random command lines for every subcommand of ``intalg.cli.main``.

Whatever the arguments, a run prints its result and exits 0, exits 2 on bad
input or 3 when an algorithm fails; argparse's usage errors exit 2 through
SystemExit.  Any other exception escaping ``main`` fails the test, and so
does a NaN in the output of a run that exits 0.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from intalg.cli import main

# Mostly valid numbers, and the spellings that are not: non-finite, overflowing,
# subnormal, empty or not a number at all.
NUMBERS = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(
        ("0.5", "3.", ".25", "1e-3", "1e5", "1e300", "1e400", "-0", "1e-320",
         "nan", "inf", "-inf", "abc", "")
    ),
)
LITERALS = st.one_of(
    NUMBERS,
    st.tuples(NUMBERS, NUMBERS).map(lambda p: f"[{p[0]},{p[1]}]"),
    st.tuples(NUMBERS, NUMBERS).map(lambda p: f"{p[0]}±{p[1]}"),
    st.tuples(NUMBERS, NUMBERS).map(lambda p: f"{p[0]}+-{p[1]}"),
)
ATOMS = st.one_of(
    st.just("x"),
    st.sampled_from(("a", "y")),
    NUMBERS.filter(lambda t: t and t[0] not in "-nia"),
    LITERALS.filter(lambda t: t.startswith("[")),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"
        ),
        st.tuples(children, st.integers(0, 50)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(("exp", "log", "sqrt")), children).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        children.map(lambda c: f"-({c})"),
    )


EXPRESSIONS = st.one_of(
    st.recursive(ATOMS, _combine, max_leaves=8),
    st.recursive(st.just("x"), _combine, max_leaves=4),
    st.text(alphabet="x0123456789.e+-*/^()[],± ", max_size=20),
)
COMMON = st.lists(
    st.one_of(
        st.sampled_from(("--mode", "--order")).flatmap(
            lambda flag: st.tuples(
                st.just(flag),
                st.sampled_from(("true", "semantic"))
                if flag == "--mode"
                else st.sampled_from(("4", "5", "7", "6")),
            )
        ),
        st.just(("--raw",)),
    ),
    max_size=2,
).map(lambda groups: [a for g in groups for a in g])


def _flags(**choices):
    """Optional flags, each drawn at most once, in random order."""
    return st.lists(
        st.sampled_from(sorted(choices)).flatmap(
            lambda name: choices[name].map(lambda value: f"--{name}={value}")
        ),
        max_size=len(choices),
        unique_by=lambda flag: flag.partition("=")[0],
    )


def _calc():
    # x is bound, and at times a, y or a bad name too; '--' ends the options
    # before an expression that starts with '-'.
    lets = st.lists(
        st.tuples(st.sampled_from(("x", "a", "y", "1a", "")), LITERALS).map(
            lambda t: f"--let={t[0]}={t[1]}"
        ),
        max_size=2,
    )
    return st.tuples(COMMON, LITERALS, lets, EXPRESSIONS).map(
        lambda t: ["calc", *t[0], f"--let=x={t[1]}", *t[2], "--", t[3]]
    )


def _compare_mul():
    # compare-mul takes no --mode or --order: it shows every order.
    raw = st.lists(st.just("--raw"), max_size=1)
    return st.tuples(raw, LITERALS, LITERALS).map(
        lambda t: ["compare-mul", *t[0], f"--x={t[1]}", f"--y={t[2]}"]
    )


def _optimizer(name):
    flags = dict(
        h=NUMBERS,
        eps=NUMBERS,
        style=st.sampled_from(("midpoint", "full", "other")),
        csv=st.sampled_from(("{dir}/trace.csv", "{dir}/missing/trace.csv")),
    )
    if name == "gradient":
        flags["rho"] = NUMBERS
    # --max-iter is always given: the default allows 100000 iterations.
    return st.tuples(
        COMMON, EXPRESSIONS, LITERALS, st.integers(-1, 30), _flags(**flags)
    ).map(
        lambda t: [name, *t[0], f"--expr={t[1]}", f"--x0={t[2]}", f"--max-iter={t[3]}", *t[4]]
    )


def _matrix(name):
    source = st.sampled_from(
        (
            ["--demo", "paper2x2"],
            ["--demo", "paper3x3"],
            ["--file", "{dir}/m.txt"],
            ["--file", "{dir}/missing.txt"],
        )
    )
    flags = dict(eps=NUMBERS)
    if name == "eigen":
        flags["iters"] = st.integers(-1, 20).map(str)
    else:
        flags["tol"] = NUMBERS
        flags["max-iter"] = st.integers(-1, 30).map(str)
    return st.tuples(COMMON, source, _flags(**flags)).map(
        lambda t: [name, *t[0], *t[1], *t[2]]
    )


SUBCOMMANDS = {
    "calc": _calc(),
    "compare-mul": _compare_mul(),
    "gradient": _optimizer("gradient"),
    "newton": _optimizer("newton"),
    "eigen": _matrix("eigen"),
    "invert": _matrix("invert"),
}
# Rows of interval literals for --file {dir}/m.txt, ragged or empty at times.
MATRIX_TEXT = st.lists(
    st.lists(LITERALS, min_size=1, max_size=3).map(",".join), max_size=3
).map("\n".join)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(st.data())
def test_main_exits_0_2_or_3(data):
    command = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = data.draw(SUBCOMMANDS[command], label="argv")
    matrix = data.draw(MATRIX_TEXT, label="m.txt")
    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, "m.txt"), "w", encoding="utf-8") as fh:
            fh.write(matrix)
        argv = [a.replace("{dir}", directory) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 0:
        assert out.getvalue() and not err.getvalue(), argv
        assert "nan" not in out.getvalue(), argv  # no silent NaN
    else:
        assert "Traceback" not in err.getvalue(), argv
