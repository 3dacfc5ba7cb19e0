"""The README's examples print what the README says they print."""

import re
import shlex
from pathlib import Path

import pytest

from intalg.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# A comment that states a printed value, not a description of one.
VALUE_COMMENT = re.compile(r"#\s*(\[[^\]]*\]|True|False)\s*$")


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language after a heading."""
    section = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S)[1]


def _cli(capsys, command: str) -> str:
    argv = shlex.split(command)
    assert argv[0] == "intalg"
    assert main(argv[1:]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_quick_tour_prints_its_comments():
    source = _block("## Library quick tour", "python")
    printed = []
    exec(source, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    calls = [line for line in source.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    checked = 0
    for line, out in zip(calls, printed):
        if m := VALUE_COMMENT.search(line):
            assert out == m[1], line
            checked += 1
    assert checked == 5


def test_compare_mul_sample_is_the_real_output(capsys):
    sample = _block("Zero-containing products", "text")
    command, *lines = sample.splitlines()
    assert _cli(capsys, command.removeprefix("$ ")) == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "line",
    [line for line in _block("## Command line", "bash").splitlines() if VALUE_COMMENT.search(line)],
)
def test_calc_examples_print_their_comments(capsys, line):
    command, _, value = line.partition("#")
    assert command.split()[1] == "calc"
    assert _cli(capsys, command) == value.strip() + "\n"
