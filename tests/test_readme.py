"""The README's command-line examples, run through the CLI byte for byte."""

import shlex
from pathlib import Path

import pytest

from worpitzky.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ worpitzky "


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command line, expected output lines) for each ``$ worpitzky`` line."""
    examples = []
    for line in README.read_text().splitlines():
        if line.startswith(PROMPT):
            examples.append((line[len(PROMPT):], []))
        elif line.startswith("```"):
            examples.append(None)
        elif examples and examples[-1] is not None:
            examples[-1][1].append(line)
    return [example for example in examples if example is not None]


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example_output(capsys, command, expected):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    lines = out.split("\n")
    assert lines.pop() == ""  # every output ends with a newline
    assert len(lines) == len(expected)
    for got, want in zip(lines, expected):
        if "..." in want:  # an elided middle: the text on both sides must match
            head, tail = want.split("...")
            assert got.startswith(head) and got.endswith(tail)
            assert len(got) >= len(head) + len(tail)
        else:
            assert got == want
