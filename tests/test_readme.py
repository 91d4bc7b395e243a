"""Golden test: every `$ privtune ...` example in README.md prints its block.

Each ```text block that starts with `$ privtune` is one example: the
command, with `\\` continuation lines joined, runs through `cli.main`,
and its standard output must equal the rest of the block byte for byte.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from privtune.cli import main

_README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[list[str], str]]:
    """(argv after `privtune`, expected stdout) of each README example."""
    text = _README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", text, flags=re.M | re.S):
        if not block.startswith("$ privtune "):
            continue
        lines = block.splitlines(keepends=True)
        command = lines.pop(0).rstrip("\n")
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0).rstrip("\n")
        examples.append((shlex.split(command)[2:], "".join(lines)))
    return examples


_EXAMPLES = _examples()


def test_readme_has_an_example_per_subcommand():
    assert {argv[0] for argv, _ in _EXAMPLES} == {
        "accountant",
        "compare",
        "tightness",
        "audit",
        "theorem4",
    }


@pytest.mark.parametrize(
    "argv, expected", _EXAMPLES, ids=[argv[0] for argv, _ in _EXAMPLES]
)
def test_readme_example_output_is_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
