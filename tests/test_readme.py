"""The README's library quickstart and command-line examples run as written."""

from __future__ import annotations

import doctest
import shlex
from pathlib import Path

from quasiaffine.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _cli_examples() -> list[tuple[list[str], str | None]]:
    """(argv, the indented output line below it, or None) for each
    `quasiaffine ...` line of the "Command line" block, continuations joined."""
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    examples = []
    for line, below in zip(lines, lines[1:] + [""]):
        if line.startswith("quasiaffine "):
            examples.append((shlex.split(line)[1:], below.strip() if below.startswith("  ") else None))
    return examples


def test_readme_cli_examples_print_what_the_readme_shows(capsys, tmp_path):
    examples = _cli_examples()
    assert sum(expected is not None for _, expected in examples) == 6 and len(examples) == 7
    for argv, expected in examples:
        if "--out" in argv:
            i = argv.index("--out") + 1
            out = tmp_path / argv[i]
            argv[i] = str(out)
            assert main(argv) == 0
            assert capsys.readouterr().out == ""
            assert out.read_text().splitlines()[0] == "lambda,mu,x"
        else:
            assert main(argv) == 0, argv
            assert capsys.readouterr().out == expected + "\n", argv
