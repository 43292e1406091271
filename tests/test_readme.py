"""README's examples are true: each shell example's output and each library value."""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from bosonstirling.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _shell_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) of each ``$ bosonstirling`` line, output ending at a blank line."""
    examples = []
    for block in _blocks("sh"):
        for chunk in block.split("\n\n"):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ bosonstirling "):
                argv = shlex.split(command, comments=True)[2:]
                examples.append((argv, output.rstrip("\n") + "\n"))
    return examples


SHELL_EXAMPLES = _shell_examples()


def test_every_command_has_an_example():
    commands = {argv[0] for argv, _ in SHELL_EXAMPLES}
    assert commands == {
        "no", "dd", "stirling", "bell", "classify",
        "build-subst", "check-subst", "montecarlo", "bound",
    }


@pytest.mark.parametrize(
    "argv,expected", SHELL_EXAMPLES, ids=[" ".join(argv) for argv, _ in SHELL_EXAMPLES]
)
def test_shell_example(argv, expected, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if "matrix.json" in argv:
        # The check-subst example reads the matrix of the build-subst example.
        (build,) = [a for a, _ in SHELL_EXAMPLES if a[0] == "build-subst"]
        assert main([*build, "--out", "matrix.json"]) == 0
        capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_library_example():
    """Run the Python block; an expression commented with a literal must equal it,
    and any other commented expression must be true."""
    (block,) = _blocks("python")
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        assert comment.startswith("# "), code
        try:
            expected = ast.literal_eval(comment[2:])
        except (ValueError, SyntaxError):
            expected = True
        assert value == expected, code
        checked += 1
    assert checked == 6
