"""Every input the library rejects raises one root class, ValidationError.

ParseError (word text, with its offset) and RangeError (an integer past its
bounds) derive from it, so a caller's ``except ValidationError`` and the
CLI's exit 2 see every rejection.  An ``ast`` scan of the package checks
that no ``raise`` names another class, apart from the exceptions listed in
:data:`OTHERS`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import bosonstirling
from bosonstirling import errors
from bosonstirling.errors import ValidationError

PACKAGE = Path(bosonstirling.__file__).parent

ROOTS = {"ValidationError", "RangeError", "ParseError"}

#: (module, enclosing function, raised class) of each raise outside ROOTS.
OTHERS = {
    # argparse turns it into a usage message and exit 2.
    ("cli.py", "_integer_flag", "argparse.ArgumentTypeError"),
    # tests/test_series.py pins it; no library path calls the method, which
    # stays only while the benchmark tracer wraps it by name.
    ("series.py", "TruncatedSeries.invert", "ZeroDivisionError"),
}


def _raises(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(enclosing qualified name, raised class) of each ``raise`` under `tree`;
    a bare ``raise`` reads as the class "raise"."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _raises(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield ".".join(scope), "raise" if exc is None else ast.unparse(exc)
        yield from _raises(node, scope)


def test_every_root_is_a_validation_error():
    assert all(issubclass(getattr(errors, name), ValidationError) for name in ROOTS)


def test_every_raise_names_a_root():
    found = {
        (path.name, scope, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, name in _raises(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert {row for row in found if row[2] in ROOTS}, "the scan found no raise"
    assert {row for row in found if row[2] not in ROOTS} == OTHERS
