"""Every input the library rejects raises one root class, ValidationError.

ParseError (word text, with its offset) and RangeError (an integer past its
bounds) derive from it, so a caller's ``except ValidationError`` and the
CLI's exit 2 see every rejection.  An ``ast`` scan of the package checks
that no ``raise`` names another class, apart from the exceptions listed in
:data:`OTHERS`.  A second scan pins where the number form's LCM and gcd are
called, :data:`NUMBER_FORM_CALLS`.
"""

from __future__ import annotations

import ast
from collections import Counter
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

#: (module, enclosing function, called name) of each ``lcm`` and ``gcd``
#: call, with its count.  Every LCM is series._over_lcm; the gcds are the
#: number form's reduction, the quotient's signed reduction of each new
#: entry, the renderer's, the matrix constructor's check and the Wilson
#: radicand's.
NUMBER_FORM_CALLS = {
    ("series.py", "_over_lcm", "lcm"): 1,
    ("series.py", "_lowest", "gcd"): 1,
    ("series.py", "_egf_quotient", "gcd"): 2,
    ("series.py", "_ratio_text", "gcd"): 1,
    ("substitution.py", "FiniteMatrix.__post_init__", "gcd"): 1,
    ("montecarlo.py", "wilson_interval_95", "gcd"): 1,
}


def _scoped(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(enclosing qualified name, node) of each node under `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(node, scope + (node.name,))
            continue
        yield ".".join(scope), node
        yield from _scoped(node, scope)


def _raises(tree: ast.AST):
    """(enclosing qualified name, raised class) of each ``raise`` under `tree`;
    a bare ``raise`` reads as the class "raise"."""
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield scope, "raise" if exc is None else ast.unparse(exc)


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


def test_lcm_and_gcd_called_only_where_listed():
    found = Counter(
        (path.name, scope, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
        if name in ("lcm", "gcd")
    )
    assert found == NUMBER_FORM_CALLS
