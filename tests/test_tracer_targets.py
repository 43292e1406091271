"""The benchmark tracer's targets still name callables of the library, and
the library still calls them.

``bench/run.py --trace 1`` wraps every ``(module, attribute)`` listed in
``bench/spans.py::TARGETS``; a library rename or deletion would make that run
fail, so this test reads the list (without changing ``bench/``) and resolves
each entry the way the tracer does: class methods through the class
``__dict__``, where an inherited or missing method is not found.  A layer that
is still defined but no longer called, or called through a name the tracer
does not patch, would read zero in every per-layer metric; the span test runs
the tracer over a few commands and checks which layers record spans.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from bosonstirling import cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
TARGETS = SPANS.TARGETS

#: Layers that no library path calls: the series product and inverse are
#: kept only for the tracer (ROADMAP aim 2).
UNCALLED = {"series.multiply", "series.invert"}


@pytest.mark.parametrize(
    "module_name,attr", [t[:2] for t in TARGETS], ids=[f"{m}.{a}" for m, a, _ in TARGETS]
)
def test_target_resolves(module_name, attr):
    module = importlib.import_module(f"bosonstirling.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        raw = getattr(module, cls_name).__dict__[method]
        assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)
    else:
        assert callable(getattr(module, attr))


def test_every_called_layer_records_spans(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(
        {"size": 4, "entries": [[1, 0, 0, 0], [1, 1, 0, 0], [2, 2, 1, 0], [5, 6, 3, 1]]}
    ))
    commands = [
        ["montecarlo", "--size", "4", "--draws", "50", "--range", "10", "--seed", "1"],
        ["check-subst", str(matrix)],
        ["build-subst", "--g", "1,1,1,1", "--phi", "0,1,1,1", "--size", "4"],
        ["stirling", "a+ a", "--rows", "6"],
        ["bell", "a+ a", "--rows", "6"],
        ["no", "a a+ a a a+ a"],
    ]
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0, 0, 0]
    names = {span[2] for span in tracer.spans}
    assert names == {name for _, _, name in TARGETS} - UNCALLED
    # The verdict is traced where montecarlo calls it, not only from the CLI.
    parents = {tracer.spans[parent][2] for _, parent, name, _, _ in tracer.spans
               if name == "substitution.verdict" and parent >= 0}
    assert parents == {"montecarlo.run_experiment", "cli"}
