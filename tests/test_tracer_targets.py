"""The benchmark tracer's targets still name callables of the library.

``bench/run.py --trace 1`` wraps every ``(module, attribute)`` listed in
``bench/spans.py::TARGETS``; a library rename or deletion would make that run
fail, so this test reads the list (without changing ``bench/``) and resolves
each entry the way the tracer does: class methods through the class
``__dict__``, where an inherited or missing method is not found.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


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
