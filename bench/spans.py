"""Spans around the library's layers, recorded from outside the library.

:class:`Tracer` replaces each wrapped function with a recording wrapper in
every ``bosonstirling`` module that binds it, because modules import names
directly (``montecarlo`` holds its own ``is_approximate_substitution``) and
a patch of the defining module alone would miss those calls.  Methods are
patched on their class.  :meth:`Tracer.uninstall` restores the originals.

A span is (op id, parent span id, name, start ns, end ns), kept in memory
and written out once at the end.  A layer's self time is its span's
duration minus the durations of its child spans; calls of one layer nested
directly in itself (``FiniteMatrix.from_rows`` calling ``__init__``) are one
span.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter_ns

#: (module, attribute, span name) of every wrapped callable; an attribute
#: "Class.method" is patched on the class.
TARGETS = (
    ("cli", "main", "cli"),
    ("boson", "parse_word", "boson.parse_word"),
    ("boson", "normal_order", "boson.normal_order"),
    ("boson", "multiply_normal_forms", "boson.multiply_normal_forms"),
    ("stirling", "stirling_matrix", "stirling.stirling_matrix"),
    ("stirling", "bell_numbers", "stirling.bell"),
    ("stirling", "bell_polynomial", "stirling.bell"),
    ("stirling", "column_egf", "stirling.column_egf"),
    ("series", "TruncatedSeries.multiply", "series.multiply"),
    ("series", "TruncatedSeries.invert", "series.invert"),
    ("substitution", "FiniteMatrix.from_rows", "substitution.matrix_init"),
    ("substitution", "FiniteMatrix.__init__", "substitution.matrix_init"),
    ("substitution", "is_approximate_substitution", "substitution.verdict"),
    ("substitution", "build_substitution_matrix", "substitution.build"),
    ("montecarlo", "run_experiment", "montecarlo.run_experiment"),
    ("montecarlo", "trial_stream", "montecarlo.trial_stream"),
    ("montecarlo", "random_unipotent", "montecarlo.random_unipotent"),
)

#: Per-layer metric name -> unit, in the order they are reported.
LAYER_UNITS = {
    "montecarlo.run_experiment.self_ms": "ref_ms",
    "montecarlo.trial_stream.us_per_call": "ref_us",
    "montecarlo.random_unipotent.us_per_call": "ref_us",
    "montecarlo.verdict_share": "ratio",
    "substitution.verdict.calls": "count",
    "substitution.verdict.self_ms": "ref_ms",
    "substitution.matrix_init.calls": "count",
    "substitution.matrix_init.self_ms": "ref_ms",
    "substitution.build.self_ms": "ref_ms",
    "substitution.pass_ratio": "ratio",
    "series.multiply.calls": "count",
    "series.multiply.self_ms": "ref_ms",
    "series.invert.calls": "count",
    "series.invert.self_ms": "ref_ms",
    "stirling.column_egf.calls": "count",
    "stirling.column_egf.self_ms": "ref_ms",
    "boson.parse_word.self_ms": "ref_ms",
    "boson.normal_order.self_ms": "ref_ms",
    "boson.multiply_normal_forms.calls": "count",
    "boson.multiply_normal_forms.self_ms": "ref_ms",
    "boson.terms_out": "count",
    "stirling.stirling_matrix.self_ms": "ref_ms",
    "stirling.bell.self_ms": "ref_ms",
    "stirling.max_coeff_bits": "bit",
    "cli.self_ms": "ref_ms",
    "cli.out_bytes": "B",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans and counters of one benchmark run."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._max_bits: dict[tuple[str, int], int] = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        stack, spans = self._stack, self.spans

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (self.op_id, parent, name, t0, t1)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after(self, name: str):
        """Counter update run after a span closes, so it is not in the span."""
        if name == "substitution.verdict":
            def after(report):
                self.counts["verdicts_true"] += bool(report.verdict)
        elif name == "boson.multiply_normal_forms":
            def after(nf):
                self.counts["terms_out"] += len(nf.terms)
        elif name == "stirling.stirling_matrix":
            def after(m):
                key = (m.word.text, m.n_max)
                if key not in self._max_bits:
                    self._max_bits[key] = max(
                        abs(v).bit_length() for row in m.rows for v in row
                    )
                self.counts["max_coeff_bits"] = max(
                    self.counts["max_coeff_bits"], self._max_bits[key]
                )
        else:
            return None
        return after

    def install(self) -> None:
        """Wrap every target in every loaded bosonstirling module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bosonstirling" or n.startswith("bosonstirling.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules[f"bosonstirling.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__, self._after(name)))
                else:
                    patched = self._wrap(name, raw, self._after(name))
                self._patches.append((cls, method, raw))
                setattr(cls, method, patched)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, self._after(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: call count, total self ns and total inclusive ns."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        for op_id, parent, name, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        total_ns: Counter[str] = Counter()
        for sid, (op_id, parent, name, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += t1 - t0 - child_ns[sid]
            total_ns[name] += t1 - t0
        return calls, self_ns, total_ns

    def layer_metrics(self, rounds: int, speed: float, overhead_frac: float
                      ) -> dict[str, tuple[float, str]]:
        """Every per-layer metric with its unit, per round of the workload.

        Times are multiplied by `speed` to bring them to the reference speed
        of the end-to-end metrics.  A layer the round never calls reads
        zero; ratios with a zero base read zero too.
        """
        calls, self_ns, total_ns = self.self_times()

        def us_per_call(name):
            return speed * self_ns[name] / 1e3 / calls[name] if calls[name] else 0.0

        verdicts = calls["substitution.verdict"]
        runs = total_ns["montecarlo.run_experiment"]
        out = {
            "montecarlo.trial_stream.us_per_call": us_per_call("montecarlo.trial_stream"),
            "montecarlo.random_unipotent.us_per_call": us_per_call("montecarlo.random_unipotent"),
            "montecarlo.verdict_share":
                self._verdict_ns_under("montecarlo.run_experiment") / runs if runs else 0.0,
            "substitution.pass_ratio":
                self.counts["verdicts_true"] / verdicts if verdicts else 0.0,
            "boson.terms_out": self.counts["terms_out"] / rounds,
            "stirling.max_coeff_bits": float(self.counts["max_coeff_bits"]),
            "cli.out_bytes": self.counts["out_bytes"] / rounds,
            "trace.overhead_frac": overhead_frac,
        }
        for metric in LAYER_UNITS:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[layer] / rounds
            elif field == "self_ms":
                out[metric] = speed * self_ns[layer] / 1e6 / rounds
        return {metric: (out[metric], unit) for metric, unit in LAYER_UNITS.items()}

    def _verdict_ns_under(self, ancestor: str) -> int:
        """Inclusive verdict time spent inside spans named `ancestor`."""
        total = 0
        for op_id, parent, name, t0, t1 in self.spans:
            if name != "substitution.verdict":
                continue
            p = parent
            while p >= 0 and self.spans[p][2] != ancestor:
                p = self.spans[p][1]
            if p >= 0:
                total += t1 - t0
        return total

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: op, span, parent, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for sid, (op_id, parent, name, t0, t1) in enumerate(self.spans):
                fh.write(f"{op_id}\t{sid}\t{parent}\t{name}\t{t0}\t{t1}\n")
