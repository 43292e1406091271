"""Benchmark of the bosonstirling command line, one workload per process.

    python3 bench/run.py --workload mc-random --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each op is one in-process ``bosonstirling.cli.main(argv)`` call
with stdout captured.  The run repeats whole rounds of its workload's ops
(see ``workloads.py``) until ``--seconds`` have passed, then prints one
JSON object as its last line of stdout.

Every op's exit code and output are checked against an exact reference
outside the timed region; a wrong one counts as failed.  With ``--trace 0``
the metrics are the end-to-end ones and no layer is wrapped.  With
``--trace 1`` untraced and traced rounds alternate: the traced ones give
the per-layer metrics, per round, and the two together give the tracing
overhead.  Spans are written to ``.bench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
from spans import Tracer  # noqa: E402
from workloads import CALIBRATIONS, WORKLOADS, Calibration, Op, build_round  # noqa: E402

#: Fresh interpreters timed for setup_s; the reported value is their median.
SETUP_REPEATS = 9
#: Time for an interpreter to import the baseline modules at reference speed.
SETUP_REF_S = 0.09
#: Failure messages echoed to stderr, so a broken program does not flood it.
MAX_REPORTED_FAILURES = 5


def load_cli():
    if not (SRC / "bosonstirling" / "cli.py").is_file():
        raise SystemExit(f"error: no bosonstirling sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from bosonstirling import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported bosonstirling from {cli.__file__}, not {SRC}")
    return cli


def measure_setup_s() -> float:
    """Median time for a fresh interpreter to import bosonstirling.cli.

    Each import is paired with a fresh interpreter importing a fixed set of
    standard modules, and reported at the speed where that takes
    SETUP_REF_S: process start-up and module loading swing with the host
    just as the ops do.
    """
    argv = [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {str(SRC)!r}); import bosonstirling.cli"]
    baseline = [sys.executable, "-c", "import argparse, concurrent.futures, dataclasses, "
                "fractions, json"]
    subprocess.run(argv, cwd=ROOT, check=True)  # writes the bytecode caches
    times, cals = [], []
    for _ in range(SETUP_REPEATS):
        for out, command in ((times, argv), (cals, baseline)):
            start = time.perf_counter()
            subprocess.run(command, cwd=ROOT, check=True)
            out.append(time.perf_counter() - start)
    return statistics.median(normalise(times, cals, SETUP_REF_S))


def time_calibration(calibration: Calibration) -> float:
    start = time.perf_counter()
    calibration.task()
    return time.perf_counter() - start


def normalise(times: list[float], cals: list[float], ref_s: float) -> list[float]:
    """Each time at the reference speed, judged by the median of the five
    calibrations nearest to it."""
    out = []
    for i, t in enumerate(times):
        window = sorted(cals[max(0, i - 2):i + 3])
        out.append(t * ref_s / window[len(window) // 2])
    return out


def run_op(cli, op: Op) -> tuple[float, object, str, int]:
    """One timed CLI call: (seconds, exit code or exception, output, stdout bytes)."""
    if op.out_file is not None:
        op.out_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = exc
        elapsed = time.perf_counter() - start
    text = out.getvalue()
    size = len(text.encode())
    if op.out_file is not None and op.out_file.exists():
        text = op.out_file.read_text(encoding="utf-8")
        size += len(text.encode())
    return elapsed, code, text, size


class Verifier:
    """Checks outputs; an output identical to one already checked for the
    same op is accepted by its digest instead of being parsed again."""

    def __init__(self):
        self._accepted: dict[int, bytes] = {}
        self.failures: list[str] = []

    def __call__(self, index: int, op: Op, code, text: str) -> bool:
        if code != op.code:
            error = f"exit {code!r}, expected {op.code}"
        else:
            digest = hashlib.blake2b(text.encode()).digest()
            if self._accepted.get(index) == digest:
                return True
            try:
                op.check(text)
            except Exception as exc:  # any parse error on the output is a mismatch
                error = f"{type(exc).__name__}: {exc}"
            else:
                self._accepted[index] = digest
                return True
        self.failures.append(f"{op.kind} {' '.join(op.argv)[:120]}: {error}")
        return False


@dataclass
class Result:
    """Per timed op: whether traced, latency and the calibration time that
    followed it; and timed rounds run, untraced and traced."""

    traced: list[bool] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    cals: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rounds: dict[bool, int] = field(default_factory=lambda: {False: 0, True: 0})


def run(cli, ops: list[Op], seconds: float, calibration: Calibration,
        tracer: Tracer | None) -> Result:
    """One warm-up round, then whole rounds until `seconds` have passed.

    The warm-up round fills the interpreter's caches and heap; its outputs
    are checked but its times are not kept.  With a tracer, every second
    timed round is traced, and at least one round of each kind is run.
    """
    verify = Verifier()
    result = Result(failures=verify.failures)

    def play(timed: bool, traced: bool) -> None:
        if traced:
            tracer.install()
        try:
            for index, op in enumerate(ops):
                if traced:
                    tracer.op_id = len(result.latencies)
                elapsed, code, text, size = run_op(cli, op)
                cal = time_calibration(calibration)
                result.attempted += 1
                result.failed += not verify(index, op, code, text)
                if traced:
                    tracer.counts["out_bytes"] += size
                if timed:
                    result.traced.append(traced)
                    result.latencies.append(elapsed)
                    result.cals.append(cal)
                    result.items += op.items
        finally:
            if traced:
                tracer.uninstall()
        if timed:
            result.rounds[traced] += 1

    play(timed=False, traced=False)
    deadline = time.perf_counter() + seconds
    while True:
        play(timed=True, traced=tracer is not None
             and result.rounds[False] > result.rounds[True])
        if time.perf_counter() >= deadline and (tracer is None or result.rounds[True]):
            return result


def end_to_end(result: Result, ref_s: float, setup_s: float) -> dict[str, tuple[float, str]]:
    lat = normalise(result.latencies, result.cals, ref_s)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (result.items / sum(lat), "1/ref_s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ref_ms"),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[8] * 1e3, "ref_ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(result: Result, ref_s: float, tracer: Tracer) -> dict[str, tuple[float, str]]:
    lat = normalise(result.latencies, result.cals, ref_s)
    busy = {False: 0.0, True: 0.0}
    for traced, t in zip(result.traced, lat):
        busy[traced] += t
    rounds = result.rounds
    overhead = (busy[True] / rounds[True]) / (busy[False] / rounds[False]) - 1
    traced_cals = [c for c, traced in zip(result.cals, result.traced) if traced]
    speed = ref_s / statistics.median(traced_cals)
    return tracer.layer_metrics(rounds[True], speed, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    calibration = CALIBRATIONS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        ops = build_round(args.workload, args.seed, workdir)
        setup_s = 0.0 if args.trace else measure_setup_s()
        tracer = Tracer() if args.trace else None
        gc.collect()
        gc.freeze()
        result = run(cli, ops, args.seconds, calibration, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result.failures[:MAX_REPORTED_FAILURES]:
        print(f"mismatch: {line}", file=sys.stderr)
    if tracer is not None:
        metrics = per_layer(result, calibration.seconds, tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
    else:
        metrics = end_to_end(result, calibration.seconds, setup_s)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
