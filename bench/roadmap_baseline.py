"""Re-measure the baseline figures quoted in ROADMAP.md, in wall-clock time.

    python3 bench/roadmap_baseline.py

Prints the Monte Carlo cost per trial at sizes 4, 5 and 8 (range 10, one
job), the substitution verdict on the truncated Stirling matrix of a†aa† at
21, 41 and 61 rows, and three Stirling matrix builds.  Each figure is the
median of REPEATS timings.  These are raw times: on a shared host they move
with its load, which is why run.py reports calibrated times instead.
"""

from __future__ import annotations

import statistics
import time

import run

run.load_cli()
from bosonstirling import (  # noqa: E402
    ExperimentConfig, is_approximate_substitution, parse_word, run_experiment,
    stirling_matrix, truncate_rn,
)

REPEATS = 5


def median_s(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    for size, draws in ((4, 1000), (5, 600), (8, 250)):
        cfg = ExperimentConfig(size=size, draws=draws, range_r=10, seed=2024)
        us = median_s(lambda: run_experiment(cfg)) / draws * 1e6
        print(f"montecarlo size {size}: {us:.0f} us per trial")
    word = parse_word("a+ a a+")
    for rows in (21, 41, 61):
        m = truncate_rn(stirling_matrix(word, rows - 1), rows - 1)
        ms = median_s(lambda: is_approximate_substitution(m)) * 1e3
        print(f"verdict a†aa† {rows}x{rows}: {ms:.0f} ms")
    for text, label, rows in (("a+ a", "a†a", 200), ("a+ a a+", "a†aa†", 100),
                              ("a+ a a a+ a+", "a†aaa†a†", 80)):
        w = parse_word(text)
        ms = median_s(lambda: stirling_matrix(w, rows)) * 1e3
        print(f"stirling_matrix {label} to {rows} rows: {ms:.0f} ms")


if __name__ == "__main__":
    main()
