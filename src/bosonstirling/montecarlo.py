"""Random unipotent matrices and the substitution-probability experiment.

Matrices are drawn by filling the strict lower triangle of an identity
matrix with integers uniform on {1, ..., r}; the experiment counts how many
draws satisfy the exact substitution condition and reports the estimate
next to the counting upper bound

    p_n ≤ r^(2n−3) / r^(n(n−1)/2)

(n the printed matrix size): a matrix that passes is determined by its
first two columns — (n−1) + (n−2) = 2n−3 free entries — out of n(n−1)/2
free entries in total.

Randomness is counter-based (Philox) and keyed per trial by
(seed, trial index), so results are bitwise reproducible for a fixed
configuration no matter how trials are scheduled across workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .substitution import FiniteMatrix, is_approximate_substitution

#: z for the 95% Wilson interval, kept rational on purpose.
_Z95 = Fraction(196, 100)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: `draws` matrices of dimension `size`, entries in {1..range_r}."""

    size: int
    draws: int
    range_r: int
    seed: int
    jobs: int = 1

    def __post_init__(self):
        if self.size < 2:
            raise ValidationError(f"size must be at least 2, got {self.size}")
        if self.draws < 1:
            raise ValidationError(f"draws must be at least 1, got {self.draws}")
        if self.range_r < 1:
            raise ValidationError(f"range must be at least 1, got {self.range_r}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")
        if self.jobs < 1:
            raise ValidationError(f"jobs must be at least 1, got {self.jobs}")


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    successes: int
    estimate: Fraction
    wilson_95: tuple[Fraction, Fraction]
    bound: Fraction

    def __post_init__(self):
        if not 0 <= self.successes <= self.config.draws:
            raise ValidationError(
                f"successes {self.successes} outside 0..{self.config.draws}"
            )
        if not 0 <= self.estimate <= 1:
            raise ValidationError(f"estimate {self.estimate} outside [0, 1]")

    @property
    def ratio_to_bound(self) -> Fraction:
        return self.estimate / self.bound

    def to_json_obj(self) -> dict:
        return {
            "size": self.config.size,
            "draws": self.config.draws,
            "range": self.config.range_r,
            "seed": self.config.seed,
            "jobs": self.config.jobs,
            "successes": self.successes,
            "estimate": str(self.estimate),
            "wilson_95": [str(self.wilson_95[0]), str(self.wilson_95[1])],
            "bound": str(self.bound),
        }

    @classmethod
    def from_json_obj(cls, obj) -> ExperimentResult:
        cfg = ExperimentConfig(
            size=int(obj["size"]),
            draws=int(obj["draws"]),
            range_r=int(obj["range"]),
            seed=int(obj["seed"]),
            jobs=int(obj["jobs"]),
        )
        return cls(
            config=cfg,
            successes=int(obj["successes"]),
            estimate=Fraction(obj["estimate"]),
            wilson_95=(Fraction(obj["wilson_95"][0]), Fraction(obj["wilson_95"][1])),
            bound=Fraction(obj["bound"]),
        )

    def to_csv_row(self) -> str:
        c = self.config
        fields = [
            c.size, c.draws, c.range_r, c.seed, self.successes,
            self.estimate, self.wilson_95[0], self.wilson_95[1], self.bound,
        ]
        return ";".join(str(v) for v in fields)


class FreeParameterCount(NamedTuple):
    determined: int
    total: int


def count_free_parameters(size: int) -> FreeParameterCount:
    """Exponents of the bound: entries fixed by columns 0 and 1, and in total.

    Columns 0 and 1 of a unipotent matrix of dimension n have n−1 and n−2
    free below-diagonal entries; a matrix satisfying the substitution
    condition is determined by those 2n−3 values, while n(n−1)/2 entries
    are free in an unconstrained draw.
    """
    if size < 2:
        raise ValidationError(f"size must be at least 2, got {size}")
    return FreeParameterCount(2 * size - 3, size * (size - 1) // 2)


def probability_bound(size: int, range_r: int) -> Fraction:
    """Upper bound r^(2n−3)/r^(n(n−1)/2) on the substitution probability."""
    if range_r < 1:
        raise ValidationError(f"range must be at least 1, got {range_r}")
    determined, total = count_free_parameters(size)
    return Fraction(range_r**determined, range_r**total)


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Independent Philox stream for one trial, keyed by (seed, trial)."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_unipotent(
    size: int, range_r: int, rng: np.random.Generator
) -> FiniteMatrix:
    """Identity matrix with the strict lower triangle drawn from {1..range_r}.

    Entries are consumed from `rng` in row-major order of the triangle.
    """
    if size < 1:
        raise ValidationError(f"size must be at least 1, got {size}")
    if range_r < 1:
        raise ValidationError(f"range must be at least 1, got {range_r}")
    count = size * (size - 1) // 2
    values = rng.integers(1, range_r, size=count, endpoint=True).tolist()
    rows = []
    for i in range(size):
        start = i * (i - 1) // 2
        rows.append(values[start:start + i] + [1] + [0] * (size - 1 - i))
    return FiniteMatrix.from_rows(rows)


def _count_successes(seed: int, size: int, range_r: int, start: int, stop: int) -> int:
    successes = 0
    for trial in range(start, stop):
        m = random_unipotent(size, range_r, trial_stream(seed, trial))
        if is_approximate_substitution(m).verdict:
            successes += 1
    return successes


def _sqrt_bounds(value: Fraction, digits: int = 30) -> tuple[Fraction, Fraction]:
    """Rational enclosure of √value, tight to 10^-digits."""
    if value < 0:
        raise ValidationError("square root of a negative value")
    if value == 0:
        return Fraction(0), Fraction(0)
    a, b = value.numerator, value.denominator
    scale = 10**digits
    root = isqrt(a * b * scale * scale)
    return Fraction(root, b * scale), Fraction(root + 1, b * scale)


def wilson_interval_95(successes: int, draws: int) -> tuple[Fraction, Fraction]:
    """95% Wilson score interval with exact rational endpoints.

    The exact endpoints are irrational (they contain a square root); this
    returns a rational outer enclosure, widened by less than 10^-30 on each
    side, and clipped to [0, 1].
    """
    if not 0 <= successes <= draws:
        raise ValidationError(f"successes {successes} outside 0..{draws}")
    n = draws
    z2 = _Z95 * _Z95
    phat = Fraction(successes, n)
    denom = 1 + z2 / n
    center = phat + z2 / (2 * n)
    disc = phat * (1 - phat) / n + z2 / (4 * n * n)
    _, sqrt_hi = _sqrt_bounds(disc)
    lo = (center - _Z95 * sqrt_hi) / denom
    hi = (center + _Z95 * sqrt_hi) / denom
    return max(Fraction(0), lo), min(Fraction(1), hi)


def worker_count(jobs: int, draws: int) -> int:
    """Processes to start for `jobs` requested: at most one per draw and per CPU."""
    return min(jobs, draws, os.cpu_count() or 1)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Draw cfg.draws unipotent matrices and count substitution-test passes.

    The per-trial streams make the outcome a pure function of
    (seed, size, draws, range_r); `jobs` only changes the schedule.
    """
    jobs = worker_count(cfg.jobs, cfg.draws)
    if jobs == 1:
        successes = _count_successes(cfg.seed, cfg.size, cfg.range_r, 0, cfg.draws)
    else:
        step = -(-cfg.draws // jobs)
        spans = [
            (start, min(start + step, cfg.draws))
            for start in range(0, cfg.draws, step)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(
                    _count_successes, cfg.seed, cfg.size, cfg.range_r, start, stop
                )
                for start, stop in spans
            ]
            successes = sum(f.result() for f in futures)
    return ExperimentResult(
        config=cfg,
        successes=successes,
        estimate=Fraction(successes, cfg.draws),
        wilson_95=wilson_interval_95(successes, cfg.draws),
        bound=probability_bound(cfg.size, cfg.range_r),
    )


def range_sweep(
    size: int, draws: int, ranges, seed: int, jobs: int = 1
) -> list[ExperimentResult]:
    """Run one experiment per range cardinality, reusing the seed.

    Emits the estimate-versus-bound data used to probe how the choice of
    range fades with growing size; no verdicts are attached.
    """
    return [
        run_experiment(
            ExperimentConfig(size=size, draws=draws, range_r=r, seed=seed, jobs=jobs)
        )
        for r in ranges
    ]
