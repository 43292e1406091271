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

Trials run in blocks: :mod:`bosonstirling.batch` computes numpy's draws
for a whole block of trials at once and decides them in ``int64``.  That
gives exactly what the per-trial path — :func:`trial_stream`,
:func:`random_unipotent` and :func:`is_approximate_substitution` — gives,
and that path still decides every trial the batch cannot.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .series import parse_rational
from .substitution import (
    FiniteMatrix,
    is_approximate_substitution,
)

#: z for the 95% Wilson interval, kept rational on purpose.
_Z95 = Fraction(196, 100)

#: Largest matrix size an experiment accepts.  One trial holds size² entries
#: and its verdict reads O(size³) terms, so the cap keeps every trial small
#: (4,096 entries); the tests and the benchmark use sizes up to 12.
MAX_SIZE = 64


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
        if self.size > MAX_SIZE:
            raise ValidationError(f"size must be at most {MAX_SIZE}, got {self.size}")
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
    """The outcome of one experiment: its configuration and the passes counted.

    ``estimate``, ``wilson_95`` and ``bound`` are functions of those two
    fields, computed on first read and then kept.
    """

    config: ExperimentConfig
    successes: int

    def __post_init__(self):
        if not 0 <= self.successes <= self.config.draws:
            raise ValidationError(
                f"successes {self.successes} outside 0..{self.config.draws}"
            )

    @cached_property
    def estimate(self) -> Fraction:
        return Fraction(self.successes, self.config.draws)

    @cached_property
    def wilson_95(self) -> tuple[Fraction, Fraction]:
        return wilson_interval_95(self.successes, self.config.draws)

    @cached_property
    def bound(self) -> Fraction:
        return probability_bound(self.config.size, self.config.range_r)

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
        """Read :meth:`to_json_obj` output; ValidationError if a derived value disagrees."""
        cfg = ExperimentConfig(
            size=int(obj["size"]),
            draws=int(obj["draws"]),
            range_r=int(obj["range"]),
            seed=int(obj["seed"]),
            jobs=int(obj["jobs"]),
        )
        result = cls(config=cfg, successes=int(obj["successes"]))
        serialized = {
            "estimate": parse_rational(obj["estimate"]),
            "wilson_95": tuple(map(parse_rational, obj["wilson_95"])),
            "bound": parse_rational(obj["bound"]),
        }
        for key, value in serialized.items():
            if value != getattr(result, key):
                raise ValidationError(
                    f"serialized {key} {obj[key]!r} does not match the derived "
                    f"{result.to_json_obj()[key]!r}"
                )
        return result


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
    """Upper bound r^(2n−3)/r^(n(n−1)/2) = 1/r^((n−2)(n−3)/2) on the substitution probability."""
    if range_r < 1:
        raise ValidationError(f"range must be at least 1, got {range_r}")
    determined, total = count_free_parameters(size)
    return Fraction(1, range_r ** (total - determined))


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
    return FiniteMatrix.from_rows(_unipotent_rows(values, size))


def _unipotent_rows(values: list[int], size: int) -> list[list[int]]:
    """The identity of dimension `size` with its strict lower triangle
    filled from `values` in row-major order."""
    rows = []
    for i in range(size):
        start = i * (i - 1) // 2
        rows.append(values[start:start + i] + [1] + [0] * (size - 1 - i))
    return rows


def _agrees_with_trial(
    seed: int, trial: int, size: int, range_r: int, row: np.ndarray, passed: bool
) -> bool:
    """Whether the batch path's draws and verdict of `trial` are the per-trial path's."""
    m = random_unipotent(size, range_r, trial_stream(seed, trial))
    triangle = [v for i, entries in enumerate(m.entries) for v in entries[:i]]
    return row.tolist() == triangle and passed == is_approximate_substitution(m).verdict


#: Whether the batch path may be used in this process; False for good after
#: any disagreement with the per-trial path.
_batch_ok = True


def _scalar_successes(seed: int, size: int, range_r: int, trials) -> int:
    """Passes among `trials`, each drawn from its own stream and tested exactly."""
    successes = 0
    for trial in trials:
        m = random_unipotent(size, range_r, trial_stream(seed, trial))
        if is_approximate_substitution(m).verdict:
            successes += 1
    return successes


def _count_successes(seed: int, size: int, range_r: int, start: int, stop: int) -> int:
    """Passes among trials start..stop−1.

    Where :func:`.batch.fits_int64` holds, trials are drawn and decided by
    the batch kernels, :func:`.batch.trials_per_block` at a time.  NEP 19
    lets numpy change the stream of a Generator method between releases, so
    the first trial of every call that the batch draws without a reject is
    also drawn and decided by the per-trial path; any disagreement sends
    this call and every later one in the process down that path.  Trials
    with a rejected draw, sizes and ranges outside the ``int64`` bound
    (which excludes every range of 2³² or more) and every trial once the
    batch path is disabled go through the per-trial path.
    """
    global _batch_ok
    # Imported on first use: the commands that run no experiment never load it.
    from . import batch

    if not (_batch_ok and batch.fits_int64(size, range_r)):
        return _scalar_successes(seed, size, range_r, range(start, stop))
    count = size * (size - 1) // 2
    step = batch.trials_per_block(size)
    checked = False
    successes = 0
    for lo in range(start, stop, step):
        values, rejected = batch.batch_draws(seed, lo, min(lo + step, stop), count, range_r)
        passed = batch.batch_verdicts(size, values) & ~rejected
        kept = np.flatnonzero(~rejected)
        if not checked and kept.size:
            checked = True
            t = int(kept[0])
            if not _agrees_with_trial(
                seed, lo + t, size, range_r, values[t], bool(passed[t])
            ):
                _batch_ok = False
                return _scalar_successes(seed, size, range_r, range(start, stop))
        redo = (lo + np.flatnonzero(rejected)).tolist()
        successes += int(np.count_nonzero(passed))
        successes += _scalar_successes(seed, size, range_r, redo)
    return successes


#: Decimal digits to which :func:`_sqrt_bounds` encloses a square root.
_SQRT_DIGITS = 30


def _sqrt_bounds(value: Fraction) -> tuple[Fraction, Fraction]:
    """Rational enclosure of √value, tight to 10^-_SQRT_DIGITS."""
    if value < 0:
        raise ValidationError("square root of a negative value")
    if value == 0:
        return Fraction(0), Fraction(0)
    a, b = value.numerator, value.denominator
    scale = 10**_SQRT_DIGITS
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
    return ExperimentResult(config=cfg, successes=successes)


def range_sweep(
    size: int, draws: int, ranges, seed: int, jobs: int = 1
) -> list[ExperimentResult]:
    """Run one experiment per range cardinality, reusing the seed.

    Emits the estimate-versus-bound data used to probe how the choice of
    range fades with growing size; no verdicts are attached.  Every
    configuration is checked before the first experiment runs.
    """
    configs = [
        ExperimentConfig(size=size, draws=draws, range_r=r, seed=seed, jobs=jobs)
        for r in ranges
    ]
    return [run_experiment(cfg) for cfg in configs]
