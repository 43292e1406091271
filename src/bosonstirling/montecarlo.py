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

Trials run in blocks, and one loop (:func:`_count_successes`) decides
every range of an experiment or sweep block by block.  Where the ``int64``
bound holds, :mod:`bosonstirling.batch` computes numpy's draws for the
whole block at once and decides them in ``int64``.  That gives exactly
what the per-trial path — :func:`trial_stream`, :func:`random_unipotent`
and :func:`is_approximate_substitution` — gives, and that path decides,
inside the same block, every trial the batch cannot.  A block's Philox
words are drawn once and scaled for every range of a sweep
(:func:`run_sweep`), since only that scaling depends on r.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, json_list, json_value
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

#: Largest range an experiment accepts: numpy draws entries as ``int64``.
MAX_RANGE = 2**63 - 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: `draws` matrices of dimension `size`, entries in {1..range_r}."""

    size: int
    draws: int
    range_r: int
    seed: int
    jobs: int = 1

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if type(value) is not int:
                raise ValidationError(f"{field.name} must be an int, got {value!r}")
        if self.size < 2:
            raise ValidationError(f"size must be at least 2, got {self.size}")
        if self.size > MAX_SIZE:
            raise ValidationError(f"size must be at most {MAX_SIZE}, got {self.size}")
        if self.draws < 1:
            raise ValidationError(f"draws must be at least 1, got {self.draws}")
        if self.range_r < 1:
            raise ValidationError(f"range must be at least 1, got {self.range_r}")
        if self.range_r > MAX_RANGE:
            raise ValidationError(f"range must be at most {MAX_RANGE}, got {self.range_r}")
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
            size=json_value(obj, "size", int),
            draws=json_value(obj, "draws", int),
            range_r=json_value(obj, "range", int),
            seed=json_value(obj, "seed", int),
            jobs=json_value(obj, "jobs", int),
        )
        result = cls(config=cfg, successes=json_value(obj, "successes", int))
        texts = {key: json_value(obj, key) for key in ("estimate", "wilson_95", "bound")}
        wilson = json_list(texts["wilson_95"], "wilson_95", length=2)
        serialized = {
            "estimate": parse_rational(texts["estimate"]),
            "wilson_95": tuple(map(parse_rational, wilson)),
            "bound": parse_rational(texts["bound"]),
        }
        for key, value in serialized.items():
            if value != getattr(result, key):
                raise ValidationError(
                    f"serialized {key} {texts[key]!r} does not match the derived "
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
    return FiniteMatrix(_unipotent_rows(values, size))


def _unipotent_rows(values: list[int], size: int) -> list[list[int]]:
    """The identity of dimension `size` with its strict lower triangle
    filled from `values` in row-major order."""
    rows = []
    for i in range(size):
        start = i * (i - 1) // 2
        rows.append(values[start:start + i] + [1] + [0] * (size - 1 - i))
    return rows


def _scalar_trial(seed: int, size: int, range_r: int, trial: int) -> tuple[list[int], bool]:
    """`trial` by the per-trial path: its strict lower triangle, row-major, and verdict."""
    m = random_unipotent(size, range_r, trial_stream(seed, trial))
    triangle = [v for i, row in enumerate(m.numerators) for v in row[:i]]
    return triangle, is_approximate_substitution(m).verdict


#: Whether the batch path may be used in this process; False for good after
#: any disagreement with the per-trial path.
_batch_ok = True


def _scalar_successes(seed: int, size: int, range_r: int, trials) -> int:
    """Passes among `trials`, each drawn from its own stream and tested exactly."""
    return sum(_scalar_trial(seed, size, range_r, trial)[1] for trial in trials)


def _count_successes(seed: int, size: int, ranges, start: int, stop: int) -> list[int]:
    """Passes among trials start..stop−1, one count per range of `ranges`.

    One loop decides every range, blocks of trials outer and ranges inner.
    A range where :func:`.batch.fits_int64` holds takes the block's Philox
    words, computed once and scaled for each such range, and
    :func:`.batch.batch_verdicts`; its trials with a rejected draw are
    redrawn by the per-trial path.  Every other range, which includes every
    range of 2³² or more, is counted by the per-trial path over the same
    block.  NEP 19 lets numpy change the stream of a Generator method
    between releases, so for every batch range the first trial of the call
    that the batch draws without a reject is also drawn and decided by the
    per-trial path.  A disagreement turns the batch path off for good in
    this process and returns every range's per-trial count.
    """
    global _batch_ok
    # Imported on first use: the commands that run no experiment never load it.
    from . import batch

    count = size * (size - 1) // 2
    step = batch.trials_per_block(size)
    batched = [_batch_ok and batch.fits_int64(size, r) for r in ranges]
    unchecked = list(batched)
    counts = [0] * len(ranges)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        words = batch.trial_words(seed, lo, hi, count) if any(batched) else None
        for i, range_r in enumerate(ranges):
            if not batched[i]:
                counts[i] += _scalar_successes(seed, size, range_r, range(lo, hi))
                continue
            values, rejected = batch.scaled_draws(words, range_r)
            passed = batch.batch_verdicts(size, values) & ~rejected
            kept = np.flatnonzero(~rejected)
            if unchecked[i] and kept.size:
                unchecked[i] = False
                t = int(kept[0])
                if _scalar_trial(seed, size, range_r, lo + t) != (
                    values[t].tolist(), bool(passed[t])
                ):
                    _batch_ok = False
                    return [_scalar_successes(seed, size, r, range(start, stop)) for r in ranges]
            redo = (lo + np.flatnonzero(rejected)).tolist()
            counts[i] += int(np.count_nonzero(passed))
            counts[i] += _scalar_successes(seed, size, range_r, redo)
    return counts


#: Decimal digits to which :func:`_sqrt_above` bounds a square root.
_SQRT_DIGITS = 30


def _sqrt_above(value: Fraction) -> Fraction:
    """A rational above √value by at most 10^-_SQRT_DIGITS, for value > 0."""
    a, b = value.numerator, value.denominator
    scale = 10**_SQRT_DIGITS
    return Fraction(isqrt(a * b * scale * scale) + 1, b * scale)


def wilson_interval_95(successes: int, draws: int) -> tuple[Fraction, Fraction]:
    """95% Wilson score interval with exact rational endpoints.

    The exact endpoints are irrational (they contain a square root); this
    returns a rational outer enclosure, widened by less than 10^-30 on each
    side, and clipped to [0, 1].  With draws ≥ 1 the square root's argument
    is at least z²/(4·draws²) > 0.
    """
    if draws < 1:
        raise ValidationError(f"draws must be at least 1, got {draws}")
    if not 0 <= successes <= draws:
        raise ValidationError(f"successes {successes} outside 0..{draws}")
    n = draws
    z2 = _Z95 * _Z95
    phat = Fraction(successes, n)
    denom = 1 + z2 / n
    center = phat + z2 / (2 * n)
    disc = phat * (1 - phat) / n + z2 / (4 * n * n)
    margin = _Z95 * _sqrt_above(disc)
    lo = (center - margin) / denom
    hi = (center + margin) / denom
    return max(Fraction(0), lo), min(Fraction(1), hi)


def worker_count(jobs: int, draws: int) -> int:
    """Processes to start for `jobs` requested: at most one per draw and per CPU."""
    return min(jobs, draws, os.cpu_count() or 1)


def run_sweep(cfg: ExperimentConfig, ranges) -> list[ExperimentResult]:
    """The experiment of `cfg` at each range of `ranges`, in order.

    Every range sees the same trials (seed, 0), ..., (seed, draws − 1), and
    a trial's Philox words do not depend on the range, so each block of
    trials is drawn once for the whole sweep.  Each range's config is
    checked before any trial is drawn.  The per-trial streams make each
    outcome a pure function of (seed, size, draws, range); `jobs` only
    changes the schedule: one pool serves the sweep, and each worker counts
    every range over its span of trials.
    """
    configs = [replace(cfg, range_r=r) for r in ranges]
    ranges = [c.range_r for c in configs]
    jobs = worker_count(cfg.jobs, cfg.draws)
    if jobs == 1:
        counts = _count_successes(cfg.seed, cfg.size, ranges, 0, cfg.draws)
    else:
        step = -(-cfg.draws // jobs)
        spans = [
            (start, min(start + step, cfg.draws))
            for start in range(0, cfg.draws, step)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_count_successes, cfg.seed, cfg.size, ranges, start, stop)
                for start, stop in spans
            ]
            counts = [sum(c) for c in zip(*(f.result() for f in futures))]
    return [ExperimentResult(config=c, successes=n) for c, n in zip(configs, counts)]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Draw cfg.draws unipotent matrices and count substitution-test passes:
    the sweep of :func:`run_sweep` over the one range cfg.range_r."""
    return run_sweep(cfg, [cfg.range_r])[0]
