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
(:func:`run_sweep`), since only that scaling depends on r, and the scaled
rows of its ranges are decided together, in as few verdict calls as the
block's element budget allows.

The report is worked out in integers: the estimate s/n and a sweep's
ratio s·r^e/n are one fraction each, and :func:`wilson_interval_95` bounds
the interval's square root with ``math.isqrt`` and builds each endpoint as
one fraction.

numpy is imported by the functions that draw, and the process pool by a
run with more than one job, so importing this module loads neither.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from typing import NamedTuple

from .errors import json_derived, json_list, json_value, require_int, require_items
from .series import parse_rational
from .substitution import FiniteMatrix, is_approximate_substitution

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
        # Types first, each under its field's name.
        for field in fields(self):
            require_int(getattr(self, field.name), field.name)
        require_int(self.size, "size", 2, MAX_SIZE)
        require_int(self.draws, "draws", 1)
        require_int(self.range_r, "range", 1, MAX_RANGE)
        require_int(self.seed, "seed", 0, 2**64 - 1)
        require_int(self.jobs, "jobs", 1)


@dataclass(frozen=True)
class ExperimentResult:
    """The outcome of one experiment: its configuration and the passes counted.

    ``estimate``, ``wilson_95`` and ``bound`` are functions of those two
    fields, computed on first read and then kept.
    """

    config: ExperimentConfig
    successes: int

    def __post_init__(self):
        require_int(self.successes, "successes", 0, self.config.draws)

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
        """estimate/bound = (s/n)·r^e, built as one fraction s·r^e/n."""
        return Fraction(self.successes * self.bound.denominator, self.config.draws)

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
        """Read :meth:`to_json_obj` output, or a sweep row, which adds ``ratio``
        (estimate/bound); ValidationError if a derived value disagrees."""
        cfg = ExperimentConfig(
            size=json_value(obj, "size", int),
            draws=json_value(obj, "draws", int),
            range_r=json_value(obj, "range", int),
            seed=json_value(obj, "seed", int),
            jobs=json_value(obj, "jobs", int),
        )
        result = cls(config=cfg, successes=json_value(obj, "successes", int))
        json_derived(obj, "estimate", result.estimate, parse_rational)
        json_derived(obj, "wilson_95", result.wilson_95, lambda pair: tuple(
            map(parse_rational, json_list(pair, "wilson_95", length=2))))
        json_derived(obj, "bound", result.bound, parse_rational)
        if "ratio" in obj:
            json_derived(obj, "ratio", result.ratio_to_bound, parse_rational)
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
    require_int(size, "size", 2)
    return FreeParameterCount(2 * size - 3, size * (size - 1) // 2)


def probability_bound(size: int, range_r: int) -> Fraction:
    """Upper bound r^(2n−3)/r^(n(n−1)/2) = 1/r^((n−2)(n−3)/2) on the substitution probability."""
    require_int(range_r, "range", 1)
    determined, total = count_free_parameters(size)
    return Fraction(1, range_r ** (total - determined))


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Independent Philox stream for one trial, keyed by (seed, trial)."""
    import numpy as np

    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_unipotent(
    size: int, range_r: int, rng: np.random.Generator
) -> FiniteMatrix:
    """Identity matrix with the strict lower triangle drawn from {1..range_r}.

    Entries are consumed from `rng` in row-major order of the triangle.
    """
    require_int(size, "size", 1, MAX_SIZE)
    require_int(range_r, "range", 1, MAX_RANGE)
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
    redrawn by the per-trial path.  The scaled rows of as many such ranges
    as keep rows·size² within ``batch._BLOCK_ELEMENTS`` are stacked and
    decided by one verdict call, so a sweep pays numpy's per-call cost once
    per block rather than once per range, and memory stays that of one
    full block.  Every other range, which includes every range of 2³² or
    more, is counted by the per-trial path over the same block.  NEP 19
    lets numpy change the stream of a Generator method between releases,
    so for every batch range the first trial of the call that the batch
    draws without a reject is also drawn and decided by the per-trial path.
    A disagreement turns the batch path off for good in this process and
    returns every range's per-trial count.
    """
    global _batch_ok
    # Imported on first use: the commands that run no experiment never load them.
    import numpy as np

    from . import batch

    count = size * (size - 1) // 2
    step = batch.trials_per_block(size)
    batched = [_batch_ok and batch.fits_int64(size, r) for r in ranges]
    unchecked = list(batched)
    todo = [i for i, b in enumerate(batched) if b]
    counts = [0] * len(ranges)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        for i, range_r in enumerate(ranges):
            if not batched[i]:
                counts[i] += _scalar_successes(seed, size, range_r, range(lo, hi))
        if not todo:
            continue
        rows = hi - lo
        words = batch.trial_words(seed, lo, hi, count)
        # At least one: trials_per_block keeps a full block within the budget.
        per_call = batch._BLOCK_ELEMENTS // (rows * size * size)
        for g in range(0, len(todo), per_call):
            group = todo[g:g + per_call]
            draws = [batch.scaled_draws(words, ranges[i]) for i in group]
            stacked = batch.batch_verdicts(size, np.concatenate([v for v, _ in draws]))
            verdicts = stacked.reshape(len(group), rows)
            for i, (values, rejected), passed in zip(group, draws, verdicts):
                passed &= ~rejected
                kept = np.flatnonzero(~rejected)
                if unchecked[i] and kept.size:
                    unchecked[i] = False
                    t = int(kept[0])
                    if _scalar_trial(seed, size, ranges[i], lo + t) != (
                        values[t].tolist(), bool(passed[t])
                    ):
                        _batch_ok = False
                        return [_scalar_successes(seed, size, r, range(start, stop))
                                for r in ranges]
                redo = (lo + np.flatnonzero(rejected)).tolist()
                counts[i] += int(np.count_nonzero(passed))
                counts[i] += _scalar_successes(seed, size, ranges[i], redo)
    return counts


#: 10^30: the square root in :func:`wilson_interval_95` is bounded from
#: above within 10^-30, and its square, 10^60, scales the radicand.
_ROOT_SCALE = 10**30
_ROOT_SCALE_SQUARED = _ROOT_SCALE**2


def wilson_interval_95(successes: int, draws: int) -> tuple[Fraction, Fraction]:
    """95% Wilson score interval with exact rational endpoints.

    The exact endpoints are irrational (they contain a square root); this
    returns a rational outer enclosure, widened by less than 10^-30 on each
    side, and clipped to [0, 1].  It is computed in integers, one gcd for
    the radicand and one per endpoint.

    With s = successes, n = draws, p = s/n and z = 49/25 (z² = 2401/625),
    Wilson's endpoints are (c ∓ z·√disc)/w with

        c = p + z²/(2n) = (1250·s + 2401)/(1250·n),
        w = 1 + z²/n = (625·n + 2401)/(625·n),
        disc = p(1−p)/n + z²/(4n²) = (2500·s·(n−s) + 2401·n)/(2500·n³),

    and disc ≥ z²/(4n²) > 0.  Let a/b be disc in lowest terms.  The root is
    bounded from above by ρ/(b·10³⁰) with ρ = ⌊√(a·b·10⁶⁰)⌋ + 1: that is
    above √(a/b) = √(a·b·10⁶⁰)/(b·10³⁰) and below it plus 10⁻³⁰.  The
    gcd is not optional: ρ/(b·10³⁰) depends on the pair (a, b), not only on
    a/b, since k·a/(k·b) gives ⌊k·√(ab)·10³⁰⌋ + 1 over k·b·10³⁰, a
    different rational, so only the lowest-terms pair gives the endpoints
    this function has always printed.  Multiplying c ∓ z·ρ/(b·10³⁰) by
    625·n/(625·n + 2401) gives each endpoint as one fraction,

        (B ∓ O)/E,  B = b·10³⁰·(1250·s + 2401),  O = 2450·n·ρ,
                    E = 2·b·10³⁰·(625·n + 2401),

    with E > 0, so the clip compares integers: the lower endpoint is 0
    when B ≤ O and the upper one 1 when B + O ≥ E.
    """
    require_int(draws, "draws", 1)
    require_int(successes, "successes", 0, draws)
    s, n = successes, draws
    num, den = 2500 * s * (n - s) + 2401 * n, 2500 * n**3
    g = gcd(num, den)
    a, b = num // g, den // g
    scale = b * _ROOT_SCALE
    offset = 2450 * n * (isqrt(a * b * _ROOT_SCALE_SQUARED) + 1)
    base = scale * (1250 * s + 2401)
    whole = 2 * scale * (625 * n + 2401)
    lo = Fraction(base - offset, whole) if base > offset else Fraction(0)
    hi = Fraction(base + offset, whole) if base + offset < whole else Fraction(1)
    return lo, hi


def worker_count(jobs: int, draws: int) -> int:
    """Processes to start for `jobs` requested: at most one per draw and per CPU.

    One job reads no CPU count: it is the one process whatever the count.
    """
    return 1 if jobs == 1 else min(jobs, draws, os.cpu_count() or 1)


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
    configs = [replace(cfg, range_r=r) for r in require_items(ranges, "ranges")]
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
        from concurrent.futures import ProcessPoolExecutor

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
