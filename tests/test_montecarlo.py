"""Random unipotent matrices, the experiment, and the probability bound."""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import Future
from dataclasses import fields
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonstirling import (
    ExperimentConfig,
    ExperimentResult,
    FiniteMatrix,
    TruncatedSeries,
    ValidationError,
    build_substitution_matrix,
    count_free_parameters,
    is_approximate_substitution,
    probability_bound,
    random_unipotent,
    run_experiment,
    run_sweep,
    trial_stream,
    wilson_interval_95,
)
from bosonstirling import batch, montecarlo
from bosonstirling.batch import batch_verdicts, fits_int64, scaled_draws, trial_words
from bosonstirling.cli import main as cli_main
from bosonstirling.montecarlo import MAX_RANGE, MAX_SIZE, worker_count
from bosonstirling.substitution import recurrence_failure
from oracles import sqrt_above
from oracles import wilson_interval_95 as fraction_wilson

# Recorded from the reference generator at first run; guards against stream
# drift in Philox keying or triangle fill order.
PINNED_SIZE4_R10_SEED42 = [
    [1, 0, 0, 0],
    [4, 1, 0, 0],
    [9, 4, 1, 0],
    [2, 10, 9, 1],
]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(size=1, draws=10, range_r=5, seed=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(size=3, draws=0, range_r=5, seed=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(size=3, draws=10, range_r=0, seed=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(size=3, draws=10, range_r=5, seed=2**64)
        with pytest.raises(ValidationError):
            ExperimentConfig(size=3, draws=10, range_r=5, seed=1, jobs=0)

    @pytest.mark.parametrize("value", [True, 4.0], ids=repr)
    @pytest.mark.parametrize("field", ["size", "draws", "range_r", "seed", "jobs"])
    def test_fields_must_be_exactly_int(self, field, value):
        # A bool would serialise as true, which from_json_obj rejects, and a
        # float would fail later with TypeError.
        cfg = dict(size=4, draws=10, range_r=3, seed=1, jobs=1)
        with pytest.raises(ValidationError, match=f"^{field} must be an int"):
            ExperimentConfig(**cfg | {field: value})
        result = run_experiment(ExperimentConfig(**cfg))
        assert ExperimentResult.from_json_obj(
            json.loads(json.dumps(result.to_json_obj()))
        ) == result

    def test_range_cap_is_what_numpy_draws(self):
        # numpy draws entries as int64; one more would fail at the first draw.
        assert run_experiment(
            ExperimentConfig(size=4, draws=3, range_r=MAX_RANGE, seed=1)
        ).successes == 0
        with pytest.raises(ValidationError, match="range must be at most"):
            ExperimentConfig(size=4, draws=3, range_r=MAX_RANGE + 1, seed=1)

    def test_refuses_a_bound_it_cannot_print(self):
        # Refused when built, not when its result is printed.
        with pytest.raises(ValidationError, match=r"^the bound's denominator 4294967295\^1891 "):
            ExperimentConfig(size=64, draws=20, range_r=2**32 - 1, seed=1)

    def test_sweep_refuses_each_range_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_count_successes", _no_trials)
        cfg = ExperimentConfig(size=64, draws=300, range_r=10, seed=3)
        with pytest.raises(ValidationError, match=r"^the bound's denominator 1000\^1891 "):
            run_sweep(cfg, [10, 1000])

    def test_reader_refuses_the_config_before_its_derived_keys(self):
        # No derived key is read: the config is refused first.
        row = {"size": 64, "draws": 20, "range": 2**32 - 1, "seed": 1, "jobs": 1,
               "successes": 0}
        with pytest.raises(ValidationError, match=r"^the bound's denominator 4294967295\^1891 "):
            ExperimentResult.from_json_obj(row)


class TestRandomUnipotent:
    def test_size2_range1_is_forced(self):
        m = random_unipotent(2, 1, trial_stream(123, 0))
        assert m == FiniteMatrix.from_rows([[1, 0], [1, 1]])

    def test_pinned_matrix(self):
        m = random_unipotent(4, 10, trial_stream(42, 0))
        assert [[int(v) for v in row] for row in m.entries] == PINNED_SIZE4_R10_SEED42

    def test_shape_and_value_range(self):
        for trial in range(20):
            m = random_unipotent(5, 7, trial_stream(999, trial))
            for i in range(5):
                for k in range(5):
                    v = m.entries[i][k]
                    if i == k:
                        assert v == 1
                    elif k > i:
                        assert v == 0
                    else:
                        assert 1 <= v <= 7 and v.denominator == 1

    @pytest.mark.parametrize(
        "size,range_r,message",
        [(0, 2, "size must be at least 1, got 0"), (3, 0, "range must be at least 1, got 0")],
    )
    def test_rejects_size_and_range_below_one(self, size, range_r, message):
        with pytest.raises(ValidationError, match=message):
            random_unipotent(size, range_r, trial_stream(1, 0))

    @pytest.mark.parametrize(
        "rng", [None, 42, np.random.RandomState(42)], ids=["None", "int", "RandomState"]
    )
    def test_rejects_an_rng_that_is_not_a_generator(self, rng):
        with pytest.raises(ValidationError, match="^rng must be a numpy.random.Generator"):
            random_unipotent(4, 3, rng)

    def test_size3_always_passes(self):
        for trial in range(200):
            m = random_unipotent(3, 10_000, trial_stream(5, trial))
            assert is_approximate_substitution(m).verdict


class TestBoundAndCounts:
    def test_bound_values(self):
        assert probability_bound(3, 10) == 1
        assert probability_bound(4, 10) == Fraction(1, 10)
        assert probability_bound(4, 100) == Fraction(1, 100)
        assert probability_bound(10, 10) == Fraction(10**17, 10**45)
        with pytest.raises(ValidationError, match="range must be at least 1, got 0"):
            probability_bound(4, 0)

    def test_free_parameter_counts(self):
        assert tuple(count_free_parameters(3)) == (3, 3)
        assert tuple(count_free_parameters(4)) == (5, 6)
        assert tuple(count_free_parameters(2)) == (1, 1)
        with pytest.raises(ValidationError, match="size must be at least 2, got 1"):
            count_free_parameters(1)

    def test_bound_is_one_up_to_size3(self):
        for r in (2, 3, 10, 10**6):
            assert probability_bound(2, r) == 1
            assert probability_bound(3, r) == 1


class TestWilson:
    def test_textbook_values(self):
        lo, hi = wilson_interval_95(50, 100)
        assert abs(float(lo) - 0.4038) < 5e-4
        assert abs(float(hi) - 0.5962) < 5e-4

    def test_degenerate_endpoints_clip(self):
        assert wilson_interval_95(100, 100)[1] == 1
        assert wilson_interval_95(0, 100)[0] == 0

    def test_enclosure_contains_estimate(self):
        for s, n in ((0, 10), (3, 10), (10, 10), (7, 123)):
            lo, hi = wilson_interval_95(s, n)
            assert lo <= Fraction(s, n) <= hi

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            wilson_interval_95(5, 4)

    @pytest.mark.parametrize("draws", [0, -1])
    def test_rejects_draws_below_one(self, draws):
        with pytest.raises(ValidationError, match="draws must be at least 1"):
            wilson_interval_95(0, draws)

    @settings(max_examples=200)
    @given(st.integers(1, 10**9).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
    def test_encloses_the_interval_at_60_digits(self, counts):
        # With √disc bounded within 10⁻⁶⁰ by isqrt, the interval from the
        # upper root bound holds the exact one, and the one from the lower
        # bound lies inside it; the enclosure must hold the first and exceed
        # the second by less than 10⁻³⁰ on each side.
        successes, n = counts
        z = Fraction(196, 100)
        phat = Fraction(successes, n)
        center, denom = phat + z * z / (2 * n), 1 + z * z / n
        disc = phat * (1 - phat) / n + z * z / (4 * n * n)
        a, b = disc.numerator, disc.denominator
        root = isqrt(a * b * 10**120)

        def interval(r):
            return max(Fraction(0), (center - z * r) / denom), min(Fraction(1), (center + z * r) / denom)

        inner = interval(Fraction(root, b * 10**60))
        outer = interval(Fraction(root + 1, b * 10**60))
        lo, hi = wilson_interval_95(successes, n)
        assert lo <= outer[0] and hi >= outer[1]
        assert inner[0] - lo < Fraction(1, 10**30) and hi - inner[1] < Fraction(1, 10**30)

    @staticmethod
    def agree(successes, draws):
        # Equal values and equal text: the text is what the CLI prints.
        got, want = wilson_interval_95(successes, draws), fraction_wilson(successes, draws)
        assert got == want and list(map(str, got)) == list(map(str, want)), (successes, draws)

    def test_integer_form_matches_the_fraction_oracle_exhaustively(self):
        for n in range(1, 301):
            for s in range(n + 1):
                self.agree(s, n)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 2**40).flatmap(
        lambda n: st.tuples(st.sampled_from([0, n]) | st.integers(0, n), st.just(n))))
    def test_integer_form_matches_the_fraction_oracle(self, counts):
        self.agree(*counts)


class TestSqrtAbove:
    """The oracle's sqrt_above(v) = s bounds √v within 10⁻³⁰:
    s > √v ≥ s − 10⁻³⁰."""

    @staticmethod
    def bounds(v):
        s = sqrt_above(v)
        # √v ≥ 0, so the lower side is squared from max(s − 10⁻³⁰, 0).
        return s * s, max(s - Fraction(1, 10**30), Fraction(0)) ** 2

    @settings(max_examples=300)
    @given(st.integers(1, 10**40), st.integers(1, 10**80))
    def test_bounds_the_root(self, p, q):
        v = Fraction(p, q)
        above, below = self.bounds(v)
        assert above > v >= below

    def test_perfect_square_meets_the_lower_side(self):
        assert self.bounds(Fraction(4)) == ((2 + Fraction(1, 10**30)) ** 2, 4)

    def test_quarter_is_strictly_inside(self):
        above, below = self.bounds(Fraction(1, 4))
        assert above > Fraction(1, 4) > below


class TestRunExperiment:
    def test_size3_universality(self):
        result = run_experiment(ExperimentConfig(size=3, draws=1000, range_r=10, seed=2))
        assert result.successes == 1000
        assert result.estimate == 1
        assert result.bound == 1

    def test_size2_trivial(self):
        result = run_experiment(ExperimentConfig(size=2, draws=10, range_r=5, seed=3))
        assert result.estimate == 1

    def test_deterministic_for_fixed_config(self):
        cfg = ExperimentConfig(size=4, draws=300, range_r=10, seed=77)
        assert run_experiment(cfg).successes == run_experiment(cfg).successes

    def test_jobs_do_not_change_the_outcome(self):
        serial = run_experiment(ExperimentConfig(size=4, draws=200, range_r=10, seed=11))
        parallel = run_experiment(
            ExperimentConfig(size=4, draws=200, range_r=10, seed=11, jobs=3)
        )
        assert serial.successes == parallel.successes
        assert serial.estimate == parallel.estimate

    def test_worker_count_is_capped(self, monkeypatch):
        # Only the helper is called: no process is started for these values.
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert worker_count(1, 10**9) == 1
        assert worker_count(10**6, 10**9) == 2
        assert worker_count(10**6, 1) == 1
        assert worker_count(2, 10**9) == 2
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert worker_count(10**6, 10**9) == 1

    def test_one_job_reads_no_cpu_count(self, monkeypatch):
        cfg = ExperimentConfig(size=4, draws=30, range_r=3, seed=2)
        expected = run_experiment(cfg)

        def fail():
            raise AssertionError("the CPU count was read for one job")

        monkeypatch.setattr("os.cpu_count", fail)
        assert worker_count(1, 10**9) == 1
        assert run_experiment(cfg) == expected

    @pytest.mark.parametrize("size", [4, 5])
    def test_wilson_lower_edge_respects_bound(self, size):
        result = run_experiment(
            ExperimentConfig(size=size, draws=10_000, range_r=10, seed=13)
        )
        assert result.wilson_95[0] <= result.bound

    def test_result_validation(self):
        cfg = ExperimentConfig(size=3, draws=10, range_r=5, seed=0)
        with pytest.raises(ValidationError):
            ExperimentResult(config=cfg, successes=11)

    @pytest.mark.parametrize("value", [True, 2.0], ids=repr)
    def test_successes_must_be_exactly_int(self, value):
        # A bool would serialise as true, which from_json_obj rejects, and a
        # float would fail later with TypeError in estimate.
        cfg = ExperimentConfig(size=4, draws=10, range_r=3, seed=1)
        with pytest.raises(ValidationError, match="^successes must be an int"):
            ExperimentResult(config=cfg, successes=value)
        result = ExperimentResult(config=cfg, successes=2)
        assert ExperimentResult.from_json_obj(
            json.loads(json.dumps(result.to_json_obj()))
        ) == result

    def test_result_stores_only_measured_values(self):
        result = run_experiment(ExperimentConfig(size=4, draws=30, range_r=3, seed=2))
        assert [f.name for f in fields(ExperimentResult)] == ["config", "successes"]
        assert result.estimate == Fraction(result.successes, 30)
        assert result.wilson_95 == wilson_interval_95(result.successes, 30)
        assert result.bound == probability_bound(4, 3)
        assert result.wilson_95 is result.wilson_95

    def test_result_serialization_round_trip(self):
        result = run_experiment(ExperimentConfig(size=3, draws=20, range_r=4, seed=9))
        obj = result.to_json_obj()
        assert ExperimentResult.from_json_obj(obj) == result

    def test_csv_row_fields(self, capsys):
        argv = ["montecarlo", "--size", "3", "--draws", "20", "--range", "4", "--seed", "9"]
        assert cli_main([*argv, "--format", "csv"]) == 0
        _, row = capsys.readouterr().out.splitlines()
        values = row.split(";")
        assert values[:5] == ["3", "20", "4", "9", "20"]
        assert values[5] == "1"
        assert len(values) == 9


class TestSizeCap:
    # Only the config is built: no trial is drawn at these sizes.
    def test_cap_accepted_and_one_above_rejected(self):
        ExperimentConfig(size=MAX_SIZE, draws=1, range_r=10, seed=1)
        with pytest.raises(ValidationError, match="at most"):
            ExperimentConfig(size=MAX_SIZE + 1, draws=1, range_r=10, seed=1)
        with pytest.raises(ValidationError, match="at most"):
            ExperimentConfig(size=100_000, draws=1, range_r=10, seed=1)

    def test_bound_digits_at_the_cap(self):
        # The printed bound is 1/r^((n−2)(n−3)/2).  At the cap it stays
        # below Python's 4,300-digit int-to-text limit for r = 10, and
        # exceeds it for r = 2³²−1, as README says, so that bound is refused.
        assert probability_bound(MAX_SIZE, 10) == Fraction(1, 10**1891)
        with pytest.raises(ValidationError, match=rf"^the bound's denominator {2**32 - 1}\^1891 "):
            probability_bound(MAX_SIZE, 2**32 - 1)


class TestUnprintableBoundRefused:
    """The library refuses a bound it could not print, as the CLI does, so
    no size asks probability_bound for unbounded work."""

    def test_refused_with_its_exponent(self):
        with pytest.raises(ValidationError, match=r"^the bound's denominator 10\^19503 has more "
                                                  r"than 4300 digits, too many to print$"):
            probability_bound(200, 10)

    def test_refused_before_the_power(self):
        # 2^499997500003 would take 62 GB; (b−1)·e ≥ 4·4300 refuses it unbuilt.
        with pytest.raises(ValidationError, match=r"\^499997500003 has more than"):
            probability_bound(10**6, 2)

    def test_largest_printable_range_at_the_cap_returns(self):
        assert probability_bound(MAX_SIZE, 187) == Fraction(1, 187**1891)


# Entry counts 1, 3, 6, 10, 15, 21, 28 (sizes 2..8) cross the 8-draw block
# of one Philox output; 3·2³⁰ rejects a quarter of its draws.  The batch
# draws take every range below 2³², but experiments at 3·2³⁰ and above lie
# outside the int64 verdict bound and go to the per-trial path.
BATCH_RANGES = [1, 2, 3, 10, 3 * 2**30, 2**32 - 1, 2**32]
BATCH_SEEDS = [0, 2**64 - 1]


@pytest.fixture
def fresh_self_check(monkeypatch):
    monkeypatch.setattr(montecarlo, "_batch_ok", True)


class TestBatchAgreesWithPerTrialPath:
    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    @pytest.mark.parametrize("range_r", BATCH_RANGES[:-1])
    def test_draws_bitwise(self, seed, range_r):
        compared = rejected_total = 0
        for size in range(2, 9):
            count = size * (size - 1) // 2
            values, rejected = scaled_draws(trial_words(seed, 0, 40, count), range_r)
            assert values.shape == (40, count)
            for trial in range(40):
                if rejected[trial]:
                    rejected_total += 1
                    continue
                rng = trial_stream(seed, trial)
                expected = rng.integers(1, range_r, size=count, endpoint=True)
                assert values[trial].tolist() == expected.tolist(), (size, trial)
                compared += 1
        if range_r == 3 * 2**30:
            assert rejected_total > 0 and compared > 0
        else:
            assert rejected_total == 0

    def test_rejected_trials_really_redraw(self):
        # A flagged trial is one numpy's own draw differs on.
        values, rejected = scaled_draws(trial_words(0, 0, 40, 10), 3 * 2**30)
        for trial in np.flatnonzero(rejected).tolist():
            rng = trial_stream(0, trial)
            expected = rng.integers(1, 3 * 2**30, size=10, endpoint=True)
            assert values[trial].tolist() != expected.tolist()

    def test_draws_away_from_trial_zero(self):
        values, _ = scaled_draws(trial_words(2**64 - 1, 10**6, 10**6 + 5, 28), 10)
        for t in range(5):
            expected = trial_stream(2**64 - 1, 10**6 + t).integers(
                1, 10, size=28, endpoint=True
            )
            assert values[t].tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    @pytest.mark.parametrize("range_r", BATCH_RANGES)
    def test_successes(self, seed, range_r, fresh_self_check):
        for size in range(2, 9):
            scalar = montecarlo._scalar_successes(seed, size, range_r, range(120))
            assert montecarlo._count_successes(seed, size, [range_r], 0, 120) == [scalar]
        assert montecarlo._batch_ok is True

    @pytest.mark.parametrize("size", [50, 51, 57, MAX_SIZE])
    @pytest.mark.parametrize("range_r", [1, 3, 10])
    def test_successes_at_the_largest_sizes(self, size, range_r, fresh_self_check):
        scalar = montecarlo._scalar_successes(5, size, range_r, range(6))
        assert montecarlo._count_successes(5, size, [range_r], 0, 6) == [scalar]
        assert montecarlo._batch_ok is True

    @pytest.mark.parametrize("size,range_r", [(4, 3), (5, 3), (4, 2), (6, 2)])
    def test_successes_where_matrices_pass(self, size, range_r, fresh_self_check):
        scalar = montecarlo._scalar_successes(7, size, range_r, range(2000))
        (batched,) = montecarlo._count_successes(7, size, [range_r], 0, 2000)
        assert batched == scalar and montecarlo._batch_ok is True
        if (size, range_r) in ((4, 3), (5, 3)):
            assert scalar > 0

    def test_blocks_split_the_trials(self, monkeypatch):
        expected = montecarlo._count_successes(3, 4, [3], 5, 1005)
        monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 64)
        calls = []
        words = batch.trial_words
        monkeypatch.setattr(
            batch, "trial_words",
            lambda *args: calls.append(args) or words(*args),
        )
        assert montecarlo._count_successes(3, 4, [3], 5, 1005) == expected
        assert len(calls) == 1000 // 4 and all(c[2] - c[1] == 4 for c in calls)

    @pytest.mark.parametrize(
        "size,range_r", [(5, 2**32), (2, 2**30), (8, 2**32 - 1), (51, 10)]
    )
    def test_outside_int64_takes_the_per_trial_path(self, size, range_r, monkeypatch):
        assert not fits_int64(size, range_r)

        def fail(*args):
            raise AssertionError("batch draw used outside the int64 bound")

        monkeypatch.setattr(batch, "trial_words", fail)
        monkeypatch.setattr(batch, "scaled_draws", fail)
        expected = montecarlo._scalar_successes(1, size, range_r, range(5))
        assert montecarlo._count_successes(1, size, [range_r], 0, 5) == [expected]

    def test_rejected_trials_are_redrawn_per_trial(self, monkeypatch, fresh_self_check):
        # No seed is known to reject at a range inside the int64 bound, so
        # the draw flags some trials.  Trial 0 of seed 2 passes at size 4,
        # range 3, so counting its batch verdict as well as its redraw
        # would show; flagging it also moves the check to trial 1.
        expected = montecarlo._scalar_successes(2, 4, 3, range(500))
        words, draws = batch.trial_words, batch.scaled_draws
        starts = []
        redone = []
        scalar = montecarlo._scalar_successes

        def record_start(seed, start, stop, count):
            starts.append(start)
            return words(seed, start, stop, count)

        def flag(block, range_r):
            values, rejected = draws(block, range_r)
            start = starts[-1]
            for t in (0, 7, 300):
                if start <= t < start + len(block):
                    rejected[t - start] = True
            return values, rejected

        def record(seed, size, range_r, trials):
            redone.extend(trials)
            return scalar(seed, size, range_r, trials)

        monkeypatch.setattr(batch, "trial_words", record_start)
        monkeypatch.setattr(batch, "scaled_draws", flag)
        monkeypatch.setattr(montecarlo, "_scalar_successes", record)
        assert montecarlo._count_successes(2, 4, [3], 0, 500) == [expected]
        assert sorted(redone) == [0, 7, 300] and montecarlo._batch_ok is True

    def test_jobs_do_not_change_batched_counts(self):
        for size, range_r in ((4, 3), (5, 10), (8, 3 * 2**30)):
            cfg = dict(size=size, draws=301, range_r=range_r, seed=2**64 - 1)
            serial = run_experiment(ExperimentConfig(**cfg, jobs=1))
            parallel = run_experiment(ExperimentConfig(**cfg, jobs=2))
            assert serial.successes == parallel.successes

    def test_corrupt_draw_falls_back(self, monkeypatch, fresh_self_check):
        # Trial 0 of seed 2 passes at size 4, range 3; the corruption bumps
        # its determined entry M[3,2], so it would fail if used.
        expected = montecarlo._scalar_successes(2, 4, 3, range(500))
        draws = batch.scaled_draws

        def corrupt(*args):
            values, rejected = draws(*args)
            values[0, -1] += 1
            return values, rejected

        monkeypatch.setattr(batch, "scaled_draws", corrupt)
        assert montecarlo._count_successes(2, 4, [3], 0, 500) == [expected]
        assert montecarlo._batch_ok is False
        values, _ = corrupt(trial_words(2, 0, 500, 6), 3)
        assert int(batch_verdicts(4, values).sum()) == expected - 1

    def test_first_trial_of_each_call_is_checked(self, monkeypatch):
        # A wrong verdict on the first trial of a call switches the process
        # to the per-trial path.
        monkeypatch.setattr(montecarlo, "_batch_ok", True)
        expected = montecarlo._scalar_successes(2, 4, 3, range(500))
        verdicts = batch.batch_verdicts

        def flip_first(size, values):
            passed = verdicts(size, values)
            passed[0] = not passed[0]
            return passed

        monkeypatch.setattr(batch, "batch_verdicts", flip_first)
        assert montecarlo._count_successes(2, 4, [3], 0, 500) == [expected]
        assert montecarlo._batch_ok is False


def _per_range(seed, size, ranges, trials):
    return [montecarlo._scalar_successes(seed, size, r, trials) for r in ranges]


def _check_across_the_int64_bound():
    ranges = [10, 2**31, 2**32]
    assert [fits_int64(8, r) for r in ranges] == [True, False, False]
    expected = _per_range(4, 8, ranges, range(60))
    assert montecarlo._count_successes(4, 8, ranges, 0, 60) == expected
    assert montecarlo._batch_ok is True


class TestSweepAgreesWithPerRangePath:
    """A sweep draws each block's words once; its counts are each range's own."""

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    @pytest.mark.parametrize("size", range(2, 9))
    def test_every_size(self, seed, size, fresh_self_check):
        ranges = [1, 2, 3, 10]
        expected = _per_range(seed, size, ranges, range(120))
        assert montecarlo._count_successes(seed, size, ranges, 0, 120) == expected
        assert montecarlo._batch_ok is True

    def test_across_the_int64_bound(self, fresh_self_check):
        _check_across_the_int64_bound()

    def test_across_the_int64_bound_in_small_blocks(self, monkeypatch, fresh_self_check):
        # One trial per block at size 8: batch and per-trial ranges take
        # turns over 60 blocks.
        monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 64)
        assert batch.trials_per_block(8) == 1
        _check_across_the_int64_bound()

    def test_rejecting_range(self, fresh_self_check):
        ranges = [3, 3 * 2**30, 10]
        expected = _per_range(2, 4, ranges, range(300))
        assert montecarlo._count_successes(2, 4, ranges, 0, 300) == expected
        assert expected[0] > 0

    def test_duplicate_ranges(self, fresh_self_check):
        (once,) = montecarlo._count_successes(7, 4, [10], 0, 500)
        assert montecarlo._count_successes(7, 4, [10, 10], 0, 500) == [once, once]
        assert once == montecarlo._scalar_successes(7, 4, 10, range(500))

    def test_many_blocks_away_from_trial_zero(self, monkeypatch, fresh_self_check):
        monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 64)
        words = batch.trial_words
        calls = []
        monkeypatch.setattr(
            batch, "trial_words", lambda *args: calls.append(args) or words(*args)
        )
        ranges = [2, 3, 10]
        expected = _per_range(3, 4, ranges, range(5, 1005))
        assert montecarlo._count_successes(3, 4, ranges, 5, 1005) == expected
        assert len(calls) == 1000 // 4 and montecarlo._batch_ok is True

    def test_jobs_do_not_change_the_counts(self):
        cfg = dict(size=5, draws=301, range_r=10, seed=2**64 - 1)
        ranges = [2, 3, 3 * 2**30, 10, 10]
        serial = run_sweep(ExperimentConfig(**cfg, jobs=1), ranges)
        parallel = run_sweep(ExperimentConfig(**cfg, jobs=2), ranges)
        counts = [r.successes for r in serial]
        assert [r.successes for r in parallel] == counts
        assert [r.config.range_r for r in parallel] == ranges
        assert counts == [
            run_experiment(ExperimentConfig(**cfg | {"range_r": r})).successes
            for r in ranges
        ]

    def test_every_range_is_checked_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_count_successes", _no_trials)
        cfg = ExperimentConfig(size=4, draws=10, range_r=10, seed=1)
        with pytest.raises(ValidationError, match="at least 1"):
            run_sweep(cfg, [10, 0])

    @pytest.mark.parametrize("ranges", [10, None], ids=repr)
    def test_ranges_must_be_a_sequence(self, ranges):
        # Unchecked, these fail with TypeError: the object is not iterable.
        with pytest.raises(ValidationError, match="^ranges must be a sequence"):
            run_sweep(ExperimentConfig(size=4, draws=10, range_r=10, seed=1), ranges)


def _no_trials(*args):
    raise AssertionError("a trial was drawn")


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that runs each task at once."""

    made = 0

    def __init__(self, max_workers):
        type(self).made += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestSweepSelfCheck:
    def test_one_check_per_batch_range_per_call(self, monkeypatch, fresh_self_check):
        checked = Counter()
        trial = montecarlo._scalar_trial

        def spy(seed, size, range_r, t):
            checked[range_r] += 1
            return trial(seed, size, range_r, t)

        monkeypatch.setattr(montecarlo, "_scalar_trial", spy)
        ranges = [2, 3, 10, 2**32]
        montecarlo._count_successes(1, 5, ranges, 0, 40)
        assert checked == {2: 1, 3: 1, 10: 1, 2**32: 40}
        montecarlo._count_successes(1, 5, ranges, 40, 80)
        assert checked == {2: 2, 3: 2, 10: 2, 2**32: 80}
        assert montecarlo._batch_ok is True

    def test_one_corrupt_range_sends_every_range_per_trial(
        self, monkeypatch, fresh_self_check
    ):
        # Trial 0 of seed 2 passes at size 4, range 3; only that range's
        # values are bumped, after range 10 has been counted by the batch.
        ranges = [10, 3, 2]
        expected = _per_range(2, 4, ranges, range(500))
        draws = batch.scaled_draws

        def corrupt(words, range_r):
            values, rejected = draws(words, range_r)
            if range_r == 3:
                values[0, -1] += 1
            return values, rejected

        monkeypatch.setattr(batch, "scaled_draws", corrupt)
        assert montecarlo._count_successes(2, 4, ranges, 0, 500) == expected
        assert montecarlo._batch_ok is False

    def test_one_flipped_verdict_sends_every_range_per_trial(
        self, monkeypatch, fresh_self_check
    ):
        ranges = [10, 3, 2]
        expected = _per_range(2, 4, ranges, range(500))
        verdicts = batch.batch_verdicts
        calls = []

        # The three ranges' 500 rows each are stacked into one call, and
        # trial 0 of range 3 does not reject, so row 500 is its first
        # checked trial.
        assert not scaled_draws(trial_words(2, 0, 500, 6), 3)[1][0]

        def flip_second_range(size, values):
            passed = verdicts(size, values)
            calls.append(len(values))
            passed[500] = not passed[500]
            return passed

        monkeypatch.setattr(batch, "batch_verdicts", flip_second_range)
        assert montecarlo._count_successes(2, 4, ranges, 0, 500) == expected
        assert calls == [1500] and montecarlo._batch_ok is False

    def test_sweep_with_jobs_starts_one_pool(self, monkeypatch, capsys):
        argv = ["montecarlo", "--size", "5", "--draws", "40", "--range", "10",
                "--seed", "3", "--sweep-range", "2,3,5,10", "--format", "csv"]
        assert cli_main(argv) == 0
        serial = capsys.readouterr().out
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(_InlinePool, "made", 0)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
        assert cli_main([*argv, "--jobs", "2"]) == 0
        assert _InlinePool.made == 1
        assert capsys.readouterr().out == serial


class TestOneCountingLoop:
    """Every range is decided inside one block loop over the trials."""

    @pytest.mark.parametrize("size,ranges", [(5, []), (8, [2**31, 2**32, 2**31])])
    def test_no_batch_range_draws_no_words(self, size, ranges, monkeypatch):
        monkeypatch.setattr(batch, "trial_words", _no_trials)
        expected = _per_range(1, size, ranges, range(3, 8))
        assert montecarlo._count_successes(1, size, ranges, 3, 8) == expected

    def test_rejected_trials_are_redrawn_in_later_blocks(
        self, monkeypatch, fresh_self_check
    ):
        # Four trials per block at size 4, from trial 5 on: each flagged
        # trial must be redrawn under its own index, not its block offset.
        monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 64)
        flagged = [6, 50, 101]
        expected = _per_range(2, 4, [3, 2**32], range(5, 105))
        words, draws = batch.trial_words, batch.scaled_draws
        starts = []
        redone = []
        scalar = montecarlo._scalar_successes

        def record_start(seed, start, stop, count):
            starts.append(start)
            return words(seed, start, stop, count)

        def flag(block, range_r):
            values, rejected = draws(block, range_r)
            for t in flagged:
                if starts[-1] <= t < starts[-1] + len(block):
                    rejected[t - starts[-1]] = True
            return values, rejected

        def record(seed, size, range_r, trials):
            if range_r == 3:
                redone.extend(trials)
            return scalar(seed, size, range_r, trials)

        monkeypatch.setattr(batch, "trial_words", record_start)
        monkeypatch.setattr(batch, "scaled_draws", flag)
        monkeypatch.setattr(montecarlo, "_scalar_successes", record)
        assert montecarlo._count_successes(2, 4, [3, 2**32], 5, 105) == expected
        assert redone == flagged and montecarlo._batch_ok is True

    def test_failed_check_in_a_later_block_recounts_every_range(
        self, monkeypatch, fresh_self_check
    ):
        # Range 3 rejects every trial of the first block, so its check falls
        # on trial 9, the first of the second block, whose value is bumped.
        # By then range 2³² has been counted per trial and range 10 by the
        # batch over trials 5..8; every count must still cover all of 5..504.
        monkeypatch.setattr(batch, "_BLOCK_ELEMENTS", 64)
        ranges = [2**32, 10, 3]
        expected = _per_range(2, 4, ranges, range(5, 505))
        draws = batch.scaled_draws
        calls = []

        def corrupt(words, range_r):
            values, rejected = draws(words, range_r)
            if range_r == 3:
                calls.append(None)
                if len(calls) == 1:
                    rejected[:] = True
                else:
                    values[0, -1] += 1
            return values, rejected

        monkeypatch.setattr(batch, "scaled_draws", corrupt)
        assert montecarlo._count_successes(2, 4, ranges, 5, 505) == expected
        assert len(calls) == 2 and montecarlo._batch_ok is False

    def test_after_a_failed_check_no_words_are_drawn(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_batch_ok", False)
        monkeypatch.setattr(batch, "trial_words", _no_trials)
        expected = _per_range(2, 4, [3, 10], range(50))
        assert montecarlo._count_successes(2, 4, [3, 10], 0, 50) == expected


class TestVerdictCallsStayWithinTheBlock:
    """A sweep stacks its ranges' rows into as few verdict calls as the
    block's element budget allows, and draws each block's words once."""

    @pytest.mark.parametrize("ranges", [1, 4, 50])
    @pytest.mark.parametrize("size", [4, 8, 12])
    @pytest.mark.parametrize("blocks", [0.5, 1.5])
    def test_rows_times_size_squared_within_budget(
        self, size, ranges, blocks, monkeypatch, fresh_self_check
    ):
        step = batch.trials_per_block(size)
        draws = int(step * blocks)
        ranges = list(range(2, 2 + ranges))
        assert all(fits_int64(size, r) for r in ranges)
        # Each range alone, one verdict call per block.
        expected = [montecarlo._count_successes(9, size, [r], 0, draws)[0] for r in ranges]
        rows, words = [], []
        decide, draw = batch.batch_verdicts, batch.trial_words
        monkeypatch.setattr(
            batch, "batch_verdicts", lambda n, m: rows.append(len(m)) or decide(n, m)
        )
        monkeypatch.setattr(batch, "trial_words", lambda *args: words.append(args) or draw(*args))
        assert montecarlo._count_successes(9, size, ranges, 0, draws) == expected
        assert montecarlo._batch_ok is True
        assert max(rows) * size * size <= batch._BLOCK_ELEMENTS
        assert len(words) == -(-draws // step)
        # Each block's rows of every range are decided, in as few calls as
        # the budget allows.
        assert sum(rows) == draws * len(ranges)
        per_call = [batch._BLOCK_ELEMENTS // (min(step, draws - lo) * size * size)
                    for lo in range(0, draws, step)]
        assert len(rows) == sum(-(-len(ranges) // p) for p in per_call)


class TestTrialsPerBlock:
    @pytest.mark.parametrize("size", range(2, 58))
    def test_size_squared_bounds_draws_and_first_step(self, size):
        # Every size that fits_int64 admits: 57 is the largest, at r = 1.
        draws = 8 * -(-size * (size - 1) // 16)
        assert draws <= size * size if size >= 3 else draws == 8
        stages = batch._verdict_plan(size)[1]
        first_step = len(stages[0].coef) if stages else 0
        n = size - 1
        assert first_step == max(n * (n - 1) - 2, 0) < size * size
        assert batch.trials_per_block(size) == (
            batch._BLOCK_ELEMENTS // max(draws, size * size, first_step)
        )

    def test_sizes_fits_int64_admits(self):
        assert fits_int64(57, 1) and not fits_int64(58, 1)


class TestBatchVerdicts:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 10).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.lists(
                    st.lists(
                        st.integers(1, 3),
                        min_size=size * (size - 1) // 2,
                        max_size=size * (size - 1) // 2,
                    ),
                    min_size=1, max_size=6,
                ),
            )
        )
    )
    def test_matches_integer_kernel(self, case):
        size, triangles = case
        got = batch_verdicts(size, np.array(triangles, dtype=np.int64)).tolist()
        expected = [
            recurrence_failure(montecarlo._unipotent_rows(t, size)) is None
            for t in triangles
        ]
        assert got == expected

    @pytest.mark.parametrize("size", range(2, 13))
    def test_passing_matrices_pass(self, size):
        # f ↦ (1+x)·f(x + x²) with integer coefficients: every column of
        # the built matrix holds, entries are positive integers below the diagonal.
        g = TruncatedSeries.from_coeffs([1, 1], size)
        phi = TruncatedSeries.from_coeffs([0, 1, 1], size)
        m = build_substitution_matrix(g, phi, size)
        triangle = [int(m.entries[i][k]) for i in range(size) for k in range(i)]
        assert fits_int64(size, max(triangle, default=1))
        assert batch_verdicts(size, np.array([triangle], dtype=np.int64)).tolist() == [True]
        if size >= 4:
            triangle[-1] += 1
            bumped = np.array([triangle], dtype=np.int64)
            assert batch_verdicts(size, bumped).tolist() == [False]

    @pytest.mark.parametrize("size", [4, 8, 16, 30])
    def test_int64_edge_has_no_overflow(self, size):
        # The largest r the bound admits, with every entry at r: each step's
        # segment sum in int64 must equal its exact value.
        r = isqrt((2**63 - 1) // (size * 2**size))
        assert fits_int64(size, r) and not fits_int64(size, r + 1)
        triangle_idx, stages = batch._verdict_plan(size)
        m = np.ones((1, size * size), dtype=np.int64)
        m[0, triangle_idx] = r
        upper = [i * size + k for i in range(size) for k in range(i + 1, size)]
        m[0, upper] = 0
        exact = m.astype(object)
        for stage in stages:
            terms = exact[:, stage.left] * exact[:, stage.right] * stage.coef.astype(object)
            sums = np.add.reduceat(terms, stage.starts, axis=1)
            fast = m[:, stage.left] * m[:, stage.right] * stage.coef
            assert np.add.reduceat(fast, stage.starts, axis=1).tolist() == sums.tolist()
            assert max(abs(v) for v in sums.ravel().tolist()) < 2**63

    def test_int64_bound_values(self):
        assert fits_int64(50, 10) and not fits_int64(51, 10)
        assert not fits_int64(2, 2**31)
