"""Random unipotent matrices, the experiment, and the probability bound."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bosonstirling import (
    ExperimentConfig,
    ExperimentResult,
    FiniteMatrix,
    ValidationError,
    count_free_parameters,
    is_approximate_substitution,
    probability_bound,
    random_unipotent,
    range_sweep,
    run_experiment,
    trial_stream,
    wilson_interval_95,
)
from bosonstirling.montecarlo import worker_count

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

    def test_free_parameter_counts(self):
        assert tuple(count_free_parameters(3)) == (3, 3)
        assert tuple(count_free_parameters(4)) == (5, 6)
        assert tuple(count_free_parameters(2)) == (1, 1)

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

    @pytest.mark.parametrize("size", [4, 5])
    def test_wilson_lower_edge_respects_bound(self, size):
        result = run_experiment(
            ExperimentConfig(size=size, draws=10_000, range_r=10, seed=13)
        )
        assert result.wilson_95[0] <= result.bound

    def test_result_validation(self):
        cfg = ExperimentConfig(size=3, draws=10, range_r=5, seed=0)
        with pytest.raises(ValidationError):
            ExperimentResult(
                config=cfg,
                successes=11,
                estimate=Fraction(1),
                wilson_95=(Fraction(0), Fraction(1)),
                bound=Fraction(1),
            )

    def test_result_serialization_round_trip(self):
        result = run_experiment(ExperimentConfig(size=3, draws=20, range_r=4, seed=9))
        obj = result.to_json_obj()
        assert ExperimentResult.from_json_obj(obj) == result

    def test_csv_row_fields(self):
        result = run_experiment(ExperimentConfig(size=3, draws=20, range_r=4, seed=9))
        fields = result.to_csv_row().split(";")
        assert fields[:5] == ["3", "20", "4", "9", "20"]
        assert fields[5] == "1"
        assert len(fields) == 9


class TestRangeSweep:
    def test_emits_data_per_range(self):
        results = range_sweep(4, 50, [2, 3, 5, 10], seed=21)
        assert [r.config.range_r for r in results] == [2, 3, 5, 10]
        for r in results:
            assert r.bound == probability_bound(4, r.config.range_r)
            assert 0 <= r.ratio_to_bound  # data only, no verdicts
