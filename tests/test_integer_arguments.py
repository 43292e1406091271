"""Every count, size and range the library takes is exactly an ``int`` in its bounds.

Each argument below goes through :func:`bosonstirling.errors.require_int`:
a float, a ``bool``, a digit string and a numpy integer are all rejected
with a ValidationError that names the argument, and each bound admits its
own value and rejects the next one out.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest

from bosonstirling import (
    ExperimentConfig,
    ExperimentResult,
    FiniteMatrix,
    TruncatedSeries,
    ValidationError,
    build_substitution_matrix,
    count_free_parameters,
    parse_word,
    probability_bound,
    random_unipotent,
    stirling_matrix,
    trial_stream,
    truncate_rn,
    wilson_interval_95,
    word_power,
)
from bosonstirling.montecarlo import MAX_RANGE, MAX_SIZE


class Argument(NamedTuple):
    """One guarded argument: `call` passes its value, every other argument valid."""

    call: Callable
    name: str
    lo: int | None = None
    hi: int | None = None
    #: The name in the type message, where it differs from `name`.
    field: str | None = None


def _config(**changes):
    return ExperimentConfig(**dict(size=4, draws=10, range_r=3, seed=1, jobs=1) | changes)


_SERIES = TruncatedSeries.from_coeffs([1, 1, 1]), TruncatedSeries.from_coeffs([0, 1, 1])

ARGUMENTS = {
    "ExperimentConfig-size": Argument(lambda v: _config(size=v), "size", 2, MAX_SIZE),
    "ExperimentConfig-draws": Argument(lambda v: _config(draws=v), "draws", 1),
    "ExperimentConfig-range_r": Argument(
        lambda v: _config(range_r=v), "range", 1, MAX_RANGE, field="range_r"),
    "ExperimentConfig-seed": Argument(lambda v: _config(seed=v), "seed", 0, 2**64 - 1),
    "ExperimentConfig-jobs": Argument(lambda v: _config(jobs=v), "jobs", 1),
    "ExperimentResult-successes": Argument(
        lambda v: ExperimentResult(config=_config(), successes=v), "successes"),
    "count_free_parameters": Argument(count_free_parameters, "size", 2),
    "probability_bound-size": Argument(lambda v: probability_bound(v, 3), "size", 2),
    "probability_bound-range": Argument(lambda v: probability_bound(4, v), "range", 1),
    "random_unipotent-size": Argument(
        lambda v: random_unipotent(v, 3, trial_stream(1, 0)), "size", 1),
    "random_unipotent-range": Argument(
        lambda v: random_unipotent(4, v, trial_stream(1, 0)), "range", 1),
    "wilson_interval_95-successes": Argument(
        lambda v: wilson_interval_95(v, 10), "successes"),
    "wilson_interval_95-draws": Argument(lambda v: wilson_interval_95(0, v), "draws", 1),
    "stirling_matrix": Argument(
        lambda v: stirling_matrix(parse_word("a+ a"), v), "row count", 0),
    "build_substitution_matrix": Argument(
        lambda v: build_substitution_matrix(*_SERIES, v), "matrix size", 2),
    "truncate_rn": Argument(
        lambda v: truncate_rn(FiniteMatrix.identity(3), v), "truncation order", 0),
    "word_power": Argument(lambda v: word_power(parse_word("a+ a"), v), "word power", 0),
    "FiniteMatrix.identity": Argument(FiniteMatrix.identity, "matrix size", 1),
    "TruncatedSeries.from_coeffs": Argument(
        lambda v: TruncatedSeries.from_coeffs([1], v), "order", 0),
}

NOT_INTS = {"float": 2.5, "True": True, "str": "3", "int64": np.int64(4)}


@pytest.mark.parametrize("value", NOT_INTS.values(), ids=NOT_INTS.keys())
@pytest.mark.parametrize("arg", ARGUMENTS.values(), ids=ARGUMENTS.keys())
def test_rejects_every_non_int(arg, value):
    message = f"{arg.field or arg.name} must be an int, got {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        arg.call(value)


def _bounds():
    """(argument, bound, the value one past it, how the message states the bound)."""
    for key, arg in ARGUMENTS.items():
        if arg.lo is not None:
            least = "non-negative" if arg.lo == 0 else f"at least {arg.lo}"
            yield pytest.param(arg, arg.lo, arg.lo - 1, least, id=f"{key}-lo")
        if arg.hi is not None:
            yield pytest.param(arg, arg.hi, arg.hi + 1, f"at most {arg.hi}", id=f"{key}-hi")


BOUNDS = list(_bounds())


@pytest.mark.parametrize("arg,bound,past,message", BOUNDS)
def test_bound_admits_itself(arg, bound, past, message):
    arg.call(bound)


@pytest.mark.parametrize("arg,bound,past,message", BOUNDS)
def test_one_past_the_bound_is_rejected(arg, bound, past, message):
    with pytest.raises(ValidationError, match=f"^{arg.name} must be {message}, got {past}$"):
        arg.call(past)
