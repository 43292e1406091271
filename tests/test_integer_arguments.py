"""Every count, size, range and index the library takes is exactly an ``int`` in its bounds.

Each argument below goes through :func:`bosonstirling.errors.require_int`:
a float, a ``bool``, a digit string and a numpy integer are all rejected
with a ValidationError that names the argument and is not a RangeError,
and each bound admits its own value and rejects the next one out with a
RangeError, which is both a ValidationError and an IndexError.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonstirling import (
    BosonWord,
    ExperimentConfig,
    ExperimentResult,
    FiniteMatrix,
    GeneralizedStirlingMatrix,
    RangeError,
    TruncatedSeries,
    ValidationError,
    bell_polynomial,
    build_substitution_matrix,
    column_egf,
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


_SERIES = TruncatedSeries((1, 1, 1)), TruncatedSeries((0, 1, 1))

ARGUMENTS = {
    "ExperimentConfig-size": Argument(lambda v: _config(size=v), "size", 2, MAX_SIZE),
    "ExperimentConfig-draws": Argument(lambda v: _config(draws=v), "draws", 1),
    "ExperimentConfig-range_r": Argument(
        lambda v: _config(range_r=v), "range", 1, MAX_RANGE, field="range_r"),
    "ExperimentConfig-seed": Argument(lambda v: _config(seed=v), "seed", 0, 2**64 - 1),
    "ExperimentConfig-jobs": Argument(lambda v: _config(jobs=v), "jobs", 1),
    "ExperimentResult-successes": Argument(
        lambda v: ExperimentResult(config=_config(), successes=v), "successes", 0, 10),
    "count_free_parameters": Argument(count_free_parameters, "size", 2),
    "probability_bound-size": Argument(lambda v: probability_bound(v, 3), "size", 2),
    "probability_bound-range": Argument(lambda v: probability_bound(4, v), "range", 1),
    "trial_stream-seed": Argument(lambda v: trial_stream(v, 0), "seed", 0, 2**64 - 1),
    "trial_stream-trial": Argument(lambda v: trial_stream(1, v), "trial", 0, 2**64 - 1),
    "random_unipotent-size": Argument(
        lambda v: random_unipotent(v, 3, trial_stream(1, 0)), "size", 1, MAX_SIZE),
    "random_unipotent-range": Argument(
        lambda v: random_unipotent(4, v, trial_stream(1, 0)), "range", 1, MAX_RANGE),
    "wilson_interval_95-successes": Argument(
        lambda v: wilson_interval_95(v, 10), "successes", 0, 10),
    "wilson_interval_95-draws": Argument(lambda v: wilson_interval_95(0, v), "draws", 1),
    "stirling_matrix": Argument(
        lambda v: stirling_matrix(parse_word("a+ a"), v), "row count", 0),
    "GeneralizedStirlingMatrix": Argument(
        lambda v: GeneralizedStirlingMatrix(parse_word("a+ a"), v), "row count", 0),
    "build_substitution_matrix": Argument(
        lambda v: build_substitution_matrix(*_SERIES, v), "matrix size", 2),
    "truncate_rn": Argument(
        lambda v: truncate_rn(FiniteMatrix.identity(3), v), "truncation order", 0, 2),
    "word_power": Argument(lambda v: word_power(parse_word("a+ a"), v), "word power", 0),
    "FiniteMatrix.identity": Argument(FiniteMatrix.identity, "matrix size", 1),
    "FiniteMatrix-denominator": Argument(
        lambda v: FiniteMatrix([[1]], v), "matrix denominator", 1),
    "BosonWord-r": Argument(lambda v: BosonWord(((v, 1),)), "run exponent", 0),
    "BosonWord-s": Argument(lambda v: BosonWord(((1, v),)), "run exponent", 0),
    "TruncatedSeries.from_coeffs": Argument(
        lambda v: TruncatedSeries.from_coeffs([1], v), "order", 0),
    "TruncatedSeries.from_coeffs-denominator": Argument(
        lambda v: TruncatedSeries.from_coeffs([1], 0, v), "denominator", 1),
    "TruncatedSeries.from_egf_entries": Argument(
        lambda v: TruncatedSeries.from_egf_entries([1], v), "denominator", 1),
}

_IDENTITY = FiniteMatrix.identity(3)
_STIRLING = stirling_matrix(parse_word("a+ a"), 3)

#: Every index a reader of a matrix takes.  A Stirling matrix's column has no
#: upper bound: past the staircase it reads 0, so only the type check keeps
#: ``entry(1, 2.5)`` from reading 0 too.  column_egf's order is bounded by the
#: rows its matrix has, and is checked as its own argument.
INDICES = {
    "FiniteMatrix.entry-row": Argument(lambda v: _IDENTITY.entry(v, 0), "row", 0, 2),
    "FiniteMatrix.entry-column": Argument(lambda v: _IDENTITY.entry(0, v), "column", 0, 2),
    "GeneralizedStirlingMatrix.entry-row": Argument(
        lambda v: _STIRLING.entry(v, 0), "row", 0, 3),
    "GeneralizedStirlingMatrix.entry-column": Argument(
        lambda v: _STIRLING.entry(1, v), "column", 0),
    "bell_polynomial": Argument(lambda v: bell_polynomial(_STIRLING, v, 1), "row", 0, 3),
    "FiniteMatrix.column": Argument(_IDENTITY.column, "column", 0, 2),
    "GeneralizedStirlingMatrix.column": Argument(_STIRLING.column, "column", 0),
    "column_egf-column": Argument(lambda v: column_egf(_IDENTITY, v, 2), "column", 0, 2),
    "column_egf-order": Argument(lambda v: column_egf(_IDENTITY, 0, v), "order", 0, 2),
}

NOT_INTS = {"float": 2.5, "True": True, "str": "3", "int64": np.int64(4)}

ALL = ARGUMENTS | INDICES


@pytest.mark.parametrize("value", NOT_INTS.values(), ids=NOT_INTS.keys())
@pytest.mark.parametrize("arg", ALL.values(), ids=ALL.keys())
def test_rejects_every_non_int(arg, value):
    message = f"{arg.field or arg.name} must be an int, got {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as info:
        arg.call(value)
    assert not isinstance(info.value, RangeError)


def _bounds():
    """(argument, bound, the value one past it, how the message states the bound)."""
    for key, arg in ALL.items():
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
    with pytest.raises(RangeError, match=f"^{arg.name} must be {message}, got {past}$") as info:
        arg.call(past)
    assert isinstance(info.value, ValidationError) and isinstance(info.value, IndexError)


def _near(bound):
    return st.integers(bound - 3, bound + 3)


@st.composite
def _calls(draw):
    """An argument of either table and a value for it: an int near one of its
    bounds, a bool, a float, a digit string or a numpy integer."""
    arg = draw(st.sampled_from(list(ALL.values())))
    near = [_near(b) for b in (arg.lo, arg.hi) if b is not None]
    value = draw(st.one_of(
        *near,
        st.booleans(),
        st.floats(),
        st.integers(-9, 99).map(str),
        st.tuples(st.sampled_from([np.int8, np.int64, np.uint64]), st.integers(0, 99))
        .map(lambda t: t[0](t[1])),
    ))
    return arg, value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_calls())
def test_only_validation_errors_leave_a_call(call):
    """A call returns or raises ValidationError: never a RangeError for a value
    that is not an ``int``, and always one for an ``int`` outside the table's
    bounds.  Inside them another precondition may still fail."""
    arg, value = call
    is_int = type(value) is int
    inside = is_int and arg.lo <= value and (arg.hi is None or value <= arg.hi)
    try:
        arg.call(value)
    except RangeError:
        assert is_int
    except ValidationError:
        assert inside or not is_int
    else:
        assert inside
