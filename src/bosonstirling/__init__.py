"""Exact computer algebra for boson normal ordering and its matrices.

The package normal-orders words in the annihilator/creator alphabet with
exact integer coefficients, materializes the generalized Stirling matrices
and Bell polynomials attached to a word, tests finite unipotent matrices
for the approximate-substitution condition on their column EGFs, and runs
the seeded random-matrix experiment estimating how often that condition
holds.
"""

from .boson import (
    BosonWord,
    NormalForm,
    double_dot,
    excess,
    multiply_normal_forms,
    normal_order,
    parse_word,
    word_power,
)
from .errors import ParseError, RangeError, ValidationError
from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    FreeParameterCount,
    count_free_parameters,
    probability_bound,
    random_unipotent,
    run_experiment,
    run_sweep,
    trial_stream,
    wilson_interval_95,
)
from .series import TruncatedSeries
from .stirling import (
    GeneralizedStirlingMatrix,
    WordClassification,
    bell_numbers,
    bell_polynomial,
    classify_word,
    column_egf,
    stirling_matrix,
)
from .substitution import (
    ColumnMismatch,
    FiniteMatrix,
    SubstitutionReport,
    build_substitution_matrix,
    is_approximate_substitution,
    truncate_rn,
    truncate_taun,
)

__version__ = "0.1.0"

__all__ = [
    "BosonWord",
    "ColumnMismatch",
    "ExperimentConfig",
    "ExperimentResult",
    "FiniteMatrix",
    "FreeParameterCount",
    "GeneralizedStirlingMatrix",
    "NormalForm",
    "ParseError",
    "RangeError",
    "SubstitutionReport",
    "TruncatedSeries",
    "ValidationError",
    "WordClassification",
    "bell_numbers",
    "bell_polynomial",
    "build_substitution_matrix",
    "classify_word",
    "column_egf",
    "count_free_parameters",
    "double_dot",
    "excess",
    "is_approximate_substitution",
    "multiply_normal_forms",
    "normal_order",
    "parse_word",
    "probability_bound",
    "random_unipotent",
    "run_experiment",
    "run_sweep",
    "stirling_matrix",
    "trial_stream",
    "truncate_rn",
    "truncate_taun",
    "wilson_interval_95",
    "word_power",
]
