"""Mutation gate: each row breaks one piece of src/ and names the tests that must notice.

For each row, the whole working tree except ``.git`` is copied to a
temporary directory outside the repository.  The row's source text, which
must occur exactly once in its file, is replaced there, and the row's
pytest selector runs with the copy as working directory, so that
``pyproject.toml`` puts the copy's ``src/`` on the path.  A row expected to
be "killed" holds when those tests fail; one expected to be "survives",
an equivalent mutant, holds when they pass and gives the reason it is
equivalent.  Before any row runs, each function of :data:`KERNELS` must be
defined once in its file and hold the source text of at least two rows
expected to be killed.  Then the selectors all run on an unmutated copy and
must pass, so a kill is never a test that fails anyway.  The rows then run
:data:`WORKERS` at a time, and their lines print in table order.  A pytest
run still going after ``TIMEOUT_S`` seconds is killed and counts as a
broken run, which fails its row.

The script uses the standard library only and runs pytest in a
subprocess.  Run it from any directory::

    python3 tests/mutation.py

It exits 1 if a kernel is gone or has fewer than two such rows, if any row
does not behave as expected or if its source text does not match exactly
once, and leaves the working tree as it was.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/bosonstirling/"
BATCH = PACKAGE + "batch.py"
CLI = PACKAGE + "cli.py"
ERRORS = PACKAGE + "errors.py"
MONTECARLO = PACKAGE + "montecarlo.py"
SERIES = PACKAGE + "series.py"
STIRLING = PACKAGE + "stirling.py"
SUBSTITUTION = PACKAGE + "substitution.py"
READERS = "tests/test_cli.py::TestJsonReaders::"
INTEGER_ARGS = "tests/test_integer_arguments.py::"
DERIVED = READERS + "test_derived_value_contradiction_rejected"
SIZE_CAP = "tests/test_cli.py::TestBuildSubstCommand::"
PRINTABLE = "tests/test_cli.py::TestUnprintableBoundRejectedEarly"
ON_DEMAND = "tests/test_cli.py::TestImportsOnDemand"
PER_TRIAL = "tests/test_montecarlo.py::TestBatchAgreesWithPerTrialPath"
BATCH_VERDICTS = "tests/test_montecarlo.py::TestBatchVerdicts"
WILSON = "tests/test_montecarlo.py::TestWilson"
WILSON_ORACLE = WILSON + "::test_integer_form_matches_the_fraction_oracle_exhaustively"
STACKED = "tests/test_montecarlo.py::TestVerdictCallsStayWithinTheBlock"
SWEEP = "tests/test_montecarlo.py::TestSweepAgreesWithPerRangePath"
STIRLING_TESTS = "tests/test_stirling.py::"
ACTION = STIRLING_TESTS + "TestAgainstActionOracle"
ORACLE = "tests/test_substitution.py::TestAgainstOracle"
FIRST_STEP = "tests/test_substitution.py::TestFirstFailingStep"
TWO_BUMPS = FIRST_STEP + "::test_least_step_of_two_bumps"
QUOTIENT = "tests/test_substitution.py::TestQuotientVerdict::"
EARLY_EXIT = QUOTIENT + "test_early_exit_computes_no_entry_past_the_failing_row"
RESCALES = QUOTIENT + "test_quotient_rescales_to_the_lcm"
ONCE = QUOTIENT + "test_check_subst_computes_each_entry_once"
QUOTIENT_ORACLE = "tests/test_series.py::test_invert_matches_oracle"
SPARSE_QUOTIENT = "tests/test_series.py::test_quotient_by_a_sparse_denominator_matches_oracle"
SPARSE_PAIRS = "tests/test_substitution.py::TestSparsePairs"
ROW_READER = "tests/test_substitution.py::TestRowReader::"
NEAR_MISS = ROW_READER + "test_near_miss_agrees_with_parse_rational"
CANONICAL = "tests/test_cli.py::TestCanonicalJson::test_pinned"
RENDERING = "tests/test_series.py::TestRendering"
PAIR_MATRIX = ("tests/test_substitution.py::TestBuilder::"
               "test_failing_columns_are_where_the_pair_matrix_differs")
REPORT_READER = "tests/test_substitution.py::TestReportIsItsMatrix::"
TRUNCATIONS = "tests/test_substitution.py::TestTruncations::"

#: The fast paths and checks that must each hold the source text of at
#: least two rows expected to be killed, found in their files by ``ast``.
KERNELS = [
    (SUBSTITUTION, "recurrence_failure"),
    (BATCH, "_philox4x64_10"),
    (BATCH, "scaled_draws"),
    (BATCH, "fits_int64"),
    (BATCH, "_verdict_plan"),
    (BATCH, "batch_verdicts"),
    (MONTECARLO, "_count_successes"),
    (STIRLING, "_stirling_rows"),
    (STIRLING, "bell_polynomial"),
    (SUBSTITUTION, "_phi_entries"),
    (SUBSTITUTION, "failing_columns"),
    (SUBSTITUTION, "_column_chain"),
    (SERIES, "_egf_product"),
    (SERIES, "_egf_quotient"),
    (SERIES, "parse_rational"),
    (SERIES, "parse_rationals"),
    (CLI, "_dumps_indented"),
    (SERIES, "_ratio_text"),
    (SERIES, "_store"),
    (SERIES, "_lowest"),
    (SERIES, "_over_lcm"),
    (SERIES, "_read_exact"),
    (MONTECARLO, "_require_printable_bound"),
    (MONTECARLO, "ratio_to_bound"),
    (MONTECARLO, "wilson_interval_95"),
    (ERRORS, "json_derived"),
    (ERRORS, "require_int"),
    (ERRORS, "require_items"),
]

#: Rows run this many at a time, each in its own copy and pytest process.
WORKERS = min(os.cpu_count() or 1, 4)

#: Seconds a pytest run may take before it is killed and counted as broken,
#: so that a mutant that loops or grows a table without end fails the gate.
TIMEOUT_S = 120

# (file, exact source text, replacement, pytest selector, expectation).  The
# expectation is "killed", or "survives: " and the reason the mutant is
# equivalent to the source.
ROWS = [
    (ERRORS, "kind(value)) != derived:", "kind(value)) == derived:",
     READERS + "test_round_trip", "killed"),
    # errors.json_derived reads a typed key with its type check.
    (ERRORS, "value = json_value(obj, key, kind if typed else None)",
     "value = json_value(obj, key, None)",
     READERS + "test_mistyped_key_rejected[GeneralizedStirlingMatrix-s_tot]", "killed"),
    (PACKAGE + "series.py", 'json_derived(obj, "order", s.order, int)', "pass",
     DERIVED + "[TruncatedSeries-order]", "killed"),
    (PACKAGE + "substitution.py", 'json_derived(obj, "size", m.size, int)', "pass",
     DERIVED + "[FiniteMatrix-size]", "killed"),
    (PACKAGE + "stirling.py", 'json_derived(obj, "s_tot", word.annihilator_count, int)', "pass",
     DERIVED + "[GeneralizedStirlingMatrix-s_tot]", "killed"),
    (PACKAGE + "stirling.py", 'json_derived(obj, "d", excess(word), int)', "pass",
     DERIVED + "[GeneralizedStirlingMatrix-d]", "killed"),
    (PACKAGE + "stirling.py", 'json_derived(obj, "kind", c.kind)', "pass",
     DERIVED + "[WordClassification-kind]", "killed"),
    (PACKAGE + "stirling.py", 'json_derived(obj, "first_column_unit", c.ends_with_a, bool)',
     "pass", DERIVED + "[WordClassification-first_column_unit]", "killed"),
    (PACKAGE + "montecarlo.py",
     'json_derived(obj, "estimate", result.estimate, parse_rational)',
     "pass", DERIVED + "[ExperimentResult-estimate]", "killed"),
    (PACKAGE + "montecarlo.py",
     'json_derived(obj, "wilson_95", result.wilson_95, lambda pair: tuple(\n'
     '            map(parse_rational, json_list(pair, "wilson_95", length=2))))',
     "pass", DERIVED + "[ExperimentResult-wilson_95.0]", "killed"),
    (PACKAGE + "montecarlo.py", 'json_derived(obj, "bound", result.bound, parse_rational)',
     "pass", DERIVED + "[ExperimentResult-bound]", "killed"),
    (PACKAGE + "montecarlo.py",
     'json_derived(obj, "ratio", result.ratio_to_bound, parse_rational)',
     "pass", READERS + "test_experiment_result_pins[ratio-12345]", "killed"),
    (PACKAGE + "substitution.py", 'json_derived(obj, "verdict", not failing, bool)', "pass",
     DERIVED + "[SubstitutionReport-verdict]", "killed"),
    (PACKAGE + "cli.py", '"matrix size", 2, MAX_REPORT_ORDER + 1)',
     '"matrix size", 2, MAX_REPORT_ORDER + 2)',
     SIZE_CAP + "test_size_above_cap_exit_2_before_any_series[258]", "killed"),
    (PACKAGE + "cli.py", '"matrix size", 2, MAX_REPORT_ORDER + 1)',
     '"matrix size", 2, MAX_REPORT_ORDER)', SIZE_CAP + "test_size_at_cap_builds", "killed"),
    # errors.require_int: a bool is not an int, each bound admits itself, and
    # a value past one is a RangeError that is also a ValidationError.
    (ERRORS, "if type(value) is not int:", "if not isinstance(value, int):",
     INTEGER_ARGS + "test_rejects_every_non_int[word_power-True]", "killed"),
    # Every matrix has its denominator at the lower bound 1, so this mutant
    # breaks test_integer_arguments' import; runs with an exponent 0 fail.
    (ERRORS, "value < lo:", "value <= lo:",
     "tests/test_boson.py::TestRuns::test_equal_however_runs_are_given", "killed"),
    (ERRORS, "value > hi:", "value >= hi:", INTEGER_ARGS + "test_bound_admits_itself",
     "killed"),
    (ERRORS, "class RangeError(ValidationError, IndexError):", "class RangeError(IndexError):",
     INTEGER_ARGS + "test_one_past_the_bound_is_rejected", "killed"),
    # One root for every rejected input; exit 2 still covers JSON text and
    # UTF-8 decoding, which raise a plain ValueError.
    (ERRORS, "class ParseError(ValidationError):", "class ParseError(ValueError):",
     "tests/test_boson.py::TestParseWord::test_every_rejected_text_is_a_validation_error",
     "killed"),
    (PACKAGE + "cli.py", "except (ValueError, OSError) as exc:",
     "except (ValidationError, OSError) as exc:",
     "tests/test_cli.py::TestCheckSubstCommand::test_malformed_file_exit_2", "killed"),
    (STIRLING, 'require_int(order, "order", 0, matrix.n_max)', 'require_int(order, "order", 0)',
     INTEGER_ARGS + "test_one_past_the_bound_is_rejected[column_egf-order-hi]", "killed"),
    # FiniteMatrix.entry: the last row is n_max, not size.
    (SUBSTITUTION, 'require_int(i, "row", 0, self.n_max)', 'require_int(i, "row", 0, self.size)',
     "tests/test_substitution.py::TestFiniteMatrix::test_entry_bounds", "killed"),
    # montecarlo calls the verdict through a name the benchmark tracer does
    # not patch: the same verdict, so only the span test notices.
    (MONTECARLO, "from .substitution import FiniteMatrix, is_approximate_substitution",
     "from .substitution import FiniteMatrix, SubstitutionReport as is_approximate_substitution",
     "tests/test_tracer_targets.py::test_every_called_layer_records_spans", "killed"),
    # recurrence_failure: the factor k+1, the scale D_i (1 on the integer
    # sources, not on "rat"), the scan bounds, the term j = k, how far Φ is
    # computed and its two known entries.
    (SUBSTITUTION, "if (k + 1) * scale * rows[i][k + 1]", "if k * scale * rows[i][k + 1]",
     TWO_BUMPS + "[21-int]", "killed"),
    (SUBSTITUTION, "if (k + 1) * scale * rows[i][k + 1]", "if (k + 1) * rows[i][k + 1]",
     TWO_BUMPS + "[21-rat]", "killed"),
    (SUBSTITUTION, "        for k in range(1, n - 1):\n", "        for k in range(1, n - 2):\n",
     QUOTIENT + "test_last_step", "killed"),
    (SUBSTITUTION, "for i in range(k + 2, n + 1):\n                column.insert",
     "for i in range(k + 2, n):\n                column.insert", TWO_BUMPS + "[21-int]", "killed"),
    (SUBSTITUTION, "column = [rows[k + 1][k], rows[k][k]]", "column = [rows[k + 1][k]]",
     TWO_BUMPS + "[21-int]", "killed"),
    (SUBSTITUTION, "while len(numerators) < i:", "while len(numerators) <= i:", EARLY_EXIT,
     "killed"),
    (SUBSTITUTION, "rows), n, ((0, 1), 1))", "rows), n)", EARLY_EXIT, "killed"),
    # Row i's weights lose their trailing zeros, and only those.
    (SUBSTITUTION, "while not w[-1]:", "while len(w) > 2:", SPARSE_PAIRS, "killed"),
    (SUBSTITUTION, "                    while not w[-1]:\n                        w.pop()\n", "",
     SPARSE_PAIRS, "survives: every weight the trim drops is zero, so the verdict is the same "
     "and only the product count changes"),
    # batch._philox4x64_10: rounds, carries.
    (BATCH, "for rnd in range(10):", "for rnd in range(9):", PER_TRIAL, "killed"),
    (BATCH, "        hi += v >> _SHIFT32\n", "", PER_TRIAL, "killed"),
    # batch.scaled_draws: Lemire's reject test and offset.
    (BATCH, "< (2**32 - range_r) % range_r", "<= (2**32 - range_r) % range_r", PER_TRIAL,
     "killed"),
    (BATCH, "astype(np.int64) + 1", "astype(np.int64) + 2", PER_TRIAL, "killed"),
    # batch.fits_int64.
    (BATCH, "range_r**2 < 2**63", "range_r**2 < 2**64", BATCH_VERDICTS, "killed"),
    (BATCH, "range_r**2 < 2**63", "range_r < 2**63", BATCH_VERDICTS, "killed"),
    # batch._verdict_plan: the last step, a weight.
    (BATCH, "for ks in ([1], range(2, n - 1)):", "for ks in ([1], range(2, n - 2)):",
     BATCH_VERDICTS, "killed"),
    (BATCH, "coef.append((k + 1) * comb(i, j))", "coef.append(k * comb(i, j))",
     BATCH_VERDICTS, "killed"),
    # batch.batch_verdicts: stage 2 unevaluated, the unit diagonal.
    (BATCH, "for stage in stages:", "for stage in stages[:1]:", BATCH_VERDICTS, "killed"),
    (BATCH, "m[:, ::size + 1] = 1", "m[:, ::size + 1] = 2", BATCH_VERDICTS, "killed"),
    # montecarlo._count_successes: self-check, redraw offsets, routing.
    (MONTECARLO, "if unchecked[i] and kept.size:", "if False:",
     "tests/test_montecarlo.py::TestSweepSelfCheck", "killed"),
    (MONTECARLO, "redo = (lo + np.flatnonzero(rejected)).tolist()",
     "redo = np.flatnonzero(rejected).tolist()",
     "tests/test_montecarlo.py::TestOneCountingLoop", "killed"),
    (MONTECARLO, "batched = [_batch_ok and batch.fits_int64(size, r) for r in ranges]",
     "batched = [_batch_ok for r in ranges]", PER_TRIAL, "killed"),
    # montecarlo._count_successes stacks ranges into one verdict call: one
    # range more than the element budget holds, the last batch range left out.
    (MONTECARLO, "per_call = batch._BLOCK_ELEMENTS // (rows * size * size)",
     "per_call = batch._BLOCK_ELEMENTS // (rows * size * size) + 1", STACKED, "killed"),
    (MONTECARLO, "todo = [i for i, b in enumerate(batched) if b]",
     "todo = [i for i, b in enumerate(batched) if b][:-1]", SWEEP, "killed"),
    # stirling._stirling_rows: the row-count type check, the lazy tables,
    # the unit shortcut, the past-the-end skip.
    (STIRLING, 'require_int(n_max, "row count", 0)', 'require_int(int(n_max), "row count", 0)',
     STIRLING_TESTS + "TestStirlingMatrix::test_negative_rows_rejected", "killed"),
    (STIRLING, "for big_l in range(len(table), end))", "for big_l in range(len(table), end - 1))",
     ACTION, "killed"),
    (STIRLING, "src = part if table is None else map(mul, part, table[base + lo:end])",
     "src = part", ACTION, "killed"),
    (STIRLING, "            if lo >= len(prev):\n                break",
     "            if lo >= len(prev):\n                continue", ACTION,
     "survives: later shifts have a larger lo, so each of them is skipped too"),
    # GeneralizedStirlingMatrix.from_json_obj: the generator runs first, so
    # that no rows reads as row count −1, and whole rows are compared.
    (STIRLING, "zip(_stirling_rows(word, len(texts) - 1), texts)",
     "zip(texts, _stirling_rows(word, len(texts) - 1))",
     STIRLING_TESTS + "TestStirlingMatrix::test_json_rejects_before_rebuilding[no-rows]",
     "killed"),
    (STIRLING, "if row != tuple(map(parse_integer, text)):", "if len(row) != len(text):",
     STIRLING_TESTS + "TestStirlingMatrix::test_json_rejects_before_rebuilding", "killed"),
    # GeneralizedStirlingMatrix.to_json_obj writes the excess from the word.
    (STIRLING, '"d": excess(self.word),', '"d": -excess(self.word),',
     STIRLING_TESTS + "TestStirlingMatrix::test_json_round_trip", "killed"),
    # stirling.bell_polynomial: Horner's powers of q, the weights, the block.
    (STIRLING, "value = value * p_b + block * q_power", "value = value * p_b + block",
     ACTION, "killed"),
    (STIRLING, "q ** (b - 1 - r) for r in range(b)]", "q ** (b - r) for r in range(b)]",
     ACTION, "killed"),
    (STIRLING, "_BELL_BLOCK = 8", "_BELL_BLOCK = 1", ACTION,
     "survives: every block size gives the same value; 8 is only the fastest"),
    # series._egf_quotient, which gives the verdict's and a report's φ and
    # TruncatedSeries.invert: the sign of the sum, the denominator D·den[0]
    # and its sign, the rescaling and the LCM, which _over_lcm takes, the
    # known entries.
    (SERIES, "t = v * d - sum(", "t = v * d + sum(", QUOTIENT_ORACLE, "killed"),
    (SERIES, "u = d * d0", "u = d0", RESCALES, "killed"),
    (SERIES, "gcd(t, u) if u > 0 else -gcd(t, u)", "gcd(t, u)", RESCALES,
     "survives: with u < 0 the mutant hands _over_lcm a q < 0, outside its q ≥ 1, but lcm "
     "takes |q| and d // q carries the sign into t, so every entry is the same"),
    (SERIES, "(numerators, _), d = _over_lcm(", "_, d = _over_lcm(", RESCALES, "killed"),
    (SERIES, "((), q)])", "((), d)])", RESCALES, "killed"),
    (SERIES, "if i < len(numerators):", "if i < len(numerators) - 1:", RESCALES, "killed"),
    # The quotient's dot product stops at the last nonzero entry of den.
    (SERIES, "support = i", "support = i - 1", SPARSE_QUOTIENT, "killed"),
    # SubstitutionReport._phi_entries continues from the verdict's entries,
    # through the last row.
    (SUBSTITUTION, "quotient = self._phi_prefix", "quotient = ((0, 1), 1)", ONCE, "killed"),
    (SUBSTITUTION, "_egf_quotient(map(_PHI_PAIR, rows), len(rows) - 1, quotient)",
     "_egf_quotient(map(_PHI_PAIR, rows[:-1]), len(rows) - 1, quotient)",
     "tests/test_substitution.py::TestDiagnosticsAtWorkloadSizes", "killed"),
    # series._egf_product, which gives the builder's columns and
    # TruncatedSeries.multiply: the last term of each entry, the last of b.
    (SERIES, "for j, bj in terms if j <= i - lo])", "for j, bj in terms if j < i - lo])",
     "tests/test_series.py::TestMultiply", "killed"),
    (SERIES, "enumerate(b[: n + 1 - lo])", "enumerate(b[: n - lo])", PAIR_MATRIX, "killed"),
    # errors.require_items: text is not a sequence of coefficients or rows,
    # and neither is an object that is not iterable.
    (ERRORS, "isinstance(value, (str, bytes)) or ", "",
     "tests/test_series.py::TestConstruction::test_text_or_non_iterable_coefficients_rejected",
     "killed"),
    (ERRORS, " or not isinstance(value, Iterable):", ":",
     "tests/test_substitution.py::TestEntryTypes::test_text_or_non_iterable_rows_rejected",
     "killed"),
    # BosonWord's runs and FiniteMatrix's denominator go through the two rules.
    (PACKAGE + "boson.py", 'require_items(self.runs, "runs")', "self.runs",
     "tests/test_boson.py::TestRuns::test_runs_must_be_a_sequence", "killed"),
    (PACKAGE + "boson.py", '"run exponent", 0)', '"run exponent")',
     INTEGER_ARGS + "test_one_past_the_bound_is_rejected[BosonWord-r-lo]", "killed"),
    (SUBSTITUTION, '"matrix denominator", 1)', '"matrix denominator", 0)',
     INTEGER_ARGS + "test_one_past_the_bound_is_rejected[FiniteMatrix-denominator-lo]",
     "killed"),
    # trial_stream reads its Philox key words through the integer rule: a
    # float, bool or digit string would otherwise be cast to uint64.
    (MONTECARLO, '    require_int(seed, "seed", 0, _MAX_KEY)\n', "",
     INTEGER_ARGS + "test_rejects_every_non_int[trial_stream-seed-float]", "killed"),
    (MONTECARLO, '    require_int(trial, "trial", 0, _MAX_KEY)\n', "",
     INTEGER_ARGS + "test_rejects_every_non_int[trial_stream-trial-float]", "killed"),
    # SubstitutionReport.failing_columns.
    (SUBSTITUTION, "islice(columns, 1, None)", "islice(columns, 2, None)", ORACLE, "killed"),
    (SUBSTITUTION, "TruncatedSeries.from_egf_entries(column, m.denominator * scale)",
     "TruncatedSeries.from_egf_entries(column, scale)",
     "tests/test_substitution.py::TestDiagnosticsAtWorkloadSizes", "killed"),
    (SUBSTITUTION, "for i in range(j, len(rows))):", "for i in range(j + 1, len(rows))):",
     ORACLE, "survives: entry j of column j is L·s_j on both sides, as M[j,j] = 1"),
    # substitution._column_chain: the scale step, each column's reduction,
    # the first column.
    (SUBSTITUTION, "scale *= d * j", "scale *= d * (j + 1)", PAIR_MATRIX, "killed"),
    (SUBSTITUTION, "        column, scale = _lowest(column, scale)\n", "", PAIR_MATRIX,
     "killed"),
    (SUBSTITUTION, "for j in range(k, len(column)):", "for j in range(k + 1, len(column)):",
     PAIR_MATRIX, "killed"),
    # The report reader swaps each failing column's actual integers into the
    # builder's chain; truncate_rn reduces each cut column.
    (SUBSTITUTION, "actual.get(k, (column, s))", "(column, s)",
     REPORT_READER + "test_read_report_equals_and_hashes_like_the_lazy_one", "killed"),
    (SUBSTITUTION, "if g_length and length and length != g_length:", "if False:",
     REPORT_READER + "test_long_series_beside_a_small_g_rejected_before_any_series", "killed"),
    (SUBSTITUTION, "_lowest(column[: n + 1], d)", "(column[: n + 1], d)",
     TRUNCATIONS + "test_rn_drops_the_row_that_holds_the_denominator", "killed"),
    # series.parse_rational's integer test, in ASCII digits, and its integral result.
    (SERIES, "if re.fullmatch(INTEGER_PATTERN, value):", r'if re.fullmatch(r"-?\d+", value):',
     "tests/test_substitution.py::TestEntryParsing", "killed"),
    (PACKAGE + "series.py", "return q.numerator if q.denominator == 1 else q", "return q",
     "tests/test_substitution.py::TestEntryParsing", "killed"),
    # series.parse_rationals: the comma count, the grammar check and the
    # fallback, zero denominators, the order of reading, the LCM, the gcd.
    # The derandomized test_row_agrees_with_parse_rational also kills each
    # of them but the order row; these selectors kill without a shrink.
    (SERIES, 'text.count(",") != len(values) - 1 or ', "", NEAR_MISS, "killed"),
    (SERIES, " or not _RATIONAL_ROW.fullmatch(text):", ":", NEAR_MISS, "killed"),
    (SERIES, 'if {str}.issuperset(map(type, values)) else ""', "", NEAR_MISS, "killed"),
    (SERIES, "(?:/0*+[1-9][0-9]*+)", "(?:/[0-9]++)", NEAR_MISS, "killed"),
    (SERIES, '        p, _, q = value.partition("/")\n',
     '        p, _, q = value.partition("/")\n        p = int(p)\n',
     ROW_READER + "test_denominator_read_before_numerator", "killed"),
    (SERIES, "if not pairs or pairs[-1][1] != q:", "if not pairs:", ROW_READER + "test_pinned",
     "killed"),
    # series._lowest, the one gcd reduction: skipped for the row reader, the
    # sign of the denominator for the series, and for the builder's chain.
    (SERIES, "g = gcd(d, *values)", "g = 1", ROW_READER + "test_pinned", "killed"),
    (SERIES, "g = gcd(d, *values)", "g = -gcd(d, *values)", RENDERING, "killed"),
    (SERIES, "(values, d) if g == 1 else", "(values, d) if g else", PAIR_MATRIX, "killed"),
    # series._over_lcm, the one LCM: the factors D/q, the rows of
    # FiniteMatrix.from_json_obj, the LCM itself; its factor-1 shortcut.
    (SERIES, "else [x * f for x in v]", "else list(v)", ROW_READER + "test_pinned", "killed"),
    (SERIES, "(v, d // q) for v, q in pairs]", "(v, d) for v, q in pairs]",
     ROW_READER + "test_rows_over_one_denominator", "killed"),
    (SERIES, "d = lcm(*[q for _, q in pairs])", "d = max([q for _, q in pairs])",
     ROW_READER + "test_pinned", "killed"),
    (SERIES, "[v if f == 1 else [x * f for x in v]", "[[x * f for x in v]",
     ROW_READER + "test_matrix_agrees_with_oracle",
     "survives: copying every vector gives the same integers"),
    # The builders of a FiniteMatrix take _over_lcm's vectors as they are:
    # the columns turned into rows, each row read on its own.
    (SUBSTITUTION, "FiniteMatrix(tuple(zip(*columns)), d)", "FiniteMatrix(tuple(columns), d)",
     "tests/test_substitution.py::TestBuilder", "killed"),
    (SUBSTITUTION, "_over_lcm(map(_read_exact, rows))", "_over_lcm((row, 1) for row in rows)",
     "tests/test_substitution.py::TestEntryTypes::test_other_inputs_become_fraction", "killed"),
    # series._read_exact, the one way into the number form from exact
    # values: its all-int shortcut, the denominators it brings over one LCM,
    # its reader; and from_coeffs, which builds through it once.
    (SERIES, "if {int}.issuperset(map(type, values)):",
     "if {int, bool}.issuperset(map(type, values)):",
     "tests/test_substitution.py::TestEntryTypes::test_integral_inputs_become_int", "killed"),
    (SERIES, "([v.numerator], v.denominator) for v in", "([v.numerator], 1) for v in",
     "tests/test_series.py::TestConstruction::test_other_coefficients_read_as_before", "killed"),
    (SERIES, "for v in map(read, values))", "for v in map(exact_number, values))", NEAR_MISS,
     "killed"),
    (SERIES, "return object.__new__(cls)._store_coeffs(padded, d * denominator)",
     "s = object.__new__(cls)._store_coeffs(padded, d)\n"
     "        return cls.from_egf_entries(s.entries, s.denominator * denominator)",
     "tests/test_series.py::TestConstruction::test_from_coeffs_builds_one_series", "killed"),
    # cli._dumps_indented: the item separator, empty containers, the key
    # separator and the indent of json's own text.  The hypothesis test
    # test_agrees_with_json_dumps kills each of them but the last, as it
    # writes no key other than text.
    (PACKAGE + "cli.py", 'f",\\n{inner}".join(items) + f"\\n{pad}]"',
     'f", \\n{inner}".join(items) + f"\\n{pad}]"', CANONICAL, "killed"),
    (PACKAGE + "cli.py", 'f",\\n{inner}".join(items) + f"\\n{pad}}}"',
     'f"\\n{inner}".join(items) + f"\\n{pad}}}"', CANONICAL, "killed"),
    (PACKAGE + "cli.py", "isinstance(obj, (list, tuple)) and obj:",
     "isinstance(obj, (list, tuple)):", CANONICAL, "killed"),
    (PACKAGE + "cli.py", "isinstance(obj, dict) and obj and", "isinstance(obj, dict) and",
     CANONICAL, "killed"),
    (PACKAGE + "cli.py", 'f"{text(k)}: {', 'f"{text(k)}:{', CANONICAL, "killed"),
    (PACKAGE + "cli.py", '.replace("\\n", "\\n" + pad)', "", CANONICAL, "killed"),
    # series._ratio_text, which writes every series coefficient and matrix
    # entry: the reduction to an integer, the reduced ratio, the sign.
    (SERIES, "if g == d else", "if d == 1 else", RENDERING, "killed"),
    (SERIES, 'f"{v // g}/{d // g}"', 'f"{v}/{d}"', RENDERING, "killed"),
    (SERIES, "str(v // g) if", "str(abs(v) // g) if", RENDERING, "killed"),
    # TruncatedSeries._store, which every series constructor ends in: the
    # empty series, the reduction; and the one factorial walk.
    (SERIES, '        if not entries:\n            raise ValidationError("a series needs at '
     'least one coefficient")\n', "",
     "tests/test_series.py::TestConstruction::test_json_rejects_no_coefficients", "killed"),
    (SERIES, "        entries, d = _lowest(entries, d)\n", "",
     "tests/test_series.py::TestEgfEntries::test_common_denominator", "killed"),
    (SERIES, "accumulate(range(1, n), mul, initial=d)", "accumulate(range(2, n), mul, initial=d)",
     "tests/test_series.py::TestAgainstFractionSeries", "killed"),
    # montecarlo.wilson_interval_95 in integers: the radicand's gcd, the
    # root's upper bound and its scale, z² = 2401/625 in each place, the
    # clip to [0, 1] at either end.
    (MONTECARLO, "g = gcd(num, den)", "g = 1", WILSON_ORACLE, "killed"),
    (MONTECARLO, "_ROOT_SCALE_SQUARED) + 1)", "_ROOT_SCALE_SQUARED))", WILSON_ORACLE, "killed"),
    (MONTECARLO, "scale = b * _ROOT_SCALE", "scale = _ROOT_SCALE", WILSON_ORACLE, "killed"),
    (MONTECARLO, "_ROOT_SCALE = 10**30", "_ROOT_SCALE = 10**3", WILSON, "killed"),
    (MONTECARLO, "+ 2401 * n", "+ 2400 * n", WILSON_ORACLE, "killed"),
    (MONTECARLO, "(1250 * s + 2401)", "(1250 * s + 2400)", WILSON_ORACLE, "killed"),
    (MONTECARLO, "(625 * n + 2401)", "(625 * n + 2400)", WILSON_ORACLE, "killed"),
    (MONTECARLO, "if base > offset else Fraction(0)", "", WILSON, "killed"),
    (MONTECARLO, "if base + offset < whole else Fraction(1)", "", WILSON, "killed"),
    # ExperimentResult.ratio_to_bound is s·r^e/n.
    (MONTECARLO, "self.successes * self.bound.denominator", "self.successes",
     "tests/test_cli.py::TestMonteCarloCommand::test_sweep_emits_ratios", "killed"),
    (MONTECARLO, "self.bound.denominator, self.config.draws)",
     "self.bound.denominator, self.config.size)",
     "tests/test_cli.py::TestMonteCarloCommand::test_sweep_emits_ratios", "killed"),
    # montecarlo loads numpy and the process pool where a run needs them,
    # so that no other command pays for importing them.
    (MONTECARLO, "from math import gcd, isqrt\n",
     "from math import gcd, isqrt\nimport numpy as np\n",
     ON_DEMAND, "killed"),
    (MONTECARLO, "import os\n", "import os\nfrom concurrent.futures import ProcessPoolExecutor\n",
     ON_DEMAND, "killed"),
    # cli.cmd_montecarlo checks --range in a sweep too.
    (PACKAGE + "cli.py", "range_r=args.range, seed", "range_r=ranges[0], seed",
     "tests/test_cli.py::TestMonteCarloCommand::test_sweep_checks_range", "killed"),
    # montecarlo._require_printable_bound's exact comparison and its early reject.
    (MONTECARLO, "power < 10**budget", "power < 10**(budget + 1)", PRINTABLE,
     "killed"),
    (MONTECARLO, "(range_r.bit_length() - 1) * exponent < 4 * budget",
     "(range_r.bit_length() - 1) * exponent < 3 * budget", PRINTABLE, "killed"),
]


def coverage_problems() -> list[str]:
    """One line for each kernel that is not defined once or holds fewer than
    two killed rows: rows whose source text, found once in the kernel's
    file, lies within the lines of its definition."""
    problems = []
    for path, name in KERNELS:
        source = (ROOT / path).read_text(encoding="utf-8")
        spans = [(node.lineno, node.end_lineno) for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef) and node.name == name]
        if len(spans) != 1:
            problems.append(f"{path}::{name} is defined {len(spans)} times, not once")
            continue
        (first, last), killed = spans[0], 0
        for row_path, text, _, _, expected in ROWS:
            if row_path == path and expected == "killed" and source.count(text) == 1:
                start = source[:source.index(text)].count("\n") + 1
                killed += first <= start and start + text.rstrip("\n").count("\n") <= last
        if killed < 2:
            problems.append(f"{path}::{name} holds {killed} killed row(s), not at least 2")
    return problems


def copy_tree(target: Path) -> Path:
    tree = target / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__"))
    return tree


def run_tests(tree: Path, *selectors: str) -> int | None:
    """pytest's exit code: 0 all passed, 1 some failed, other codes a broken run.

    None when the run outlives :data:`TIMEOUT_S`; its whole process group,
    workers included, is killed.
    """
    with subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selectors],
        cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as proc:
        try:
            return proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None


def run_row(row) -> tuple[str, bool]:
    """The line reporting one row, and whether the row behaved as expected."""
    path, text, replacement, selector, expected = row
    label = f"{path}: {text.splitlines()[0]!r} -> {replacement!r}"
    source = (ROOT / path).read_text(encoding="utf-8")
    if source.count(text) != 1:
        return f"FAIL  {label}: the text occurs {source.count(text)} times, not once", False
    if expected != "killed" and not expected.startswith("survives: "):
        return (f"FAIL  {label}: expectation {expected!r} is not 'killed' or "
                "'survives: <reason>'"), False
    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        tree = copy_tree(Path(scratch))
        (tree / path).write_text(source.replace(text, replacement), encoding="utf-8")
        code = run_tests(tree, selector)
    # Exit 1 means the mutant ran and a test failed; any other nonzero code
    # is a broken run (a collection error, say), which kills nothing.
    outcome = {0: "survives", 1: "killed", None: f"broken run (over {TIMEOUT_S} s)"}.get(
        code, f"broken run (exit {code})")
    ok = outcome == expected.partition(":")[0]
    return (f"{'ok  ' if ok else 'FAIL'}  {label}: {outcome}"
            + (f" ({expected.partition(': ')[2]})" if outcome == "survives" else "")), ok


def main() -> int:
    uncovered = coverage_problems()
    for line in uncovered:
        print(f"FAIL  {line}")
    if uncovered:
        print(f"{len(uncovered)} kernel(s) without two killed rows; no row was run")
        return 1
    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        code = run_tests(copy_tree(Path(scratch)), *sorted({row[3] for row in ROWS}))
        if code != 0:
            print(f"FAIL  the selectors exit {code} on the unmutated tree"
                  + (f" (over {TIMEOUT_S} s)" if code is None else ""))
            return 1
    problems = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for line, ok in pool.map(run_row, ROWS):
            print(line, flush=True)
            problems += not ok
    print(f"{problems} problem(s) in {len(ROWS)} rows")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
