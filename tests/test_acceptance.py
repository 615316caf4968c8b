"""End-to-end checks with pinned seeds, tolerances, and runtime budgets.

Each test wraps one check from inscorr.acceptance and asserts both the
verdict and the wall-clock budget, so a slow regression fails the suite
even when the numbers still come out right.
"""

import time

from inscorr import acceptance


def _timed(check):
    started = time.perf_counter()
    passed, detail = check()
    return passed, detail, time.perf_counter() - started


def test_analytic_gradients_match_finite_differences():
    passed, detail, seconds = _timed(acceptance.check_gradients)
    assert passed, detail
    assert seconds < 30.0


def test_keep_schedule_matches_closed_form_and_quota():
    passed, detail, seconds = _timed(acceptance.check_schedule)
    assert passed, detail
    assert seconds < 1.0


def test_small_loss_selection_matches_sort_oracle():
    passed, detail, seconds = _timed(acceptance.check_selection)
    assert passed, detail
    assert seconds < 5.0


def test_correction_helps_under_corruption_and_mixing_hurts_under_replacement():
    passed, detail, seconds = _timed(acceptance.check_ordering)
    assert passed, detail
    assert seconds < 900.0


def test_targeted_attack_respects_budget_and_reaches_targets():
    passed, detail, seconds = _timed(acceptance.check_attack)
    assert passed, detail
    assert seconds < 60.0


def test_degenerate_settings_reduce_to_reference_trainers():
    passed, detail, seconds = _timed(acceptance.check_reductions)
    assert passed, detail
    assert seconds < 120.0


def test_noise_injection_preserves_labels_counts_and_range():
    passed, detail, seconds = _timed(acceptance.check_noise)
    assert passed, detail
    assert seconds < 10.0


def test_early_selection_is_precise_before_memorization():
    passed, detail, seconds = _timed(acceptance.check_memorization)
    assert passed, detail
    assert seconds < 300.0


def test_repeated_runs_write_byte_identical_metrics():
    passed, detail, _ = _timed(acceptance.check_reproducibility)
    assert passed, detail
