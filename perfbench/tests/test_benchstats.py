"""Tests of the benchmark's pure helpers and of its metric declaration.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from benchstats import (  # noqa: E402
    partition_counts,
    ratio,
    self_times,
    tail_percentile,
)


# -- tail percentile --------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]  # 1..100
    value, percentile, n = tail_percentile(samples)
    assert n == 100
    assert value == 90.0
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100.0 * 89 / 99)


def test_tail_is_the_highest_rank_with_ten_beyond():
    samples = [float(v) for v in range(60, 0, -1)]  # 60..1, unsorted
    value, percentile, n = tail_percentile(samples)
    assert (value, n) == (50.0, 60)
    assert sum(s > value for s in samples) == 10
    # one rank higher would leave only nine samples beyond it
    assert sum(s > 51.0 for s in samples) == 9
    assert percentile == pytest.approx(100.0 * 49 / 59)


def test_tail_at_forty_one_samples_meets_the_upper_quartile():
    samples = [float(v) for v in range(41)]
    assert tail_percentile(samples) == (30.0, 75.0, 41)


def test_tail_with_few_samples_falls_back_to_the_upper_quartile():
    # with 12 samples the rule's rank (1) lies far below the upper quartile
    samples = [float(v) for v in range(12)]
    assert tail_percentile(samples) == (8.25, 75.0, 12)
    assert tail_percentile([3.0, 1.0, 2.0, 4.0, 5.0]) == (4.0, 75.0, 5)
    assert tail_percentile([4.0]) == (4.0, 75.0, 1)


def test_tail_needs_a_sample():
    with pytest.raises(ValueError):
        tail_percentile([])


# -- self time --------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # run [0, 10] > epoch [1, 7] > forward [2, 3], backward [3, 6] > kernel [4, 5]
    # run [0, 10] > eval [8, 9]
    names = ["run", "epoch", "forward", "backward", "kernel", "eval"]
    parents = [-1, 0, 1, 1, 3, 0]
    starts = [0.0, 1.0, 2.0, 3.0, 4.0, 8.0]
    ends = [10.0, 7.0, 3.0, 6.0, 5.0, 9.0]
    out = self_times(names, parents, starts, ends)
    assert out["run"] == {"calls": 1, "incl_s": 10.0, "self_s": 10.0 - 6.0 - 1.0}
    assert out["epoch"]["self_s"] == 6.0 - 1.0 - 3.0
    assert out["backward"]["self_s"] == 3.0 - 1.0
    assert out["kernel"]["self_s"] == 1.0
    assert out["eval"]["self_s"] == 1.0
    total_self = sum(row["self_s"] for row in out.values())
    assert total_self == out["run"]["incl_s"]


def test_self_time_sums_repeated_calls_by_name():
    names = ["epoch", "step", "step", "epoch", "step"]
    parents = [-1, 0, 0, -1, 3]
    starts = [0.0, 0.5, 1.5, 3.0, 3.5]
    ends = [2.0, 1.0, 1.75, 4.0, 3.75]
    out = self_times(names, parents, starts, ends)
    assert out["step"] == {"calls": 3, "incl_s": 1.0, "self_s": 1.0}
    assert out["epoch"] == {"calls": 2, "incl_s": 3.0, "self_s": 2.0}


# -- partition precision and recall ------------------------------------------


def test_partition_counts_against_provenance():
    # rows 1, 3, 4 and 6 are noisy: open-set (1) or corrupted (2)
    provenance = [0, 1, 0, 2, 1, 0, 2, 0]
    flagged = [1, 2, 3, 7]
    hits, n_flagged, n_noisy = partition_counts(flagged, provenance)
    assert (hits, n_flagged, n_noisy) == (2, 4, 4)
    assert ratio(hits, n_flagged) == 0.5  # precision
    assert ratio(hits, n_noisy) == 0.5  # recall


def test_partition_counts_perfect_and_empty_splits():
    provenance = [0, 1, 1, 0]
    hits, n_flagged, n_noisy = partition_counts([1, 2], provenance)
    assert ratio(hits, n_flagged) == 1.0 and ratio(hits, n_noisy) == 1.0
    hits, n_flagged, n_noisy = partition_counts([], provenance)
    assert (hits, n_flagged) == (0, 0)
    assert ratio(hits, n_flagged) == 0.0 and ratio(hits, n_noisy) == 0.0


# -- declaration ---------------------------------------------------------------


def test_benchmark_json_declares_what_the_benchmark_prints():
    pytest.importorskip("numpy")
    from layers import PER_LAYER

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["wall_s", "wall_s_tail", "setup_s", "peak_rss_mb",
                     "last10_acc", "ok_frac"]


def test_failed_iterations_are_counted_and_the_loop_goes_on():
    import run

    class Flaky:
        """Every second iteration fails; the warm-up succeeds."""
        name, runs_per_iteration, last10 = "selection_open_set", 1, {}
        calls = 0

        def iteration(self, k):
            self.calls += 1
            time.sleep(0.01)
            if self.calls % 2 == 0:
                raise run.RunFailure(f"iteration {k}")
            return 0.01, {"run": {"wall_seconds": 0.01}}

    workload = Flaky()
    samples, failures, attempted = run.run_loop(workload, 0.2, False, None)
    assert attempted == workload.calls > 4
    assert len(failures) == attempted // 2
    assert len(samples["untraced"]) == attempted - 1 - len(failures)


def test_tracer_spans_nest_through_wrappers(tmp_path):
    pytest.importorskip("numpy")
    from layers import Tracer

    tracer = Tracer(tmp_path)
    inner = tracer._wrap(lambda: None, "inner")
    outer = tracer._wrap(lambda: [inner(), inner()], "outer")
    outer()
    inner()
    assert tracer.names == ["outer", "inner", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0, -1]
    spans = tracer.snapshot()["spans"]
    assert spans["inner"]["calls"] == 3
    assert spans["outer"]["self_s"] <= spans["outer"]["incl_s"]
    tracer.reset()
    assert tracer.names == [] and tracer.snapshot()["spans"] == {}
