"""Pure helpers of the benchmark: tail percentile, span self time, partition
quality. Nothing here imports inscorr, so the tests run without it."""

import statistics

TAIL_BEYOND = 10


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """(value, percentile, n): the highest percentile of the samples that
    still has at least `beyond` samples above it, never below the upper
    quartile.

    With n samples sorted ascending, the rule picks the sample at 0-based
    rank n - 1 - beyond, reported as percentile rank / (n - 1) * 100. Below
    4 * beyond + 1 samples that percentile falls under 75; the upper
    quartile (linear interpolation, percentile 75) stands in, and n tells
    the reader how few samples there were.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0], 75.0, 1
    rank = n - 1 - beyond
    if rank < 0.75 * (n - 1):
        return statistics.quantiles(ordered, n=4, method="inclusive")[2], 75.0, n
    return ordered[rank], 100.0 * rank / (n - 1), n


def self_times(names, parents, starts, ends):
    """Per span name: {"calls", "incl_s", "self_s"} from flat span records.

    Span i has name names[i], started at starts[i], ended at ends[i] and was
    opened while span parents[i] was open (-1 for a root). A span's self time
    is its duration minus the durations of its direct children, which nest
    inside it.
    """
    child_s = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_s[parent] += ends[i] - starts[i]
    out = {}
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += duration
        row["self_s"] += duration - child_s[i]
    return out


def partition_counts(flagged, provenance):
    """(hits, flagged, noisy) for the row indices flagged mislabeled.

    A row is truly noisy when its provenance is not 0 (clean); hits counts
    the flagged rows that are truly noisy. Precision is hits / flagged and
    recall is hits / noisy; counts rather than ratios are returned so that
    several partitions pool exactly.
    """
    noisy = [int(p) != 0 for p in provenance]
    hits = sum(1 for i in flagged if noisy[int(i)])
    return hits, len(flagged), sum(noisy)


def ratio(num, den):
    """num / den, or 0.0 when nothing was counted."""
    return num / den if den else 0.0
