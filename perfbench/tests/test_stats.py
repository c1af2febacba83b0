"""The latency and failure accounting helper."""

from perfbench.stats import (
    MIN_TAIL,
    OpLog,
    failed_fraction,
    percentile,
    percentile_if_supported,
    samples_beyond,
    summarize,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert percentile_if_supported(list(range(100)), 90) is not None
    assert samples_beyond(99, 90) < MIN_TAIL
    assert percentile_if_supported(list(range(99)), 90) is None


def test_summary_reports_highest_supported_percentile_with_count():
    summary = summarize([float(v) for v in range(1000)])
    assert summary.count == 1000
    assert summary.p50 == 499.5
    assert summary.tail_pct == 99.0  # p99.9 has only one sample beyond it
    assert "n=1000" in summary.describe()

    small = summarize([1.0, 2.0, 3.0])
    assert small.p50 == 2.0 and small.tail is None
    assert "n=3" in small.describe()

    assert summarize([]).p50 is None


def test_failures_count_as_attempts():
    reads, writes = OpLog(), OpLog()
    reads.record(5.0, True)
    reads.record(60_000.0, False, "timeout")  # a timed-out request still counts
    writes.record(10.0, True)
    writes.fail("output mismatch found after the run")
    assert reads.attempted == 2 and reads.failed == 1
    assert writes.attempted == 1 and writes.failed == 1
    assert failed_fraction({"read": reads, "write": writes}) == 2 / 3
    assert reads.errors == ["timeout"]
    assert 60_000.0 in reads.latencies_ms


def test_no_attempts_is_total_failure():
    assert failed_fraction({"read": OpLog()}) == 1.0
