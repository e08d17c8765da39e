"""Unit tests for QoS token buckets and per-tenant admission limits."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError, ReproError
from repro.traffic import QosLimits, TokenBucket


class TestTokenBucket:
    def test_starts_full(self):
        b = TokenBucket(rate_per_s=1_000, burst=10)
        assert b.ready_time_us(0.0, 10.0) == 0.0

    def test_drained_bucket_waits_for_refill(self):
        b = TokenBucket(rate_per_s=1_000, burst=10)
        b.take(0.0, 10.0)
        # 1 token at 1000/s = 1ms.
        assert b.ready_time_us(0.0, 1.0) == pytest.approx(1_000.0)

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate_per_s=1_000, burst=10)
        b.take(0.0, 10.0)
        # After 1 simulated minute the bucket holds burst, not 60k.
        assert b.ready_time_us(60_000_000.0, 10.0) == 60_000_000.0
        assert b.ready_time_us(60_000_000.0, 11.0) > 60_000_000.0

    def test_request_above_burst_served_at_linear_delay(self):
        b = TokenBucket(rate_per_s=1_000, burst=10)
        # 25 tokens: 10 banked + 15 more at the refill rate (15ms).
        assert b.ready_time_us(0.0, 25.0) == pytest.approx(15_000.0)

    def test_take_tracks_partial_refill(self):
        b = TokenBucket(rate_per_s=1_000, burst=10)
        b.take(0.0, 10.0)
        b.take(5_000.0, 5.0)  # 5 refilled by then, all consumed
        assert b.ready_time_us(5_000.0, 1.0) == pytest.approx(6_000.0)

    def test_sustained_rate_is_enforced(self):
        b = TokenBucket(rate_per_s=10_000, burst=4)
        t = 0.0
        for _ in range(1_000):
            t = b.ready_time_us(t, 1.0)
            b.take(t, 1.0)
        # 1000 ops after the 4-op burst: >= 996 refill periods of 100us.
        assert t >= 996 * 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 10)
        with pytest.raises(ValueError):
            TokenBucket(100, 0.0)


class TestQosLimits:
    def test_no_limits_no_buckets(self):
        assert QosLimits().make_buckets() == []

    def test_iops_bucket_tagged_ops(self):
        buckets = QosLimits(iops=500, iops_burst=8).make_buckets()
        assert len(buckets) == 1
        bucket, dim = buckets[0]
        assert dim == "ops"
        assert bucket.rate_per_s == 500
        assert bucket.burst == 8

    def test_dirty_block_bucket_tagged_blocks(self):
        buckets = QosLimits(
            dirty_blocks_per_s=2_000, dirty_burst_blocks=32
        ).make_buckets()
        assert len(buckets) == 1
        bucket, dim = buckets[0]
        assert dim == "blocks"
        assert bucket.rate_per_s == 2_000

    def test_both_dimensions(self):
        buckets = QosLimits(iops=500, dirty_blocks_per_s=2_000).make_buckets()
        assert [dim for _, dim in buckets] == ["ops", "blocks"]

    def test_buckets_are_fresh_per_call(self):
        limits = QosLimits(iops=100, iops_burst=4)
        first, _ = limits.make_buckets()[0]
        first.take(0.0, 4.0)
        second, _ = limits.make_buckets()[0]
        assert second.ready_time_us(0.0, 4.0) == 0.0

    @pytest.mark.parametrize(
        "field", ["iops", "iops_burst", "dirty_blocks_per_s", "dirty_burst_blocks"]
    )
    @pytest.mark.parametrize("value", [0.0, -5.0, float("nan")])
    def test_rejects_non_positive_field(self, field, value):
        with pytest.raises(ConfigError, match=f"QosLimits.{field} must be positive"):
            QosLimits(**{field: value})

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            QosLimits(iops=0.0)
        assert issubclass(ConfigError, ReproError)
