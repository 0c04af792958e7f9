"""Tests for the RDD model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark import RDD, Partition


class TestPartition:
    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            Partition(index=-1, size_gb=1.0)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            Partition(index=0, size_gb=0.0)


class TestRDD:
    def test_from_input_size_preserves_total(self):
        rdd = RDD.from_input_size("data", total_gb=10.0)
        assert rdd.total_gb == pytest.approx(10.0)

    def test_default_partition_size_is_hdfs_block(self):
        rdd = RDD.from_input_size("data", total_gb=1.0)
        assert rdd.partitions[0].size_gb == pytest.approx(0.128)

    def test_tiny_input_yields_single_partition(self):
        rdd = RDD.from_input_size("tiny", total_gb=0.01)
        assert rdd.num_partitions == 1

    def test_take_unprocessed_marks_partitions(self):
        rdd = RDD.from_input_size("data", total_gb=1.0)
        taken = rdd.take_unprocessed(0.3)
        assert sum(p.size_gb for p in taken) >= 0.3
        assert rdd.remaining_gb < rdd.total_gb

    def test_take_unprocessed_eventually_exhausts(self):
        rdd = RDD.from_input_size("data", total_gb=1.0)
        while rdd.remaining_gb > 0:
            assert rdd.take_unprocessed(0.5)
        assert rdd.is_fully_processed()
        assert rdd.take_unprocessed(0.5) == []

    def test_take_zero_returns_nothing(self):
        rdd = RDD.from_input_size("data", total_gb=1.0)
        assert rdd.take_unprocessed(0.0) == []

    def test_mark_processed_validates_indices(self):
        rdd = RDD.from_input_size("data", total_gb=1.0)
        with pytest.raises(ValueError):
            rdd.mark_processed([999])

    def test_rejects_non_positive_total(self):
        with pytest.raises(ValueError):
            RDD.from_input_size("data", total_gb=0.0)

    @given(st.floats(0.05, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_property_partition_sizes_sum_to_total(self, total):
        rdd = RDD.from_input_size("data", total_gb=total)
        assert sum(p.size_gb for p in rdd.partitions) == pytest.approx(total, rel=1e-9)

