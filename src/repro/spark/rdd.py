"""Resilient distributed datasets (RDDs) and their partitions.

The paper exploits the data-parallel structure of RDDs: an application's
input is a collection of objects that can be processed partition by
partition, which is what makes it possible to profile an application on a
small subset of its input (the ~100 MB feature-extraction run and the
5 %/10 % calibration runs) without wasting any work — the profiled
partitions count towards the final output (Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["Partition", "RDD"]


@dataclass(frozen=True)
class Partition:
    """A slice of an RDD: ``index`` within the dataset and its size in GB."""

    index: int
    size_gb: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("partition index cannot be negative")
        if self.size_gb <= 0:
            raise ValueError("partition size must be positive")


@dataclass
class RDD:
    """A dataset made of partitions, tracking which are still unprocessed.

    Parameters
    ----------
    name:
        Human-readable dataset name (usually the owning application).
    partitions:
        The partitions making up the dataset.
    lineage:
        Names of parent RDDs this dataset was derived from; used to build
        the stage DAG.
    """

    name: str
    partitions: list[Partition]
    lineage: tuple[str, ...] = ()
    _processed: set[int] = field(default_factory=set, repr=False)

    @classmethod
    def from_input_size(cls, name: str, total_gb: float,
                        partition_gb: float = 0.128,
                        lineage: Iterable[str] = ()) -> "RDD":
        """Build an RDD of roughly ``partition_gb``-sized partitions.

        The default partition size mirrors Spark's default HDFS block size
        (128 MB).  The final partition absorbs the remainder so the total
        matches ``total_gb`` exactly.
        """
        if total_gb <= 0:
            raise ValueError("total_gb must be positive")
        if partition_gb <= 0:
            raise ValueError("partition_gb must be positive")
        n_full = int(total_gb // partition_gb)
        sizes = [partition_gb] * n_full
        remainder = total_gb - n_full * partition_gb
        if remainder > 1e-9 or not sizes:
            sizes.append(max(remainder, 1e-9))
        partitions = [Partition(index=i, size_gb=s) for i, s in enumerate(sizes)]
        return cls(name=name, partitions=partitions, lineage=tuple(lineage))

    @property
    def total_gb(self) -> float:
        """Total dataset size in gigabytes."""
        return sum(p.size_gb for p in self.partitions)

    @property
    def remaining_gb(self) -> float:
        """Size of the partitions that have not been processed yet."""
        return sum(p.size_gb for p in self.partitions
                   if p.index not in self._processed)

    @property
    def num_partitions(self) -> int:
        """Number of partitions in the dataset."""
        return len(self.partitions)

    def take_unprocessed(self, target_gb: float) -> list[Partition]:
        """Mark roughly ``target_gb`` of unprocessed partitions as taken.

        Returns the partitions handed out.  At least one partition is
        returned when any remain, even if it is larger than ``target_gb`` —
        a partition is the smallest schedulable unit.
        """
        if target_gb <= 0:
            return []
        taken: list[Partition] = []
        accumulated = 0.0
        for partition in self.partitions:
            if partition.index in self._processed:
                continue
            taken.append(partition)
            self._processed.add(partition.index)
            accumulated += partition.size_gb
            if accumulated >= target_gb:
                break
        return taken

    def mark_processed(self, indices: Iterable[int]) -> None:
        """Record the given partition indices as processed."""
        for index in indices:
            if index < 0 or index >= len(self.partitions):
                raise ValueError(f"unknown partition index {index}")
            self._processed.add(index)

    def is_fully_processed(self) -> bool:
        """Whether every partition has been handed out/processed."""
        return len(self._processed) == len(self.partitions)
