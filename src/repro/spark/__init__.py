"""Spark substrate: applications, executors, RDDs and the driver model.

The reproduction cannot run Apache Spark itself, so this package models the
pieces of Spark that the paper's scheduler interacts with:

* :mod:`repro.spark.rdd` — resilient distributed datasets split into
  partitions, the unit of work distribution;
* :mod:`repro.spark.application` — a running application: a benchmark, its
  input RDD, its executors and its progress;
* :mod:`repro.spark.executor` — an executor process with a heap budget, a
  set of cached partitions and a task-thread count;
* :mod:`repro.spark.driver` — the driver-side dynamic resource allocation
  policy that decides how many executors an application asks for.
"""

from repro.spark.rdd import Partition, RDD
from repro.spark.executor import Executor, ExecutorState
from repro.spark.application import ApplicationState, SparkApplication
from repro.spark.driver import DynamicAllocationPolicy

__all__ = [
    "Partition",
    "RDD",
    "Executor",
    "ExecutorState",
    "ApplicationState",
    "SparkApplication",
    "DynamicAllocationPolicy",
]
