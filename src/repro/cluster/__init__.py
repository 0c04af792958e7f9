"""Cluster substrate: nodes, resource monitoring and the co-location simulator.

The paper evaluates on a 40-node cluster (8-core/16-thread Xeon E5-2650,
64 GB DDR4, 16 GB swap per node) managed by YARN (Section 5.1).  This
package provides the equivalent simulated infrastructure:

* :mod:`repro.cluster.node` / :mod:`repro.cluster.cluster` — the machines;
* :mod:`repro.cluster.topologies` — named cluster topologies (the paper's
  40-node platform plus heterogeneous fleets) used by scenario specs;
* :mod:`repro.cluster.resource_monitor` — the per-node daemon that reports
  coarse-grained (windowed) memory and CPU usage to the coordinator;
* :mod:`repro.cluster.events` — the typed event bus (and retained log)
  every simulation component publishes to and subscribes on;
* :mod:`repro.cluster.faults` — dynamic cluster events: declarative and
  stochastic node failures/recoveries, autoscale joins, executor
  preemption, stragglers, plus streaming fault telemetry;
* :mod:`repro.cluster.simulator` — the co-location simulator, modelling
  CPU contention, memory-bandwidth interference, paging when a node's
  resident memory exceeds its RAM, and out-of-memory executor failures;
* :mod:`repro.cluster.engine` — the engines advancing simulated time: the
  event-driven default and the fixed-step fallback, sharing one
  scheduling-epoch lifecycle.
"""

from repro.cluster.node import Node
from repro.cluster.cluster import Cluster, paper_cluster
from repro.cluster.topologies import (
    NodeSpec,
    build_topology,
    register_topology,
    topology_names,
)
from repro.cluster.events import Event, EventBus, EventKind, EventLog
from repro.cluster.faults import (
    FAULT_PROFILES,
    FaultEvent,
    FaultSpec,
    FaultSummary,
    load_fault_spec,
)
from repro.cluster.resource_monitor import ResourceMonitor
from repro.cluster.engine import (
    STEP_MODES,
    EventDrivenEngine,
    FixedStepEngine,
)
from repro.cluster.simulator import (
    ClusterSimulator,
    InterferenceModel,
    SimulationResult,
    SchedulingContext,
)

__all__ = [
    "Node",
    "Cluster",
    "paper_cluster",
    "NodeSpec",
    "build_topology",
    "register_topology",
    "topology_names",
    "Event",
    "EventBus",
    "EventKind",
    "EventLog",
    "FAULT_PROFILES",
    "FaultEvent",
    "FaultSpec",
    "FaultSummary",
    "load_fault_spec",
    "ResourceMonitor",
    "STEP_MODES",
    "EventDrivenEngine",
    "FixedStepEngine",
    "ClusterSimulator",
    "InterferenceModel",
    "SimulationResult",
    "SchedulingContext",
]
