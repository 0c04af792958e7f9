"""The multi-node cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.cluster.node import Node
from repro.cluster.state import ClusterState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topologies -> cluster)
    from repro.cluster.topologies import NodeSpec

__all__ = ["Cluster", "paper_cluster"]


@dataclass
class Cluster:
    """A collection of computing nodes, homogeneous or mixed.

    Every aggregate and scan below works per node, so schedulers built on
    them remain correct when node capacities differ (heterogeneous
    topologies, :mod:`repro.cluster.topologies`).

    The cluster owns the array-backed kernel state
    (:class:`~repro.cluster.state.ClusterState`): every node — and every
    executor placed on one — is adopted into a structured-array slot, so
    the membership scans below are vectorized column operations instead
    of per-object Python loops, while returning the exact same node
    objects in the exact same order as the historical scans.
    """

    nodes: list[Node] = field(default_factory=list)
    state: ClusterState = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.state = ClusterState(len(self.nodes))
        for node in self.nodes:
            self.state.adopt_node(node)

    @classmethod
    def homogeneous(cls, n_nodes: int, ram_gb: float = 64.0, swap_gb: float = 16.0,
                    cores: int = 16) -> "Cluster":
        """Build a cluster of ``n_nodes`` identical machines."""
        if n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        return cls(nodes=[
            Node(node_id=i, ram_gb=ram_gb, swap_gb=swap_gb, cores=cores)
            for i in range(n_nodes)
        ])

    @classmethod
    def heterogeneous(cls, node_specs: Iterable["NodeSpec"]) -> "Cluster":
        """Build a cluster from mixed node groups.

        ``node_specs`` is an iterable of :class:`~repro.cluster.topologies.NodeSpec`
        entries; each contributes ``count`` identical nodes, and node ids
        number the expansion consecutively (group order is placement order
        for id-ordered scans).
        """
        nodes: list[Node] = []
        for spec in node_specs:
            for _ in range(spec.count):
                nodes.append(Node(node_id=len(nodes), ram_gb=spec.ram_gb,
                                  swap_gb=spec.swap_gb, cores=spec.cores))
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        return cls(nodes=nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        """Look up a node by its identifier."""
        if not 0 <= node_id < len(self.nodes):
            raise KeyError(f"unknown node id {node_id}")
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # Dynamic membership
    # ------------------------------------------------------------------
    def add_node(self, ram_gb: float = 64.0, swap_gb: float = 16.0,
                 cores: int = 16) -> Node:
        """Grow the cluster by one brand-new node (autoscale join).

        The new node receives the next consecutive id, so id-ordered
        scans and per-node traces extend naturally.
        """
        node = Node(node_id=len(self.nodes), ram_gb=ram_gb,
                    swap_gb=swap_gb, cores=cores)
        self.nodes.append(node)
        self.state.adopt_node(node)
        return node

    def up_nodes(self) -> list[Node]:
        """Nodes currently part of the live cluster, in id order."""
        up = self.state.nodes_view()["up"]
        return [self.nodes[i] for i in np.flatnonzero(up).tolist()]

    def up_count(self) -> int:
        """Number of live nodes (the basis for live executor caps)."""
        return int(np.count_nonzero(self.state.nodes_view()["up"]))

    @property
    def total_ram_gb(self) -> float:
        """Aggregate physical memory across the cluster."""
        return sum(node.ram_gb for node in self.nodes)

    def nodes_by_free_memory(self) -> list[Node]:
        """Live nodes sorted by unreserved memory, most available first.

        Down nodes never appear in placement scans; with every node up
        (the no-fault case) this is the full node list, as it always was.
        The sort runs over the reservation columns (stable, so ties keep
        id order exactly like the historical ``sorted`` call).
        """
        state = self.state
        state.refresh_dirty()
        rows = state.nodes_view()
        free = rows["ram_gb"] - rows["reserved_mem_gb"]
        np.maximum(free, 0.0, out=free)
        order = np.argsort(-free, kind="stable")
        order = order[rows["up"][order]]
        return [self.nodes[i] for i in order.tolist()]

    def idle_nodes(self) -> list[Node]:
        """Live nodes that currently host no active executor."""
        state = self.state
        state.refresh_dirty()
        rows = state.nodes_view()
        idle = rows["up"] & (rows["n_active"] == 0)
        return [self.nodes[i] for i in np.flatnonzero(idle).tolist()]

    def active_applications(self) -> set[str]:
        """Applications with at least one active executor anywhere."""
        state = self.state
        exec_objs = state.exec_objs
        return {exec_objs[slot].app_name
                for slot in state.active_slots().tolist()}


def paper_cluster() -> Cluster:
    """The evaluation platform of the paper: 40 nodes, 64 GB RAM, 16 GB swap,
    16 hardware threads each (Section 5.1).

    Also available as the ``"paper40"`` entry of the topology registry
    (:mod:`repro.cluster.topologies`), of which it is simply the oldest
    member.
    """
    return Cluster.homogeneous(n_nodes=40, ram_gb=64.0, swap_gb=16.0, cores=16)
