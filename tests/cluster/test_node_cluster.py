"""Tests for nodes, the cluster and the resource monitor."""

import pytest

from repro.cluster import (
    Cluster,
    Node,
    ResourceMonitor,
    paper_cluster,
)
from repro.spark import Executor


def make_executor(node_id=0, budget=10.0, data=5.0, cpu=0.3, app="app"):
    return Executor(app_name=app, node_id=node_id, memory_budget_gb=budget,
                    assigned_gb=data, cpu_demand=cpu)


def one_node(**kwargs):
    """The only node of a one-node cluster (a node needs a cluster slot)."""
    return Cluster.homogeneous(1, **kwargs).node(0)


class TestNode:
    def test_reservation_accounting(self):
        node = one_node(ram_gb=64.0)
        node.add_executor(make_executor(budget=20.0))
        node.add_executor(make_executor(budget=10.0, app="other"))
        assert node.reserved_memory_gb == pytest.approx(30.0)
        assert node.free_reserved_memory_gb == pytest.approx(34.0)

    def test_cpu_accounting(self):
        node = one_node()
        node.add_executor(make_executor(cpu=0.4))
        node.add_executor(make_executor(cpu=0.3, app="other"))
        assert node.reserved_cpu_load == pytest.approx(0.7)
        assert node.free_cpu_load == pytest.approx(0.3)

    def test_can_host_respects_memory_and_cpu(self):
        node = one_node(ram_gb=64.0)
        node.add_executor(make_executor(budget=60.0, cpu=0.5))
        assert not node.can_host(memory_gb=10.0, cpu_load=0.1)     # memory
        assert not node.can_host(memory_gb=2.0, cpu_load=0.6)      # cpu
        assert node.can_host(memory_gb=2.0, cpu_load=0.4)

    def test_can_host_rejects_non_positive_memory(self):
        assert not one_node().can_host(memory_gb=0.0, cpu_load=0.1)

    def test_finished_executor_frees_reservation(self):
        node = one_node()
        executor = make_executor(budget=30.0, data=1.0)
        node.add_executor(executor)
        executor.advance(1.0)
        assert node.reserved_memory_gb == 0.0
        assert node.applications() == set()

    def test_executor_for_wrong_node_rejected(self):
        node = one_node()
        with pytest.raises(ValueError):
            node.add_executor(make_executor(node_id=3))

    def test_set_speed_writes_column_and_moves_version(self):
        cluster = Cluster.homogeneous(1)
        node, state = cluster.node(0), cluster.state
        state.refresh_dirty()
        version = state.version
        node.set_speed(0.5)
        assert node.speed_factor == 0.5
        assert state.nodes_view()["speed"][0] == 0.5
        assert state.version > version
        assert 0 not in state._dirty_nodes
        with pytest.raises(ValueError):
            node.set_speed(0.0)

    def test_mark_down_refuses_hosting_until_mark_up(self):
        cluster = Cluster.homogeneous(1)
        node = cluster.node(0)
        node.set_speed(0.5)
        node.mark_down()
        assert not node.is_up
        assert not cluster.state.nodes_view()["up"][0]
        assert node.speed_factor == 1.0
        assert not node.can_host(memory_gb=1.0, cpu_load=0.1)
        node.mark_up()
        assert node.is_up
        assert node.can_host(memory_gb=1.0, cpu_load=0.1)

    def test_add_to_clean_node_matches_full_refresh(self):
        cluster = Cluster.homogeneous(1)
        node, state = cluster.node(0), cluster.state
        node.reserved_memory_gb                      # refresh: node clean
        budgets, cpus = (10.1, 0.7, 3.3), (0.1, 0.2, 0.3)
        for i, (budget, cpu) in enumerate(zip(budgets, cpus)):
            node.add_executor(make_executor(budget=budget, cpu=cpu,
                                            app=f"app-{i}"))
        assert 0 not in state._dirty_nodes           # updated in place
        row = state.nodes_view()[0]
        in_place = (row["reserved_mem_gb"], row["reserved_cpu"],
                    row["n_active"])
        state.refresh_node(0)
        row = state.nodes_view()[0]
        assert (row["reserved_mem_gb"], row["reserved_cpu"],
                row["n_active"]) == in_place
        assert in_place == (sum(budgets), sum(cpus), 3)

    def test_add_to_dirty_node_is_summed_on_read(self):
        cluster = Cluster.homogeneous(1)
        node, state = cluster.node(0), cluster.state
        first = make_executor(budget=20.0, data=1.0, app="first")
        node.add_executor(first)
        node.reserved_memory_gb                      # refresh: node clean
        first.advance(1.0)                           # finishes: node dirty
        node.add_executor(make_executor(budget=7.0, cpu=0.25, app="second"))
        assert 0 in state._dirty_nodes
        assert node.reserved_memory_gb == 7.0
        assert node.reserved_cpu_load == 0.25
        assert 0 not in state._dirty_nodes
        assert state.nodes_view()["n_active"][0] == 1
        assert node.applications() == {"second"}

    def test_invalid_node_parameters_raise(self):
        with pytest.raises(ValueError):
            Node(node_id=0, ram_gb=0.0)
        with pytest.raises(ValueError):
            Node(node_id=0, cores=0)


class TestCluster:
    def test_paper_cluster_matches_section_5_1(self):
        cluster = paper_cluster()
        assert len(cluster) == 40
        assert all(node.ram_gb == 64.0 for node in cluster.nodes)
        assert all(node.swap_gb == 16.0 for node in cluster.nodes)
        assert all(node.cores == 16 for node in cluster.nodes)
        assert cluster.total_ram_gb == pytest.approx(40 * 64.0)

    def test_homogeneous_requires_at_least_one_node(self):
        with pytest.raises(ValueError):
            Cluster.homogeneous(0)

    def test_node_lookup_bounds(self):
        cluster = Cluster.homogeneous(2)
        assert cluster.node(1).node_id == 1
        with pytest.raises(KeyError):
            cluster.node(2)

    def test_nodes_by_free_memory_ordering(self):
        cluster = Cluster.homogeneous(3)
        cluster.node(1).add_executor(make_executor(node_id=1, budget=40.0))
        ordering = [node.node_id for node in cluster.nodes_by_free_memory()]
        assert ordering[-1] == 1

    def test_idle_nodes_and_active_applications(self):
        cluster = Cluster.homogeneous(2)
        cluster.node(0).add_executor(make_executor(node_id=0, app="job-a"))
        assert [node.node_id for node in cluster.idle_nodes()] == [1]
        assert cluster.active_applications() == {"job-a"}


class TestResourceMonitor:
    def test_windowed_average(self):
        monitor = ResourceMonitor(window_min=5.0)
        monitor.record(0.0, 0, memory_gb=10.0, cpu_load=0.2)
        monitor.record(1.0, 0, memory_gb=30.0, cpu_load=0.6)
        assert monitor.reported_memory_gb(0) == pytest.approx(20.0)
        assert monitor.reported_cpu_load(0) == pytest.approx(0.4)

    def test_old_samples_fall_out_of_window(self):
        monitor = ResourceMonitor(window_min=5.0)
        monitor.record(0.0, 0, memory_gb=100.0, cpu_load=1.0)
        monitor.record(10.0, 0, memory_gb=10.0, cpu_load=0.1)
        assert monitor.reported_memory_gb(0) == pytest.approx(10.0)

    def test_unknown_node_reports_zero(self):
        monitor = ResourceMonitor()
        assert monitor.reported_memory_gb(7) == 0.0
        assert not monitor.has_samples(7)

    def test_rejects_negative_samples_and_window(self):
        with pytest.raises(ValueError):
            ResourceMonitor(window_min=0.0)
        with pytest.raises(ValueError):
            ResourceMonitor().record(0.0, 0, memory_gb=-1.0, cpu_load=0.0)
