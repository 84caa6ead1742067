"""Tests for the task graph and its executor."""

import pytest

from repro.ndp import TaskExecutor, TaskGraph


def make_graph():
    graph = TaskGraph()
    graph.add_task("load", 1.0, "dma")
    graph.add_task("compute", 2.0, "systolic", deps=["load"])
    graph.add_task("store", 0.5, "dma", deps=["compute"])
    return graph


class TestGraphConstruction:
    def test_duplicate_rejected(self):
        graph = TaskGraph()
        graph.add_task("a")
        with pytest.raises(ValueError):
            graph.add_task("a")

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph()
        with pytest.raises(ValueError):
            graph.add_task("b", deps=["missing"])


class TestExecution:
    def test_chain_makespan(self):
        graph = make_graph()
        assert TaskExecutor(graph).run() == pytest.approx(3.5)

    def test_parallel_resources_overlap(self):
        graph = TaskGraph()
        graph.add_task("a", 2.0, "w0")
        graph.add_task("b", 2.0, "w1")
        assert TaskExecutor(graph).run() == pytest.approx(2.0)

    def test_shared_resource_serialises(self):
        graph = TaskGraph()
        graph.add_task("a", 2.0, "w0")
        graph.add_task("b", 2.0, "w0")
        assert TaskExecutor(graph).run() == pytest.approx(4.0)

    def test_collective_overlaps_with_compute(self):
        """The pattern the trainer builds: network tasks overlap the
        backward compute of subsequent layers."""
        graph = TaskGraph()
        graph.add_task("b2", 1.0, "compute")
        graph.add_task("c2", 5.0, "network", deps=["b2"])
        graph.add_task("b1", 1.0, "compute", deps=["b2"])
        graph.add_task("c1", 1.0, "network", deps=["b1"])
        makespan = TaskExecutor(graph).run()
        # b1 (compute) overlaps c2 (network); c1 then queues behind c2 on
        # the shared rings: 1 + 5 + 1 = 7, not the serial 8.
        assert makespan == pytest.approx(7.0)

    def test_schedule_recorded(self):
        graph = make_graph()
        executor = TaskExecutor(graph)
        executor.run()
        entries = {e.name: e for e in executor.schedule}
        assert entries["compute"].start_s == pytest.approx(1.0)
        assert entries["store"].finish_s == pytest.approx(3.5)

    def test_empty_graph(self):
        assert TaskExecutor(TaskGraph()).run() == 0.0
