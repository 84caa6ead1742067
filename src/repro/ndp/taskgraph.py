"""Task graph of one training iteration (paper Section VI-A).

The host builds a task graph per training iteration: nodes are
computation blocks sized to the systolic array, edges are data
dependencies.  A task may depend only on tasks added before it, so
insertion order is topological and the graph is acyclic by construction.
The executor simulates a pool of resources draining the graph: a task
starts at the later of its resource being free and its dependencies
finishing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass(slots=True)
class Task:
    """One schedulable computation block.

    Attributes
    ----------
    name:
        Unique task name.
    duration_s:
        Simulated execution time in seconds.
    resource:
        Resource (worker/unit) the task occupies; tasks sharing a
        resource serialise.
    """

    name: str
    duration_s: float = 0.0
    resource: str = "worker0"
    deps: List[str] = field(default_factory=list)


class TaskGraph:
    """A DAG of tasks in insertion (topological) order."""

    def __init__(self) -> None:
        self.tasks: Dict[str, Task] = {}

    def add_task(
        self,
        name: str,
        duration_s: float = 0.0,
        resource: str = "worker0",
        deps: Sequence[str] = (),
    ) -> Task:
        if name in self.tasks:
            raise ValueError(f"duplicate task {name!r}")
        for dep in deps:
            if dep not in self.tasks:
                raise ValueError(f"task {name!r} depends on unknown {dep!r}")
        task = Task(name=name, duration_s=duration_s, resource=resource, deps=list(deps))
        self.tasks[name] = task
        return task


@dataclass(slots=True)
class ScheduleEntry:
    """When and where a task ran."""

    name: str
    resource: str
    start_s: float
    finish_s: float


class TaskExecutor:
    """Discrete-event execution of a :class:`TaskGraph`.

    Tasks on the same resource serialise in dependency-respecting FIFO
    order (the NDP task scheduler loads tasks in a pre-defined order,
    Section VI-A); tasks on different resources run concurrently.
    """

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph
        self.schedule: List[ScheduleEntry] = []

    def run(self) -> float:
        """Execute the whole graph; returns the makespan in seconds."""
        finish: Dict[str, float] = {}
        resource_free: Dict[str, float] = {}
        schedule = self.schedule
        # List scheduling over the insertion (topological) order: each
        # task's dependencies already have finish times when we reach it,
        # and tasks serialise FIFO per resource.
        for name, task in self.graph.tasks.items():
            start = resource_free.get(task.resource, 0.0)
            for dep in task.deps:
                dep_finish = finish[dep]
                if dep_finish > start:
                    start = dep_finish
            end = start + task.duration_s
            finish[name] = end
            resource_free[task.resource] = end
            schedule.append(
                ScheduleEntry(name=name, resource=task.resource,
                              start_s=start, finish_s=end)
            )
        return max(finish.values(), default=0.0)
