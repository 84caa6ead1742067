"""Task graph with update-counter dependency checking (paper Section VI-A).

The host builds a task graph per training iteration: nodes are
computation blocks sized to the systolic array, edges are data
dependencies.  Each task completion increments an update counter; a task
becomes ready when every predecessor's counter has reached the expected
iteration count.  The executor simulates a pool of workers (or functional
task bodies) draining the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


@dataclass(slots=True)
class Task:
    """One schedulable computation block.

    Attributes
    ----------
    name:
        Unique task name.
    duration_s:
        Simulated execution time, or a callable evaluated at dispatch.
    resource:
        Resource (worker/unit) the task occupies; tasks sharing a
        resource serialise.
    body:
        Optional functional payload executed when the task runs.
    """

    name: str
    duration_s: float = 0.0
    resource: str = "worker0"
    body: Optional[Callable[[], None]] = None
    deps: List[str] = field(default_factory=list)


class TaskGraph:
    """A DAG of tasks with paper-style update counters."""

    def __init__(self) -> None:
        self.tasks: Dict[str, Task] = {}
        self.update_counter: Dict[str, int] = {}

    def add(self, task: Task) -> Task:
        if task.name in self.tasks:
            raise ValueError(f"duplicate task {task.name!r}")
        for dep in task.deps:
            if dep not in self.tasks:
                raise ValueError(f"task {task.name!r} depends on unknown {dep!r}")
        self.tasks[task.name] = task
        self.update_counter[task.name] = 0
        return task

    def add_task(
        self,
        name: str,
        duration_s: float = 0.0,
        resource: str = "worker0",
        deps: Sequence[str] = (),
        body: Optional[Callable[[], None]] = None,
    ) -> Task:
        return self.add(
            Task(name=name, duration_s=duration_s, resource=resource,
                 body=body, deps=list(deps))
        )

    def ready(self, name: str, iteration: int = 1) -> bool:
        """Update-counter dependency check: every predecessor has
        completed ``iteration`` times."""
        task = self.tasks[name]
        return all(self.update_counter[dep] >= iteration for dep in task.deps)

    def validate_acyclic(self) -> List[str]:
        """Topological order; raises on cycles."""
        order: List[str] = []
        state: Dict[str, int] = {}

        def visit(name: str) -> None:
            mark = state.get(name, 0)
            if mark == 1:
                raise ValueError(f"dependency cycle through {name!r}")
            if mark == 2:
                return
            state[name] = 1
            for dep in self.tasks[name].deps:
                visit(dep)
            state[name] = 2
            order.append(name)

        for name in self.tasks:
            visit(name)
        return order


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
        # ``TaskGraph.add`` rejects deps that are not already inserted,
        # so insertion order is topological by construction and cycles
        # cannot exist — no DFS pass needed here.
        finish: Dict[str, float] = {}
        resource_free: Dict[str, float] = {}
        update_counter = self.graph.update_counter
        schedule = self.schedule
        # List scheduling over the topological order: each task's
        # dependencies already have finish times when we reach it, and
        # tasks serialise FIFO per resource.
        for name, task in self.graph.tasks.items():
            start = resource_free.get(task.resource, 0.0)
            for dep in task.deps:
                dep_finish = finish[dep]
                if dep_finish > start:
                    start = dep_finish
            end = start + task.duration_s
            finish[name] = end
            resource_free[task.resource] = end
            if task.body is not None:
                task.body()
            update_counter[name] += 1
            schedule.append(
                ScheduleEntry(name=name, resource=task.resource,
                              start_s=start, finish_s=end)
            )
        return max(finish.values(), default=0.0)
