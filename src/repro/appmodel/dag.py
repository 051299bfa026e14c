"""The module DAG with locality relationships (paper §3.1).

Edges carry the bytes that flow between modules; two locality mechanisms
from the paper are first-class:

* **co-location groups** — *"computation tasks that should be executed
  together on the same hardware unit (e.g., A1 and A2)"*;
* **affinity hints** — *"a data object (e.g., S1) is frequently used by a
  computation task (e.g., A3)"*, weighted by expected access volume.

Validation catches the mistakes a user-facing control plane must reject:
cycles, dangling edge endpoints, co-location groups spanning incompatible
device candidates, and task→task edges declared through a data module that
neither endpoint touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple, Union

import networkx as nx

from repro.appmodel.module import DataModule, TaskModule

__all__ = ["DagValidationError", "Edge", "ModuleDAG"]

Module = Union[TaskModule, DataModule]


class DagValidationError(Exception):
    """Raised when an application DAG is structurally invalid."""


@dataclass(frozen=True)
class Edge:
    """A dependency: ``src`` must produce before ``dst`` consumes.

    ``bytes_transferred`` sizes the data movement the scheduler must place
    around; task→data edges model writes, data→task edges model reads.
    """

    src: str
    dst: str
    bytes_transferred: int = 1024


@dataclass
class ModuleDAG:
    """A complete UDC application description."""

    name: str
    modules: Dict[str, Module] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)
    #: sets of task names that must share a hardware unit
    colocate_groups: List[Set[str]] = field(default_factory=list)
    #: (task, data) -> access weight in bytes per run
    affinities: Dict[Tuple[str, str], int] = field(default_factory=dict)

    # -- construction ---------------------------------------------------------

    def add_module(self, module: Module) -> Module:
        if module.name in self.modules:
            raise DagValidationError(f"duplicate module name {module.name!r}")
        self.modules[module.name] = module
        return module

    def add_edge(self, src: str, dst: str, bytes_transferred: int = 1024) -> Edge:
        edge = Edge(src=src, dst=dst, bytes_transferred=bytes_transferred)
        self.edges.append(edge)
        return edge

    def colocate(self, *names: str) -> None:
        """Require the named tasks to run on the same hardware unit."""
        if len(names) < 2:
            raise DagValidationError("colocate needs at least two modules")
        self.colocate_groups.append(set(names))

    def affine(self, task: str, data: str, weight_bytes: int = 1 << 20) -> None:
        """Hint that ``task`` frequently accesses ``data``."""
        self.affinities[(task, data)] = weight_bytes

    # -- accessors ------------------------------------------------------------

    def task(self, name: str) -> TaskModule:
        module = self.modules[name]
        if not isinstance(module, TaskModule):
            raise KeyError(f"{name!r} is not a task module")
        return module

    def data(self, name: str) -> DataModule:
        module = self.modules[name]
        if not isinstance(module, DataModule):
            raise KeyError(f"{name!r} is not a data module")
        return module

    @property
    def tasks(self) -> List[TaskModule]:
        return [m for m in self.modules.values() if isinstance(m, TaskModule)]

    @property
    def data_modules(self) -> List[DataModule]:
        return [m for m in self.modules.values() if isinstance(m, DataModule)]

    def predecessors(self, name: str) -> List[str]:
        return [e.src for e in self.edges if e.dst == name]

    def successors(self, name: str) -> List[str]:
        return [e.dst for e in self.edges if e.src == name]

    # -- graph views ------------------------------------------------------------

    def effective_task_graph(self) -> nx.DiGraph:
        """Dependencies between *task* modules only.

        Two kinds of edges:

        * direct task→task edges;
        * data-induced edges: a task that writes a data module happens
          before a task that reads it — *unless* that ordering would
          create a cycle (e.g. Figure 2's A4 writes S1 while its own
          upstream A3 reads S1: the write-back is a later round, not a
          dependency of this run).

        Induced edges are considered in sorted order so the result is
        deterministic.
        """
        task_names = {t.name for t in self.tasks}
        task_graph = nx.DiGraph()
        task_graph.add_nodes_from(sorted(task_names))
        for edge in self.edges:
            if edge.src in task_names and edge.dst in task_names:
                task_graph.add_edge(edge.src, edge.dst)

        induced = []
        for data_name in sorted(
            m.name for m in self.modules.values() if isinstance(m, DataModule)
        ):
            writers = sorted(
                e.src for e in self.edges
                if e.dst == data_name and e.src in task_names
            )
            readers = sorted(
                e.dst for e in self.edges
                if e.src == data_name and e.dst in task_names
            )
            for writer in writers:
                for reader in readers:
                    if writer != reader:
                        induced.append((writer, reader))
        for writer, reader in sorted(set(induced)):
            if task_graph.has_edge(writer, reader):
                continue
            # Skip an induced edge that would close a cycle: the reader
            # already (transitively) precedes the writer.
            if reader in nx.ancestors(task_graph, writer) | {writer}:
                continue
            task_graph.add_edge(writer, reader, induced=True)
        return task_graph

    def task_stages(self) -> List[List[str]]:
        """Topological stages over *task* modules only.

        Data modules are standing state, not schedulable steps; a task's
        stage is its depth in :meth:`effective_task_graph`.
        """
        stages: List[List[str]] = []
        for generation in nx.topological_generations(self.effective_task_graph()):
            stages.append(sorted(generation))
        return stages

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`DagValidationError` on any structural problem."""
        for edge in self.edges:
            for endpoint in (edge.src, edge.dst):
                if endpoint not in self.modules:
                    raise DagValidationError(
                        f"edge {edge.src}->{edge.dst} references unknown "
                        f"module {endpoint!r}"
                    )
            if edge.bytes_transferred < 0:
                raise DagValidationError(
                    f"edge {edge.src}->{edge.dst} has negative transfer size"
                )

        for edge in self.edges:
            if edge.src == edge.dst:
                raise DagValidationError(f"self-loop on module {edge.src!r}")

        # Cycles through *data* modules are legal — a task may write back
        # to state an upstream task read (Figure 2: A4 appends the
        # diagnosis to S1, which A3 read); data modules are standing
        # state, not one-shot dataflow.  Direct task→task cycles are not.
        task_names = {t.name for t in self.tasks}
        direct = nx.DiGraph()
        direct.add_nodes_from(task_names)
        for edge in self.edges:
            if edge.src in task_names and edge.dst in task_names:
                direct.add_edge(edge.src, edge.dst)
        if not nx.is_directed_acyclic_graph(direct):
            cycle = nx.find_cycle(direct)
            raise DagValidationError(f"task graph has a cycle: {cycle}")

        for group in self.colocate_groups:
            unknown = group - set(self.modules)
            if unknown:
                raise DagValidationError(
                    f"colocate group references unknown modules {sorted(unknown)}"
                )
            members = [self.modules[n] for n in group]
            non_tasks = [m.name for m in members if not isinstance(m, TaskModule)]
            if non_tasks:
                raise DagValidationError(
                    f"colocate group may only contain tasks; got {non_tasks}"
                )
            shared = frozenset.intersection(
                *(m.device_candidates for m in members if isinstance(m, TaskModule))
            )
            if not shared:
                raise DagValidationError(
                    f"colocate group {sorted(group)} has no common device "
                    f"candidate — the tasks cannot share a hardware unit"
                )

        for (task_name, data_name) in self.affinities:
            if task_name not in self.modules or data_name not in self.modules:
                raise DagValidationError(
                    f"affinity ({task_name}, {data_name}) references unknown module"
                )
            if not isinstance(self.modules[task_name], TaskModule):
                raise DagValidationError(
                    f"affinity source {task_name!r} must be a task"
                )
            if not isinstance(self.modules[data_name], DataModule):
                raise DagValidationError(
                    f"affinity target {data_name!r} must be a data module"
                )

    def merged_colocation_groups(self) -> List[Set[str]]:
        """Union overlapping groups so 'A~B' and 'B~C' yields {A, B, C}."""
        merged: List[Set[str]] = []
        for group in self.colocate_groups:
            group = set(group)
            overlapping = [g for g in merged if g & group]
            for g in overlapping:
                group |= g
                merged.remove(g)
            merged.append(group)
        return merged
