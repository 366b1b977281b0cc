"""A cluster DAG described as blocks: one model replica stamped once per
worker (and iteration), plus the backend's own ops.

In data-parallel training every worker runs the same model partition
(§2.2), so a cluster DAG is mostly copies of one block. A :class:`Tiling`
records how a cluster builder lays the DAG out without copying any op:

* the **replica**: the emitted worker partition (a :class:`Replica`,
  shared by every cluster that places it), at an op-id offset per
  (worker, iteration) instance;
* the **glue**: every other op (PS reads, send activations and gradient
  tails, or all-reduce chunk chains and updates), kept as a small
  :class:`~repro.graph.dag.Graph` of its own, in creation order;
* the **cross edges** between glue ops and replica instances, in
  creation order.

The builder talks to a tiling the way it would to a :class:`Graph`
(:meth:`Tiling.add_op`, :meth:`Tiling.add_edge`), but in *global* op
ids: the id the op has in the assembled DAG. :meth:`Tiling.splice`
replays that construction into one :class:`Graph`, call for call, and
:func:`repro.sim.compile.tile_core` compiles the same layout without it:
the replica once per platform, then tiled with numpy.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .dag import Graph
from .op import Op, OpKind

#: ``stamp(worker, prefix)`` returns the :meth:`Graph.splice` rebuild
#: that puts a replica op onto ``worker`` as ``f"{prefix}{worker}/{name}"``.
Stamp = Callable[[str, str], Callable[[Op, int], Op]]


class Replica:
    """One worker partition as the cluster builders stamp it: the emitted
    ``graph`` (with ``output_ops``, forward node -> op name), the
    ``stamp`` that puts it onto a worker, and the ``template`` worker its
    compiled block is stamped onto. Read-only once built, so one replica
    serves every cluster shape that places it (see
    :func:`repro.backends.worker_replica`)."""

    def __init__(
        self, graph: Graph, output_ops: dict[str, str], stamp: Stamp,
        template: str,
    ) -> None:
        self.graph = graph
        self.output_ops = output_ops
        self.stamp = stamp
        self.template = template
        #: compiled tables of :meth:`stamped` per platform, filled by
        #: :func:`repro.sim.compile.tile_core`.
        self.blocks: dict = {}

    def __len__(self) -> int:
        return len(self.graph)

    def stamped(self) -> Graph:
        """The replica stamped onto :attr:`template`."""
        g = Graph(f"{self.graph.name}@{self.template}")
        g.splice(self.graph, self.stamp(self.template, ""))
        return g


class Tiling:
    """The block layout of one cluster DAG (see the module docstring)."""

    def __init__(self, name: str, replica: Replica) -> None:
        self.name = name
        self.replica = replica
        self.glue = Graph(name + "/glue")
        #: global op id of each glue op, ascending.
        self.glue_ids: list[int] = []
        #: ``(offset, worker, prefix)`` per placed replica, ascending.
        self.instances: list[tuple[int, str, str]] = []
        #: ``(src, dst)`` edges between glue and replica ops, creation order.
        self.cross: list[tuple[int, int]] = []
        #: ``(n at call time, src, dst)`` per :meth:`add_edge` call.
        self.links: list[tuple[int, int, int]] = []
        self.n = 0
        self._glue_of: dict[int, int] = {}
        #: glue op id -> its replica inputs (cross edges made by add_op).
        self._cross_in: dict[int, list[int]] = {}
        self._graph: Optional[Graph] = None

    # ------------------------------------------------------------------
    # Construction (global op ids throughout)
    # ------------------------------------------------------------------
    def add_op(
        self, name: str, kind: OpKind, inputs: Iterable[int] = (), **kwargs
    ) -> int:
        """Append a glue op consuming the ops ``inputs``; returns its id.
        Keyword arguments are :meth:`Graph.add_op`'s."""
        op_id = self.n
        local: list[int] = []
        for src in sorted(set(inputs)):
            j = self._glue_of.get(src)
            if j is None:
                self.cross.append((src, op_id))
                self._cross_in.setdefault(op_id, []).append(src)
            else:
                local.append(j)
        op = self.glue.add_op(name, kind, local, **kwargs)
        self._glue_of[op_id] = op.op_id
        self.glue_ids.append(op_id)
        self.n += 1
        return op_id

    def place(self, worker: str, prefix: str = "") -> int:
        """Append one replica instance stamped onto ``worker``; returns
        the id of its first op (replica op ``i`` gets ``offset + i``)."""
        offset = self.n
        self.instances.append((offset, worker, prefix))
        self.n += len(self.replica)
        return offset

    def add_edge(self, src: int, dst: int) -> None:
        """A dependency between a glue op and a replica op, both placed."""
        self.cross.append((src, dst))
        self.links.append((self.n, src, dst))

    def glue_op(self, op_id: int) -> Optional[Op]:
        """The glue op with global id ``op_id``, ``None`` for replica ops."""
        j = self._glue_of.get(op_id)
        return None if j is None else self.glue.op(j)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The assembled DAG (spliced on first read, then kept)."""
        if self._graph is None:
            self._graph = self.splice()
        return self._graph

    def splice(self) -> Graph:
        """Replay the construction into one :class:`Graph`: glue ops are
        re-added in order with their global inputs, replicas are spliced
        at their offsets and every :meth:`add_edge` lands at the point of
        construction it was made at, so op ids and every pred/succ list
        come out exactly as building the DAG op by op would give."""
        g = Graph(self.name)
        glue, glue_ids = self.glue, self.glue_ids
        links, instances = self.links, self.instances
        at_link = at_instance = j = 0
        while True:
            while at_link < len(links) and links[at_link][0] <= len(g):
                g.add_edge(links[at_link][1], links[at_link][2])
                at_link += 1
            if len(g) == self.n:
                return g
            if at_instance < len(instances) and instances[at_instance][0] == len(g):
                _, worker, prefix = instances[at_instance]
                g.splice(self.replica.graph, self.replica.stamp(worker, prefix))
                at_instance += 1
                continue
            op = glue.op(j)
            inputs = [glue_ids[p] for p in glue.pred_ids(j)]
            inputs += self._cross_in.get(glue_ids[j], ())
            g.add_op(
                op.name, op.kind, inputs, cost=op.cost, param=op.param,
                device=op.device, resource=op.resource, **op.attrs,
            )
            j += 1
