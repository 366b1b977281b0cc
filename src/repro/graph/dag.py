"""Directed acyclic computational graphs.

A :class:`Graph` is the substrate everything else is built on: the model zoo
emits one per model replica, the cluster builder merges replicas with PS
subgraphs, the scheduling algorithms consume the single-worker reference
partition, and the simulator executes the merged cluster graph.

The structure is append-only (ops are never removed) which keeps op ids
dense and stable — a property the vectorized property computation in
:mod:`repro.core.properties` relies on.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .op import Op, OpKind, Resource

OpRef = Union[int, str, Op]


class GraphError(ValueError):
    """Raised on structural violations (cycles, duplicate names, bad refs)."""


class Graph:
    """An append-only DAG of :class:`~repro.graph.op.Op` vertices.

    Edges point from producer to consumer: ``u -> v`` means ``v`` consumes
    the output of ``u`` and cannot start before ``u`` finishes.

    Cycle safety is enforced structurally: an op may only declare inputs
    that already exist in the graph, so no cycle can ever be constructed.
    ``validate()`` re-checks global invariants for graphs assembled by
    multiple builders.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._ops: list[Op] = []
        self._by_name: dict[str, int] = {}
        self._preds: list[list[int]] = []
        self._succs: list[list[int]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_op(
        self,
        name: str,
        kind: OpKind = OpKind.COMPUTE,
        inputs: Sequence[OpRef] = (),
        *,
        cost: float = 0.0,
        param: Optional[str] = None,
        device: Optional[str] = None,
        resource: Optional[Resource] = None,
        **attrs,
    ) -> Op:
        """Append an op. ``inputs`` must already be present in the graph.

        Returns the new :class:`Op`. Raises :class:`GraphError` on duplicate
        names or dangling input references.
        """
        if name in self._by_name:
            raise GraphError(f"duplicate op name: {name!r}")
        if cost < 0:
            raise GraphError(f"op {name!r} has negative cost {cost}")
        op_id = len(self._ops)
        pred_ids = sorted({self._resolve(ref) for ref in inputs})
        op = Op(
            op_id=op_id,
            name=name,
            kind=kind,
            resource=resource,
            cost=float(cost),
            param=param,
            device=device,
            attrs=dict(attrs),
        )
        self._ops.append(op)
        self._by_name[name] = op_id
        self._preds.append(pred_ids)
        self._succs.append([])
        for p in pred_ids:
            self._succs[p].append(op_id)
        return op

    def merge(self, other: "Graph", rename: Callable[[str], str] = lambda n: n) -> dict[int, int]:
        """Copy all ops of ``other`` into this graph.

        ``rename`` maps each foreign op name to its name here (used to
        namespace per-worker replicas). Returns a mapping from ``other``'s
        op ids to the new ids in this graph.
        """
        mapping: dict[int, int] = {}
        for op in other._ops:
            new = self.add_op(
                rename(op.name),
                op.kind,
                [mapping[p] for p in other._preds[op.op_id]],
                cost=op.cost,
                param=op.param,
                device=op.device,
                resource=op.resource,
                **op.attrs,
            )
            mapping[op.op_id] = new.op_id
        return mapping

    def splice(
        self,
        other: "Graph",
        rebuild: Callable[[Op, int], Op],
    ) -> dict[int, int]:
        """Graft a fully assembled graph into this one, verbatim.

        Unlike :meth:`merge` — which re-adds ops through :meth:`add_op`
        and therefore cannot carry edges created by :meth:`add_edge` that
        point from a later op to an earlier one — ``splice`` copies the
        complete pred/succ structure with ids offset, preserving relative
        op-id order exactly. This is the job-mix union primitive: each
        job's cluster DAG (including its PS send-activation back-edges)
        is spliced in under a namespace prefix.

        ``rebuild(op, new_id)`` returns the :class:`~repro.graph.op.Op`
        to insert for ``other``'s ``op`` — it must carry ``op_id ==
        new_id`` and a name unique in this graph (typically the original
        fields with names/devices/resources rewritten). Acyclicity is
        preserved structurally: ``other`` is a DAG and no cross-graph
        edges are introduced. Returns the old-id -> new-id mapping.
        """
        offset = len(self._ops)
        mapping: dict[int, int] = {}
        for op in other._ops:
            new_id = offset + op.op_id
            new_op = rebuild(op, new_id)
            if new_op.op_id != new_id:
                raise GraphError(
                    f"splice rebuild returned op_id {new_op.op_id}, "
                    f"expected {new_id}"
                )
            if new_op.name in self._by_name:
                raise GraphError(f"duplicate op name: {new_op.name!r}")
            self._ops.append(new_op)
            self._by_name[new_op.name] = new_id
            self._preds.append([p + offset for p in other._preds[op.op_id]])
            self._succs.append([s + offset for s in other._succs[op.op_id]])
            mapping[op.op_id] = new_id
        return mapping

    def add_edge(self, src: OpRef, dst: OpRef) -> None:
        """Add a dependency edge between two existing ops.

        Used by the cluster builder to stitch cross-device dependencies
        (e.g. a PS ``send`` consuming the ``update`` of the same parameter).
        Raises :class:`GraphError` if the edge would create a cycle.
        """
        s, d = self._resolve(src), self._resolve(dst)
        if s == d:
            raise GraphError(f"self-loop on op {self._ops[s].name!r}")
        if d in self._preds[s] or self._reaches(d, s):
            raise GraphError(
                f"edge {self._ops[s].name!r} -> {self._ops[d].name!r} would create a cycle"
            )
        if s in self._preds[d]:
            return  # already present
        self._preds[d].append(s)
        self._succs[s].append(d)

    def _reaches(self, src: int, dst: int) -> bool:
        """Whether a path ``src -> ... -> dst`` exists (the cycle check of
        :meth:`add_edge`).

        Searches forward from ``src`` and backward from ``dst`` in
        lockstep, one op per side per step, and answers as soon as the two
        searches meet or either is exhausted. Every op one side visits is
        checked against the other side's visited set, so the answer is
        exact; the cost is bounded by the smaller of ``src``'s descendant
        set and ``dst``'s ancestor set instead of always the former.
        """
        if src == dst:
            return True
        succs = self._succs
        preds = self._preds
        fwd_seen = {src}
        bwd_seen = {dst}
        fwd = [src]
        bwd = [dst]
        while fwd and bwd:
            for nxt in succs[fwd.pop()]:
                if nxt in bwd_seen:
                    return True
                if nxt not in fwd_seen:
                    fwd_seen.add(nxt)
                    fwd.append(nxt)
            for prv in preds[bwd.pop()]:
                if prv in fwd_seen:
                    return True
                if prv not in bwd_seen:
                    bwd_seen.add(prv)
                    bwd.append(prv)
        return False

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _resolve(self, ref: OpRef) -> int:
        if isinstance(ref, Op):
            ref = ref.op_id
        if isinstance(ref, str):
            try:
                return self._by_name[ref]
            except KeyError:
                raise GraphError(f"unknown op name: {ref!r}") from None
        if not isinstance(ref, int) or not (0 <= ref < len(self._ops)):
            raise GraphError(f"unknown op reference: {ref!r}")
        return ref

    def op(self, ref: OpRef) -> Op:
        """Fetch an op by id, name or identity."""
        return self._ops[self._resolve(ref)]

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self._ops)

    def __contains__(self, ref: OpRef) -> bool:
        try:
            self._resolve(ref)
            return True
        except GraphError:
            return False

    @property
    def ops(self) -> Sequence[Op]:
        return tuple(self._ops)

    def predecessors(self, ref: OpRef) -> list[Op]:
        return [self._ops[i] for i in self._preds[self._resolve(ref)]]

    def successors(self, ref: OpRef) -> list[Op]:
        return [self._ops[i] for i in self._succs[self._resolve(ref)]]

    def pred_ids(self, op_id: int) -> Sequence[int]:
        return self._preds[op_id]

    def succ_ids(self, op_id: int) -> Sequence[int]:
        return self._succs[op_id]

    def in_degree(self, ref: OpRef) -> int:
        return len(self._preds[self._resolve(ref)])

    def out_degree(self, ref: OpRef) -> int:
        return len(self._succs[self._resolve(ref)])

    # ------------------------------------------------------------------
    # Queries used by the paper's algorithms
    # ------------------------------------------------------------------
    def roots(self) -> list[Op]:
        """Ops with no predecessors. In a worker partition these are the
        recv ops plus any constant/input ops (§2.2)."""
        return [op for op in self._ops if not self._preds[op.op_id]]

    def leaves(self) -> list[Op]:
        """Ops with no successors (send ops in a training worker partition)."""
        return [op for op in self._ops if not self._succs[op.op_id]]

    def ops_of_kind(self, kind: OpKind) -> list[Op]:
        return [op for op in self._ops if op.kind is kind]

    def recv_ops(self) -> list[Op]:
        """The ops TicTac schedules (§3.1): network receives."""
        return self.ops_of_kind(OpKind.RECV)

    def topological_order(self, key: Optional[Callable[[Op], object]] = None) -> list[Op]:
        """One topological order (Kahn). ``key`` breaks ties (stable by id
        when omitted); because ops can only reference earlier ops, id order
        itself is already topological — the method exists for explicit
        orders and for validation of externally stitched edges."""
        import heapq

        if key is None:
            order = list(self._ops)
            return order
        indeg = [len(p) for p in self._preds]
        heap = [(key(op), op.op_id) for op in self._ops if indeg[op.op_id] == 0]
        heapq.heapify(heap)
        out: list[Op] = []
        while heap:
            _, oid = heapq.heappop(heap)
            out.append(self._ops[oid])
            for s in self._succs[oid]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(heap, (key(self._ops[s]), s))
        if len(out) != len(self._ops):  # pragma: no cover - structurally impossible
            raise GraphError("graph contains a cycle")
        return out

    def validate(self) -> None:
        """Re-check global invariants; raises :class:`GraphError` on failure.

        Checked: edge symmetry of pred/succ tables, recv ops are roots
        within their device partition, non-negative costs, unique names.
        """
        if len(self._by_name) != len(self._ops):  # pragma: no cover
            raise GraphError("name table out of sync")
        for op in self._ops:
            for p in self._preds[op.op_id]:
                if op.op_id not in self._succs[p]:  # pragma: no cover
                    raise GraphError(f"asymmetric edge {p}->{op.op_id}")
            if op.cost < 0:
                raise GraphError(f"op {op.name!r} has negative cost")
            if op.kind is OpKind.RECV:
                same_device_preds = [
                    p for p in self.predecessors(op) if p.device == op.device
                ]
                if same_device_preds:
                    raise GraphError(
                        f"recv op {op.name!r} has same-device predecessors "
                        f"{[p.name for p in same_device_preds]}; recv ops must be "
                        "roots of their worker partition (§2.2)"
                    )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def total_cost(self, kinds: Optional[Iterable[OpKind]] = None) -> float:
        """Sum of op costs, optionally restricted to some kinds."""
        wanted = set(kinds) if kinds is not None else None
        return sum(op.cost for op in self._ops if wanted is None or op.kind in wanted)

    def subgraph_ids(self, predicate: Callable[[Op], bool]) -> list[int]:
        return [op.op_id for op in self._ops if predicate(op)]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        kinds = {}
        for op in self._ops:
            kinds[op.kind.value] = kinds.get(op.kind.value, 0) + 1
        return f"Graph({self.name!r}, {len(self)} ops, {kinds})"
