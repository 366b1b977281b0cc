"""Lower layer-level :class:`~repro.models.ir.ModelIR` to op-level graphs.

Four emission modes:

* ``canonical_inference`` / ``canonical_training`` — the single-device
  graph TensorFlow would hold before distribution, including per-variable
  subgraphs (variable, initializer chain, assign, read) and, for training,
  the loss and SGD-apply ops. Used for Table 1 op accounting.
* ``worker_inference`` / ``worker_training`` — one Model-Replica worker
  partition (§2.2): every parameter arrives through a ``recv`` root; in
  training every parameter gradient leaves through a ``send`` leaf. Used
  by the scheduler and the cluster simulator.

Emission is deliberately structural: each micro-layer lowers to one kernel
op plus the small constellation of constant/shape/bookkeeping ops a real
TensorFlow graph carries, and the backward pass mirrors the forward pass
the way ``tf.gradients`` does (Backprop ops consuming both the incoming
gradient and forward activations, ``AddN`` at fan-in points). Op *counts*
therefore land near Table 1 without being padded to it; the
``ops_inf_delta_pct``/``ops_train_delta_pct`` columns of
``results/table1_models.csv`` report the per-model deviation.

Every op carries ``attrs['timing_key']`` — its model-local name — so
per-op timing oracles and priorities fitted on a reference worker transfer
unchanged to renamed replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..graph import Graph, GraphError, OpKind
from .ir import ModelIR, Node, ParamTensor

CANONICAL_INFERENCE = "canonical_inference"
CANONICAL_TRAINING = "canonical_training"
WORKER_INFERENCE = "worker_inference"
WORKER_TRAINING = "worker_training"
EMIT_MODES = (
    CANONICAL_INFERENCE,
    CANONICAL_TRAINING,
    WORKER_INFERENCE,
    WORKER_TRAINING,
)


@dataclass
class EmitResult:
    """An emitted graph plus the index structures downstream stages need."""

    graph: Graph
    #: forward IR node name -> op name carrying that node's output.
    output_ops: dict[str, str]
    #: parameter name -> recv op name (worker modes only).
    recv_ops: dict[str, str] = field(default_factory=dict)
    #: parameter name -> send op name (worker training only).
    send_ops: dict[str, str] = field(default_factory=dict)
    #: parameter name -> op producing its gradient (training modes).
    grad_ops: dict[str, str] = field(default_factory=dict)


class _Emitter:
    def __init__(self, ir: ModelIR, mode: str,
                 placement: Optional[Mapping[str, str]]) -> None:
        if mode not in EMIT_MODES:
            raise ValueError(f"unknown emit mode {mode!r}; one of {EMIT_MODES}")
        self.ir = ir
        self.mode = mode
        self.worker_mode = mode.startswith("worker")
        self.training = mode.endswith("training")
        self.placement = placement or {}
        self.g = Graph(f"{ir.name}/{mode}")
        self.result = EmitResult(graph=self.g, output_ops={})
        #: parameter name -> read-op name consumed by kernels.
        self.param_read: dict[str, str] = {}
        #: parameter name -> variable op name (canonical only).
        self.param_var: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _aux(self, name: str, inputs=()) -> str:
        return self.g.add_op(name, OpKind.AUX, inputs, timing_key=name).name

    def _compute(self, name: str, flops: float, inputs=(), **attrs) -> str:
        return self.g.add_op(name, OpKind.COMPUTE, inputs, cost=flops,
                             timing_key=name, **attrs).name

    def _gcompute(self, name: str, flops: float, inputs=()) -> str:
        """Gradient compute op plus the two shape/BroadcastGradientArgs-style
        constants ``tf.gradients`` attaches to nearly every grad op."""
        c1 = self._aux(f"{name}/shape")
        c2 = self._aux(f"{name}/grad_args")
        return self._compute(name, flops, list(inputs) + [c1, c2])

    def _ps_of(self, param: ParamTensor) -> str:
        ps = self.placement.get(param.name)
        if ps is None:
            raise GraphError(
                f"worker emission requires a PS placement for every parameter; "
                f"missing {param.name!r}"
            )
        return ps

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def emit_param(self, param: ParamTensor) -> str:
        """Emit the access path of one parameter; returns the read op name."""
        p = param.name
        if self.worker_mode:
            recv = self.g.add_op(
                f"{p}/recv", OpKind.RECV, (), cost=param.nbytes, param=p,
                ps=self._ps_of(param), timing_key=f"{p}/recv",
                shape=param.shape,
            ).name
            read = self._aux(f"{p}/read", [recv])
            self.result.recv_ops[p] = recv
        else:
            # Canonical variable subgraph: initializer chain + variable +
            # assign + read, as tf.Variable construction produces.
            shape = self._aux(f"{p}/Initializer/shape")
            rand = self._aux(f"{p}/Initializer/random_uniform", [shape])
            scale = self._aux(f"{p}/Initializer/scale")
            init = self._aux(f"{p}/Initializer/mul", [rand, scale])
            var = self._aux(p)
            self._aux(f"{p}/Assign", [var, init])
            read = self._aux(f"{p}/read", [var])
            self.param_var[p] = var
        self.param_read[p] = read
        return read

    # ------------------------------------------------------------------
    # Forward kernels
    # ------------------------------------------------------------------
    def emit_forward(self, node: Node) -> None:
        """Emit the kernel (+aux) ops for one IR node; record its output op."""
        n = node.name
        ins = [self.result.output_ops[i] for i in node.inputs]
        reads = [self.param_read[p.name] for p in node.params]
        op = node.op
        if op == "input":
            out = self._aux(n)
        elif op in ("conv", "depthwise_conv"):
            kernel = "Conv2D" if op == "conv" else "DepthwiseConv2dNative"
            c1 = self._aux(f"{n}/{kernel}/dims")
            c2 = self._aux(f"{n}/{kernel}/paddings")
            out = self._compute(f"{n}/{kernel}", node.flops, ins + reads + [c1, c2])
        elif op == "biasadd":
            out = self._compute(f"{n}", node.flops, ins + reads)
        elif op == "bn":
            c = self._aux(f"{n}/Const")
            out = self._compute(f"{n}/FusedBatchNorm", node.flops, ins + reads + [c])
        elif op == "relu":
            out = self._compute(n, node.flops, ins)
        elif op in ("maxpool", "avgpool"):
            kernel = "MaxPool" if op == "maxpool" else "AvgPool"
            c = self._aux(f"{n}/{kernel}/ksize")
            out = self._compute(f"{n}/{kernel}", node.flops, ins + [c])
        elif op == "flatten":
            c = self._aux(f"{n}/shape")
            out = self._aux(f"{n}/Reshape")
            self.g.add_edge(ins[0], out)
            self.g.add_edge(c, out)
        elif op == "fc":
            out = self._compute(f"{n}/MatMul", node.flops, ins + reads)
        elif op == "concat":
            c = self._aux(f"{n}/axis")
            out = self._compute(n, node.flops, ins + [c])
        elif op == "add":
            out = self._compute(n, node.flops, ins)
        elif op == "softmax":
            out = self._compute(n, node.flops, ins)
        elif op == "dropout":
            keep = self._aux(f"{n}/keep_prob")
            rand = self._aux(f"{n}/random_uniform")
            out = self._compute(f"{n}/mul", node.flops, ins + [keep, rand])
        elif op == "lrn":
            out = self._compute(f"{n}/LRN", node.flops, ins)
        else:  # pragma: no cover - IR validates op names upstream
            raise GraphError(f"cannot lower IR op {op!r}")
        self.result.output_ops[n] = out

    # ------------------------------------------------------------------
    # Loss and backward pass
    # ------------------------------------------------------------------
    def _loss_heads(self) -> list[str]:
        """IR nodes to attach losses to: final softmax plus any aux head."""
        nodes = list(self.ir)
        heads = [nodes[-1].name]
        aux = nodes[-1].attrs.get("aux_head")
        if aux:
            heads.append(aux)
        return heads

    def emit_training_tail(self) -> None:
        """Loss subgraph, backward mirror, and per-parameter grad exits."""
        batch = self.ir.batch_size
        heads = self._loss_heads()
        labels = self._aux("labels")
        loss_terms: list[str] = []
        head_grads: dict[str, str] = {}
        for head in heads:
            classes = self.ir.node(head).out_elements
            xent = self._gcompute(
                f"losses/{head}/xent", 8.0 * classes * batch,
                [self.result.output_ops[head], labels],
            )
            mean = self._compute(f"losses/{head}/mean", float(classes * batch), [xent])
            loss_terms.append(mean)
        if len(loss_terms) > 1:
            loss = self._compute("losses/total", float(len(loss_terms)), loss_terms)
        else:
            loss = loss_terms[0]
        seed = self._aux("gradients/grad_ys", [loss])
        for head in heads:
            classes = self.ir.node(head).out_elements
            head_grads[head] = self._gcompute(
                f"gradients/losses/{head}/xent_grad", 5.0 * classes * batch,
                [seed, self.result.output_ops[head]],
            )

        consumers = self.ir.consumers()
        #: forward node -> list of grad op names flowing into its output.
        incoming: dict[str, list[str]] = {name: [] for name in self.ir.nodes}
        for head, gop in head_grads.items():
            incoming[head].append(gop)

        for node in reversed(list(self.ir)):
            grads = incoming[node.name]
            if not grads:
                continue  # dead branch (no path to the loss)
            if len(grads) == 1:
                gin = grads[0]
            else:
                gin = self._gcompute(
                    f"gradients/{node.name}/AddN",
                    float(node.out_elements * self.ir.batch_size * (len(grads) - 1)),
                    grads,
                )
            for inp, gout in self._emit_node_backward(node, gin).items():
                incoming[inp].append(gout)

        self._emit_param_exits()

    def _emit_node_backward(self, node: Node, gin: str) -> dict[str, str]:
        """Emit grad ops for one node; returns input name -> grad op.

        Also records parameter-gradient producers in ``result.grad_ops``.
        """
        n, op = node.name, node.op
        outs: dict[str, str] = {}
        ins = [self.result.output_ops[i] for i in node.inputs]
        B = self.ir.batch_size
        elems = float(node.out_elements * B)
        if op == "input":
            return outs
        if op in ("conv", "depthwise_conv"):
            weights = node.params[0]
            gi = self._gcompute(f"gradients/{n}/BackpropInput", node.flops,
                                [gin, self.param_read[weights.name]])
            gw = self._gcompute(f"gradients/{n}/BackpropFilter", node.flops,
                                [gin, ins[0]])
            outs[node.inputs[0]] = gi
            self.result.grad_ops[weights.name] = gw
        elif op == "biasadd":
            bias = node.params[0]
            gb = self._gcompute(f"gradients/{n}/BiasAddGrad", elems, [gin])
            outs[node.inputs[0]] = gin  # additive pass-through
            self.result.grad_ops[bias.name] = gb
        elif op == "bn":
            beta = node.params[0]
            gbn = self._gcompute(f"gradients/{n}/FusedBatchNormGrad", 2.0 * elems,
                                 [gin, ins[0]])
            outs[node.inputs[0]] = gbn
            self.result.grad_ops[beta.name] = gbn
        elif op == "relu":
            outs[node.inputs[0]] = self._gcompute(
                f"gradients/{n}/ReluGrad", elems,
                [gin, self.result.output_ops[n]])
        elif op in ("maxpool", "avgpool"):
            kernel = "MaxPool" if op == "maxpool" else "AvgPool"
            outs[node.inputs[0]] = self._gcompute(
                f"gradients/{n}/{kernel}Grad", node.flops,
                [gin, self.result.output_ops[n], ins[0]])
        elif op == "flatten":
            c = self._aux(f"gradients/{n}/orig_shape")
            g = self._aux(f"gradients/{n}/Reshape")
            self.g.add_edge(gin, g)
            self.g.add_edge(c, g)
            outs[node.inputs[0]] = g
        elif op == "fc":
            weights = node.params[0]
            gi = self._gcompute(f"gradients/{n}/MatMul_grad_input", node.flops,
                                [gin, self.param_read[weights.name]])
            gw = self._gcompute(f"gradients/{n}/MatMul_grad_weights", node.flops,
                                [gin, ins[0]])
            outs[node.inputs[0]] = gi
            self.result.grad_ops[weights.name] = gw
        elif op == "concat":
            offsets = self._aux(f"gradients/{n}/offsets")
            for i, inp in enumerate(node.inputs):
                sz = float(self.ir.node(inp).out_elements * B)
                outs[inp] = self._gcompute(f"gradients/{n}/Slice_{i}", sz,
                                           [gin, offsets])
        elif op == "add":
            for inp in node.inputs:
                outs[inp] = gin  # gradient of + is identity to both sides
        elif op == "softmax":
            # Loss attaches directly at the head; a softmax consumed mid-graph
            # (never the case in the zoo) would need its own grad.
            outs[node.inputs[0]] = gin
        elif op == "dropout":
            outs[node.inputs[0]] = self._gcompute(
                f"gradients/{n}/mul_grad", elems,
                [gin, self.result.output_ops[n]])
        elif op == "lrn":
            outs[node.inputs[0]] = self._gcompute(
                f"gradients/{n}/LRNGrad", 4.0 * elems,
                [gin, self.result.output_ops[n], ins[0]])
        else:  # pragma: no cover
            raise GraphError(f"no backward rule for IR op {op!r}")
        return outs

    def _emit_param_exits(self) -> None:
        """Per-parameter gradient exits: sends (worker) or SGD apply (canonical)."""
        missing = [p.name for p in self.ir.params if p.name not in self.result.grad_ops]
        if missing:
            raise GraphError(
                f"{len(missing)} parameters received no gradient, e.g. {missing[:3]}"
            )
        if self.worker_mode:
            for p in self.ir.params:
                gop = self.result.grad_ops[p.name]
                send = self.g.add_op(
                    f"{p.name}/grad_send", OpKind.SEND, [gop], cost=p.nbytes,
                    param=p.name, ps=self._ps_of(p),
                    timing_key=f"{p.name}/grad_send", shape=p.shape,
                ).name
                self.result.send_ops[p.name] = send
        else:
            lr = self._aux("optimizer/learning_rate")
            for p in self.ir.params:
                gop = self.result.grad_ops[p.name]
                self._compute(
                    f"optimizer/{p.name}/ApplyGradientDescent",
                    2.0 * p.n_elements,
                    [gop, self.param_var[p.name], lr],
                )
            step = self._aux("optimizer/global_step")
            self._aux("optimizer/global_step/incr", [step])

    # ------------------------------------------------------------------
    def run(self) -> EmitResult:
        for param in self.ir.params:
            self.emit_param(param)
        for node in self.ir:
            self.emit_forward(node)
        if self.training:
            self.emit_training_tail()
        return self.result


def emit_graph(
    ir: ModelIR,
    mode: str = WORKER_INFERENCE,
    *,
    placement: Optional[Mapping[str, str]] = None,
) -> EmitResult:
    """Lower ``ir`` in the given mode.

    ``placement`` (parameter name -> PS device name) is required in worker
    modes — it determines the ``ps`` attribute of recv/send ops, and thus
    which channel each transfer occupies.
    """
    return _Emitter(ir, mode, placement).run()


def op_counts(ir: ModelIR) -> tuple[int, int]:
    """(inference, training) canonical op counts — our Table 1 columns."""
    inf = len(emit_graph(ir, CANONICAL_INFERENCE).graph)
    tr = len(emit_graph(ir, CANONICAL_TRAINING).graph)
    return inf, tr
