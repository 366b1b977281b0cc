"""Platform cost models: the substitute for the paper's testbeds.

The paper evaluates on two environments (§6):

* **envG** — Azure cloud: Standard NC6 workers (1× NVIDIA K80) and
  Standard F64s v2 parameter servers (64-core CPU), cloud networking;
* **envC** — a commodity CPU cluster: 32-core machines on 1 GbE.

We cannot run on that hardware, so a :class:`Platform` converts the model
zoo's abstract op costs (FLOPs for compute ops, bytes for transfers) into
seconds. The absolute constants are published peak/typical figures derated
by an efficiency factor; the *ratios* (communication vs computation) are
what shape every result in the paper, and they are covered by tests and by
the derivation comment above ``ENV_G`` below.

Ground-truth execution in the simulator additionally applies per-run
lognormal jitter (``jitter_sigma``) — the paper's "system-level performance
variations" that remain even under perfect scheduling (§6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..graph import Graph, Op, OpKind
from ..registry import Registry, UnknownNameError
from .oracle import TimeOracle


def _basename(device: str) -> str:
    """Device name with any job-mix namespace (``j0/``) stripped."""
    return device.rsplit("/", 1)[-1]


@dataclass(frozen=True)
class Platform:
    """Hardware model translating work units into seconds.

    Attributes
    ----------
    worker_flops:
        Effective FLOP/s of a worker's compute device.
    ps_flops:
        Effective FLOP/s of a PS's compute device (PS ops are lightweight;
        §2.2 — aggregation, read, update).
    bandwidth_bps:
        Effective per-connection bandwidth in bytes/second (the worker-side
        NIC line rate — a single gRPC channel never moves faster than
        this).
    ps_nic_slots:
        How many concurrent full-rate connections a parameter server's NIC
        sustains (its NIC bandwidth divided by the per-connection rate).
        envG's F64s-v2 parameter servers have ~4x the NC6 workers' NIC;
        envC's 1 GbE cluster is symmetric (1).
    rpc_latency_s:
        Fixed per-transfer overhead: the request/response round trip of the
        gRPC transfer lifecycle (Fig. 6 stages A-B-C minus payload time).
    op_overhead_s:
        Fixed per-op launch overhead on compute resources (kernel launch /
        executor dispatch). Gives the many tiny AUX ops of real TF graphs a
        small but non-zero footprint.
    jitter_sigma:
        Lognormal sigma of per-run multiplicative noise applied by the
        simulator's ground truth (not by oracles).
    """

    name: str
    worker_flops: float
    ps_flops: float
    bandwidth_bps: float
    rpc_latency_s: float = 0.0
    op_overhead_s: float = 0.0
    jitter_sigma: float = 0.0
    ps_nic_slots: int = 1

    def nic_slots(self, device: str) -> int:
        """Concurrent full-rate connections of ``device``'s NIC.

        Device roles are read from the basename after any job-mix
        namespace prefix (``j0/ps:1`` is a PS). Shared multi-job hosts
        (``host:N``) are commodity machines: one full-rate connection.
        """
        return self.ps_nic_slots if _basename(device).startswith("ps") else 1

    # ------------------------------------------------------------------
    def compute_time(self, flops: float, device: str = "worker") -> float:
        """Seconds to execute ``flops`` on a worker or PS compute resource."""
        is_worker = _basename(device).startswith("worker")
        rate = self.worker_flops if is_worker else self.ps_flops
        return self.op_overhead_s + flops / rate

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` over one channel (dedicated NICs)."""
        return self.rpc_latency_s + nbytes / self.bandwidth_bps

    def op_time(self, op: Op) -> float:
        """Ground-truth (jitter-free) duration of ``op``.

        Compute-kind ops interpret ``op.cost`` as FLOPs; communication ops
        as bytes. AUX ops and send/recv *activations* (the zero-payload
        bookkeeping ops on PS compute resources) cost one dispatch overhead.
        """
        if op.attrs.get("activation_only"):
            return self.op_overhead_s
        if op.kind.is_communication:
            return self.transfer_time(op.cost)
        if op.kind is OpKind.AUX:
            return self.op_overhead_s
        device = op.device or "worker"
        return self.compute_time(op.cost, device)

    def oracle(self) -> TimeOracle:
        """A :class:`TimeOracle` view of the platform's jitter-free times —
        the 'perfect estimator' upper bound used by oracle-quality ablations."""
        return TimeOracle.wrap(self.op_time)

    def time_vector(self, graph: Graph) -> np.ndarray:
        """Jitter-free durations for all ops of ``graph``, indexed by id."""
        return np.array([self.op_time(op) for op in graph], dtype=float)

    def scaled(self, **changes) -> "Platform":
        """A copy with some fields replaced (sweep helper)."""
        return replace(self, **changes)


# ----------------------------------------------------------------------
# The two environments of §6.
#
# envG: an NC6 exposes one GK210 die of a K80 board (~2.8 TFLOP/s peak
# fp32), derated to ~30% effective on real convnets => 0.8e12. NC-series
# NICs sustain ~9 Gbit/s per connection => ~1.1e9 B/s; the F64s v2
# parameter servers' ~30 Gbit/s NICs serve ~3 such connections at full
# rate (ps_nic_slots=3). PS CPUs (64 cores AVX-512) ~1.5 TFLOP/s peak
# derated to 2e11 for the memory-bound aggregation ops.
#
# envC: 32-core commodity CPUs, ~1.6e11 effective FLOP/s on convnets;
# symmetric 1 GbE => 125e6 B/s, one full-rate connection per NIC. envC is
# therefore strongly communication-bound, which is why the paper's
# Fig. 13 gains (up to ~75%) exceed envG's.
# ----------------------------------------------------------------------

ENV_G = Platform(
    name="envG",
    worker_flops=0.8e12,
    ps_flops=2.0e11,
    bandwidth_bps=1.1e9,
    rpc_latency_s=250e-6,
    op_overhead_s=8e-6,
    jitter_sigma=0.04,
    ps_nic_slots=3,
)

ENV_C = Platform(
    name="envC",
    worker_flops=1.6e11,
    ps_flops=1.2e11,
    bandwidth_bps=125e6,
    rpc_latency_s=120e-6,
    op_overhead_s=4e-6,
    jitter_sigma=0.05,
)

# A diagnostic platform for wire-level validation: effectively free
# compute, no per-op/RPC overhead, no jitter — a simulation's makespan on
# ``wire`` is purely network time, so it can be compared against analytic
# bandwidth bounds (e.g. ring all-reduce's 2(W-1)/W * M/B; see
# tests/collectives and the allreduce driver's bound-check rows).
WIRE = Platform(
    name="wire",
    worker_flops=1e18,
    ps_flops=1e18,
    bandwidth_bps=1e9,
    rpc_latency_s=0.0,
    op_overhead_s=0.0,
    jitter_sigma=0.0,
    ps_nic_slots=1,
)

#: Platform presets by name.
PLATFORMS: Registry = Registry(
    "platform", UnknownNameError, {"envG": ENV_G, "envC": ENV_C, "wire": WIRE}
)
