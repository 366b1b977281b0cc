"""Micro-benchmarks of the library itself (not a paper figure): the
offline wizard cost the paper quotes (~10 s per model) and the simulator's
event throughput. These guard against performance regressions that would
make the paper-scale protocol impractical."""

import numpy as np

from repro.core import PropertyEngine, Schedule, tac, tic
from repro.models import build_model
from repro.ps import ClusterSpec, build_cluster_graph, build_reference_partition
from repro.sim import CompiledCore, SimConfig, SimVariant
from repro.timing import ENV_G, estimate_time_oracle


def test_bench_tic_wizard_largest_model(benchmark):
    ref = build_reference_partition(build_model("ResNet-101 v2"),
                                    workload="training", n_ps=1)
    schedule = benchmark(tic, ref.graph)
    assert len(schedule.priorities) == 244


def test_bench_tac_wizard_largest_model(benchmark):
    ref = build_reference_partition(build_model("ResNet-101 v2"),
                                    workload="training", n_ps=1)
    oracle = estimate_time_oracle(ref.graph, ENV_G, seed=0)
    schedule = benchmark.pedantic(tac, args=(ref.graph, oracle),
                                  rounds=3, iterations=1)
    assert len(schedule.priorities) == 244
    # the paper quotes ~10 s offline; stay well under
    assert schedule.meta["wizard_seconds"] < 10.0


def test_bench_property_engine_update(benchmark):
    ref = build_reference_partition(build_model("ResNet-101 v1"),
                                    workload="training", n_ps=1)
    engine = PropertyEngine(ref.graph, estimate_time_oracle(ref.graph, ENV_G))
    mask = np.ones(engine.n_recv, dtype=bool)
    mask[::3] = False
    snap = benchmark(engine.update, mask)
    assert snap.P.shape == (engine.n_recv,)


def test_bench_simulated_iteration(benchmark):
    cluster = build_cluster_graph(
        build_model("Inception v3"), ClusterSpec(4, 1, "training")
    )
    sim = SimVariant(CompiledCore(cluster, ENV_G), None, SimConfig())
    record = benchmark(sim.run_iteration, 0)
    assert record.makespan > 0


def test_bench_scheduled_iteration(benchmark):
    """The sender-enforcement path: §5.1 counters + eligible-set upkeep."""
    ir = build_model("Inception v3")
    cluster = build_cluster_graph(ir, ClusterSpec(4, 1, "training"))
    schedule = Schedule("layerwise", {p.name: i for i, p in enumerate(ir.params)})
    sim = SimVariant(CompiledCore(cluster, ENV_G), schedule, SimConfig(enforcement="sender"))
    record = benchmark(sim.run_iteration, 0)
    assert record.makespan > 0


def test_bench_run_iterations_batch(benchmark):
    """The batch API end to end (10 iterations per round)."""
    cluster = build_cluster_graph(
        build_model("Inception v3"), ClusterSpec(4, 1, "training")
    )
    sim = SimVariant(CompiledCore(cluster, ENV_G), None, SimConfig())
    records = benchmark(sim.run_iterations, 0, 10)
    assert len(records) == 10


def test_bench_core_compilation(benchmark):
    """CompiledCore lowering — paid once per (cluster, platform) group."""
    cluster = build_cluster_graph(
        build_model("Inception v3"), ClusterSpec(4, 1, "training")
    )
    core = benchmark(CompiledCore, cluster, ENV_G)
    assert core.n == len(cluster.graph)


def test_bench_variant_binding(benchmark):
    """SimVariant binding — paid per (schedule, config) cell; must be far
    cheaper than core compilation for compile-once sharing to pay off."""
    ir = build_model("Inception v3")
    cluster = build_cluster_graph(ir, ClusterSpec(4, 1, "training"))
    core = CompiledCore(cluster, ENV_G)
    schedule = Schedule("layerwise", {p.name: i for i, p in enumerate(ir.params)})
    variant = benchmark(SimVariant, core, schedule, SimConfig())
    assert variant.n_channels > 0


def test_bench_cluster_graph_assembly(benchmark):
    ir = build_model("ResNet-50 v1")
    cluster = benchmark(build_cluster_graph, ir, ClusterSpec(8, 2, "training"))
    assert len(cluster.graph) > 10_000
