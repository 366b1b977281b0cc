#!/usr/bin/env python
"""Quickstart: from the paper's toy example to the public API.

Part 1 rebuilds Figure 1a — a two-transfer DAG where one transfer order
overlaps communication with computation and the other blocks — and shows
TIC/TAC picking the good order.

Part 2 uses the stable :mod:`repro.api` facade: a ``Context`` owning the
runner/cache lifecycle at a custom scale, handed to ``execute_scenario``,
runs a registered scenario and returns a typed ``ResultSet`` (rows +
schema + provenance) — values, not side effects.

Part 3 shows parameter overrides and the scenario registry.

Run:  python examples/quickstart.py
"""

from repro.api import Context, Scale, execute_scenario, scenario_names
from repro.core import scheduling_efficiency, tac, tic
from repro.graph import Graph, OpKind, PartitionedGraph, Resource
from repro.timing import MappingTimeOracle


def figure_1a() -> None:
    """The paper's Figure 1a: recv1 feeds op1; op2 needs recv1 AND recv2."""
    g = Graph("figure-1a")
    worker, ps = "worker:0", "ps:0"
    link = Resource.link(ps, worker)
    compute = Resource.compute(worker)
    g.add_op("recv1", OpKind.RECV, (), cost=1.0, param="p1",
             resource=link, device=worker)
    g.add_op("recv2", OpKind.RECV, (), cost=1.0, param="p2",
             resource=link, device=worker)
    g.add_op("op1", OpKind.COMPUTE, ["recv1"], cost=1.0,
             resource=compute, device=worker)
    g.add_op("op2", OpKind.COMPUTE, ["op1", "recv2"], cost=1.0,
             resource=compute, device=worker)

    # A time oracle that says every op takes 1 second.
    oracle = MappingTimeOracle({op.name: 1.0 for op in g})

    schedule = tac(g, oracle)
    print("Figure 1a: TAC transfer order:", schedule.order())
    assert schedule.order() == ["p1", "p2"], "recv1 must precede recv2"

    schedule = tic(g)
    print("Figure 1a: TIC priorities:   ", dict(schedule.priorities))

    # Good order: recv1 first -> op1 overlaps recv2 -> makespan 3.
    # Bad order: recv2 first -> everything serializes  -> makespan 4.
    partition = PartitionedGraph(g)
    times = [1.0, 1.0, 1.0, 1.0]
    for label, makespan in (("good (recv1 first)", 3.0), ("bad (recv2 first)", 4.0)):
        report = scheduling_efficiency(partition, times, makespan)
        print(f"  {label}: makespan {makespan:.0f}s -> efficiency E = "
              f"{report.efficiency:.2f} (band U={report.upper:.0f}, L={report.lower:.0f})")


#: A tiny scale so the demo finishes in seconds (the built-in "quick"
#: and "full" scales cover CI and the paper protocol).
DEMO_SCALE = Scale(
    name="demo",
    models=("ResNet-50 v1",),
    worker_counts=(4,),
    ps_counts=(1,),
    iterations=5,
    warmup=1,
    consistency_runs=8,
    loss_iterations=20,
)


def run_a_scenario() -> None:
    """The public API: Context -> Scenario -> ResultSet."""
    with Context(scale=DEMO_SCALE, use_cache=False, verbose=False) as ctx:
        rs = execute_scenario(ctx, "fig7")  # Fig. 7's grid at our demo scale
        print(f"\nfig7 at scale 'demo': {len(rs)} rows, schema {rs.schema}")
        print(rs.to_table())
        prov = rs.provenance
        print(f"provenance: engine rev {prov.engine_rev}, "
              f"cache {dict(prov.cache)}, {prov.elapsed_s:.1f}s")
        # Results are values; persisting them is an explicit step:
        #   rs.save(ctx.results_dir)
        row = rs.rows[0]
        assert row["model"] == "ResNet-50 v1" and row["workers"] == 4


def override_parameters() -> None:
    """Scenarios declare parameters callers may rebind per run."""
    with Context(scale=DEMO_SCALE, use_cache=False, verbose=False) as ctx:
        rs = execute_scenario(ctx, "stragglers", model="ResNet-50 v1",
                              n_workers=2)
        tic_rows = [r for r in rs.rows if r["algorithm"] == "tic"]
        print(f"\nstragglers with n_workers=2: {len(rs)} rows "
              f"({len(tic_rows)} under TIC)")
    print(f"registered scenarios: {', '.join(scenario_names())}")


if __name__ == "__main__":
    figure_1a()
    run_a_scenario()
    override_parameters()
