#!/usr/bin/env python
"""Visualize *why* scheduling wins: per-resource execution timelines.

Renders ASCII Gantt charts of one simulated iteration of Inception v3
serving under the random baseline and under TIC — the real-model version
of the paper's Figure 1b/1c — and exports each traced iteration as a
Chrome trace-event JSON file (open in https://ui.perfetto.dev or
chrome://tracing) for interactive inspection.

Run:  python examples/timeline_visualization.py [OUT_DIR]   (default: results)
"""

import os
import sys

from repro.analysis import ascii_gantt
from repro.core import Schedule
from repro.core.wizard import compute_schedule
from repro.models import build_model
from repro.obs import Trace, chrome_trace
from repro.ps import ClusterSpec, build_cluster_graph, build_reference_partition
from repro.sim import CompiledCore, SimConfig, SimVariant
from repro.timing import ENV_G

MODEL = "Inception v3"


def main(out_dir: str = "results") -> None:
    ir = build_model(MODEL)
    spec = ClusterSpec(n_workers=2, n_ps=1, workload="inference")
    cluster = build_cluster_graph(ir, spec)
    reference = build_reference_partition(ir, workload="inference", n_ps=1)
    tic = compute_schedule(reference, "tic")

    # deterministic timings so the two charts differ only by ordering;
    # tracing records the per-op event streams the exporter needs and
    # never changes the simulated times
    config = SimConfig(iterations=1, jitter_sigma=0.0, seed=2, trace=True)
    os.makedirs(out_dir, exist_ok=True)
    focus = ["nic_out:ps:0", "compute:worker:0", "compute:worker:1"]

    for label, schedule in (("baseline", Schedule("baseline")), ("tic", tic)):
        sim = SimVariant(CompiledCore(cluster, ENV_G), schedule, config)
        record = sim.run_iteration(0)
        print(f"\n=== {MODEL}, {label}: one inference iteration "
              f"({record.makespan*1e3:.1f} ms) ===")
        print(ascii_gantt(sim, record, width=78, resources=focus))
        path = os.path.join(out_dir, f"trace_{label}.json")
        chrome_trace(Trace.from_record(sim, record), path)
        print(f"chrome trace -> {path}")

    print(
        "\nReading the charts: under the baseline the workers' compute rows\n"
        "show gaps — branches blocked on late parameters — while the PS\n"
        "egress NIC idles in between. Under TIC the first-needed tensors\n"
        "arrive first, the compute rows close up, and the iteration ends\n"
        "roughly when the busier of the two resources does (E -> 1)."
    )


if __name__ == "__main__":
    main(*sys.argv[1:])
