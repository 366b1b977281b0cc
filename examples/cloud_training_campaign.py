#!/usr/bin/env python
"""Plan a cloud training campaign with the full TicTac pipeline.

Walks the paper's §5 system end to end for one model on the cloud-GPU
platform:

1. build the model and its reference worker partition;
2. trace 5 instrumented executions and estimate the time oracle
   (min-of-5, §5);
3. run the ordering wizard (TIC and TAC) and inspect the schedules;
4. simulate the candidate cluster shapes a practitioner would price out
   (scaling workers with PS:W = 1:4) and report throughput, straggler
   effect and the Eq. 4 headroom metric.

Run:  python examples/cloud_training_campaign.py [model]
"""

import sys

from repro.core import compute_schedule, theoretical_speedup
from repro.models import build_model
from repro.ps import ClusterSpec, build_reference_partition
from repro.sim import SimConfig, simulate_cluster
from repro.timing import ENV_G, estimate_time_oracle

MODEL = sys.argv[1] if len(sys.argv) > 1 else "Inception v3"


def main() -> None:
    ir = build_model(MODEL)
    print(f"Campaign model: {MODEL} ({ir.n_param_tensors} parameter tensors, "
          f"{ir.total_param_mib:.1f} MiB, batch {ir.batch_size})")

    # --- offline wizard pass (§5) -------------------------------------
    reference = build_reference_partition(ir, workload="training", n_ps=1)
    oracle = estimate_time_oracle(reference.graph, ENV_G, seed=0)
    tic = compute_schedule(reference, "tic")
    tac = compute_schedule(reference, "tac", oracle=oracle)
    print(f"wizard: TIC {tic.meta['wizard_seconds']*1e3:.0f} ms, "
          f"TAC {tac.meta['wizard_seconds']*1e3:.0f} ms "
          f"(offline, once per model — §6 quotes ~10 s)")
    agree = sum(
        1 for a, b in zip(tic.order(), tac.order()) if a == b
    ) / max(len(tac.order()), 1)
    print(f"TIC/TAC agreement on transfer order: {agree:.0%}")
    headroom = theoretical_speedup(reference.partition, ENV_G.time_vector(reference.graph))
    print(f"Eq. 4 scheduling headroom S = {headroom:.2f} "
          "(max theoretical best-vs-worst gain on one worker)\n")

    # --- price out cluster shapes ---------------------------------------
    config = SimConfig(iterations=5, warmup=1, seed=1)
    print(f"{'shape':>10} {'policy':>9} {'ms/iter':>9} {'samples/s':>10} "
          f"{'straggler %':>11} {'gain':>7}")
    for workers in (4, 8, 16):
        spec = ClusterSpec(n_workers=workers, n_ps=max(1, workers // 4),
                           workload="training")
        base = simulate_cluster(ir, spec, algorithm="baseline", config=config)
        sched = simulate_cluster(ir, spec, schedule=tac, config=config)
        gain = (sched.throughput - base.throughput) / base.throughput * 100
        for label, r in (("baseline", base), ("tac", sched)):
            print(f"w{workers:>3}xps{spec.n_ps:<2} {label:>9} "
                  f"{r.mean_iteration_time*1e3:>9.1f} {r.throughput:>10.1f} "
                  f"{r.max_straggler_pct:>11.1f} "
                  f"{'' if label == 'baseline' else f'{gain:+.1f}%':>7}")
    print("\nFor a job that runs for days, the scheduled configuration buys "
          "the same epochs on fewer GPU-hours (§7).")


if __name__ == "__main__":
    main()
