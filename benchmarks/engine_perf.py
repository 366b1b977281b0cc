"""Engine micro-benchmark + CI regression gate.

Times the simulator's hot paths on fixed workloads and compares against the
committed baseline in ``BENCH_engine.json``. Two entry points::

    PYTHONPATH=src python benchmarks/engine_perf.py measure        # print JSON
    PYTHONPATH=src python benchmarks/engine_perf.py check          # CI gate

``check`` exits non-zero when any benchmarked workload runs more than
``--tolerance`` (default 25%) slower than the committed baseline — the
perf-trajectory guard ISSUE 3 wired into CI. Because CI runners are
heterogeneous, the comparison is normalized by a **calibration kernel**:
an engine-independent mix of heap/list/RNG work whose baseline cost is
committed alongside the workload numbers. A host that is uniformly 1.8x
slower scales every expectation by 1.8x, so only a *relative* engine
regression trips the gate. The samples are PAIRED: every timed workload
repeat comes right after one calibration repeat (and one untimed warm
call, since the kernel evicts the workload's caches), and each workload
is scaled by the minimum of its own calibration repeats, so host-speed
drift over the run hits a workload and its scale alike.

``check`` gates against the committed ``pr4.python`` stage entry;
``measure --update pr4`` rewrites that entry (plus calibration) in place.

Workloads (chosen to cover both engine regimes):

* ``iteration_unscheduled`` — one baseline iteration of Inception v3 on a
  4-worker/1-PS training cluster (the historic ``bench_engine_micro``
  workload): compute-queue and NIC round-robin dominated.
* ``iteration_scheduled`` — the same cluster under a layerwise schedule
  with sender enforcement: gate bookkeeping + priority paths.
* ``batch_10`` — ``run_iterations(0, 10)`` of the unscheduled sim: the
  amortized batch API end to end (per-second number is per iteration).
* ``jobmix_packed`` — ``run_iterations(0, 5)`` of a two-job AlexNet mix
  (the second job arriving mid-flight) packed onto shared hosts on envC,
  per-iteration seconds: the multi-job union path — deferred root
  releases, shared-NIC channel contention, per-job completion
  accounting. One iteration takes ~2 ms, too short to time alone
  against the gate's tolerance, so five are timed per call.

``measure`` also prints each workload's events per iteration and the
loop's cost per event in ns. Events are counted from one traced
iteration, not by the loop: every op completes once (a compute-done or
transfer-done event), plus one chunk-done event per recorded chunk and
one release event per deferred root.

``trace-overhead`` times every workload twice — ``SimConfig(trace=False)``
vs ``trace=True`` — and prints the per-workload overhead of turning event
recording on. Tracing *off* is free by construction (the flag only adds
side-array writes behind a branch, and the untraced workloads above are
what ``check`` gates), so this stage documents the opt-in cost instead of
gating it; ``--update pr7`` records it in ``BENCH_engine.json``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
import time

import numpy as np

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json")


def build_workloads(trace: bool = False):
    from repro.core import Schedule
    from repro.models import build_model
    from repro.ps import ClusterSpec, build_cluster_graph
    from repro.sim import (
        CompiledCore,
        JobMixSpec,
        JobSpec,
        SimConfig,
        SimVariant,
        build_jobmix_graph,
    )
    from repro.timing import ENV_G, PLATFORMS

    ir = build_model("Inception v3")
    cluster = build_cluster_graph(ir, ClusterSpec(4, 1, "training"))
    core = CompiledCore(cluster, ENV_G)
    layerwise = Schedule("layerwise", {p.name: i for i, p in enumerate(ir.params)})
    plain = SimVariant(core, None, SimConfig(trace=trace))
    sched = SimVariant(core, layerwise,
                       SimConfig(enforcement="sender", trace=trace))

    mix_spec = JobMixSpec(
        jobs=(
            JobSpec("AlexNet v2", n_workers=2, n_ps=1),
            JobSpec("AlexNet v2", n_workers=2, n_ps=1, arrival=6.0),
        ),
        placement="packed",
        n_hosts=6,
    )
    mix_core = CompiledCore(build_jobmix_graph(None, mix_spec),
                            PLATFORMS["envC"])
    mix = SimVariant(mix_core, None, SimConfig(trace=trace))

    # name -> (variant, iterations per timed call)
    return {
        "iteration_unscheduled": (plain, 1),
        "iteration_scheduled": (sched, 1),
        "batch_10": (plain, 10),
        "jobmix_packed": (mix, 5),
    }


def _timed_call(variant, per_call):
    return lambda: variant.run_iterations(0, per_call)


def events_per_iteration() -> dict:
    """Heap events of iteration 0 of each workload, counted from its
    trace: op completions, chunk-done events and deferred root releases."""
    events = {}
    for name, (variant, _per_call) in build_workloads(trace=True).items():
        core = variant.core
        trace = variant.run_iteration(0).trace
        events[name] = int(
            core.n + len(trace.chunk_op) + (core.root_times > 0).sum()
        )
    return events


def _calibration_kernel() -> float:
    """Engine-independent host-speed probe: the same interpreter/numpy
    operation mix the event loop leans on (heap tuples, list queues,
    scalar Generator draws). Returns a checksum so the work is not
    optimized away."""
    rng = np.random.default_rng(12345)
    rng_integers = rng.integers
    heap: list = []
    seq = 0
    acc = 0.0
    queue: list[int] = []
    for i in range(150_000):
        heapq.heappush(heap, (float(i % 997) * 1e-3, seq, i & 3, i))
        seq += 1
        if i & 1:
            t, _s, _c, _op = heapq.heappop(heap)
            acc += t
        queue.append(i)
        if len(queue) > 64:
            queue.pop(0)
    for _ in range(15_000):
        acc += float(rng_integers(7))
    return acc


def measure(repeats: int = 5, trace: bool = False) -> tuple[dict, dict]:
    """(seconds-per-iteration per workload, calibration seconds per
    workload): each timed workload repeat follows one calibration
    repeat, and both sides keep their minimum."""
    workloads = build_workloads(trace)
    results, calibration = {}, {}
    _calibration_kernel()
    for name, (variant, per_call) in workloads.items():
        fn = _timed_call(variant, per_call)
        best = best_cal = float("inf")
        for _ in range(repeats):
            best_cal = min(best_cal, _time_once(_calibration_kernel))
            fn()  # re-warm caches (allocator, first-touch numpy paths)
            best = min(best, _time_once(fn))
        results[name] = best / per_call
        calibration[name] = best_cal
    return results, calibration


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def load_baseline() -> dict:
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command",
                        choices=["measure", "check", "trace-overhead"])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown vs baseline (check)")
    parser.add_argument("--update", choices=["pr4", "pr7"],
                        help="write measurements into BENCH_engine.json "
                        "(pr7 records the trace-overhead stage)")
    args = parser.parse_args(argv)
    if args.command == "trace-overhead":
        return trace_overhead(args)

    results, calibration = measure(args.repeats)
    doc = {**{k: round(v, 6) for k, v in results.items()},
           "calibration": {k: round(v, 6) for k, v in calibration.items()}}
    if args.command == "measure":
        events = events_per_iteration()
        doc["events_per_iteration"] = events
        doc["ns_per_event"] = {
            k: round(results[k] / events[k] * 1e9, 1) for k in results
        }
    print(json.dumps(doc, indent=1))

    if args.update == "pr4":
        bench = load_baseline()
        bench.setdefault("pr4", {})["python"] = {
            "workloads": {k: round(v, 6) for k, v in results.items()},
            "calibration": round(min(calibration.values()), 6),
        }
        with open(BASELINE_PATH, "w") as fh:
            json.dump(bench, fh, indent=1)
            fh.write("\n")
        print(f"updated 'pr4' in {BASELINE_PATH}")

    if args.command == "check":
        entry = load_baseline()["pr4"]["python"]
        baseline, base_cal = entry["workloads"], entry["calibration"]
        print(f"baseline: pr4[python] (calibration {base_cal*1e3:.0f} ms); "
              "each workload scaled by its paired calibration")
        failures = []
        for name, sec in results.items():
            ref = baseline.get(name)
            if ref is None:
                continue
            scale = calibration[name] / base_cal
            slowdown = sec / (ref * scale) - 1.0
            bad = slowdown > args.tolerance
            status = "FAIL" if bad else "ok"
            print(f"  {name}: {sec*1e3:.1f} ms vs scaled baseline "
                  f"{ref*scale*1e3:.1f} ms (host {scale:.2f}x, "
                  f"{slowdown:+.0%}) {status}")
            if bad:
                failures.append(name)
        if failures:
            print(f"REGRESSION: {', '.join(failures)} exceeded "
                  f"{args.tolerance:.0%} over the committed baseline",
                  file=sys.stderr)
            return 1
        print("engine perf within tolerance")
    return 0


def trace_overhead(args) -> int:
    """Time each workload untraced then traced and report the opt-in
    cost of event recording. Informational (the ``check`` gate times the
    untraced path, which the trace flag leaves untouched); ``--update
    pr7`` records the stage in ``BENCH_engine.json``.

    Samples are PAIRED: each repeat times the untraced and traced
    variant back to back, so slow host-frequency drift hits both sides
    of the ratio equally instead of skewing whichever loop ran last."""
    untraced_w = build_workloads(trace=False)
    traced_w = build_workloads(trace=True)
    untraced, traced = {}, {}
    for name, (variant, per_call) in untraced_w.items():
        fn_u = _timed_call(variant, per_call)
        fn_t = _timed_call(traced_w[name][0], per_call)
        fn_u()  # warm both variants before the paired repeats
        fn_t()
        best_u = best_t = float("inf")
        for _ in range(args.repeats):
            best_u = min(best_u, _time_once(fn_u))
            best_t = min(best_t, _time_once(fn_t))
        untraced[name] = best_u / per_call
        traced[name] = best_t / per_call
    _calibration_kernel()
    calibration = min(
        _time_once(_calibration_kernel) for _ in range(args.repeats)
    )
    overhead = {
        name: round(traced[name] / untraced[name] - 1.0, 4)
        for name in untraced
    }
    for name in untraced:
        print(f"  {name}: {untraced[name]*1e3:.1f} ms untraced, "
              f"{traced[name]*1e3:.1f} ms traced ({overhead[name]:+.1%})")
    if args.update == "pr7":
        bench = load_baseline()
        bench.setdefault("pr7_trace", {})["python"] = {
            "untraced": {k: round(v, 6) for k, v in untraced.items()},
            "traced": {k: round(v, 6) for k, v in traced.items()},
            "overhead_frac": overhead,
            "calibration": round(calibration, 6),
        }
        with open(BASELINE_PATH, "w") as fh:
            json.dump(bench, fh, indent=1)
            fh.write("\n")
        print(f"updated 'pr7_trace' in {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
