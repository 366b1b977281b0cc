"""Engine micro-benchmark + CI regression gate.

Times the simulator's hot paths on fixed workloads and compares against the
committed baseline in ``BENCH_engine.json``. Two entry points::

    PYTHONPATH=src python benchmarks/engine_perf.py measure        # print JSON
    PYTHONPATH=src python benchmarks/engine_perf.py check          # CI gate

``check`` exits non-zero when any benchmarked workload runs more than
``--tolerance`` (default 25%) slower than the committed baseline — the
perf-trajectory guard ISSUE 3 wired into CI. Because CI runners are
heterogeneous, the comparison is normalized by a **calibration kernel**:
an engine-independent mix of heap/list/RNG work timed in the same run,
whose baseline cost is committed alongside the workload numbers. A host
that is uniformly 1.8x slower scales every expectation by 1.8x, so only a
*relative* engine regression trips the gate.

``--kernel {auto,python,numba,portable}`` selects the event-loop kernel
(ISSUE 4's seam) so both maintained paths stay measured. ``check`` gates
against the committed ``pr4`` stage entry for the *resolved* kernel
(falling back to the pr3 ``after`` block when a stage entry is absent);
requesting ``--kernel numba`` on a host without numba fails loudly
instead of silently timing the python fallback, and a numba build whose
JIT quietly broke shows up as a >25% regression against its own
committed numbers. ``measure --update pr4`` rewrites the resolved
kernel's ``pr4`` entry (plus calibration) in place; ``--update
before|after`` keep maintaining the historic pr2/pr3 blocks.

Workloads (chosen to cover both engine regimes):

* ``iteration_unscheduled`` — one baseline iteration of Inception v3 on a
  4-worker/1-PS training cluster (the historic ``bench_engine_micro``
  workload): compute-queue and NIC round-robin dominated.
* ``iteration_scheduled`` — the same cluster under a layerwise schedule
  with sender enforcement: gate bookkeeping + priority paths.
* ``batch_10`` — ``run_iterations(0, 10)`` of the unscheduled sim: the
  amortized batch API end to end (per-second number is per iteration).
* ``jobmix_packed`` — one iteration of a two-job AlexNet mix (the second
  job arriving mid-flight) packed onto shared hosts on envC: the
  multi-job union path — deferred root releases, shared-NIC channel
  contention, per-job completion accounting.

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


def build_workloads(kernel: str = "auto", trace: bool = False):
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
    from repro.timing import ENV_G, get_platform

    ir = build_model("Inception v3")
    cluster = build_cluster_graph(ir, ClusterSpec(4, 1, "training"))
    core = CompiledCore(cluster, ENV_G)
    layerwise = Schedule("layerwise", {p.name: i for i, p in enumerate(ir.params)})
    plain = SimVariant(core, None, SimConfig(kernel=kernel, trace=trace))
    sched = SimVariant(core, layerwise,
                       SimConfig(enforcement="sender", kernel=kernel,
                                 trace=trace))

    mix_spec = JobMixSpec(
        jobs=(
            JobSpec("AlexNet v2", n_workers=2, n_ps=1),
            JobSpec("AlexNet v2", n_workers=2, n_ps=1, arrival=6.0),
        ),
        placement="packed",
        n_hosts=6,
    )
    mix_core = CompiledCore(build_jobmix_graph(None, mix_spec),
                            get_platform("envC"))
    mix = SimVariant(mix_core, None, SimConfig(kernel=kernel, trace=trace))

    return {
        "iteration_unscheduled": (lambda: plain.run_iteration(0), 1),
        "iteration_scheduled": (lambda: sched.run_iteration(0), 1),
        "batch_10": (lambda: plain.run_iterations(0, 10), 10),
        "jobmix_packed": (lambda: mix.run_iteration(0), 1),
    }, plain.kernel


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


def measure(repeats: int = 5, kernel: str = "auto",
            trace: bool = False) -> tuple[dict, float, str]:
    """(seconds-per-iteration per workload, calibration seconds, resolved
    kernel name)."""
    workloads, resolved = build_workloads(kernel, trace)
    results = {}
    for name, (fn, per_call) in workloads.items():
        fn()  # warm caches (allocator, first-touch numpy paths, JIT)
        best = min(_time_once(fn) for _ in range(repeats))
        results[name] = best / per_call
    _calibration_kernel()
    calibration = min(_time_once(_calibration_kernel) for _ in range(repeats))
    return results, calibration, resolved


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def load_baseline() -> dict:
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def _stage_key(resolved: str) -> str:
    """pr4 stage entries are keyed python/numba; 'portable' measures the
    numba algorithm uncompiled and is never a gate baseline."""
    return "numba" if resolved == "numba" else "python"


def _gate_baseline(bench: dict, resolved: str) -> tuple[dict, float, str]:
    """(workload baseline, its calibration, label) for the resolved
    kernel: the pr4 stage entry when committed, else the pr3 'after'."""
    entry = (bench.get("pr4") or {}).get(_stage_key(resolved))
    if entry and entry.get("workloads"):
        return (entry["workloads"], entry.get("calibration"),
                f"pr4[{_stage_key(resolved)}]")
    return bench["after"], bench.get("after_calibration"), "after (pr3)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command",
                        choices=["measure", "check", "trace-overhead"])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown vs baseline (check)")
    parser.add_argument("--kernel", default="auto",
                        choices=["auto", "python", "numba", "portable"],
                        help="event-loop kernel to measure (ISSUE 4 seam); "
                        "explicit 'numba' fails loudly when numba is missing")
    parser.add_argument("--update",
                        choices=["before", "after", "pr4", "pr7"],
                        help="write measurements into BENCH_engine.json "
                        "(pr7 records the trace-overhead stage)")
    parser.add_argument("--min-numba-speedup", type=float, default=1.5,
                        help="when checking --kernel numba WITHOUT a committed "
                        "pr4[numba] stage entry, require at least this "
                        "speedup over the python baseline — a JIT that "
                        "compiles-but-interprets runs at python speed and "
                        "must fail, not slip through the fallback gate")
    args = parser.parse_args(argv)
    if args.command == "trace-overhead":
        return trace_overhead(args)
    if args.command == "check" and args.kernel == "portable":
        parser.error(
            "--kernel portable is a debug path (the array kernel, "
            "uncompiled on numba-less hosts) and has no gate baseline; "
            "check with --kernel auto|python|numba"
        )

    results, calibration, resolved = measure(args.repeats, args.kernel)
    print(json.dumps(
        {**{k: round(v, 6) for k, v in results.items()},
         "calibration": round(calibration, 6),
         "kernel": resolved},
        indent=1,
    ))

    if args.update:
        bench = load_baseline()
        if args.update == "pr4":
            stage = bench.setdefault("pr4", {})
            stage[_stage_key(resolved)] = {
                "kernel": resolved,
                "workloads": {k: round(v, 6) for k, v in results.items()},
                "calibration": round(calibration, 6),
            }
        else:
            bench[args.update] = {k: round(v, 6) for k, v in results.items()}
            bench[f"{args.update}_calibration"] = round(calibration, 6)
        _rederive(bench)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(bench, fh, indent=1)
            fh.write("\n")
        print(f"updated {args.update!r} in {BASELINE_PATH}")

    if args.command == "check":
        bench = load_baseline()
        baseline, base_cal, label = _gate_baseline(bench, resolved)
        scale = calibration / base_cal if base_cal else 1.0
        print(f"kernel: {resolved}; baseline: {label}")
        print(f"host speed vs baseline host: {scale:.2f}x "
              f"(calibration {calibration*1e3:.0f} ms vs {base_cal*1e3:.0f} ms)"
              if base_cal else "no calibration baseline; absolute comparison")
        # With no committed numba stage entry the fallback baseline is the
        # python loop, which a silently-interpreted JIT matches instead of
        # beating — so in that configuration the gate flips to a minimum-
        # speedup requirement rather than a maximum-slowdown one.
        min_speedup = (
            args.min_numba_speedup
            if resolved == "numba" and label.endswith("(pr3)")
            else None
        )
        if min_speedup:
            print(f"no committed pr4[numba] stage: requiring >={min_speedup}x "
                  "over the python baseline (record one with "
                  "'measure --update pr4 --kernel numba')")
        failures = []
        for name, sec in results.items():
            ref = baseline.get(name)
            if ref is None:
                continue
            if min_speedup:
                speedup = (ref * scale) / sec
                bad = speedup < min_speedup
                status = "FAIL" if bad else "ok"
                print(f"  {name}: {sec*1e3:.1f} ms vs scaled python baseline "
                      f"{ref*scale*1e3:.1f} ms ({speedup:.2f}x) {status}")
            else:
                slowdown = sec / (ref * scale) - 1.0
                bad = slowdown > args.tolerance
                status = "FAIL" if bad else "ok"
                print(f"  {name}: {sec*1e3:.1f} ms vs scaled baseline "
                      f"{ref*scale*1e3:.1f} ms ({slowdown:+.0%}) {status}")
            if bad:
                failures.append(name)
        if failures:
            if min_speedup:
                print(f"REGRESSION: {', '.join(failures)} below the "
                      f"{min_speedup}x numba-vs-python floor (broken or "
                      "non-compiling JIT?)", file=sys.stderr)
            else:
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
    untraced_w, resolved = build_workloads(args.kernel, trace=False)
    traced_w, _ = build_workloads(args.kernel, trace=True)
    untraced, traced = {}, {}
    for name, (fn_u, per_call) in untraced_w.items():
        fn_t, _ = traced_w[name]
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
    print(f"kernel: {resolved}")
    for name in untraced:
        print(f"  {name}: {untraced[name]*1e3:.1f} ms untraced, "
              f"{traced[name]*1e3:.1f} ms traced ({overhead[name]:+.1%})")
    if args.update == "pr7":
        bench = load_baseline()
        bench.setdefault("pr7_trace", {})[_stage_key(resolved)] = {
            "kernel": resolved,
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


def _rederive(bench: dict) -> None:
    """Recompute the derived speedup blocks from whichever stages exist."""
    before, after = bench.get("before"), bench.get("after")
    if before and after:
        bench["speedup"] = {
            k: round(before[k] / after[k], 2)
            for k in after
            if k in before and after[k]
        }
    entry = (bench.get("pr4") or {}).get("numba") or {}
    pr4 = entry.get("workloads")
    # The two stages may be recorded on different hosts; normalize each
    # side by its own calibration-kernel time before forming the ratio
    # (the same host-speed scaling the check gate applies).
    after_cal = bench.get("after_calibration")
    pr4_cal = entry.get("calibration")
    if after and pr4 and after_cal and pr4_cal:
        bench["speedup_pr3_to_pr4_numba"] = {
            k: round((after[k] / after_cal) / (pr4[k] / pr4_cal), 2)
            for k in pr4
            if k in after and pr4[k]
        }


if __name__ == "__main__":
    sys.exit(main())
