"""Command-line entry point: regenerate any table/figure of the paper.

A thin shell over the :mod:`repro.api` scenario registry — scenarios are
data, execution is the one generic engine, and this module only parses
flags, loops, and persists CSVs.

Usage::

    tictac-repro list                                  # what can run
    python -m repro.experiments table1 fig7 fig12      # selected scenarios
    python -m repro.experiments all --full             # the whole paper
    tictac-repro fig13 --results-dir out/              # console script
    tictac-repro trace headline                        # Perfetto trace
    tictac-repro replay --n-jobs 200                   # trace replay

``trace`` captures one traced iteration of one scenario cell
(:func:`repro.obs.capture.capture_trace`) and writes it through an
exporter — Chrome trace-event JSON for https://ui.perfetto.dev by
default, tidy per-op CSV with ``--exporter csv``.

``replay`` streams a job trace (synthetic or Alibaba-style CSV) through
the dynamic-admission cluster scheduler (:mod:`repro.replay`) into a
chunked, crash-resumable CSV sink — an ad-hoc replay scenario, run by
the same engine as every registered one.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from ..api.context import make_context
from ..api.engine import execute_scenario
from ..api.registry import (
    UnknownScenarioError,
    iter_scenarios,
    scenario,
    scenario_names,
)
from ..backends.placement import DEFAULT_SLOTS_PER_HOST


#: exporter name -> one-line description for the listing.
_EXPORTER_NOTES = {
    "chrome": "Chrome trace-event JSON (load at https://ui.perfetto.dev)",
    "csv": "tidy per-op rows (ready/start/end/wait/depth/priority)",
}


def print_listing() -> None:
    """``tictac-repro list``: scenarios, then every named table."""
    from ..backends import backends, spec_fields
    from ..backends.placement import PLACEMENTS
    from ..obs.export import EXPORTERS
    from ..replay.admission import ADMISSIONS
    from ..replay.trace import GENERATORS
    from ..timing import PLATFORMS

    print("scenarios (presentation order):")
    for sc in iter_scenarios():
        kind = "cells" if sc.cells is not None else "custom"
        aux = f" +{len(sc.aux_outputs)} aux" if sc.aux_outputs else ""
        print(f"  {sc.name:<12} {sc.title}")
        print(f"  {'':<12} [{kind} -> {sc.output}.csv{aux}]")

    def description(_name, entry) -> str:
        return entry.description

    def spec_signature(_name, backend) -> str:
        fields = ", ".join(spec_fields(backend.spec_type))
        return f"{backend.spec_type.__name__}({fields})"

    # (heading, registry, (name, entry) -> one-line description)
    tables = (
        ("communication backends", backends(), spec_signature),
        ("placement policies (job mixes)", PLACEMENTS, description),
        ("trace exporters (tictac-repro trace <scenario> --exporter NAME)",
         EXPORTERS, lambda name, _writer: _EXPORTER_NOTES.get(name, "")),
        ("trace generators (tictac-repro replay --arrival NAME)", GENERATORS,
         description),
        ("admission policies (tictac-repro replay --admission NAME)",
         ADMISSIONS, description),
    )
    for heading, table, describe in tables:
        print(f"\n{heading}:")
        for name, entry in sorted(table.items()):
            print(f"  {name:<12} {describe(name, entry)}")
    print("\nplatforms: " + ", ".join(sorted(PLATFORMS)))


def trace_main(argv: Sequence[str]) -> int:
    """``tictac-repro trace <scenario>``: capture + export one traced
    iteration (no sweep pool, no cache — a few seconds at quick scale)."""
    parser = argparse.ArgumentParser(
        prog="tictac-repro trace",
        description="Trace one iteration of one scenario cell and export "
        "it (Perfetto JSON or per-op CSV).",
    )
    parser.add_argument("scenario", help="registered scenario name, e.g. "
                        "'headline' or 'jobmix_crosstalk'")
    parser.add_argument("--exporter", default="chrome",
                        help="output format: 'chrome' (Perfetto JSON, "
                        "default) or 'csv' (per-op rows)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: "
                        "<results-dir>/trace_<scenario>.<ext>)")
    parser.add_argument("--cell", type=int, default=0, metavar="N",
                        help="which resolved cell to trace (default: first)")
    parser.add_argument("--iteration", type=int, default=None, metavar="I",
                        help="iteration index (default: first measured)")
    parser.add_argument("--full", action="store_true",
                        help="resolve the scenario at full (paper) scale")
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(list(argv))

    from ..obs.capture import capture_trace
    from ..obs.export import EXPORTERS, UnknownExporterError, validate_chrome_trace

    try:
        exporter = EXPORTERS[args.exporter]
    except UnknownExporterError as exc:
        parser.error(str(exc))
    try:
        scenario(args.scenario)
    except UnknownScenarioError as exc:
        parser.error(str(exc))
    try:
        cap = capture_trace(
            args.scenario,
            scale="full" if args.full else "quick",
            seed=args.seed,
            cell_index=args.cell,
            iteration=args.iteration,
        )
    except ValueError as exc:  # no simulation cells, or --cell out of range
        parser.error(str(exc))
    ext = "json" if args.exporter == "chrome" else "csv"
    out = args.out or os.path.join(
        args.results_dir, f"trace_{args.scenario}.{ext}"
    )
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    exporter(cap.trace, out)
    if args.exporter == "chrome":
        validate_chrome_trace(out)
    if not args.quiet:
        cell, summary = cap.cell, cap.trace.summary()
        print(
            f"traced {args.scenario} cell {args.cell}: {cell.model} "
            f"{cell.algorithm} on {cell.platform} "
            f"(iteration {cap.iteration})"
        )
        print(
            f"  makespan {summary['makespan_s']:.4f}s, "
            f"{summary['n_ops']} ops, "
            f"{summary['n_chunk_events']} wire chunks, "
            f"overlap {summary['overlap_frac']:.2f}, "
            f"{summary['priority_inversions']} priority inversions"
        )
        print(f"  {args.exporter} -> {out}")
    return 0


def replay_main(argv: Sequence[str]) -> int:
    """``tictac-repro replay``: build a one-mode
    :class:`~repro.api.replay_scenarios.ReplayScenario` from the flags
    and run it through :func:`~repro.api.engine.execute_scenario`, like
    any registered replay study.

    The per-job rows land in ``--out`` as they finish (never held in
    memory); the incremental summary lands in ``--summary-out`` on exit.
    A killed run resumes from the sink's last committed chunk with
    ``--resume`` — the finished files are byte-identical to an
    uninterrupted run. A completed run deletes the sink's manifest, so
    it has nothing to resume.
    """
    parser = argparse.ArgumentParser(
        prog="tictac-repro replay",
        description="Replay a job trace (synthetic or Alibaba-style CSV) "
        "through the dynamic-admission cluster scheduler.",
    )
    parser.add_argument("--trace", default=None, metavar="CSV",
                        help="Alibaba-GPU-2020-style CSV trace "
                        "(job_name/start_time/end_time[/inst_num/status]); "
                        "default: a seeded synthetic trace")
    parser.add_argument("--n-jobs", type=int, default=100, metavar="N",
                        help="synthetic trace: number of jobs (default 100)")
    parser.add_argument("--horizon-s", type=float, default=3600.0, metavar="S",
                        help="synthetic trace: arrival horizon in seconds")
    parser.add_argument("--arrival", default="poisson",
                        help="synthetic arrival process (see 'tictac-repro "
                        "list': poisson/uniform/bursty)")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="replay only the first N trace jobs")
    parser.add_argument("--algorithm", default="mix",
                        help="scheduling mode: 'mix' (per-job algorithms), "
                        "'baseline', 'tic', 'tac', ... (default: mix)")
    parser.add_argument("--admission", default="fifo",
                        help="admission policy (fifo/backfill; see list)")
    parser.add_argument("--n-hosts", type=int, default=8)
    parser.add_argument("--slots-per-host", type=int,
                        default=DEFAULT_SLOTS_PER_HOST)
    parser.add_argument("--placement", default="packed",
                        help="placement policy for running jobs (packed/"
                        "spread/rack_aware; see list)")
    parser.add_argument("--platform", default="envC")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="per-job row stream (default: "
                        "<results-dir>/replay_jobs.csv)")
    parser.add_argument("--summary-out", default=None, metavar="PATH",
                        help="per-mode summary CSV (default: "
                        "<results-dir>/replay.csv)")
    parser.add_argument("--chunk-rows", type=int, default=256, metavar="N",
                        help="rows per committed sink chunk (default 256)")
    parser.add_argument("--resume", action="store_true",
                        help="resume a killed run from --out's manifest")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="worker processes for rate cells "
                        "(default: $REPRO_JOBS or 1)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(list(argv))

    from ..analysis import write_csv
    from ..api.replay_scenarios import ReplayScenario, _replay
    from ..api.scenario import Scenario
    from ..replay.engine import ReplayCluster, ReplayError
    from ..replay.loader import load_alibaba_csv
    from ..replay.sink import SinkError
    from ..replay.trace import SyntheticTraceSpec, generate_trace

    try:
        if args.trace is not None:
            trace = load_alibaba_csv(args.trace, limit=args.limit)
        else:
            trace = SyntheticTraceSpec(
                n_jobs=args.n_jobs,
                horizon_s=args.horizon_s,
                arrival=args.arrival,
            )
            if args.limit is not None:
                trace = generate_trace(trace, seed=args.seed)[: args.limit]
        study = ReplayScenario(
            trace=trace,
            cluster=ReplayCluster(
                n_hosts=args.n_hosts,
                slots_per_host=args.slots_per_host,
                placement=args.placement,
                platform=args.platform,
            ),
            modes=(args.algorithm,),
            admission=args.admission,
            chunk_rows=args.chunk_rows,
            resume=args.resume,
            jobs_csv=args.out,
        )
        ctx = make_context(
            full=False,  # replay rates are scale-independent (1-iteration cells)
            results_dir=args.results_dir,
            seed=args.seed,
            verbose=not args.quiet,
            jobs=args.jobs,
            **({"use_cache": False} if args.no_cache else {}),
        )
    except (KeyError, ValueError) as exc:  # bad trace, cluster, mode or cap
        parser.error(str(exc))
    summary_out = args.summary_out or os.path.join(
        args.results_dir, "replay.csv"
    )
    with ctx:
        try:
            rs = execute_scenario(ctx, Scenario(
                name="replay",
                title=f"Trace replay ({args.algorithm}, {args.admission})",
                output="replay",
                analyze=_replay,
                backends=("jobmix",),
                params=(("replay", study),),
            ))
        except (ReplayError, SinkError) as exc:
            parser.error(str(exc))
        write_csv(summary_out, rs.rows)
        ctx.log(f"  jobs    -> {rs.extras['jobs_csv']}")
        ctx.log(f"  summary -> {summary_out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "replay":
        return replay_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="tictac-repro",
        description="Regenerate the tables and figures of the TicTac paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="SCENARIO",
        help="which scenarios to run ('all' for every table/figure, "
        "'list' to enumerate scenarios/backends/exporters, "
        "'trace <scenario>' to capture a Perfetto trace, 'replay' to "
        "stream a job trace through the cluster scheduler): "
        + ", ".join(scenario_names()),
    )
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--full", action="store_true",
                       help="paper-scale protocol (slow); default is quick scale")
    scale.add_argument("--quick", action="store_true",
                       help="force quick scale (overrides $REPRO_SCALE)")
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="worker processes for the sweep runner "
                        "(default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk sweep result cache")
    parser.add_argument("--rerun", action="store_true",
                        help="recompute every cell, refreshing cache entries")
    parser.add_argument("--cache-max-mb", type=float, default=None, metavar="MB",
                        help="size cap for the sweep cache; least-recently-"
                        "used entries are evicted after the run "
                        "(default: $REPRO_CACHE_MAX_MB or unbounded)")
    parser.add_argument("--cache-gc", action="store_true",
                        help="run the cache eviction pass (with --cache-max-mb,"
                        " or $REPRO_CACHE_MAX_MB, or 0 to empty); may be used "
                        "without naming any experiment")
    args = parser.parse_args(argv)
    if "list" in args.experiments:
        if len(args.experiments) > 1:
            parser.error("'list' cannot be combined with scenario names")
        print_listing()
        return 0
    if not args.experiments and not args.cache_gc:
        parser.error("name at least one scenario (or use 'list'/--cache-gc)")
    # fail fast on every named scenario (even alongside 'all'), with
    # near-match suggestions
    for name in args.experiments:
        if name == "all":
            continue
        try:
            scenario(name)
        except UnknownScenarioError as exc:
            parser.error(str(exc))
    names = (
        list(scenario_names())
        if "all" in args.experiments
        else list(args.experiments)
    )

    full = True if args.full else (False if args.quick else None)
    try:
        ctx = make_context(
            full=full,
            results_dir=args.results_dir,
            seed=args.seed,
            verbose=not args.quiet,
            jobs=args.jobs,
            rerun=args.rerun,
            **({"use_cache": False} if args.no_cache else {}),
            **({"cache_max_mb": args.cache_max_mb}
               if args.cache_max_mb is not None else {}),
        )
    except ValueError as exc:  # a bad cap, before any scenario runs
        parser.error(str(exc))
    with ctx:  # close() applies the cache cap, then releases the pool
        for name in names:
            ctx.log(f"=== {name} (scale={ctx.scale.name}, jobs={ctx.jobs}) ===")
            result = execute_scenario(ctx, scenario(name))
            paths = result.save(ctx.results_dir)
            ctx.log(f"[{result.name}] csv -> {paths[result.name]}")
        if names and ctx.use_cache:
            ctx.log(f"sweep cache: {ctx.sweep.stats.as_dict()}")
        if args.cache_gc and ctx.cache_max_mb is None:
            ctx.cache_max_mb = 0.0  # explicit GC with no cap empties the cache
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
