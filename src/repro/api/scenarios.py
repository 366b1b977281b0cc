"""The built-in scenarios: every table and figure of the paper.

Each study is a :class:`~repro.api.scenario.Scenario` holding its
analysis function, which builds its cells/tasks, runs them on the
context's shared sweep runner and tabulates the results. The grid-shaped
studies (Fig. 7/9/10/11/13, the headline scan) also hold a cell
function — ``fig7_cells``, ``fig9_cells``, ... — that expands their
slice of the evaluation grid through a
:class:`~repro.sweep.spec.GridSpec`; their analysis sweeps exactly those
cells, and ``tictac-repro trace`` picks from them. Irregular studies
(Fig. 12's consistency statistics, the ablation matrix, the all-reduce
analytic-bound check, ...) build their cells inside the analysis. The
cells, row assembly and rounding are fixed, so every ``results/*.csv``
regenerates byte-for-byte.

Module-level task functions (``model_characteristics``,
``training_run``, ...) are sweep :class:`~repro.sweep.spec.FnTask`
targets, so worker processes must be able to import them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..analysis import (
    empirical_cdf,
    format_table,
    linear_regression,
    normalized_step_time,
    percentile,
    scatter_sketch,
)
from ..backends import make_spec
from ..core.comparator import precedes_as_printed
from ..core.tac import tac
from ..models import ENVC_MODEL_NAMES, PAPER_TABLE_1, build_model, op_counts
from ..models import emit_graph
from ..models.emit import WORKER_INFERENCE, WORKER_TRAINING
from ..ps import ClusterSpec, build_reference_partition, shard_parameters
from ..sim import SimConfig, simulate_cell_group, simulate_pipelined
from ..sim.runner import bind_variant, compile_group
from ..sweep import FnTask, GridSpec, SimCell
from ..sweep.spec import ps_for_workers
from ..timing import ENV_G, PLATFORMS, PerturbedOracle, estimate_time_oracle
from ..training import (
    baseline_ordering,
    enforced_ordering,
    make_dataset,
    train_data_parallel,
)
from .engine import ScenarioRun
from .registry import register_scenario
from .resultset import Report
from .scenario import Scenario


# ======================================================================
# Table 1 — DNN model characteristics, ours vs. the paper
# ======================================================================

def model_characteristics(name: str) -> dict:
    """Build one model and report Table 1's structural quantities
    (a cacheable/parallelizable sweep task — model IR construction is the
    expensive part of this scenario)."""
    ir = build_model(name)
    inf, tr = op_counts(ir)
    return {
        "params": ir.n_param_tensors,
        "size_mib": ir.total_param_mib,
        "ops_inf": inf,
        "ops_train": tr,
        "batch": ir.batch_size,
    }


def _table1(run: ScenarioRun) -> Report:
    names = list(PAPER_TABLE_1)
    tasks = [FnTask.make(model_characteristics, name=name) for name in names]
    rows = []
    for name, char in zip(names, run.ctx.sweep.run_tasks(tasks)):
        ref = PAPER_TABLE_1[name]
        inf, tr = char["ops_inf"], char["ops_train"]
        rows.append(
            {
                "model": name,
                "params": char["params"],
                "params_paper": ref.n_params,
                "size_mib": round(char["size_mib"], 2),
                "size_mib_paper": ref.param_mib,
                "ops_inf": inf,
                "ops_inf_paper": ref.ops_inference,
                "ops_inf_delta_pct": round(100 * (inf - ref.ops_inference) / ref.ops_inference, 1),
                "ops_train": tr,
                "ops_train_paper": ref.ops_training,
                "ops_train_delta_pct": round(100 * (tr - ref.ops_training) / ref.ops_training, 1),
                "batch": char["batch"],
            }
        )
    text = format_table(
        rows, title="Table 1: DNN model characteristics (ours vs paper)"
    )
    return Report(rows=rows, text=text)


# ======================================================================
# §2.2 motivation — how random is the transfer order?
# ======================================================================

#: The three models §2.2 reports order-uniqueness for.
MOTIVATION_MODELS = ("ResNet-50 v2", "Inception v3", "VGG-16")
PAPER_UNIQUE = {"ResNet-50 v2": 1000, "Inception v3": 1000, "VGG-16": 493}


def count_unique_orders(model: str, iterations: int, seed: int = 0) -> int:
    """Distinct parameter-arrival orders at worker:0 across iterations."""
    spec = ClusterSpec(2, 1, "training")
    ir, core = compile_group(model, spec, platform=ENV_G)
    sim = bind_variant(ir, spec, core, "baseline", SimConfig(seed=seed, iterations=1))
    op_ids = np.array(list(core.cluster.param_recvs["worker:0"].values()))
    seen: set[tuple] = set()
    # stream the 1000-iteration protocol (slabbed batch setup inside)
    for record in sim.iter_iterations(0, iterations):
        order = tuple(np.argsort(record.start[op_ids], kind="stable").tolist())
        seen.add(order)
    return len(seen)


def _motivation(run: ScenarioRun) -> Report:
    iterations = min(run.ctx.scale.consistency_runs, 1000)
    tasks = [
        FnTask.make(
            count_unique_orders, model=model, iterations=iterations, seed=run.ctx.seed
        )
        for model in MOTIVATION_MODELS
    ] + [FnTask.make(model_characteristics, name="ResNet-152 v2")]
    *uniques, r152 = run.ctx.sweep.run_tasks(tasks)
    rows = []
    for model, unique in zip(MOTIVATION_MODELS, uniques):
        rows.append(
            {
                "model": model,
                "iterations": iterations,
                "unique_orders": unique,
                "paper_unique_of_1000": PAPER_UNIQUE[model],
            }
        )
        run.ctx.log(f"  motivation {model}: {unique}/{iterations} unique orders")

    # The §2.2 sizing example.
    rows.append(
        {
            "model": "ResNet-152 v2 (sizing)",
            "iterations": 0,
            "unique_orders": r152["params"],
            "paper_unique_of_1000": 363,
        }
    )
    text = "\n".join(
        [
            format_table(
                rows,
                title=f"Motivation (§2.2): distinct parameter-arrival orders over "
                f"{iterations} baseline iterations",
            ),
            f"ResNet-v2-152 sizing: {r152['params']} tensors "
            f"(paper: 363), {r152['size_mib']:.1f} MiB (paper: 229.5), "
            f"{r152['ops_train']} training ops (paper: 4655).",
        ]
    )
    return Report(rows=rows, text=text)


# ======================================================================
# Fig. 7 — throughput speedup vs. number of workers (envG)
# ======================================================================

def fig7_cells(run: ScenarioRun) -> list[SimCell]:
    """Fig. 7's slice of the evaluation grid: every scale model and worker
    count, PS:workers = 1:4. The headline scan sweeps the SAME cells, so
    the two cache-hit each other."""
    return GridSpec(
        models=run.ctx.scale.models,
        workloads=("inference", "training"),
        worker_counts=run.ctx.scale.worker_counts,
        ps_from_workers=True,
        algorithms=(run.param("algorithm"),),
        platforms=("envG",),
    ).cells(run.ctx.sim_config())


def _fig7(run: ScenarioRun) -> Report:
    algorithm = run.param("algorithm")
    cells = fig7_cells(run)
    rows = []
    for cell, (gain, sched, base) in zip(cells, run.ctx.sweep.run_speedups(cells)):
        rows.append(
            {
                "model": cell.model,
                "workload": cell.spec.workload,
                "workers": cell.spec.n_workers,
                "ps": cell.spec.n_ps,
                "baseline_sps": round(base.throughput, 1),
                f"{algorithm}_sps": round(sched.throughput, 1),
                "speedup_pct": round(gain, 1),
            }
        )
        run.ctx.log(
            f"  fig7 {cell.model} {cell.spec.workload} "
            f"w{cell.spec.n_workers}ps{cell.spec.n_ps}: {gain:+.1f}%"
        )
    text = format_table(
        rows,
        title=f"Fig. 7: throughput speedup of {algorithm.upper()} vs baseline, "
        "scaling workers (envG, PS:W = 1:4)",
    )
    return Report(rows=rows, text=text)


# ======================================================================
# Fig. 8 — training loss with and without enforced ordering
# ======================================================================

def training_run(ordering: str, iterations: int, seed: int) -> dict:
    """One Fig. 8 SGD run as a cacheable sweep task. The dataset is
    rebuilt from ``seed``, so both orderings train on identical data."""
    ds = make_dataset(seed=seed)
    policy = (
        baseline_ordering(seed) if ordering == "no_ordering" else enforced_ordering()
    )
    log = train_data_parallel(
        ds, iterations=iterations, ordering=policy, label=ordering, seed=seed
    )
    return {
        "losses": [float(x) for x in log.losses],
        "accuracy": float(log.eval_accuracy),
    }


def _fig8(run: ScenarioRun) -> Report:
    iters = run.ctx.scale.loss_iterations
    labels = ("no_ordering", "tic")
    tasks = [
        FnTask.make(training_run, ordering=label, iterations=iters, seed=run.ctx.seed)
        for label in labels
    ]
    runs = dict(zip(labels, run.ctx.sweep.run_tasks(tasks)))
    identical = bool(
        np.array_equal(
            np.array(runs["no_ordering"]["losses"]), np.array(runs["tic"]["losses"])
        )
    )
    rows = []
    stride = max(1, iters // 50)
    for i in range(0, iters, stride):
        rows.append(
            {
                "iteration": i,
                "loss_no_ordering": runs["no_ordering"]["losses"][i],
                "loss_tic": runs["tic"]["losses"][i],
            }
        )
    first, last = runs["tic"]["losses"][0], runs["tic"]["losses"][-1]
    text = "\n".join(
        [
            "Fig. 8: training loss, no-ordering vs TIC "
            f"({iters} iterations, synthetic dataset)",
            f"  curves identical: {identical}",
            f"  loss {first:.4f} -> {last:.4f} "
            f"(accuracy {runs['tic']['accuracy']:.3f})",
            format_table(rows[:10], title="  first sampled points", floatfmt=".4f"),
        ]
    )
    return Report(
        rows=rows, text=text, extras={"identical": identical, "final_loss": last}
    )


# ======================================================================
# Fig. 9 — speedup vs. number of parameter servers (envG)
# ======================================================================

def fig9_cells(run: ScenarioRun) -> list[SimCell]:
    """Fig. 9's slice: ``n_workers`` workers, every scale PS count. At the
    quick scale the worker count is clamped to the scale's largest."""
    n_workers = run.param("n_workers")
    if run.ctx.scale.name == "quick":
        n_workers = min(n_workers, max(run.ctx.scale.worker_counts))
    return GridSpec(
        models=run.ctx.scale.models,
        workloads=("inference", "training"),
        worker_counts=(n_workers,),
        ps_counts=run.ctx.scale.ps_counts,
        algorithms=(run.param("algorithm"),),
        platforms=("envG",),
    ).cells(run.ctx.sim_config())


def _fig9(run: ScenarioRun) -> Report:
    algorithm = run.param("algorithm")
    cells = fig9_cells(run)
    n_workers = cells[0].spec.n_workers
    rows = []
    for cell, (gain, sched, base) in zip(cells, run.ctx.sweep.run_speedups(cells)):
        rows.append(
            {
                "model": cell.model,
                "workload": cell.spec.workload,
                "workers": n_workers,
                "ps": cell.spec.n_ps,
                "baseline_sps": round(base.throughput, 1),
                f"{algorithm}_sps": round(sched.throughput, 1),
                "speedup_pct": round(gain, 1),
            }
        )
        run.ctx.log(
            f"  fig9 {cell.model} {cell.spec.workload} "
            f"ps{cell.spec.n_ps}: {gain:+.1f}%"
        )
    text = format_table(
        rows,
        title=f"Fig. 9: speedup of {algorithm.upper()} vs baseline, scaling "
        f"parameter servers (envG, {n_workers} workers)",
    )
    return Report(rows=rows, text=text)


# ======================================================================
# Fig. 10 — speedup vs. computational load (batch-size factor)
# ======================================================================

BATCH_FACTORS = (0.5, 1.0, 2.0)


def fig10_cells(run: ScenarioRun) -> list[SimCell]:
    """Fig. 10's slice: inference, ``n_workers`` workers, one PS, every
    batch-size factor."""
    return GridSpec(
        models=run.ctx.scale.models,
        workloads=("inference",),
        worker_counts=(run.param("n_workers"),),
        algorithms=(run.param("algorithm"),),
        platforms=("envG",),
        batch_factors=BATCH_FACTORS,
    ).cells(run.ctx.sim_config())


def _fig10(run: ScenarioRun) -> Report:
    algorithm = run.param("algorithm")
    cells = fig10_cells(run)
    rows = []
    for cell, (gain, sched, base) in zip(cells, run.ctx.sweep.run_speedups(cells)):
        rows.append(
            {
                "model": cell.model,
                "batch_factor": cell.batch_factor,
                "batch": sched.batch_size,
                "baseline_sps": round(base.throughput, 1),
                f"{algorithm}_sps": round(sched.throughput, 1),
                "speedup_pct": round(gain, 1),
            }
        )
        run.ctx.log(f"  fig10 {cell.model} x{cell.batch_factor}: {gain:+.1f}%")
    text = format_table(
        rows,
        title=f"Fig. 10: speedup of {algorithm.upper()} vs baseline under "
        f"batch-size scaling (envG, {run.param('n_workers')} workers, inference)",
    )
    return Report(rows=rows, text=text)


# ======================================================================
# Fig. 11 — scheduling efficiency and straggler effect vs. model size
# ======================================================================

@lru_cache(maxsize=None)
def ops_per_worker(model: str, workload: str) -> int:
    """Worker-partition op count (Fig. 11's x axis; submitted as a sweep
    task so warm-cache runs skip the model builds too)."""
    ir = build_model(model)
    placement = shard_parameters(ir.params, ["ps:0"])
    mode = WORKER_TRAINING if workload == "training" else WORKER_INFERENCE
    return len(emit_graph(ir, mode, placement=placement).graph)


def fig11_cells(run: ScenarioRun) -> list[SimCell]:
    """Fig. 11's slice: ``n_workers`` workers, PS:workers = 1:4, baseline
    and TIC side by side."""
    return GridSpec(
        models=run.ctx.scale.models,
        workloads=("inference", "training"),
        worker_counts=(run.param("n_workers"),),
        ps_from_workers=True,
        algorithms=("baseline", "tic"),
        platforms=("envG",),
    ).cells(run.ctx.sim_config())


def _fig11(run: ScenarioRun) -> Report:
    cells = fig11_cells(run)
    results = run.ctx.sweep.run_cells(cells)
    n_ops_of = dict(
        zip(
            [(c.model, c.spec.workload) for c in cells],
            run.ctx.sweep.run_tasks(
                [
                    FnTask.make(
                        ops_per_worker, model=c.model, workload=c.spec.workload
                    )
                    for c in cells
                ]
            ),
        )
    )
    rows = []
    for cell, result in zip(cells, results):
        rows.append(
            {
                "model": cell.model,
                "workload": cell.spec.workload,
                "algorithm": cell.algorithm,
                "ops_per_worker": n_ops_of[(cell.model, cell.spec.workload)],
                "efficiency_mean": round(result.mean_efficiency, 4),
                "efficiency_max": round(result.max_efficiency, 4),
                "straggler_pct_max": round(result.max_straggler_pct, 2),
                "straggler_pct_mean": round(result.mean_straggler_pct, 2),
            }
        )
        if cell.algorithm == "tic":
            run.ctx.log(f"  fig11 {cell.model} {cell.spec.workload}: done")
    text = format_table(
        rows,
        title="Fig. 11: (a) scheduling efficiency and (b) straggler time vs "
        f"ops per worker (envG, {run.param('n_workers')} workers, baseline vs TIC)",
        floatfmt=".3f",
    )
    return Report(rows=rows, text=text)


# ======================================================================
# Fig. 12 — scheduling efficiency vs. step time, and consistency (envC)
# ======================================================================

def _fig12(run: ScenarioRun) -> Report:
    model, n_workers = run.param("model"), run.param("n_workers")
    runs = run.ctx.scale.consistency_runs
    cfg = run.ctx.sim_config(iterations=runs, warmup=0)
    keys = [
        (workload, algorithm)
        for workload in ("training", "inference")
        for algorithm in ("baseline", "tac")
    ]
    cells = [
        SimCell(
            model=model,
            spec=ClusterSpec(n_workers=n_workers, n_ps=1, workload=workload),
            algorithm=algorithm,
            platform="envC",
            config=cfg,
        )
        for workload, algorithm in keys
    ]
    results = dict(zip(keys, run.ctx.sweep.run_cells(cells)))
    for workload, algorithm in keys:
        run.ctx.log(f"  fig12 {workload}/{algorithm}: {runs} runs done")

    # --- (a) regression: efficiency vs normalized step time (training) ---
    effs, steps = [], []
    for algorithm in ("baseline", "tac"):
        r = results[("training", algorithm)]
        effs.extend(r.efficiencies.tolist())
        steps.extend(r.iteration_times.tolist())
    norm = normalized_step_time(steps)
    fit = linear_regression(effs, norm.tolist())

    # --- (b) CDF of normalized step time (inference) ----------------------
    base_times = results[("inference", "baseline")].iteration_times
    tac_times = results[("inference", "tac")].iteration_times
    pooled_min = min(base_times.min(), tac_times.min())
    base_norm = pooled_min / base_times
    tac_norm = pooled_min / tac_times
    p95_base = percentile(base_norm, 5)  # 95th pct of slowness = 5th of norm
    p95_tac = percentile(tac_norm, 5)

    rows = []
    for algorithm, norm_vals in (("baseline", base_norm), ("tac", tac_norm)):
        xs, ps = empirical_cdf(norm_vals)
        stride = max(1, len(xs) // 40)
        for x, p in zip(xs[::stride], ps[::stride]):
            rows.append(
                {
                    "series": f"cdf_{algorithm}",
                    "normalized_step_time": round(float(x), 5),
                    "cum_prob": round(float(p), 4),
                }
            )
    summary_rows = [
        {
            "metric": "regression_r2",
            "value": round(fit.r2, 4),
            "paper": 0.98,
        },
        {
            "metric": "p95_norm_step_baseline",
            "value": round(p95_base, 4),
            "paper": 0.63403,
        },
        {
            "metric": "p95_norm_step_tac",
            "value": round(p95_tac, 4),
            "paper": 0.99825,
        },
        {
            "metric": "step_cv_baseline",
            "value": round(float(base_times.std() / base_times.mean()), 4),
            "paper": float("nan"),
        },
        {
            "metric": "step_cv_tac",
            "value": round(float(tac_times.std() / tac_times.mean()), 4),
            "paper": float("nan"),
        },
    ]
    sketch = scatter_sketch(
        effs, norm.tolist(),
        title="Fig. 12a sketch: scheduling efficiency (x) vs normalized step time (y)",
    )
    text = "\n".join(
        [
            f"Fig. 12: {model}, envC, {runs} runs, {n_workers} workers",
            format_table(
                summary_rows, title="  summary (ours vs paper)", floatfmt=".4f"
            ),
            sketch,
        ]
    )
    return Report(
        rows=summary_rows + rows,
        text=text,
        extras={
            "r2": fit.r2,
            "p95_baseline": p95_base,
            "p95_tac": p95_tac,
        },
    )


# ======================================================================
# Fig. 13 / Appendix B — TIC vs. TAC on the commodity CPU cluster (envC)
# ======================================================================

def fig13_cells(run: ScenarioRun) -> list[SimCell]:
    """Fig. 13's slice: the envC models, ``n_workers`` workers, one PS,
    TIC and TAC."""
    return GridSpec(
        models=ENVC_MODEL_NAMES,
        workloads=("inference", "training"),
        worker_counts=(run.param("n_workers"),),
        algorithms=("tic", "tac"),
        platforms=("envC",),
    ).cells(run.ctx.sim_config())


def _fig13(run: ScenarioRun) -> Report:
    n_workers = run.param("n_workers")
    speedups = iter(run.ctx.sweep.run_speedups(fig13_cells(run)))
    rows = []
    for workload in ("inference", "training"):
        for model in ENVC_MODEL_NAMES:
            entry = {
                "model": model,
                "workload": workload,
                "workers": n_workers,
            }
            for algorithm in ("tic", "tac"):
                gain, _, base = next(speedups)
                entry[f"{algorithm}_speedup_pct"] = round(gain, 1)
                entry["baseline_sps"] = round(base.throughput, 1)
            rows.append(entry)
            run.ctx.log(
                f"  fig13 {model} {workload}: tic {entry['tic_speedup_pct']:+.1f}% "
                f"tac {entry['tac_speedup_pct']:+.1f}%"
            )
    text = format_table(
        rows,
        title=f"Fig. 13: TIC and TAC speedup vs baseline (envC, {n_workers} "
        "workers)",
    )
    return Report(rows=rows, text=text)


# ======================================================================
# Headline claims (§1/abstract) — aggregate maxima over the sweeps
# ======================================================================

def _headline(run: ScenarioRun) -> Report:
    best = {"inference": (-1e9, ""), "training": (-1e9, "")}
    worst = (1e9, "")
    straggler_ratios = []
    # The headline scan is exactly Fig. 7's grid, so a run that follows
    # (or precedes) fig7 resolves entirely from the sweep cache.
    cells = fig7_cells(run)
    for cell, (gain, sched, base) in zip(cells, run.ctx.sweep.run_speedups(cells)):
        workload, w = cell.spec.workload, cell.spec.n_workers
        tag = f"{cell.model}/w{w}"
        if gain > best[workload][0]:
            best[workload] = (gain, tag)
        if gain < worst[0]:
            worst = (gain, tag)
        if w > 1 and sched.max_straggler_pct > 0:
            straggler_ratios.append(
                (base.max_straggler_pct / max(sched.max_straggler_pct, 1e-9),
                 tag + "/" + workload)
            )
    best_straggler = max(straggler_ratios) if straggler_ratios else (float("nan"), "n/a")
    rows = [
        {
            "claim": "max inference speedup",
            "ours_pct": round(best["inference"][0], 1),
            "paper_pct": 37.7,
            "where": best["inference"][1],
        },
        {
            "claim": "max training speedup",
            "ours_pct": round(best["training"][0], 1),
            "paper_pct": 19.2,
            "where": best["training"][1],
        },
        {
            "claim": "worst slowdown",
            "ours_pct": round(worst[0], 1),
            "paper_pct": -4.2,
            "where": worst[1],
        },
        {
            "claim": "max straggler reduction (x)",
            "ours_pct": round(best_straggler[0], 2),
            "paper_pct": 2.3,
            "where": best_straggler[1],
        },
    ]
    text = format_table(rows, title="Headline claims (abstract) — ours vs paper")
    return Report(rows=rows, text=text)


# ======================================================================
# Ablations — §5.1's design choices made measurable
# ======================================================================

ABLATION_MODEL = "ResNet-50 v1"
ABLATION_WORKERS, ABLATION_PS = 4, 1


def custom_schedule_throughputs(seed: int, iterations: int, warmup: int) -> dict:
    """Throughput of every hand-scheduled variant (one sweep task: the
    model, reference partition and traced oracle are shared across the
    four tac() invocations, as the comparator/oracle study intends, and
    the four schedules run as one compile-once group)."""
    ir = build_model(ABLATION_MODEL)
    spec = ClusterSpec(n_workers=ABLATION_WORKERS, n_ps=ABLATION_PS, workload="training")
    reference = build_reference_partition(ir, workload="training", n_ps=ABLATION_PS)
    oracle = estimate_time_oracle(reference.graph, ENV_G, seed=seed)
    schedules = {
        "tac_eq6": tac(reference.graph, oracle),
        "tac_as_printed": tac(
            reference.graph, oracle, comparator=precedes_as_printed,
            algorithm_name="tac_as_printed",
        ),
        "tac_exact": tac(
            reference.graph, ENV_G.oracle(), algorithm_name="tac_exact"
        ),
        "tac_noisy": tac(
            reference.graph, PerturbedOracle(oracle, sigma=1.0, seed=seed),
            algorithm_name="tac_noisy",
        ),
    }
    cfg = SimConfig(seed=seed, iterations=iterations, warmup=warmup)
    results = simulate_cell_group(
        ir, spec, [(schedule, cfg) for schedule in schedules.values()],
        platform="envG",
    )
    return {
        variant: float(result.throughput)
        for variant, result in zip(schedules, results)
    }


def _ablations(run: ScenarioRun) -> Report:
    spec = ClusterSpec(
        n_workers=ABLATION_WORKERS, n_ps=ABLATION_PS, workload="training"
    )
    cfg = run.ctx.sim_config()

    def cell(algorithm: str = "tic", *, spec=spec, config=cfg) -> SimCell:
        return SimCell(
            model=ABLATION_MODEL, spec=spec, algorithm=algorithm,
            platform="envG", config=config,
        )

    # --- grid-shaped variants: one batch of cells -----------------------
    enforcement_modes = ("sender", "ready_queue", "dag")
    noise_probs = (0.0, 0.005, 0.05)
    sharding_strategies = ("greedy", "round_robin")
    cells = [cell("baseline")]
    cells += [
        cell(config=cfg.with_(enforcement=mode)) for mode in enforcement_modes
    ]
    cells += [cell(algo) for algo in ("tic", "tic_plus")]
    cells += [
        cell(config=cfg.with_(grpc_reorder_prob=prob)) for prob in noise_probs
    ]
    cells += [
        cell(spec=ClusterSpec(n_workers=ABLATION_WORKERS, n_ps=2, workload="training",
                              sharding=strategy))
        for strategy in sharding_strategies
    ]
    results = iter(run.ctx.sweep.run_cells(cells))

    # --- custom-schedule variants: one shared-build task ----------------
    custom_tps, = run.ctx.sweep.run_tasks(
        [
            FnTask.make(
                custom_schedule_throughputs, seed=run.ctx.seed,
                iterations=cfg.iterations, warmup=cfg.warmup,
            )
        ]
    )
    # 'estimated (min of 5)' re-reports tac_eq6 (it is the same schedule).
    task_order = ("tac_eq6", "tac_as_printed", "tac_eq6", "tac_exact", "tac_noisy")
    throughputs = iter(custom_tps[v] for v in task_order)

    rows = []
    base_tp = next(results).throughput

    def add(group: str, variant: str, tp: float) -> None:
        rows.append(
            {
                "group": group,
                "variant": variant,
                "throughput_sps": round(tp, 1),
                "vs_baseline_pct": round((tp - base_tp) / base_tp * 100, 1),
            }
        )

    add("enforcement", "none (baseline)", base_tp)
    for mode in enforcement_modes:
        add("enforcement", mode, next(results).throughput)

    tic_tp, tic_plus_tp = (next(results).throughput for _ in range(2))
    noise_tps = [next(results).throughput for _ in noise_probs]
    sharding_tps = [next(results).throughput for _ in sharding_strategies]

    add("comparator", "tac (Eq. 6)", next(throughputs))
    add("comparator", "tac (as printed)", next(throughputs))

    add("tic_variant", "tic", tic_tp)
    add("tic_variant", "tic_plus", tic_plus_tp)

    add("oracle", "estimated (min of 5)", next(throughputs))
    add("oracle", "exact", next(throughputs))
    add("oracle", "perturbed (sigma=1.0)", next(throughputs))

    for prob, tp in zip(noise_probs, noise_tps):
        add("grpc_noise", f"p={prob}", tp)

    for strategy, tp in zip(sharding_strategies, sharding_tps):
        rows.append(
            {
                "group": "sharding",
                "variant": strategy,
                "throughput_sps": round(tp, 1),
                "vs_baseline_pct": float("nan"),
            }
        )

    text = format_table(
        rows,
        title=f"Ablations ({ABLATION_MODEL}, training, {ABLATION_WORKERS} "
        "workers, envG)",
    )
    return Report(rows=rows, text=text)


# ======================================================================
# Straggler-source decomposition (extends §6.3)
# ======================================================================

SLOWDOWNS = (1.0, 1.25, 1.5)


def _stragglers(run: ScenarioRun) -> Report:
    model, n_workers = run.param("model"), run.param("n_workers")
    spec = ClusterSpec(n_workers=n_workers, n_ps=1, workload="training")
    points = [
        (slowdown, algorithm)
        for slowdown in SLOWDOWNS
        for algorithm in ("baseline", "tic")
    ]
    cells = [
        SimCell(
            model=model,
            spec=spec,
            algorithm=algorithm,
            platform="envG",
            config=run.ctx.sim_config(
                device_slowdown=()
                if slowdown == 1.0
                else (("worker:0", slowdown),)
            ),
        )
        for slowdown, algorithm in points
    ]
    rows = []
    for (slowdown, algorithm), result in zip(points, run.ctx.sweep.run_cells(cells)):
        rows.append(
            {
                "model": model,
                "slow_worker_factor": slowdown,
                "algorithm": algorithm,
                "iteration_ms": round(result.mean_iteration_time * 1e3, 1),
                "straggler_pct_max": round(result.max_straggler_pct, 2),
                "straggler_pct_mean": round(result.mean_straggler_pct, 2),
            }
        )
        if algorithm == "tic":
            run.ctx.log(f"  stragglers x{slowdown}: done")
    text = format_table(
        rows,
        title="Straggler decomposition (extends §6.3): scheduling-induced vs "
        f"system-induced straggling ({model}, {n_workers} workers, envG)",
    )
    return Report(rows=rows, text=text)


# ======================================================================
# Fault resilience (ISSUE 9 extension)
# ======================================================================

FAULT_INTENSITIES = (0.0, 0.25, 0.5, 0.75)


def fault_plan_for(intensity: float):
    """The scenario's fault recipe scaled by ``intensity`` in [0, 1]:
    the PS<->worker:0 link degrades to ``1 - intensity`` of nominal
    bandwidth over the first 500 ms of every iteration, while worker:1's
    compute runs ``1 + 2*intensity`` times slower over a mid-iteration
    window. ``intensity=0`` returns ``None`` (fault-free — byte-identical
    to a config with no plan at all, pinned by the hypothesis suite)."""
    from ..faults import FaultPlan, LinkDegradation, StragglerBurst

    if intensity <= 0:
        return None
    return FaultPlan((
        LinkDegradation("ps:0", "worker:0", start=0.0, duration=0.5,
                        factor=1.0 - intensity),
        StragglerBurst("worker:1", start=0.1, duration=0.4,
                       factor=1.0 + 2.0 * intensity),
    ))


def _fault_resilience(run: ScenarioRun) -> Report:
    from ..obs.capture import trace_cell

    model, n_workers = run.param("model"), run.param("n_workers")
    spec = ClusterSpec(n_workers=n_workers, n_ps=1, workload="training")
    algorithms = ("baseline", "tic", "tac")
    points = [
        (intensity, algorithm)
        for intensity in FAULT_INTENSITIES
        for algorithm in algorithms
    ]
    cells = [
        SimCell(
            model=model,
            spec=spec,
            algorithm=algorithm,
            platform="envG",
            config=run.ctx.sim_config(faults=fault_plan_for(intensity)),
        )
        for intensity, algorithm in points
    ]
    results = run.ctx.sweep.run_cells(cells)
    base_ms = {
        intensity: res.mean_iteration_time * 1e3
        for (intensity, algorithm), res in zip(points, results)
        if algorithm == "baseline" and res is not None
    }
    rows = []
    attribution = []
    for (intensity, algorithm), cell, res in zip(points, cells, results):
        if res is None:  # quarantined: error row instead of a crash
            rows.append({
                "model": model,
                "algorithm": algorithm,
                "intensity": intensity,
                "iteration_ms": float("nan"),
            })
            continue
        # one traced iteration per cell attributes the damage: how much
        # capacity each fault window removed from busy entities.
        impact = trace_cell(cell).trace.fault_impact()
        comp_lost = sum(r["lost_s"] for r in impact if r["kind"] == "compute")
        wire_lost = sum(r["lost_s"] for r in impact if r["kind"] == "wire")
        iteration_ms = res.mean_iteration_time * 1e3
        rows.append({
            "model": model,
            "algorithm": algorithm,
            "intensity": intensity,
            "iteration_ms": round(iteration_ms, 1),
            "vs_baseline_pct": round(
                (base_ms[intensity] / iteration_ms - 1) * 100, 1
            ),
            "fault_compute_lost_ms": round(comp_lost * 1e3, 2),
            "fault_wire_lost_ms": round(wire_lost * 1e3, 2),
            "n_fault_windows": len(impact),
        })
        for r in impact:
            attribution.append(
                {"algorithm": algorithm, "intensity": intensity, **r}
            )
        if algorithm == algorithms[-1]:
            run.ctx.log(f"  fault intensity {intensity}: done")
    text = format_table(
        rows,
        title="Fault resilience: scheduling under degraded links and straggler "
        f"bursts ({model}, {n_workers} workers, envG)",
    )
    return Report(
        rows=rows,
        text=text,
        tables={"fault_resilience_attribution": attribution},
    )


# ======================================================================
# Pipelining ablation (extension)
# ======================================================================

def pipelined_metrics(
    model: str,
    n_workers: int,
    window: int,
    algorithm: str,
    iterations: int,
    seed: int,
) -> dict:
    """Steady-state metrics of one unrolled-window run (sweep task; the
    unrolled cluster graph is not a plain grid cell)."""
    spec = ClusterSpec(n_workers=n_workers, n_ps=1, workload="training")
    cfg = SimConfig(seed=seed, iterations=iterations, warmup=0)
    result = simulate_pipelined(
        model, spec, window=window, algorithm=algorithm,
        platform="envG", config=cfg,
    )
    return {
        "steady_s": result.mean_steady_iteration_time,
        "fill_s": result.fill_latency,
    }


def _pipelining(run: ScenarioRun) -> Report:
    model = run.param("model")
    n_workers, window = run.param("n_workers"), run.param("window")
    spec = ClusterSpec(n_workers=n_workers, n_ps=1, workload="training")
    cfg = run.ctx.sim_config(iterations=max(2, run.ctx.scale.iterations // 2), warmup=0)
    algorithms = ("baseline", "tic")
    barriers = run.ctx.sweep.run_cells(
        [
            SimCell(model=model, spec=spec, algorithm=a, platform="envG", config=cfg)
            for a in algorithms
        ]
    )
    pipelineds = run.ctx.sweep.run_tasks(
        [
            FnTask.make(
                pipelined_metrics,
                model=model,
                n_workers=n_workers,
                window=window,
                algorithm=a,
                iterations=cfg.iterations,
                seed=cfg.seed,
            )
            for a in algorithms
        ]
    )
    rows = []
    for algorithm, barrier, pipelined in zip(algorithms, barriers, pipelineds):
        rows.append(
            {
                "algorithm": algorithm,
                "barrier_ms": round(barrier.mean_iteration_time * 1e3, 1),
                "pipelined_steady_ms": round(pipelined["steady_s"] * 1e3, 1),
                "pipelining_gain_pct": round(
                    (barrier.mean_iteration_time - pipelined["steady_s"])
                    / barrier.mean_iteration_time * 100, 1,
                ),
                "fill_latency_ms": round(pipelined["fill_s"] * 1e3, 1),
            }
        )
        run.ctx.log(f"  pipelining {algorithm}: done")
    base, tic = rows
    tic["tic_gain_pipelined_pct"] = round(
        (base["pipelined_steady_ms"] - tic["pipelined_steady_ms"])
        / base["pipelined_steady_ms"] * 100, 1,
    )
    text = format_table(
        rows,
        title=f"Pipelining ablation ({model}, {n_workers} workers, training, "
        f"window={window}): barrier model vs per-parameter pipelining",
    )
    return Report(rows=rows, text=text)


# ======================================================================
# Collective backend evaluation: all-reduce topologies under TIC/TAC
# ======================================================================

TOPOLOGIES = ("ring", "hierarchical")
ALLREDUCE_ALGORITHMS = ("baseline", "tic", "tac")

MIB = 2**20
PARTITIONS_QUICK = (4 * MIB, 16 * MIB)
PARTITIONS_FULL = (1 * MIB, 4 * MIB, 16 * MIB)


def allreduce_axes(scale) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """(models, worker counts, partition sizes) for a scale."""
    if scale.name == "full":
        workers = tuple(w for w in scale.worker_counts if w >= 2)
        return scale.models, workers, PARTITIONS_FULL
    workers = tuple(w for w in scale.worker_counts if 2 <= w <= 4) or (2,)
    return scale.models[:3], workers, PARTITIONS_QUICK


def allreduce_grid_cells(run: ScenarioRun) -> list[SimCell]:
    """The scenario's cells: its main evaluation grid, in deterministic
    row order (the wire check and the PS comparison are derived sweeps)."""
    models, workers, partitions = allreduce_axes(run.ctx.scale)
    cfg = run.ctx.sim_config()
    cells = []
    for model in models:
        for topology in TOPOLOGIES:
            for n_workers in workers:
                for partition in partitions:
                    spec = make_spec(
                        "allreduce",
                        n_workers=n_workers,
                        topology=topology,
                        partition_bytes=partition,
                    )
                    for algorithm in ALLREDUCE_ALGORITHMS:
                        cells.append(
                            SimCell(
                                model=model,
                                spec=spec,
                                algorithm=algorithm,
                                platform="envG",
                                config=cfg,
                            )
                        )
    return cells


def _allreduce(run: ScenarioRun) -> Report:
    models, workers, partitions = allreduce_axes(run.ctx.scale)

    # --- main grid ----------------------------------------------------
    cells = allreduce_grid_cells(run)
    results = run.ctx.sweep.run_cells(cells)
    by_cell = dict(zip(cells, results))
    rows = []
    for cell, res in zip(cells, results):
        base = by_cell[cell.with_(algorithm="baseline")]
        gain = (res.throughput - base.throughput) / base.throughput * 100.0
        rows.append(
            {
                "model": cell.model,
                "topology": cell.spec.topology,
                "workers": cell.spec.n_workers,
                "partition_mib": cell.spec.partition_bytes // MIB,
                "algorithm": cell.algorithm,
                "iteration_time_s": round(res.mean_iteration_time, 6),
                "throughput_sps": round(res.throughput, 1),
                "speedup_pct": round(gain, 2),
                "efficiency_mean": round(res.mean_efficiency, 4),
            }
        )
        if cell.algorithm != "baseline":
            run.ctx.log(
                f"  allreduce {cell.model} {cell.spec.topology} "
                f"w{cell.spec.n_workers} p{cell.spec.partition_bytes // MIB}MiB "
                f"{cell.algorithm}: {gain:+.1f}%"
            )

    # --- analytic ring wire check ------------------------------------
    wire = PLATFORMS["wire"]
    wire_cfg = run.ctx.sim_config(iterations=2, warmup=0)
    wire_cells = [
        SimCell(
            model=model,
            spec=make_spec(
                "allreduce",
                n_workers=w,
                topology="ring",
                partition_bytes=partitions[0],
            ),
            algorithm="baseline",
            platform="wire",
            config=wire_cfg,
        )
        for model in models
        for w in workers
    ]
    model_bytes = {m: build_model(m).total_param_bytes for m in models}
    wire_rows = []
    for cell, res in zip(wire_cells, run.ctx.sweep.run_cells(wire_cells)):
        w = cell.spec.n_workers
        bound = 2 * (w - 1) / w * model_bytes[cell.model] / wire.bandwidth_bps
        wire_rows.append(
            {
                "model": cell.model,
                "workers": w,
                "analytic_s": round(bound, 6),
                "simulated_s": round(res.mean_iteration_time, 6),
                "ratio": round(res.mean_iteration_time / bound, 4),
            }
        )

    # --- PS vs all-reduce headline ------------------------------------
    w_head = max(workers)
    vs_rows = []
    ps_cells = [
        SimCell(
            model=model,
            spec=make_spec("ps", n_workers=w_head, n_ps=ps_for_workers(w_head)),
            algorithm="tac",
            platform="envG",
            config=run.ctx.sim_config(),
        )
        for model in models
    ]
    for model, ps_res in zip(models, run.ctx.sweep.run_cells(ps_cells)):
        ring_tac = [
            r
            for r in rows
            if r["model"] == model
            and r["topology"] == "ring"
            and r["workers"] == w_head
            and r["algorithm"] == "tac"
        ]
        best = min(ring_tac, key=lambda r: r["iteration_time_s"])
        delta = (
            (ps_res.mean_iteration_time - best["iteration_time_s"])
            / ps_res.mean_iteration_time
            * 100.0
        )
        vs_rows.append(
            {
                "model": model,
                "workers": w_head,
                "ps_tac_s": round(ps_res.mean_iteration_time, 6),
                "allreduce_tac_s": best["iteration_time_s"],
                "best_partition_mib": best["partition_mib"],
                "allreduce_faster_pct": round(delta, 1),
            }
        )

    text = "\n\n".join(
        [
            format_table(
                rows,
                title="All-reduce backend: {ring, hierarchical} x {baseline, TIC, "
                "TAC} x partition x workers (envG)",
            ),
            format_table(
                wire_rows,
                title="Ring wire check: simulated vs analytic 2(W-1)/W * M/B "
                "(wire platform)",
            ),
            format_table(
                vs_rows,
                title=f"PS (TAC, 1:4 provisioning) vs ring all-reduce (TAC), "
                f"W={w_head} (envG)",
            ),
        ]
    )
    return Report(
        rows=rows,
        text=text,
        tables={
            "allreduce_wire_check": wire_rows,
            "allreduce_vs_ps": vs_rows,
        },
    )


# ======================================================================
# Scenario definitions — presentation order (`tictac-repro all`)
# ======================================================================

register_scenario(Scenario(
    name="table1",
    title="Table 1: DNN model characteristics, ours vs the paper",
    output="table1_models",
    analyze=_table1,
    backends=(),
))

register_scenario(Scenario(
    name="motivation",
    title="§2.2 motivation: how random is the transfer order?",
    output="motivation_unique_orders",
    analyze=_motivation,
    backends=("ps",),
))

register_scenario(Scenario(
    name="fig7",
    title="Fig. 7: throughput speedup vs number of workers (envG)",
    output="fig7_worker_scaling",
    analyze=_fig7,
    cells=fig7_cells,
    params=(("algorithm", "tic"),),
))

register_scenario(Scenario(
    name="fig8",
    title="Fig. 8: training loss with and without enforced ordering",
    output="fig8_training_loss",
    analyze=_fig8,
    backends=(),
))

register_scenario(Scenario(
    name="fig9",
    title="Fig. 9: speedup vs number of parameter servers (envG)",
    output="fig9_ps_scaling",
    analyze=_fig9,
    cells=fig9_cells,
    params=(("algorithm", "tic"), ("n_workers", 8)),
))

register_scenario(Scenario(
    name="fig10",
    title="Fig. 10: speedup vs computational load (batch-size factor)",
    output="fig10_batch_scaling",
    analyze=_fig10,
    cells=fig10_cells,
    params=(("algorithm", "tic"), ("n_workers", 4)),
))

register_scenario(Scenario(
    name="fig11",
    title="Fig. 11: scheduling efficiency and straggler effect vs model size",
    output="fig11_efficiency_stragglers",
    analyze=_fig11,
    cells=fig11_cells,
    params=(("n_workers", 4),),
))

register_scenario(Scenario(
    name="fig12",
    title="Fig. 12: scheduling efficiency vs step time, and consistency (envC)",
    output="fig12_consistency",
    analyze=_fig12,
    params=(("model", "Inception v2"), ("n_workers", 4)),
))

register_scenario(Scenario(
    name="fig13",
    title="Fig. 13: TIC vs TAC on the commodity CPU cluster (envC)",
    output="fig13_tic_vs_tac",
    analyze=_fig13,
    cells=fig13_cells,
    params=(("n_workers", 4),),
))

register_scenario(Scenario(
    name="headline",
    title="Headline claims (abstract): aggregate maxima over the sweeps",
    output="headline",
    analyze=_headline,
    cells=fig7_cells,
    params=(("algorithm", "tic"),),
))

register_scenario(Scenario(
    name="ablations",
    title="Ablations: §5.1's design choices made measurable",
    output="ablations",
    analyze=_ablations,
))

register_scenario(Scenario(
    name="stragglers",
    title="Straggler-source decomposition (extends §6.3)",
    output="straggler_decomposition",
    analyze=_stragglers,
    params=(("model", "ResNet-50 v1"), ("n_workers", 4)),
))

register_scenario(Scenario(
    name="fault_resilience",
    title="Fault resilience: scheduling algorithms under injected faults",
    output="fault_resilience",
    analyze=_fault_resilience,
    aux_outputs=("fault_resilience_attribution",),
    params=(("model", "AlexNet v2"), ("n_workers", 2)),
))

register_scenario(Scenario(
    name="pipelining",
    title="Pipelining ablation: does the benefit survive cross-iteration overlap?",
    output="pipelining_ablation",
    analyze=_pipelining,
    params=(("model", "ResNet-50 v1"), ("n_workers", 4), ("window", 4)),
))

register_scenario(Scenario(
    name="allreduce",
    title="Collective backend: all-reduce topologies under TIC/TAC",
    output="allreduce_comparison",
    analyze=_allreduce,
    cells=allreduce_grid_cells,
    backends=("allreduce", "ps"),
    aux_outputs=("allreduce_wire_check", "allreduce_vs_ps"),
))
