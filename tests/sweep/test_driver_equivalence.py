"""End-to-end: a figure driver through the sweep runner reproduces the
seed's hand-rolled serial loop exactly, serial == parallel, and a warm
cache serves the same rows without simulating."""

import csv

import pytest

from repro.api import Context, Scale, execute_scenario
from repro.ps import ClusterSpec
from repro.sim import speedup_vs_baseline


def run_fig7(ctx: Context):
    """The scenario path every caller goes through."""
    out = execute_scenario(ctx, "fig7")
    paths = out.save(ctx.results_dir)
    return out, paths[out.name]

MICRO = Scale(
    name="micro",
    models=("AlexNet v2", "Inception v1"),
    worker_counts=(2, 4),
    ps_counts=(1,),
    iterations=2,
    warmup=0,
    consistency_runs=8,
    loss_iterations=10,
)


def micro_ctx(tmp_path, **overrides) -> Context:
    kwargs = dict(scale=MICRO, results_dir=str(tmp_path), verbose=False)
    kwargs.update(overrides)
    return Context(**kwargs)


def seed_style_fig7_rows(ctx: Context, algorithm: str = "tic") -> list[dict]:
    """The seed's original fig7 loop, kept verbatim as the reference."""
    rows = []
    for workload in ("inference", "training"):
        for model in ctx.scale.models:
            for w in ctx.scale.worker_counts:
                spec = ClusterSpec(
                    n_workers=w, n_ps=max(1, w // 4), workload=workload
                )
                gain, sched, base = speedup_vs_baseline(
                    model, spec, algorithm=algorithm, platform="envG",
                    config=ctx.sim_config(),
                )
                rows.append(
                    {
                        "model": model,
                        "workload": workload,
                        "workers": w,
                        "ps": spec.n_ps,
                        "baseline_sps": round(base.throughput, 1),
                        f"{algorithm}_sps": round(sched.throughput, 1),
                        "speedup_pct": round(gain, 1),
                    }
                )
    return rows


@pytest.fixture(scope="module")
def reference_rows(tmp_path_factory):
    ctx = micro_ctx(tmp_path_factory.mktemp("ref"), use_cache=False)
    return seed_style_fig7_rows(ctx)


def test_fig7_matches_seed_serial_loop(tmp_path, reference_rows):
    out, _ = run_fig7(micro_ctx(tmp_path))
    assert out.rows == reference_rows


def test_fig7_parallel_matches_serial(tmp_path, reference_rows):
    out, _ = run_fig7(micro_ctx(tmp_path, jobs=2, use_cache=False))
    assert out.rows == reference_rows


def test_fig7_warm_cache_matches_and_skips_simulation(tmp_path, reference_rows):
    cold_ctx = micro_ctx(tmp_path)
    cold, _ = run_fig7(cold_ctx)
    assert cold_ctx.sweep.stats.hits == 0

    warm_ctx = micro_ctx(tmp_path)
    warm, warm_csv = run_fig7(warm_ctx)
    assert warm.rows == cold.rows == reference_rows
    assert warm_ctx.sweep.stats.misses == 0  # everything served from cache
    assert warm_ctx.sweep.stats.hits > 0

    with open(warm_csv) as fh:
        csv_rows = list(csv.DictReader(fh))
    assert len(csv_rows) == len(reference_rows)
    assert csv_rows[0]["speedup_pct"] == str(reference_rows[0]["speedup_pct"])
