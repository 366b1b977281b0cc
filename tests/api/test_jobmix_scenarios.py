"""Job-mix scenarios: registry integration, metrics, acceptance bars."""

from __future__ import annotations

import os

import pytest

from repro.api import (
    Context,
    JobMixScenario,
    Scale,
    execute_scenario,
    scenario,
)
from repro.api.jobmix_scenarios import (
    CONTENTION_MIX,
    CROSSTALK_MIX,
    _jain,
    _jobmix,
)
from repro.sim import JobSpec

MICRO = Scale(
    name="micro",
    models=("AlexNet v2",),
    worker_counts=(2,),
    ps_counts=(1,),
    iterations=2,
    warmup=1,
    consistency_runs=12,
    loss_iterations=20,
)


@pytest.fixture
def ctx(tmp_path):
    return Context(scale=MICRO, results_dir=str(tmp_path), verbose=False)


def test_jain_index_bounds():
    assert _jain([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert _jain([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
    assert _jain([]) == 1.0


def test_jobmix_scenario_helper_surface():
    assert CONTENTION_MIX.all_placements() == ("dedicated", "packed", "spread")
    assert CONTENTION_MIX.hosts_used("dedicated") == 6
    assert CONTENTION_MIX.hosts_used("packed") == 3
    assert CONTENTION_MIX.hosts_used("spread") == 6
    cells = CONTENTION_MIX.cells(None)
    assert len(cells) == 3  # one algorithm x three placements
    assert {c.spec.placement for c in cells} == {"dedicated", "packed", "spread"}


def test_contention_scenario_meets_acceptance_bar(ctx):
    """The PR's acceptance criterion: the contended (packed) makespan
    strictly exceeds each job's dedicated makespan on the contention
    platform, and the CSVs carry per-job JCT/slowdown + fairness."""
    out = execute_scenario(ctx, "jobmix_contention")
    rows = out.rows
    summary = out.tables["jobmix_contention_summary"]

    by_pl = {r["placement"]: r for r in summary}
    packed = by_pl["packed"]
    # strict domination of every job's dedicated completion
    for r in rows:
        if r["placement"] == "dedicated":
            dedicated_finish = r["dedicated_jct_s"] + r["arrival_s"]
            assert packed["makespan_s"] > dedicated_finish
    # the late arrival is the one paying the contention tax
    packed_rows = {r["job"]: r for r in rows if r["placement"] == "packed"}
    assert packed_rows["j1"]["slowdown"] > 1.02
    # spread (one host per device) recovers dedicated behaviour
    assert by_pl["spread"]["stretch"] == pytest.approx(1.0, abs=0.01)
    assert by_pl["dedicated"]["stretch"] == 1.0
    for r in summary:
        assert 1.0 / len(CONTENTION_MIX.jobs) <= r["jain_fairness"] <= 1.0

    paths = out.save(ctx.results_dir)
    assert os.path.exists(paths["jobmix_contention"])
    assert os.path.exists(paths["jobmix_contention_summary"])


def test_crosstalk_scenario_scheduling_survives_contention(ctx):
    out = execute_scenario(ctx, "jobmix_crosstalk")
    rows = {(r["algorithm"], r["placement"], r["job"]): r for r in out.rows}
    # per-job dispatch ("mix") ran alongside the uniform algorithms
    assert ("mix", "packed", "j0") in rows
    # scheduling beats no scheduling for the big job even while contended
    assert (
        rows[("tic", "packed", "j0")]["jct_s"]
        < rows[("baseline", "packed", "j0")]["jct_s"]
    )
    # dedicated rows are the slowdown denominator: exactly 1.0
    for (alg, placement, job), r in rows.items():
        if placement == "dedicated":
            assert r["slowdown"] == 1.0


def test_scenario_registry_lists_jobmix_entries():
    sc = scenario("jobmix_contention")
    assert sc.backends == ("jobmix",)
    assert sc.analyze is _jobmix
    assert dict(scenario("jobmix_crosstalk").params)["mix"] is CROSSTALK_MIX


def test_custom_mix_through_generic_analysis(ctx):
    """A user-defined mix binds through the same scenario machinery."""
    custom = JobMixScenario(
        jobs=(
            JobSpec("AlexNet v2", n_workers=2, n_ps=1),
            JobSpec("AlexNet v2", n_workers=2, n_ps=1, arrival=6.0),
        ),
        placements=("rack_aware",),
        platform="envC",
        algorithms=("baseline",),
        n_hosts=8,
    )
    out = execute_scenario(ctx, "jobmix_contention", mix=custom)
    assert {r["placement"] for r in out.rows} == {"dedicated", "rack_aware"}


def test_cli_list_shows_placements_and_jobmix(capsys):
    from repro.experiments.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "placement policies" in out
    for name in ("dedicated", "packed", "spread", "rack_aware"):
        assert name in out
    assert "jobmix_contention" in out and "jobmix_crosstalk" in out
