"""The Context/Scenario facade: validation, registry, execution, results."""

import csv

import pytest

from repro.api import (
    Report,
    Scenario,
    ScenarioError,
    ScenarioRun,
    UnknownScenarioError,
    execute_scenario,
    iter_scenarios,
    make_context,
    scenario,
    scenario_names,
)
from repro.api.context import FULL, QUICK, Context, Scale
from repro.registry import UnknownNameError
from repro.sim.engine import ENGINE_REV
from repro.sweep import GridSpec, SweepRunner

MICRO = Scale(
    name="micro",
    models=("AlexNet v2",),
    worker_counts=(2,),
    ps_counts=(1,),
    iterations=2,
    warmup=0,
    consistency_runs=8,
    loss_iterations=10,
)


@pytest.fixture
def ctx(tmp_path):
    return Context(scale=MICRO, results_dir=str(tmp_path), verbose=False)


def _tiny(run):
    return Report(rows=[{"p": run.param("p")}], text="tiny")


# ----------------------------------------------------------------------
# Validation (construction fails fast, names spelled out)
# ----------------------------------------------------------------------

def test_scenario_rejects_unknown_backend():
    with pytest.raises(ScenarioError, match="unknown communication backend"):
        Scenario(name="x", title="x", output="x", analyze=_tiny,
                 backends=("carrier-pigeon",))


def test_scenario_rejects_unknown_platform():
    with pytest.raises(UnknownNameError) as exc:
        GridSpec(models=("AlexNet v2",), platforms=("envX",))
    assert str(exc.value).startswith("unknown platform 'envX'; available: ")
    assert "did you mean 'envG' or 'envC'?" in str(exc.value)


def test_scenario_rejects_unknown_model():
    with pytest.raises(UnknownNameError) as exc:
        GridSpec(models=("AlexNet v2", "AlexNet v3"))
    assert str(exc.value).startswith("unknown model 'AlexNet v3'; available: ")
    assert "did you mean 'AlexNet v2'" in str(exc.value)


def test_scenario_rejects_unknown_algorithm():
    with pytest.raises(ValueError) as exc:
        GridSpec(models=("AlexNet v2",), algorithms=("tic", "tacc"))
    assert str(exc.value).startswith("unknown algorithm 'tacc'; one of (")
    assert "did you mean 'tac'" in str(exc.value)


def test_bind_rejects_unknown_override():
    sc = scenario("fig7")
    with pytest.raises(ScenarioError, match="accepts no parameter"):
        sc.bind(warp=9)


def test_bind_validates_model_and_algorithm_values():
    with pytest.raises(ScenarioError, match="unknown model"):
        scenario("fig12").bind(model="SkyNet v1")
    with pytest.raises(ScenarioError, match="unknown algorithm"):
        scenario("fig7").bind(algorithm="chaos")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_covers_every_table_and_figure():
    names = scenario_names()
    assert names == (
        "table1", "motivation", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig13", "headline", "ablations", "stragglers",
        "fault_resilience", "pipelining", "allreduce", "jobmix_contention",
        "jobmix_crosstalk", "jobmix_starvation", "cluster_day",
    )


def test_unknown_scenario_suggests_near_matches():
    with pytest.raises(UnknownScenarioError) as exc:
        scenario("fig77")
    assert "did you mean" in str(exc.value)
    assert "fig7" in str(exc.value)


def test_register_scenario_makes_it_runnable(ctx):
    sc = Scenario(
        name="_test_tiny", title="t", output="_test_tiny",
        analyze=_tiny, backends=(), params=(("p", 1),),
    )
    out = execute_scenario(ctx, sc, p=7)
    assert out.rows == [{"p": 7}]


# ----------------------------------------------------------------------
# Cell functions: the grid each study sweeps, and nothing else
# ----------------------------------------------------------------------

def _run(sc, scale=MICRO, **overrides) -> ScenarioRun:
    ctx = Context(scale=scale, verbose=False)
    return ScenarioRun(ctx=ctx, scenario=sc, params=sc.bind(**overrides))


def test_fig7_grid_resolution_matches_legacy_gridspec(ctx):
    sc = scenario("fig7")
    cells = sc.cells(ScenarioRun(ctx=ctx, scenario=sc, params=sc.bind()))
    # the grid the deleted fig7 driver built, spelled out
    legacy = GridSpec(
        models=ctx.scale.models,
        workloads=("inference", "training"),
        worker_counts=ctx.scale.worker_counts,
        ps_from_workers=True,
        algorithms=("tic",),
        platforms=("envG",),
    ).cells(ctx.sim_config())
    assert cells == legacy


def test_fig9_quick_clamp_only_applies_at_quick_scale():
    sc = scenario("fig9")
    quick_cells = sc.cells(_run(sc, QUICK))
    assert {c.spec.n_workers for c in quick_cells} == {8}
    micro_cells = sc.cells(_run(sc, MICRO))
    assert {c.spec.n_workers for c in micro_cells} == {8}  # 'micro' != 'quick'
    quick_16 = sc.cells(_run(sc, QUICK, n_workers=16))
    assert {c.spec.n_workers for c in quick_16} == {8}  # clamped


class _Stop(Exception):
    pass


class _RecordingRunner(SweepRunner):
    """Records the first batch of cells an analysis submits, then stops
    the analysis before anything is simulated."""

    batch = None

    def run_cells(self, cells):
        self.batch = list(cells)
        raise _Stop


#: scenarios whose analysis pairs every cell with its baseline twin
SPEEDUP_SCENARIOS = {"fig7", "fig9", "fig10", "fig13", "headline"}


@pytest.mark.parametrize(
    "name", [sc.name for sc in iter_scenarios() if sc.cells is not None]
)
def test_cells_are_what_the_analysis_sweeps(name):
    """``trace`` picks from ``cells``; the analysis must sweep exactly
    those cells, in that order."""
    sc = scenario(name)
    run = _run(sc)
    runner = run.ctx._sweep = _RecordingRunner(jobs=1, cache_dir=None)
    with pytest.raises(_Stop):
        sc.analyze(run)
    expected = sc.cells(run)
    if name in SPEEDUP_SCENARIOS:
        expected = [
            twin
            for cell in expected
            for twin in (cell.with_(algorithm="baseline"), cell)
        ]
    assert expected and runner.batch == expected


# ----------------------------------------------------------------------
# ResultSet: schema, round-trip, provenance
# ----------------------------------------------------------------------

def test_resultset_schema_and_table(ctx):
    out = execute_scenario(ctx, "table1")
    assert out.schema[:2] == ("model", "params")
    assert "params_paper" in out.to_table()
    assert len(out) == len(out.rows)


def test_resultset_csv_round_trip(ctx, tmp_path):
    out = execute_scenario(ctx, "table1")
    paths = out.save(str(tmp_path))
    with open(paths[out.name], newline="") as fh:
        reread = list(csv.DictReader(fh))
    # DictWriter stringifies values; the round trip must preserve every
    # cell and the column order exactly.
    expected = [{k: str(v) for k, v in row.items()} for row in out.rows]
    assert reread == expected
    assert tuple(reread[0].keys()) == out.schema


def test_resultset_aux_tables_and_save_aliases(ctx, tmp_path):
    import os

    out = execute_scenario(ctx, "allreduce")
    assert set(out.tables) == {"allreduce_wire_check", "allreduce_vs_ps"}
    assert out.table_names()[0] == "allreduce_comparison"
    with pytest.raises(KeyError, match="no table"):
        out.to_table("nope")
    paths = out.save(str(tmp_path))
    assert list(paths) == list(out.table_names())
    assert os.path.exists(paths["allreduce_wire_check"])
    assert paths["allreduce_vs_ps"] == str(tmp_path / "allreduce_vs_ps.csv")


def test_resultset_frame_is_columnar(ctx):
    out = execute_scenario(ctx, "table1")
    frame = out.frame()
    # no pandas in the test environment -> plain columnar dict
    assert isinstance(frame, dict)
    assert list(frame) == list(out.schema)
    assert len(frame["model"]) == len(out.rows)


def test_provenance_fields(ctx):
    out = execute_scenario(ctx, "stragglers")
    prov = out.provenance
    assert prov.scenario == "stragglers"
    assert prov.scale == "micro"
    assert prov.seed == 0 and prov.jobs == 1
    assert prov.engine_rev == ENGINE_REV
    assert prov.elapsed_s > 0
    assert set(prov.cache) == {"hits", "misses", "writes"}
    assert prov.cache["misses"] > 0  # cold cache: everything simulated
    d = prov.as_dict()
    assert d["scenario"] == "stragglers" and d["engine_rev"] == ENGINE_REV


def test_provenance_reports_cache_hits_on_rerun(tmp_path):
    ctx = Context(scale=MICRO, results_dir=str(tmp_path), verbose=False)
    cold = execute_scenario(ctx, "stragglers")
    warm = execute_scenario(ctx, "stragglers")
    assert cold.provenance.cache["misses"] > 0
    assert warm.provenance.cache["misses"] == 0
    assert warm.provenance.cache["hits"] > 0
    assert warm.rows == cold.rows


# ----------------------------------------------------------------------
# Context lifecycle
# ----------------------------------------------------------------------

def test_session_runs_by_name_and_closes(tmp_path):
    with Context(scale=MICRO, results_dir=str(tmp_path)) as ctx:
        out = execute_scenario(ctx, "table1")
        assert out.rows
        assert ctx.scale.name == "micro"
        runner = ctx.sweep
    # __exit__ released the runner
    assert ctx._sweep is None
    assert runner._pool is None


def test_fresh_process_can_reference_builtin_analyses():
    """Whatever module a process imports first, every built-in scenario is
    registered, in presentation order, before any lookup can run —
    ``repro.api`` imports the three scenario modules itself."""
    import os
    import pathlib
    import subprocess
    import sys

    repo_root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for first in ("repro.api.registry", "repro.obs.capture"):
        script = (
            f"import {first}\n"
            "from repro.api.registry import scenario_names\n"
            "print(','.join(scenario_names()))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo_root,
        )
        assert proc.returncode == 0, proc.stderr
        assert tuple(proc.stdout.strip().split(",")) == scenario_names(), first


def test_session_explicit_cache_dir_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    with make_context(
        results_dir=str(tmp_path), cache_dir=str(tmp_path / "c"), use_cache=True
    ) as ctx:
        assert ctx.use_cache is True
        assert ctx.cache_dir == str(tmp_path / "c")
        assert ctx.sweep.cache_dir == str(tmp_path / "c")
    with make_context(results_dir=str(tmp_path)) as ctx:
        # without an explicit choice the ambient env toggle still applies
        assert ctx.use_cache is False


def test_session_named_scales_and_overrides(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    ctx = make_context(full=False, results_dir=str(tmp_path), use_cache=False)
    try:
        assert ctx.scale.name == "quick"
        assert ctx.use_cache is False
    finally:
        ctx.close()
    assert make_context(full=True).scale is FULL
    # full=None consults $REPRO_SCALE, like the CLI
    assert make_context(full=None).scale is QUICK
    monkeypatch.setenv("REPRO_SCALE", "full")
    assert make_context(full=None).scale is FULL


def test_session_run_all_subset(tmp_path):
    with Context(scale=MICRO, results_dir=str(tmp_path)) as ctx:
        results = {
            name: execute_scenario(ctx, name)
            for name in ["table1", "stragglers"]
        }
        assert list(results) == ["table1", "stragglers"]
        assert all(rs.rows for rs in results.values())
        paths = results["stragglers"].save(ctx.results_dir)
        assert paths["straggler_decomposition"].startswith(str(tmp_path))


def test_session_scenarios_listing():
    assert "fig7" in scenario_names()


def test_quarantined_extras_carry_cell_params():
    """A quarantined cell's row names the exact simulation point that was
    lost — model/algorithm/platform plus the bound spec and config params —
    so a failed sweep can be re-run surgically from the CSV alone."""
    from repro.api.engine import _quarantined_row
    from repro.ps import ClusterSpec
    from repro.sim import SimConfig
    from repro.sweep.spec import SimCell

    cell = SimCell(
        model="AlexNet v2", spec=ClusterSpec(4, 2, "training"),
        algorithm="tic", platform="envC", batch_factor=2.0,
        config=SimConfig(seed=13),
    )
    row = _quarantined_row(cell, "boom: worker died")
    assert row["model"] == "AlexNet v2"
    assert row["algorithm"] == "tic"
    assert row["platform"] == "envC"
    assert row["workers"] == 4
    assert row["ps"] == 2
    assert row["workload"] == "training"
    assert row["batch_factor"] == 2.0
    assert row["seed"] == 13
    assert row["error"] == "boom: worker died"
    # a malformed cell still yields a schema-complete row
    sparse = _quarantined_row(object(), "late failure")
    assert sparse["model"] == "" and sparse["error"] == "late failure"
