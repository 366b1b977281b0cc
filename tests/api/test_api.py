"""The Session/Scenario facade: validation, registry, execution, results."""

import csv

import pytest

from repro.api import (
    Grid,
    Scenario,
    ScenarioError,
    Session,
    UnknownScenarioError,
    execute_scenario,
    register_analysis,
    scenario,
    scenario_names,
)
from repro.api.context import Context, Scale
from repro.sim.engine import ENGINE_REV

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


# ----------------------------------------------------------------------
# Scenario validation (construction fails fast, names spelled out)
# ----------------------------------------------------------------------

def test_scenario_rejects_unknown_backend():
    with pytest.raises(ScenarioError, match="unknown communication backend"):
        Scenario(name="x", title="x", output="x", analyze="table1",
                 backends=("carrier-pigeon",))


def test_scenario_rejects_unknown_platform():
    with pytest.raises(ScenarioError, match="unknown platform"):
        Scenario(name="x", title="x", output="x", analyze="table1",
                 grid=Grid(platforms=("envZ",)))


def test_scenario_rejects_unknown_model():
    with pytest.raises(ScenarioError, match="unknown model"):
        Scenario(name="x", title="x", output="x", analyze="table1",
                 grid=Grid(models=("SkyNet v1",)))


def test_scenario_rejects_unknown_algorithm():
    with pytest.raises(ScenarioError, match="unknown algorithm"):
        Scenario(name="x", title="x", output="x", analyze="table1",
                 grid=Grid(algorithms=("chaos",)))


def test_scenario_rejects_unregistered_analysis():
    with pytest.raises(ScenarioError, match="unregistered analysis"):
        Scenario(name="x", title="x", output="x", analyze="no-such-callback")


def test_grid_rejects_undeclared_param_reference():
    with pytest.raises(ScenarioError, match="does not declare"):
        Scenario(
            name="x", title="x", output="x", analyze="table1",
            grid=Grid(algorithms=("$algorithm",)),  # no params declared
        )


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
    @register_analysis("_test_tiny")
    def _tiny(run):
        from repro.api import Report

        return Report(rows=[{"p": run.param("p")}], text="tiny")

    sc = Scenario(
        name="_test_tiny", title="t", output="_test_tiny",
        analyze="_test_tiny", backends=(), params=(("p", 1),),
    )
    out = execute_scenario(ctx, sc, p=7)
    assert out.rows == [{"p": 7}]


# ----------------------------------------------------------------------
# Grid resolution mirrors the legacy drivers exactly
# ----------------------------------------------------------------------

def test_fig7_grid_resolution_matches_legacy_gridspec(ctx):
    from repro.api.scenarios import FIG7_GRID
    from repro.sweep import GridSpec

    sc = scenario("fig7")
    cells = sc.grid.resolve(ctx.scale, sc.bind(), ctx.sim_config)
    # the grid the deleted fig7 driver built, spelled out
    legacy = GridSpec(
        models=ctx.scale.models,
        workloads=FIG7_GRID.workloads,
        worker_counts=ctx.scale.worker_counts,
        ps_from_workers=True,
        algorithms=("tic",),
        platforms=FIG7_GRID.platforms,
    ).cells(ctx.sim_config())
    assert cells == legacy


def test_fig9_quick_clamp_only_applies_at_quick_scale():
    from repro.api.context import QUICK

    sc = scenario("fig9")
    quick_cells = sc.grid.resolve(QUICK, sc.bind(), lambda **kw: None)
    assert {c.spec.n_workers for c in quick_cells} == {8}
    micro_cells = sc.grid.resolve(MICRO, sc.bind(), lambda **kw: None)
    assert {c.spec.n_workers for c in micro_cells} == {8}  # 'micro' != 'quick'
    quick_16 = sc.grid.resolve(QUICK, sc.bind(n_workers=16), lambda **kw: None)
    assert {c.spec.n_workers for c in quick_16} == {8}  # clamped


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
# Session lifecycle
# ----------------------------------------------------------------------

def test_session_runs_by_name_and_closes(tmp_path):
    with Session(scale=MICRO, results_dir=str(tmp_path)) as session:
        out = session.run("table1")
        assert out.rows
        assert session.scale.name == "micro"
        runner = session.sweep
    # __exit__ released the runner
    assert session.context._sweep is None
    assert runner._pool is None


def test_fresh_process_can_reference_builtin_analyses():
    """Scenario construction must load the built-in callbacks itself —
    it cannot rely on something else having touched the registry first
    (regression: has_analysis skipped default loading, so constructing a
    Scenario in a fresh process spuriously rejected 'table1')."""
    import os
    import pathlib
    import subprocess
    import sys

    repo_root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    script = (
        "from repro.api import Scenario\n"
        "Scenario(name='x', title='x', output='x', analyze='table1',\n"
        "         backends=())\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=repo_root,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_session_explicit_cache_dir_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    with Session(
        scale=MICRO, results_dir=str(tmp_path), cache=str(tmp_path / "c")
    ) as session:
        assert session.context.use_cache is True
        assert session.context.cache_dir == str(tmp_path / "c")
    with Session(scale=MICRO, results_dir=str(tmp_path)) as session:
        # the default (cache=True) still honours the ambient env toggle
        assert session.context.use_cache is False


def test_session_named_scales_and_overrides(tmp_path):
    session = Session(scale="quick", results_dir=str(tmp_path), cache=False)
    try:
        assert session.scale.name == "quick"
        assert session.context.use_cache is False
    finally:
        session.close()
    with pytest.raises(ValueError, match="unknown scale"):
        Session(scale="humongous")


def test_session_run_all_subset(tmp_path):
    with Session(scale=MICRO, results_dir=str(tmp_path)) as session:
        results = session.run_all(["table1", "stragglers"])
        assert list(results) == ["table1", "stragglers"]
        assert all(rs.rows for rs in results.values())
        paths = session.save(results["stragglers"])
        assert paths["straggler_decomposition"].startswith(str(tmp_path))


def test_session_scenarios_listing(tmp_path):
    with Session(scale=MICRO, results_dir=str(tmp_path)) as session:
        assert "fig7" in session.scenarios()


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
