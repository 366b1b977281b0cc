"""Scenario registry at micro scale: every table/figure regenerates."""

import os

import pytest

from repro.api import (
    Context,
    Scale,
    execute_scenario,
    make_context,
    scenario,
    scenario_names,
)
from repro.backends import make_spec
from repro.experiments.cli import main
from repro.sweep.spec import ps_for_workers

MICRO = Scale(
    name="micro",
    models=("AlexNet v2",),
    worker_counts=(2,),
    ps_counts=(1,),
    iterations=2,
    warmup=0,
    consistency_runs=12,
    loss_iterations=20,
)


@pytest.fixture
def ctx(tmp_path):
    return Context(scale=MICRO, results_dir=str(tmp_path), verbose=False)


def test_make_context_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert make_context().scale.name == "quick"
    monkeypatch.setenv("REPRO_SCALE", "full")
    assert make_context().scale.name == "full"
    assert make_context(full=False).scale.name == "quick"


def test_ps_for_workers_ratio():
    assert [ps_for_workers(w) for w in (1, 2, 4, 8, 16)] == [1, 1, 1, 2, 4]


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_scenario_produces_rows_and_csv(ctx, name):
    out = execute_scenario(ctx, scenario(name))
    assert out.rows, f"{name} produced no rows"
    paths = out.save(ctx.results_dir)
    assert os.path.exists(paths[out.name])
    assert out.text
    assert out.provenance.scenario == name


def test_table1_rows_cover_all_models(ctx):
    out = execute_scenario(ctx, "table1")
    assert len(out.rows) == 10
    assert all("params" in r and "ops_inf" in r for r in out.rows)


def test_fig8_reports_identical_curves(ctx):
    out = execute_scenario(ctx, "fig8")
    assert out.extras["identical"] is True


def test_fig12_extras_have_fit(ctx):
    out = execute_scenario(ctx, "fig12")
    assert 0.0 <= out.extras["r2"] <= 1.0
    assert out.extras["p95_tac"] >= out.extras["p95_baseline"]


# -- make_spec error paths ---------------------------------------------

def test_make_spec_unknown_backend_lists_available():
    with pytest.raises(KeyError, match="unknown communication backend"):
        make_spec("carrier-pigeon", n_workers=2)
    with pytest.raises(KeyError, match="allreduce"):
        make_spec("carrier-pigeon", n_workers=2)


def test_make_spec_bad_kwargs_names_accepted_fields():
    with pytest.raises(TypeError) as exc:
        make_spec("ps", n_workers=2, warp_drive=9)
    message = str(exc.value)
    assert "invalid arguments for backend 'ps'" in message
    assert "ClusterSpec" in message
    # the spec type's accepted fields are spelled out
    assert "n_workers" in message and "n_ps" in message and "workload" in message


def test_make_spec_bad_kwargs_collective_backend():
    with pytest.raises(TypeError, match="partition_bytes"):
        make_spec("allreduce", n_workers=2, topology="ring", chunx=1)


def test_make_spec_valid_specs_still_build():
    assert make_spec("ps", n_workers=4, n_ps=1).n_workers == 4
    spec = make_spec("allreduce", n_workers=4, topology="ring")
    assert spec.topology == "ring"


# -- the deprecated driver layer stays deleted --------------------------

def test_driver_shims_are_gone():
    """The legacy ``repro.experiments.<driver>.run(ctx)`` modules were
    deprecated for a release and then removed; scenarios are reachable
    only through the registry/engine (and the CLI shell over it)."""
    import importlib

    for name in ("table1", "fig7", "allreduce", "_shim"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.experiments.{name}")


# -- CLI ----------------------------------------------------------------

def test_cli_runs_selected_scenario(tmp_path, capsys):
    rc = main(["table1", "--results-dir", str(tmp_path), "--quiet"])
    assert rc == 0
    assert os.path.exists(os.path.join(tmp_path, "table1_models.csv"))


def test_cli_rejects_unknown_scenario_with_suggestion(capsys):
    with pytest.raises(SystemExit):
        main(["figure99"])
    err = capsys.readouterr().err
    assert "unknown scenario" in err


def test_cli_suggests_near_matches(capsys):
    with pytest.raises(SystemExit):
        main(["fig77"])
    err = capsys.readouterr().err
    assert "did you mean" in err and "fig7" in err


def test_cli_rejects_unknown_name_even_alongside_all(capsys):
    # regression: 'all' must not swallow misspelled scenario names
    with pytest.raises(SystemExit):
        main(["all", "fig77"])
    err = capsys.readouterr().err
    assert "unknown scenario" in err and "fig77" in err


def test_cli_list_enumerates_surface(capsys):
    rc = main(["list"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out
    assert "allreduce_comparison.csv" in out
    assert "ps" in out and "allreduce" in out  # backends
    assert "trace exporters" in out
    assert "platforms" in out


def test_cli_list_is_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["list", "table1"])
