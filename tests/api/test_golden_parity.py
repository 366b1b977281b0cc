"""Golden parity: ``execute_scenario`` reproduces the committed results CSVs
byte-for-byte for a quick-scale subset (the full set is verified by
``tictac-repro all --quick`` against ``results/`` — same engine, same
registry path)."""

from pathlib import Path

import pytest

from repro.api import execute_scenario, make_context

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO_ROOT / "results"

#: Cheap quick-scale scenarios whose committed CSVs we replay exactly.
PARITY = (
    ("table1", "table1_models"),
    ("stragglers", "straggler_decomposition"),
    ("pipelining", "pipelining_ablation"),
    # both simulate TAC from TIC's result where the two lower equally
    ("fig13", "fig13_tic_vs_tac"),
    ("fault_resilience", "fault_resilience"),
)


@pytest.fixture(scope="module")
def quick_ctx(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    with make_context(
        full=False, results_dir=str(tmp), use_cache=False, verbose=False
    ) as ctx:
        yield ctx


@pytest.mark.parametrize("name,output", PARITY)
def test_session_reproduces_committed_csv(quick_ctx, name, output):
    golden = GOLDEN_DIR / f"{output}.csv"
    assert golden.exists(), f"committed golden CSV missing: {golden}"
    rs = execute_scenario(quick_ctx, name)
    paths = rs.save(quick_ctx.results_dir)
    regenerated = Path(paths[output]).read_bytes()
    assert regenerated == golden.read_bytes(), (
        f"{output}.csv is no longer byte-identical through the scenario "
        f"path; if an engine/scenario change is intentional, regenerate "
        f"results/ with `tictac-repro all --quick --rerun`"
    )
