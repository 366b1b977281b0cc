"""The shipped examples must run to completion."""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
SRC = os.path.abspath(os.path.join(EXAMPLES, "..", "src"))


def run_example(name, *args, timeout=600):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def test_quickstart():
    proc = run_example("quickstart.py")
    assert proc.returncode == 0, proc.stderr
    assert "TAC transfer order: ['p1', 'p2']" in proc.stdout
    assert "speedup" in proc.stdout


@pytest.mark.slow
def test_rl_inference_agents():
    proc = run_example("rl_inference_agents.py")
    assert proc.returncode == 0, proc.stderr
    assert "tic" in proc.stdout


@pytest.mark.slow
def test_cloud_training_campaign():
    proc = run_example("cloud_training_campaign.py", "AlexNet v2")
    assert proc.returncode == 0, proc.stderr
    assert "Eq. 4" in proc.stdout


@pytest.mark.slow
def test_enforcement_tour():
    proc = run_example("enforcement_tour.py")
    assert proc.returncode == 0, proc.stderr
    assert "ready_queue" in proc.stdout


@pytest.mark.slow
def test_timeline_visualization(tmp_path):
    from repro.obs.export import validate_chrome_trace

    proc = run_example("timeline_visualization.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "chrome trace" in proc.stdout
    assert "tic: one inference iteration" in proc.stdout
    for label in ("baseline", "tic"):
        validate_chrome_trace(str(tmp_path / f"trace_{label}.json"))
