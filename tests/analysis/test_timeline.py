"""Timeline rendering (ASCII Gantt)."""

import pytest

from repro.analysis import ascii_gantt
from repro.ps import ClusterSpec, build_cluster_graph
from repro.sim import CompiledCore, SimConfig, SimVariant

from ..conftest import tiny_model
from ..sim.test_engine import FLAT


@pytest.fixture(scope="module")
def run():
    cluster = build_cluster_graph(tiny_model(), ClusterSpec(2, 1, "training"))
    sim = SimVariant(CompiledCore(cluster, FLAT), None, SimConfig(iterations=1))
    return sim, sim.run_iteration(0)


def test_gantt_has_all_busy_resources(run):
    sim, record = run
    text = ascii_gantt(sim, record)
    assert "compute:worker:0" in text
    assert "nic_out:ps:0" in text
    assert "makespan" in text.splitlines()[0]
    assert "#" in text


def test_gantt_resource_filter(run):
    sim, record = run
    text = ascii_gantt(sim, record, resources=["compute:worker:0"])
    assert "compute:worker:0" in text
    assert "nic_out:ps:0" not in text


def test_gantt_width_respected(run):
    sim, record = run
    text = ascii_gantt(sim, record, width=40)
    bars = [l for l in text.splitlines()[1:]]
    assert all(l.count("|") == 2 for l in bars)
    inner = bars[0].split("|")[1]
    assert len(inner) == 40
