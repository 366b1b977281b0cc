"""SimConfig validation."""

import pytest

from repro.sim import SimConfig


def test_defaults_match_paper_protocol():
    cfg = SimConfig()
    assert cfg.enforcement == "sender"
    assert 0 < cfg.grpc_reorder_prob < 0.02


def test_invalid_enforcement():
    with pytest.raises(ValueError, match="enforcement"):
        SimConfig(enforcement="hope")


def test_invalid_reorder_prob():
    with pytest.raises(ValueError, match="reorder"):
        SimConfig(grpc_reorder_prob=1.5)


@pytest.mark.parametrize("sigma", [-0.05, float("nan"), float("inf")])
def test_invalid_jitter_sigma(sigma):
    with pytest.raises(ValueError, match="jitter_sigma"):
        SimConfig(jitter_sigma=sigma)


def test_invalid_iterations():
    with pytest.raises(ValueError):
        SimConfig(iterations=0)
    with pytest.raises(ValueError):
        SimConfig(warmup=-1)


def test_warmup_may_exceed_iterations():
    cfg = SimConfig(iterations=2, warmup=5)
    assert (cfg.warmup, cfg.iterations) == (5, 2)
    assert not hasattr(cfg, "total_iterations")


def test_invalid_chunk():
    with pytest.raises(ValueError, match="chunk"):
        SimConfig(chunk_bytes=0)


def test_with_override():
    cfg = SimConfig().with_(enforcement="dag", seed=9)
    assert cfg.enforcement == "dag" and cfg.seed == 9
    assert SimConfig().enforcement == "sender"
