"""Size-capped LRU eviction for the sweep result cache."""

from __future__ import annotations

import os

import pytest

from repro.api import Context, make_context
from repro.experiments import cli
from repro.sweep.cache import ResultCache, cache_key
from repro.sweep.runner import SweepRunner


def fill(cache: ResultCache, n: int, payload_bytes: int = 200) -> list[str]:
    """Create n entries with strictly increasing mtimes; returns keys in
    oldest-first order."""
    keys = []
    for i in range(n):
        key = cache_key(f"entry-{i}")
        cache.put(key, {"value": "x" * payload_bytes, "i": i})
        os.utime(cache.path(key), (1_000_000 + i, 1_000_000 + i))
        keys.append(key)
    return keys


def entry_size(cache: ResultCache, key: str) -> int:
    return os.stat(cache.path(key)).st_size


def test_gc_evicts_oldest_first(tmp_path):
    cache = ResultCache(str(tmp_path))
    keys = fill(cache, 6)
    size = entry_size(cache, keys[0])
    summary = cache.gc(max_bytes=3 * size)
    assert summary["entries_removed"] == 3
    assert summary["entries_kept"] == 3
    for key in keys[:3]:
        assert key not in cache
    for key in keys[3:]:
        assert key in cache


def test_gc_noop_under_cap(tmp_path):
    cache = ResultCache(str(tmp_path))
    keys = fill(cache, 3)
    summary = cache.gc(max_bytes=10 * entry_size(cache, keys[0]))
    assert summary["entries_removed"] == 0
    assert cache.entry_count() == 3


def test_gc_zero_cap_empties_cache_and_prunes_dirs(tmp_path):
    cache = ResultCache(str(tmp_path))
    fill(cache, 4)
    summary = cache.gc(max_bytes=0)
    assert summary["entries_kept"] == 0
    assert cache.entry_count() == 0
    # fan-out subdirectories are pruned, the root survives
    assert os.path.isdir(cache.root)
    assert os.listdir(cache.root) == []


def test_get_refreshes_recency(tmp_path):
    """A cache hit bumps the entry to most-recently-used: LRU, not FIFO."""
    cache = ResultCache(str(tmp_path))
    keys = fill(cache, 4)
    assert cache.get(keys[0]) is not None  # touch the oldest
    size = entry_size(cache, keys[0])
    cache.gc(max_bytes=2 * size)
    assert keys[0] in cache  # survived: recently used
    assert keys[1] not in cache and keys[2] not in cache


def test_gc_removes_stale_tmp_files(tmp_path):
    cache = ResultCache(str(tmp_path))
    fill(cache, 1)
    stale = tmp_path / "ab" / ".tmp-crashed.json"
    stale.parent.mkdir(exist_ok=True)
    stale.write_text("{}")
    cache.gc(max_bytes=10**9)
    assert not stale.exists()


def test_sweep_runner_gc_passthrough(tmp_path):
    runner = SweepRunner(cache_dir=str(tmp_path / "cache"))
    fill(runner._cache, 3, payload_bytes=2**20)  # ~1 MiB each
    summary = runner.gc_cache(max_mb=1.5)
    assert summary["entries_removed"] == 2
    assert SweepRunner(cache_dir=None).gc_cache(max_mb=1) is None


def test_context_cap_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "12.5")
    ctx = make_context(results_dir=str(tmp_path))
    assert ctx.cache_max_mb == 12.5
    monkeypatch.delenv("REPRO_CACHE_MAX_MB")
    assert make_context(results_dir=str(tmp_path)).cache_max_mb is None


def test_context_close_applies_the_cap(tmp_path):
    """Leaving a context evicts down to its cap, then releases the pool;
    a context without a cap keeps every entry."""
    cache = ResultCache(str(tmp_path / ".sweep-cache"))
    keys = fill(cache, 4, payload_bytes=2**20)
    with Context(results_dir=str(tmp_path), verbose=False):
        pass
    assert cache.entry_count() == 4
    with Context(
        results_dir=str(tmp_path), cache_max_mb=2.5, verbose=False
    ) as ctx:
        ctx.sweep  # a live runner, released after the eviction
    assert ctx._sweep is None
    assert cache.entry_count() == 2
    assert keys[-1] in cache


def test_cli_cache_gc_entry_point(tmp_path, capsys):
    """`repro experiments --cache-gc` works with no experiments named and
    empties the cache when no cap is configured."""
    cache = ResultCache(str(tmp_path / ".sweep-cache"))
    fill(cache, 3)
    rc = cli.main(["--cache-gc", "--results-dir", str(tmp_path)])
    assert rc == 0
    assert cache.entry_count() == 0
    assert "sweep cache gc" in capsys.readouterr().out


def test_cli_cache_gc_respects_cap(tmp_path):
    cache = ResultCache(str(tmp_path / ".sweep-cache"))
    keys = fill(cache, 4, payload_bytes=2**20)
    rc = cli.main(
        ["--cache-gc", "--results-dir", str(tmp_path), "--cache-max-mb", "2.5",
         "--quiet"]
    )
    assert rc == 0
    assert cache.entry_count() == 2
    assert keys[-1] in cache


def test_cli_requires_experiment_or_gc(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["--results-dir", str(tmp_path)])


@pytest.mark.parametrize("cap", ["-1", "nan", "inf"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_invalid_cache_cap_fails_before_any_work(tmp_path, monkeypatch, capsys,
                                                 cap, via):
    """A negative, NaN or infinite cap is a usage error (exit 2) raised
    where the context is built — no scenario runs and no CSV is written."""
    argv = ["table1", "stragglers", "--results-dir", str(tmp_path), "--quiet"]
    if via == "flag":
        argv += ["--cache-max-mb", cap]
    else:
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", cap)
        with pytest.raises(ValueError, match="finite number >= 0"):
            make_context(results_dir=str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "cache_max_mb must be a finite number >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    if via == "env":  # the replay subcommand builds its context the same way
        with pytest.raises(SystemExit) as exc:
            cli.main(["replay", "--n-jobs", "3", "--results-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []
