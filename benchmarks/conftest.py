"""Benchmark-suite configuration.

Every paper table/figure has one bench module. Each bench (a) times the
experiment driver (or a representative slice of it) with pytest-benchmark
and (b) prints/persists the regenerated rows so the run doubles as a
results artifact. Set ``REPRO_SCALE=full`` for the paper-scale protocol;
the default quick scale keeps the whole suite in minutes.

Drivers submit their grids to the sweep runner, so ``REPRO_JOBS=N`` fans
simulations out across N processes and a warm ``results/.sweep-cache``
turns re-runs into cache reads (delete it or set ``REPRO_NO_CACHE=1``
to time cold simulations).

Artifacts land in ``results/`` (CSV) — the ``paper_pct`` column of
``results/headline.csv`` is the paper-vs-measured read-out of a run.
"""

from __future__ import annotations

import pytest

from repro.api import execute_scenario, make_context


@pytest.fixture(scope="session")
def ctx():
    """Shared experiment context for the whole benchmark session."""
    return make_context(verbose=False)


@pytest.fixture(scope="session")
def run_scenario(ctx):
    """Execute a registry scenario through the repro.api engine and
    persist its CSVs under ``results/`` — what the deprecated
    ``experiments.<driver>.run(ctx)`` entries used to do."""

    def run(name: str, **overrides):
        out = execute_scenario(ctx, name, **overrides)
        out.save(ctx.results_dir)
        return out

    return run


@pytest.fixture(scope="session")
def results():
    """Mutable session store so benches can cross-check one another."""
    return {}
