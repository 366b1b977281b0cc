"""The ``tictac-repro`` command-line layer.

Scenarios are declarative data in the :mod:`repro.api` registry,
executed by one generic engine; this package is the thin CLI shell over
that facade (``python -m repro.experiments`` / the ``tictac-repro``
console script). Programmatic use goes through :mod:`repro.api`::

    from repro.api import execute_scenario, make_context

    with make_context(full=False) as ctx:
        rs = execute_scenario(ctx, "fig7")
        rs.save(ctx.results_dir)
"""
