"""The ``tictac-repro`` command-line layer.

Scenarios are declarative data in the :mod:`repro.api` registry,
executed by one generic engine; this package is the thin CLI shell over
that facade (``python -m repro.experiments`` / the ``tictac-repro``
console script). Programmatic use goes through :mod:`repro.api`::

    from repro.api import Session

    with Session(scale="quick") as session:
        rs = session.run("fig7")
        rs.save("results")
"""
