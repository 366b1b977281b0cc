"""repro — a full reproduction of *TicTac: Accelerating Distributed Deep
Learning with Communication Scheduling* (Hashemi, Abdu Jyothi, Campbell;
MLSYS 2019).

Subpackages
-----------
``repro.graph``
    Computational-DAG substrate (ops, resources, partitions).
``repro.models``
    The ten Table-1 DNN architectures and their op-graph emission.
``repro.timing``
    Time oracles, tracing, and the envG/envC platform cost models.
``repro.ps``
    Parameter sharding and Model-Replica + Parameter-Server cluster graphs.
``repro.core``
    The paper's contribution: TIC/TAC priority assignment and the
    scheduling-efficiency theory (Eq. 1–4, Algorithms 1–3).
``repro.sim``
    Discrete-event execution engine with priority ready queues and
    sender-side transfer enforcement (the TensorFlow+gRPC stand-in).
``repro.training``
    Numeric data-parallel SGD substrate (Fig. 8's accuracy-preservation).
``repro.api``
    The stable public facade: ``Context``/``Scenario``/``ResultSet``, run
    by ``execute_scenario``, and the declarative scenario registry
    regenerating every table/figure.
``repro.experiments``
    The ``tictac-repro`` command-line shell over ``repro.api``.
``repro.analysis``
    Statistics helpers (regression, CDFs, summaries) and text rendering.
"""

__version__ = "1.0.0"

__all__ = ["__version__", "schedule_model", "simulate_cluster"]


def __getattr__(name):
    # Lazy convenience re-exports: keep `import repro` light while letting
    # `repro.schedule_model(...)` and friends work without deep imports.
    if name == "schedule_model":
        from .core.wizard import schedule_model

        return schedule_model
    if name == "simulate_cluster":
        from .sim.runner import simulate_cluster

        return simulate_cluster
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
