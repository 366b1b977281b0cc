"""Trace-driven cluster-scale workload replay (ISSUE 10).

The ROADMAP's "simulate a day of a 1000-job cluster on a laptop" item:
this package replays realistic job mixes — synthetic or loaded from
Alibaba-GPU-2020-style CSV traces — through the multi-job engine with
*dynamic admission*: jobs arrive during the replay, queue when the
cluster is full, and are admitted by a pluggable policy (FIFO or
backfill) as departures free slots. Per-job results stream into a
chunked :class:`~repro.replay.sink.RowSink` with incremental
aggregation, so million-row replays never hold rows in memory and a
killed replay resumes from its last committed chunk.

Layers (each its own module):

* :mod:`repro.replay.trace` — the :class:`JobTrace` schema, the seeded
  :class:`SyntheticTraceSpec` generator and the trace-generator
  (arrival-process) registry;
* :mod:`repro.replay.loader` — the Alibaba-style CSV loader;
* :mod:`repro.replay.admission` — the admission-policy registry;
* :mod:`repro.replay.engine` — the discrete-time epoch scheduler that
  chains :class:`~repro.sim.jobmix.JobMixSpec` compositions;
* :mod:`repro.replay.sink` / :mod:`repro.replay.aggregate` — streaming
  result sinks and the running percentile/fairness aggregation.

The API surface is :mod:`repro.api.replay_scenarios`: a
``ReplayScenario`` run through :func:`repro.api.execute_scenario`. The
registered ``cluster_day`` study and the ``tictac-repro replay``
subcommand, which builds one from its flags, both take that path.
"""

from .admission import (
    ADMISSIONS,
    AdmissionPolicy,
    UnknownAdmissionError,
    register_admission,
)
from .aggregate import P2Quantile, ReplayAggregate
from .engine import ReplayCluster, ReplayError, ReplayResult, replay
from .loader import load_alibaba_csv
from .sink import CsvChunkSink, ListSink, RowSink, SinkError
from .trace import (
    GENERATORS,
    JobTrace,
    SyntheticTraceSpec,
    TraceError,
    TraceGenerator,
    UnknownGeneratorError,
    generate_trace,
    register_generator,
)

__all__ = [
    "ADMISSIONS",
    "AdmissionPolicy",
    "CsvChunkSink",
    "GENERATORS",
    "JobTrace",
    "ListSink",
    "P2Quantile",
    "ReplayAggregate",
    "ReplayCluster",
    "ReplayError",
    "ReplayResult",
    "RowSink",
    "SinkError",
    "SyntheticTraceSpec",
    "TraceError",
    "TraceGenerator",
    "UnknownAdmissionError",
    "UnknownGeneratorError",
    "generate_trace",
    "load_alibaba_csv",
    "register_admission",
    "register_generator",
    "replay",
]
