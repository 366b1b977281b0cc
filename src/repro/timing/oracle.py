"""Time oracles (§3.1, §5).

A *time oracle* predicts the execution time of an op: elapsed time on a
compute resource for computation ops, transfer time on the communication
medium for communication ops, assuming the resource is dedicated to the op.

Three oracles matter in the paper:

* the **general time oracle** of Eq. 5 (``TimeGeneral``): 1 for recv ops,
  0 for everything else — this is what TIC uses;
* the **estimated oracle** produced by the time-oracle estimator from
  tracing stats (min of 5 measured runs per op) — this is what TAC uses;
* the **ground truth** known only to the simulator (platform cost model
  plus per-run jitter) — what actually elapses.

Oracles are keyed by op *name* rather than op id so that an oracle fitted
on the reference worker partition can be transferred to the same-named ops
of every replica in a cluster graph.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Mapping, Union

import numpy as np

from ..graph import Graph, Op

#: Anything accepted where a time oracle is expected.
TimeOracleLike = Union["TimeOracle", Mapping[str, float], Callable[[Op], float]]


class TimeOracle:
    """Base class: callable mapping an :class:`~repro.graph.op.Op` to seconds."""

    def __call__(self, op: Op) -> float:
        raise NotImplementedError

    def vector(self, graph: Graph) -> np.ndarray:
        """Vector of predicted times indexed by op id — the representation
        the vectorized Algorithm 1 implementation consumes."""
        return np.array([self(op) for op in graph], dtype=float)

    @staticmethod
    def wrap(source: TimeOracleLike) -> "TimeOracle":
        """Coerce a mapping / callable / oracle into a :class:`TimeOracle`."""
        if isinstance(source, TimeOracle):
            return source
        if isinstance(source, Mapping):
            return MappingTimeOracle(source)
        if callable(source):
            return _CallableOracle(source)
        raise TypeError(f"cannot interpret {source!r} as a time oracle")


class _CallableOracle(TimeOracle):
    def __init__(self, fn: Callable[[Op], float]):
        self._fn = fn

    def __call__(self, op: Op) -> float:
        return float(self._fn(op))


class GeneralTimeOracle(TimeOracle):
    """The universal oracle of Eq. 5: ``Time(op) = 1`` if op is recv else 0.

    TIC runs Algorithm 1 under this oracle, so priorities depend only on
    DAG structure.
    """

    def __call__(self, op: Op) -> float:
        return 1.0 if op.is_recv else 0.0


class MappingTimeOracle(TimeOracle):
    """Oracle backed by a ``{op name: seconds}`` table.

    ``strict=False`` (default) returns ``default`` for unknown ops, which is
    what the paper's system does for ops that never showed up in traces
    (zero-cost bookkeeping ops).
    """

    def __init__(
        self,
        table: Mapping[str, float],
        *,
        default: float = 0.0,
        strict: bool = False,
    ) -> None:
        self.table = dict(table)
        self.default = float(default)
        self.strict = bool(strict)

    def __call__(self, op: Op) -> float:
        try:
            return self.table[op.name]
        except KeyError:
            if self.strict:
                raise KeyError(f"no timing entry for op {op.name!r}") from None
            return self.default

    def __len__(self) -> int:
        return len(self.table)


class PerturbedOracle(TimeOracle):
    """A noisy view over another oracle — used by ablations probing TAC's
    sensitivity to estimation error (the paper's min-of-5 estimator exists
    precisely to suppress this noise).

    Each op's time is multiplied by an i.i.d. lognormal factor with scale
    ``sigma``; the perturbation is fixed per op name so repeated queries are
    consistent (an oracle, however wrong, is deterministic). The per-op
    factor derives from a content hash of ``(seed, op name)`` — not
    Python's ``hash()``, whose per-process salting (PYTHONHASHSEED) would
    make the "same" oracle differ between processes and defeat result
    caching and parallel/serial equality.
    """

    def __init__(self, base: TimeOracleLike, sigma: float, seed: int = 0) -> None:
        self.base = TimeOracle.wrap(base)
        self.sigma = float(sigma)
        self._seed = int(seed)
        self._cache: dict[str, float] = {}

    def __call__(self, op: Op) -> float:
        factor = self._cache.get(op.name)
        if factor is None:
            digest = hashlib.sha256(
                f"{self._seed}\x00{op.name}".encode()
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            factor = float(rng.lognormal(mean=0.0, sigma=self.sigma)) if self.sigma else 1.0
            self._cache[op.name] = factor
        return self.base(op) * factor


def oracle_from_runs(runs: Iterable[Mapping[str, float]]) -> MappingTimeOracle:
    """Build an oracle from several measured runs (the estimator of §5).

    ``runs`` is an iterable of per-run ``{op name: measured seconds}``
    tables. The paper "executes each operation 5 times ... and chooses the
    minimum of all measured runs": each op's estimate is its minimum.
    """
    table: dict[str, float] = {}
    n_runs = 0
    for run in runs:
        n_runs += 1
        for name, t in run.items():
            t = float(t)
            if name not in table or t < table[name]:
                table[name] = t
    if n_runs == 0:
        raise ValueError("oracle_from_runs needs at least one run")
    return MappingTimeOracle(table)
