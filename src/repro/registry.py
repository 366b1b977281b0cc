"""Named tables and the one rule for names they do not hold.

Every input to this package is a *name*: a scenario, communication
backend, platform, model, placement or admission policy, trace
generator or exporter. Each table of such names is a
:class:`Registry` — a plain ``dict`` (``in``, ``.get``, iteration and
``sorted()`` behave as usual) whose failed subscript raises the table's
:class:`UnknownNameError` subclass, listing what exists and suggesting
the nearest names.

Validators that must raise their own error type (``ScenarioError``,
``TraceError``, ``FaultPlanError``, ``ReplayError``, ``ValueError``)
build the same suggestion with :func:`did_you_mean`, the one place near
matches are computed.
"""

from __future__ import annotations

import difflib
from typing import Iterable


def did_you_mean(name: object, known: Iterable[object]) -> str:
    """``" — did you mean 'a' or 'b'?"`` naming the entries of ``known``
    closest to ``name`` (best first), or ``""`` when none is close."""
    hints = difflib.get_close_matches(
        str(name), [str(k) for k in known], n=3, cutoff=0.4
    )
    return f" — did you mean {' or '.join(map(repr, hints))}?" if hints else ""


class UnknownNameError(KeyError):
    """A lookup of a name its table does not hold. The message reads
    ``unknown <kind> '<name>'; available: a, b, c — did you mean ...?``."""

    def __init__(self, kind: str, name: object, known: Iterable[object]) -> None:
        known = tuple(known)
        super().__init__(
            f"unknown {kind} {name!r}; available: "
            f"{', '.join(map(str, known))}" + did_you_mean(name, known)
        )
        self.name = name

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0]


class Registry(dict):
    """A ``name -> entry`` table whose misses raise ``error(kind, name,
    known)``; ``error`` is :class:`UnknownNameError` or a subclass."""

    def __init__(
        self, kind: str, error: type = UnknownNameError, entries=()
    ) -> None:
        super().__init__(entries)
        self.kind = kind
        self.error = error

    def __missing__(self, name):
        raise self.error(self.kind, name, self)
