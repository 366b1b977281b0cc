"""Admission policies: which queued jobs enter the cluster when slots free.

The replay engine (:mod:`repro.replay.engine`) keeps a FIFO queue of
arrived-but-not-admitted jobs. At every epoch boundary it asks the
configured *admission policy* which queue entries to admit against the
currently free slot count. Policies are deterministic pure functions
held, like placement policies (:mod:`repro.backends.placement`), in a
:class:`~repro.registry.Registry`: :data:`ADMISSIONS`, whose unknown
names raise :class:`UnknownAdmissionError` with did-you-mean hints.

* ``fifo`` — strict arrival order with head-of-line blocking: admit the
  queue prefix that fits; a too-big head job blocks everyone behind it.
* ``backfill`` — FIFO first, then scan past a blocked head and admit
  any later job that still fits the remaining slots (EASY-style
  backfill without reservations; small jobs slip around big ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..registry import Registry, UnknownNameError


class UnknownAdmissionError(UnknownNameError):
    """Lookup of an admission policy name that is not registered."""


@dataclass(frozen=True)
class AdmissionPolicy:
    """One registered policy.

    ``fn(slots_needed, free_slots)`` sees the queued jobs' slot demands
    in arrival order and returns the *indices* to admit, in admission
    order; the total admitted demand must fit ``free_slots``.
    """

    name: str
    description: str
    fn: Callable[[Sequence[int], int], list[int]]


#: Registered admission policies by name.
ADMISSIONS: Registry = Registry("admission policy", UnknownAdmissionError)


def register_admission(policy: AdmissionPolicy) -> None:
    """Register a policy; later registrations replace earlier ones."""
    ADMISSIONS[policy.name] = policy


def _fifo(slots_needed: Sequence[int], free_slots: int) -> list[int]:
    admitted = []
    for i, need in enumerate(slots_needed):
        if need > free_slots:
            break  # head-of-line blocking: nothing behind may pass
        admitted.append(i)
        free_slots -= need
    return admitted


def _backfill(slots_needed: Sequence[int], free_slots: int) -> list[int]:
    admitted = []
    for i, need in enumerate(slots_needed):
        if need <= free_slots:
            admitted.append(i)
            free_slots -= need
    return admitted


register_admission(AdmissionPolicy(
    name="fifo",
    description="strict arrival order, head-of-line blocking",
    fn=_fifo,
))
register_admission(AdmissionPolicy(
    name="backfill",
    description="FIFO plus backfilling smaller jobs around a blocked head",
    fn=_backfill,
))
