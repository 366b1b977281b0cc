"""Placement policies: mapping job-mix logical devices onto shared hosts.

A job mix (:mod:`repro.sim.jobmix`) names its devices in per-job
namespaces (``j0/worker:1``, ``j1/ps:0``). A *placement policy* assigns
each logical device a **host**; devices sharing a host share that host's
NIC resources in the engine (their transfers become TCP connections
round-robining on one NIC), which is how co-scheduled jobs contend for
network bandwidth. Compute engines stay per logical device — the model is
hosts with enough cores/accelerators per slot, shared commodity NICs.

The physical cluster is ``n_hosts`` uniform hosts named ``host:N`` with
``slots_per_host`` device slots each, grouped into racks of
:data:`RACK_SIZE` hosts (read by the ``rack_aware`` policy). Policies:

* ``dedicated`` — the identity map: every logical device is its own host
  (role NIC capacities apply — a ``j0/ps:0`` keeps its fat PS NIC). A
  1-job mix on ``dedicated`` is byte-identical to the single-job path.
* ``packed`` — fill hosts sequentially in device order, using the
  minimal ``ceil(total / slots_per_host)`` hosts (maximum co-location).
* ``spread`` — give each job fresh empty hosts while any remain, so jobs
  never co-locate until the cluster forces them to; falls back to the
  least-loaded hosts once empty ones run out.
* ``rack_aware`` — per job, pick the rack with the most free slots and
  pack the job inside it (rack-local traffic; jobs land in different
  racks while capacity allows).

Policies are deterministic pure functions of their inputs, held in the
:data:`PLACEMENTS` registry (:class:`~repro.registry.Registry`):
unknown names raise :class:`UnknownPlacementError` with near-match
suggestions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..registry import Registry, UnknownNameError

#: device slots per shared host unless the mix spec overrides it.
DEFAULT_SLOTS_PER_HOST = 2

#: hosts per rack.
RACK_SIZE = 4


class PlacementError(ValueError):
    """A placement request that cannot be satisfied (not enough slots)."""


class UnknownPlacementError(UnknownNameError):
    """Lookup of a placement policy name that is not registered."""


@dataclass(frozen=True)
class PlacementPolicy:
    """One registered policy.

    ``fn(devices_by_job, n_hosts, slots_per_host)`` returns a
    ``device -> host`` mapping covering every device of every job.
    """

    name: str
    description: str
    fn: Callable[[Sequence[Sequence[str]], int, int], dict[str, str]]


#: Registered placement policies by name.
PLACEMENTS: Registry = Registry("placement policy", UnknownPlacementError)


def register_placement(policy: PlacementPolicy) -> None:
    """Register a policy; later registrations replace earlier ones."""
    PLACEMENTS[policy.name] = policy


def place_jobs(
    devices_by_job: Sequence[Sequence[str]],
    policy: str,
    *,
    n_hosts: int = 0,
    slots_per_host: int = DEFAULT_SLOTS_PER_HOST,
) -> dict[str, str]:
    """Run ``policy`` over the jobs' device lists.

    ``n_hosts=0`` sizes the cluster automatically to the minimum feasible
    host count ``ceil(total_devices / slots_per_host)`` (pass an explicit
    larger count to give ``spread``/``rack_aware`` room to separate jobs).
    Raises :class:`PlacementError` when the devices do not fit.
    """
    total = sum(len(devs) for devs in devices_by_job)
    if slots_per_host <= 0:
        raise PlacementError(f"slots_per_host must be positive, got {slots_per_host}")
    if n_hosts <= 0:
        n_hosts = -(-total // slots_per_host) if total else 0
    if total > n_hosts * slots_per_host:
        raise PlacementError(
            f"{total} logical devices do not fit on {n_hosts} hosts x "
            f"{slots_per_host} slots"
        )
    return PLACEMENTS[policy].fn(devices_by_job, n_hosts, slots_per_host)


# ----------------------------------------------------------------------
# built-in policies
# ----------------------------------------------------------------------
def _dedicated(devices_by_job, n_hosts, slots_per_host):
    # Identity: each logical device is its own (role-named) host, so the
    # engine's NIC naming, channel structure and capacities are exactly
    # the single-job ones. The n_hosts/slots budget is ignored.
    return {d: d for devs in devices_by_job for d in devs}


def _packed(devices_by_job, n_hosts, slots_per_host):
    mapping: dict[str, str] = {}
    slot = 0
    for devs in devices_by_job:
        for d in devs:
            mapping[d] = f"host:{slot // slots_per_host}"
            slot += 1
    return mapping


def _spread(devices_by_job, n_hosts, slots_per_host):
    load = [0] * n_hosts
    owners: list[set[int]] = [set() for _ in range(n_hosts)]
    mapping: dict[str, str] = {}
    for j, devs in enumerate(devices_by_job):
        for d in devs:
            # fresh empty host first (never co-locate while one remains),
            # else this job's own least-loaded host, else the globally
            # least-loaded host with a free slot; index breaks ties.
            best = -1
            best_key = None
            for h in range(n_hosts):
                if load[h] >= slots_per_host:
                    continue
                if load[h] == 0:
                    key = (0, 0, h)
                elif owners[h] == {j}:
                    key = (1, load[h], h)
                else:
                    key = (2, load[h], h)
                if best_key is None or key < best_key:
                    best, best_key = h, key
            mapping[d] = f"host:{best}"
            load[best] += 1
            owners[best].add(j)
    return mapping


def _rack_aware(devices_by_job, n_hosts, slots_per_host):
    n_racks = -(-n_hosts // RACK_SIZE)
    load = [0] * n_hosts
    mapping: dict[str, str] = {}

    def rack_hosts(r):
        return range(r * RACK_SIZE, min((r + 1) * RACK_SIZE, n_hosts))

    for devs in devices_by_job:
        # The whole job targets one rack — the one with the most free
        # slots (ties -> lowest rack index) — packing host by host inside
        # it; only overflow spills into the next-best racks.
        remaining = list(devs)
        while remaining:
            best_rack = -1
            best_free = 0
            for r in range(n_racks):
                free = sum(slots_per_host - load[h] for h in rack_hosts(r))
                if free > best_free:
                    best_rack, best_free = r, free
            if best_rack < 0:  # pragma: no cover - guarded by place_jobs
                raise PlacementError("rack_aware ran out of slots")
            for h in rack_hosts(best_rack):
                while remaining and load[h] < slots_per_host:
                    mapping[remaining.pop(0)] = f"host:{h}"
                    load[h] += 1
    return mapping


register_placement(PlacementPolicy(
    name="dedicated",
    description="every logical device on its own host (no contention)",
    fn=_dedicated,
))
register_placement(PlacementPolicy(
    name="packed",
    description="fill hosts sequentially with minimal host count",
    fn=_packed,
))
register_placement(PlacementPolicy(
    name="spread",
    description="jobs on fresh hosts while empty hosts remain",
    fn=_spread,
))
register_placement(PlacementPolicy(
    name="rack_aware",
    description="each job packed into the rack with the most free slots",
    fn=_rack_aware,
))
