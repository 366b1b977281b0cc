"""Placement-policy invariants (hypothesis) + registry error paths."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.placement import (
    PLACEMENTS,
    RACK_SIZE,
    PlacementError,
    UnknownPlacementError,
    place_jobs,
)

from ..conftest import examples

POLICIES = ("dedicated", "packed", "spread", "rack_aware")


def jobs_devices(n_jobs: int, sizes: list[int]) -> list[list[str]]:
    return [
        [f"j{j}/dev:{k}" for k in range(sizes[j])]
        for j in range(n_jobs)
    ]


#: (device lists per job, slots_per_host, extra hosts beyond the minimum)
mix_shapes = st.tuples(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=6),
)


@settings(max_examples=examples(60), deadline=None)
@given(shape=mix_shapes, policy=st.sampled_from(POLICIES))
def test_every_device_maps_to_exactly_one_host(shape, policy):
    sizes, slots, extra = shape
    devices = jobs_devices(len(sizes), sizes)
    total = sum(sizes)
    n_hosts = -(-total // slots) + extra
    mapping = place_jobs(
        devices, policy, n_hosts=n_hosts, slots_per_host=slots
    )
    all_devices = [d for devs in devices for d in devs]
    assert sorted(mapping) == sorted(all_devices)
    assert all(isinstance(h, str) and h for h in mapping.values())
    if policy != "dedicated":  # dedicated ignores the host budget
        loads: dict[str, int] = {}
        for host in mapping.values():
            loads[host] = loads.get(host, 0) + 1
        assert max(loads.values()) <= slots


@settings(max_examples=examples(60), deadline=None)
@given(shape=mix_shapes)
def test_packed_uses_minimal_hosts(shape):
    sizes, slots, extra = shape
    devices = jobs_devices(len(sizes), sizes)
    total = sum(sizes)
    mapping = place_jobs(
        devices, "packed",
        n_hosts=-(-total // slots) + extra, slots_per_host=slots,
    )
    assert len(set(mapping.values())) == -(-total // slots)


@settings(max_examples=examples(60), deadline=None)
@given(shape=mix_shapes)
def test_spread_never_colocates_jobs_while_hosts_remain_free(shape):
    sizes, slots, extra = shape
    devices = jobs_devices(len(sizes), sizes)
    total = sum(sizes)
    n_hosts = -(-total // slots) + extra
    mapping = place_jobs(
        devices, "spread", n_hosts=n_hosts, slots_per_host=slots
    )
    job_of = {d: j for j, devs in enumerate(devices) for d in devs}
    hosts_by_host: dict[str, set[int]] = {}
    for d, h in mapping.items():
        hosts_by_host.setdefault(h, set()).add(job_of[d])
    shared = any(len(jobs) > 1 for jobs in hosts_by_host.values())
    if shared:
        # co-location is only allowed once every host is occupied
        assert len(hosts_by_host) == n_hosts


@settings(max_examples=examples(60), deadline=None)
@given(shape=mix_shapes)
def test_dedicated_is_identity(shape):
    sizes, _slots, _extra = shape
    devices = jobs_devices(len(sizes), sizes)
    mapping = place_jobs(devices, "dedicated")
    assert mapping == {d: d for devs in devices for d in devs}


def test_spread_separates_two_jobs_given_room():
    devices = jobs_devices(2, [2, 2])
    mapping = place_jobs(devices, "spread", n_hosts=4, slots_per_host=2)
    hosts0 = {mapping[d] for d in devices[0]}
    hosts1 = {mapping[d] for d in devices[1]}
    assert not (hosts0 & hosts1)


def test_rack_aware_keeps_a_job_in_one_rack_when_it_fits():
    devices = jobs_devices(2, [3, 3])
    mapping = place_jobs(devices, "rack_aware", n_hosts=8, slots_per_host=2)

    def rack(host: str) -> int:
        return int(host.split(":")[1]) // RACK_SIZE

    assert len({rack(mapping[d]) for d in devices[0]}) == 1
    assert len({rack(mapping[d]) for d in devices[1]}) == 1


def test_overfull_mix_raises():
    devices = jobs_devices(2, [3, 3])
    with pytest.raises(PlacementError, match="do not fit"):
        place_jobs(devices, "packed", n_hosts=1, slots_per_host=2)


def test_unknown_placement_suggests_near_matches():
    with pytest.raises(UnknownPlacementError) as exc:
        PLACEMENTS["pakced"]
    message = str(exc.value)
    assert "unknown placement policy" in message
    assert "packed" in message and "did you mean 'packed'" in message


def test_registry_lists_all_builtins():
    assert set(POLICIES) <= set(PLACEMENTS)
    for policy in PLACEMENTS.values():
        assert policy.description
