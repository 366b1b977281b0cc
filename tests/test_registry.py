"""Every named table shares one unknown-name rule (``repro.registry``)."""

from __future__ import annotations

import gc
import importlib
import pkgutil

import pytest

import repro
from repro.api import registry as api_registry
from repro.api.context import SCALES
from repro.backends import backends
from repro.backends.placement import PLACEMENTS
from repro.models.zoo import MODELS
from repro.obs.export import EXPORTERS
from repro.registry import Registry, UnknownNameError, did_you_mean
from repro.replay.admission import ADMISSIONS
from repro.replay.trace import GENERATORS
from repro.timing import PLATFORMS

MISSING = "no-such-name"


def tables() -> dict[str, Registry]:
    return {
        "scenarios": api_registry._SCENARIOS,
        "backends": backends(),
        "placements": PLACEMENTS,
        "admissions": ADMISSIONS,
        "generators": GENERATORS,
        "exporters": EXPORTERS,
        "platforms": PLATFORMS,
        "models": MODELS,
        "scales": SCALES,
    }


TABLES = tables()


def test_every_registry_in_the_package_is_covered():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rpartition(".")[2] != "__main__":
            importlib.import_module(info.name)
    live = {id(o) for o in gc.get_objects() if isinstance(o, Registry)}
    assert live <= {id(t) for t in TABLES.values()}


@pytest.mark.parametrize("table", TABLES.values(), ids=list(TABLES))
def test_miss_raises_the_tables_error(table):
    assert issubclass(table.error, UnknownNameError)
    assert issubclass(table.error, KeyError)
    with pytest.raises(table.error):
        table[MISSING]
    assert table.get(MISSING) is None and MISSING not in table


@pytest.mark.parametrize("table", TABLES.values(), ids=list(TABLES))
def test_message_names_the_kind_and_lists_every_name(table):
    with pytest.raises(UnknownNameError) as exc:
        table[MISSING]
    message = str(exc.value)
    assert message.startswith(f"unknown {table.kind} {MISSING!r}; available: ")
    for name in table:
        assert name in message


@pytest.mark.parametrize("table", TABLES.values(), ids=list(TABLES))
def test_one_character_typo_is_suggested(table):
    for name in table:
        k = len(name) // 2
        typo = name[:k] + name[k - 1:]  # doubles one character
        with pytest.raises(UnknownNameError) as exc:
            table[typo]
        _, _, hints = str(exc.value).partition("did you mean")
        assert repr(name) in hints, (typo, str(exc.value))


def test_did_you_mean_is_empty_without_a_close_name():
    assert did_you_mean("zzzz", ("fifo", "backfill")) == ""
    assert did_you_mean("fifi", ("fifo", "backfill")) == " — did you mean 'fifo'?"
