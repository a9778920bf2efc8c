"""No report depends on a cache's state: with a cache bypassed, so that
every lookup misses and nothing is stored, each run keeps its bytes."""

import importlib

import pytest

from monmap.maps import ClassMemo, clear_caches
from monmap.verify import report_render, run_suite

RUNS = {
    "degree-bounds": {"n_exhaustive": 2, "sampled": (3, 4), "samples": 200},
    "main-theorem": {"ns": (1, 2, 3, 4)},
    "liberation-oriented": {"ns": (1, 2)},
}


class NoStore(dict):
    """A table that stays empty: every ``get`` misses and stores nothing.
    ``lookups`` counts the misses."""

    lookups = 0

    def get(self, key, default=None):
        NoStore.lookups += 1
        return default

    def __setitem__(self, key, value):
        pass


class NoMemo(ClassMemo):
    """A class memo that computes every value again and keeps none."""

    lookups = 0

    def get(self, m, compute):
        NoMemo.lookups += 1
        return compute(m)


def render(name):
    clear_caches()
    return report_render(run_suite(name, **RUNS[name]), "json")


@pytest.fixture(scope="module")
def reference():
    return {name: render(name) for name in RUNS}


@pytest.mark.parametrize("name", list(RUNS))
def test_component_forms_bypassed(name, reference, monkeypatch):
    maps = importlib.import_module("monmap.maps")
    monkeypatch.setattr(maps, "_COMPONENT_FORMS", NoStore())
    monkeypatch.setattr(NoStore, "lookups", 0)
    assert render(name) == reference[name]
    assert NoStore.lookups > 0 and len(maps._COMPONENT_FORMS) == 0


@pytest.mark.parametrize("name", ["degree-bounds", "main-theorem"])
def test_mon_memo_bypassed(name, reference, monkeypatch):
    mon = importlib.import_module("monmap.mon")
    monkeypatch.setattr(mon, "_MON_CACHE", NoMemo())
    monkeypatch.setattr(NoMemo, "lookups", 0)
    assert render(name) == reference[name]
    assert NoMemo.lookups > 0 and len(mon._MON_CACHE) == 0


def test_liberation_oriented_reads_no_mon_memo(reference, monkeypatch):
    mon = importlib.import_module("monmap.mon")
    monkeypatch.setattr(mon, "_MON_CACHE", NoMemo())
    monkeypatch.setattr(NoMemo, "lookups", 0)
    assert render("liberation-oriented") == reference["liberation-oriented"]
    assert NoMemo.lookups == 0
