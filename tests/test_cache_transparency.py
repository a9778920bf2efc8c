"""No report depends on a cache's state: with a cache bypassed, so that
every lookup misses and nothing is stored, each run keeps its bytes.

Every cache in the registry ``maps._CACHES`` is bypassed here, in every
module of the package that holds it, while the suites that read it run
at small parameters."""

import importlib
import sys

import pytest

from monmap.maps import _CACHES, ClassMemo, clear_caches
from monmap.verify import report_render, run_suite

RUNS = {
    "degree-bounds": {"n_exhaustive": 2, "sampled": (3, 4), "samples": 200},
    "main-theorem": {"ns": (1, 2, 3, 4)},
    "liberation-oriented": {"ns": (1, 2)},
    "lemma-equivalence": {"n": 2},
    "key-bijection": {"ns": (1, 2), "conservative_n": 3},
    "second-main-theorem": {"ns": (1, 2)},
    "jack-oracle": {},
    "stanley-special": {},
}

# each registered cache, by module and name -> the suites run with it
# bypassed, each of which reads it; no suite reads ``sn_character``
CHECKED_BY = {
    ("maps", "_COMPONENT_FORMS"): (
        "degree-bounds", "main-theorem", "liberation-oriented"),
    ("mon", "_MON_CACHE"): ("degree-bounds", "main-theorem"),
    ("mon", "_STATES"): ("lemma-equivalence", "key-bijection"),
    ("bijection", "_FAMILY"): ("key-bijection",),
    ("oriented", "partitions_of"): (
        "degree-bounds", "main-theorem", "liberation-oriented",
        "second-main-theorem", "jack-oracle", "stanley-special"),
    ("jack", "_m_to_p"): ("jack-oracle", "stanley-special"),
    ("jack", "_jack_family"): ("jack-oracle", "stanley-special"),
    ("jack", "sn_character"): (),
}


def registered(module, name):
    return getattr(importlib.import_module(f"monmap.{module}"), name)


def bypass(monkeypatch, cache, stand_in):
    """Put ``stand_in`` in place of ``cache`` in every module of the
    package that holds it, for the test."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("monmap"):
            for name, value in list(vars(module).items()):
                if value is cache:
                    monkeypatch.setattr(module, name, stand_in)


class NoStore(dict):
    """A table that stays empty: every lookup misses and stores nothing.
    ``lookups`` counts the misses."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return default

    def setdefault(self, key, default=None):
        self.lookups += 1
        return default

    def __setitem__(self, key, value):
        pass


class NoMemo(ClassMemo):
    """A class memo that computes every value again and keeps none."""

    lookups = 0

    def get(self, m, compute):
        self.lookups += 1
        return compute(m)


class HalfStored(dict):
    """``bijection._FAMILY`` with one half of every entry it stores, the
    level-0 maps (``half`` 0) or the results (1), a ``NoStore``.  A
    family's first call reads the fresh, empty, dicts it made."""

    def __init__(self, half):
        super().__init__()
        self.half, self.stand_ins = half, []

    def __setitem__(self, family, entry):
        entry = list(entry)
        entry[self.half] = NoStore()
        self.stand_ins.append(entry[self.half])
        super().__setitem__(family, tuple(entry))


def render(name):
    clear_caches()
    return report_render(run_suite(name, **RUNS[name]), "json")


@pytest.fixture(scope="module")
def reference():
    return {name: render(name) for name in RUNS}


def test_every_registered_cache_is_bypassed():
    caches = [registered(*key) for key in CHECKED_BY]
    assert len({id(c) for c in caches}) == len(caches) == len(_CACHES)
    assert {id(c) for c in caches} == {id(c) for c in _CACHES}


@pytest.mark.parametrize("name", CHECKED_BY["maps", "_COMPONENT_FORMS"])
def test_component_forms_bypassed(name, reference, monkeypatch):
    stand_in = NoStore()
    bypass(monkeypatch, registered("maps", "_COMPONENT_FORMS"), stand_in)
    assert render(name) == reference[name]
    assert stand_in.lookups > 0 and len(stand_in) == 0


@pytest.mark.parametrize("name", CHECKED_BY["mon", "_MON_CACHE"])
def test_mon_memo_bypassed(name, reference, monkeypatch):
    stand_in = NoMemo()
    bypass(monkeypatch, registered("mon", "_MON_CACHE"), stand_in)
    assert render(name) == reference[name]
    assert stand_in.lookups > 0 and len(stand_in) == 0


def test_liberation_oriented_reads_no_mon_memo(reference, monkeypatch):
    stand_in = NoMemo()
    bypass(monkeypatch, registered("mon", "_MON_CACHE"), stand_in)
    assert render("liberation-oriented") == reference["liberation-oriented"]
    assert stand_in.lookups == 0


@pytest.mark.parametrize("name", CHECKED_BY["mon", "_STATES"])
def test_states_bypassed(name, reference, monkeypatch):
    # ``_states`` then interns no residual, and ``_settle`` finds none
    stand_in = NoStore()
    bypass(monkeypatch, registered("mon", "_STATES"), stand_in)
    assert render(name) == reference[name]
    assert stand_in.lookups > 0 and len(stand_in) == 0


@pytest.mark.parametrize("half", [0, 1], ids=["level0-maps", "results"])
def test_family_half_bypassed(half, reference, monkeypatch):
    stand_in = HalfStored(half)
    bypass(monkeypatch, registered("bijection", "_FAMILY"), stand_in)
    for name in CHECKED_BY["bijection", "_FAMILY"]:
        assert render(name) == reference[name]
    assert sum(s.lookups for s in stand_in.stand_ins) > 0
    assert not any(len(s) for s in stand_in.stand_ins)


@pytest.mark.parametrize("key,name", [
    (key, name) for key, names in CHECKED_BY.items()
    if hasattr(registered(*key), "cache_clear") for name in names],
    ids=lambda x: ".".join(x) if isinstance(x, tuple) else x)
def test_lru_cache_bypassed(key, name, reference, monkeypatch):
    cached, calls = registered(*key), []
    bypass(monkeypatch, cached, lambda *args: (
        calls.append(args) or cached.__wrapped__(*args)))
    assert render(name) == reference[name]
    assert calls


def test_sn_character_bypassed(monkeypatch):
    # no suite reads it, so the alpha = 1 oracle that does keeps its values
    jack = importlib.import_module("monmap.jack")
    lams = [lam for d in range(1, 7) for lam in jack.partitions_of(d)]

    def values():
        return [jack.normalized_sn_character(pi, lam)
                for lam in lams for pi in lams if sum(pi) <= sum(lam)]
    clear_caches()
    cached = jack.sn_character
    expected, calls = values(), []
    bypass(monkeypatch, cached, lambda *args: (
        calls.append(args) or cached.__wrapped__(*args)))
    assert values() == expected and calls
