"""The one cache registry, ``maps._CACHES``: every process-wide cache of
the package is in it, and ``clear_caches`` empties each one."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import monmap
from monmap.jack import sn_character
from monmap.maps import _CACHES, ClassMemo, clear_caches
from monmap.verify import run_suite

# one small run of each suite that fills a process-wide cache
RUNS = (
    ("lemma-equivalence", {"n": 2}),
    ("key-bijection", {"ns": (1, 2), "conservative_n": 2}),
    ("degree-bounds", {"n_exhaustive": 1, "sampled": (3,), "samples": 20}),
    ("main-theorem", {"ns": (1, 2, 3)}),
    ("jack-oracle", {}),
)


def module_level():
    """(qualified name, object) of every name bound at module level in a
    monmap module, dunders left out."""
    out = []
    for info in pkgutil.iter_modules(monmap.__path__):
        # import_module: the package re-exports the function mon as monmap.mon
        module = importlib.import_module(f"monmap.{info.name}")
        out += [(f"{module.__name__}.{name}", obj)
                for name, obj in vars(module).items()
                if not name.startswith("__")]
    return out


def registered(obj) -> bool:
    return any(obj is cache for cache in _CACHES)


def size(cache) -> int:
    if hasattr(cache, "cache_info"):
        return cache.cache_info().currsize
    return len(cache)


def grown_containers() -> dict[str, bool]:
    """Run ``RUNS`` and name each module-level dict, list or set that grew,
    with whether it is registered."""
    containers = [(name, obj) for name, obj in module_level()
                  if isinstance(obj, (dict, list, set))]
    before = [len(obj) for _, obj in containers]
    run_all()
    return {name: registered(obj)
            for (name, obj), n in zip(containers, before) if len(obj) > n}


def run_all():
    for name, params in RUNS:
        assert run_suite(name, **params).passed, name


class TestRegistry:
    def test_every_lru_cache_and_class_memo_is_registered(self):
        found = [(name, obj) for name, obj in module_level()
                 if hasattr(obj, "cache_info") or isinstance(obj, ClassMemo)]
        assert found
        assert [name for name, obj in found if not registered(obj)] == []

    def test_every_module_container_that_grows_is_registered(self):
        # in a fresh process, so that every table starts empty whatever
        # ran before in this one
        code = ("import json, test_caches; "
                "print(json.dumps(test_caches.grown_containers()))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).parent), *sys.path])}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        grown = json.loads(out.stdout)
        assert "monmap.mon._STATES" in grown
        assert [name for name, known in grown.items() if not known] == []

    def test_clear_caches_empties_every_registered_cache(self):
        run_all()
        sn_character((2, 1), (1, 1, 1))  # the one cache no suite fills
        assert all(size(cache) > 0 for cache in _CACHES)
        clear_caches()
        assert [cache for cache in _CACHES if size(cache)] == []
        memos = [cache for cache in _CACHES if isinstance(cache, ClassMemo)]
        assert memos and all(memo._values == {} for memo in memos)

    def test_one_clear_caches(self):
        mon = importlib.import_module("monmap.mon")
        assert mon.clear_caches is clear_caches
