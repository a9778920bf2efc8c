"""Per-layer call counts and self time, taken from outside the program.

``install()`` wraps the public functions of each monmap layer and rebinds
every alias of them in the loaded ``monmap`` modules: the defining module,
modules that did ``from .maps import remove_edge``, and the package
re-exports.  Recursions that go through module globals (``mon``,
``_phi_rec``) therefore pass through the wrapper on every level.

Hot functions are aggregated, not recorded one span per call: each keeps a
call count, its self time (wrapper time minus the time of nested wrapped
calls) and its total time (outermost calls only, so recursion is not
counted twice).  Real spans are kept only for the top-level entry points
``verify.run_suite`` and ``verify.report_render``.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> functions timed per call
FUNCTIONS = {
    "monmap.kernels": ["orbit_ids2", "orbit_ids3", "face_data", "bipartite3"],
    "monmap.maps": ["remove_edge", "twist", "twist_many", "classify_edge",
                    "edge_role", "structure", "is_orientable", "graph_class",
                    "canonical_form"],
    "monmap.mon": ["mon", "mon_top_detail", "history_weight",
                   "failing_prefix", "is_top_degree_pair",
                   "is_top_degree_map", "lemma_equivalence_check"],
    "monmap.bijection": ["phi", "phi_inverse", "_phi_rec"],
    "monmap.oriented": ["is_transitive", "graph_class_oriented"],
    "monmap.diagrams": ["count_embeddings"],
    "monmap.jack": ["jack_in_p", "ch", "ch_stanley", "stanley_special"],
    "monmap.verify": ["run_suite", "report_render"],
}

# module -> generator functions, timed inside each next()
GENERATORS = {
    "monmap.enumeration": ["all_maps", "conservative_one_face",
                           "transitive_pairs", "involutions"],
}

SPANNED = {"monmap.verify.run_suite", "monmap.verify.report_render"}


class Stat:
    __slots__ = ("calls", "items", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = self.items = self.depth = 0
        self.self_s = self.total_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.pairings_built = 0
        self.mon_lookups = 0
        # time spent in wrapped callees of the innermost active wrapper
        self._child = [0.0]

    # -- wrappers ---------------------------------------------------------

    def _timed(self, qualname: str, f):
        st = self.stats.setdefault(qualname, Stat())
        child = self._child
        pc = time.perf_counter
        spans = self.spans if qualname in SPANNED else None

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            outer = child[0]
            child[0] = 0.0
            st.depth += 1
            t0 = pc()
            try:
                return f(*args, **kwargs)
            finally:
                t1 = pc()
                dt = t1 - t0
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - child[0]
                if not st.depth:
                    st.total_s += dt
                child[0] = outer + dt
                if spans is not None:
                    spans.append({"name": qualname, "start": t0, "end": t1,
                                  "arg": args[0] if args and isinstance(
                                      args[0], str) else None})

        return wrapper

    def _timed_generator(self, qualname: str, f):
        st = self.stats.setdefault(qualname, Stat())
        child = self._child
        pc = time.perf_counter

        def timed_iter(it):
            nxt = iter(it).__next__
            while True:
                outer = child[0]
                child[0] = 0.0
                t0 = pc()
                try:
                    item = nxt()
                except StopIteration:
                    return
                finally:
                    dt = pc() - t0
                    st.self_s += dt - child[0]
                    st.total_s += dt
                    child[0] = outer + dt
                st.items += 1
                yield item

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return timed_iter(f(*args, **kwargs))

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every listed function; names the program lacks are skipped."""
        for table, make in ((FUNCTIONS, self._timed),
                            (GENERATORS, self._timed_generator)):
            for modname, names in table.items():
                mod = sys.modules.get(modname)
                for name in names:
                    orig = getattr(mod, name, None) if mod else None
                    if orig is None:
                        self.missing.append(f"{modname}.{name}")
                        continue
                    inner = orig
                    if modname == "monmap.mon" and name == "mon":
                        inner = self._count_mon_lookups(orig)
                    _rebind(orig, make(f"{modname}.{name}", inner))
        self._count_pairings()
        return self

    def _count_mon_lookups(self, f):
        # mon consults its memo for every non-empty map
        def mon(m):
            if m.n:
                self.mon_lookups += 1
            return f(m)
        return mon

    def _count_pairings(self):
        cls = getattr(sys.modules.get("monmap.maps"), "Pairing", None)
        if cls is None:
            self.missing.append("monmap.maps.Pairing")
            return
        orig = cls.__init__

        def __init__(obj, *args, **kwargs):
            self.pairings_built += 1
            orig(obj, *args, **kwargs)

        cls.__init__ = __init__

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates keyed by the wrapped name without the package prefix."""
        funcs = {}
        for qualname, st in self.stats.items():
            entry = {"calls": st.calls, "self_s": st.self_s,
                     "total_s": st.total_s}
            if qualname.split(".")[1] == "enumeration":
                entry["items"] = st.items
            funcs[qualname.removeprefix("monmap.")] = entry
        counts = _cache_counts(self)
        return {"functions": funcs, "spans": self.spans,
                "missing": self.missing, "counts": counts}


def _rebind(orig, new):
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "monmap"
                               or modname.startswith("monmap.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _cache_counts(tracer: Tracer) -> dict:
    """Memo and cache sizes read after the run; -1 where a probe is gone."""
    mods = sys.modules

    def size(modname, attr):
        value = getattr(mods.get(modname), attr, None)
        if value is None:
            tracer.missing.append(f"{modname}.{attr}")
            return -1
        return len(value)

    family = getattr(mods.get("monmap.jack"), "_jack_family", None)
    info = family.cache_info() if hasattr(family, "cache_info") else None
    if info is None:
        tracer.missing.append("monmap.jack._jack_family")
    return {
        "maps.Pairing.built": tracer.pairings_built,
        "mon.memo.lookups": tracer.mon_lookups,
        "mon.memo.entries": size("monmap.mon", "_MON_CACHE"),
        "mon.top_memo.entries": size("monmap.mon", "_TOP_CACHE"),
        "maps.matrix_canon.entries": size("monmap.maps",
                                          "_MATRIX_CANON_CACHE"),
        "diagrams.embed_cache.entries": size("monmap.diagrams",
                                             "_EMBED_CACHE"),
        "jack.family.misses": -1 if info is None else info.misses,
    }


def install() -> Tracer:
    return Tracer().install()
