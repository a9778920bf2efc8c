"""Bicolored maps on surfaces, encoded as involution triples.

A map is a triple (beta, omega, eps) of fixed-point-free involutions on a
common even label set: beta pairs the two edge-sides meeting at a corner of
a black vertex, omega does the same for white vertices, and eps pairs the
two sides of each edge.  Everything else is derived:

* faces       = orbits of <beta, omega>   (even cycles; polygons)
* black nodes = orbits of <beta, eps>
* white nodes = orbits of <omega, eps>
* components  = orbits of <beta, omega, eps>

A :class:`NonOrientedMap` stores its labels once, as a sorted tuple, and
each involution as a tuple of partner indices into it.  Input from outside
is validated: :meth:`NonOrientedMap.from_arrays` is the one validating
constructor, and :meth:`NonOrientedMap.from_pairs` and the JSON loader go
through it.  Generated and derived maps are valid by construction: the
enumerations, the ``degree-bounds`` sampler, edge removal and
:func:`twist_many` build them from index tuples they made themselves, by
``_new_map``.  The orbit kernels, edge removal, twisting and the canonical
form all run on the index arrays; a label is found by bisection on the
sorted tuple, and labels appear only at the API and JSON boundary, as
sorted label pairs: :meth:`NonOrientedMap.from_pairs` takes them in, and
the ``beta``/``omega``/``eps`` views give them back.  The labels and the
three tuples are the whole map: equality, hashing, ``repr`` and the JSON
form read nothing else.

All values are immutable; every operation is a pure function returning new
values, so instances are safe to share and to use as cache keys.
"""

from __future__ import annotations

import enum
import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from operator import eq, lt

from . import kernels


class MapError(ValueError):
    """Invalid map data or an operation applied outside its domain."""


def _normalize_edge(e) -> tuple[int, int]:
    a, b = e
    return (a, b) if a <= b else (b, a)


def _check_labels(xs, what: str) -> None:
    for x in xs:
        if type(x) is not int and (type(x) is bool or not isinstance(x, int)):
            raise MapError(f"{what}: labels must be integers, "
                           f"not {type(x).__name__}")


def checked_pairs(pairs, what: str) -> list[tuple[int, int]]:
    """Label pairs as (a, b) with a <= b; each must be two integer labels."""
    out = []
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise MapError(f"{what}: {pair!r} is not a pair of labels") \
                from None
        if type(a) is not int or type(b) is not int:  # plain ints need no call
            _check_labels((a, b), what)
        out.append((a, b) if a <= b else (b, a))
    return out


class EdgeKind(enum.Enum):
    STRAIGHT = "straight"
    TWISTED = "twisted"
    INTERFACE = "interface"


@dataclass(frozen=True)
class MapStructure:
    blacks: int
    whites: int
    edges: int
    faces: int
    components: int
    euler: int
    genus: Fraction

    @property
    def vertices(self) -> int:
        return self.blacks + self.whites


@dataclass(frozen=True)
class BicoloredGraph:
    """Underlying bicolored multigraph: vertex counts plus incidence list.

    Edge entries are (black index, white index) pairs; indices are in
    first-visit order of the source object's orbits, so the representation
    is deterministic but not canonical (see :func:`graph_class`).
    """

    blacks: int
    whites: int
    edges: tuple[tuple[int, int], ...]

    def multiplicity_matrix(self) -> tuple[tuple[int, ...], ...]:
        rows = [[0] * self.whites for _ in range(self.blacks)]
        for b, w in self.edges:
            rows[b][w] += 1
        return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class BicoloredGraphClass:
    """Canonical encoding of a bicolored multigraph up to isomorphism."""

    blacks: int
    whites: int
    matrix: tuple[tuple[int, ...], ...]

    @property
    def key(self) -> bytes:
        return repr((self.blacks, self.whites, self.matrix)).encode()


MAX_CANONICAL_ROWS = 8


def _canonical_matrix(rows: tuple[tuple[int, ...], ...]):
    """Lexicographically minimal matrix under independent row/column perms.

    Exhaustive over row orders, so guarded to at most MAX_CANONICAL_ROWS
    rows (black vertices); for a fixed row order the best column order is
    just the ascending sort of column vectors.
    """
    if len(rows) > MAX_CANONICAL_ROWS:
        raise MapError(
            f"graph class of a graph with {len(rows)} black vertices exceeds "
            f"the guard of {MAX_CANONICAL_ROWS} (it tries every row order)")
    if not rows or not rows[0]:
        return rows
    best = None
    for perm in permutations(rows):
        cols = sorted(zip(*perm))
        cand = tuple(zip(*cols))
        if best is None or cand < best:
            best = cand
    return best


def canonical_graph_class(graph: BicoloredGraph) -> BicoloredGraphClass:
    matrix = _canonical_matrix(graph.multiplicity_matrix())
    return BicoloredGraphClass(graph.blacks, graph.whites, matrix)


class _cached:
    """``functools.cached_property`` without its lock.

    Before Python 3.12 it takes a lock on every first access, which costs
    more than most of the kernel calls it caches on freshly derived maps.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class NonOrientedMap:
    """A bicolored map on a (possibly non-orientable) surface.

    ``labels`` is the sorted tuple of edge-side labels: arbitrary distinct
    integers, not required to stay contiguous after edge removals.  The
    three involutions are stored as partner-index tuples over ``labels``:
    ``_b[i]`` is the position of beta(labels[i]), and likewise ``_w`` for
    omega and ``_e`` for eps.  The labels and the three tuples are the
    whole map.

    Input from outside is validated: it goes through :meth:`from_arrays`,
    the one validating constructor (:meth:`from_pairs` converts label pairs
    and calls it).  Generated and derived maps are valid by construction:
    the generators of :mod:`monmap.enumeration`, the ``degree-bounds``
    sampler, :func:`remove_edge` and :func:`twist_many` build them straight
    from the index tuples they made, by ``_new_map``.  ``beta``, ``omega``
    and ``eps`` view the involutions as sorted label pairs (a, b) with
    a < b.  These views, the kernel outputs (face, component and vertex
    orbits), the bicolored graph and the canonical form are built on first
    access and cached per instance, in its ``__dict__``; ``mon._states``
    keeps the map's removals there too (``_removed``).  A twisted map
    (``_twist_sides``) gets none of its source's cached data: it builds
    its own views, walks its own orbits and builds its own graph from its
    own omega.
    """

    __slots__ = ("labels", "_b", "_w", "_e", "__dict__")

    def __setattr__(self, name, value):
        raise AttributeError("NonOrientedMap values are immutable")

    @classmethod
    def from_arrays(cls, labels, b, w, e) -> "NonOrientedMap":
        """The validating constructor: distinct integer labels in increasing
        order and three fixed-point-free involutions of their positions as
        partner-index sequences."""
        labels = tuple(labels)
        _check_labels(labels, "labels")
        if not all(map(lt, labels, labels[1:])):
            raise MapError("labels must be distinct and in increasing order")
        positions = list(range(len(labels)))
        for p, name in ((b, "beta"), (w, "omega"), (e, "eps")):
            try:
                ok = (list(map(p.__getitem__, p)) == positions
                      and not any(map(eq, p, positions)))
            except (IndexError, TypeError):  # not positions of the labels
                ok = False
            if not ok:
                raise MapError(f"{name} is not a fixed-point-free involution "
                               f"of the {len(labels)} label positions")
        return _new_map(labels, tuple(b), tuple(w), tuple(e))

    @classmethod
    def from_pairs(cls, beta, omega, eps) -> "NonOrientedMap":
        """Build from three lists of label pairs over one label set."""
        triple = [checked_pairs(pairs, name) for pairs, name in
                  ((beta, "beta"), (omega, "omega"), (eps, "eps"))]
        labels = tuple(sorted(x for pair in triple[0] for x in pair))
        arrays = [[-1] * len(labels) for _ in triple]
        for partner, pairs in zip(arrays, triple):
            for a, b in pairs:
                i, j = _position(labels, a), _position(labels, b)
                if i < 0 or j < 0:
                    raise MapError("the pairings must share one label set")
                partner[i], partner[j] = j, i
        return cls.from_arrays(labels, *arrays)

    @property
    def n(self) -> int:
        """Number of edges."""
        return len(self.labels) // 2

    def _label_pairs(self, partner) -> tuple[tuple[int, int], ...]:
        labels = self.labels
        return tuple([(labels[i], labels[j])
                      for i, j in enumerate(partner) if i < j])

    @_cached
    def beta(self) -> tuple[tuple[int, int], ...]:
        return self._label_pairs(self._b)

    @_cached
    def omega(self) -> tuple[tuple[int, int], ...]:
        return self._label_pairs(self._w)

    @_cached
    def eps(self) -> tuple[tuple[int, int], ...]:
        return self._label_pairs(self._e)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as sorted label pairs (a, b) with a < b."""
        return self.eps

    # -- derived data, cached per instance ---------------------------------

    @_cached
    def _face_data(self):
        return kernels.face_data(self._b, self._w)

    @_cached
    def _component_data(self):
        """Component orbits and orientability: (ids, count, orientable)."""
        return kernels.orbit_ids3(self._b, self._w, self._e)

    @_cached
    def _vertex_data(self):
        """Black and white vertex orbits: ((ids, count), (ids, count))."""
        black_ids, _, blacks = kernels.face_data(self._b, self._e)
        white_ids, _, whites = kernels.face_data(self._w, self._e)
        return (black_ids, blacks), (white_ids, whites)

    @_cached
    def _graph(self) -> BicoloredGraph:
        """``bicolored_graph``: edges as (black id, white id) pairs, ids in
        the first-visit order of ``_vertex_data``."""
        (black_ids, blacks), (white_ids, whites) = self._vertex_data
        edges = tuple(sorted(
            (black_ids[i], white_ids[i])
            for i, j in enumerate(self._e) if i < j))
        return BicoloredGraph(blacks, whites, edges)

    @_cached
    def _canonical(self) -> bytes:
        return _canonical_bytes(self)

    def _key(self):
        return self.labels, self._b, self._w, self._e

    def __eq__(self, other):
        if isinstance(other, NonOrientedMap):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"NonOrientedMap(B={list(map(list, self.beta))}, "
                f"W={list(map(list, self.omega))}, "
                f"E={list(map(list, self.eps))})")


# The slot setters write past the immutability guard in __setattr__.
_SET_LABELS, _SET_B, _SET_W, _SET_E = (
    getattr(NonOrientedMap, name).__set__
    for name in ("labels", "_b", "_w", "_e"))


def _new_map(labels, b, w, e) -> NonOrientedMap:
    """Private constructor from index tuples, which makes every map.

    It validates nothing: ``from_arrays`` validates input from outside
    first, and every other caller passes tuples valid by construction,
    which it built itself (the generators, the ``degree-bounds`` sampler,
    edge removal, twisting).
    """
    m = object.__new__(NonOrientedMap)
    _SET_LABELS(m, labels)
    _SET_B(m, b)
    _SET_W(m, w)
    _SET_E(m, e)
    return m


def _position(labels: tuple[int, ...], x) -> int:
    """Index of label x in the sorted label tuple, or -1."""
    i = bisect_left(labels, x)
    return i if i < len(labels) and labels[i] == x else -1


def _edge_index(m: NonOrientedMap, e) -> tuple[int, int]:
    """Positions (i, j), i < j, of the two sides of edge e."""
    a, b = _normalize_edge(e)
    i = _position(m.labels, a)
    if i >= 0:
        j = m._e[i]
        if m.labels[j] == b:
            return i, j
    raise MapError(f"{{{a},{b}}} is not an edge of the map")


def faces(m: NonOrientedMap):
    """Face orbits (as frozensets of labels) and the face-type partition."""
    ids, _, count = m._face_data
    orbits = [[] for _ in range(count)]
    for i, fid in enumerate(ids):
        orbits[fid].append(m.labels[i])
    face_sets = [frozenset(o) for o in orbits]
    face_type = tuple(sorted((len(o) // 2 for o in orbits), reverse=True))
    return face_sets, face_type


def structure(m: NonOrientedMap) -> MapStructure:
    (_, blacks), (_, whites) = m._vertex_data
    n_faces = m._face_data[2]
    n_comps = m._component_data[1]
    euler = n_faces - m.n + blacks + whites
    genus = Fraction(2 * n_comps - euler, 2)
    return MapStructure(blacks, whites, m.n, n_faces, n_comps, euler, genus)


def is_orientable(m: NonOrientedMap) -> bool:
    """Bipartiteness of the graph on labels with beta/omega/eps adjacencies.

    Orientable maps are exactly those whose edge-sides can be split into
    two classes, one per boundary direction; the three pairings each join
    opposite classes.  Computed with the components and cached on the map.
    """
    return m._component_data[2]


def classify_edge(m: NonOrientedMap, e) -> EdgeKind:
    return _edge_kind(m, *_edge_index(m, e))


def _edge_kind(m: NonOrientedMap, i: int, j: int) -> EdgeKind:
    """``classify_edge`` of the edge whose sides sit at positions i and j."""
    ids, cols, _ = m._face_data
    if ids[i] != ids[j]:
        return EdgeKind.INTERFACE
    if cols[i] == cols[j]:
        return EdgeKind.TWISTED
    return EdgeKind.STRAIGHT


def _drop(partner, i: int, j: int, renumber, heal: bool) -> tuple[int, ...]:
    """Partner array without positions i < j, renumbered.

    With ``heal``, the partners of i and j are paired with each other
    (unless i and j were partners), which closes the corner the removed
    edge leaves behind.
    """
    out = list(map(renumber.__getitem__, partner))
    if heal:
        pi, pj = partner[i], partner[j]
        if pi != j:
            out[pi] = renumber[pj]
            out[pj] = renumber[pi]
    del out[j], out[i]
    return tuple(out)


def remove_edge(m: NonOrientedMap, e) -> NonOrientedMap:
    """Remove one edge; endpoints that become isolated vanish with it."""
    i, j = _edge_index(m, e)
    labels = m.labels
    # old position -> new position; positions i and j map to junk values
    # that _drop deletes or overwrites
    renumber = [*range(i + 1), *range(i, j), *range(j - 1, len(labels) - 2)]
    return _new_map(labels[:i] + labels[i + 1:j] + labels[j + 1:],
                    _drop(m._b, i, j, renumber, True),
                    _drop(m._w, i, j, renumber, True),
                    _drop(m._e, i, j, renumber, False))


def twist_many(m: NonOrientedMap, edges) -> NonOrientedMap:
    """Twist a set of (necessarily disjoint) edges; order is irrelevant.

    Twisting edge e conjugates the white pairing by the transposition of
    e's two sides."""
    return _twist_sides(m, [_edge_index(m, e) for e in edges])


def _twist_sides(m: NonOrientedMap, sides) -> NonOrientedMap:
    """``twist_many`` of the edges whose sides sit at the position pairs
    ``sides``; m itself when there are none.  The twisted map shares m's
    ``labels`` and ``_e`` tuples, and none of m's cached data."""
    if not sides:
        return m
    swap = list(range(len(m.labels)))
    for i, j in sides:
        if swap[i] != i:
            raise MapError(f"edge {{{m.labels[i]},{m.labels[j]}}} listed "
                           f"twice in the twist set")
        swap[i] = j
        swap[j] = i
    w = m._w
    # omega' = s . omega . s with s the product of the swaps (an involution)
    return _new_map(m.labels, m._b, tuple([swap[w[x]] for x in swap]), m._e)


def _bridge_or_leaf(before: NonOrientedMap, after: NonOrientedMap,
                    i: int, j: int) -> bool:
    """Whether the edge at positions i, j of ``before`` is a bridge or a
    leaf there, where ``after`` is ``before`` with it removed.

    Leaf: an endpoint has degree one, so the edge is its own partner under
    beta or omega.  Bridge: its removal splits a component, which the
    component counts of the two maps give.  Removing a pendant edge deletes
    the pendant vertex rather than leaving a second component, so a leaf
    is never a bridge; the single-edge component counts as a leaf.
    """
    return (before._b[i] == j or before._w[i] == j
            or after._component_data[1] > before._component_data[1])


def _component_trace(b, w, e, start: int):
    """Renumber the component of position `start` by BFS over (B, W, E).

    The trace lists, for each discovered position in discovery order, the
    discovery indices of its three partners.  Two starts yield equal traces
    exactly when some label bijection maps the one component onto the
    other and the one start onto the other, which is what the canonical
    form minimizes over.  A position's triple is known when the BFS
    dequeues it, so the trace is built as the BFS runs.
    """
    pos = [-1] * len(b)
    pos[start] = 0
    order = [start]
    out = []
    for x in order:  # the loop also visits positions appended below
        y = b[x]
        pb = pos[y]
        if pb < 0:
            pb = pos[y] = len(order)
            order.append(y)
        y = w[x]
        pw = pos[y]
        if pw < 0:
            pw = pos[y] = len(order)
            order.append(y)
        y = e[x]
        pe = pos[y]
        if pe < 0:
            pe = pos[y] = len(order)
            order.append(y)
        out += (pb, pw, pe)
    return tuple(out)


def _trace_bytes(trace, sides: int) -> bytes:
    """A trace over ``sides`` sides (a map's, or one component's) as bytes:
    one byte per entry up to 256 sides, four beyond.  An entry is a
    discovery index, less than ``sides``, so it fits.  The only place a
    trace becomes bytes."""
    return bytes(trace) if sides <= 256 else array("I", trace).tobytes()


def canonical_form(m: NonOrientedMap) -> bytes:
    """Canonical byte string: equal iff the maps are label-isomorphic.

    The least BFS trace of each component over its starting sides, the
    traces sorted and joined, each encoded as a rooted trace is: a
    connected map's form is its least rooted trace.  Memoized on the map.
    Each component is traced once, from its first side, and its least
    trace is looked up in ``_COMPONENT_FORMS`` by that trace, which keys
    every rooting of every class met so far: a component of a known class
    costs one BFS, and a miss is a new class, traced from every side
    (``_least_form``).  A map whose trace from side 0 reaches every side
    is connected, and that trace is its key; otherwise the components
    come from ``_component_data``.  The table never changes a form: it
    holds only least traces, under rooted traces of their own class.

    A map with s sides has a form of 3s bytes when s <= 256 and 12s
    beyond, so the length gives the width of an entry.  At a known width
    the join splits back into its traces one way only: a trace ends at
    the first triple whose count is one past its largest entry so far,
    where the BFS has dequeued every side it discovered (discovery
    indices run from 0 without gaps).  So equal forms mean equal sorted
    lists of component classes, and a connected map's form, one trace,
    never equals a disconnected map's, two or more.
    """
    return m._canonical


class ClassMemo:
    """A memo of ``compute(m)`` per isomorphism class of m, for values that
    depend on a map only up to relabelling.

    One dict maps canonical forms to the values, so ``len`` is the number
    of classes computed.  The memo keeps no traces: the canonical form
    finds each component's class in the table of rooted traces,
    ``_COMPONENT_FORMS``, which keys every rooting of a class the first
    time the class is met, so a map of a known class costs one BFS per
    component (``canonical_form``), and the form is kept on the map.
    ``clear`` empties the memo.
    """

    def __init__(self):
        self.clear()

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        self._values: dict[bytes, object] = {}

    def get(self, m: NonOrientedMap, compute):
        values = self._values
        key = canonical_form(m)
        value = values.get(key)
        if value is None:
            value = values[key] = compute(m)
        return value


# Every process-wide cache of the package, added by the module that defines
# it: dicts and ClassMemos, emptied by ``clear``, and ``functools.lru_cache``
# functions, emptied by ``cache_clear``.
_CACHES: list = []


def clear_caches():
    """Empty every cache in ``_CACHES``: the table of component forms,
    ``mon``'s class memo (its ``len``, the class count, back to 0), state
    table and twist family table with its bijection results, and the
    ``lru_cache`` tables of ``jack`` and ``oriented``.  Caches kept on map
    instances stay: a map built before the clear keeps its own views,
    orbit data, ``_removed`` and ``_graph``, so residuals reached through
    it are no longer the state table's objects and the sharing that
    ``mon._states`` gives holds only among maps built since the clear.
    The values are equal either way, so no result changes."""
    for cache in _CACHES:
        clear = getattr(cache, "cache_clear", None) or cache.clear
        clear()


# rooted component trace -> the least trace of that component's class,
# both as bytes at the component's own width: every rooting of every
# class met since ``clear_caches`` is a key (``_least_form``)
_COMPONENT_FORMS: dict[bytes, bytes] = {}
_CACHES.append(_COMPONENT_FORMS)


def _least_form(b, w, e, sides) -> bytes:
    """The least trace of a component as bytes, on a miss of
    ``_COMPONENT_FORMS``: ``sides`` lists the component's sides.

    A rooted trace (a component's trace from one of its sides) is a key of
    the table: equal traces mean a label bijection sending one component
    onto the other, root onto root, so a key names one class, and the
    least trace, the value, depends on the class alone.  A class met for
    the first time has every one of its rootings keyed here, so a miss is
    always a new class: the component is traced in full from each of its
    sides, and each of those traces is keyed to the least.  The least is
    taken over the traces, not their bytes, which past 256 sides order
    otherwise.  The table only saves the search: every result is the
    least trace, whatever it holds.
    """
    width = len(sides)
    traces = [_component_trace(b, w, e, s) for s in sides]
    form = _trace_bytes(min(traces), width)
    for trace in traces:
        _COMPONENT_FORMS[_trace_bytes(trace, width)] = form
    return form


def _trace_entries(form: bytes) -> tuple[int, ...]:
    """A trace back from its bytes at its component's own width: a
    component of s sides takes 3s bytes, at most 768, when s <= 256, and
    12s, more than 3 072, beyond."""
    return tuple(form) if len(form) <= 768 else tuple(array("I", form))


def _canonical_bytes(m: NonOrientedMap) -> bytes:
    b, w, e = m._b, m._w, m._e
    if not b:
        return b""
    root = _component_trace(b, w, e, 0)
    if len(root) == 3 * len(b):  # connected: the trace from side 0 is its key
        return (_COMPONENT_FORMS.get(_trace_bytes(root, len(b)))
                or _least_form(b, w, e, range(len(b))))
    ids, count, _ = m._component_data
    comps: list[list[int]] = [[] for _ in range(count)]
    for i, cid in enumerate(ids):
        comps[cid].append(i)
    forms = []
    for sides in comps:  # side 0's component was traced above
        trace = _component_trace(b, w, e, sides[0]) if sides[0] else root
        forms.append(_COMPONENT_FORMS.get(_trace_bytes(trace, len(sides)))
                     or _least_form(b, w, e, sides))
    if len(b) > 256:  # sorted by trace, then joined at the map's width
        traces = sorted(map(_trace_entries, forms))
        return b"".join([_trace_bytes(t, len(b)) for t in traces])
    forms.sort()  # as bytes: one byte per entry, so in the order of traces
    return b"".join(forms)


def bicolored_graph(m: NonOrientedMap) -> BicoloredGraph:
    """The underlying bicolored multigraph, built once and cached on m."""
    return m._graph


def graph_class(m: NonOrientedMap) -> BicoloredGraphClass:
    return canonical_graph_class(bicolored_graph(m))


# -- JSON interchange and shipped fixtures --------------------------------


def map_to_json_obj(m: NonOrientedMap) -> dict:
    return {
        "labels": list(m.labels),
        "B": [list(p) for p in m.beta],
        "W": [list(p) for p in m.omega],
        "E": [list(p) for p in m.eps],
    }


def map_from_json_obj(obj) -> NonOrientedMap:
    """The one loader of map JSON; malformed input raises MapError.
    Keys other than ``labels``, ``B``, ``W`` and ``E`` are ignored."""
    if not isinstance(obj, dict):
        raise MapError("a map must be a JSON object with keys B, W and E")
    for key in "BWE":
        if not isinstance(obj.get(key), list):
            raise MapError(f"map JSON needs {key!r} as a list of [a, b] "
                           f"label pairs")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise MapError("'labels' must be a list of integers")
        _check_labels(labels, "labels")
    m = NonOrientedMap.from_pairs(obj["B"], obj["W"], obj["E"])
    if labels is not None and tuple(sorted(labels)) != m.labels:
        raise MapError("label list does not match the pairings")
    return m


def load_fixture(name: str) -> NonOrientedMap:
    """Shipped example maps: 'klein' (Klein bottle) and 'projective' (RP2)."""
    from importlib.resources import files

    path = files("monmap.data").joinpath(f"{name.lower()}.json")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise MapError(f"unknown fixture {name!r}") from None
    return map_from_json_obj(json.loads(text))
