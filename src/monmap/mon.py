"""Edge weights, history weights and the measure of non-orientability.

An edge removed from a map contributes a factor depending on how it sits in
the current map: 1 if straight, gamma if twisted, 1/2 if it separates two
faces.  Averaging the product of these factors over all n! removal orders
gives mon(M), a polynomial in gamma (La Croix's measure of
non-orientability).  Its coefficient at the top admissible degree
n + |F| - |V| equals the probability that a uniformly random removal order
keeps every intermediate map "top-degree" (each connected component a
single face).  One memoised recursion (``_mon_pair``) computes both as
integer history counts, each by its own formula over the same residual
maps: T = 2^n n! mon(M), whose edge weights 2, 2 gamma and 1 need no
fractions, and K = n! times the probability, the number of top-degree
histories.  ``mon``, ``mon_top_detail`` and ``mon_top`` divide by 2^n n!
and by n! only when they return, and ``mon_top`` checks one route against
the other.  The memo, ``_MON_CACHE``, is a ``maps.ClassMemo``: one value
per isomorphism class, keyed by its canonical form alone.  A residual of
a known class costs one BFS per component, since the canonical form finds
each component's class by its trace from its first side in the table of
rooted traces, ``maps._COMPONENT_FORMS``, which keys every rooting of a
class the first time the class is met.  A caller whose maps are pairwise
non-isomorphic, on which the memo could never hit, counts each through
``_history_counts``, which still memoises the residuals
(``diagrams._one_face_table``).  The residual maps are built afresh and
never interned: the memo already shares the work between isomorphic
residuals, and interning them in ``_STATES`` as well raised the peak RSS
of an in-process ``degree-bounds`` run from 20.7 to 23.3 MB (+12%).

A history weight is the monomial gamma^t / 2^f, with t the number of
twisted and f the number of interface removals, so a check on it reads
the two integers (t, f), as ``_mon_pair`` counts mon in integers:
condition C is t == n + |F| - |V|, the monic test f == 0, and the
``degree-bounds`` sampler compares t with its bound.  Only the public
``history_weight`` builds the polynomial.  The counts need no residual
map: ``kernels.removal_counts`` walks the history on one copy of the
map's partner arrays, classifying each edge by a face walk and removing
it in place.  Every history weight takes this one route,
``_sides_weight``, with the history as the side positions of its edges:
``history_weight`` and condition C find them by bisection on the labels,
and the ``degree-bounds`` sampler draws them as positions.

The per-history checks that do need residual maps (top-degree prefixes,
admissible removals, and the twist bijection in ``monmap.bijection``) read
the chain M = M_0, M_1, ..., M_n left after each prefix of the history
(see ``_states``).  Each removal is kept on the map it was taken from, and
every residual map is interned in one table for the process (``_STATES``,
emptied by ``clear_caches``), so equal removals from different maps are
one object: the histories of every map checked share their common
residual maps, their removals and their cached kernel data.  The table
holds the distinct proper residuals of the maps checked, 1 534 at the
default parameters of ``verify all``.  The twist bijection reads it too:
``bijection._settle`` replaces a twisting candidate that equals a residual
in the table by the table's object, and so reuses its cached kernel data.
It only reads: it never adds a candidate, so the table holds residuals
alone.  Edge kinds and roles are read from the states, never stored:
condition B finds each removed edge's two sides once per state, by
bisection on its labels, and reads the kind and the bridge/leaf test at
those positions.  The degree target
n + |F| - |V| comes from the face and vertex counts cached on the map.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from . import kernels
from .algebra import GammaPoly
from .maps import (_CACHES, ClassMemo, EdgeKind, MapError, NonOrientedMap,
                   _bridge_or_leaf, _edge_index, _edge_kind, checked_pairs,
                   clear_caches, remove_edge)

# isomorphism class -> _mon_pair's integer counts (T, K); len is the class
# count
_MON_CACHE = ClassMemo()
_EMPTY_COUNTS = ((1,), 1)
# residual map key (NonOrientedMap._key) -> the one state object for it
_STATES: dict[tuple, NonOrientedMap] = {}
_CACHES.extend((_MON_CACHE, _STATES))


def _check_history(m: NonOrientedMap, history: Sequence):
    """A removal order as a tuple of edges, each a sorted label pair.  Every
    entry must be a pair of integer labels, and the order must list every
    edge of m once (``m.eps`` is the sorted tuple of its edges).
    """
    edges = tuple(checked_pairs(history, "history"))
    if tuple(sorted(edges)) != m.eps:
        for e in edges:
            _edge_index(m, e)  # names the first entry that is not an edge
        raise MapError("history is not a permutation of the edge set")
    return edges


def _states(m: NonOrientedMap, edges) -> list[NonOrientedMap]:
    """The residual maps along a history: ``states[k]`` is m with
    ``edges[:k]`` removed.

    Each removal is kept on the map instance it was taken from (maps are
    immutable), and every removed map is interned in ``_STATES`` by its
    labels and partner arrays.  Equal residual maps reached from
    different maps, or in different orders, are therefore one object, and
    its removals and cached kernel data serve every history that reaches
    it.  m itself is never interned, so the table holds only the distinct
    proper residuals of the maps checked since ``clear_caches``: 1 534 at
    the default parameters of ``lemma-equivalence`` and ``key-bijection``,
    and up to 28 * 15**3 + 70 * 27 + 28 + 1 = 96 419 for a forced
    ``lemma-equivalence --n 4``.  Only this function adds to the table;
    ``bijection._settle`` looks its twist candidates below the input map
    up in it and never adds one.  ``clear_caches`` empties the table but
    not the removals kept on maps (nor their ``_graph``): a map built
    before a clear still gives its own, equal, residuals, so the sharing
    holds only among maps built since the clear, and results do not
    change.
    """
    states = [m]
    for e in edges:
        removed = m.__dict__.get("_removed")
        if removed is None:
            removed = m.__dict__["_removed"] = {}
        child = removed.get(e)
        if child is None:
            child = remove_edge(m, e)
            child = removed[e] = _STATES.setdefault(child._key(), child)
        m = child
        states.append(m)
    return states


def history_weight(m: NonOrientedMap, history: Sequence) -> GammaPoly:
    """Product of edge weights along a removal order: gamma^t / 2^f, from
    the counts (t, f) of twisted and interface removals."""
    twisted, interfaces = _weight_counts(m, _check_history(m, history))
    return GammaPoly((0,) * twisted + (Fraction(1, 2 ** interfaces),))


def _weight_counts(m: NonOrientedMap, edges) -> tuple[int, int]:
    """``_sides_weight`` of a history given as edges.  The edges are
    ``_check_history``'s, so each is found by one bisection on m's
    labels."""
    labels, partner = m.labels, m._e
    sides = []
    for a, _ in edges:
        i = bisect_left(labels, a)
        sides.append((i, partner[i]))
    return _sides_weight(m, sides)


def _sides_weight(m: NonOrientedMap, sides) -> tuple[int, int]:
    """The weight of a history given as the side positions (i, j) of its
    edges, in removal order, as its counts (t, f) of twisted and interface
    removals: the weight is gamma^t / 2^f.  The one route by which every
    history weight is computed.  The ``degree-bounds`` sampler draws its
    histories as side positions and calls it directly."""
    return kernels.removal_counts(m._b, m._w, sides)


def is_top_degree_map(m: NonOrientedMap) -> bool:
    """Each connected component is a single face (vacuous for the empty map)."""
    return m._face_data[2] == m._component_data[1]


def _failing_prefix(states) -> Optional[int]:
    """Index i such that states[i] is not top-degree, or None if none is."""
    for i, state in enumerate(states):
        if not is_top_degree_map(state):
            return i
    return None


def _removals_admissible(states, edges) -> bool:
    """Each removed edge is twisted, a bridge or a leaf where it is removed.
    The edges are ``_check_history``'s, so each is found by one bisection
    on the labels of the state it is removed from."""
    for before, after, (a, _) in zip(states, states[1:], edges):
        i = bisect_left(before.labels, a)
        j = before._e[i]
        if (_edge_kind(before, i, j) is not EdgeKind.TWISTED
                and not _bridge_or_leaf(before, after, i, j)):
            return False
    return True


def is_top_degree_pair(m: NonOrientedMap, history: Sequence) -> bool:
    """Whether every residual map along the history is top-degree."""
    return _failing_prefix(_states(m, _check_history(m, history))) is None


def _mon_pair(m: NonOrientedMap) -> tuple[tuple[int, ...], int]:
    """(T, K): the history counts of m, as integers.

    T = 2^n n! mon(m), as its coefficients of gamma^0 .. gamma^n, and K =
    n! times the probability that a random history of m is top-degree: the
    number of top-degree histories.  Both are 1 on the empty map, and

        T(M) = sum over edges e of c(M, e) * T(M \\ e),
        K(M) = sum over edges e of K(M \\ e) if M is top-degree, else 0,

    with c = 2, 2 gamma or 1 for a straight, twisted or interface edge (the
    recursion mon(M) = (1/n) sum_e weight(M, e) mon(M \\ e) times 2^n n!).
    T sums the children of each kind first, then T = 2S + 2 gamma W + I.
    The two counts share only the residual maps: K reads no edge kind and T
    never asks whether a map is top-degree.

    Memoised per isomorphism class in ``_MON_CACHE``, a ``maps.ClassMemo``,
    so isomorphic residual maps share work.  The empty map stays out of it.
    """
    if m.n == 0:
        return _EMPTY_COUNTS
    return _MON_CACHE.get(m, _history_counts)


def _history_counts(m: NonOrientedMap) -> tuple[tuple[int, ...], int]:
    """``_mon_pair`` of a nonempty map from those of its one-edge removals."""
    n = m.n
    by_kind = {kind: [0] * n for kind in EdgeKind}
    top = 0
    labels = m.labels
    for i, j in enumerate(m._e):
        if i < j:
            t, k = _mon_pair(remove_edge(m, (labels[i], labels[j])))
            acc = by_kind[_edge_kind(m, i, j)]
            for d, c in enumerate(t):
                acc[d] += c
            top += k
    straight, twisted, interface = (
        by_kind[EdgeKind.STRAIGHT], by_kind[EdgeKind.TWISTED],
        by_kind[EdgeKind.INTERFACE])
    t = [2 * s + i for s, i in zip(straight, interface)] + [0]
    for d, w in enumerate(twisted, 1):
        t[d] += 2 * w
    return tuple(t), top if is_top_degree_map(m) else 0


def _scales(n: int) -> tuple[int, int]:
    """(2^n n!, n!): the denominators of mon and of the probability."""
    labelings = factorial(n)
    return labelings << n, labelings


def mon(m: NonOrientedMap) -> GammaPoly:
    """Average history weight, via the edge-removal recursion."""
    scale = _scales(m.n)[0]
    return GammaPoly([Fraction(c, scale) for c in _mon_pair(m)[0]])


def mon_top_degree_target(m: NonOrientedMap) -> int:
    """The degree n + |F| - |V| at which mon's leading term may sit, from
    the face and vertex counts cached on m."""
    (_, blacks), (_, whites) = m._vertex_data
    return m.n + m._face_data[2] - blacks - whites


def mon_top_detail(m: NonOrientedMap) -> tuple[Fraction, Fraction]:
    """(probability over random histories, top coefficient of mon)."""
    return _top_detail(m, _mon_pair(m))


def _top_detail(m: NonOrientedMap, counts) -> tuple[Fraction, Fraction]:
    """``mon_top_detail`` of m from its history counts (T, K)."""
    t, k = counts
    scale, labelings = _scales(m.n)
    target = mon_top_degree_target(m)
    coeff = t[target] if 0 <= target < len(t) else 0
    return Fraction(k, labelings), Fraction(coeff, scale)


def mon_top(m: NonOrientedMap) -> Fraction:
    prob, coeff = mon_top_detail(m)
    if prob != coeff:
        raise AssertionError(
            f"mon_top mismatch: probability {prob} vs coefficient {coeff} "
            f"on {m!r}")
    return prob


@dataclass(frozen=True)
class EquivalenceReport:
    """The three equivalent conditions on a (map, history) pair.

    top_degree_pair     - every removal prefix is a top-degree map;
    removals_admissible - each removed edge is twisted, a bridge or a leaf
                          in the map it is removed from;
    degree_maximal      - deg of the history weight equals |F|+|E|-|V|.

    When all three hold, ``leading_coefficient_one`` records whether the
    history weight is monic at that degree (it must be).
    """

    top_degree_pair: bool
    removals_admissible: bool
    degree_maximal: bool
    degree_target: int
    leading_coefficient_one: Optional[bool]

    @property
    def consistent(self) -> bool:
        return self.top_degree_pair == self.removals_admissible == self.degree_maximal


def lemma_equivalence_check(m: NonOrientedMap, history: Sequence) -> EquivalenceReport:
    edges = _check_history(m, history)
    states = _states(m, edges)
    cond_a = _failing_prefix(states) is None
    cond_b = _removals_admissible(states, edges)
    # the history weight is gamma^twisted / 2^interfaces
    twisted, interfaces = _weight_counts(m, edges)
    target = mon_top_degree_target(m)  # |F| + |E| - |V|
    cond_c = twisted == target

    leading = None
    if cond_a and cond_b and cond_c:
        leading = interfaces == 0
    return EquivalenceReport(cond_a, cond_b, cond_c, target, leading)
