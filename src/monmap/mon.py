"""Edge weights, history weights and the measure of non-orientability.

An edge removed from a map contributes a factor depending on how it sits in
the current map: 1 if straight, gamma if twisted, 1/2 if it separates two
faces.  Averaging the product of these factors over all n! removal orders
gives mon(M), a polynomial in gamma.  Its coefficient at the top admissible
degree n + |F| - |V| equals the probability that a uniformly random removal
order keeps every intermediate map "top-degree" (each connected component a
single face).  One memoised recursion (``_mon_pair``) computes both, each
by its own formula over the same residual maps, and ``mon_top`` checks one
against the other.  Its residual maps are built afresh and never interned:
the memo on canonical forms already shares the work between isomorphic
residuals, and interning them in ``_STATES`` as well raised the peak RSS
of an in-process ``degree-bounds`` run from 20.7 to 23.3 MB (+12%).

A history weight needs no residual map: ``kernels.removal_counts`` walks
the history on one copy of the map's partner arrays, classifying each edge
by a face walk and removing it in place.  The per-history checks that do
need residual maps (top-degree prefixes, admissible removals, and the twist
bijection in ``monmap.bijection``) read the chain M = M_0, M_1, ..., M_n
left after each prefix of the history (see ``_states``).  Each removal is
kept on the map it was taken from, and every residual map is interned in
one table for the process (``_STATES``, emptied by ``clear_caches``), so
equal removals from different maps are one object: the histories of every
map checked share their common residual maps, their removals and their
cached kernel data.  The table holds the distinct proper residuals of the
maps checked, 1 598 at the default parameters of ``verify all``.  Edge
kinds and roles are read from the states, never stored: condition B finds
each removed edge's two sides once per state, by bisection on its labels,
and reads the kind and the bridge/leaf test at those positions.  The
degree target n + |F| - |V| comes from the face and vertex counts cached on
the map.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import kernels
from .algebra import GAMMA, HALF, ONE, GammaPoly
from .maps import (EdgeKind, MapError, NonOrientedMap, _bridge_or_leaf,
                   _edge_index, _edge_kind, canonical_form, checked_pairs,
                   classify_edge, remove_edge)

_WEIGHTS = {
    EdgeKind.STRAIGHT: ONE,
    EdgeKind.TWISTED: GAMMA,
    EdgeKind.INTERFACE: HALF,
}

# unrooted canonical form -> (mon, top-degree probability)
_MON_CACHE: dict[bytes, tuple[GammaPoly, Fraction]] = {}
# residual map key (NonOrientedMap._key) -> the one state object for it
_STATES: dict[tuple, NonOrientedMap] = {}


def clear_caches():
    _MON_CACHE.clear()
    _STATES.clear()
    _monomial.cache_clear()


def edge_weight(m: NonOrientedMap, e) -> GammaPoly:
    return _WEIGHTS[classify_edge(m, e)]


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
    labels, partner arrays and root.  Equal residual maps reached from
    different maps, or in different orders, are therefore one object, and
    its removals and cached kernel data serve every history that reaches
    it.  m itself is never interned, so the table holds only the distinct
    proper residuals of the maps checked since ``clear_caches``: 1 598 at
    the default parameters of ``lemma-equivalence`` and ``key-bijection``,
    and up to 28 * 15**3 + 70 * 27 + 28 + 1 = 96 419 for a forced
    ``lemma-equivalence --n 4``.
    """
    states = [m]
    for e in edges:
        removed = m.__dict__.setdefault("_removed", {})
        child = removed.get(e)
        if child is None:
            child = remove_edge(m, e)
            child = removed[e] = _STATES.setdefault(child._key(), child)
        m = child
        states.append(m)
    return states


def history_weight(m: NonOrientedMap, history: Sequence) -> GammaPoly:
    """Product of edge weights along a removal order."""
    return _history_weight(m, _check_history(m, history))


def _history_weight(m: NonOrientedMap, edges) -> GammaPoly:
    """The edges are ``_check_history``'s, so each is found by one
    bisection on m's labels."""
    labels, partner = m.labels, m._e
    sides = []
    for a, _ in edges:
        i = bisect_left(labels, a)
        sides.append((i, partner[i]))
    return _monomial(*kernels.removal_counts(m._b, m._w, sides))


@lru_cache(maxsize=None)
def _monomial(twisted: int, interfaces: int) -> GammaPoly:
    """gamma^twisted / 2^interfaces: the weights are 1, gamma and 1/2, so a
    history weight is a monomial.  Kept per count pair because building the
    polynomial costs more than the removal walk."""
    return GammaPoly((0,) * twisted + (Fraction(1, 2 ** interfaces),))


def is_top_degree_map(m: NonOrientedMap) -> bool:
    """Each connected component is a single face (vacuous for the empty map)."""
    return m._face_data[2] == m._component_data[1]


def failing_prefix(m: NonOrientedMap, history: Sequence) -> Optional[int]:
    """Index i such that M_i is not top-degree, or None if the pair is."""
    return _failing_prefix(_states(m, _check_history(m, history)))


def _failing_prefix(states) -> Optional[int]:
    return next((i for i, state in enumerate(states)
                 if not is_top_degree_map(state)), None)


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
    return failing_prefix(m, history) is None


def _mon_pair(m: NonOrientedMap) -> tuple[GammaPoly, Fraction]:
    """(mon(m), probability that a random history of m is top-degree), by
    one edge-removal recursion.

    mon(M) = (1/n) * sum over edges e of weight(M, e) * mon(M \\ e), and the
    probability is (1/n) * sum over e of its value on M \\ e if M is
    top-degree, else 0; both are 1 on the empty map.  The two sums share
    only the residual maps: the probability reads no edge weight and mon
    never asks whether a map is top-degree.  Memoized on the unrooted
    canonical form, so isomorphic residual maps share work.
    """
    if m.n == 0:
        return ONE, Fraction(1)
    key = canonical_form(m)
    hit = _MON_CACHE.get(key)
    if hit is not None:
        return hit
    poly, prob = GammaPoly(), Fraction(0)
    for e in m.edges():
        child_poly, child_prob = _mon_pair(remove_edge(m, e))
        poly = poly + _WEIGHTS[classify_edge(m, e)] * child_poly
        prob += child_prob
    value = _MON_CACHE[key] = (
        poly.scale(Fraction(1, m.n)),
        prob / m.n if is_top_degree_map(m) else Fraction(0))
    return value


def mon(m: NonOrientedMap) -> GammaPoly:
    """Average history weight, via the edge-removal recursion."""
    return _mon_pair(m)[0]


def mon_top_degree_target(m: NonOrientedMap) -> int:
    """The degree n + |F| - |V| at which mon's leading term may sit, from
    the face and vertex counts cached on m."""
    (_, blacks), (_, whites) = m._vertex_data
    return m.n + m._face_data[2] - blacks - whites


def mon_top_detail(m: NonOrientedMap) -> tuple[Fraction, Fraction]:
    """(probability over random histories, top coefficient of mon)."""
    poly, prob = _mon_pair(m)
    return prob, poly.coefficient(mon_top_degree_target(m))


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
    weight = _history_weight(m, edges)
    target = mon_top_degree_target(m)  # |F| + |E| - |V|
    cond_c = weight.degree == target

    leading = None
    if cond_a and cond_b and cond_c:
        leading = weight.coefficient(target) == 1
    return EquivalenceReport(cond_a, cond_b, cond_c, target, leading)
