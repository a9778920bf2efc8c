"""Edge weights, history weights and the measure of non-orientability.

An edge removed from a map contributes a factor depending on how it sits in
the current map: 1 if straight, gamma if twisted, 1/2 if it separates two
faces.  Averaging the product of these factors over all n! removal orders
gives mon(M), a polynomial in gamma.  Its coefficient at the top admissible
degree n + |F| - |V| equals the probability that a uniformly random removal
order keeps every intermediate map "top-degree" (each connected component a
single face); both quantities are computed independently here and checked
against each other.

A history weight needs no residual map: ``kernels.removal_counts`` walks
the history on one copy of the map's partner arrays, classifying each edge
by a face walk and removing it in place.  The per-history checks that do
need residual maps (top-degree prefixes, admissible removals, and the twist
bijection in ``monmap.bijection``) walk one ``HistoryLattice`` per map: the
residual maps after each set of removed edges, built once and shared by
every removal order.  This module keeps that lattice on the map instance
(see ``_lattice``); edge kinds and roles are read from its states, never
stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import kernels
from .algebra import GAMMA, HALF, ONE, GammaPoly
from .maps import (EdgeKind, EdgeRole, MapError, NonOrientedMap,
                   _edge_index, canonical_form, checked_pairs, classify_edge,
                   remove_edge, structure)

_WEIGHTS = {
    EdgeKind.STRAIGHT: ONE,
    EdgeKind.TWISTED: GAMMA,
    EdgeKind.INTERFACE: HALF,
}

_MON_CACHE: dict[bytes, GammaPoly] = {}
_TOP_CACHE: dict[bytes, Fraction] = {}


def clear_caches():
    _MON_CACHE.clear()
    _TOP_CACHE.clear()


def edge_weight(m: NonOrientedMap, e) -> GammaPoly:
    return _WEIGHTS[classify_edge(m, e)]


def _check_history(m: NonOrientedMap, history: Sequence):
    """A removal order as (edges, sides): its edges as sorted label pairs
    and the side positions (i, j), i < j, of each.  Every entry must be a
    pair of integer labels, and the order must list every edge of m once.
    """
    edges = checked_pairs(history, "history")
    sides = [_edge_index(m, e) for e in edges]
    if len(sides) != m.n or len(set(sides)) != m.n:
        raise MapError("history is not a permutation of the edge set")
    return tuple(edges), sides


class HistoryLattice:
    """The residual maps of one map, keyed by the set of removed edges.

    Bit k of a mask stands for the k-th edge of ``m.edges()``.  The map
    left after removing some edges depends only on which edges were
    removed, not on their order, so the 2^n states serve all n! removal
    histories.  A state is built on first use by removing one edge from
    the state the walk comes from (any parent gives an equal map), so a
    single history costs n removals, as a walk without the lattice does.

    The lattice stores nothing but these states.  An edge's kind is
    ``classify_edge`` of its state, and its bridge/leaf role (``role``)
    compares the component counts of the state and of its child, so it
    needs no removal of its own.  History weights do not build a lattice
    (see ``history_weight``).
    """

    __slots__ = ("_bits", "_states")

    def __init__(self, m: NonOrientedMap):
        self._bits = {e: 1 << k for k, e in enumerate(m.edges())}
        self._states = {0: m}

    def state(self, mask: int) -> NonOrientedMap:
        """The residual map of a mask reached by the walks so far."""
        return self._states[mask]

    def child(self, mask: int, e) -> int:
        """The mask after also removing edge e, building its state once."""
        child = mask | self._bits[e]
        if child not in self._states:
            self._states[child] = remove_edge(self._states[mask], e)
        return child

    def role(self, mask: int, e) -> EdgeRole:
        """``edge_role`` of e in the state of mask."""
        m = self._states[mask]
        after = self._states[self.child(mask, e)]
        i, j = _edge_index(m, e)
        return EdgeRole(
            is_bridge=after._component_data[1] > m._component_data[1],
            is_leaf=m._b[i] == j or m._w[i] == j)


def _lattice(m: NonOrientedMap) -> HistoryLattice:
    """The lattice of m, built on first use and kept on the map instance
    (maps are immutable), so that every history of one map shares its
    states."""
    lattice = m.__dict__.get("_lattice")
    if lattice is None:
        lattice = m.__dict__["_lattice"] = HistoryLattice(m)
    return lattice


def history_weight(m: NonOrientedMap, history: Sequence) -> GammaPoly:
    """Product of edge weights along a removal order."""
    return _history_weight(m, _check_history(m, history)[1])


def _history_weight(m: NonOrientedMap, sides) -> GammaPoly:
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
    return _failing_prefix(_lattice(m), _check_history(m, history)[0])


def _failing_prefix(lattice: HistoryLattice, edges) -> Optional[int]:
    mask = 0
    for i, e in enumerate(edges):
        if not is_top_degree_map(lattice.state(mask)):
            return i
        mask = lattice.child(mask, e)
    return None if is_top_degree_map(lattice.state(mask)) else len(edges)


def _removals_admissible(lattice: HistoryLattice, edges) -> bool:
    """Each removed edge is twisted, a bridge or a leaf where it is removed."""
    mask = 0
    for e in edges:
        if classify_edge(lattice.state(mask), e) is not EdgeKind.TWISTED:
            role = lattice.role(mask, e)
            if not (role.is_bridge or role.is_leaf):
                return False
        mask = lattice.child(mask, e)
    return True


def is_top_degree_pair(m: NonOrientedMap, history: Sequence) -> bool:
    return failing_prefix(m, history) is None


def mon(m: NonOrientedMap) -> GammaPoly:
    """Average history weight, via the edge-removal recursion.

    mon(M) = (1/n) * sum over edges e of weight(M, e) * mon(M \\ e), with
    mon(empty) = 1.  Memoized on the unrooted canonical form, so isomorphic
    residual maps share work.
    """
    if m.n == 0:
        return ONE
    key = canonical_form(m)
    hit = _MON_CACHE.get(key)
    if hit is not None:
        return hit
    total = GammaPoly()
    for e in m.edges():
        total = total + _WEIGHTS[classify_edge(m, e)] * mon(remove_edge(m, e))
    value = total.scale(Fraction(1, m.n))
    _MON_CACHE[key] = value
    return value


def mon_top_degree_target(m: NonOrientedMap) -> int:
    """The degree n + |F| - |V| at which mon's leading term may sit."""
    st = structure(m)
    return m.n + st.faces - st.vertices


def _top_probability(m: NonOrientedMap) -> Fraction:
    if m.n == 0:
        return Fraction(1)
    if not is_top_degree_map(m):
        return Fraction(0)
    key = canonical_form(m)
    hit = _TOP_CACHE.get(key)
    if hit is not None:
        return hit
    total = Fraction(0)
    for e in m.edges():
        total += _top_probability(remove_edge(m, e))
    value = total / m.n
    _TOP_CACHE[key] = value
    return value


def mon_top_detail(m: NonOrientedMap) -> tuple[Fraction, Fraction]:
    """(probability over random histories, top coefficient of mon)."""
    prob = _top_probability(m)
    coeff = mon(m).coefficient(mon_top_degree_target(m))
    return prob, coeff


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
    edges, sides = _check_history(m, history)
    lattice = _lattice(m)
    cond_a = _failing_prefix(lattice, edges) is None
    cond_b = _removals_admissible(lattice, edges)
    weight = _history_weight(m, sides)
    st = structure(m)
    target = st.faces + st.edges - st.vertices
    cond_c = weight.degree == target

    leading = None
    if cond_a and cond_b and cond_c:
        leading = weight.coefficient(target) == 1
    return EquivalenceReport(cond_a, cond_b, cond_c, target, leading)
