"""Edge weights, history weights and the measure of non-orientability.

An edge removed from a map contributes a factor depending on how it sits in
the current map: 1 if straight, gamma if twisted, 1/2 if it separates two
faces.  Averaging the product of these factors over all n! removal orders
gives mon(M), a polynomial in gamma.  Its coefficient at the top admissible
degree n + |F| - |V| equals the probability that a uniformly random removal
order keeps every intermediate map "top-degree" (each connected component a
single face); both quantities are computed independently here and checked
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import GAMMA, HALF, ONE, GammaPoly
from .maps import (EdgeKind, MapError, NonOrientedMap, canonical_form,
                   classify_edge, remove_edge, structure)

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


def _check_history(m: NonOrientedMap, history: Sequence) -> tuple[tuple[int, int], ...]:
    """The history as sorted edge pairs; it must order every edge once."""
    edges = tuple(tuple(sorted(e)) for e in history)
    if tuple(sorted(edges)) != m.edges():
        raise MapError("history is not a permutation of the edge set")
    return edges


def history_weight(m: NonOrientedMap, history: Sequence) -> GammaPoly:
    """Product of edge weights along a removal order."""
    edges = _check_history(m, history)
    out = ONE
    current = m
    for e in edges:
        out = out * edge_weight(current, e)
        current = remove_edge(current, e)
    return out


def is_top_degree_map(m: NonOrientedMap) -> bool:
    """Each connected component is a single face (vacuous for the empty map)."""
    return m._face_data[2] == m._component_data[1]


def failing_prefix(m: NonOrientedMap, history: Sequence) -> Optional[int]:
    """Index i such that M_i is not top-degree, or None if the pair is."""
    edges = _check_history(m, history)
    current = m
    for i in range(len(edges) + 1):
        if not is_top_degree_map(current):
            return i
        if i < len(edges):
            current = remove_edge(current, edges[i])
    return None


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
    from .maps import edge_role  # local import to keep module load light

    edges = _check_history(m, history)
    cond_a = is_top_degree_pair(m, edges)

    cond_b = True
    current = m
    for e in edges:
        kind = classify_edge(current, e)
        if kind != EdgeKind.TWISTED:
            role = edge_role(current, e)
            if not (role.is_bridge or role.is_leaf):
                cond_b = False
                break
        current = remove_edge(current, e)

    weight = history_weight(m, edges)
    st = structure(m)
    target = st.faces + st.edges - st.vertices
    cond_c = weight.degree == target

    leading = None
    if cond_a and cond_b and cond_c:
        leading = weight.coefficient(target) == 1
    return EquivalenceReport(cond_a, cond_b, cond_c, target, leading)
