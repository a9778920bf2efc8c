"""The twist bijection between top-degree pairs and orientable maps.

``phi`` sends a pair (map, history) whose every removal prefix is
top-degree to an orientable map on the same labels with the same history,
by twisting a subset of edges; ``phi_inverse`` is the mirror induction.
Both preserve the underlying bicolored multigraph on the nose (a twist
changes only which surface the graph is drawn on).

The induction settles the history's edges from the last one back to the
first, over the chain of residual maps left after each prefix of the
history (``mon._states``, which the per-history checks read too).  The map
left after removing edges 1..k-1 gets the twist set found for the smaller
map left after removing edge k as well; then, if edge k is a bridge or a
leaf there, it is kept as is, otherwise it is twisted exactly when needed.
That this choice is always available and unique is the one-of-two
dichotomy; a violation would be an implementation bug and aborts with the
history up to the failing edge.

The induction runs on side positions.  The twist set is kept as label
pairs, which stay fixed across the states; at each level the sides of edge
k and of the twist set are found once, by bisection on that state's
labels, and both candidates are twisted at those positions
(``maps._twist_sides``, the one twist, which ``twist_many`` also calls).

A candidate below the input map is looked up, read-only, among the
interned residuals of ``mon._STATES``; where the table holds an equal map,
its cached orbit data answers the target test.  A candidate at level 0
twists the input map, and a twist keeps the labels, beta and eps: it is a
map of the input's twist family.  The twist family table, ``_FAMILY``,
holds one family at a time, keyed by (labels, beta, eps) (``_family``):
its level-0 maps, one object per omega (``_level0``), and the results of
``phi`` and ``phi_inverse`` on them, keyed by (omega, history,
direction).  So equal outputs of the n! histories of one map are one
object, and so is an output equal to a map of the stream that
``verify._round_trips`` took through ``_level0``: the back trip and that
map's own histories reuse its removals and cached orbit data.  The
top-degree target reads the component count of the untwisted state, since
a twist keeps every <beta, omega, eps> orbit.  All this is sound because
the target depends only on the map's value.

Both maps of a round trip belong to one family, so a pair that a round
trip from the other side has settled is answered from the table without a
second induction: each distinct (direction, map, history) is settled once
while its family is current.  The history is always validated first,
refusals and aborts are never stored, and only whole results are stored,
never a step of one induction.  A map of another family starts a new
entry and drops the old one, maps and results together, and
``maps.clear_caches`` empties the table.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .maps import (_CACHES, MapError, NonOrientedMap, _bridge_or_leaf,
                   _twist_sides, is_orientable)
from .mon import _STATES, _check_history, _failing_prefix, _states

# at most one entry: (labels, beta, eps) of the current twist family ->
# ({omega: the one level-0 map of that family with it},
#  {(omega, history, forward): phi's (forward) or phi_inverse's result})
_FAMILY: dict[tuple, tuple[dict, dict]] = {}
_CACHES.append(_FAMILY)


class NotInDomainError(MapError):
    """Input pair/map violates the bijection's precondition."""


class DichotomyError(RuntimeError):
    """Neither or both of {M, twist_E(M)} satisfied the target property."""


@dataclass(frozen=True)
class BijectionResult:
    map: NonOrientedMap
    history: tuple[tuple[int, int], ...]
    twists: tuple[tuple[int, int], ...]


def _family(m: NonOrientedMap) -> tuple[NonOrientedMap, dict]:
    """(the one object of m's value among the level-0 maps of its twist
    family, the results of ``phi`` and ``phi_inverse`` on that family's
    maps).  The family is the maps with m's labels, beta and eps, all of
    which a twist of edges keeps.  No map refers to the table, so it makes
    no reference cycle.  It holds at most (2n-1)!! maps for
    ``all_maps(n)``, which yields each family in one run, and at most 2^n
    twists and the input on ``conservative_one_face``, where each map is a
    family of its own; at most 2 n! results per map."""
    family = m.labels, m._b, m._e
    entry = _FAMILY.get(family)
    if entry is None:
        _FAMILY.clear()
        entry = _FAMILY[family] = {}, {}
    maps, results = entry
    return maps.setdefault(m._w, m), results


def _level0(m: NonOrientedMap) -> NonOrientedMap:
    """``_family``'s level-0 object for m.  ``_settle`` takes each level-0
    twist through it, ``phi`` and ``phi_inverse`` their input, and
    ``verify._round_trips`` each stream map.  The family key and omega are
    the whole map, so only the object changes, never the value."""
    return _family(m)[0]


def phi(m: NonOrientedMap, history: Sequence) -> BijectionResult:
    """Top-degree pair -> (orientable map, same history, twist set).

    The history is validated first, always.  A result is then looked up
    in the table of m's twist family (``_family``): an equal pair that
    ``phi`` settled before gives the same object back, with no domain
    check and no induction, since both depend only on the pair's value.
    A refusal is never stored, so a pair outside the domain is refused
    every time."""
    edges = _check_history(m, history)
    m, results = _family(m)
    key = m._w, edges, True
    res = results.get(key)
    if res is None:
        states = _states(m, edges)
        bad = _failing_prefix(states)
        if bad is not None:
            raise NotInDomainError(
                f"(map, history) is not a top-degree pair: prefix {bad} "
                f"(after removing {list(edges[:bad])}) is not top-degree")
        out, twists = _settle(states, edges, _orientable)
        res = results[key] = BijectionResult(out, edges, twists)
    return res


def phi_inverse(m: NonOrientedMap, history: Sequence) -> BijectionResult:
    """(orientable map, history) -> top-degree pair on the same graph.

    Looked up and stored as in ``phi``, under a key of its own direction:
    a pair in both domains is sent to itself by both, but ``phi``'s result
    must not stand in for this function's domain check, or the other's."""
    edges = _check_history(m, history)
    m, results = _family(m)
    key = m._w, edges, False
    res = results.get(key)
    if res is None:
        if not is_orientable(m):
            raise NotInDomainError("phi_inverse requires an orientable map")
        out, twists = _settle(_states(m, edges), edges, _top_degree)
        res = results[key] = BijectionResult(out, edges, twists)
    return res


def _orientable(candidate: NonOrientedMap, state: NonOrientedMap) -> bool:
    """``phi``'s target: ``is_orientable(candidate)``."""
    return candidate._component_data[2]


def _top_degree(candidate: NonOrientedMap, state: NonOrientedMap) -> bool:
    """``phi_inverse``'s target: ``is_top_degree_map(candidate)``, with the
    component count read from ``state``, the map the candidate twists.  A
    twist conjugates omega by swaps inside eps-pairs, so every
    <beta, omega, eps> orbit keeps its label set: the candidate's
    components are the state's, and only its faces need a walk."""
    return candidate._face_data[2] == state._component_data[1]


def _settle(states, edges, target):
    """Both directions; ``target(candidate, state)`` is the property the
    output must satisfy (``_orientable`` or ``_top_degree``).

    They are the same induction with the roles of "orientable" and
    "top-degree map" swapped.  It walks the history's prefix states from
    the last back to the first: each state takes the twists found so far,
    then its first remaining edge is settled by the bridge/leaf rule or the
    dichotomy.

    The sides of edge e and of the twist set (label pairs, which every
    state shares) are found once per level, by bisection on the state's
    labels; the history's edges are validated, so each is there.  Until a
    twist has been found the plain candidate is the state itself, with no
    bisection and no lookup.  A twist changes neither the graph nor the
    beta/omega/eps adjacency of an edge's two sides, so the bridge/leaf
    test reads the state and the state left after removing e, not the
    candidate.

    At every level k >= 1 the state is a proper residual, interned in
    ``mon._STATES``, and a candidate twisting it is most often a residual
    the table holds too: the same residual of the map with the twist set
    twisted, when that map's histories were walked before.  Each such
    candidate is looked up by its key and, when found, replaced by the
    table's object, whose cached face and component data the target reads
    instead of walking the fresh copy.  The two are equal maps, so the
    target's answer is the same.  The lookup only reads: a missing
    candidate stays a fresh map and is never added.  Level 0 twists the
    input map itself and gives the output, so it is not looked up there:
    the candidate is the one object of its value in the input's twist
    family table (``_level0``), shared by the histories that settle
    on the same twist set and by the stream map of that value, and never
    an object of ``mon._STATES``.  ``_top_degree`` reads the component
    count of the state, not of the candidate: a twist keeps every
    <beta, omega, eps> orbit, so the two counts are equal and one
    ``orbit_ids3`` walk per candidate is saved.
    """
    out, twists = states[-1], ()
    for k in range(len(edges) - 1, -1, -1):
        state = states[k]
        labels = state.labels
        e = edges[k]
        i = bisect_left(labels, e[0])
        j = state._e[i]
        if twists:
            sides = [(bisect_left(labels, a), bisect_left(labels, b))
                     for a, b in twists]
            candidate = _candidate(state, sides, k)
        else:
            sides, candidate = [], state
        if _bridge_or_leaf(state, states[k + 1], i, j):
            if not target(candidate, state):
                raise DichotomyError(
                    f"bridge/leaf case failed target at edge {e}; "
                    f"trace={list(edges[:k + 1])}")
            out = candidate
            continue
        sides.append((i, j))
        twisted = _candidate(state, sides, k)
        ok_plain = target(candidate, state)
        ok_twisted = target(twisted, state)
        if ok_plain == ok_twisted:
            raise DichotomyError(
                f"dichotomy violated at edge {e} (plain={ok_plain}, "
                f"twisted={ok_twisted}); trace={list(edges[:k + 1])}")
        if ok_plain:
            out = candidate
        else:
            out, twists = twisted, twists + (e,)
    return out, twists


def _candidate(state, sides, k):
    """``state`` twisted at the non-empty side pairs ``sides``: below the
    input map (k >= 1) the table's equal residual if it has one, at level 0
    the one object of its value in the twist family table."""
    twisted = _twist_sides(state, sides)
    if k:
        return _STATES.get(twisted._key(), twisted)
    return _level0(twisted)
