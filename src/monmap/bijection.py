"""The twist bijection between top-degree pairs and orientable maps.

``phi`` sends a pair (map, history) whose every removal prefix is
top-degree to an orientable map on the same labels with the same history,
by twisting a subset of edges; ``phi_inverse`` is the mirror recursion.
Both preserve the underlying bicolored multigraph on the nose (a twist
changes only which surface the graph is drawn on).

The recursion peels off the history's first edge E: apply the twist set
obtained for the smaller map, then if E is a bridge or a leaf keep it as
is, otherwise twist E exactly when needed.  That this choice is always
available and unique is the one-of-two dichotomy; a violation would be an
implementation bug and aborts with the full recursion trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .maps import MapError, NonOrientedMap, is_orientable, twist, twist_many
from .mon import (_check_history, _failing_prefix, history_lattice,
                  is_top_degree_map)


class NotInDomainError(MapError):
    """Input pair/map violates the bijection's precondition."""


class DichotomyError(RuntimeError):
    """Neither or both of {M, twist_E(M)} satisfied the target property."""


@dataclass(frozen=True)
class BijectionResult:
    map: NonOrientedMap
    history: tuple[tuple[int, int], ...]
    twists: tuple[tuple[int, int], ...]


def phi(m: NonOrientedMap, history: Sequence) -> BijectionResult:
    """Top-degree pair -> (orientable map, same history, twist set)."""
    edges = _check_history(m, history)
    lattice = history_lattice(m)
    bad = _failing_prefix(lattice, edges)
    if bad is not None:
        raise NotInDomainError(
            f"(map, history) is not a top-degree pair: prefix {bad} "
            f"(after removing {list(edges[:bad])}) is not top-degree")
    out, twists = _phi_rec(lattice, 0, edges, is_orientable, [])
    return BijectionResult(out, edges, twists)


def phi_inverse(m: NonOrientedMap, history: Sequence) -> BijectionResult:
    """(orientable map, history) -> top-degree pair on the same graph."""
    edges = _check_history(m, history)
    if not is_orientable(m):
        raise NotInDomainError("phi_inverse requires an orientable map")
    lattice = history_lattice(m)
    out, twists = _phi_rec(lattice, 0, edges, is_top_degree_map, [])
    return BijectionResult(out, edges, twists)


def _phi_rec(lattice, mask, edges, target, trace):
    """Shared recursion; `target` is the property the output must satisfy.

    Both directions are the same induction with the roles of "orientable"
    and "top-degree map" swapped: remove the first edge, fix up the rest,
    re-apply the accumulated twists to the full map, then settle the first
    edge by the bridge/leaf rule or the dichotomy.  The current map is the
    lattice state of `mask`, the edges removed so far.
    """
    m = lattice.state(mask)
    if m.n == 0:
        return m, ()
    first = edges[0]
    rest_map, twists = _phi_rec(lattice, lattice.child(mask, first),
                                edges[1:], target, trace + [first])
    del rest_map  # only the twist set propagates upward
    candidate = twist_many(m, twists)
    # a twist changes neither the graph nor the beta/omega/eps adjacency of
    # an edge's two sides, so the role in m is the role in the candidate
    role = lattice.role(mask, first)
    if role.is_bridge or role.is_leaf:
        if not target(candidate):
            raise DichotomyError(
                f"bridge/leaf case failed target at edge {first}; "
                f"trace={trace + [first]}")
        return candidate, twists
    twisted = twist(candidate, first)
    ok_plain = target(candidate)
    ok_twisted = target(twisted)
    if ok_plain == ok_twisted:
        raise DichotomyError(
            f"dichotomy violated at edge {first} (plain={ok_plain}, "
            f"twisted={ok_twisted}); trace={trace + [first]}")
    if ok_plain:
        return candidate, twists
    return twisted, twists + (first,)
