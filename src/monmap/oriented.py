"""Oriented maps as pairs of permutations, and the bridge to involution maps.

An oriented map with n labeled edges is a pair (sigma1, sigma2) of
permutations of [n]: sigma1 gives the counterclockwise order of edges
around white vertices, sigma2 around black vertices.  Faces are the cycles
of sigma2 o sigma1 (sigma1 applied first); the convention is fixed once and
validated by Euler characteristics of known embeddings.

``side_label`` converts an oriented map into an orientable involution map
by giving edge k the side labels 2k - 1 and 2k, read counterclockwise
around its white endpoint.

The conjugacy classes of S_n are indexed by the partitions of n
(:func:`partitions_of`); the class of cycle type lambda has n!/z_lambda
elements (:func:`z_of`) and contains :func:`cycle_type_permutation`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from .maps import (_CACHES, BicoloredGraph, MapError, NonOrientedMap,
                   _cached, _check_labels)


def _perm_from_cycles(n: int, cycles) -> tuple[int, ...]:
    """Build a 0-based image tuple from 1-based cycles.  n and the entries
    must be ints (bool, float and str are refused, not coerced)."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise MapError(f"n must be an integer, not {type(n).__name__}")
    img = list(range(n))
    seen = set()
    for cyc in cycles:
        cyc = tuple(cyc)
        _check_labels(cyc, "cycles")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= n:
                raise MapError(f"cycle entry {a} outside 1..{n}")
            if a in seen:
                raise MapError(f"label {a} repeated in cycles")
            seen.add(a)
            img[a - 1] = b - 1
    return tuple(img)


def cycle_ids(perm: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The cycle id of each point of a 0-based image tuple, and the cycle
    count.  Cycles are numbered in the order :func:`perm_cycles` lists
    them (by least point)."""
    ids = [-1] * len(perm)
    count = 0
    for s in range(len(perm)):
        if ids[s] < 0:
            x = s
            while ids[x] < 0:
                ids[x] = count
                x = perm[x]
            count += 1
    return tuple(ids), count


def perm_cycles(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of an image tuple, 1-based, fixed points included."""
    seen = [False] * len(perm)
    cycles = []
    for s in range(len(perm)):
        if seen[s]:
            continue
        cyc = []
        x = s
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = perm[x]
        cycles.append(tuple(cyc))
    return tuple(cycles)


@lru_cache(maxsize=None)
def partitions_of(d: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of d, each weakly decreasing, in reverse lex order."""
    if d == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(d, d, ())
    return tuple(out)


_CACHES.append(partitions_of)


def z_of(parts: Iterable[int]) -> int:
    """The centralizer order prod_i i^{m_i} m_i! of a partition."""
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    out = 1
    for i, m in mult.items():
        out *= i ** m * math.factorial(m)
    return out


def cycle_type_permutation(parts: Iterable[int]) -> tuple[int, ...]:
    """The 0-based permutation whose cycles are the parts, in order, each on
    consecutive points: (0 1 .. p1-1)(p1 .. p1+p2-1)..."""
    img: list[int] = []
    for part in parts:
        offset = len(img)
        img.extend(range(offset + 1, offset + part))
        img.append(offset)
    return tuple(img)


class OrientedMap:
    """Oriented bicolored map with edges labeled 1..n."""

    __slots__ = ("n", "sigma1", "sigma2", "__dict__")

    def __init__(self, sigma1, sigma2):
        s1 = tuple(sigma1)
        s2 = tuple(sigma2)
        n = len(s1)
        if len(s2) != n:
            raise MapError("sigma1 and sigma2 must act on the same set")
        for s, name in ((s1, "sigma1"), (s2, "sigma2")):
            _check_labels(s, name)
            if sorted(s) != list(range(n)):
                raise MapError("not a permutation of 0..n-1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sigma1", s1)
        object.__setattr__(self, "sigma2", s2)

    def __setattr__(self, name, value):
        raise AttributeError("OrientedMap values are immutable")

    @classmethod
    def from_cycles(cls, n: int, cycles1, cycles2) -> "OrientedMap":
        return cls(_perm_from_cycles(n, cycles1), _perm_from_cycles(n, cycles2))

    @_cached
    def white_cycles(self):
        return perm_cycles(self.sigma1)

    @_cached
    def black_cycles(self):
        return perm_cycles(self.sigma2)

    @_cached
    def _white_ids(self):
        """(white vertex of each edge, white count), by :func:`cycle_ids`."""
        return cycle_ids(self.sigma1)

    @_cached
    def _black_ids(self):
        """(black vertex of each edge, black count), by :func:`cycle_ids`."""
        return cycle_ids(self.sigma2)

    def __eq__(self, other):
        if isinstance(other, OrientedMap):
            return (self.sigma1, self.sigma2) == (other.sigma1, other.sigma2)
        return NotImplemented

    def __hash__(self):
        return hash((self.sigma1, self.sigma2))

    def __repr__(self):
        return (f"OrientedMap(sigma1={self.white_cycles}, "
                f"sigma2={self.black_cycles})")


def _oriented_map(sigma1, sigma2, white_ids, black_ids) -> OrientedMap:
    """Private constructor, with no validation, for callers that built the
    two permutations themselves and hold their :func:`cycle_ids`, which it
    caches on the map."""
    m = object.__new__(OrientedMap)
    for name, value in (("n", len(sigma1)), ("sigma1", sigma1),
                        ("sigma2", sigma2)):
        object.__setattr__(m, name, value)
    m.__dict__.update(_white_ids=white_ids, _black_ids=black_ids)
    return m


def _connected(white_ids, black_ids) -> bool:
    """Whether the graph whose edge k joins white vertex ``white_ids[0][k]``
    to black vertex ``black_ids[0][k]`` is connected (the arguments are
    :func:`cycle_ids` of sigma1 and sigma2): an edge orbit of <sigma1,
    sigma2> is the edge set of one component.  Union-find over the
    vertices, which are fewer than the edges."""
    whites, blacks = white_ids[1], black_ids[1]
    parent = list(range(whites + blacks))
    merges = 0
    for x, y in zip(white_ids[0], black_ids[0]):
        y += whites
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            parent[x] = y
            merges += 1
    return merges == whites + blacks - 1


def side_label(m: OrientedMap) -> NonOrientedMap:
    """Read off edge-side labels and return the involution-triple map.

    Edge k has sides 2k - 1 and 2k; side 2k of edge k is followed
    counterclockwise around k's white endpoint by side 2j - 1 of the next
    edge j.  The result is orientable, has the same underlying bicolored
    graph, and is connected exactly when the permutation pair is
    transitive.
    """
    beta = []
    omega = []
    eps = []
    for k in range(1, m.n + 1):
        beta.append((2 * k - 1, 2 * m.sigma2[k - 1] + 2))
        omega.append((2 * k, 2 * m.sigma1[k - 1] + 1))
        eps.append((2 * k - 1, 2 * k))
    return NonOrientedMap.from_pairs(beta, omega, eps)


def bicolored_graph_oriented(m: OrientedMap) -> BicoloredGraph:
    """Vertices are numbered as :func:`perm_cycles` lists the cycles."""
    white_ids, whites = m._white_ids
    black_ids, blacks = m._black_ids
    return BicoloredGraph(blacks, whites,
                          tuple(sorted(zip(black_ids, white_ids))))


def oriented_to_json_obj(m: OrientedMap) -> dict:
    return {
        "n": m.n,
        "sigma1": [list(c) for c in m.white_cycles],
        "sigma2": [list(c) for c in m.black_cycles],
    }
