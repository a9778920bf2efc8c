"""Partitions as Young diagrams, embedding counts, and the top-degree map sums.

An embedding of a bicolored graph into a Young diagram sends white vertices
to columns, black vertices to rows and edges to boxes, preserving
incidence; the box of an edge is forced to be the intersection of its
endpoints' lines.  N_G(lambda) counts embeddings; the normalized count
carries the A-dependent sign/scale factor that turns vertex counts into
Stanley-degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Union

from .algebra import Sqrt2, _as_fraction, gamma_of
from .enumeration import (FORCE_HINT, conservative_maps, one_face_orbits,
                          transitive_pairs_by_class)
from .maps import BicoloredGraph, bicolored_graph, canonical_graph_class
from .mon import MonTopMismatch, _history_counts, _top_detail, mon
from .oriented import bicolored_graph_oriented, z_of

Scalar = Union[Fraction, Sqrt2]


class DiagramError(ValueError):
    """Invalid partition/diagram data or unrealizable coordinates."""


class Partition:
    """Weakly decreasing sequence of positive integer parts, read also as
    the Young diagram whose row lengths are the parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(parts)
        for p in ps:  # refused, not coerced
            if isinstance(p, bool) or not isinstance(p, int):
                raise DiagramError(f"partition parts must be integers, "
                                   f"not {type(p).__name__}")
        if any(p <= 0 for p in ps):
            raise DiagramError("partition parts must be positive")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise DiagramError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", ps)

    def __setattr__(self, name, value):
        raise AttributeError("Partition values are immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def mult(self, i: int) -> int:
        return sum(1 for p in self.parts if p == i)

    @property
    def z(self) -> int:
        return z_of(self.parts)

    def prime_coordinates(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(P', Q'): distinct row lengths with multiplicities, largest first."""
        p_prime: list[int] = []
        q_prime: list[int] = []
        for r in self.parts:
            if q_prime and q_prime[-1] == r:
                p_prime[-1] += 1
            else:
                q_prime.append(r)
                p_prime.append(1)
        return tuple(p_prime), tuple(q_prime)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)!r})"


@dataclass(frozen=True)
class MultiRect:
    """Anisotropic multirectangular coordinates (P, Q) at a scale A.

    The isotropic coordinates are P' = A*P and Q' = Q/A; they must be
    nonnegative integers with Q' weakly decreasing for the stack of
    rectangles to be an actual diagram.
    """

    P: tuple[Fraction, ...]
    Q: tuple[Fraction, ...]
    A: Fraction

    def __post_init__(self):
        object.__setattr__(self, "P", tuple(map(_as_fraction, self.P)))
        object.__setattr__(self, "Q", tuple(map(_as_fraction, self.Q)))
        object.__setattr__(self, "A", _as_fraction(self.A))
        if len(self.P) != len(self.Q):
            raise DiagramError("P and Q must have the same length")
        if self.A == 0:
            raise DiagramError("A must be nonzero")

    @classmethod
    def from_primes(cls, p_prime, q_prime, a) -> "MultiRect":
        a = _as_fraction(a)
        return cls(tuple(p / a for p in p_prime),
                   tuple(q * a for q in q_prime), a)

    @property
    def p_prime(self) -> tuple[int, ...]:
        out = []
        for p in self.P:
            v = self.A * p
            if v.denominator != 1 or v < 0:
                raise DiagramError(f"A*p = {v} is not a nonnegative integer")
            out.append(int(v))
        return tuple(out)

    @property
    def q_prime(self) -> tuple[int, ...]:
        out = []
        for q in self.Q:
            v = q / self.A
            if v.denominator != 1 or v < 0:
                raise DiagramError(f"q/A = {v} is not a nonnegative integer")
            out.append(int(v))
        if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
            raise DiagramError("Q/A must be weakly decreasing")
        return tuple(out)

    @property
    def gamma(self) -> Fraction:
        return gamma_of(self.A)

    def diagram(self) -> Partition:
        rows: list[int] = []
        for p, q in zip(self.p_prime, self.q_prime):
            if q:
                rows.extend([q] * p)
        return Partition(rows)


def count_embeddings(g: BicoloredGraph, lam: Partition) -> int:
    """Number of incidence-preserving embeddings of g into lam.

    Backtracks over row assignments of the black vertices; given those,
    each white vertex independently ranges over the columns not shorter
    than any incident row, i.e. min of the assigned row lengths.
    """
    touched_black = {b for b, _ in g.edges}
    touched_white = {w for _, w in g.edges}
    if len(touched_black) != g.blacks or len(touched_white) != g.whites:
        raise DiagramError("graph has an isolated vertex")
    rows = lam.parts
    white_adj: list[list[int]] = [[] for _ in range(g.whites)]
    for b, w in g.edges:
        white_adj[w].append(b)
    total = 0
    for assignment in product(range(len(rows)), repeat=g.blacks):
        term = 1
        for adj in white_adj:
            term *= min(rows[assignment[b]] for b in adj)
        total += term
    return total


def _signed_scale(blacks: int, whites: int, a: Scalar) -> Scalar:
    """A^{#white} / (-A)^{#black}: the factor that normalizes the embedding
    count of a graph with these vertex counts.  An int A is taken as a
    Fraction, so a negative power stays exact."""
    if not isinstance(a, Sqrt2):
        a = _as_fraction(a)
    if not a:
        raise DiagramError("A must be nonzero")
    sign = -1 if blacks % 2 else 1
    return a ** (whites - blacks) * sign


def normalized_embeddings(g: BicoloredGraph, lam: Partition,
                          a: Scalar) -> Scalar:
    """A^{#white} / (-A)^{#black} times the embedding count."""
    scale = _signed_scale(g.blacks, g.whites, a)
    return scale * count_embeddings(g, lam)


MAX_EMBEDDING_SEARCH = 10 ** 6  # row assignments; about 2 s


def _diagram_list(diagrams, caller: str) -> list:
    """The entries of ``diagrams``, a list of diagrams.  One diagram in its
    place (a Partition, a MultiRect or a bare sequence of parts) raises
    TypeError, since its parts would otherwise be read as diagrams."""
    entries = None
    if not isinstance(diagrams, (Partition, MultiRect)):
        try:
            entries = list(diagrams)
        except TypeError:  # not iterable: not a list of anything
            pass
    if entries is None or any(isinstance(d, int) for d in entries):
        raise TypeError(f"{caller} takes a list of diagrams, not "
                        f"{diagrams!r}; pass [diagram] for one diagram")
    return entries


def _map_sum_diagram(n: int, mr: MultiRect, force: bool) -> Partition:
    """The diagram of mr, once the guards pass: at most 5 edges, and at
    most MAX_EMBEDDING_SEARCH row assignments per embedding count (a graph
    has at most n black vertices).  The rows are counted on the
    coordinates, so a refused diagram is never expanded."""
    if n > 5 and not force:
        raise DiagramError(f"n={n} exceeds the map-sum guard (5); "
                           f"{FORCE_HINT}")
    rows = sum(p for p, q in zip(mr.p_prime, mr.q_prime) if q)
    if not force and rows ** n > MAX_EMBEDDING_SEARCH:
        raise DiagramError(f"{rows} rows ** n={n} exceed the "
                           f"embedding guard ({MAX_EMBEDDING_SEARCH}); "
                           f"{FORCE_HINT}")
    return mr.diagram()


def _class_table(weighted: Iterable[tuple[BicoloredGraph, Scalar]]
                 ) -> dict[bytes, tuple[BicoloredGraph, Scalar]]:
    """The (graph, weight) pairs summed by bicolored graph class:
    {class key: (one graph of the class, total weight)}, nonzero totals
    only.

    A map-sum summand is w * base^(top-|V|) * N~_G(lambda), and |V| and
    N~_G depend only on the class of G, so :func:`_class_sums` over the
    table equals the sum over the pairs with one embedding count per class
    (and one sign/scale factor per (#black, #white) group).
    A stream repeats its labelled graphs (the 5 408 transitive pairs of
    :func:`_oriented_table` at n = 6 have 445 distinct ones), so each
    distinct graph is canonicalised once, through a dict that lives for
    one call.
    """
    keys: dict[BicoloredGraph, bytes] = {}  # labelled graph -> class key
    table: dict[bytes, list] = {}
    for graph, weight in weighted:
        key = keys.get(graph)
        if key is None:
            key = keys[graph] = canonical_graph_class(graph).key
        entry = table.setdefault(key, [graph, 0])
        entry[1] += weight
    return {key: (graph, weight)
            for key, (graph, weight) in table.items() if weight}


def _oriented_table(n: int, force: bool = False
                    ) -> dict[bytes, tuple[BicoloredGraph, Fraction]]:
    """The class sizes of :func:`transitive_pairs_by_class` summed by the
    bicolored graph class of each pair (one walk of the stream), each
    divided by (n-1)!, the number of edge labelings of an unlabeled
    connected oriented map with one marked edge that give it label 1."""
    labelings = math.factorial(n - 1)
    pairs = transitive_pairs_by_class(n, force=force)
    return _class_table((bicolored_graph_oriented(om),
                         Fraction(size, labelings)) for om, size in pairs)


def _one_face_table(n: int, force: bool = False
                    ) -> tuple[dict[bytes, tuple[BicoloredGraph, Fraction]],
                               set[bytes]]:
    """mon_top summed by bicolored graph class over the one-face maps of
    :func:`~monmap.enumeration.conservative_one_face`, and the keys of the
    classes holding a map on which mon_top's probability and coefficient
    differ.  The weights are the probabilities.

    Both routes of mon_top and the graph class are constant on the orbits
    of :func:`~monmap.enumeration.one_face_orbits`, so the table walks
    that stream once and weighs each representative by its orbit size.
    The representatives are pairwise non-isomorphic, so a lookup in the
    class memo could never hit on one: each is counted by
    ``mon._history_counts``, which memoises its residuals alone."""
    details = [(bicolored_graph(m), size, *_top_detail(m, _history_counts(m)))
               for m, size in one_face_orbits(n, force=force)]
    table = _class_table((graph, size * prob)
                         for graph, size, prob, _ in details)
    return table, {canonical_graph_class(graph).key
                   for graph, _, prob, coeff in details if prob != coeff}


def _class_sums(tables, lam: Partition, a: Scalar, base: Scalar,
                top: int) -> list[Scalar]:
    """For each class table, the sum of w * base^(top-|V|) * N~_G(lam) at
    scale a over its (G, w), with one embedding count per class of the
    union of the tables.

    N~_G is the count times :func:`_signed_scale`, and that factor and
    base^(top-|V|) depend on (#black, #white) alone, so each table's
    w * count is summed per (#black, #white) group and each group's sum
    is scaled once.  Only ring operations are used, so int, Fraction and
    Sqrt2 weights and scalars all work."""
    union = {key: graph
             for table in tables for key, (graph, _) in table.items()}
    groups: dict[tuple[int, int], list] = {}
    for key, graph in union.items():
        count = count_embeddings(graph, lam)
        sums = groups.get((graph.blacks, graph.whites))
        if sums is None:
            sums = groups[graph.blacks, graph.whites] = [0] * len(tables)
        for i, table in enumerate(tables):
            entry = table.get(key)
            if entry is not None:
                sums[i] += entry[1] * count
    totals = [a * 0] * len(tables)
    for (blacks, whites), sums in groups.items():
        scale = (base ** (top - blacks - whites)
                 * _signed_scale(blacks, whites, a))
        for i, s in enumerate(sums):
            totals[i] += s * scale
    return totals


def top_map_sums(n: int, points: Iterable[MultiRect], force: bool = False
                 ) -> list[tuple[Fraction, Fraction]]:
    """The two top-degree character map sums at each lattice point mr of
    points, in order: (chtop, ogs_top), with lambda = mr.diagram() and
    gamma = mr.gamma.

    chtop, the oriented side, is (-1) * the sum over transitive
    (sigma1, sigma2) of gamma^(n+1-|V|) * N~_G(lambda), divided by (n-1)!
    (the number of edge labelings of an unlabeled connected oriented map
    with one marked edge that give it label 1).  ogs_top, the one-face
    side, is the sum over the one-face maps M of mon_top(M) *
    gamma^(n+1-|V|) * N~_M(lambda), returned bare, with no global sign
    folded in: the identity holds as chtop = (-1) * ogs_top, and the
    suites state that reconciliation in their reports.  N~ is
    :func:`normalized_embeddings` at scale mr.A.

    Each summand depends only on the bicolored graph (and on mon_top(M)),
    so each side walks its stream once per call (:func:`_oriented_table`,
    :func:`_one_face_table`) and sums the weights of each graph class, and
    at each point one graph per class of the two tables together is
    embedded; the weighted counts are summed per (#black, #white) group,
    and gamma and A enter once per group (:func:`_class_sums`).  The
    guards of every point run before either stream is walked, and a
    one-face map on which mon_top's two routes disagree raises
    :class:`~monmap.mon.MonTopMismatch`, as :func:`mon_top` does.
    """
    lams = [(mr, _map_sum_diagram(n, mr, force))
            for mr in _diagram_list(points, "top_map_sums")]
    oriented = _oriented_table(n, force)
    one_face, mismatched = _one_face_table(n, force)
    if mismatched:
        raise MonTopMismatch(
            f"mon_top mismatch: probability and coefficient differ on a "
            f"one-face map with n={n}")
    sums = []
    for mr, lam in lams:
        oriented_sum, one_face_sum = _class_sums(
            [oriented, one_face], lam, mr.A, mr.gamma, n + 1)
        sums.append((-oriented_sum, one_face_sum))
    return sums


def ogs_full(pi, lams: Iterable, a: Scalar,
             force: bool = False) -> list[Scalar]:
    """Full orientability generating series at each diagram of lams, in
    order: (-1)^{l(pi)} sum over conservative maps of face-type pi of
    mon_M(gamma) * normalized embeddings, with mon_M(gamma) summed by
    bicolored graph class first (:func:`_class_table`), in one table for
    all of lams."""
    pi = Partition(pi)
    lams = [Partition(lam) for lam in _diagram_list(lams, "ogs_full")]
    if pi.size + pi.length > 8 and not force:
        raise DiagramError(
            f"|pi| + l(pi) = {pi.size + pi.length} exceeds the guard (8); "
            f"{FORCE_HINT}")
    g = gamma_of(a)
    table = _class_table((bicolored_graph(m), mon(m).evaluate(g))
                         for m in conservative_maps(pi.parts))
    sign = -1 if pi.length % 2 else 1
    return [sign * _class_sums([table], lam, a, Fraction(1), 0)[0]
            for lam in lams]
