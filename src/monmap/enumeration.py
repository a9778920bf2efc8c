"""Generators for the desk-scale families the verification suites sum over.

Everything factorial-sized sits behind an explicit cost guard that raises
instead of hanging; pass ``force=True`` to lift a guard knowingly.  The
maps yielded are valid by construction: their partner tuples come from
:func:`involutions` and :func:`polygon_pairings`, so they are built by
``maps._new_map`` without the checks of ``NonOrientedMap.from_arrays``.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable, Iterator

from . import kernels
from .maps import ClassMemo, NonOrientedMap, _new_map, canonical_form
from .oriented import (OrientedMap, _connected, _oriented_map, cycle_ids,
                       cycle_type_permutation, partitions_of, z_of)


class GuardExceeded(ValueError):
    """A generation request exceeded its cost guard without force=True."""


MAX_ONE_FACE_N = 7  # (2n-1)!! = 135 135 one-polygon maps or involutions
MAX_CLASS_PAIRS_N = 6  # p(6) * 6! = 7 920 candidate pairs
MAX_FACE_TYPE_N = 4  # p(4) * 7!! = 525 representatives, 12 600 histories
FORCE_HINT = "pass force=True to override"


def check_guard(name: str, value: int, limit: int, force: bool):
    if value > limit and not force:
        raise GuardExceeded(
            f"{name}={value} exceeds the guard ({limit}); {FORCE_HINT}")


def involutions(labels: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """All fixed-point-free involutions on an even label set, (2n-1)!! many.

    Each is a partner-index tuple over the positions of the sorted labels.
    Deterministic order: the first position is paired with each later one
    in increasing order, recursively.
    """
    size = len(list(labels))
    if size % 2:
        raise ValueError("label set must have even size")
    partner = [0] * size

    def rec(free: tuple[int, ...]):
        if not free:
            yield tuple(partner)
            return
        first = free[0]
        for i in range(1, len(free)):
            partner[first] = free[i]
            partner[free[i]] = first
            yield from rec(free[1:i] + free[i + 1:])

    yield from rec(tuple(range(size)))


def polygon_pairings(face_type) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The fixed (B, W) of a disjoint union of labeled 2k-gons.

    Polygon i of half-size k occupies 2k consecutive labels; B pairs
    (1,2),(3,4),... and W pairs (2,3),...,(2k,1) within each polygon, so
    the <B,W> orbits are exactly the polygons.  Both are partner-index
    tuples over the labels 1, 2, ...
    """
    beta = []
    omega = []
    for k in face_type:
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValueError(f"face-type parts must be integers, "
                             f"not {type(k).__name__}")
        if k < 1:
            raise ValueError("face-type parts must be positive")
        first = len(beta)
        for t in range(2 * k):
            beta.append(first + (t ^ 1))
            omega.append(first + (t + 1 if t % 2 else t - 1) % (2 * k))
    return tuple(beta), tuple(omega)


def conservative_maps(face_type) -> Iterator[NonOrientedMap]:
    """All gluings of the fixed labeled polygons of the given face-type."""
    beta, omega = polygon_pairings(face_type)
    labels = tuple(range(1, len(beta) + 1))
    for eps in involutions(labels):
        yield _new_map(labels, beta, omega, eps)


def conservative_one_face(n: int,
                          force: bool = False) -> Iterator[NonOrientedMap]:
    """All (2n-1)!! one-polygon maps on the standard 2n-gon."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_guard("n", n, MAX_ONE_FACE_N, force)
    yield from conservative_maps((n,))


def one_face_orbits(
        n: int, force: bool = False) -> Iterator[tuple[NonOrientedMap, int]]:
    """:func:`conservative_one_face` up to the symmetries of the 2n-gon,
    with weights.

    Yields ``(m, size)`` with one map m per orbit of the gluings eps under
    conjugation by the dihedral group D_n: m carries the orbit's least eps
    (as a partner-index tuple), and size is the number of gluings in the
    orbit.  Representatives: 1, 3, 7, 30, 137, 1 065 and 10 307 for n =
    1..7, with sizes summing to (2n-1)!!.

    The sum is exact for every summand f(beta0, omega_n, eps) that
    relabelling (simultaneous conjugation of the three involutions) leaves
    unchanged: mon_top by either route, the bicolored graph class, the
    canonical form.  On the positions 0..2n-1 of the standard 2n-gon,
    beta0 pairs (2k, 2k+1) and omega_n pairs (2k+1, 2k+2) mod 2n.  The
    rotation x -> x+2 and the reflection x -> -x-1 (mod 2n) each send
    beta0 pairs to beta0 pairs and omega_n pairs to omega_n pairs, so the
    group D_n of order 2n they generate centralises both.  For tau in D_n,
    eps -> tau eps tau^-1 then relabels the triple (beta0, omega_n, eps)
    into (beta0, omega_n, tau eps tau^-1) and keeps f, so f is constant on
    each orbit, and by orbit-stabiliser an orbit holds 2n / |stabiliser|
    gluings.  A gluing is yielded when no element of D_n conjugates it to
    a smaller tuple; the elements that conjugate it to itself form its
    stabiliser.  Each orbit is one isomorphism class: an isomorphism of
    two one-face maps on the fixed 2n-gon centralises beta0 and omega_n,
    the group those two generate acts regularly on the 2n positions, so
    its centraliser has order 2n, and it is exactly D_n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    check_guard("n", n, MAX_ONE_FACE_N, force)
    beta, omega = polygon_pairings((n,))
    size = 2 * n
    labels = tuple(range(1, size + 1))
    positions = range(size)
    group = []  # (tau, tau^-1) over the positions
    for k in range(0, size, 2):
        group.append((tuple((x + k) % size for x in positions),
                      tuple((x - k) % size for x in positions)))
        reflection = tuple((k - 1 - x) % size for x in positions)
        group.append((reflection, reflection))
    for eps in involutions(labels):
        fixed = 0
        for tau, tau_inv in group:
            # compare tau eps tau^-1 with eps, position by position
            for y in positions:
                d = tau[eps[tau_inv[y]]] - eps[y]
                if d:
                    break
            else:
                fixed += 1
                continue
            if d < 0:
                break
        else:
            yield _new_map(labels, beta, omega, eps), size // fixed


def maps_by_face_type(
        n: int, force: bool = False) -> Iterator[tuple[NonOrientedMap, int]]:
    """:func:`all_maps` up to relabelling, with weights.

    For each partition mu of n, yields ``(m, (2n-1)!! * 2^n n! / (z_mu *
    2^l(mu)))`` for every map m of :func:`conservative_maps` of mu: sum
    over mu of (2n-1)!! representatives instead of ((2n-1)!!)^3 triples.

    The sum is exact for every summand f(beta, omega, eps) that relabelling
    (simultaneous conjugation of the three involutions) leaves unchanged:
    the genus, mon, both routes of mon_top, the multiset of history
    weights, the canonical form.  Every fixed-point-free involution beta
    is conjugate to beta0 = (1 2)(3 4)..., and a relabelling taking beta0
    to beta maps the triples (beta0, ., .) bijectively onto the triples
    (beta, ., .) and keeps f, so each of the (2n-1)!! involutions beta
    contributes the sum over (beta0, ., .).  The centraliser H_n of beta0
    (order 2^n n!) sorts omega by the face type mu of <beta0, omega>.  The
    class of mu holds 2^n n! / z_(2mu) involutions, with z_(2mu) =
    2^l(mu) z_mu (Macdonald, Symmetric Functions, VII.2), and contains the
    omega of ``polygon_pairings(mu)``.
    If tau in H_n conjugates that omega to another omega' of the class,
    eps -> tau eps tau^-1 maps the triples (beta0, omega, .) bijectively
    onto (beta0, omega', .) and keeps f, so each omega' of the class
    contributes the sum over ``conservative_maps(mu)``.
    """
    check_guard("n", n, MAX_FACE_TYPE_N, force)
    betas = math.prod(range(1, 2 * n, 2))
    hyperoctahedral = 2 ** n * math.factorial(n)
    for mu in partitions_of(n):
        weight = betas * hyperoctahedral // (z_of(mu) * 2 ** len(mu))
        for m in conservative_maps(mu):
            yield m, weight


def maps_by_class(
        n: int, force: bool = False) -> Iterator[tuple[NonOrientedMap, int]]:
    """:func:`all_maps` up to isomorphism, with weights.

    Yields ``(m, weight)`` once per unrooted isomorphism class of the maps
    on the labels 1..2n: :func:`class_stream` of
    :func:`maps_by_face_type`, so m is the class's first map there and
    weight is the number of labelled maps in the class.  The sum is exact
    for the summands :func:`maps_by_face_type` sums, which depend on a map
    only up to relabelling.  Classes: 1, 5, 16 and 86 for n = 1..4, with
    weights summing to ((2n-1)!!)^3.  The stream keeps the guard of
    :func:`maps_by_face_type`.
    """
    return class_stream(maps_by_face_type(n, force=force))


def class_stream(
        weighted: Iterable[tuple[NonOrientedMap, int]]
) -> Iterator[tuple[NonOrientedMap, int]]:
    """A stream of (map, weight) pairs grouped by isomorphism class.

    Yields ``(m, weight)`` once per class, in order of first sight: m is
    the class's first map in the stream and weight the sum of the weights
    of its maps there.  The maps are grouped by a ``maps.ClassMemo`` that
    lives for this call, keyed by canonical forms, and the whole stream is
    read before the first class is yielded.  A map of a class seen before,
    here or anywhere in the process, costs one BFS per component: its
    canonical form finds each component's least trace in the table of
    rooted traces (``maps._COMPONENT_FORMS``); a stream of pairwise
    non-isomorphic connected maps traces each map from side 0, misses,
    and traces it once more from each side.
    """
    memo = ClassMemo()
    classes = []  # [first map, summed weight], in order of first sight

    def new_class(m):
        classes.append([m, 0])
        return classes[-1]

    for m, weight in weighted:
        memo.get(m, new_class)[1] += weight
    for m, weight in classes:
        yield m, weight


def single_polygon_pairs(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All (B, W) on [2n], as partner-index tuples, forming one 2n-gon."""
    all_pairings = list(involutions(range(2 * n)))
    for beta in all_pairings:
        for omega in all_pairings:
            if kernels.face_data(beta, omega)[2] == 1:
                yield beta, omega


def liberal_one_face(n: int, force: bool = False) -> Iterator[NonOrientedMap]:
    """All triples (B, W, E) on [2n] with a single <B,W> polygon."""
    check_guard("n", n, 4, force)
    labels = tuple(range(1, 2 * n + 1))
    eps_list = list(involutions(labels))
    for beta, omega in single_polygon_pairs(n):
        for eps in eps_list:
            yield _new_map(labels, beta, omega, eps)


def all_maps(n: int, force: bool = False) -> Iterator[NonOrientedMap]:
    """All ((2n-1)!!)^3 involution triples on [2n].

    The loops run over beta, then eps, then omega, so the (2n-1)!! maps of
    one twist family (one labels, beta and eps; a twist of edges changes
    omega alone) come one after another, and ``bijection._level0``'s table
    of one family at a time serves each family whole.
    """
    check_guard("n", n, 3, force)
    labels = tuple(range(1, 2 * n + 1))
    pairings = list(involutions(labels))
    for beta in pairings:
        for eps in pairings:
            for omega in pairings:
                yield _new_map(labels, beta, omega, eps)


def all_pairs(n: int, force: bool = False) -> Iterator[OrientedMap]:
    """All (sigma1, sigma2) in S_n x S_n as oriented maps."""
    check_guard("n", n, 5, force)
    perms = list(permutations(range(n)))
    for s1 in perms:
        for s2 in perms:
            yield OrientedMap(s1, s2)


def transitive_pairs_by_class(
        n: int, force: bool = False) -> Iterator[tuple[OrientedMap, int]]:
    """The transitive pairs of S_n x S_n (those whose group <sigma1, sigma2>
    has one orbit on the edges) up to conjugacy of sigma1, with weights.

    For each partition lambda of n, yields ``(OrientedMap(rho, sigma2),
    n!/z_lambda)`` for every sigma2 making the pair transitive, where rho
    is :func:`cycle_type_permutation` of lambda: p(n) * n! candidates
    instead of n!^2.

    The sum is exact for every summand f(sigma1, sigma2) that simultaneous
    conjugation leaves unchanged (transitivity, the bicolored graph and so
    its class and embedding counts, the canonical form of ``side_label``).
    If tau rho tau^-1 = sigma1, then sigma2 -> tau sigma2 tau^-1 maps the
    pairs (rho, .) bijectively onto the pairs (sigma1, .) and keeps f, so
    the n!/z_lambda elements sigma1 of the class of rho each contribute
    the sum over (rho, .).

    The cycle ids of rho (the white vertex of each edge) are found once per
    lambda, and those of each sigma2 (the black vertex) once per call, by
    :func:`~monmap.oriented.cycle_ids`.  A candidate is transitive when its
    edges connect the white and black vertices, which a union-find over
    the vertices decides (there are fewer vertices than edges).  The maps
    yielded carry both id tuples and are built without validating the
    permutations, which are built here.
    """
    check_guard("n", n, MAX_CLASS_PAIRS_N, force)
    perms = [(s2, cycle_ids(s2)) for s2 in permutations(range(n))]
    for lam in partitions_of(n):
        rho = cycle_type_permutation(lam)
        white_ids = cycle_ids(rho)
        size = math.factorial(n) // z_of(lam)
        for s2, black_ids in perms:
            if _connected(white_ids, black_ids):
                yield _oriented_map(rho, s2, white_ids, black_ids), size


def group_by(stream: Iterable[NonOrientedMap]) -> dict[bytes, int]:
    """Multiset table of a map stream by canonical form: the classes of
    :func:`class_stream`, each map weighing one, keyed by the canonical
    form of their first map."""
    return {canonical_form(m): count
            for m, count in class_stream((m, 1) for m in stream)}
