import importlib
import math
from collections import Counter
from fractions import Fraction
from itertools import groupby, product
from operator import itemgetter

import pytest

from monmap.diagrams import MultiRect, normalized_embeddings, top_map_sums
from monmap.enumeration import (GuardExceeded, all_maps, all_pairs,
                                class_stream, conservative_maps,
                                conservative_one_face, group_by,
                                involutions, liberal_one_face, maps_by_class,
                                maps_by_face_type, one_face_orbits,
                                polygon_pairings, single_polygon_pairs,
                                transitive_pairs_by_class)
from monmap.maps import (NonOrientedMap, _component_trace, canonical_form,
                         canonical_graph_class, faces, graph_class, structure)
from monmap.mon import mon_top
from monmap.oriented import (bicolored_graph_oriented, partitions_of,
                             side_label)
from monmap.verify import SECOND_THEOREM_POINTS, suite_degree_bounds

from conftest import is_transitive


def transitive_pairs(n):
    """The transitive ones among all_pairs(n): the reference for
    transitive_pairs_by_class."""
    return (om for om in all_pairs(n) if is_transitive(om))


class TestInvolutions:
    def test_counts(self):
        for n, expected in ((1, 1), (2, 3), (4, 105)):
            items = list(involutions(range(1, 2 * n + 1)))
            assert len(items) == expected
            assert len(set(items)) == expected

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            list(involutions([1, 2, 3]))

    def test_arbitrary_labels(self):
        labels = (4, 7, 9, 12)
        items = list(involutions(labels))
        assert len(items) == 3
        views = {NonOrientedMap.from_arrays(labels, p, p, p).eps
                 for p in items}
        assert views == {((4, 7), (9, 12)), ((4, 9), (7, 12)),
                         ((4, 12), (7, 9))}


class TestConservative:
    def test_polygon_shape(self):
        # partner positions over the labels 1..6
        beta, omega = polygon_pairings((3,))
        assert beta == (1, 0, 3, 2, 5, 4)  # (1,2), (3,4), (5,6)
        assert omega == (5, 2, 1, 4, 3, 0)  # (2,3), (4,5), (6,1)

    def test_one_face_counts_and_type(self):
        for n in (1, 2, 3):
            ms = list(conservative_one_face(n))
            assert len(ms) == math.prod(range(1, 2 * n, 2))
            assert ms == list(conservative_maps((n,)))
            for m in ms:
                _, face_type = faces(m)
                assert face_type == (n,)

    def test_one_face_guard(self):
        with pytest.raises(GuardExceeded):
            next(conservative_one_face(8))
        m = next(conservative_one_face(8, force=True))
        assert m == next(conservative_maps((8,)))

    def test_klein_appears_at_n3(self, klein):
        target = canonical_form(klein)
        hits = [m for m in conservative_one_face(3)
                if canonical_form(m) == target]
        assert len(hits) >= 1
        assert any(m.eps == klein.eps for m in hits)

    @pytest.mark.parametrize("face_type", [(2.5,), (2.0,), ("2",),
                                           (True, 1), (1, False)])
    def test_non_int_face_type_parts_refused(self, face_type):
        with pytest.raises(ValueError, match="must be integers"):
            polygon_pairings(face_type)
        with pytest.raises(ValueError, match="must be integers"):
            next(conservative_maps(face_type))

    def test_multi_polygon_face_type(self):
        ms = list(conservative_maps((2, 1)))
        assert len(ms) == 15  # pairings of 6 labels
        for m in ms:
            _, face_type = faces(m)
            assert face_type == (2, 1)


class TestLiberal:
    def test_n1_single_map(self):
        ms = list(liberal_one_face(1))
        assert len(ms) == 1
        assert structure(ms[0]).vertices == 2

    def test_single_polygon_pair_count_n2(self):
        assert len(list(single_polygon_pairs(2))) == 6

    def test_liberal_equals_scaled_conservative_n2(self):
        lib = group_by(liberal_one_face(2))
        con = group_by(conservative_one_face(2))
        assert lib == {k: math.factorial(3) * v for k, v in con.items()}

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            next(liberal_one_face(5))


class TestPairsAndAllMaps:
    def test_all_maps_n1(self):
        ms = list(all_maps(1))
        assert len(ms) == 1

    def test_all_maps_guard(self):
        with pytest.raises(GuardExceeded):
            next(all_maps(4))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_maps_yields_each_twist_family_in_one_run(self, n):
        labels = tuple(range(1, 2 * n + 1))
        pairings = list(involutions(labels))
        maps = list(all_maps(n))
        assert all(m.labels == labels for m in maps)
        triples = [(m._b, m._w, m._e) for m in maps]
        assert len(set(triples)) == len(triples) == len(pairings) ** 3
        assert set(triples) == set(product(pairings, repeat=3))
        # a (beta, eps) run is never resumed once another has started
        runs = [family for family, _ in groupby(triples, itemgetter(0, 2))]
        assert len(runs) == len(set(runs)) == len(pairings) ** 2

    def test_transitive_pairs_n2(self):
        assert sum(1 for _ in transitive_pairs(2)) == 3

    def test_all_pairs_count(self):
        assert sum(1 for _ in all_pairs(3)) == 36

    def test_pairs_guard(self):
        with pytest.raises(GuardExceeded):
            next(all_pairs(6))

    def test_pairs_by_class_guard(self):
        with pytest.raises(GuardExceeded):
            next(transitive_pairs_by_class(7))
        om, size = next(transitive_pairs_by_class(7, force=True))
        assert om.n == 7 and size == math.factorial(6)


@pytest.fixture(scope="module")
def brute_pairs():
    """n -> every transitive pair of S_n x S_n, n = 1..5."""
    return {n: list(transitive_pairs(n)) for n in range(1, 6)}


def brute_chtop(n, mr, pairs):
    """top_map_sums' oriented side, chtop, summed over every transitive
    pair, each weight 1."""
    lam, g, a = mr.diagram(), mr.gamma, mr.A
    total = Fraction(0)
    for om in pairs:
        graph = bicolored_graph_oriented(om)
        v = graph.blacks + graph.whites
        total += g ** (n + 1 - v) * normalized_embeddings(graph, lam, a)
    return -total / math.factorial(n - 1)


class TestPairsByClass:
    """The weighted class stream against the brute-force transitive pairs."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_weights_count_transitive_pairs(self, n, brute_pairs):
        total = sum(size for _, size in transitive_pairs_by_class(n))
        assert total == len(brute_pairs[n])
        assert total == (1, 3, 26, 426, 11064)[n - 1]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_main_theorem_lhs(self, n, brute_pairs):
        labelings = math.factorial(n - 1)
        brute: dict[bytes, Fraction] = {}
        for om in brute_pairs[n]:
            k = canonical_graph_class(bicolored_graph_oriented(om)).key
            brute[k] = brute.get(k, Fraction(0)) + Fraction(1, labelings)
        weighted: dict[bytes, Fraction] = {}
        for om, size in transitive_pairs_by_class(n):
            k = canonical_graph_class(bicolored_graph_oriented(om)).key
            weighted[k] = weighted.get(k, Fraction(0)) + Fraction(size,
                                                                  labelings)
        assert weighted == brute

    @pytest.mark.parametrize("n", range(1, 6))
    def test_side_label_histogram(self, n, brute_pairs):
        brute = group_by(side_label(om) for om in brute_pairs[n])
        weighted: dict[bytes, int] = {}
        for om, size in transitive_pairs_by_class(n):
            k = canonical_form(side_label(om))
            weighted[k] = weighted.get(k, 0) + size
        assert weighted == brute

    @pytest.mark.parametrize("n", range(1, 5))
    def test_chtop_map_sum(self, n, brute_pairs):
        for pp, qq, a in SECOND_THEOREM_POINTS:
            mr = MultiRect.from_primes(pp, qq, a)
            [(chtop, _)] = top_map_sums(n, [mr])
            assert chtop == brute_chtop(n, mr, brute_pairs[n])


class TestMapsByFaceType:
    """The weighted face-type stream against the brute-force triples."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_weights_count_all_triples(self, n):
        total = sum(weight for _, weight in maps_by_face_type(n))
        assert total == math.prod(range(1, 2 * n, 2)) ** 3

    @pytest.mark.parametrize("n", range(1, 4))
    def test_canonical_histogram(self, n):
        weighted: dict[bytes, int] = {}
        for m, weight in maps_by_face_type(n):
            k = canonical_form(m)
            weighted[k] = weighted.get(k, 0) + weight
        assert weighted == group_by(all_maps(n))

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            next(maps_by_face_type(5))
        m, weight = next(maps_by_face_type(5, force=True))
        assert m.n == 5 and weight == 945 * 3840 // (5 * 2)


def burnside_classes(n):
    """The number of classes of maps with n edges, by Burnside's lemma:
    the orbits of S_2n on triples of fixed-point-free involutions number
    the sum over lambda |- 2n of c(lambda)^3 / z_lambda, where c(lambda)
    counts the fixed-point-free involutions commuting with a permutation
    of cycle type lambda.  With m_k cycles of length k, such an involution
    pairs 2j of them (C(m_k, 2j) (2j-1)!! k^j ways) and maps each other one
    to itself by half a turn, which needs k even.  It reads no map."""
    total = Fraction(0)
    for lam in partitions_of(2 * n):
        c = z = 1
        for k, count in Counter(lam).items():
            z *= k ** count * math.factorial(count)
            c *= sum(math.comb(count, 2 * j) * math.prod(range(1, 2 * j, 2))
                     * k ** j for j in range(count // 2 + 1)
                     if k % 2 == 0 or 2 * j == count)
        total += Fraction(c ** 3, z)
    return total


class TestMapsByClass:
    """The class stream against the face-type stream and the triples."""

    @pytest.mark.parametrize("n", range(1, 4))
    def test_matches_all_maps(self, n):
        classes = {canonical_form(m): weight
                   for m, weight in maps_by_class(n)}
        assert classes == group_by(all_maps(n))

    def test_groups_the_face_type_stream(self):
        grouped: dict[bytes, int] = {}
        for m, weight in maps_by_face_type(4):
            k = canonical_form(m)
            grouped[k] = grouped.get(k, 0) + weight
        classes = [(canonical_form(m), weight)
                   for m, weight in maps_by_class(4)]
        assert dict(classes) == grouped and len(classes) == len(grouped)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_weights_count_all_triples(self, n):
        total = sum(weight for _, weight in maps_by_class(n, force=n > 4))
        assert total == math.prod(range(1, 2 * n, 2)) ** 3

    def test_class_counts(self):
        # Burnside's counts, computed and pinned: group_by shares the
        # stream's canonical form, so only a number catches a form that
        # merges or splits
        counts = [sum(1 for _ in maps_by_class(n, force=n > 4))
                  for n in range(1, 6)]
        assert counts == [burnside_classes(n) for n in range(1, 6)] == [
            1, 5, 16, 86, 448]

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            next(maps_by_class(5))


def dihedral_group(n):
    """D_n on the positions of the 2n-gon, as the closure of its two
    generators x -> x+2 and x -> -x-1 (mod 2n) under composition."""
    size = 2 * n
    gens = [tuple((x + 2) % size for x in range(size)),
            tuple((-x - 1) % size for x in range(size))]
    group = {tuple(range(size))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = tuple(g[h[x]] for x in range(size))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def conjugate(tau, eps):
    """tau eps tau^-1 on partner-index tuples."""
    out = [0] * len(eps)
    for x, y in enumerate(eps):
        out[tau[x]] = tau[y]
    return tuple(out)


class TestOneFaceOrbits:
    """The dihedral orbit stream against the brute-force one-face stream."""

    def test_representative_counts(self):
        counts = [sum(1 for _ in one_face_orbits(n)) for n in range(1, 7)]
        assert counts == [1, 3, 7, 30, 137, 1065]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_weights_count_all_gluings(self, n):
        total = sum(weight for _, weight in one_face_orbits(n))
        assert total == math.prod(range(1, 2 * n, 2))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_weight_is_orbit_size(self, n):
        group = dihedral_group(n)
        assert len(group) == 2 * n
        seen = set()
        for m, weight in one_face_orbits(n):
            orbit = {conjugate(tau, m._e) for tau in group}
            assert weight == len(orbit)
            assert m._e == min(orbit)
            assert orbit.isdisjoint(seen)
            seen |= orbit
            assert (m._b, m._w) == polygon_pairings((n,))
            assert m.labels == tuple(range(1, 2 * n + 1))

    def test_orbits_are_classes(self):
        # each orbit is one isomorphism class, first met in the one-face
        # stream at its least gluing: the class stream keeps first maps
        for n in range(1, 7):
            classes = class_stream((m, 1) for m in conservative_one_face(n))
            assert ([(m._key(), weight) for m, weight in classes]
                    == [(m._key(), weight)
                        for m, weight in one_face_orbits(n)])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_canonical_histogram(self, n):
        weighted: dict[bytes, int] = {}
        for m, weight in one_face_orbits(n):
            k = canonical_form(m)
            weighted[k] = weighted.get(k, 0) + weight
        assert weighted == group_by(conservative_one_face(n))

    def test_guard(self):
        stream = one_face_orbits(8)  # lazy: nothing runs before next()
        with pytest.raises(GuardExceeded):
            next(stream)
        with pytest.raises(ValueError):
            next(one_face_orbits(0))
        m, weight = next(one_face_orbits(8, force=True))
        assert m.labels == tuple(range(1, 17)) and 16 % weight == 0


class TestGroupBy:
    def test_graph_class_grouping_matches_main_theorem_n2(self):
        lhs: dict[bytes, Fraction] = {}
        for om in transitive_pairs(2):
            k = canonical_graph_class(bicolored_graph_oriented(om)).key
            lhs[k] = lhs.get(k, Fraction(0)) + 1  # (n-1)! = 1
        rhs: dict[bytes, Fraction] = {}
        for m in conservative_one_face(2):
            k = graph_class(m).key
            rhs[k] = rhs.get(k, Fraction(0)) + mon_top(m)
        assert lhs == {k: v for k, v in rhs.items() if v}

    def test_stream_determinism(self):
        first = [canonical_form(m) for m in conservative_one_face(3)]
        second = [canonical_form(m) for m in conservative_one_face(3)]
        assert first == second


def validated(m):
    """m rebuilt by the validating constructor, which raises unless its
    arrays are fixed-point-free involutions of the label positions."""
    return NonOrientedMap.from_arrays(m.labels, m._b, m._w, m._e)


def first(pairs):
    return (m for m, _ in pairs)


GENERATED = {
    **{f"all_maps-{n}": lambda n=n: all_maps(n) for n in (1, 2, 3)},
    **{f"liberal_one_face-{n}": lambda n=n: liberal_one_face(n)
       for n in (1, 2, 3)},
    **{f"conservative_maps-{mu}": lambda mu=mu: conservative_maps(mu)
       for d in range(1, 5) for mu in partitions_of(d)},
    **{f"conservative_one_face-{n}": lambda n=n: conservative_one_face(n)
       for n in range(1, 6)},
    **{f"one_face_orbits-{n}": lambda n=n: first(one_face_orbits(n))
       for n in range(1, 6)},
    **{f"maps_by_face_type-{n}": lambda n=n: first(maps_by_face_type(n))
       for n in range(1, 5)},
    **{f"maps_by_class-{n}": lambda n=n: first(maps_by_class(n))
       for n in range(1, 5)},
}


class TestGeneratedMapsValid:
    """The generators build their maps without validating them; each map
    must be one the validating constructor accepts and rebuilds equal
    (partner tuples, not lists, so equal keys)."""

    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generator(self, name):
        count = 0
        for m in GENERATED[name]():
            assert validated(m) == m
            count += 1
        assert count > 0

    def test_degree_bounds_samples(self, monkeypatch):
        # each sample is looked up once in the suite's class memo, whatever
        # its verdict
        verify = importlib.import_module("monmap.verify")
        drawn = []

        class Spy(verify.ClassMemo):
            def get(self, m, compute):
                drawn.append(m)
                return super().get(m, compute)
        monkeypatch.setattr(verify, "ClassMemo", Spy)
        suite_degree_bounds(n_exhaustive=0, sampled=(4, 5), samples=100,
                            seed=0)
        assert len(drawn) == 200
        for m in drawn:
            assert validated(m) == m


def side0_components_alike():
    """Two disconnected maps on the labels 1..6: the one-edge component
    {1, 2}, which holds side 0, and a two-edge component on 3..6 glued two
    ways that are not isomorphic."""
    beta = [(1, 2), (3, 4), (5, 6)]
    omega = [(1, 2), (4, 5), (3, 6)]
    return (NonOrientedMap.from_pairs(beta, omega, [(1, 2), (3, 5), (4, 6)]),
            NonOrientedMap.from_pairs(beta, omega, [(1, 2), (3, 4), (5, 6)]))


class TestGroupByTraceFirst:
    """``group_by`` finds each map's class by its side-0 trace first (the
    canonical form's first lookup); its table must be the one keyed by
    every map's own form."""

    @pytest.mark.parametrize("stream", [
        lambda: all_maps(2), lambda: liberal_one_face(3),
        lambda: conservative_one_face(4)],
        ids=["all_maps-2", "liberal_one_face-3", "conservative_one_face-4"])
    def test_matches_canonical_form(self, stream):
        assert group_by(stream()) == Counter(
            canonical_form(m) for m in stream())

    def test_all_maps_2_has_disconnected_maps(self):
        # the side-0 trace reaches every side exactly on a connected map
        maps = list(all_maps(2))
        covers = [len(_component_trace(m._b, m._w, m._e, 0)) == 3 * len(m._b)
                  for m in maps]
        assert covers == [m._component_data[1] == 1 for m in maps]
        assert not all(covers)

    def test_disconnected_maps_alike_at_side_0(self):
        a, b = side0_components_alike()
        assert (_component_trace(a._b, a._w, a._e, 0)
                == _component_trace(b._b, b._w, b._e, 0))
        assert canonical_form(a) != canonical_form(b)
        fresh = side0_components_alike()  # nothing cached on them yet
        assert group_by(fresh) == {canonical_form(a): 1,
                                   canonical_form(b): 1}
