import random
from itertools import permutations

import pytest

from monmap.maps import (MapError, NonOrientedMap, canonical_graph_class,
                         is_orientable, structure)
from monmap.oriented import (OrientedMap, bicolored_graph_oriented,
                             cycle_ids, oriented_to_json_obj, perm_cycles,
                             side_label)

from conftest import is_transitive, oriented_components

TORUS = OrientedMap.from_cycles(
    9, [[1, 4, 9, 5, 7], [2, 6], [3, 8]], [[1, 9], [2, 3, 5], [4, 7], [6, 8]])


def randomly_relabeled(rng, m):
    """``side_label(m)`` with its 2n side labels randomly permuted."""
    nm = side_label(m)
    labels = list(range(1, 2 * m.n + 1))
    rng.shuffle(labels)
    return NonOrientedMap.from_pairs(
        *([(labels[a - 1], labels[b - 1]) for a, b in pairs]
          for pairs in (nm.beta, nm.omega, nm.eps)))


class TestTransitivity:
    def test_torus_example(self):
        assert is_transitive(TORUS)

    def test_two_fixed_points(self):
        assert not is_transitive(OrientedMap((0, 1), (0, 1)))

    def test_single_edge(self):
        assert is_transitive(OrientedMap((0,), (0,)))

    def test_matches_component_count(self):
        for s1 in permutations(range(3)):
            for s2 in permutations(range(3)):
                m = OrientedMap(s1, s2)
                assert is_transitive(m) == (oriented_components(m) == 1)


class TestCycleIds:
    @pytest.mark.parametrize("n", range(6))
    def test_numbered_as_perm_cycles_lists_them(self, n):
        for perm in permutations(range(n)):
            ids, count = cycle_ids(perm)
            cycles = perm_cycles(perm)
            assert count == len(cycles)
            assert ids == tuple(next(i for i, cyc in enumerate(cycles)
                                     if x + 1 in cyc) for x in range(n))


class TestOrientedStructure:
    """The structure of an oriented map, read off its side labeling."""

    def test_torus(self):
        st = structure(side_label(TORUS))
        assert (st.whites, st.blacks) == (3, 4)
        assert st.faces == 2
        assert st.euler == 0
        assert st.genus == 1

    def test_single_edge_sphere(self):
        st = structure(side_label(OrientedMap((0,), (0,))))
        assert (st.vertices, st.faces, st.euler, st.genus) == (2, 1, 2, 0)

    def test_full_cycle_faces_against_direct_count(self):
        for n in range(1, 7):
            cyc = tuple((i + 1) % n for i in range(n))
            m = OrientedMap(cyc, cyc)
            # oracle: count cycles of sigma2 o sigma1 directly
            composite = tuple(cyc[cyc[i]] for i in range(n))
            assert (structure(side_label(m)).faces
                    == len(perm_cycles(composite)))

    def test_disconnected_reports_per_component(self):
        # two single-edge spheres: Euler characteristic 2 each
        st = structure(side_label(OrientedMap((0, 1), (0, 1))))
        assert st.components == 2
        assert st.euler == 4 and st.genus == 0


class TestSideLabel:
    def test_single_edge(self):
        m = side_label(OrientedMap((0,), (0,)))
        assert structure(m).vertices == 2
        assert m.eps == ((1, 2),)

    def test_torus_any_labeling(self):
        rng = random.Random(7)
        for _ in range(3):
            nm = randomly_relabeled(rng, TORUS)
            assert is_orientable(nm)
            st = structure(nm)
            assert st.euler == 0 and st.components == 1

    def test_graph_class_independent_of_labeling(self):
        rng = random.Random(1)
        base = canonical_graph_class(bicolored_graph_oriented(TORUS))
        from monmap.maps import graph_class
        for _ in range(4):
            nm = randomly_relabeled(rng, TORUS)
            assert graph_class(nm) == base

    def test_component_count_matches_orbits(self):
        rng = random.Random(3)
        for n in (1, 2, 3):
            for s1 in permutations(range(n)):
                for s2 in permutations(range(n)):
                    m = OrientedMap(s1, s2)
                    nm = randomly_relabeled(rng, m)
                    assert is_orientable(nm)
                    assert (structure(nm).components
                            == oriented_components(m))


class TestJsonAndGraph:
    def test_json_round_trip(self):
        for m in (TORUS, OrientedMap((0, 1), (1, 0))):
            obj = oriented_to_json_obj(m)
            assert OrientedMap.from_cycles(obj["n"], obj["sigma1"],
                                           obj["sigma2"]) == m

    def test_graph_matches_side_labeled_graph(self):
        from monmap.maps import bicolored_graph
        g1 = bicolored_graph_oriented(TORUS)
        g2 = bicolored_graph(side_label(TORUS))
        assert (g1.blacks, g1.whites) == (g2.blacks, g2.whites)
        assert canonical_graph_class(g1).key \
            == canonical_form_key(side_label(TORUS))

    def test_validation(self):
        with pytest.raises(MapError):
            OrientedMap((0, 0), (0, 1))
        with pytest.raises(MapError):
            OrientedMap.from_cycles(2, [[1, 1]], [[1, 2]])

    @pytest.mark.parametrize("bad", [1.9, 1.0, "1", True])
    def test_non_int_cycle_entries_refused(self, bad):
        with pytest.raises(MapError, match="must be integers"):
            OrientedMap.from_cycles(2, [[bad, 2]], [[1, 2]])
        with pytest.raises(MapError, match="must be integers"):
            OrientedMap.from_cycles(2, [[1, 2]], [[2, bad]])

    @pytest.mark.parametrize("sigma1, sigma2", [
        ((0.0, 1.0), (1, 0)),
        ((True, 0), (0, 1)),
        ((0, 1), (1, 0.0)),
        ((0, "1"), (1, 0)),
    ], ids=["float", "bool", "float-in-sigma2", "str"])
    def test_non_int_permutation_entries_refused(self, sigma1, sigma2):
        with pytest.raises(MapError, match="must be integers"):
            OrientedMap(sigma1, sigma2)

    @pytest.mark.parametrize("bad", [2.0, "2", True])
    def test_non_int_n_refused(self, bad):
        with pytest.raises(MapError, match="n must be an integer"):
            OrientedMap.from_cycles(bad, [[1]], [[1]])

    def test_json_refuses_non_int_fields(self):
        good = {"n": 2, "cycles1": [[1, 2]], "cycles2": [[1, 2]]}
        assert OrientedMap.from_cycles(**good).n == 2
        for key, value in (("n", "2"), ("cycles1", [["1", 2]]),
                           ("cycles2", [[True, 2]])):
            with pytest.raises(MapError):
                OrientedMap.from_cycles(**{**good, key: value})


def canonical_form_key(m):
    from monmap.maps import graph_class
    return graph_class(m).key
