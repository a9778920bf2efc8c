"""Hand-checked cases for the involution-orbit kernels, and the map queries
built on them against a label-level reference."""

from collections import deque

from hypothesis import given, settings

from monmap import kernels
from monmap.enumeration import all_maps, conservative_maps
from monmap.jack import partitions_of
from monmap.maps import bicolored_graph, is_orientable, structure

from conftest import map_strategy, partner_dict


class TestPurePython:
    def test_face_data_first_visit_order(self):
        p = (1, 0, 3, 2)
        q = (1, 0, 3, 2)
        ids, _, count = kernels.face_data(p, q)
        assert ids == [0, 0, 1, 1] and count == 2

    def test_face_data_alternating_coloring(self):
        # hexagon: beta pairs (0,1)(2,3)(4,5), omega pairs (1,2)(3,4)(5,0)
        beta = (1, 0, 3, 2, 5, 4)
        omega = (5, 2, 1, 4, 3, 0)
        ids, cols, count = kernels.face_data(beta, omega)
        assert count == 1
        assert cols == [0, 1, 0, 1, 0, 1]

    def test_orbit_ids3_bipartite(self):
        # single edge: all three involutions swap 0 and 1
        swap = (1, 0)
        assert kernels.orbit_ids3(swap, swap, swap)[2]
        # klein triple is not bipartite
        beta = (1, 0, 3, 2, 5, 4)
        omega = (5, 2, 1, 4, 3, 0)
        eps = (4, 3, 5, 1, 0, 2)
        assert not kernels.orbit_ids3(beta, omega, eps)[2]
        # indices 1, 4, 5 form a triangle, one adjacency of each kind; under
        # the traversal's colouring only beta adjacencies join equal colours
        beta = (1, 0, 3, 2, 5, 4, 7, 6)
        omega = (2, 4, 0, 6, 1, 7, 3, 5)
        eps = (3, 5, 6, 0, 7, 1, 2, 4)
        assert not kernels.orbit_ids3(beta, omega, eps)[2]

    def test_empty_inputs(self):
        assert kernels.orbit_ids3((), (), ()) == ([], 0, True)
        assert kernels.face_data((), ()) == ([], [], 0)


def _sides(m, order):
    """A removal order of label pairs as the index pairs of their sides."""
    return [(m.labels.index(a), m.labels.index(b)) for a, b in order]


class TestRemovalCounts:
    """(twisted, interface) counts of removal orders, checked by hand."""

    def test_klein_straight_first(self, klein):
        order = _sides(klein, [(3, 6), (1, 5), (2, 4)])
        assert kernels.removal_counts(klein._b, klein._w, order) == (0, 1)

    def test_klein_twisted_first(self, klein):
        order = _sides(klein, [(1, 5), (2, 4), (3, 6)])
        assert kernels.removal_counts(klein._b, klein._w, order) == (2, 0)

    def test_interface_edge(self, projective):
        order = _sides(projective, [(6, 13)])
        assert kernels.removal_counts(
            projective._b, projective._w, order) == (0, 1)

    def test_single_edge(self):
        swap = (1, 0)
        assert kernels.removal_counts(swap, swap, [(0, 1)]) == (0, 0)

    def test_leaf_edge(self):
        # B=[[1,2],[3,4]], W=[[1,3],[2,4]], E=[[1,2],[3,4]]: beta pairs the
        # two sides of edge {1,2}, so the walk meets j in one step
        beta = (1, 0, 3, 2)
        omega = (2, 3, 0, 1)
        assert kernels.removal_counts(beta, omega, [(0, 1)]) == (0, 0)

    def test_empty_order(self, klein):
        assert kernels.removal_counts(klein._b, klein._w, []) == (0, 0)

    def test_inputs_unchanged(self, klein):
        beta, omega = list(klein._b), list(klein._w)
        order = _sides(klein, [(1, 5), (2, 4), (3, 6)])
        kernels.removal_counts(beta, omega, order)
        assert beta == list(klein._b) and omega == list(klein._w)


def _reference_orbits(labels, *pairings):
    """Orbit id per label (first-visit order over sorted labels), the orbit
    count, and whether the graph with these adjacencies is bipartite."""
    ids, cols = {}, {}
    count = 0
    bipartite = True
    for s in sorted(labels):
        if s in ids:
            continue
        ids[s], cols[s] = count, 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for p in pairings:
                y = p[x]
                if y not in ids:
                    ids[y], cols[y] = count, 1 - cols[x]
                    queue.append(y)
                elif cols[y] == cols[x]:
                    bipartite = False
        count += 1
    return ids, count, bipartite


def _check_against_reference(m):
    labels = m.labels
    beta, omega, eps = (partner_dict(p) for p in (m.beta, m.omega, m.eps))
    black_ids, blacks, _ = _reference_orbits(labels, beta, eps)
    white_ids, whites, _ = _reference_orbits(labels, omega, eps)
    _, components, orientable = _reference_orbits(labels, beta, omega, eps)
    s = structure(m)
    assert (s.blacks, s.whites, s.components) == (blacks, whites, components)
    g = bicolored_graph(m)
    assert (g.blacks, g.whites) == (blacks, whites)
    assert g.edges == tuple(sorted(
        (black_ids[a], white_ids[a]) for a, _ in m.eps))
    assert is_orientable(m) == orientable


class TestAgainstReference:
    """The map queries built on the two kernels, against a label-level BFS."""

    @settings(max_examples=200, deadline=None)
    @given(map_strategy(1, 5))
    def test_random_maps(self, m):
        _check_against_reference(m)

    def test_all_maps_up_to_three_edges(self):
        for n in (1, 2, 3):
            for m in all_maps(n):
                _check_against_reference(m)

    def test_every_four_edge_map_up_to_relabelling(self):
        # A map is a gluing of its face polygons, so these families hold
        # every 4-edge map up to relabelling.  A few of them have an odd
        # cycle that the traversal meets only on a beta adjacency; about 1%
        # of random 4- and 5-edge maps do, too few for a fixed number of
        # random draws to find every time.
        for face_type in partitions_of(4):
            for m in conservative_maps(face_type):
                _check_against_reference(m)
