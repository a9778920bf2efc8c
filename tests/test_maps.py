import importlib
import random
from array import array
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monmap import kernels
from monmap.enumeration import (all_maps, conservative_one_face, involutions,
                                maps_by_class)
from monmap.maps import (_COMPONENT_FORMS, _DROPS, _FACES, MAX_TABLE_SIDES,
                         BicoloredGraph, EdgeKind, MapError, NonOrientedMap,
                         _component_trace, _drop, _edge_index, _faces,
                         _new_map, _trace_bytes, _twist_sides, bicolored_graph,
                         canonical_form, canonical_graph_class, classify_edge,
                         clear_caches, faces, graph_class, is_orientable,
                         map_from_json_obj, map_to_json_obj, remove_edge,
                         structure, twist_many)
from monmap.oriented import OrientedMap, side_label

from conftest import _uniform_matching, edge_role, map_strategy, partner_dict

F = Fraction

SINGLE_EDGE = NonOrientedMap.from_pairs([[1, 2]], [[1, 2]], [[1, 2]])
# two edges meeting at one white vertex, black endpoints distinct
PATH2 = NonOrientedMap.from_pairs(
    [[1, 2], [3, 4]], [[2, 3], [4, 1]], [[1, 2], [3, 4]])


# a valid 2-edge triple on the labels 1..4, as partner positions
LABELS4, B4, W4, E4 = (1, 2, 3, 4), (1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1)


class TestConstructor:
    def test_arrays_and_pairs_agree(self, klein):
        m = NonOrientedMap.from_arrays(LABELS4, B4, W4, E4)
        assert m == NonOrientedMap.from_pairs(
            [[1, 2], [3, 4]], [[1, 4], [2, 3]], [[1, 3], [2, 4]])
        rebuilt = NonOrientedMap.from_arrays(klein.labels, list(klein._b),
                                             klein._w, klein._e)
        assert rebuilt == klein and rebuilt._b == klein._b

    @pytest.mark.parametrize("labels, b, w, e", [
        pytest.param(LABELS4, (1, 0, 3), W4, E4, id="short-array"),
        pytest.param(LABELS4, B4, W4, E4 + (4,), id="long-array"),
        pytest.param(LABELS4, (1, 0, 2, 3), W4, E4, id="fixed-point"),
        pytest.param(LABELS4, B4, (1, 2, 3, 0), E4, id="not-an-involution"),
        pytest.param(LABELS4, B4, W4, (-2, -1, 0, 1), id="negative-position"),
        pytest.param(LABELS4, B4, W4, (2, 3, 0, 5),
                     id="position-out-of-range"),
        pytest.param(LABELS4, B4, W4, (2.0, 3, 0, 1), id="float-position"),
        pytest.param((1, 3, 2, 4), B4, W4, E4, id="unsorted-labels"),
        pytest.param((1, 2, 2, 4), B4, W4, E4, id="duplicate-labels"),
        pytest.param((1, 2.0, 3, 4), B4, W4, E4, id="float-label"),
        pytest.param(("1", 2, 3, 4), B4, W4, E4, id="str-label"),
        pytest.param((True, 2, 3, 4), B4, W4, E4, id="bool-label"),
    ])
    def test_rejects_invalid_arrays(self, labels, b, w, e):
        with pytest.raises(MapError):
            NonOrientedMap.from_arrays(labels, b, w, e)

    @pytest.mark.parametrize("bad", [1.5, 2.0, "2", True])
    def test_rejects_non_integer_labels(self, bad):
        with pytest.raises(MapError):
            NonOrientedMap.from_pairs([[bad, 7]], [[bad, 7]], [[bad, 7]])
        with pytest.raises(MapError):
            NonOrientedMap.from_pairs([[1, 2]], [[1, 2]], [[bad, 1]])

    def test_rejects_labels_int_would_accept(self):
        with pytest.raises(MapError):
            NonOrientedMap.from_pairs([[1.5, 2]], [[1, 2.2]], [[True, 2]])
        with pytest.raises(MapError):
            NonOrientedMap.from_pairs([("3", True)], [[1, 2]], [[1, 2]])

    def test_rejects_invalid_pairs(self):
        for pairs in ([(1, 1)], [(1, 2), (2, 3)]):
            with pytest.raises(MapError):
                NonOrientedMap.from_pairs(pairs, pairs, pairs)


class TestFaces:
    def test_klein_single_face(self, klein):
        orbits, face_type = faces(klein)
        assert orbits == [frozenset({1, 2, 3, 4, 5, 6})]
        assert face_type == (3,)

    def test_single_edge(self):
        orbits, face_type = faces(SINGLE_EDGE)
        assert orbits == [frozenset({1, 2})]
        assert face_type == (1,)

    def test_projective_two_polygons(self, projective):
        orbits, face_type = faces(projective)
        assert sorted(len(o) for o in orbits) == [4, 10]
        assert face_type == (5, 2)

    def test_orbits_partition_labels(self, klein, projective):
        for m in (klein, projective):
            orbits, _ = faces(m)
            seen = [x for o in orbits for x in o]
            assert sorted(seen) == list(m.labels)


class TestStructure:
    def test_klein(self, klein):
        st = structure(klein)
        assert (st.vertices, st.edges, st.faces) == (2, 3, 1)
        assert st.components == 1
        assert st.euler == 0
        assert st.genus == 1

    def test_single_edge_sphere(self):
        st = structure(SINGLE_EDGE)
        assert (st.vertices, st.edges, st.faces) == (2, 1, 1)
        assert st.euler == 2 and st.genus == 0

    def test_projective(self, projective):
        st = structure(projective)
        assert (st.vertices, st.edges, st.faces) == (6, 7, 2)
        assert st.euler == 1 and st.genus == F(1, 2)


class TestOrientability:
    def test_fixtures_nonorientable(self, klein, projective):
        assert not is_orientable(klein)
        assert not is_orientable(projective)

    def test_side_labelings_are_orientable(self):
        for s1 in permutations(range(3)):
            for s2 in permutations(range(3)):
                assert is_orientable(side_label(OrientedMap(s1, s2)))


class TestClassifyEdge:
    def test_klein_edges(self, klein):
        assert classify_edge(klein, (3, 6)) == EdgeKind.STRAIGHT
        assert classify_edge(klein, (1, 5)) == EdgeKind.TWISTED

    def test_projective_edges(self, projective):
        assert classify_edge(projective, (4, 9)) == EdgeKind.STRAIGHT
        assert classify_edge(projective, (1, 3)) == EdgeKind.TWISTED
        assert classify_edge(projective, (6, 13)) == EdgeKind.INTERFACE

    def test_not_an_edge(self, klein):
        with pytest.raises(MapError):
            classify_edge(klein, (1, 2))

    @settings(max_examples=60, deadline=None)
    @given(map_strategy(max_n=3))
    def test_total_and_exclusive(self, m):
        for e in m.eps:
            assert classify_edge(m, e) in EdgeKind


class TestRemoveEdge:
    def test_klein_annulus(self, klein):
        st = structure(remove_edge(klein, (3, 6)))
        assert (st.components, st.faces) == (1, 2)

    def test_klein_moebius(self, klein):
        st = structure(remove_edge(klein, (1, 5)))
        assert (st.components, st.faces) == (1, 1)

    def test_single_edge_to_empty(self):
        m = remove_edge(SINGLE_EDGE, (1, 2))
        assert m.labels == ()
        assert m.n == 0

    @settings(max_examples=40, deadline=None)
    @given(map_strategy(max_n=3))
    def test_commutes_with_relabeling(self, m):
        # relabel x -> 2x, then x -> x+1 on odd results: any injection works
        relabel = {x: 3 * x + 1 for x in m.labels}

        def apply(pairs):
            return [(relabel[a], relabel[b]) for a, b in pairs]

        image = NonOrientedMap.from_pairs(apply(m.beta), apply(m.omega),
                                          apply(m.eps))
        for a, b in m.eps:
            lhs = canonical_form(remove_edge(m, (a, b)))
            rhs = canonical_form(remove_edge(image, (relabel[a], relabel[b])))
            assert lhs == rhs


class TestKernelTables:
    """``_DROPS`` and ``_FACES`` hold what ``_drop`` and ``face_data``
    compute, as tuples, and only for arrays of at most 8 sides."""

    @pytest.mark.parametrize("sides", [2, 4, 6])
    def test_drops_match_a_fresh_drop(self, sides):
        clear_caches()
        labels = tuple(range(sides))
        invs = list(involutions(labels))
        # with b = w over every involution and e over every involution,
        # every key (partner, i, j) of this size is filled
        for b in invs:
            for e in invs:
                m = _new_map(labels, b, b, e)
                for i, j in enumerate(e):
                    if i > j:
                        continue
                    renumber = [x - (x > i) - (x > j) for x in labels]
                    fresh = (_drop(b, i, j, renumber),
                             _drop(e, i, j, renumber))
                    for _ in range(2):  # the second call reads the table
                        residual = remove_edge(m, (i, j))
                        assert (residual._b, residual._w, residual._e) == (
                            fresh[0], fresh[0], fresh[1])
                    assert (_DROPS[b, i, j], _DROPS[e, i, j]) == fresh
        assert all(type(v) is tuple for v in _DROPS.values())
        assert len(_DROPS) == len(invs) * sides * (sides - 1) // 2

    def test_faces_match_face_data(self):
        clear_caches()
        for sides in (0, 2, 4, 6):
            invs = list(involutions(range(sides)))
            for p in invs:
                for q in invs:
                    ids, cols, count = kernels.face_data(p, q)
                    expected = (tuple(ids), tuple(cols), count)
                    assert _faces(p, q) == expected  # a miss
                    assert _FACES[p, q] == expected
                    assert _faces(p, q) is _FACES[p, q]  # a hit
        assert len(_FACES) == 1 + 1 + 3 ** 2 + 15 ** 2
        assert all(type(ids) is tuple and type(cols) is tuple
                   for ids, cols, _ in _FACES.values())

    def test_no_array_past_the_bound_is_stored(self):
        assert MAX_TABLE_SIDES == 8
        # a 10-gon: its one face alternates the pairs of e = b and of w
        e = (1, 0, 3, 2, 5, 4, 7, 6, 9, 8)
        w = (9, 2, 1, 4, 3, 6, 5, 8, 7, 0)
        m = NonOrientedMap.from_arrays(range(10), e, w, e)
        clear_caches()
        residual = remove_edge(m, m.edges()[0])
        assert not _DROPS
        assert m._face_data[2] == 1 and m._vertex_data
        assert not _FACES
        assert type(m._face_data[0]) is tuple
        # the 8-side residual is within the bound: its data is stored
        assert residual._face_data and residual._vertex_data
        remove_edge(residual, residual.edges()[0])
        assert _FACES and all(len(p) == len(q) == 8 for p, q in _FACES)
        assert _DROPS and all(len(key[0]) == 8 for key in _DROPS)


class TestTwist:
    def test_white_pairing_conjugated(self):
        # edge {a,b} = {1,2} with omega(b) = w = 5 and omega(a) = z = 6
        m = NonOrientedMap.from_pairs(
            [[1, 3], [2, 4], [5, 6]], [[2, 5], [1, 6], [3, 4]],
            [[1, 2], [3, 5], [4, 6]])
        t = twist_many(m, [(1, 2)])
        assert t.omega == ((1, 5), (2, 6), (3, 4))
        assert t.beta == m.beta and t.eps == m.eps

    def test_white_leaf_fixed(self):
        assert twist_many(SINGLE_EDGE, [(1, 2)]) == SINGLE_EDGE

    def test_involution(self, klein):
        assert twist_many(twist_many(klein, [(1, 5)]), [(1, 5)]) == klein

    @settings(max_examples=60, deadline=None)
    @given(map_strategy(max_n=3))
    def test_preserves_graph_class_not_necessarily_faces(self, m):
        e = m.eps[0]
        assert graph_class(twist_many(m, [e])) == graph_class(m)

    def test_twist_many_matches_sequential(self, klein):
        seq = twist_many(twist_many(klein, [(1, 5)]), [(2, 4)])
        assert twist_many(klein, [(1, 5), (2, 4)]) == seq
        assert twist_many(klein, [(2, 4), (1, 5)]) == seq

    def test_twist_many_rejects_duplicates(self, klein):
        with pytest.raises(MapError):
            twist_many(klein, [(1, 5), (5, 1)])


class TestEdgeRole:
    def test_single_edge_is_leaf(self):
        role = edge_role(SINGLE_EDGE, (1, 2))
        assert role.is_leaf and not role.is_bridge

    def test_klein_middle_edge(self, klein):
        role = edge_role(klein, (2, 4))
        assert not role.is_leaf and not role.is_bridge
        # oracle: removal keeps one component
        assert structure(remove_edge(klein, (2, 4))).components == 1

    def test_path_edges_are_leaves_not_bridges(self):
        for e in PATH2.eps:
            role = edge_role(PATH2, e)
            assert role.is_leaf and not role.is_bridge

    def test_bridge(self):
        # two digon blocks joined by a middle edge through white corners
        m = NonOrientedMap.from_pairs(
            [[1, 2], [3, 4], [5, 6]], [[2, 3], [4, 5], [6, 1]],
            [[1, 2], [3, 6], [4, 5]])
        roles = {e: edge_role(m, e) for e in m.eps}
        assert any(r.is_bridge for r in roles.values())
        for e, r in roles.items():
            if r.is_bridge:
                before = structure(m).components
                after = structure(remove_edge(m, e)).components
                assert after == before + 1

    @settings(max_examples=150, deadline=None)
    @given(map_strategy(1, 4), st.data())
    def test_twist_invariant(self, m, data):
        # the twist bijection reads roles off the untwisted map
        subset = data.draw(st.lists(st.sampled_from(m.edges()), unique=True))
        twisted = twist_many(m, subset)
        for e in m.edges():
            assert edge_role(twisted, e) == edge_role(m, e)


class TestCanonicalForm:
    def test_relabeling_invariance(self, klein):
        relabel = {1: 10, 2: 20, 3: 31, 4: 44, 5: 5, 6: 16}

        def apply(pairs):
            return [(relabel[a], relabel[b]) for a, b in pairs]

        other = NonOrientedMap.from_pairs(apply(klein.beta),
                                          apply(klein.omega),
                                          apply(klein.eps))
        assert canonical_form(other) == canonical_form(klein)

    def test_distinguishes_fixtures(self, klein, projective):
        assert canonical_form(klein) != canonical_form(projective)

    def test_three_classes_at_n2(self):
        # brute-force oracle: orbits of label bijections fixing the square
        forms = {canonical_form(m) for m in conservative_one_face(2)}
        assert len(forms) == 3


def _permuted(m, p):
    """m with side i moved to position p[i]: the same map up to labels."""
    arrays = []
    for partner in (m._b, m._w, m._e):
        out = [0] * len(p)
        for i, j in enumerate(partner):
            out[p[i]] = p[j]
        arrays.append(out)
    return NonOrientedMap.from_arrays(m.labels, *arrays)


class TestFormStability:
    """A class's form is its least trace whichever rooting is met first."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_relabelled_from_cold_caches(self, n):
        rng = random.Random(n)
        representatives = [m for m, _ in maps_by_class(n)]
        for m in representatives:
            clear_caches()
            form = canonical_form(m)
            assert form == ref_canonical_form(m)
            for _ in range(3):
                p = list(range(2 * n))
                rng.shuffle(p)
                clear_caches()
                assert canonical_form(_permuted(m, p)) == form


class TestSideTrace:
    """The trace from side 0 keys a connected map in the table of rooted
    traces (``maps._COMPONENT_FORMS``), and every other rooting does too
    once the map's class has been met."""

    @staticmethod
    def check_sound(family):
        clear_caches()
        by_key = {}  # side-0 trace -> canonical form
        for m in family:
            form = canonical_form(m)
            b, w, e = m._b, m._w, m._e
            sides = len(b)
            root = _component_trace(b, w, e, 0)
            assert (len(root) == 3 * sides) == (m._component_data[1] == 1)
            if len(root) == 3 * sides:
                key = _trace_bytes(root, sides)
                assert by_key.setdefault(key, form) == form
                for s in range(sides):
                    rooted = _trace_bytes(_component_trace(b, w, e, s), sides)
                    assert _COMPONENT_FORMS[rooted] == form
        return by_key

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sound_on_every_small_map(self, n):
        self.check_sound(all_maps(n))

    def test_sound_on_one_face_n4(self):
        self.check_sound(conservative_one_face(4))

    def test_empty_map(self):
        empty = NonOrientedMap.from_arrays((), (), (), ())
        clear_caches()
        assert canonical_form(empty) == b"" and _COMPONENT_FORMS == {}

    def test_kept_on_the_map(self, monkeypatch):
        # the form, and the side-0 trace it starts from, are made once per
        # instance: a new class costs its side-0 trace and one trace per
        # side, a known rooting one trace per component
        maps = importlib.import_module("monmap.maps")
        real, starts = maps._component_trace, []
        monkeypatch.setattr(maps, "_component_trace", lambda b, w, e, s: (
            starts.append(s) or real(b, w, e, s)))
        two_edges = [(1, 2), (3, 4)]
        disconnected = NonOrientedMap.from_pairs(two_edges, two_edges,
                                                 two_edges)
        connected = NonOrientedMap.from_pairs(*[[(1, 2)]] * 3)
        edge = b"\x01\x01\x01\x00\x00\x00"  # one edge's least trace
        clear_caches()
        forms = [canonical_form(disconnected) for _ in range(2)]
        assert forms == [edge * 2] * 2
        assert starts == [0, 0, 1, 2]
        assert [canonical_form(connected) for _ in range(2)] == [edge] * 2
        assert starts == [0, 0, 1, 2, 0]

    def test_exact_past_128_edges(self):
        # sides past 255 need more than one byte per trace entry
        rng = random.Random(0)
        n = 130
        family = []
        for _ in range(3):
            m = NonOrientedMap.from_arrays(
                range(1, 2 * n + 1),
                *(_uniform_matching(rng, 2 * n) for _ in range(3)))
            fixed = list(range(1, 2 * n))
            rng.shuffle(fixed)
            moved = list(range(2 * n))
            rng.shuffle(moved)
            family += [m, _permuted(m, [0, *fixed]), _permuted(m, moved)]
        by_key = self.check_sound(family)
        traces = {_component_trace(m._b, m._w, m._e, 0) for m in family}
        # the relabelling that keeps side 0 keeps the key
        assert len(by_key) == len(traces) == 6
        assert len(set(by_key.values())) == 3


def _cycle(k):
    """Partner arrays of a one-component map on 2k sides: a cycle that
    alternates beta and eps, with omega equal to eps."""
    size = 2 * k
    b, w = [0] * size, [0] * size
    for i in range(0, size, 2):
        w[i], w[i + 1] = i + 1, i
        b[i + 1], b[(i + 2) % size] = (i + 2) % size, i + 1
    return b, w, list(w)


def _union(*components):
    """The map whose components are the given partner arrays, in order."""
    arrays = [[], [], []]
    for component in components:
        offset = len(arrays[0])
        for out, partner in zip(arrays, component):
            out += [offset + i for i in partner]
    return NonOrientedMap.from_arrays(range(1, len(arrays[0]) + 1), *arrays)


def _fresh(maps):
    """New instances of the maps, with nothing cached on them."""
    return [NonOrientedMap.from_arrays(m.labels, m._b, m._w, m._e)
            for m in maps]


class TestWideForms:
    """Canonical forms of disconnected maps past 256 sides, where an entry
    takes four bytes: components of known classes come from the table of
    rooted traces, and the component traces are sorted as traces."""

    @staticmethod
    def family():
        rng = random.Random(1)
        while True:  # a connected component of 260 sides, wide by itself
            wide = [_uniform_matching(rng, 260) for _ in range(3)]
            if _union(wide)._component_data[1] == 1:
                break
        small = [_uniform_matching(rng, 10) for _ in range(3)]
        return [
            # 263 edges: the two cycles' least traces agree up to entries
            # 256 and 255, so their order as traces is not the order of
            # their 4-byte little-endian strings
            _union(_cycle(128), small, _cycle(130)),
            # 136 edges: a wide component and two of one class
            _union(_cycle(3), wide, _cycle(3)),
        ]

    def test_forms_match_the_reference(self):
        rng = random.Random(2)
        family = self.family()
        refs = [ref_canonical_form(m) for m in family]
        moved = []
        for m in family:
            p = list(range(len(m._b)))
            rng.shuffle(p)
            moved.append(_permuted(m, p))
        assert [m._component_data[1] for m in family] == [3, 3]
        assert all(len(m._b) > 256 for m in family)
        clear_caches()
        cold = [canonical_form(m) for m in family]
        warm = [canonical_form(m) for m in _fresh(family)]
        relabelled = [canonical_form(m) for m in moved]
        clear_caches()
        relabelled_cold = [canonical_form(m) for m in _fresh(moved)]
        assert cold == warm == relabelled == relabelled_cold == refs
        # the two cycles (each looks alike from every side) order one way
        # as traces and the other way as 4-byte strings
        short, long = (_component_trace(*_cycle(k), 0) for k in (128, 130))
        assert short < long
        assert array("I", long).tobytes() < array("I", short).tobytes()


class TestGraphClass:
    def test_klein_triple_edge(self, klein):
        cls = graph_class(klein)
        assert (cls.blacks, cls.whites) == (1, 1)
        assert cls.matrix == ((3,),)

    def test_single_edge(self):
        cls = graph_class(SINGLE_EDGE)
        assert (cls.blacks, cls.whites, cls.matrix) == (1, 1, ((1,),))

    def test_twist_invariance(self, klein):
        assert graph_class(twist_many(klein, [(1, 5)])) == graph_class(klein)

    def test_graph_has_no_isolated_vertices(self, klein):
        g = bicolored_graph(klein)
        assert {b for b, _ in g.edges} == set(range(g.blacks))
        assert {w for _, w in g.edges} == set(range(g.whites))

    def test_graph_cache_changes_no_result(self):
        # every twist set of every map on two edges, the empty one (m
        # itself) first: each twist is built from a map whose graph and
        # vertex orbits are cached, carries neither and builds its own
        for m in all_maps(2):
            for k in range(m.n + 1):
                for subset in combinations(m.eps, k):
                    t = _twist_sides(m, [_edge_index(m, e) for e in subset])
                    assert "_graph" not in t.__dict__
                    assert "_vertex_data" not in t.__dict__
                    graph = bicolored_graph(t)
                    rebuilt = NonOrientedMap.from_arrays(
                        t.labels, t._b, t._w, t._e)
                    assert graph == bicolored_graph(rebuilt)
                    assert bicolored_graph(t) is graph


class TestExhaustiveInvariants:
    def test_all_small_maps_euler_and_partitions(self):
        for n in (1, 2, 3):
            for m in all_maps(n):
                st = structure(m)
                assert st.euler == st.faces - st.edges + st.vertices
                assert st.genus >= 0
                orbits, _ = faces(m)
                assert sorted(x for o in orbits for x in o) == list(m.labels)
                g = bicolored_graph(m)
                assert (g.blacks, g.whites) == (st.blacks, st.whites)
                assert len(g.edges) == st.edges

    def test_twistability_lemma_exhaustive(self):
        # orientability version over every map on up to 6 labels
        for n in (1, 2, 3):
            for m in all_maps(n):
                for e in m.eps:
                    if not is_orientable(remove_edge(m, e)):
                        continue
                    role = edge_role(m, e)
                    if role.is_bridge or role.is_leaf:
                        assert is_orientable(m)
                    else:
                        assert (is_orientable(m)
                                != is_orientable(twist_many(m, [e])))


class TestJson:
    def test_round_trip(self, klein, projective):
        for m in (klein, projective, remove_edge(klein, (1, 5))):
            obj = map_to_json_obj(m)
            assert sorted(obj) == ["B", "E", "W", "labels"]
            assert map_from_json_obj(obj) == m

    def test_label_mismatch_rejected(self):
        with pytest.raises(MapError):
            map_from_json_obj({"labels": [1, 2, 3],
                               "B": [[1, 2]], "W": [[1, 2]], "E": [[1, 2]]})

    PAIR = [[1, 2]]

    @pytest.mark.parametrize("obj", [
        [],
        "map",
        {"B": PAIR, "W": PAIR},
        {"B": PAIR, "W": {"1": 2}, "E": PAIR},
        {"B": PAIR, "W": PAIR, "E": [[1, 2, 3]]},
        {"B": PAIR, "W": PAIR, "E": [1, 2]},
        {"B": PAIR, "W": PAIR, "E": [[1, "2"]]},
        {"B": PAIR, "W": PAIR, "E": [[1, 2.0]]},
        {"B": [[True, 2]], "W": PAIR, "E": PAIR},
        {"B": PAIR, "W": [[1, 3]], "E": PAIR},
        {"B": PAIR, "W": PAIR, "E": PAIR, "labels": [1, True]},
        {"B": PAIR, "W": PAIR, "E": PAIR, "labels": "12"},
        {"B": PAIR, "W": PAIR, "E": PAIR, "labels": [1, None]},
    ])
    def test_malformed_rejected(self, obj):
        with pytest.raises(MapError):
            map_from_json_obj(obj)

    @pytest.mark.parametrize("root", [1, True, "1", None, [2]])
    def test_root_key_ignored(self, root):
        # older map files carry a "root" key, which the loader skips
        obj = {"B": self.PAIR, "W": self.PAIR, "E": self.PAIR}
        assert map_from_json_obj({**obj, "root": root}) == \
            map_from_json_obj(obj)


class TestCanonicalMatrixGuard:
    def test_nine_black_vertices_rejected(self):
        graph = BicoloredGraph(9, 1, tuple((b, 0) for b in range(9)))
        with pytest.raises(MapError, match="guard"):
            canonical_graph_class(graph)

    def test_eight_black_vertices_allowed(self):
        graph = BicoloredGraph(8, 2, tuple((b, b % 2) for b in range(8)))
        cls = canonical_graph_class(graph)
        assert cls.matrix == ((0, 1),) * 4 + ((1, 0),) * 4


# -- reference implementation over label dicts ----------------------------
# The map core works on index arrays; these are the label-level definitions
# it must agree with, written over the label dicts of ``partner_dict``.


def _ref_heal(mapping, a, b):
    pa, pb = mapping[a], mapping[b]
    out = {x: y for x, y in mapping.items()
           if x not in (a, b) and y not in (a, b)}
    if pa != b:
        out[pa] = pb
        out[pb] = pa
    return out


def _pairs(mapping):
    return [(x, y) for x, y in mapping.items() if x < y]


def ref_remove_edge(m, e):
    a, b = sorted(e)
    eps = {x: y for x, y in partner_dict(m.eps).items() if x not in (a, b)}
    return NonOrientedMap.from_pairs(
        _pairs(_ref_heal(partner_dict(m.beta), a, b)),
        _pairs(_ref_heal(partner_dict(m.omega), a, b)),
        _pairs(eps))


def ref_twist_many(m, edges):
    swap = {}
    for a, b in edges:
        swap[a], swap[b] = b, a
    omega = {swap.get(x, x): swap.get(y, y)
             for x, y in partner_dict(m.omega).items()}
    return NonOrientedMap.from_pairs(m.beta, _pairs(omega), m.eps)


def _ref_trace(invs, start):
    pos = {start: 0}
    order = [start]
    for x in order:
        for y in (p[x] for p in invs):
            if y not in pos:
                pos[y] = len(order)
                order.append(y)
    return tuple(pos[p[x]] for x in order for p in invs)


def ref_canonical_form(m):
    invs = [partner_dict(v) for v in (m.beta, m.omega, m.eps)]
    seen, comps = set(), []
    for s in m.labels:
        if s not in seen:
            comp = [s]
            seen.add(s)
            for x in comp:
                for y in (p[x] for p in invs):
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
            comps.append(comp)
    traces = sorted(min(_ref_trace(invs, s) for s in comp) for comp in comps)
    if len(m.labels) > 256:
        return b"".join(array("I", t).tobytes() for t in traces)
    return b"".join(bytes(t) for t in traces)


class TestArrayCoreMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(map_strategy(1, 4), st.data())
    def test_operations(self, m, data):
        for a, b in m.edges():
            assert remove_edge(m, (b, a)) == ref_remove_edge(m, (a, b))
        subset = data.draw(st.lists(st.sampled_from(m.edges()), unique=True))
        expected = ref_twist_many(m, subset)
        assert twist_many(m, subset) == expected
        sides = [_edge_index(m, e) for e in subset]
        assert _twist_sides(m, sides) == expected
        assert canonical_form(m) == ref_canonical_form(m)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_canonical_form_every_small_map(self, n):
        # the cut-off trace stops at the first larger triple: it must pick
        # the same minimum as the full traces
        for m in all_maps(n):
            assert canonical_form(m) == ref_canonical_form(m)

    def test_canonical_form_one_face_n4(self):
        for m in conservative_one_face(4):
            assert canonical_form(m) == ref_canonical_form(m)

    def test_connected_form_is_the_least_rooted_trace(self):
        connected, disconnected = set(), set()
        for n in (1, 2, 3):
            for m in all_maps(n):
                form = canonical_form(m)
                if m._component_data[1] > 1:
                    disconnected.add(form)
                else:
                    b, w, e = m._b, m._w, m._e
                    assert form == min(bytes(_component_trace(b, w, e, s))
                                       for s in range(len(b)))
                    connected.add(form)
        assert connected and disconnected
        assert not connected & disconnected

    def test_views_round_trip(self, projective):
        for e in projective.edges():
            for m in (remove_edge(projective, e), twist_many(projective, [e])):
                rebuilt = NonOrientedMap.from_pairs(m.beta, m.omega, m.eps)
                assert rebuilt == m and hash(rebuilt) == hash(m)
                assert m.edges() == m.eps
