import importlib
import random
from functools import reduce
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monmap.bijection import (_FAMILY, BijectionResult, DichotomyError,
                              NotInDomainError, _orientable, _settle,
                              _top_degree, phi, phi_inverse)
from monmap.enumeration import (all_maps, conservative_one_face,
                                maps_by_face_type)
from monmap.maps import (MapError, NonOrientedMap, _edge_index,
                         _twist_sides, bicolored_graph, graph_class,
                         is_orientable, remove_edge, twist_many)
from monmap.mon import (_check_history, _states, clear_caches,
                        history_weight, is_top_degree_map,
                        is_top_degree_pair, lemma_equivalence_check)
from monmap.oriented import OrientedMap, side_label
from monmap.verify import _round_trips

from conftest import edge_role, forget_results, map_strategy

SINGLE_EDGE = NonOrientedMap.from_pairs([[1, 2]], [[1, 2]], [[1, 2]])
TORUS = OrientedMap.from_cycles(
    9, [[1, 4, 9, 5, 7], [2, 6], [3, 8]], [[1, 9], [2, 3, 5], [4, 7], [6, 8]])


class TestPhi:
    def test_single_edge_identity(self):
        res = phi(SINGLE_EDGE, [(1, 2)])
        assert res.map == SINGLE_EDGE
        assert res.twists == ()

    def test_klein(self, klein):
        h = [(1, 5), (2, 4), (3, 6)]
        res = phi(klein, h)
        assert is_orientable(res.map)
        assert graph_class(res.map) == graph_class(klein)
        assert bicolored_graph(res.map) == bicolored_graph(klein)
        assert res.map == twist_many(klein, res.twists)
        back = phi_inverse(res.map, h)
        assert back.map == klein and back.twists == res.twists

    def test_rejects_non_top_degree(self, klein):
        with pytest.raises(NotInDomainError) as err:
            phi(klein, [(3, 6), (1, 5), (2, 4)])
        assert "prefix 1" in str(err.value)

    def test_orientable_inputs_stay_orientable(self):
        for m in all_maps(2):
            if not is_orientable(m):
                continue
            for h in permutations(m.eps):
                if is_top_degree_pair(m, h):
                    assert is_orientable(phi(m, h).map)


class TestPhiInverse:
    def test_single_edge(self):
        res = phi_inverse(SINGLE_EDGE, [(1, 2)])
        assert res.map == SINGLE_EDGE

    def test_rejects_non_orientable(self, klein):
        with pytest.raises(NotInDomainError):
            phi_inverse(klein, [(1, 5), (2, 4), (3, 6)])

    def test_side_labeled_torus_lands_in_top_degree(self):
        from monmap.maps import structure

        nm = side_label(TORUS)
        h = list(nm.eps)
        res = phi_inverse(nm, h)
        assert is_top_degree_pair(res.map, h)
        assert graph_class(res.map) == graph_class(nm)
        assert bicolored_graph(res.map) == bicolored_graph(nm)
        # connected input, so the top-degree image has exactly one face
        assert structure(res.map).faces == 1
        again = phi(res.map, h)
        assert again.map == nm


class TestPastTheExhaustiveFrontier:
    def test_random_side_labelled_maps_round_trip(self):
        # random permutation pairs at n = 6, 8 and 10, each side-labelled
        # and given a shuffled history of its edges
        rng = random.Random(0)
        draws = 0
        for n, count in ((6, 300), (8, 200), (10, 100)):
            for _ in range(count):
                if draws % 50 == 0:
                    clear_caches()
                draws += 1
                sigma1, sigma2 = list(range(n)), list(range(n))
                rng.shuffle(sigma1)
                rng.shuffle(sigma2)
                nm = side_label(OrientedMap(sigma1, sigma2))
                h = list(nm.eps)
                rng.shuffle(h)
                res = phi_inverse(nm, h)
                assert is_top_degree_pair(res.map, h)
                assert bicolored_graph(res.map) == bicolored_graph(nm)
                again = phi(res.map, h)
                assert again.map == nm
                assert again.twists == res.twists
        assert draws == 600


class TestExhaustiveSmall:
    def test_round_trip_n2(self):
        pairs = 0
        orientable_histories = 0
        for m in all_maps(2):
            orientable = is_orientable(m)
            for h in permutations(m.eps):
                if is_top_degree_pair(m, h):
                    pairs += 1
                    res = phi(m, h)
                    assert is_orientable(res.map)
                    assert graph_class(res.map) == graph_class(m)
                    assert bicolored_graph(res.map) == bicolored_graph(m)
                    back = phi_inverse(res.map, h)
                    assert back.map == m and back.twists == res.twists
                if orientable:
                    orientable_histories += 1
                    res = phi_inverse(m, h)
                    assert is_top_degree_pair(res.map, h)
                    assert phi(res.map, h).map == m
        # cardinality transport at n = 2
        assert pairs == orientable_histories

    def test_twists_subset_of_edges(self):
        for m in all_maps(2):
            for h in permutations(m.eps):
                if is_top_degree_pair(m, h):
                    res = phi(m, h)
                    assert set(res.twists) <= set(m.eps)


class TestSampledN4:
    def test_random_maps_round_trip(self):
        import random

        rng = random.Random(2024)
        labels = list(range(1, 9))

        def rand_pairing():
            labs = labels[:]
            rng.shuffle(labs)
            return [(labs[i], labs[i + 1]) for i in range(0, 8, 2)]

        forward = backward = 0
        while forward < 60 or backward < 60:
            m = NonOrientedMap.from_pairs(rand_pairing(), rand_pairing(),
                                          rand_pairing())
            h = list(m.eps)
            rng.shuffle(h)
            if forward < 60 and is_top_degree_pair(m, h):
                res = phi(m, h)
                assert is_orientable(res.map)
                assert graph_class(res.map) == graph_class(m)
                assert bicolored_graph(res.map) == bicolored_graph(m)
                assert phi_inverse(res.map, h).map == m
                forward += 1
            if backward < 60 and is_orientable(m):
                res = phi_inverse(m, h)
                assert is_top_degree_pair(res.map, h)
                assert phi(res.map, h).map == m
                backward += 1

    def test_one_face_transport(self):
        from monmap.maps import structure
        from monmap.enumeration import conservative_one_face

        for m in list(conservative_one_face(3))[:6]:
            h = list(m.eps)
            if not is_top_degree_pair(m, h):
                continue
            out = phi(m, h).map
            assert structure(out).components == 1


def _subsets(items):
    return [c for k in range(len(items) + 1) for c in combinations(items, k)]


def _residuals(m):
    """m with each subset of its edges removed."""
    return [reduce(remove_edge, removed, m) for removed in _subsets(m.eps)]


class TestTwistInvariance:
    """``_top_degree`` reads the components of the map it twists: a twist
    must keep them, and the vertex partitions too."""

    def test_twist_keeps_components_and_vertices(self):
        maps = [*all_maps(1), *all_maps(2)]
        for m in conservative_one_face(4):
            maps += _residuals(m)
        twists = 0
        for m in maps:
            for subset in _subsets(m.eps):
                twisted = _twist_sides(m, [_edge_index(m, e) for e in subset])
                ids, count, _ = twisted._component_data
                assert (ids, count) == m._component_data[:2]
                assert twisted._vertex_data == m._vertex_data
                assert (_top_degree(twisted, m)
                        == is_top_degree_map(twisted))
                twists += 1
        assert twists > len(maps)


class TestResultShape:
    def test_history_preserved(self, klein):
        h = [(2, 4), (1, 5), (3, 6)]
        res = phi(klein, h)
        assert isinstance(res, BijectionResult)
        assert res.history == tuple(tuple(e) for e in h)


def ref_settle(m, history, target):
    """The induction at the label level: residual maps by remove_edge, the
    candidate by twist_many of the twist set and the role by edge_role, at
    every level."""
    edges = [tuple(sorted(e)) for e in history]
    states = [m]
    for e in edges:
        states.append(remove_edge(states[-1], e))
    out, twists = states[-1], ()
    for k in range(len(edges) - 1, -1, -1):
        e = edges[k]
        candidate = twist_many(states[k], twists)
        role = edge_role(states[k], e)
        if role.is_bridge or role.is_leaf:
            if not target(candidate):
                raise DichotomyError(
                    f"bridge/leaf case failed target at edge {e}; "
                    f"trace={edges[:k + 1]}")
            out = candidate
            continue
        twisted = twist_many(candidate, [e])
        ok_plain, ok_twisted = target(candidate), target(twisted)
        if ok_plain == ok_twisted:
            raise DichotomyError(
                f"dichotomy violated at edge {e} (plain={ok_plain}, "
                f"twisted={ok_twisted}); trace={edges[:k + 1]}")
        if ok_plain:
            out = candidate
        else:
            out, twists = twisted, twists + (e,)
    return out, twists


def outcome(settle, *args):
    """(map, twists), or the text of the DichotomyError raised."""
    try:
        return settle(*args)
    except DichotomyError as err:
        return str(err)


class TestMatchesLabelLevelReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_pair(self, n):
        forward = backward = 0
        for m in all_maps(n):
            orientable = is_orientable(m)
            for h in permutations(m.eps):
                if is_top_degree_pair(m, h):
                    res = phi(m, h)
                    assert ((res.map, res.twists)
                            == ref_settle(m, h, is_orientable))
                    forward += 1
                if orientable:
                    res = phi_inverse(m, h)
                    assert ((res.map, res.twists)
                            == ref_settle(m, h, is_top_degree_map))
                    backward += 1
        assert forward == backward > 0

    @settings(max_examples=150, deadline=None)
    @given(map_strategy(2, 5), st.data())
    def test_rooted_maps_with_label_gaps(self, m, data):
        m = remove_edge(m, data.draw(st.sampled_from(m.eps)))
        h = data.draw(st.permutations(m.eps))
        edges = _check_history(m, h)
        # outside the domains too, both make the same choices and fail alike
        for target, ref_target in ((_orientable, is_orientable),
                                   (_top_degree, is_top_degree_map)):
            assert (outcome(_settle, _states(m, edges), edges, target)
                    == outcome(ref_settle, m, h, ref_target))
        if is_top_degree_pair(m, h):
            res = phi(m, h)
            assert (res.map, res.twists) == ref_settle(m, h, is_orientable)
            m = res.map
        if is_orientable(m):
            res = phi_inverse(m, h)
            assert ((res.map, res.twists)
                    == ref_settle(m, h, is_top_degree_map))


class TestDichotomyErrors:
    H = [(1, 5), (2, 4), (3, 6)]

    @pytest.mark.parametrize("verdict,text", [
        (False, "bridge/leaf case failed target at edge (3, 6); "
                "trace=[(1, 5), (2, 4), (3, 6)]"),
        (True, "dichotomy violated at edge (2, 4) (plain=True, "
               "twisted=True); trace=[(1, 5), (2, 4)]"),
    ], ids=["bridge-leaf", "dichotomy"])
    def test_texts(self, klein, monkeypatch, verdict, text):
        bijection = importlib.import_module("monmap.bijection")
        orientable = phi(klein, self.H).map

        def target(m):
            return verdict

        def hook(candidate, state):
            return verdict

        with pytest.raises(DichotomyError) as ref:
            ref_settle(klein, self.H, target)
        assert str(ref.value) == text
        monkeypatch.setattr(bijection, "_orientable", hook)
        forget_results()  # or phi answers from its result table
        with pytest.raises(DichotomyError) as err:
            phi(klein, self.H)
        assert str(err.value) == text
        monkeypatch.undo()
        monkeypatch.setattr(bijection, "_top_degree", hook)
        forget_results()
        with pytest.raises(DichotomyError) as err:
            phi_inverse(orientable, self.H)
        assert str(err.value) == outcome(ref_settle, orientable, self.H,
                                         target)


def _relabel_pairs(sigma, pairs):
    return tuple(tuple(sorted((sigma[a], sigma[b]))) for a, b in pairs)


def _relabel(sigma, m):
    return NonOrientedMap.from_pairs(
        *(_relabel_pairs(sigma, v) for v in (m.beta, m.omega, m.eps)))


def _verdicts(m, h):
    """What phi, phi_inverse, ``lemma_equivalence_check`` and
    ``history_weight`` say of (m, h); a bijection outside its domain
    says None."""
    out = []
    for there in (phi, phi_inverse):
        try:
            res = there(m, h)
        except NotInDomainError:
            res = None
        out.append(res)
    return (*out, lemma_equivalence_check(m, h), history_weight(m, h))


class TestRelabelling:
    """A map's labels are its only decoration: relabelling the map and the
    history by sigma relabels what the bijections return, phi(sigma M,
    sigma h) = sigma phi(M, h), and leaves the verdicts and weights as
    they were."""

    @staticmethod
    def check(sigma, m, h):
        res_phi, res_inv, report, weight = _verdicts(m, h)
        image = _verdicts(_relabel(sigma, m), _relabel_pairs(sigma, h))
        for res, res_image in zip((res_phi, res_inv), image):
            if res is None:
                assert res_image is None
            else:
                assert res_image == BijectionResult(
                    _relabel(sigma, res.map),
                    _relabel_pairs(sigma, res.history),
                    _relabel_pairs(sigma, res.twists))
        assert image[2:] == (report, weight)
        return res_phi is not None, res_inv is not None

    def test_every_pair_on_two_edges(self):
        sigma = {1: 7, 2: -3, 3: 12, 4: 5}  # neither monotone nor onto 1..4
        seen = set()
        for m in all_maps(2):
            for h in permutations(m.eps):
                seen.add(self.check(sigma, m, h))
        assert seen == {(True, True), (True, False), (False, True)}

    def test_face_type_representatives_on_three_edges(self):
        rng = random.Random(3)
        seen = set()
        for m, _ in maps_by_face_type(3):
            sigma = dict(zip(m.labels, rng.sample(range(-9, 30), m.n * 2)))
            for h in permutations(m.eps):
                seen.add(self.check(sigma, m, h))
        assert len(seen) == 4


class TestLevelZeroTwists:
    """The level-0 candidates of ``_settle`` and the maps that
    ``_round_trips`` reads go through one table of the level-0 maps of one
    twist family (``bijection._level0``): one object per value."""

    def test_warm_and_cold_maps_agree(self):
        # the table decides which object an output is, never its value
        maps = [*all_maps(2), *(m for m, _ in maps_by_face_type(3)),
                *conservative_one_face(4)]
        for m in maps:
            _round_trips([m], inverse=True)  # walks every history of m
            orientable = is_orientable(m)
            for h in permutations(m.eps):
                if is_top_degree_pair(m, h):
                    cold = NonOrientedMap.from_arrays(*m._key())
                    assert phi(m, h) == phi(cold, h)
                if orientable:
                    cold = NonOrientedMap.from_arrays(*m._key())
                    assert phi_inverse(m, h) == phi_inverse(cold, h)
        # one (beta, eps) run of the stream: after its round trips, the
        # table holds one object per map of the run, the one _round_trips
        # read, and every phi and phi_inverse output is that object
        stream = list(all_maps(2))
        first = stream[0]
        run = [m for m in stream if (m._b, m._e) == (first._b, first._e)]
        clear_caches()
        _round_trips(run, inverse=True)
        ((table, _),) = _FAMILY.values()
        assert sorted(table.values(), key=NonOrientedMap._key) == run
        outputs = 0
        for m in table.values():
            for h in permutations(m.eps):
                for there in (phi, phi_inverse):
                    try:
                        out = there(m, h).map
                    except NotInDomainError:
                        continue
                    assert out is table[out._w]
                    outputs += 1
        assert outputs and len(table) == len(run)


class TestResultTable:
    """``phi`` and ``phi_inverse`` keep their results in the entry of the
    input's twist family (``bijection._family``), next to its level-0
    maps."""

    H = ((1, 5), (2, 4), (3, 6))

    def test_stored_results_are_the_cold_values(self):
        for stream in (all_maps(2), conservative_one_face(3)):
            clear_caches()
            warm = {}
            for m in stream:
                # settles every pair of m and the back trips of its twists,
                # so many of the calls below are answered from the table
                _round_trips([m], inverse=True)
                for h in permutations(m.eps):
                    for there in (phi, phi_inverse):
                        try:
                            res = there(m, h)
                        except NotInDomainError:
                            continue
                        assert there(m, h) is res
                        warm[there, m, h] = res
            assert warm
            for (there, m, h), res in warm.items():
                clear_caches()
                assert there(NonOrientedMap.from_arrays(*m._key()), h) == res

    def test_table_holds_one_family(self, klein):
        clear_caches()
        res = phi(klein, self.H)
        ((maps, results),) = _FAMILY.values()
        assert maps[klein._w] is klein
        assert results == {(klein._w, self.H, True): res}
        # a map of another family drops klein's maps and results together
        other = next(iter(all_maps(1)))
        phi(other, other.eps)
        ((maps, results),) = _FAMILY.values()
        assert maps[other._w] is other
        assert all(m.labels == other.labels for m in maps.values())
        assert all(stored.map.labels == other.labels
                   for stored in results.values())
        again = phi(klein, self.H)
        assert again == res and again is not res
        clear_caches()
        assert not _FAMILY
        assert phi(klein, self.H) is not again

    def test_checks_run_on_a_hit(self, klein):
        # a pair in one domain only is refused by the other direction
        # after the first one stored its result
        plane = next(m for m in all_maps(2)
                     if is_orientable(m) and not is_top_degree_map(m))
        clear_caches()
        for m, h, there, back in ((plane, plane.edges(), phi_inverse, phi),
                                  (klein, self.H, phi, phi_inverse)):
            there(m, h)
            for _ in range(2):
                with pytest.raises(NotInDomainError):
                    back(m, h)
        # the history is validated before the lookup: True == 1 and
        # hashes as 1, so the bool history's key is the stored pair's
        (a, b), *rest = self.H
        non_edge = next((a, c) for c in klein.labels
                        if c != a and (a, c) not in klein.eps)
        bad = [[non_edge, *rest], [self.H[0], *self.H[:2]],
               [(True, b), *rest]]
        assert [(True, b), *rest] == list(self.H)
        out = phi(klein, self.H).map
        phi_inverse(out, self.H)
        for there, m in ((phi, klein), (phi_inverse, out)):
            for h in bad:
                with pytest.raises(MapError):
                    there(m, h)
