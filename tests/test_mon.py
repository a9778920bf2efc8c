import importlib
import math
import random
import sys
from fractions import Fraction
from importlib.util import module_from_spec, spec_from_file_location
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monmap import kernels
from monmap.algebra import GAMMA, ONE, GammaPoly
from monmap.bijection import (_FAMILY, NotInDomainError, _level0, phi,
                              phi_inverse)
from monmap.enumeration import (all_maps, conservative_one_face,
                                involutions, one_face_orbits)
from monmap.maps import (EdgeKind, MapError, NonOrientedMap, _bridge_or_leaf,
                         _COMPONENT_FORMS, _component_trace, _edge_index,
                         ClassMemo, canonical_form, classify_edge,
                         load_fixture, remove_edge, structure, twist_many)
from monmap.mon import (_MON_CACHE, _STATES, _failing_prefix, _mon_pair,
                        _states, clear_caches, history_weight,
                        is_top_degree_map, is_top_degree_pair,
                        lemma_equivalence_check, mon, mon_top,
                        mon_top_degree_target, mon_top_detail)
from monmap.verify import (_round_trips, suite_key_bijection,
                           suite_lemma_equivalence)

from conftest import edge_role, forget_results, map_strategy
from test_maps import ref_canonical_form

F = Fraction
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

WEIGHTS = {EdgeKind.STRAIGHT: ONE, EdgeKind.TWISTED: GAMMA,
           EdgeKind.INTERFACE: GammaPoly((F(1, 2),))}


def edge_weight(m, e):
    """The weight of edge e in m: 1, gamma or 1/2 by its kind."""
    return WEIGHTS[classify_edge(m, e)]


SINGLE_EDGE = NonOrientedMap.from_pairs([[1, 2]], [[1, 2]], [[1, 2]])
TWO_LOOPS = NonOrientedMap.from_pairs(
    [[1, 2], [3, 4]], [[1, 2], [3, 4]], [[1, 2], [3, 4]])


class TestEdgeWeight:
    def test_klein_weights(self, klein):
        assert edge_weight(klein, (3, 6)) == ONE
        assert edge_weight(klein, (1, 5)) == GAMMA

    def test_interface_weight(self, projective):
        assert edge_weight(projective, (6, 13)) == GammaPoly((F(1, 2),))

    def test_missing_edge(self, klein):
        with pytest.raises(MapError):
            edge_weight(klein, (1, 2))


class TestHistoryWeight:
    def test_klein_straight_first(self, klein):
        w = history_weight(klein, [(3, 6), (1, 5), (2, 4)])
        assert w == GammaPoly((F(1, 2),))

    def test_klein_twisted_first(self, klein):
        w = history_weight(klein, [(1, 5), (2, 4), (3, 6)])
        assert w == GAMMA * GAMMA

    def test_single_edge(self):
        assert history_weight(SINGLE_EDGE, [(1, 2)]) == ONE

    def test_invalid_history(self, klein):
        with pytest.raises(MapError):
            history_weight(klein, [(1, 5), (2, 4)])
        with pytest.raises(MapError):
            history_weight(klein, [(1, 5), (1, 5), (2, 4)])

    @pytest.mark.parametrize("history", [
        [1, 2, 3],                   # entries that are not pairs
        [(1, 5, 0), (2, 4), (3, 6)],
        [(1.0, 5), (2, 4), (3, 6)],  # labels that are not integers
        [(3.0, 6), (1, 5), (2, 4)],
        [(True, 5), (2, 4), (3, 6)],
    ])
    def test_malformed_entries(self, klein, history):
        with pytest.raises(MapError):
            history_weight(klein, history)


def ref_history_weight(m, history):
    """Product of edge weights along the history, one removal at a time."""
    out = ONE
    for e in history:
        out = out * edge_weight(m, e)
        m = remove_edge(m, e)
    return out


class TestHistoryWeightReference:
    def test_all_maps_n2(self):
        for m in all_maps(2):
            for h in permutations(m.edges()):
                assert history_weight(m, h) == ref_history_weight(m, h)

    @settings(max_examples=40, deadline=None)
    @given(map_strategy(1, 4))
    def test_random_maps(self, m):
        for h in permutations(m.edges()):
            assert history_weight(m, h) == ref_history_weight(m, h)


class TestHistoryStates:
    @settings(max_examples=150, deadline=None)
    @given(map_strategy(1, 4), st.data())
    def test_states_match_sequential_removal(self, m, data):
        # a first history leaves its removals on the maps ...
        _states(m, data.draw(st.permutations(m.edges())))
        # ... which a second history, in another order, must find equal to
        # the maps it reaches by removing edges one at a time
        order = data.draw(st.permutations(m.edges()))
        subset = tuple(order[:data.draw(st.integers(0, m.n))])
        states = _states(m, subset)
        assert len(states) == len(subset) + 1
        current = m
        for k, e in enumerate(subset):
            assert states[k] == current
            role = edge_role(states[k], e)
            assert (_bridge_or_leaf(states[k], states[k + 1],
                                    *_edge_index(states[k], e))
                    == (role.is_bridge or role.is_leaf))
            current = remove_edge(current, e)
        assert states[-1] == current

    def test_histories_share_prefix_states(self, klein):
        a, b, c = klein.edges()
        first = _states(klein, (a, b, c))
        second = _states(klein, (a, c, b))
        assert first[0] is second[0] is klein
        assert first[1] is second[1]
        assert first[2] is not second[2]
        again = _states(klein, (a, b, c))
        assert all(x is y for x, y in zip(again, first))

    @pytest.mark.parametrize("check", [
        history_weight, is_top_degree_pair, lemma_equivalence_check, phi])
    def test_non_edge_entry_is_named(self, klein, check):
        with pytest.raises(MapError,
                           match=r"^\{3,7\} is not an edge of the map$"):
            check(klein, [(1, 5), (2, 4), (7, 3)])

    def test_equal_residuals_of_different_maps_are_one_state(self):
        # fresh maps from a cleared table: a map built before a clear keeps
        # removals that are no longer the table's objects
        klein = load_fixture("klein")
        clear_caches()
        e = (1, 5)
        other = twist_many(klein, [e])
        assert other != klein
        mine, theirs = _states(klein, (e,)), _states(other, (e,))
        assert mine[1] is theirs[1]
        # the removals taken from it serve both maps
        f = mine[1].edges()[0]
        assert _states(klein, (e, f))[2] is _states(other, (e, f))[2]

    def test_clear_caches_empties_the_state_table(self, klein):
        _states(klein, klein.edges())
        assert _STATES
        clear_caches()
        assert not _STATES

    def test_clear_caches_empties_the_family_table(self, klein):
        _round_trips([klein], inverse=True)
        assert _FAMILY
        clear_caches()
        assert not _FAMILY

    def test_family_table_never_changes_a_value(self):
        # every map of all_maps(2): in the order beta, omega, eps, where the
        # family (labels, beta, eps) changes at every step; in the stream's
        # order; and each map followed by all its twists, some of which
        # equal it or a later map of the stream
        labels = (1, 2, 3, 4)
        pairings = list(involutions(labels))
        by_omega_first = [NonOrientedMap.from_arrays(labels, b, w, e)
                          for b in pairings for w in pairings
                          for e in pairings]
        stream = list(all_maps(2))
        with_twists = [x for m in stream for x in (m, *(
            twist_many(m, edges)
            for k in (1, 2) for edges in combinations(m.eps, k)))]
        clear_caches()
        for maps in (by_omega_first, stream, with_twists):
            run, seen = None, {}
            for m in maps:
                out = _level0(m)
                assert out == m
                family = m.labels, m._b, m._e
                if family != run:
                    run, seen = family, {}
                # the first map of a value in a run is kept; a repeat is
                # given that same object
                assert seen.setdefault(m._w, m) is out
            assert len(_FAMILY) == 1

    def test_state_table_holds_the_distinct_proper_residuals(self):
        # at n = 3: 15 eps pairs to remove times 3^3 maps on the other four
        # labels, 15 single-edge maps and the empty map
        clear_caches()
        suite_lemma_equivalence(3)
        assert len(_STATES) == 15 * 27 + 15 + 1

    def test_state_table_interns_no_inputs_or_candidates(self):
        # a fresh map: phi's twists and their removals are kept on it
        klein = load_fixture("klein")
        clear_caches()
        history = klein.edges()
        out = phi(klein, history).map
        phi_inverse(out, history)
        lemma_equivalence_check(klein, history)
        assert _STATES
        assert all(state.n < klein.n for state in _STATES.values())
        assert klein._key() not in _STATES

    @staticmethod
    def _spy_targets(monkeypatch):
        """The (candidate, state) pairs that ``_settle``'s targets see."""
        bijection = importlib.import_module("monmap.bijection")
        seen = []
        for name in ("_orientable", "_top_degree"):
            def spy(candidate, state, target=getattr(bijection, name)):
                seen.append((candidate, state))
                return target(candidate, state)
            monkeypatch.setattr(bijection, name, spy)
        return seen

    def test_settle_reads_the_state_table_and_never_adds(self, monkeypatch):
        clear_caches()
        suite_lemma_equivalence()
        size = len(_STATES)
        # the level-1 candidates of an n = 3 pair are the table's objects
        seen = self._spy_targets(monkeypatch)
        klein = load_fixture("klein")  # no removals cached on it
        history = [(1, 5), (2, 4), (3, 6)]
        phi_inverse(phi(klein, history).map, history)
        level_one = [(c, s) for c, s in seen if c.n == 2]
        assert any(c is not s for c, s in level_one)
        assert all(_STATES[c._key()] is c for c, _ in level_one)
        monkeypatch.undo()
        # every map on two edges of labels 1..4 is a residual in the
        # table, the twisted outputs too; the outputs stay fresh maps
        found = 0
        for m in all_maps(2):
            for h in permutations(m.edges()):
                for there in (phi, phi_inverse):
                    try:
                        out = there(m, h).map
                    except NotInDomainError:
                        continue
                    assert _STATES.get(out._key()) is not out
                    found += out is not m and out._key() in _STATES
        assert found
        assert len(_STATES) == size
        suite_key_bijection()
        assert len(_STATES) == 1534

    def test_twisted_plain_candidates_are_looked_up(self, monkeypatch):
        # phi twists the third edge, so the plain candidate at level 1
        # already carries a twist
        m = list(conservative_one_face(4))[1]
        history = m.edges()
        clear_caches()
        res = phi(m, history)
        assert res.twists == (history[2],)
        _states(res.map, history)  # interns the residuals phi settles on
        seen = self._spy_targets(monkeypatch)
        forget_results()  # settle again, with _STATES warm
        assert phi(m, history) == res
        found = [(c, s) for c, s in seen
                 if c.n < m.n and c._key() in _STATES]
        assert all(_STATES[c._key()] is c for c, _ in found)
        # level 2 picks its twisted candidate, level 1 its plain one
        assert [c.n for c, s in found if c is not s] == [2, 3]

    def test_level_zero_twists_stay_on_the_input_map(self):
        # the family table holds the input map and at most one twist per
        # twist set; the state table's size after both suites is pinned above
        for m in (load_fixture("klein"), list(conservative_one_face(4))[1]):
            clear_caches()
            _round_trips([m], inverse=True)  # walks every history of m
            ((table, _),) = _FAMILY.values()
            assert table[m._w] is m
            outputs = {}  # equal twist sets give one output object
            for h in permutations(m.eps):
                if is_top_degree_pair(m, h):
                    res = phi(m, h)
                    assert outputs.setdefault(frozenset(res.twists),
                                              res.map) is res.map
                    assert table[res.map._w] is res.map
            assert 1 < len(table) <= 2 ** m.n + 1
            twists = {twist_many(m, edges) for k in range(m.n + 1)
                      for edges in combinations(m.eps, k)}
            for w, twisted in table.items():
                assert twisted._w is w and twisted in twists
                # a twist changes omega alone
                assert twisted.labels is m.labels
                assert twisted._b is m._b and twisted._e is m._e
                assert _STATES.get(twisted._key()) is None

    def test_history_weight_leaves_no_states(self):
        m = load_fixture("klein")
        history_weight(m, m.edges())
        assert "_removed" not in vars(m)
        lemma_equivalence_check(m, m.edges())
        assert "_removed" in vars(m)


def walk_counts(m, history):
    """(twisted, interface) counts of the in-place removal walk."""
    return kernels.removal_counts(
        m._b, m._w, [_edge_index(m, e) for e in history])


def state_counts(m, history):
    """(twisted, interface) counts of the kinds in the residual maps along
    a history."""
    kinds = [classify_edge(state, e)
             for state, e in zip(_states(m, history), history)]
    return kinds.count(EdgeKind.TWISTED), kinds.count(EdgeKind.INTERFACE)


class TestRemovalWalkAgainstLattice:
    """The walk of ``history_weight`` against the residual maps along each
    history (``mon._states``)."""

    def test_all_maps_up_to_two_edges(self):
        for n in (1, 2):
            for m in all_maps(n):
                for h in permutations(m.edges()):
                    assert walk_counts(m, h) == state_counts(m, h)

    @settings(max_examples=100, deadline=None)
    @given(map_strategy(1, 4), st.data())
    def test_rooted_and_residual_maps(self, m, data):
        # the residual map has labels with gaps, as every prefix state does
        residual = remove_edge(m, data.draw(st.sampled_from(m.edges())))
        for current in (m, residual):
            for h in permutations(current.edges()):
                assert walk_counts(current, h) == state_counts(current, h)


class TestMon:
    def test_klein(self, klein):
        assert mon(klein) == GammaPoly((F(1, 6), 0, F(2, 3)))

    def test_single_edge(self):
        assert mon(SINGLE_EDGE) == ONE

    def test_two_disjoint_edges(self):
        # oracle: both histories explicitly
        histories = list(permutations(TWO_LOOPS.eps))
        total = GammaPoly()
        for h in histories:
            total = total + history_weight(TWO_LOOPS, h)
        assert total.scale(F(1, 2)) == ONE
        assert mon(TWO_LOOPS) == ONE

    def test_clear_caches_empties_the_class_memo(self, klein):
        mon(klein)
        assert len(_MON_CACHE) > 0 and _MON_CACHE._values
        clear_caches()
        assert len(_MON_CACHE) == 0
        assert _MON_CACHE._values == {}

    def test_empty_map(self):
        empty = NonOrientedMap.from_pairs([], [], [])
        assert mon(empty) == ONE
        assert mon_top(empty) == 1

    @settings(max_examples=25, deadline=None)
    @given(map_strategy(max_n=3))
    def test_recursion_matches_history_enumeration(self, m):
        total = GammaPoly()
        count = 0
        for h in permutations(m.eps):
            total = total + history_weight(m, h)
            count += 1
        assert mon(m) == total.scale(F(1, count))


class TestTopDegree:
    def test_klein_is_top_degree_map(self, klein):
        assert is_top_degree_map(klein)

    def test_klein_histories(self, klein):
        assert not is_top_degree_pair(klein, [(3, 6), (1, 5), (2, 4)])
        assert is_top_degree_pair(klein, [(1, 5), (2, 4), (3, 6)])
        assert is_top_degree_pair(klein, [(2, 4), (1, 5), (3, 6)])
        assert _failing_prefix(_states(klein, [(3, 6), (1, 5), (2, 4)])) == 1

    def test_mon_top_examples(self, klein):
        assert mon_top(klein) == F(2, 3)
        assert mon_top(SINGLE_EDGE) == 1

    @settings(max_examples=25, deadline=None)
    @given(map_strategy(max_n=3))
    def test_probability_matches_history_count(self, m):
        hits = total = 0
        for h in permutations(m.eps):
            total += 1
            hits += is_top_degree_pair(m, h)
        prob, coeff = mon_top_detail(m)
        assert prob == F(hits, total)
        assert coeff == prob
        assert 0 <= prob <= 1


def unshared_mon_top_detail(m):
    """mon_top_detail by two recursions with no memo and no shared
    residual maps."""
    def mon_ref(m):
        if m.n == 0:
            return ONE
        total = GammaPoly()
        for e in m.edges():
            total = total + edge_weight(m, e) * mon_ref(remove_edge(m, e))
        return total.scale(F(1, m.n))

    def top_ref(m):
        if m.n == 0:
            return F(1)
        if not is_top_degree_map(m):
            return F(0)
        return sum((top_ref(remove_edge(m, e)) for e in m.edges()),
                   F(0)) / m.n

    return top_ref(m), mon_ref(m).coefficient(mon_top_degree_target(m))


def fresh(maps):
    """New instances of the maps, with nothing cached on them."""
    return [NonOrientedMap.from_arrays(m.labels, m._b, m._w, m._e)
            for m in maps]


def rerooted(m, s):
    """m with positions 0 and s swapped: a map of the same class, whose
    trace from side 0 is m's trace from side s."""
    swap = list(range(len(m._b)))
    swap[0], swap[s] = s, 0
    arrays = [[swap[p[swap[i]]] for i in range(len(p))]
              for p in (m._b, m._w, m._e)]
    return NonOrientedMap.from_arrays(m.labels, *arrays)


def one_face_and_n2_families():
    return [list(conservative_one_face(n)) for n in range(1, 5)] + [
        list(all_maps(2))]


@pytest.fixture
def removals(monkeypatch):
    """(map, edge) of every remove_edge call the mon module makes; the
    maps are kept, so their ids stay distinct."""
    calls = []

    def spy(m, e):
        calls.append((m, e))
        return remove_edge(m, e)

    monkeypatch.setattr(importlib.import_module("monmap.mon"),
                        "remove_edge", spy)
    return calls


class TestSharedResiduals:
    """mon and mon_top's probability come from one recursion, which
    removes each edge of a map once."""

    def test_each_residual_is_removed_once(self, removals, klein,
                                           projective):
        for maps in one_face_and_n2_families() + [[klein], [projective]]:
            for m in fresh(maps):
                clear_caches()
                removals.clear()
                mon_top_detail(m)
                keys = [(id(parent), e) for parent, e in removals]
                assert len(keys) == len(set(keys))

    def test_detail_removes_as_many_as_mon_alone(self, removals, klein,
                                                 projective):
        # per map, each route on a new instance from cold caches
        def removed(route, m):
            clear_caches()
            removals.clear()
            route(fresh([m])[0])
            return len(removals)

        families = one_face_and_n2_families() + [
            list(conservative_one_face(5)), [klein], [projective]]
        for maps in families:
            for m in maps:
                assert removed(mon_top_detail, m) == removed(mon, m) > 0

    def test_matches_unshared_recursion(self, klein):
        clear_caches()
        for maps in one_face_and_n2_families() + [[klein]]:
            for m in maps:
                assert mon_top_detail(m) == unshared_mon_top_detail(m)


def fraction_counts(m):
    """(mon's coefficients, top-degree probability) by the recursion over
    Fractions, with its own edge weights and top-degree test.

    The residuals of m are shared by their labels, which name the edges
    left (a recursion over the subsets of m's edges, 2^n residuals where
    the plain recursion visits n! histories); nothing is shared between
    calls or looked up by canonical form.
    """
    seen = {}

    def rec(r):
        hit = seen.get(r.labels)
        if hit is not None:
            return hit
        if r.n == 0:
            return [F(1)], F(1)
        poly = [F(0)] * (r.n + 1)
        prob = F(0)
        for e in r.edges():
            child, child_prob = rec(remove_edge(r, e))
            kind = classify_edge(r, e)
            shift = 1 if kind is EdgeKind.TWISTED else 0  # times gamma
            half = kind is EdgeKind.INTERFACE
            for d, c in enumerate(child):
                if c:
                    poly[d + shift] += c / 2 if half else c
            prob += child_prob
        st = structure(r)
        value = seen[r.labels] = (
            [c / r.n for c in poly],
            prob / r.n if st.faces == st.components else F(0))
        return value

    return rec(m)


def disconnecting_map():
    """A connected map with n = 3, an edge of which is a bridge but not a
    leaf, so that removing it leaves a disconnected residual."""
    for m in all_maps(3):
        if structure(m).components != 1:
            continue
        for e in m.edges():
            if structure(remove_edge(m, e)).components > 1:
                return m, e
    raise AssertionError("no connected n = 3 map with a splitting edge")


def spy_traces(monkeypatch):
    """Spy on ``maps._component_trace``: the list it returns gets the
    start of each trace."""
    maps = importlib.import_module("monmap.maps")
    starts = []
    real = maps._component_trace
    monkeypatch.setattr(maps, "_component_trace", lambda b, w, e, start: (
        starts.append(start) or real(b, w, e, start)))
    return starts


def side0(m):
    """m's trace from side 0 as bytes (at most 256 sides)."""
    return bytes(_component_trace(m._b, m._w, m._e, 0))


def first_sides(m):
    """The first side of each of m's components, in order."""
    ids = m._component_data[0]
    return [ids.index(c) for c in range(m._component_data[1])]


class TestIntegerCounts:
    """``_mon_pair`` returns T = 2^n n! mon and K = n! times the top-degree
    probability, as integers, memoised by canonical form."""

    def test_against_fraction_recursion(self, klein, projective):
        clear_caches()
        maps = [m for n in range(1, 6) for m in conservative_one_face(n)]
        for m in maps + list(all_maps(2)) + [klein, projective]:
            t, k = _mon_pair(m)
            poly, prob = fraction_counts(m)
            scale = math.factorial(m.n)
            assert all(type(c) is int for c in t) and type(k) is int
            assert list(t) == [c * (scale << m.n) for c in poly]
            assert k == prob * scale

    def test_empty_map(self):
        assert _mon_pair(NonOrientedMap.from_arrays((), (), (), ())) == (
            (1,), 1)

    def test_disconnected_residual_goes_through_canonical_form(
            self, monkeypatch):
        # the memo holds one key per class computed, its canonical form,
        # and a map of a known class costs one BFS per component: the
        # trace from the component's first side finds its least trace in
        # the table of rooted traces
        module = importlib.import_module("monmap.mon")
        computed = []
        real = module._history_counts
        monkeypatch.setattr(module, "_history_counts",
                            lambda x: computed.append(x) or real(x))
        m, e = disconnecting_map()
        residual = remove_edge(m, e)
        assert residual._component_data[1] > 1
        clear_caches()
        mon(m)
        keys = dict(_MON_CACHE._values)
        assert canonical_form(residual) in keys
        assert len(keys) == len(computed) == len(_MON_CACHE)
        assert set(keys) == {canonical_form(x) for x in computed}
        table = dict(_COMPONENT_FORMS)
        forms = TestByClass.spy_forms(monkeypatch)
        traces = spy_traces(monkeypatch)
        fresh_residual, = fresh([residual])
        assert _mon_pair(fresh_residual) == keys[canonical_form(residual)]
        assert forms == [fresh_residual]
        assert traces == first_sides(residual) and len(traces) > 1
        assert _MON_CACHE._values == keys and _COMPONENT_FORMS == table
        # ... and so does a connected map, by its trace from side 0
        forms.clear()
        traces.clear()
        again, = fresh([m])
        _mon_pair(again)
        assert forms == [again] and traces == [0]
        assert _MON_CACHE._values == keys and _COMPONENT_FORMS == table

    def test_detail_does_not_depend_on_cache_state(self):
        maps = [m for n in range(1, 5) for m in conservative_one_face(n)]
        cold = []
        for m in fresh(maps):
            clear_caches()
            cold.append(mon_top_detail(m))
        clear_caches()
        for m in fresh(maps)[::-1]:
            mon_top_detail(m)
        assert [mon_top_detail(m) for m in fresh(maps)] == cold


class TestByClass:
    """``maps.ClassMemo`` computes once per isomorphism class and keys
    canonical forms alone.  The canonical form finds a component of a
    known class by its trace from its first side, one BFS, in the table
    of rooted traces (``maps._COMPONENT_FORMS``), which keys every rooting
    of a class the first time the class is met."""

    @staticmethod
    def counted():
        computed = []

        def compute(x):
            computed.append(x)
            return object()
        return computed, compute

    def test_once_per_class(self, monkeypatch):
        m, e = disconnecting_map()
        family = [x for n in (1, 2, 3) for x in all_maps(n)] + list(
            conservative_one_face(4)) + [m, remove_edge(m, e)]
        memo = ClassMemo()
        computed, compute = self.counted()
        for x in family:
            keys = set(memo._values)
            value = memo.get(x, compute)
            form = canonical_form(x)
            assert value is memo._values[form]
            assert set(memo._values) <= keys | {form}
        classes = {canonical_form(x) for x in family}
        assert any(x._component_data[1] > 1 for x in family)
        assert set(memo._values) == classes
        assert len(computed) == len(classes) == len(memo)

        # every component's trace from its first side is now a key: a map
        # of a known class costs one full trace per component, no search
        forms = self.spy_forms(monkeypatch)
        traces = spy_traces(monkeypatch)
        table = dict(_COMPONENT_FORMS)
        for x, again in zip(family, fresh(family)):
            keys = dict(memo._values)
            forms.clear()
            traces.clear()
            value = memo.get(again, compute)
            assert value is keys[canonical_form(x)]
            assert forms == [again]
            assert traces == first_sides(x)
            assert memo._values == keys
        assert _COMPONENT_FORMS == table
        assert len(computed) == len(classes) == len(memo)

    @staticmethod
    def spy_forms(monkeypatch):
        maps = importlib.import_module("monmap.maps")
        forms = []
        real = maps.canonical_form
        monkeypatch.setattr(maps, "canonical_form",
                            lambda x: forms.append(x) or real(x))
        return forms

    def test_first_sighting_registers_every_rooting(self, monkeypatch):
        # m's side-0 trace is not its least, and it has a rooting whose
        # trace is neither of the two
        m = next(x for x in all_maps(3) if x._component_data[1] == 1
                 and side0(x) != canonical_form(x)
                 and len({side0(rerooted(x, s)) for s in range(6)}) > 2)
        form = canonical_form(m)
        rootings = {side0(rerooted(m, t)) for t in range(6)}
        assert form in rootings  # a connected map's form is its least trace
        least = next(t for t in range(6) if side0(rerooted(m, t)) == form)
        s = next(s for s in range(1, 6)
                 if side0(rerooted(m, s)) not in (side0(m), form))
        for t in range(6):  # the trace from side t is a rerooting's
            assert side0(rerooted(m, t)) == bytes(
                _component_trace(m._b, m._w, m._e, t))
        clear_caches()  # an empty table of rooted traces
        traces = spy_traces(monkeypatch)
        memo = ClassMemo()
        computed, compute = self.counted()
        first, = fresh([m])
        value = memo.get(first, compute)
        # a new class: the trace from side 0 misses, then one trace from
        # every side keys every rooting to the least
        assert traces == [0, 0, 1, 2, 3, 4, 5]
        assert _COMPONENT_FORMS == dict.fromkeys(rootings, form)
        # the rooting at the least trace, a rooting that is neither, and
        # every other one: one trace each, and the table stays as it is
        for t in (least, s, *range(6)):
            traces.clear()
            assert memo.get(rerooted(m, t), compute) is value
            assert traces == [0]
            assert _COMPONENT_FORMS == dict.fromkeys(rootings, form)
        assert computed == [first] and len(memo) == 1

    def test_disconnected_map_registers_no_trace(self, monkeypatch):
        m, e = disconnecting_map()
        residual = remove_edge(m, e)
        assert residual._component_data[1] > 1
        forms = self.spy_forms(monkeypatch)
        memo = ClassMemo()
        value = memo.get(residual, lambda x: object())
        for s in range(len(residual._b)):
            again = rerooted(residual, s)
            forms.clear()
            assert memo.get(again, None) is value
            assert forms == [again]
        assert list(memo._values) == [canonical_form(residual)]
        assert len(memo) == 1

    def test_class_stream_traces_each_map_once(self, monkeypatch):
        # pairwise non-isomorphic connected maps on an empty table: each
        # is a new class, so its side-0 trace misses and one trace from
        # each side keys every rooting of the map to its form
        reps = [x for x, _ in one_face_orbits(5)]
        clear_caches()
        traces = spy_traces(monkeypatch)
        memo = ClassMemo()
        for x in fresh(reps):
            memo.get(x, lambda x: object())
        table = dict(_COMPONENT_FORMS)
        assert len(memo) == len(reps) == 137
        assert len(traces) == len(reps) * 11 == 1507
        assert traces == [0, *range(10)] * len(reps)
        assert set(memo._values) == {canonical_form(x) for x in reps}
        assert table == {bytes(_component_trace(x._b, x._w, x._e, s)):
                         canonical_form(x) for x in reps for s in range(10)}

    def test_one_key_space_is_sound(self):
        # the memo's values are the reference forms, and every rooted trace
        # of every connected map at n <= 3 becomes a key of the table of
        # rooted traces, which starts empty: a key that served two classes
        # would hand some map another class's form
        clear_caches()
        memo = ClassMemo()
        for n in (1, 2, 3):
            for m in all_maps(n):
                ref = ref_canonical_form(m)
                assert memo.get(m, ref_canonical_form) == ref
                if m._component_data[1] == 1:
                    for s in range(1, len(m._b)):
                        assert memo.get(rerooted(m, s),
                                        ref_canonical_form) == ref
        for n in range(1, 7):
            for m, _ in one_face_orbits(n):
                assert memo.get(m, ref_canonical_form) == ref_canonical_form(m)
        assert len(memo) == len(set(memo._values.values()))

    def test_mon_memo_len_is_the_class_count(self, monkeypatch):
        # perfbench's tracer reads len(mon._MON_CACHE) as mon.memo.entries
        module = importlib.import_module("monmap.mon")
        computed = []
        real = module._history_counts
        monkeypatch.setattr(module, "_history_counts",
                            lambda x: computed.append(x) or real(x))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = spec_from_file_location("tracer", TRACER)
        tracer = module_from_spec(spec)
        spec.loader.exec_module(tracer)
        clear_caches()
        for m in conservative_one_face(4):
            mon(m)
        assert len(_MON_CACHE) == len(computed) > 0
        counts = tracer._cache_counts(tracer.Tracer())
        assert counts["mon.memo.entries"] == len(computed)
        clear_caches()
        assert len(_MON_CACHE) == 0
        counts = tracer._cache_counts(tracer.Tracer())
        assert counts["mon.memo.entries"] == 0


class TestLemmaEquivalence:
    def test_klein_good_history(self, klein):
        rep = lemma_equivalence_check(klein, [(1, 5), (2, 4), (3, 6)])
        assert rep.top_degree_pair and rep.removals_admissible \
            and rep.degree_maximal
        assert rep.degree_target == 2  # |F| + |E| - |V| = 1 + 3 - 2
        assert rep.leading_coefficient_one

    def test_klein_bad_history(self, klein):
        rep = lemma_equivalence_check(klein, [(3, 6), (2, 4), (1, 5)])
        assert not rep.top_degree_pair and not rep.removals_admissible \
            and not rep.degree_maximal
        assert rep.consistent

    def test_single_edge_trivial(self):
        rep = lemma_equivalence_check(SINGLE_EDGE, [(1, 2)])
        assert rep.top_degree_pair and rep.leading_coefficient_one

    @pytest.mark.parametrize("stream", [lambda: all_maps(2),
                                        lambda: conservative_one_face(4)],
                             ids=["all_maps(2)", "conservative_one_face(4)"])
    def test_counts_read_as_the_polynomial(self, stream):
        # condition C and the monic test read the counts (t, f) of the
        # weight gamma^t / 2^f; they must say what the polynomial says
        held = 0
        for m in stream():
            for h in permutations(m.edges()):
                rep = lemma_equivalence_check(m, h)
                weight = history_weight(m, h)
                target = rep.degree_target
                assert rep.degree_maximal == (weight.degree == target)
                if (rep.top_degree_pair and rep.removals_admissible
                        and rep.degree_maximal):
                    held += 1
                    assert rep.leading_coefficient_one == (
                        weight.coefficient(target) == 1)
        assert held > 0


class TestDegreeBounds:
    def test_exhaustive_small(self):
        for n in (1, 2):
            for m in all_maps(n):
                st = structure(m)
                for h in permutations(m.eps):
                    assert history_weight(m, h).degree <= 2 * st.genus
                assert mon(m).degree <= mon_top_degree_target(m)

    def test_sampled_n4(self):
        rng = random.Random(11)
        labels = list(range(1, 9))

        def rand_pairing():
            labs = labels[:]
            rng.shuffle(labs)
            return [(labs[i], labs[i + 1]) for i in range(0, 8, 2)]

        for _ in range(150):
            m = NonOrientedMap.from_pairs(rand_pairing(), rand_pairing(),
                                          rand_pairing())
            st = structure(m)
            poly = mon(m)
            assert poly.degree <= 2 * st.genus
            prob, coeff = mon_top_detail(m)
            assert prob == coeff


class TestBruteForceOracleN4:
    def test_sampled_maps_against_full_history_enumeration(self):
        # 4 edges: compare the recursion with the raw 4! = 24 histories
        rng = random.Random(5)
        labels = list(range(1, 9))

        def rand_pairing():
            labs = labels[:]
            rng.shuffle(labs)
            return [(labs[i], labs[i + 1]) for i in range(0, 8, 2)]

        for _ in range(25):
            m = NonOrientedMap.from_pairs(rand_pairing(), rand_pairing(),
                                          rand_pairing())
            total = GammaPoly()
            hits = count = 0
            for h in permutations(m.eps):
                total = total + history_weight(m, h)
                hits += is_top_degree_pair(m, h)
                count += 1
            assert mon(m) == total.scale(F(1, count))
            prob, _ = mon_top_detail(m)
            assert prob == F(hits, count)
            assert 0 <= prob <= 1
