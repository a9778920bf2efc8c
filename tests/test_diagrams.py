import importlib
import math
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import pytest

from monmap.algebra import SQRT2, Sqrt2, gamma_of
from monmap.cli import main
from monmap.diagrams import (DiagramError, MultiRect, Partition, _class_sums,
                             _class_table, _one_face_table, _oriented_table,
                             count_embeddings, normalized_embeddings, ogs_full,
                             top_map_sums)
from monmap.enumeration import (conservative_maps, conservative_one_face,
                                transitive_pairs_by_class)
from monmap.jack import (ch, ch_stanley, jack_in_p, oriented_face_type_maps,
                         stanley_special)
from monmap.maps import (BicoloredGraph, bicolored_graph, canonical_form,
                         canonical_graph_class, graph_class, structure)
from monmap.mon import MonTopMismatch, mon, mon_top, mon_top_detail
from monmap.oriented import (OrientedMap, bicolored_graph_oriented,
                             cycle_type_permutation, partitions_of, z_of)
from monmap.verify import SECOND_THEOREM_POINTS, _printed_grid, run_suite

from conftest import oriented_components

F = Fraction

SINGLE_EDGE_GRAPH = BicoloredGraph(1, 1, ((0, 0),))
# path with two edges: one white center joined to two black ends
PATH_GRAPH = BicoloredGraph(2, 1, ((0, 0), (1, 0)))


def contains(lam, row, col):
    """Whether the Young diagram of ``lam`` has the 1-based box (row, col)."""
    return 1 <= row <= len(lam.parts) and 1 <= col <= lam.parts[row - 1]


class TestPartition:
    def test_basic_stats(self):
        p = Partition((3, 2, 2, 1))
        assert p.size == 8 and p.length == 4
        assert p.mult(2) == 2 and p.mult(5) == 0
        assert p.z == 3 * (2 ** 2 * 2) * 1  # 3^1*1! * 2^2*2! * 1^1*1!

    def test_validation(self):
        with pytest.raises(DiagramError):
            Partition((1, 2))
        with pytest.raises(DiagramError):
            Partition((2, 0))


class TestNonIntegerPartsRefused:
    """A float, str or bool part is refused, never truncated or coerced."""

    @pytest.mark.parametrize("call", [
        lambda: jack_in_p((2.5,), 1),
        lambda: ch((1.5,), (2,), 1),
        lambda: Partition((2.5, 1.9)),
        lambda: Partition(("3", True)),
        lambda: Partition((3, 1.0)),
        lambda: Partition((2, True)),
    ], ids=["jack_in_p", "ch", "Partition-float", "Partition",
            "Partition-whole-float", "Partition-bool"])
    def test_refused(self, call):
        with pytest.raises(DiagramError, match="must be integers"):
            call()


class TestYoungDiagram:
    """A Partition read as a Young diagram, its parts the row lengths."""

    def test_box_query(self):
        d = Partition((3, 1))
        assert contains(d, 1, 3) and contains(d, 2, 1)
        assert not contains(d, 2, 2) and not contains(d, 3, 1)

    def test_prime_coordinates(self):
        assert Partition((4, 1, 1)).prime_coordinates() == ((1, 2), (4, 1))
        assert Partition(()).prime_coordinates() == ((), ())

    def test_zero_row_refused(self):
        # a row of length 0 is refused, not dropped
        with pytest.raises(DiagramError, match="must be positive"):
            Partition((3, 0))


class TestMultirectangular:
    def test_single_rectangle(self):
        mr = MultiRect.from_primes((2,), (3,), F(1))
        assert mr.diagram() == Partition((3, 3))

    def test_stacking(self):
        mr = MultiRect.from_primes((1, 2), (4, 1), F(1))
        assert mr.diagram() == Partition((4, 1, 1))

    def test_scaling(self):
        mr = MultiRect((F(1),), (F(4),), F(2))
        assert mr.p_prime == (2,) and mr.q_prime == (2,)
        assert mr.diagram() == Partition((2, 2))

    def test_non_integer_rejected(self):
        with pytest.raises(DiagramError):
            MultiRect((F(1, 2),), (F(2),), F(1)).diagram()

    def test_non_monotone_rejected(self):
        with pytest.raises(DiagramError):
            MultiRect((F(1), F(1)), (F(1), F(2)), F(1)).diagram()


class TestCountEmbeddings:
    def test_single_edge_counts_boxes(self):
        for rows in ((2, 2), (3, 1), (5,), (2, 2, 1)):
            lam = Partition(rows)
            assert count_embeddings(SINGLE_EDGE_GRAPH, lam) == lam.size

    def test_path_matches_brute_force(self):
        lam = Partition((2, 2))
        # oracle: direct enumeration over rows^2 x columns
        expected = 0
        for r1, r2, c in product((1, 2), (1, 2), (1, 2)):
            if contains(lam, r1, c) and contains(lam, r2, c):
                expected += 1
        assert count_embeddings(PATH_GRAPH, lam) == expected == 8

    def test_isolated_vertex_rejected(self):
        with pytest.raises(DiagramError):
            count_embeddings(BicoloredGraph(2, 1, ((0, 0),)),
                             Partition((1,)))

    def test_empty_diagram(self):
        assert count_embeddings(SINGLE_EDGE_GRAPH, Partition(())) == 0

    def test_no_graph_class_is_computed(self):
        # a star on 9 black vertices is past the class guard of 8 rows,
        # and its one embedding into a single box needs no class
        star = BicoloredGraph(9, 1, tuple((b, 0) for b in range(9)))
        assert count_embeddings(star, Partition([1])) == 1


def label_level_embeddings(g, lam):
    """count_embeddings by brute force: every map of the black vertices to
    rows and of the white vertices to columns, counted when each edge
    (b, w) has the column of w inside the row of b."""
    rows = lam.parts
    columns = range(rows[0] if rows else 0)
    total = 0
    for row in product(range(len(rows)), repeat=g.blacks):
        for col in product(columns, repeat=g.whites):
            total += all(col[w] < rows[row[b]] for b, w in g.edges)
    return total


@pytest.fixture(scope="module")
def many_black_graphs():
    """One graph per class with at least 4 black vertices of the oriented
    and one-face tables at n = 4, 5."""
    graphs = {}
    for n in (4, 5):
        for table in (_oriented_table(n), _one_face_table(n)[0]):
            graphs.update((key, graph) for key, (graph, _) in table.items()
                          if graph.blacks >= 4)
    return list(graphs.values())


class TestManyBlackVertices:
    """Embedding counts past 3 black vertices, on diagrams with distinct
    rows, against the brute force over labels."""

    LAMS = ((2, 1), (3, 1), (3, 2, 1))

    def test_count_matches_label_level_brute_force(self, many_black_graphs):
        assert {g.blacks for g in many_black_graphs} == {4, 5}
        for g in many_black_graphs:
            for lam in map(Partition, self.LAMS):
                assert count_embeddings(g, lam) == \
                    label_level_embeddings(g, lam)

    def test_normalized_is_the_signed_scaled_count(self, many_black_graphs):
        for g in many_black_graphs:
            for lam in map(Partition, self.LAMS):
                count = label_level_embeddings(g, lam)
                for a in (F(1), F(2), F(1, 2)):
                    assert normalized_embeddings(g, lam, a) == \
                        a ** g.whites / (-a) ** g.blacks * count


class TestNormalizedEmbeddings:
    def test_single_edge_at_various_a(self):
        lam = Partition((2, 2))
        assert normalized_embeddings(SINGLE_EDGE_GRAPH, lam, F(1)) == -4
        assert normalized_embeddings(SINGLE_EDGE_GRAPH, lam, F(2)) == -4

    def test_balanced_graph_scale_free(self):
        lam = Partition((3, 1))
        n = count_embeddings(SINGLE_EDGE_GRAPH, lam)
        for a in (F(1), F(2), F(5, 3)):
            assert normalized_embeddings(SINGLE_EDGE_GRAPH, lam, a) == -n

    def test_sqrt2_value(self):
        lam = Partition((2,))
        v = normalized_embeddings(PATH_GRAPH, lam, SQRT2)
        # A^{1-2} * (-1)^2 ... one white, two blacks: A^-1 * N
        n = count_embeddings(PATH_GRAPH, lam)
        assert v == Sqrt2(0, F(1, 2)) * n

    def test_anisotropic_coordinates_absorb_a(self):
        # same (P, Q) at two different A values gives the same value
        for graph in (SINGLE_EDGE_GRAPH, PATH_GRAPH):
            values = []
            for a in (F(1), F(2)):
                mr = MultiRect((F(2),), (F(2),), a)
                values.append(normalized_embeddings(graph, mr.diagram(), a))
            assert values[0] == values[1]


def per_class_sums(tables, lam, a, base, top):
    """_class_sums with one term per class: the sum of
    w * base^(top-|V|) * N~_G(lam) over each table's (G, w), with N~ from
    normalized_embeddings."""
    sums = [a * 0] * len(tables)
    union = {key: graph
             for table in tables for key, (graph, _) in table.items()}
    for key, graph in union.items():
        term = (base ** (top - graph.blacks - graph.whites)
                * normalized_embeddings(graph, lam, a))
        for i, table in enumerate(tables):
            if key in table:
                sums[i] += table[key][1] * term
    return sums


@pytest.fixture
def checked_class_sums(monkeypatch):
    """Replace _class_sums in the given module by a spy that checks each
    call against per_class_sums; returns the list of checked calls."""
    real = importlib.import_module("monmap.diagrams")._class_sums
    calls = []

    def install(module):
        def spy(tables, lam, a, base, top):
            got = real(tables, lam, a, base, top)
            assert got == per_class_sums(tables, lam, a, base, top)
            calls.append(got)
            return got

        monkeypatch.setattr(importlib.import_module(module), "_class_sums",
                            spy)
        return calls

    return install


class TestClassSumsByGroup:
    """_class_sums, summed per (#black, #white) group, against one term per
    class."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_second_main_theorem_points(self, n):
        tables = [_oriented_table(n), _one_face_table(n)[0]]
        points = SECOND_THEOREM_POINTS + tuple(_printed_grid())
        groups = set()
        for pt in points:
            mr = MultiRect.from_primes(*pt)
            args = (tables, mr.diagram(), mr.A, mr.gamma, n + 1)
            assert _class_sums(*args) == per_class_sums(*args)
        for table in tables:
            groups |= {(g.blacks, g.whites) for g, _ in table.values()}
        # every (#black, #white) with #black + #white <= n + 1 occurs
        assert len(groups) == n * (n + 1) // 2

    @pytest.mark.parametrize("alpha, pi", [
        (F(1), (1,)), (F(1), (2,)), (F(1), (3,)), (F(1), (2, 1)),
        (F(2), (1,)), (F(2), (2,)), (F(1, 2), (1,)), (F(1, 2), (2,))],
        ids=["1-1", "1-2", "1-3", "1-21", "2-1", "2-2", "1/2-1", "1/2-2"])
    def test_stanley_special_tables(self, checked_class_sums, alpha, pi):
        lams = [lam for d in range(1, 6) for lam in partitions_of(d)]
        calls = checked_class_sums("monmap.jack")
        values = stanley_special(pi, lams, alpha)
        assert all(oracle == mapsum for oracle, mapsum in values)
        assert len(calls) == len(lams)
        if alpha != 1:  # in Q[sqrt2], and irrational for pi = (2,)
            assert all(isinstance(x, Sqrt2) for [x] in calls)
            assert any(x.b for [x] in calls) == (pi == (2,))

    @pytest.mark.parametrize("a", [F(1), F(2), F(1, 3), SQRT2,
                                   Sqrt2(0, F(1, 2))],
                             ids=["1", "2", "1/3", "sqrt2", "1/sqrt2"])
    def test_ogs_full(self, checked_class_sums, a):
        calls = checked_class_sums("monmap.diagrams")
        for pi in ((1,), (2,), (1, 1), (3,), (2, 1)):
            for lam in ((1,), (2, 1), (3, 1), (2, 2, 1)):
                ogs_full(pi, [Partition(lam)], a)
        assert len(calls) == 20


def one_table_sum(table, n, mr):
    """The sum of one class table at mr, embedding that table's classes."""
    return _class_sums([table], mr.diagram(), mr.A, mr.gamma, n + 1)[0]


def both_map_sums(n, mr, force=False):
    """top_map_sums at the one point mr."""
    [sums] = top_map_sums(n, [mr], force)
    return sums


def chtop_map_sum(n, mr, force=False):
    """top_map_sums' oriented side alone."""
    return both_map_sums(n, mr, force)[0]


def ogs_top_map_sum(n, mr, force=False):
    """top_map_sums' one-face side alone."""
    return both_map_sums(n, mr, force)[1]


class TestChTopMapSum:
    """top_map_sums' oriented side, chtop, and the pair as a whole."""

    def test_n1_is_sum_pq(self):
        mr = MultiRect.from_primes((2, 1), (3, 1), F(1))
        expected = sum(p * q for p, q in zip(mr.P, mr.Q))
        assert chtop_map_sum(1, mr) == expected

    @pytest.mark.parametrize("n", range(1, 5))
    def test_top_map_sums_gives_both_sums(self, n):
        # one embedding per class of the two tables together gives each
        # table's own sum
        oriented, (one_face, _) = _oriented_table(n), _one_face_table(n)
        for pt in SECOND_THEOREM_POINTS:
            mr = MultiRect.from_primes(*pt)
            assert both_map_sums(n, mr) == (-one_table_sum(oriented, n, mr),
                                            one_table_sum(one_face, n, mr))

    def test_n2_reference_point(self):
        mr = MultiRect((F(1),), (F(4),), F(2))
        assert chtop_map_sum(2, mr) == 6

    def test_n3_matches_closed_form_top(self):
        for primes in (((1,), (3,)), ((2,), (2,)), ((1, 1), (2, 1))):
            for a in (F(1), F(2)):
                mr = MultiRect.from_primes(primes[0], primes[1], a)
                _, top = ch_stanley(3, mr.gamma, mr.P, mr.Q)
                assert chtop_map_sum(3, mr) == top

    def test_guard(self):
        mr = MultiRect.from_primes((1,), (1,), F(1))
        with pytest.raises(DiagramError):
            both_map_sums(6, mr)

    @pytest.mark.parametrize("map_sum", [chtop_map_sum, ogs_top_map_sum])
    def test_tall_diagram_guard(self, map_sum):
        # 101 ** 3 row assignments; 100 ** 3 is the largest search allowed
        mr = MultiRect.from_primes((101,), (1,), F(1))
        with pytest.raises(DiagramError, match="embedding guard.*force=True"):
            map_sum(3, mr)

    @pytest.mark.parametrize("map_sum", [chtop_map_sum, ogs_top_map_sum])
    def test_tall_diagram_refused_before_its_rows_exist(self, map_sum,
                                                         monkeypatch):
        # 10^9 rows would take gigabytes as a row list
        def expand(mr):
            raise AssertionError("rows built before the guard ran")

        monkeypatch.setattr(MultiRect, "diagram", expand)
        mr = MultiRect.from_primes((10 ** 9,), (1,), F(1))
        with pytest.raises(DiagramError, match="embedding guard"):
            map_sum(1, mr)

    @pytest.mark.parametrize("map_sum", [chtop_map_sum, ogs_top_map_sum])
    def test_zero_length_rows_are_not_built(self, map_sum):
        # p' = 10^6 rows of length 0 are no rows; as a list they take 8 MB
        mr = MultiRect.from_primes((1, 10 ** 6), (1, 0), F(1))
        tracemalloc.start()
        try:
            value = map_sum(2, mr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mr.diagram().parts == (1,)
        assert value == map_sum(2, MultiRect.from_primes((1,), (1,), F(1)))
        assert peak < 10 ** 6


def brute_ogs_top(n, mr):
    """top_map_sums' one-face side, ogs_top, with one summand per one-face
    map, no class table."""
    lam, g, a = mr.diagram(), mr.gamma, mr.A
    total = F(0)
    for m in conservative_one_face(n):
        graph = bicolored_graph(m)
        v = graph.blacks + graph.whites
        total += (mon_top(m) * g ** (n + 1 - v)
                  * normalized_embeddings(graph, lam, a))
    return total


class TestMapSumGuardsBeforeWalk:
    """top_map_sums refuses a guarded call before walking either stream."""

    @pytest.fixture
    def walks(self, monkeypatch):
        walked = []

        def refuse(n, force=False):
            walked.append(n)
            raise AssertionError("stream walked before the guards ran")

        diagrams = importlib.import_module("monmap.diagrams")
        monkeypatch.setattr(diagrams, "transitive_pairs_by_class", refuse)
        monkeypatch.setattr(diagrams, "one_face_orbits", refuse)
        return walked

    @pytest.mark.parametrize("map_sum", [
        chtop_map_sum, ogs_top_map_sum,
        pytest.param(both_map_sums, id="top_map_sums")])
    def test_n_guard(self, map_sum, walks):
        mr = MultiRect.from_primes((1,), (1,), F(1))
        with pytest.raises(DiagramError, match="map-sum guard"):
            map_sum(6, mr)
        assert walks == []

    @pytest.mark.parametrize("map_sum", [
        chtop_map_sum, ogs_top_map_sum,
        pytest.param(both_map_sums, id="top_map_sums")])
    def test_row_guard(self, map_sum, walks):
        mr = MultiRect.from_primes((101,), (1,), F(1))
        with pytest.raises(DiagramError, match="embedding guard"):
            map_sum(3, mr)
        assert walks == []

    def test_row_guard_in_a_list(self, walks):
        # one guarded point refuses the whole list, the others included
        fine = MultiRect.from_primes((1,), (1,), F(1))
        tall = MultiRect.from_primes((101,), (1,), F(1))
        for points in ([fine, tall], [tall, fine]):
            with pytest.raises(DiagramError, match="embedding guard"):
                top_map_sums(3, points)
        assert walks == []

    def test_suite_n_guard(self, walks):
        with pytest.raises(DiagramError, match="map-sum guard"):
            run_suite("second-main-theorem", ns=(6,))
        assert walks == []


@pytest.fixture
def embedded_classes(monkeypatch):
    """The class key of every graph that count_embeddings is called on."""
    diagrams = importlib.import_module("monmap.diagrams")
    real = diagrams.count_embeddings
    keys = []

    def spy(g, lam):
        keys.append(canonical_graph_class(g).key)
        return real(g, lam)

    monkeypatch.setattr(diagrams, "count_embeddings", spy)
    return keys


def top_degree_classes(n):
    """Class keys of the transitive pairs and one-face maps with n edges."""
    return ({canonical_graph_class(bicolored_graph_oriented(om)).key
             for om, _ in transitive_pairs_by_class(n)}
            | {graph_class(m).key for m in conservative_one_face(n)})


class TestOneCountPerClass:
    """Every map sum embeds one graph per bicolored graph class."""

    def test_chtop_command(self, embedded_classes, capsys):
        assert main(["chtop", "--n", "5", "--P", "15", "--Q", "1",
                     "--A", "1"]) == 0
        assert len(embedded_classes) == len(set(embedded_classes))
        assert set(embedded_classes) == top_degree_classes(5)

    def test_second_main_theorem_point(self, embedded_classes, monkeypatch):
        verify = importlib.import_module("monmap.verify")
        monkeypatch.setattr(verify, "SECOND_THEOREM_POINTS",
                            SECOND_THEOREM_POINTS[-1:])
        assert run_suite("second-main-theorem", ns=(4,)).passed
        assert len(embedded_classes) == len(set(embedded_classes))
        assert set(embedded_classes) == top_degree_classes(4)

    @pytest.mark.parametrize("a", [F(2), SQRT2])
    def test_ogs_full(self, embedded_classes, a):
        ogs_full((2, 1), [Partition((2, 1))], a)
        maps = list(conservative_maps((2, 1)))
        assert len(embedded_classes) == len(set(embedded_classes)) > 1
        assert len(embedded_classes) < len(maps)
        assert set(embedded_classes) <= {graph_class(m).key for m in maps}

    @pytest.mark.parametrize("alpha", [F(1), F(2), F(1, 2)])
    def test_stanley_special(self, embedded_classes, alpha):
        stanley_special((2, 1), [(2, 1)], alpha)
        if alpha == 1:
            expected = {canonical_graph_class(bicolored_graph_oriented(om)).key
                        for om in oriented_face_type_maps((2, 1))}
        else:
            expected = {graph_class(m).key for m in conservative_maps((2, 1))}
        assert len(embedded_classes) == len(set(embedded_classes))
        assert set(embedded_classes) == expected


class TestOgsTopMapSum:
    """top_map_sums' one-face side, ogs_top."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_per_map_sum(self, n):
        points = [MultiRect.from_primes(*pt) for pt in SECOND_THEOREM_POINTS]
        if n <= 3:
            points += [MultiRect.from_primes(*pt) for pt in _printed_grid()]
        for mr in points:
            assert ogs_top_map_sum(n, mr) == brute_ogs_top(n, mr)

    def test_coefficient_mismatch_raises(self, monkeypatch):
        # library callers get mon_top's AssertionError, not a wrong sum
        mon_module = importlib.import_module("monmap.mon")
        real = mon_module.mon_top_degree_target
        monkeypatch.setattr(mon_module, "mon_top_degree_target",
                            lambda m: real(m) + 1)
        mr = MultiRect.from_primes((1,), (2,), F(1))
        with pytest.raises(AssertionError, match="mon_top mismatch"):
            both_map_sums(2, mr)

    def test_mismatch_is_one_error_type(self, monkeypatch, klein):
        # mon_top and top_map_sums raise the same AssertionError subclass
        mon_module = importlib.import_module("monmap.mon")
        real = mon_module.mon_top_degree_target
        monkeypatch.setattr(mon_module, "mon_top_degree_target",
                            lambda m: real(m) + 1)
        assert issubclass(MonTopMismatch, AssertionError)
        with pytest.raises(MonTopMismatch, match="mon_top mismatch"):
            mon_top(klein)
        mr = MultiRect.from_primes((1,), (2,), F(1))
        with pytest.raises(MonTopMismatch, match="mon_top mismatch"):
            top_map_sums(2, [mr])

    def test_n1_sign_reconciliation(self):
        mr = MultiRect.from_primes((2,), (3,), F(1))
        chtop, ogs_top = both_map_sums(1, mr)
        assert ogs_top == -chtop

    def test_klein_class_contributes(self, klein):
        # the klein-shaped one-face maps enter the n=3 sum with weight 2/3
        # attached to gamma^(n+1-|V|) = gamma^2
        target = canonical_form(klein)
        hits = [m for m in conservative_one_face(3)
                if canonical_form(m) == target]
        assert hits
        for m in hits:
            assert mon_top(m) == F(2, 3)
            assert 3 + 1 - structure(m).vertices == 2

    def test_n2_reference_point(self):
        mr = MultiRect((F(1),), (F(4),), F(2))
        assert -ogs_top_map_sum(2, mr) == 6


def reference_oriented_table(n):
    """{class key: weight} of _oriented_table from the validated
    OrientedMap of every candidate (rho, sigma2): transitivity from its
    edge components, its graph from its cycles, and one class per pair."""
    labelings = math.factorial(n - 1)
    table = {}
    perms = list(permutations(range(n)))
    for lam in partitions_of(n):
        rho = cycle_type_permutation(lam)
        size = math.factorial(n) // z_of(lam)
        for s2 in perms:
            om = OrientedMap(rho, s2)
            if oriented_components(om) != 1:
                continue
            white_of = {x: i for i, cyc in enumerate(om.white_cycles)
                        for x in cyc}
            black_of = {x: i for i, cyc in enumerate(om.black_cycles)
                        for x in cyc}
            graph = BicoloredGraph(
                len(om.black_cycles), len(om.white_cycles),
                tuple(sorted((black_of[k], white_of[k])
                             for k in range(1, n + 1))))
            key = canonical_graph_class(graph).key
            table[key] = table.get(key, 0) + Fraction(size, labelings)
    return table


@pytest.mark.parametrize("n", range(1, 7))
def test_oriented_table_matches_reference(n):
    assert ({key: weight for key, (_, weight) in _oriented_table(n).items()}
            == reference_oriented_table(n))


def per_map_one_face_table(n):
    """_one_face_table with one mon_top_detail per one-face map of
    conservative_one_face, no orbits."""
    details = [(bicolored_graph(m), *mon_top_detail(m))
               for m in conservative_one_face(n)]
    table = _class_table((graph, prob) for graph, prob, _ in details)
    return table, {canonical_graph_class(graph).key
                   for graph, prob, coeff in details if prob != coeff}


class TestOneFaceTable:
    """The orbit-weighted table against one summand per one-face map."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_per_map_table(self, n):
        table, mismatched = _one_face_table(n)
        assert (table, mismatched) == per_map_one_face_table(n)
        assert not mismatched

    @pytest.mark.parametrize("n", range(1, 6))
    def test_mismatched_keys_match_per_map_table(self, n, monkeypatch):
        mon_module = importlib.import_module("monmap.mon")
        real = mon_module.mon_top_degree_target
        monkeypatch.setattr(mon_module, "mon_top_degree_target",
                            lambda m: real(m) + 1)
        table, mismatched = _one_face_table(n)
        assert (table, mismatched) == per_map_one_face_table(n)
        assert mismatched


class TestOgsFull:
    def test_single_part_is_diagram_size(self):
        for a in (F(1), F(2), F(1, 2), F(3)):
            for lam in ((1,), (2, 1), (3, 2)):
                assert ogs_full((1,), [Partition(lam)], a) == [sum(lam)]

    def test_two_gon_explicit_oracle(self):
        # independent arithmetic over the three square gluings at A = 1
        lam = Partition((2, 2))
        a = F(1)
        g = gamma_of(a)
        total = F(0)
        for m in conservative_maps((2,)):
            graph = bicolored_graph(m)
            total += mon(m).evaluate(g) * normalized_embeddings(graph, lam, a)
        expected = -total  # (-1)^{l(pi)} with one part
        assert ogs_full((2,), [lam], a) == [expected]

    def test_degree_consistency_along_scaling_ray(self):
        # |pi| + l(pi) bounds the polynomial degree in the scale variable
        for pi, base_p, base_q in (((2,), (1,), (1,)), ((1, 1), (1, 1), (1, 1))):
            d = sum(pi) + len(pi)
            samples = []
            for t in range(d + 2):
                rows = MultiRect(tuple(F(t) * p for p in base_p),
                                 tuple(F(t) * q for q in base_q),
                                 F(1)).diagram()
                samples.extend(ogs_full(pi, [rows], F(1)))
            # (d+1)-th finite difference of a degree-<=d polynomial vanishes
            diff = samples[:]
            for _ in range(d + 1):
                diff = [b - a for a, b in zip(diff, diff[1:])]
            assert diff == [0]

    def test_guard(self):
        with pytest.raises(DiagramError):
            ogs_full((5, 4), [Partition((1,))], F(1))

    def test_invalid_diagram_in_a_list(self, monkeypatch):
        # every diagram is read before the maps of face-type pi are walked
        def refuse(parts):
            raise AssertionError("maps walked before the diagrams were read")

        monkeypatch.setattr(importlib.import_module("monmap.diagrams"),
                            "conservative_maps", refuse)
        with pytest.raises(DiagramError, match="weakly decreasing"):
            ogs_full((2,), [(2, 1), (1, 2)], F(1))


@pytest.fixture
def stream_walks(monkeypatch):
    """Count the walks of the named streams of a module; returns a
    function that installs the counters and gives the count dict."""
    def install(module, names):
        mod = importlib.import_module(module)
        walks = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _real=getattr(mod, name), _name=name,
                        **kwargs):
                walks[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
        return walks

    return install


class TestListCalls:
    """Each map sum takes a list of diagrams: the list call equals the
    one-element calls entry by entry, and it walks each stream once."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_top_map_sums(self, n, stream_walks):
        points = [MultiRect.from_primes(*pt) for pt in SECOND_THEOREM_POINTS]
        singles = [both_map_sums(n, mr) for mr in points]
        walks = stream_walks("monmap.diagrams",
                             ["transitive_pairs_by_class", "one_face_orbits"])
        assert top_map_sums(n, points) == singles
        assert walks == {"transitive_pairs_by_class": 1,
                         "one_face_orbits": 1}

    @pytest.mark.parametrize("alpha, pi", [
        (F(1), (1,)), (F(1), (2,)), (F(1), (3,)), (F(1), (2, 1)),
        (F(2), (1,)), (F(2), (2,)), (F(1, 2), (1,)), (F(1, 2), (2,))],
        ids=["1-1", "1-2", "1-3", "1-21", "2-1", "2-2", "1/2-1", "1/2-2"])
    def test_stanley_special(self, alpha, pi, stream_walks):
        lams = [lam for d in range(1, 6) for lam in partitions_of(d)]
        singles = [value for lam in lams
                   for value in stanley_special(pi, [lam], alpha)]
        walks = stream_walks("monmap.jack", ["oriented_face_type_maps",
                                             "conservative_maps"])
        assert stanley_special(pi, lams, alpha) == singles
        oriented = 1 if alpha == 1 else 0
        assert walks == {"oriented_face_type_maps": oriented,
                         "conservative_maps": 1 - oriented}

    @pytest.mark.parametrize("a", [F(1), F(2), SQRT2],
                             ids=["1", "2", "sqrt2"])
    def test_ogs_full(self, a, stream_walks):
        lams = [Partition(lam) for lam in ((1,), (2, 1), (3, 1), (2, 2, 1))]
        walks = stream_walks("monmap.diagrams", ["conservative_maps"])
        for pi in ((1,), (2,), (1, 1), (2, 1)):
            singles = [value for lam in lams
                       for value in ogs_full(pi, [lam], a)]
            walks["conservative_maps"] = 0
            assert ogs_full(pi, lams, a) == singles
            assert walks == {"conservative_maps": 1}

    @pytest.mark.parametrize("call", [
        lambda: stanley_special((1,), (2, 1), 1),
        lambda: ogs_full((1,), Partition((2, 1)), 1),
        lambda: top_map_sums(2, MultiRect((1, 2), (4, 2), 1))],
        ids=["stanley_special", "ogs_full", "top_map_sums"])
    def test_one_diagram_in_place_of_a_list(self, call):
        with pytest.raises(TypeError, match="takes a list of diagrams"):
            call()


class TestIntScale:
    """An int scale A gives the exact value at Fraction(A)."""

    AS = (1, 2, 3, -1)

    def test_normalized_embeddings(self):
        for graph in (SINGLE_EDGE_GRAPH, PATH_GRAPH):
            for a in self.AS:
                got = normalized_embeddings(graph, Partition((2, 1)), a)
                assert isinstance(got, Fraction)
                assert got == normalized_embeddings(graph, Partition((2, 1)),
                                                    F(a))

    def test_ogs_full(self):
        lams = [Partition(lam) for lam in ((2,), (2, 1), (3, 1))]
        for pi in ((1,), (2,), (1, 1), (2, 1)):
            for a in self.AS:
                got = ogs_full(pi, lams, a)
                assert all(isinstance(x, Fraction) for x in got)
                assert got == ogs_full(pi, lams, F(a))

    def test_top_map_sums(self):
        for n in (1, 2, 3):
            for a in self.AS[:3]:
                got = top_map_sums(n, [MultiRect((1, 2), (4 * a, 2 * a), a)])
                assert all(isinstance(x, Fraction) for x in got[0])
                assert got == top_map_sums(
                    n, [MultiRect((1, 2), (4 * a, 2 * a), F(a))])
