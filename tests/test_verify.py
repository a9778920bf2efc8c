import dataclasses
import hashlib
import importlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from monmap.algebra import GammaPoly
from monmap.bijection import BijectionResult
from monmap.enumeration import (all_maps, conservative_one_face,
                                maps_by_class, transitive_pairs_by_class)
from monmap.maps import (NonOrientedMap, canonical_form, clear_caches,
                         is_orientable, structure)
from monmap.mon import _mon_pair, is_top_degree_map
from monmap.oriented import side_label
from monmap.verify import (Check, Report, SUITES, _class_verdict, _draw_sample,
                           _shuffle_steps, report_render, run_suite)


# One small case per layer: oriented pairs, the mon/mon_top memo, embedding
# counts and the Jack lru caches.
ORDER_CASES = (
    ("main-theorem", {"ns": (1, 2, 3)}),
    ("degree-bounds", {"n_exhaustive": 2, "sampled": (4,), "samples": 200}),
    ("liberation-oriented", {"ns": (1, 2)}),
    ("second-main-theorem", {"ns": (1, 2)}),
    ("mon-examples", {}),
    ("stanley-special", {}),
)


# The suites that read mon_top through mon_top_detail.
MON_TOP_SUITES = (
    ("mon-examples", {}),
    ("main-theorem", {"ns": (1, 2)}),
    ("second-main-theorem", {"ns": (1, 2)}),
)


def make_report():
    return Report("demo", {"n": "2"}, [
        Check("first", True, {"value": "2/3"}),
        Check("second", False, {"lhs_num": "1", "lhs_den": "2",
                                "rhs_num": "1", "rhs_den": "3"}),
    ], runtime=1.23)


def label_level_samples(seed, ns, samples):
    """The degree-bounds sampler's (map, history) pairs, drawn as label
    pairs: per map, one shuffle of the labels 1..2n for each involution,
    then one shuffle of its edges for the sampled history."""
    rng = random.Random(seed)
    pairs = []
    for n in ns:
        labels = list(range(1, 2 * n + 1))

        def pairing():
            labs = labels[:]
            rng.shuffle(labs)
            return [(labs[i], labs[i + 1]) for i in range(0, 2 * n, 2)]

        for _ in range(samples):
            m = NonOrientedMap.from_pairs(pairing(), pairing(), pairing())
            history = list(m.edges())
            rng.shuffle(history)
            pairs.append((m, history))
    return pairs


def shuffled_sample(rng, n):
    """``_draw_sample``'s sample at n, drawn by four random.Random.shuffle
    calls: three of the positions 0..2n-1, consecutive entries partners,
    then one of the third pairing's edges as side-position pairs."""
    pairings = []
    for _ in range(3):
        order = list(range(2 * n))
        rng.shuffle(order)
        partner = [None] * (2 * n)
        for a, b in zip(order[::2], order[1::2]):
            partner[a], partner[b] = b, a
        pairings.append(tuple(partner))
    history = [(i, j) for i, j in enumerate(pairings[2]) if i < j]
    rng.shuffle(history)
    return tuple(pairings), history


def weighed_samples(monkeypatch):
    """Spy on the degree-bounds sampler's history weights: the list it
    returns gets each weighed sample as (map, history as label pairs)."""
    verify = importlib.import_module("monmap.verify")
    weighed = []
    real = verify._sides_weight

    def spy(m, sides):
        labels = m.labels
        weighed.append((m, [(labels[i], labels[j]) for i, j in sides]))
        return real(m, sides)
    monkeypatch.setattr(verify, "_sides_weight", spy)
    return weighed


class TestRender:
    def test_json_round_trip(self):
        report = make_report()
        blob = report_render(report, "json")
        back = json.loads(blob)
        assert back["suite"] == report.suite
        assert back["params"] == report.params
        assert back["checks"] == [dataclasses.asdict(c) for c in report.checks]
        assert back["passed"] is False

    def test_runtime_not_serialized(self):
        report = make_report()
        a = report_render(report, "json")
        report.runtime = 99.0
        assert report_render(report, "json") == a

    def test_csv_columns(self):
        blob = report_render(make_report(), "csv").decode()
        lines = blob.splitlines()
        assert lines[0] == "name,passed,lhs_den,lhs_num,rhs_den,rhs_num,value"
        assert lines[1].startswith("first,True")
        assert lines[2].startswith("second,False")

    def test_text_marks_failures(self):
        blob = report_render(make_report(), "text").decode()
        assert "suite demo: FAIL" in blob
        assert "[FAIL] second" in blob

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            report_render(make_report(), "xml")


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("no-such-suite")

    def test_fast_suites_pass(self):
        for name in ("mon-examples", "edge-types", "counting",
                     "stanley-special"):
            report = run_suite(name)
            assert report.passed, report_render(report, "text").decode()
            assert report.runtime >= 0

    def test_reports_are_byte_identical_across_runs(self):
        a = report_render(run_suite("mon-examples"), "json")
        b = report_render(run_suite("mon-examples"), "json")
        assert a == b
        c = report_render(run_suite("counting"), "csv")
        d = report_render(run_suite("counting"), "csv")
        assert c == d

    def test_reports_do_not_depend_on_suite_order(self):
        def render(cases):
            return {name: report_render(run_suite(name, **params), "json")
                    for name, params in cases}

        clear_caches()
        forward = render(ORDER_CASES)
        clear_caches()
        backward = render(reversed(ORDER_CASES))
        assert forward == backward

    @pytest.mark.parametrize("name, params, warm_up, digest", [
        ("lemma-equivalence", {"n": 2}, None,
         "66c6699a5da0aebc96c7e01b2903b1b9a11673ac035e9d99046ff8e45cf72f76"),
        ("key-bijection", {"ns": (1, 2), "conservative_n": 3}, None,
         "91742f5cce17053975d8b2b21221037d6748791b6fbacb62fd94fdefe4634229"),
        # lemma-equivalence fills mon's table of residual states first, and
        # key-bijection then reads it: the report must not change
        ("key-bijection", {"ns": (1, 2), "conservative_n": 3},
         ("lemma-equivalence", {"n": 2}),
         "91742f5cce17053975d8b2b21221037d6748791b6fbacb62fd94fdefe4634229"),
    ], ids=["lemma-equivalence", "key-bijection", "key-bijection-warm"])
    def test_history_suite_bytes(self, name, params, warm_up, digest):
        # pins the counts in the reports, not only their pass/fail
        clear_caches()
        if warm_up is not None:
            run_suite(warm_up[0], **warm_up[1])
        blob = report_render(run_suite(name, **params), "json")
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_broken_bijection_fails_without_raising(self, monkeypatch):
        # phi that twists nothing: its output of a non-orientable pair is
        # outside phi_inverse's domain, which must read as FAIL
        verify = importlib.import_module("monmap.verify")
        monkeypatch.setattr(verify, "phi",
                            lambda m, h: BijectionResult(m, tuple(h), ()))
        report = run_suite("key-bijection", ns=(1, 2), conservative_n=2)
        assert report.passed is False
        assert report.first_failure.name.startswith("n=2: phi and phi_inverse")

    def test_broken_inverse_fails_without_raising(self, monkeypatch):
        # phi_inverse that twists nothing: its output of an orientable map
        # with a history that is not top-degree is outside phi's domain,
        # which must read as FAIL with no landing test after the back call
        assert any(is_orientable(m) and not is_top_degree_map(m)
                   for m in all_maps(2))
        verify = importlib.import_module("monmap.verify")
        monkeypatch.setattr(verify, "phi_inverse",
                            lambda m, h: BijectionResult(m, tuple(h), ()))
        report = run_suite("key-bijection", ns=(1, 2), conservative_n=2)
        assert report.passed is False
        assert report.first_failure.name.startswith("n=2: phi and phi_inverse")

    @pytest.mark.parametrize("name,params", MON_TOP_SUITES)
    def test_mon_top_route_mismatch_fails_without_raising(
            self, monkeypatch, name, params):
        # a probability that is not mon's top coefficient must read as FAIL.
        # Only the probability asks whether a map is top-degree; ">" fails
        # on the single edge, where ">=" would pass every one-face map with
        # n <= 2 (all have mon_top 1).  The memo is emptied on both sides,
        # so no other test sees the mutant.
        mon_module = importlib.import_module("monmap.mon")
        monkeypatch.setattr(
            mon_module, "is_top_degree_map",
            lambda m: m._face_data[2] > m._component_data[1])
        mon_module.clear_caches()
        try:
            assert run_suite(name, **params).passed is False
        finally:
            mon_module.clear_caches()

    @pytest.mark.parametrize("name,params", MON_TOP_SUITES)
    def test_mon_top_coefficient_mismatch_fails_without_raising(
            self, monkeypatch, name, params):
        # only the coefficient route breaks: the map sums, weighted by the
        # probabilities, still agree, so only the agreement flag catches it
        mon_module = importlib.import_module("monmap.mon")
        real = mon_module.mon_top_degree_target
        monkeypatch.setattr(mon_module, "mon_top_degree_target",
                            lambda m: real(m) + 1)
        assert run_suite(name, **params).passed is False

    def test_second_main_theorem_walks_each_stream_once_per_n(
            self, monkeypatch):
        diagrams = importlib.import_module("monmap.diagrams")
        walks = {"transitive_pairs_by_class": 0, "one_face_orbits": 0}

        def counted(name):
            real = getattr(diagrams, name)

            def stream(*args, **kwargs):
                walks[name] += 1
                return real(*args, **kwargs)
            return stream

        for name in walks:
            monkeypatch.setattr(diagrams, name, counted(name))
        report = run_suite("second-main-theorem")
        assert report.passed
        assert walks == {"transitive_pairs_by_class": 4,
                         "one_face_orbits": 4}

    def test_key_bijection_canonicalises_no_graph(self, monkeypatch):
        # the round trip compares labelled graphs: no class is computed
        def refuse(rows):
            raise AssertionError("graph canonicalised on the per-pair path")

        monkeypatch.setattr(importlib.import_module("monmap.maps"),
                            "_canonical_matrix", refuse)
        clear_caches()
        blob = report_render(run_suite("key-bijection", ns=(1, 2),
                                       conservative_n=3), "json")
        assert hashlib.sha256(blob).hexdigest() == (
            "91742f5cce17053975d8b2b21221037d6748791b6fbacb62fd94fdefe4634229")

    def test_key_bijection_counts_match_history_counts(self):
        # a second route to each top_degree_pairs value: the count of
        # top-degree histories, K of mon._mon_pair, summed over the stream
        report = run_suite("key-bijection", ns=(1, 2), conservative_n=4)
        counts = [int(c.values["top_degree_pairs"]) for c in report.checks
                  if "top_degree_pairs" in c.values]
        streams = (all_maps(1), all_maps(2), conservative_one_face(4))
        assert counts == [sum(_mon_pair(m)[1] for m in stream)
                          for stream in streams] == [1, 42, 1704]
        assert report.passed

    def test_public_calls_per_pair_match_the_reports(self, monkeypatch):
        # the benchmark's traced self-check counts these calls against the
        # pair counts the reports state: one lemma_equivalence_check per
        # (map, history), one phi and one phi_inverse per round trip
        verify = importlib.import_module("monmap.verify")
        calls = {"phi": 0, "phi_inverse": 0, "lemma_equivalence_check": 0}

        def counted(name):
            real = getattr(verify, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return spy

        for name in calls:
            monkeypatch.setattr(verify, name, counted(name))
        clear_caches()
        lemma = run_suite("lemma-equivalence", n=2)
        assert calls["lemma_equivalence_check"] == int(
            lemma.checks[0].values["pairs"])
        bijection = run_suite("key-bijection", ns=(1, 2), conservative_n=3)
        assert bijection.passed
        expected = 0
        for c in bijection.checks:
            if "mutually inverse" in c.name:
                expected += 2 * int(c.values["top_degree_pairs"])
            elif "conservative one-face" in c.name:
                expected += int(c.values["top_degree_pairs"])
        assert expected > 0
        assert calls["phi"] == calls["phi_inverse"] == expected

    def test_seeded_suite_deterministic(self):
        kwargs = dict(n_exhaustive=1, sampled=(4,), samples=30, seed=5)
        a = report_render(run_suite("degree-bounds", **kwargs), "json")
        b = report_render(run_suite("degree-bounds", **kwargs), "json")
        assert a == b

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_maps_match_label_level_draws(self, monkeypatch, seed):
        # every sample is weighed once, by the history drawn for it
        weighed = weighed_samples(monkeypatch)
        report = run_suite("degree-bounds", n_exhaustive=0, sampled=(3, 4),
                           samples=25, seed=seed)
        assert report.passed
        assert weighed == label_level_samples(seed, (3, 4), 25)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_default_sizes_match_label_level_draws(self, monkeypatch, seed):
        weighed = weighed_samples(monkeypatch)
        report = run_suite("degree-bounds", n_exhaustive=0, sampled=(4, 5),
                           samples=200, seed=seed)
        assert report.passed
        assert weighed == label_level_samples(seed, (4, 5), 200)

    @pytest.mark.parametrize("seed", range(10))
    def test_shuffle_draws_as_random_shuffle(self, seed):
        # _draw_sample's four shuffles are random.Random.shuffle's: the
        # history and the generator's state after the draw agree
        for n in range(7):
            ours, theirs = random.Random(seed), random.Random(seed)
            _, h = _draw_sample(ours.getrandbits, list(range(2 * n)),
                                _shuffle_steps(2 * n), _shuffle_steps(n))
            _, history = shuffled_sample(theirs, n)
            assert h == history
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("seed", range(10))
    def test_random_pairing_pairs_a_random_shuffle(self, seed):
        # each of _draw_sample's three pairings pairs consecutive entries
        # of random.Random.shuffle's order of the positions
        for n in range(7):
            positions = list(range(2 * n))
            pairings, _ = _draw_sample(random.Random(seed).getrandbits,
                                       positions, _shuffle_steps(2 * n),
                                       _shuffle_steps(n))
            assert pairings == shuffled_sample(random.Random(seed), n)[0]
            assert positions == list(range(2 * n))

    def test_sampled_maps_are_valid(self, monkeypatch):
        # the sampler builds its maps unvalidated; each must be one the
        # validating constructor accepts and rebuilds equal
        weighed = weighed_samples(monkeypatch)
        report = run_suite("degree-bounds", n_exhaustive=0, sampled=(4, 5),
                           samples=500, seed=0)
        assert report.passed
        assert [m.n for m, _ in weighed] == [4] * 500 + [5] * 500
        for m, _ in weighed:
            assert NonOrientedMap.from_arrays(m.labels, m._b, m._w, m._e) == m

    def test_class_verdict_fails_a_genus_that_is_not_a_half_integer(
            self, monkeypatch):
        # the bound is 2 * genus as an int; a genus off the half-integers
        # fails the class rather than giving a truncated bound
        verify = importlib.import_module("monmap.verify")
        maps = [m for m, _ in maps_by_class(3)]
        for m in maps:
            bound, ok = _class_verdict(m)
            assert ok and type(bound) is int
            assert bound == 2 * structure(m).genus
        real = verify.structure
        for shift in (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 4)):
            monkeypatch.setattr(verify, "structure", lambda m: dataclasses.
                                replace(real(m), genus=real(m).genus + shift))
            assert not any(_class_verdict(m)[1] for m in maps)

    def test_sampled_part_decides_each_class_once(self, monkeypatch):
        verify = importlib.import_module("monmap.verify")
        calls = []
        real = verify.structure
        monkeypatch.setattr(verify, "structure",
                            lambda m: calls.append(m) or real(m))
        report = verify.suite_degree_bounds(n_exhaustive=0, sampled=(3, 4),
                                            samples=200, seed=0)
        assert report.passed
        classes = {canonical_form(m)
                   for m, _ in label_level_samples(0, (3, 4), 200)}
        assert len(calls) == len(classes) < 400

    def test_sampled_part_looks_classes_up_by_side_trace(self, monkeypatch):
        # every sample goes through the canonical form, which traces each
        # component once, from its first side (a connected sample's key is
        # its side-0 trace), and looks it up in the table of rooted traces.
        # A known rooting costs that one BFS; a miss is a new class, traced
        # once more from each of its sides, and all of those traces become
        # keys.  mon fills the table too, between samples, so the rule is
        # replayed on the table as each sample found it
        maps = importlib.import_module("monmap.maps")
        verify = importlib.import_module("monmap.verify")
        real = maps._component_trace
        calls = []
        monkeypatch.setattr(maps, "_component_trace",
                            lambda *args: calls.append(args) or real(*args))
        seen = []  # (sample, table keys before, traces made, keys after)

        class Spy(verify.ClassMemo):
            def get(self, m, compute):
                before, made = set(maps._COMPONENT_FORMS), len(calls)
                maps.canonical_form(m)
                seen.append((m, before, len(calls) - made,
                             set(maps._COMPONENT_FORMS)))
                return super().get(m, compute)
        monkeypatch.setattr(verify, "ClassMemo", Spy)
        weighed = weighed_samples(monkeypatch)
        clear_caches()
        report = run_suite("degree-bounds", n_exhaustive=0, sampled=(3, 4),
                           samples=200, seed=0)
        assert report.passed
        assert [id(m) for m, *_ in seen] == [id(m) for m, _ in weighed]
        hits = misses = disconnected = traced = 0
        for m, before, made, after in seen:
            b, w, e = m._b, m._w, m._e
            ids, count, _ = m._component_data
            disconnected += count > 1
            known, expected = set(before), 0
            for c in range(count):
                sides = [i for i, cid in enumerate(ids) if cid == c]
                rooted = [bytes(real(b, w, e, s)) for s in sides]
                if rooted[0] in known:
                    hits += 1
                    expected += 1
                    continue
                misses += 1
                expected += 1 + len(sides)
                assert not known & set(rooted)  # no rooting of it is a key
                known.update(rooted)
            assert (made, after) == (expected, known)
            traced += made
        assert len(seen) == 400 and disconnected > 0
        assert hits > misses > 0
        # fewer traces than one per side of every sample
        assert traced < sum(len(m._b) for m, *_ in seen)

    def test_sampled_part_traces_each_map_once(self, monkeypatch):
        # the suite's class lookup, then mon_top_detail's and mon's, read
        # the canonical form kept on the sample, made from one side-0
        # trace; the list keeps every map alive, so ids are not reused
        cached = NonOrientedMap.__dict__["_canonical"]
        real, traced = cached.fn, []
        monkeypatch.setattr(cached, "fn",
                            lambda m: traced.append(m) or real(m))
        clear_caches()
        report = run_suite("degree-bounds", n_exhaustive=0, sampled=(3, 4),
                           samples=200)
        assert report.passed
        ids = [id(m) for m in traced]
        assert len(ids) == len(set(ids)) > 200

    def test_sampled_part_takes_empty_and_one_edge_maps(self):
        report = run_suite("degree-bounds", n_exhaustive=0, sampled=(0, 1),
                           samples=5)
        assert report.passed

    def test_genus_off_by_one_fails(self, monkeypatch):
        # a larger genus loosens deg <= 2*genus; the top-degree maps, where
        # n + |F| - |V| is 2*genus, must catch it
        verify = importlib.import_module("monmap.verify")
        real = verify.structure
        monkeypatch.setattr(verify, "structure", lambda m: dataclasses.replace(
            real(m), genus=real(m).genus + 1))
        report = verify.suite_degree_bounds(n_exhaustive=2, sampled=(3, 4),
                                            samples=50)
        assert report.passed is False
        assert [c.passed for c in report.checks] == [True, False, False, False]

    def test_exhaustive_part_bounds_mon_by_genus(self, monkeypatch):
        # deg mon at n + |F| - |V| keeps that bound but passes 2 * genus on
        # every map with more faces than components
        verify = importlib.import_module("monmap.verify")
        monkeypatch.setattr(verify, "mon", lambda m: GammaPoly(
            (0,) * verify.mon_top_degree_target(m) + (1,)))
        report = verify.suite_degree_bounds(n_exhaustive=2, sampled=(3, 4),
                                            samples=50)
        assert [c.passed for c in report.checks] == [True, False, False, False]

    def test_degree_bounds_route_mismatch_fails_without_raising(
            self, monkeypatch):
        verify = importlib.import_module("monmap.verify")
        monkeypatch.setattr(verify, "mon_top_detail",
                            lambda m: (Fraction(1, 3), Fraction(0)))
        report = verify.suite_degree_bounds(n_exhaustive=2, sampled=(3, 4),
                                            samples=50)
        assert [c.passed for c in report.checks] == [True, False, False, False]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_liberation_oriented_tables_keyed_by_canonical_form(self, n):
        # the suite groups each side by class_stream; here every map is
        # keyed by its own canonical form
        verify = importlib.import_module("monmap.verify")
        lhs, rhs = Counter(), Counter()
        for om, size in transitive_pairs_by_class(n):
            lhs[canonical_form(side_label(om))] += (
                size * math.factorial(2 * n))
        for m in all_maps(n):
            if structure(m).components == 1 and is_orientable(m):
                rhs[canonical_form(m)] += 2 * math.factorial(n)
        assert verify._liberation_oriented_tables(n, False) == (lhs, rhs)

    def test_main_theorem_small(self):
        report = run_suite("main-theorem", ns=(1, 2))
        assert report.passed
        blob = report_render(report, "csv").decode()
        header = blob.splitlines()[0].split(",")
        for col in ("lhs_num", "lhs_den", "rhs_num", "rhs_den"):
            assert col in header

    def test_every_suite_registered_with_defaults(self):
        assert set(SUITES) == {
            "mon-examples", "edge-types", "lemma-equivalence",
            "degree-bounds", "liberation-nonoriented", "liberation-oriented",
            "main-theorem", "key-bijection", "second-main-theorem",
            "jack-oracle", "stanley-special", "counting"}

    def test_first_failure_surfaces(self):
        report = make_report()
        assert report.first_failure.name == "second"

    def test_bijection_alias(self):
        report = run_suite("bijection", ns=(1,), conservative_n=2)
        assert report.suite == "key-bijection"
        assert report.passed
