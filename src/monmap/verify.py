"""Named verification suites with deterministic reports.

Each suite re-derives one of the package's target identities from scratch
at desk scale and reports per-check pass/fail with exact values.  Rendered
reports are byte-identical across runs: they never include wall-clock data
(the Report object carries runtime separately for display).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .algebra import SQRT2, GammaPoly, Sqrt2
from .bijection import (DichotomyError, NotInDomainError, _level0, phi,
                        phi_inverse)
from .diagrams import (MultiRect, Partition, _one_face_table, _oriented_table,
                       top_map_sums)
from .enumeration import (all_maps, class_stream, conservative_one_face,
                          group_by, involutions, liberal_one_face,
                          maps_by_class, transitive_pairs_by_class)
from .jack import (alpha_of, ch, ch_stanley, jack_in_p, jack_inner_product,
                   partitions_of, stanley_special)
from .maps import (ClassMemo, EdgeKind, NonOrientedMap, _new_map,
                   bicolored_graph, canonical_form, classify_edge,
                   is_orientable, load_fixture, structure)
from .mon import (MonTopMismatch, _failing_prefix, _sides_weight, _states,
                  history_weight, is_top_degree_map, lemma_equivalence_check,
                  mon, mon_top_detail, mon_top_degree_target)
from .oriented import side_label


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    values: dict[str, str] = field(default_factory=dict)


@dataclass
class Report:
    suite: str
    params: dict[str, str]
    checks: list[Check]
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> Check | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None


def report_render(report: Report, fmt: str = "json") -> bytes:
    """Serialize a report; runtime is deliberately omitted in every format."""
    if fmt == "json":
        obj = {
            "suite": report.suite,
            "params": report.params,
            "passed": report.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "values": c.values}
                for c in report.checks
            ],
        }
        return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        keys = sorted({k for c in report.checks for k in c.values})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "passed"] + keys)
        for c in report.checks:
            writer.writerow([c.name, c.passed]
                            + [c.values.get(k, "") for k in keys])
        return buf.getvalue().encode()
    if fmt == "text":
        lines = [f"suite {report.suite}: "
                 + ("PASS" if report.passed else "FAIL")]
        for c in report.checks:
            mark = "ok  " if c.passed else "FAIL"
            extra = "".join(f" {k}={v}" for k, v in sorted(c.values.items()))
            lines.append(f"  [{mark}] {c.name}{extra}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def _frac(x) -> str:
    if isinstance(x, (Fraction, int, Sqrt2)):
        return str(x)
    return repr(x)


# -- suites ------------------------------------------------------------------


def suite_mon_examples() -> Report:
    klein = load_fixture("klein")
    expected = GammaPoly((Fraction(1, 6), 0, Fraction(2, 3)))
    got_poly = mon(klein)
    prob, coeff = mon_top_detail(klein)
    return Report("mon-examples", {}, [
        Check("mon_top(klein) == 2/3", prob == coeff == Fraction(2, 3),
              {"value": _frac(prob)}),
        Check("mon(klein) == 1/6 + (2/3) g^2", got_poly == expected,
              {"value": repr(got_poly)}),
    ])


def suite_edge_types() -> Report:
    pp = load_fixture("projective")
    cases = [((4, 9), EdgeKind.STRAIGHT), ((1, 3), EdgeKind.TWISTED),
             ((6, 13), EdgeKind.INTERFACE)]
    checks = []
    for edge, expected in cases:
        got = classify_edge(pp, edge)
        checks.append(Check(
            f"projective edge {{{edge[0]},{edge[1]}}} is {expected.value}",
            got == expected, {"got": got.value}))
    return Report("edge-types", {}, checks)


def suite_lemma_equivalence(n: int = 3, force: bool = False) -> Report:
    total = tops = 0
    consistent = True
    monic = True
    for m in all_maps(n, force=force):
        for h in permutations(m.edges()):
            rep = lemma_equivalence_check(m, h)
            total += 1
            if not rep.consistent:
                consistent = False
            if rep.top_degree_pair:
                tops += 1
                if rep.leading_coefficient_one is not True:
                    monic = False
    return Report("lemma-equivalence", {"n": str(n)}, [
        Check("conditions A, B, C agree on every (map, history)", consistent,
              {"pairs": str(total)}),
        Check("history weight is monic at |F|+|E|-|V| whenever top-degree",
              monic, {"top_degree_pairs": str(tops)}),
    ])


def _shuffle_steps(size: int) -> tuple[tuple[int, int], ...]:
    """The steps of one shuffle of a list of ``size`` entries: the pairs
    (i, (i + 1).bit_length()) for i from size - 1 down to 1, the position
    swapped at each step and the bits drawn for its partner.  They depend
    on the size alone, so a sampler builds them once per size."""
    return tuple((i, (i + 1).bit_length()) for i in range(size - 1, 0, -1))


def _draw_sample(getrandbits, positions: list, side_steps, edge_steps):
    """One sample of the degree-bounds sampler: ((b, w, e), h), three
    uniform perfect matchings of ``positions`` (``list(range(2n))``) as
    partner tuples and a uniform history of the map they make, as the side
    positions of its edges.

    Each matching shuffles a copy of ``positions`` and pairs consecutive
    entries of the shuffled copy; the history shuffles the edges of the
    third matching in the order of ``m.edges()``.  Every shuffle is that of
    ``random.Random.shuffle``, with its ``getrandbits`` calls: at each step
    (i, k) of ``side_steps`` (``_shuffle_steps(2n)``) or ``edge_steps``
    (``_shuffle_steps(n)``), j is drawn below i + 1 by rejection on k bits
    and x[i] and x[j] are swapped.  A generator drawn from here and one
    that makes the four ``shuffle`` calls give the same sample and end in
    the same state."""
    pairings = []
    for _ in range(3):
        order = positions.copy()
        for i, k in side_steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        partner = positions.copy()
        pairs = iter(order)
        for a, b in zip(pairs, pairs):
            partner[a] = b
            partner[b] = a
        pairings.append(tuple(partner))
    h = [(i, j) for i, j in enumerate(partner) if i < j]
    for i, k in edge_steps:
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        h[i], h[j] = h[j], h[i]
    return tuple(pairings), h


def _class_verdict(m: NonOrientedMap) -> tuple[int, bool]:
    """(2 * genus, whether m keeps the degree laws): deg mon is at most
    n + |F| - |V| and 2 * genus, the two routes to mon_top agree, and on a
    top-degree map (one face per component) n + |F| - |V| is 2 * genus,
    which gives the genus a second route.  Positivity of all weight
    coefficients makes deg mon the max history degree, so 2 * genus also
    bounds every history weight.  2 * genus is an integer on every map;
    it is returned as one (its numerator), and a map on which it is not
    fails, so the bound is never a truncated one."""
    twice = 2 * structure(m).genus
    bound = twice.numerator
    prob, coeff = mon_top_detail(m)
    target = mon_top_degree_target(m)
    return bound, (twice.denominator == 1
                   and mon(m).degree <= min(bound, target) and prob == coeff
                   and (not is_top_degree_map(m) or target == bound))


def suite_degree_bounds(n_exhaustive: int = 3, sampled=(4, 5),
                        samples: int = 10000, seed: int = 0,
                        force: bool = False) -> Report:
    """Every check depends on a map only up to relabelling, so each class is
    decided once, by ``_class_verdict``: the exhaustive part walks one
    weighted representative per isomorphism class (``maps_by_class``,
    weights summed into ``maps``) and weighs its histories, and the
    sampled part keeps one verdict per class in a ``maps.ClassMemo``,
    keyed by the sample's canonical form: one BFS per component of a
    known class, from its first side (a connected sample's side 0), looked
    up in the table of rooted traces, ``maps._COMPONENT_FORMS``.
    Each sample draws its three pairings and its history in one call of
    ``_draw_sample``, with the step tables of its size built once per n,
    and its history weight's degree is compared with the integer bound."""
    checks = []
    # exhaustive regime: every map class and every history
    hist_ok = mon_ok = True
    count = 0
    for n in range(1, n_exhaustive + 1):
        for m, weight in maps_by_class(n, force=force):
            bound, class_ok = _class_verdict(m)
            mon_ok = mon_ok and class_ok
            for h in permutations(m.edges()):
                if history_weight(m, h).degree > bound:
                    hist_ok = False
            count += weight
    checks.append(Check(
        f"exhaustive n<={n_exhaustive}: deg weight <= 2*genus (all histories)",
        hist_ok, {"maps": str(count)}))
    checks.append(Check(
        f"exhaustive n<={n_exhaustive}: deg mon <= n+|F|-|V|, top coeff = mon_top",
        mon_ok, {"maps": str(count)}))

    getrandbits = random.Random(seed).getrandbits
    verdicts = ClassMemo()  # isomorphism class -> _class_verdict
    for n in sampled:
        ok = True
        labels = tuple(range(1, 2 * n + 1))
        positions = list(range(2 * n))
        side_steps, edge_steps = _shuffle_steps(2 * n), _shuffle_steps(n)
        for _ in range(samples):
            pairings, h = _draw_sample(getrandbits, positions, side_steps,
                                       edge_steps)
            # valid by construction, so built unvalidated
            m = _new_map(labels, *pairings)
            bound, class_ok = verdicts.get(m, _class_verdict)
            # the weight's degree is its count of twisted removals
            if not class_ok or _sides_weight(m, h)[0] > bound:
                ok = False
        checks.append(Check(
            f"sampled n={n}: mon and history-weight degree bounds", ok,
            {"samples": str(samples), "seed": str(seed)}))
    return Report("degree-bounds",
                  {"n_exhaustive": str(n_exhaustive), "samples": str(samples),
                   "seed": str(seed)}, checks)


def suite_liberation_nonoriented(ns=(1, 2, 3), force: bool = False) -> Report:
    checks = []
    for n in ns:
        lib = group_by(liberal_one_face(n, force=force))
        con = group_by(conservative_one_face(n, force=force))
        scaled = {k: v * math.factorial(2 * n - 1) for k, v in con.items()}
        checks.append(Check(
            f"n={n}: liberal histogram == (2n-1)! * conservative histogram",
            lib == scaled,
            {"classes": str(len(con)), "liberal_maps": str(sum(lib.values()))}))
    return Report("liberation-nonoriented", {"ns": str(list(ns))}, checks)


def _liberation_oriented_tables(n: int, force: bool):
    """The two sides of the oriented liberation identity at n, keyed by
    the canonical form: (2n)! times the transitive pairs, and
    2 n! times the connected orientable maps of ``all_maps(n)``, each
    side grouped by ``class_stream``.  Every map on either side is
    connected (a side-labelled transitive pair is)."""
    pairs = class_stream((side_label(om), size) for om, size
                         in transitive_pairs_by_class(n, force=force))
    maps = class_stream((m, 1) for m in all_maps(n, force=force)
                        if is_orientable(m) and m._component_data[1] == 1)
    lhs = {canonical_form(m): count * math.factorial(2 * n)
           for m, count in pairs}
    rhs = {canonical_form(m): count * 2 * math.factorial(n)
           for m, count in maps}
    return lhs, rhs


def suite_liberation_oriented(ns=(1, 2, 3), force: bool = False) -> Report:
    checks = []
    for n in ns:
        lhs, rhs = _liberation_oriented_tables(n, force)
        checks.append(Check(
            f"n={n}: (2n)! * transitive pairs == 2*n! * orientable connected maps",
            lhs == rhs, {"classes": str(len(rhs))}))
    return Report("liberation-oriented", {"ns": str(list(ns))}, checks)


def suite_main_theorem(ns=(1, 2, 3, 4, 5), force: bool = False) -> Report:
    checks = []
    for n in ns:
        lhs = _oriented_table(n, force)
        rhs, mismatched = _one_face_table(n, force)
        for key in sorted(set(lhs) | set(rhs) | mismatched):
            l = lhs.get(key, (None, Fraction(0)))[1]
            r = rhs.get(key, (None, Fraction(0)))[1]
            checks.append(Check(
                f"n={n} class {key.decode()}",
                l == r and key not in mismatched,
                {"class": key.decode(),
                 "lhs_num": str(l.numerator), "lhs_den": str(l.denominator),
                 "rhs_num": str(r.numerator), "rhs_den": str(r.denominator)}))
    return Report("main-theorem", {"ns": str(list(ns))}, checks)


def _round_trip(m, h, graph, forward: bool) -> bool:
    """phi (forward) or phi_inverse sends (m, h) into the other domain on
    the same labelled graph (``graph`` is m's), and the other map brings it
    back with the same twists; a refusal or an abort fails.

    The back call's domain check is the landing check: ``phi_inverse``
    refuses a map that is not orientable, and ``phi`` a pair with a prefix
    that is not top-degree, so a trip that did not land in the other
    domain has already failed.  A twist conjugates omega by swaps of
    eps-partners, so every <omega, eps> orbit keeps its label set, and
    ``face_data`` numbers the vertex orbits of both maps identically.  The
    graph is cached on each output map, which the histories of m that
    settle on the same twist set share."""
    there, back = (phi, phi_inverse) if forward else (phi_inverse, phi)
    try:
        res = there(m, h)
        again = back(res.map, h)
    except (NotInDomainError, DichotomyError):
        return False
    return (bicolored_graph(res.map) == graph
            and again.map == m and again.twists == res.twists)


def _round_trips(maps, inverse: bool) -> tuple[int, int, bool]:
    """(top-degree pairs, orientable (map, history) pairs, ok) over every
    history of the maps: each top-degree pair round-trips through phi and,
    when ``inverse`` is set, each orientable pair through phi_inverse.

    Each map is read as the one object of its value in the twist family
    table of ``bijection._level0``, where the level-0 twists of phi and
    phi_inverse land too: a map that an earlier round trip of its family
    reached is that output, with its removals and cached orbit data, and a
    pair that an earlier round trip settled is answered from the family's
    results.  An object that is not equal to the stream map fails the
    check: the family key would then miss part of the map, and the results
    read under it could belong to another map.  A map that is not
    top-degree is the first state of each of its histories, so none of
    them is a top-degree pair, and their states are not walked."""
    pairs = orient_hists = 0
    ok = True
    for m in maps:
        level0 = _level0(m)
        ok = level0 == m and ok
        m = level0
        orientable = inverse and is_orientable(m)
        if orientable:
            orient_hists += math.factorial(m.n)
        graph = bicolored_graph(m)
        top = is_top_degree_map(m)
        # m's own edges as sorted label pairs: a valid history as is
        for h in permutations(m.edges()):
            if top and _failing_prefix(_states(m, h)) is None:
                pairs += 1
                ok = _round_trip(m, h, graph, forward=True) and ok
            if orientable:
                ok = _round_trip(m, h, graph, forward=False) and ok
    return pairs, orient_hists, ok


def suite_key_bijection(ns=(1, 2, 3), conservative_n: int = 4,
                        force: bool = False) -> Report:
    checks = []
    for n in ns:
        pairs, orient_hists, ok = _round_trips(all_maps(n, force=force),
                                               inverse=True)
        checks.append(Check(
            f"n={n}: phi and phi_inverse mutually inverse, graph-preserving",
            ok, {"top_degree_pairs": str(pairs)}))
        checks.append(Check(
            f"n={n}: #top-degree pairs == #(orientable map, history) pairs",
            pairs == orient_hists,
            {"pairs": str(pairs), "orientable_histories": str(orient_hists)}))
    n = conservative_n
    count, _, ok = _round_trips(conservative_one_face(n, force=force),
                                inverse=False)
    checks.append(Check(
        f"n={n}: conservative one-face family, all histories, round trip",
        ok, {"top_degree_pairs": str(count)}))
    return Report("key-bijection",
                  {"ns": str(list(ns)), "conservative_n": str(conservative_n)},
                  checks)


SECOND_THEOREM_POINTS = (
    ((1,), (2,), Fraction(1)),
    ((2,), (3,), Fraction(1)),
    ((1,), (4,), Fraction(2)),
    ((2,), (2,), Fraction(1, 2)),
    ((1, 1), (3, 1), Fraction(1)),
    ((1, 2), (4, 2), Fraction(2)),
    ((2, 1), (2, 1), Fraction(3)),
    ((1, 1, 1), (3, 2, 1), Fraction(1)),
)


def _printed_grid():
    grid = []
    for a in (Fraction(1), Fraction(2)):
        for d in range(1, 6):
            for lam in partitions_of(d):
                pp, qq = Partition(lam).prime_coordinates()
                if len(pp) <= 3:
                    grid.append((pp, qq, a))
    return grid


def suite_second_main_theorem(ns=(1, 2, 3, 4), force: bool = False) -> Report:
    """Both top-degree map sums, from one ``top_map_sums`` call per n over
    the points and, for n <= 3, the closed-form grid; a mon_top route
    mismatch, which that call raises, fails that n's checks.

    The documented reconciliation is chtop = (-1) * ogs_top, and on the
    grid both equal the top part of the closed form."""
    points = [MultiRect.from_primes(*pt) for pt in SECOND_THEOREM_POINTS]
    grid = [MultiRect.from_primes(*pt) for pt in _printed_grid()]
    checks = []
    grid_ok = {}
    for n in ns:
        on_grid = n in (1, 2, 3)
        try:
            sums = top_map_sums(n, points + grid if on_grid else points,
                                force)
        except MonTopMismatch:
            sums = None
        ok = sums is not None and all(
            chtop == -ogs_top for chtop, ogs_top in sums[:len(points)])
        checks.append(Check(
            f"n={n}: oriented sum == (-1) * one-face mon_top sum "
            f"({len(points)} points)", ok,
            {"points": str(len(points)),
             "sign_reconciliation": "chtop = -ogs_displayed"}))
        if on_grid:
            grid_ok[n] = sums is not None and all(
                chtop == -ogs_top == ch_stanley(n, mr.gamma, mr.P, mr.Q)[1]
                for mr, (chtop, ogs_top) in zip(grid, sums[len(points):]))
    for n in sorted(grid_ok):
        checks.append(Check(
            f"n={n}: both map sums equal the closed-form top part "
            f"({len(grid)} grid points)", grid_ok[n],
            {"points": str(len(grid))}))
    return Report("second-main-theorem", {"ns": str(list(ns))}, checks)


def suite_jack_oracle() -> Report:
    checks = []
    alphas = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
    norm_ok = True
    orth_ok = True
    for d in range(1, 6):
        for alpha in alphas:
            fam = {lam: jack_in_p(lam, alpha) for lam in partitions_of(d)}
            for lam, theta in fam.items():
                if theta.get((1,) * d) != 1:
                    norm_ok = False
            items = sorted(fam)
            for i, l1 in enumerate(items):
                for l2 in items[i + 1:]:
                    if jack_inner_product(fam[l1], fam[l2], alpha) != 0:
                        orth_ok = False
    checks.append(Check("theta_{1^n} = 1 for |lambda| <= 5, alpha grid",
                        norm_ok, {"alphas": "1/2,1,2,3"}))
    checks.append(Check("J-orthogonality for |lambda| <= 5, alpha grid",
                        orth_ok, {"alphas": "1/2,1,2,3"}))
    points = 0
    ok = True
    for a in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)):
        for d in range(1, 7):
            for lam in partitions_of(d):
                pp, qq = Partition(lam).prime_coordinates()
                mr = MultiRect.from_primes(pp, qq, a)
                for n in (1, 2, 3):
                    got = ch((n,), lam, a)
                    full, _ = ch_stanley(n, mr.gamma, mr.P, mr.Q)
                    points += 1
                    if got != full:
                        ok = False
    checks.append(Check(
        "ch matches the closed Ch_1/Ch_2/Ch_3 at all realizable points, "
        "|diagram| <= 6", ok, {"points": str(points)}))
    return Report("jack-oracle", {}, checks)


def suite_stanley_special() -> Report:
    """stanley_special once per (alpha, pi) on every lam with |lam| <= 5;
    each pair is also compared with the character ch at its own lam, so a
    value returned for the wrong lam fails."""
    checks = []
    lams = [lam for d in range(1, 6) for lam in partitions_of(d)]
    for a, pis in ((Fraction(1), [(1,), (2,), (3,), (2, 1)]),
                   (SQRT2, [(1,), (2,)]),
                   (Sqrt2(0, Fraction(1, 2)), [(1,), (2,)])):
        alpha = alpha_of(a)
        for pi in pis:
            ok = all(ch(pi, lam, a) == oracle == mapsum
                     for lam, (oracle, mapsum)
                     in zip(lams, stanley_special(pi, lams, alpha)))
            checks.append(Check(
                f"alpha={alpha} pi={list(pi)}: character == map sum "
                f"(all |lambda| <= 5)", ok, {"lambdas": str(len(lams))}))
    return Report("stanley-special", {}, checks)


def suite_counting() -> Report:
    checks = []
    ok = True
    values = []
    for n in range(1, 6):
        count = sum(1 for _ in involutions(range(1, 2 * n + 1)))
        expected = math.prod(range(1, 2 * n, 2))
        values.append(count)
        if count != expected:
            ok = False
    checks.append(Check("involution counts are (2n-1)!! for n <= 5", ok,
                        {"counts": str(values)}))
    ok = True
    values = []
    for n in range(2, 6):
        count = sum(1 for _ in conservative_one_face(n))
        values.append(count)
        if count != math.prod(range(1, 2 * n, 2)):
            ok = False
    checks.append(Check("conservative one-face counts are 3, 15, 105, 945",
                        ok and values == [3, 15, 105, 945],
                        {"counts": str(values)}))
    return Report("counting", {}, checks)


SUITES = {
    "mon-examples": suite_mon_examples,
    "edge-types": suite_edge_types,
    "lemma-equivalence": suite_lemma_equivalence,
    "degree-bounds": suite_degree_bounds,
    "liberation-nonoriented": suite_liberation_nonoriented,
    "liberation-oriented": suite_liberation_oriented,
    "main-theorem": suite_main_theorem,
    "key-bijection": suite_key_bijection,
    "second-main-theorem": suite_second_main_theorem,
    "jack-oracle": suite_jack_oracle,
    "stanley-special": suite_stanley_special,
    "counting": suite_counting,
}


SUITE_ALIASES = {"bijection": "key-bijection"}


def run_suite(name: str, **params) -> Report:
    name = SUITE_ALIASES.get(name, name)
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; one of {sorted(SUITES)}") \
            from None
    start = time.perf_counter()
    report = fn(**params)
    report.runtime = time.perf_counter() - start
    return report
