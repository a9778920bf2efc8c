"""Acceptance gate: one test per criterion, exact equality, stated budgets.

Each test prints a single status line (visible with pytest -s and in the
captured output); every numeric comparison is exact rational or Q[sqrt2]
arithmetic, and each criterion asserts its wall-clock budget.  A criterion
that runs a suite at its default parameters also pins the report's JSON
bytes to the suite's digest in perfbench/golden.json.
"""

import hashlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

from monmap.algebra import GammaPoly
from monmap.enumeration import conservative_one_face, involutions
from monmap.maps import EdgeKind, classify_edge, load_fixture
from monmap.mon import mon, mon_top
from monmap.verify import SECOND_THEOREM_POINTS, report_render, run_suite

F = Fraction
GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                     / "golden.json").read_text())["sha256"]


def _criterion(number, name, passed, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {name} "
          f"({elapsed:.1f}s, budget {budget}s)")
    assert passed, f"criterion {number} failed: {name}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def _assert_golden(report):
    blob = report_render(report, "json")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[report.suite], (
        f"{report.suite} report bytes differ from perfbench/golden.json")


def test_criterion_01_mon_examples():
    start = time.perf_counter()
    klein = load_fixture("klein")
    ok = (mon_top(klein) == F(2, 3)
          and mon(klein) == GammaPoly((F(1, 6), 0, F(2, 3))))
    _criterion(1, "mon(klein) and mon_top(klein)", ok,
               time.perf_counter() - start, 1)


def test_criterion_02_edge_type_fixture():
    start = time.perf_counter()
    pp = load_fixture("projective")
    ok = (classify_edge(pp, (4, 9)) == EdgeKind.STRAIGHT
          and classify_edge(pp, (1, 3)) == EdgeKind.TWISTED
          and classify_edge(pp, (6, 13)) == EdgeKind.INTERFACE)
    _criterion(2, "projective-plane edge kinds", ok,
               time.perf_counter() - start, 1)


def test_criterion_03_lemma_equivalence():
    start = time.perf_counter()
    report = run_suite("lemma-equivalence", n=3)
    _criterion(3, "A<=>B<=>C plus monic leading coefficient, all 15^3 maps",
               report.passed, time.perf_counter() - start, 60)
    _assert_golden(report)


def test_criterion_04_degree_bounds():
    start = time.perf_counter()
    report = run_suite("degree-bounds", n_exhaustive=3, sampled=(4, 5),
                       samples=10000, seed=0)
    _criterion(4, "history/mon degree bounds, exhaustive n<=3 and 10^4 "
               "samples at n=4,5", report.passed,
               time.perf_counter() - start, 120)
    _assert_golden(report)


def test_criterion_05_liberation_nonoriented():
    start = time.perf_counter()
    report = run_suite("liberation-nonoriented", ns=(1, 2, 3))
    _criterion(5, "liberal = (2n-1)! x conservative histograms, n<=3",
               report.passed, time.perf_counter() - start, 120)
    _assert_golden(report)


def test_criterion_06_liberation_oriented():
    start = time.perf_counter()
    report = run_suite("liberation-oriented", ns=(1, 2, 3))
    _criterion(6, "oriented edge-liberation multisets, n<=3",
               report.passed, time.perf_counter() - start, 120)
    _assert_golden(report)


def test_criterion_07_main_theorem():
    start = time.perf_counter()
    report = run_suite("main-theorem", ns=(1, 2, 3, 4, 5))
    _criterion(7, "per-graph-class main identity, n=1..5",
               report.passed, time.perf_counter() - start, 60)
    _assert_golden(report)


def test_criterion_08_key_bijection():
    start = time.perf_counter()
    report = run_suite("key-bijection", ns=(1, 2, 3), conservative_n=4)
    _criterion(8, "twist bijection round trip, n<=3 exhaustive and n=4 "
               "one-face family", report.passed,
               time.perf_counter() - start, 300)
    _assert_golden(report)


def test_criterion_09_second_main_theorem():
    start = time.perf_counter()
    report = run_suite("second-main-theorem", ns=(1, 2, 3, 4))
    points = len(SECOND_THEOREM_POINTS)
    assert points >= 5
    _criterion(9, f"top-degree map-sum equality at {points} points per n, "
               "plus closed-form grid", report.passed,
               time.perf_counter() - start, 300)
    _assert_golden(report)


def test_criterion_10_jack_oracle():
    start = time.perf_counter()
    report = run_suite("jack-oracle")
    _criterion(10, "theta normalization, orthogonality, ch vs closed forms",
               report.passed, time.perf_counter() - start, 300)
    _assert_golden(report)


def test_criterion_11_stanley_special_values():
    start = time.perf_counter()
    report = run_suite("stanley-special")
    _criterion(11, "special-value identities at alpha = 1, 2, 1/2",
               report.passed, time.perf_counter() - start, 600)
    _assert_golden(report)


def test_criterion_12_counting_sanity():
    start = time.perf_counter()
    invol_ok = all(
        sum(1 for _ in involutions(range(1, 2 * n + 1)))
        == math.prod(range(1, 2 * n, 2))
        for n in range(1, 6))
    conservative_ok = [sum(1 for _ in conservative_one_face(n))
                       for n in range(2, 6)] == [3, 15, 105, 945]
    _criterion(12, "involution and one-face family counts",
               invol_ok and conservative_ok,
               time.perf_counter() - start, 60)


def test_criterion_13_main_theorem_n6():
    start = time.perf_counter()
    report = run_suite("main-theorem", ns=(6,))
    _criterion(13, "per-graph-class main identity at n=6, one sigma1 per "
               "cycle type", report.passed, time.perf_counter() - start, 15)


def test_criterion_14_degree_bounds_exhaustive_n4():
    start = time.perf_counter()
    report = run_suite("degree-bounds", n_exhaustive=4, sampled=())
    counts = {c.values["maps"] for c in report.checks}
    _criterion(14, "history/mon degree bounds over every map with n<=4, one "
               "weighted representative per isomorphism class",
               report.passed and counts == {"1161028"},
               time.perf_counter() - start, 10)


def test_criterion_15_main_theorem_n7():
    start = time.perf_counter()
    report = run_suite("main-theorem", ns=(7,), force=True)
    _criterion(15, "per-graph-class main identity at n=7, past the "
               "oriented stream's guard of 6", report.passed,
               time.perf_counter() - start, 10)
