"""Self-checks of the benchmark harness.

    python3 -m pytest -q perfbench/selfcheck.py

They prove that the tracing wrappers see every call and change nothing,
that the metric names match BENCHMARK.json, and that the benchmark refuses
to run without the program's sources.  The file is not named ``test_*`` so
the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SMALL = (("lemma-equivalence", {"n": 2}),
         ("key-bijection", {"ns": [1, 2], "conservative_n": 3}),
         ("main-theorem", {"ns": [1, 2, 3]}))


def _job(trace):
    return {"suites": [list(s) for s in SMALL], "trace": trace}


@pytest.fixture(scope="module")
def runs():
    probe = run.SpeedProbe()
    plain = run.spawn(_job(False), 120, probe)[1]
    traced = run.spawn(_job(True), 120, probe)[1]
    return plain, traced


def test_traced_reports_are_byte_identical(runs):
    plain, traced = runs
    assert [s["report"] for s in plain["suites"]] == \
        [s["report"] for s in traced["suites"]]


def test_wrappers_see_every_call(runs):
    _, traced = runs
    snap = traced["trace"]
    reports = {s["name"]: s["report"] for s in traced["suites"]}
    checker = run.Checker(seed=0)
    run.self_check(snap, reports, checker)
    assert checker.failures == [] and checker.attempted == 3
    assert snap["missing"] == []
    lemma = json.loads(reports["lemma-equivalence"])
    pairs = int(lemma["checks"][0]["values"]["pairs"])
    assert snap["functions"]["mon.lemma_equivalence_check"]["calls"] == pairs
    # mon recurses through its module global: one lookup per non-empty map
    assert snap["counts"]["mon.memo.lookups"] > 0
    assert snap["functions"]["mon.mon"]["calls"] > \
        snap["functions"]["mon.mon_top_detail"]["calls"]


def test_self_times_add_up_to_the_suite_time(runs):
    _, traced = runs
    funcs = traced["trace"]["functions"]
    total = funcs["verify.run_suite"]["total_s"]
    self_sum = sum(v["self_s"] for k, v in funcs.items()
                   if k != "verify.report_render")
    assert abs(self_sum - total) <= 1e-6 * len(funcs) + 1e-9 * total
    assert all(v["self_s"] >= -1e-6 for v in funcs.values())


def test_self_check_catches_a_missed_call(runs):
    _, traced = runs
    snap = json.loads(json.dumps(traced["trace"]))
    snap["functions"]["bijection.phi"]["calls"] -= 1
    checker = run.Checker(seed=0)
    run.self_check(snap, {s["name"]: s["report"] for s in traced["suites"]},
                   checker)
    assert len(checker.failures) == 1


def test_metric_names_match_benchmark_json(runs):
    _, traced = runs
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = run.layer_metrics(traced["trace"], run.WORKLOADS["histories"],
                              1.0)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert layer[m["name"]][1] == m["unit"]
    tiny = {"suites": ("mon-examples", "counting"), "lead": "counting",
            "items": 4, "pairs": 0, "min_reps": 1}
    checker = run.Checker(seed=0)
    timed, _ = run.timed(tiny, 0, 0, checker, run.SpeedProbe(),
                         time.perf_counter())
    assert checker.failures == []
    assert sorted(timed) == sorted(m["name"] for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert timed[m["name"]][1] == m["unit"] and timed[m["name"]][0] > 0
    assert sorted(run.WORKLOADS) == sorted(w["name"]
                                           for w in spec["workloads"])


def test_golden_mismatch_fails():
    checker = run.Checker(seed=0)
    checker.report("counting", '{"passed": true}', 0)
    assert checker.failures and checker.attempted == 1


def test_worker_crash_fails_its_suites():
    checker = run.Checker(seed=0)
    bad = {"suites": ("no-such-suite", "counting")}
    assert run.run_rep(bad, 0, False, checker, run.SpeedProbe(),
                       time.perf_counter() + 60) is None
    assert checker.attempted == 2 and len(checker.failures) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identities",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
