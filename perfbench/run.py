#!/usr/bin/env python3
"""Cold-cache benchmark of the ``monmap verify all`` suites.

    python3 perfbench/run.py --workload histories --seed 0 --seconds 20 --trace 0

Three workloads split the twelve suites of ``monmap verify all`` at default
parameters (see README.md for why each exists).  Every repetition of a
workload runs in a fresh worker process, so its caches start cold.  The
worker makes the calls ``monmap verify`` makes: ``verify.run_suite`` then
``verify.report_render``.  Repetitions are closed loop and one at a time.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps each layer's public functions (``tracer.py``) and reports the
per-layer metrics.  Times are worker CPU seconds corrected for the host's
drifting speed (see ``SpeedProbe``).  Every report is checked: all checks must pass and the
bytes must match ``golden.json`` (or, for a seeded suite at a seed other
than 0, match across repetitions).  The last stdout line is the result
object; the line before it holds the run context and the details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "monmap"

IDENTITY_SUITES = ("mon-examples", "edge-types", "liberation-nonoriented",
                   "liberation-oriented", "main-theorem",
                   "second-main-theorem", "jack-oracle", "stanley-special",
                   "counting")

# items: the fixed amount of work behind items_per_s.
#   histories  - (map, history) pairs visited: 20 250 by lemma-equivalence,
#                1 + 54 + 20 250 (all maps, n <= 3) + 2 520 (one-face n = 4)
#                by key-bijection
#   sampled    - maps checked: 3 403 exhaustive + 2 x 10 000 random
#   identities - pass/fail checks in the nine reports
# pairs: (map, history) pairs, the base of mon.remove_edge_per_pair.
# min_reps: sampled is seeded, so it always runs twice to compare bytes.
WORKLOADS = {
    "histories": {"suites": ("lemma-equivalence", "key-bijection"),
                  "lead": "key-bijection", "items": 43075, "pairs": 43075,
                  "min_reps": 1},
    "sampled": {"suites": ("degree-bounds",), "lead": "degree-bounds",
                "items": 23403, "pairs": 20305 + 20000, "min_reps": 2},
    "identities": {"suites": IDENTITY_SUITES, "lead": "main-theorem",
                   "items": 98, "pairs": 0, "min_reps": 1},
}
SEEDED_SUITE = "degree-bounds"

SETUP_SAMPLES = 5       # extra set-up-only workers per timed run
RUN_BUDGET_S = 150.0    # stay under the 180 s a run may take
WORKER_TIMEOUT_S = 170.0
REF_ITERATIONS = 5_000
NOMINAL_CHUNK_S = 0.001  # about the chunk's median on a 2-vCPU Xeon VM
PROBE_PERIOD_S = 0.025

# per-layer metrics: function call counts ...
CALLS = (
    "kernels.orbit_ids2", "kernels.orbit_ids3", "kernels.face_data",
    "kernels.bipartite3",
    "maps.remove_edge", "maps.twist_many", "maps.classify_edge",
    "maps.edge_role", "maps.structure", "maps.is_orientable",
    "maps.graph_class", "maps.canonical_form",
    "mon.mon", "mon.mon_top_detail", "mon.history_weight",
    "mon.failing_prefix", "mon.is_top_degree_pair",
    "mon.lemma_equivalence_check",
    "bijection.phi", "bijection.phi_inverse",
    "oriented.is_transitive", "oriented.graph_class_oriented",
    "diagrams.count_embeddings",
    "jack.jack_in_p", "jack.ch", "jack.ch_stanley", "jack.stanley_special",
)
# ... items yielded by the enumeration generators ...
GENERATED = ("enumeration.all_maps", "enumeration.conservative_one_face",
             "enumeration.transitive_pairs", "enumeration.involutions")
# ... self time of functions every workload reaches (a layer a workload
# never enters would read a constant 0 s) ...
SELF_TIMES = (
    "kernels.orbit_ids2", "kernels.orbit_ids3", "kernels.face_data",
    "maps.remove_edge", "maps.classify_edge", "maps.structure",
    "mon.is_top_degree_map",
)
GENERATOR_TIMES = ("enumeration.all_maps", "enumeration.involutions")
# ... and self time summed per layer, for the layers every workload enters.
LAYER_TIMES = ("kernels", "maps", "mon", "enumeration", "verify")
COUNTS = ("maps.Pairing.built", "mon.memo.entries",
          "diagrams.embed_cache.entries", "jack.family.misses")


# -- workers and the host-speed probe -----------------------------------------


class WorkerFailed(Exception):
    pass


def reference_chunk():
    """Fixed pure-Python work with no monmap code in it."""
    acc = 0
    table = {}
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return table


class SpeedProbe:
    """Samples the speed of the CPU the workers are pinned to.

    The host's speed drifts by tens of percent over seconds to minutes, on
    each vCPU independently, and a process's CPU time drifts with it.  The
    parent shares the workers' CPU and, while a worker runs, times the
    reference chunk in its own CPU time every ``PROBE_PERIOD_S``.  A
    worker's CPU seconds divided by ``factor`` over the same interval are
    seconds at the nominal speed, the speed at which the chunk takes
    ``NOMINAL_CHUNK_S``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self):
        t0, c0 = time.perf_counter(), time.thread_time()
        reference_chunk()
        self.samples.append((t0, time.thread_time() - c0))

    def factor(self, start: float, end: float) -> float:
        inside = [c for t, c in self.samples if start <= t <= end]
        if not inside:  # an interval shorter than the period
            inside = [min(self.samples, key=lambda s: min(
                abs(s[0] - start), abs(s[0] - end)))[1]]
        return statistics.fmean(inside) / NOMINAL_CHUNK_S

    def summary(self) -> dict:
        chunks = [c for _, c in self.samples]
        return {"chunk_s_median": statistics.median(chunks),
                "chunk_s_min": min(chunks), "chunk_s_max": max(chunks),
                "samples": len(chunks)} if chunks else {}


def pin_to_one_cpu() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # workers inherit it
    return cpu


def spawn(job, timeout: float, probe: SpeedProbe):
    """Run one worker; return (corrected set-up seconds, result or None)."""
    before = time.perf_counter()
    probe.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    ready = proc.stdout.readline()
    t1 = time.perf_counter()
    probe.sample()
    setup = (t1 - t0) / probe.factor(before, time.perf_counter())
    done = []
    reader = threading.Thread(target=lambda: done.append(
        proc.communicate(json.dumps(job) + "\n")))
    reader.start()
    deadline = time.perf_counter() + timeout
    while reader.is_alive():
        reader.join(PROBE_PERIOD_S)
        if time.perf_counter() > deadline:
            proc.kill()
            reader.join()
            raise WorkerFailed(f"worker timed out after {timeout:.0f} s")
        probe.sample()
    if proc.poll() is None:  # communicate() raised before the worker ended
        proc.kill()
        proc.wait()
    out, err = done[0] if done else ("", "")
    if not ready.strip() or proc.returncode != 0 or (job and not out.strip()):
        raise WorkerFailed(f"worker exited {proc.returncode}: "
                           f"{err.strip().splitlines()[-1:]}")
    return setup, (json.loads(out.splitlines()[-1]) if job else None)


# -- correctness --------------------------------------------------------------


class Checker:
    """Counts operations (suite reports, self-checks) and failures."""

    def __init__(self, seed: int):
        self.seed = seed
        self.golden = json.loads((HERE / "golden.json").read_text())["sha256"]
        self.first: dict[str, str] = {}
        self.reps = 0
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def report(self, name: str, text: str, rep: int):
        """One operation per report: checks pass, bytes as expected.

        Reports never depend on cache state or tracing, so every
        repetition must match the first; golden bytes apply to every suite
        except the seeded one at a seed other than 0.
        """
        ok = (json.loads(text)["passed"]
              and self.first.setdefault(name, text) == text)
        if name != SEEDED_SUITE or self.seed == 0:
            digest = hashlib.sha256(text.encode()).hexdigest()
            ok = ok and digest == self.golden[name]
        self.check(ok, f"rep {rep}: {name} failed a check or its bytes "
                       "differ from the golden or the first repetition")

    def crashed(self, n_ops: int, rep: int, exc: Exception):
        self.attempted += n_ops
        self.failures.extend([f"rep {rep}: {exc}"] * n_ops)


def run_rep(workload: dict, seed: int, trace: bool, checker: Checker,
            probe: SpeedProbe, deadline: float):
    """One cold worker over the workload's suites; None if it failed."""
    params = {SEEDED_SUITE: {"seed": seed}}
    job = {"suites": [[s, params.get(s, {})] for s in workload["suites"]],
           "trace": trace}
    rep = checker.reps
    checker.reps += 1
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - time.perf_counter()))
    try:
        setup, res = spawn(job, timeout, probe)
    except (WorkerFailed, OSError, ValueError) as exc:
        checker.crashed(len(workload["suites"]), rep, exc)
        return None
    for s in res["suites"]:
        checker.report(s["name"], s["report"], rep)
    res["setup_s"] = setup
    res["workload_s"] = res["cpu_s"] / probe.factor(res["start"], res["end"])
    res["suite_s"] = {s["name"]: s["cpu_s"] / probe.factor(s["start"],
                                                           s["end"])
                      for s in res["suites"]}
    return res


# -- modes --------------------------------------------------------------------


def timed(workload: dict, seed: int, seconds: float, checker: Checker,
          probe: SpeedProbe, start: float):
    """Closed loop of cold repetitions for ``seconds``, then set-up samples."""
    deadline = start + RUN_BUDGET_S
    reps = []
    while True:
        t0 = time.perf_counter()
        res = run_rep(workload, seed, False, checker, probe, deadline)
        if res is None:
            break
        reps.append(res)
        rep_s = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(reps) >= workload["min_reps"] and elapsed + rep_s > seconds:
            break
        if elapsed + rep_s > RUN_BUDGET_S:
            break
    setups = [r["setup_s"] for r in reps]
    for _ in range(SETUP_SAMPLES):
        try:
            setups.append(spawn(None, 30.0, probe)[0])
        except (WorkerFailed, OSError) as exc:
            checker.crashed(1, -1, exc)
    if not reps:
        return {}, {}
    med = statistics.median
    work = [r["workload_s"] for r in reps]
    metrics = {
        "setup_s": (med(setups), "s"),
        "workload_s": (med(work), "s"),
        "lead_suite_s": (med(r["suite_s"][workload["lead"]] for r in reps),
                         "s"),
        "items_per_s": (med(workload["items"] / w for w in work), "1/s"),
        "peak_rss_mb": (med(r["maxrss_kb"] / 1024 for r in reps), "MB"),
    }
    details = {
        "reps": len(reps), "setup_s": setups, "workload_s": work,
        "raw_wall_s": [r["wall_s"] for r in reps],
        "raw_cpu_s": [r["cpu_s"] for r in reps],
        "suite_s": [r["suite_s"] for r in reps],
        "kernel_backend": reps[0]["kernel_backend"],
    }
    return metrics, details


def layer_metrics(snap: dict, workload: dict, overhead: float) -> dict:
    funcs = snap["functions"]
    counts = snap["counts"]

    def f(name, key):
        return funcs.get(name, {}).get(key, 0)

    out = {f"{n}.calls": (f(n, "calls"), "count") for n in CALLS}
    out.update({f"{n}.items": (f(n, "items"), "count") for n in GENERATED})
    out.update({f"{n}.self_s": (f(n, "self_s"), "s") for n in SELF_TIMES})
    out.update({f"{n}.gen_s": (f(n, "self_s"), "s") for n in GENERATOR_TIMES})
    for layer in LAYER_TIMES:
        total = sum(v["self_s"] for k, v in funcs.items()
                    if k.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (total, "s")
    out.update({n: (counts[n], "count") for n in COUNTS})
    lookups = counts["mon.memo.lookups"]
    entries = counts["mon.memo.entries"]
    out["mon.memo.hit_ratio"] = (
        1 - entries / lookups if lookups and entries >= 0 else 0.0, "ratio")
    pairs = workload["pairs"]
    out["mon.remove_edge_per_pair"] = (
        f("maps.remove_edge", "calls") / pairs if pairs else 0.0, "ratio")
    out["trace.overhead"] = (overhead, "x")
    return out


def self_check(snap: dict, reports: dict, checker: Checker):
    """The wrappers saw every call: traced counts equal report counts."""
    funcs = snap["functions"]

    def calls(name):
        return funcs.get(name, {}).get("calls", -1)

    if "lemma-equivalence" in reports:
        rep = json.loads(reports["lemma-equivalence"])
        pairs = int(rep["checks"][0]["values"]["pairs"])
        checker.check(calls("mon.lemma_equivalence_check") == pairs,
                      "traced lemma_equivalence_check calls != report pairs")
    if "key-bijection" in reports:
        rep = json.loads(reports["key-bijection"])
        expected = 0
        for c in rep["checks"]:
            if "mutually inverse" in c["name"]:
                expected += 2 * int(c["values"]["top_degree_pairs"])
            elif "conservative one-face" in c["name"]:
                expected += int(c["values"]["top_degree_pairs"])
        for fn in ("bijection.phi", "bijection.phi_inverse"):
            checker.check(calls(fn) == expected,
                          f"traced {fn} calls != {expected} from the report")


def work_counts(snap: dict) -> dict:
    """Exact work counts that must repeat run to run."""
    funcs = snap["functions"]
    out = {f"{n}.items": funcs.get(n, {}).get("items", 0) for n in GENERATED}
    out["maps.remove_edge.calls"] = funcs.get(
        "maps.remove_edge", {}).get("calls", 0)
    out.update(snap["counts"])
    return out


def traced(workload: dict, seed: int, checker: Checker, probe: SpeedProbe,
           start: float):
    """One untraced and one traced repetition, plus a traced repeat if it fits.

    The traced reports must equal the untraced ones byte for byte, the
    traced call counts must equal the counts the reports state, and the
    exact work counts must repeat.
    """
    deadline = start + RUN_BUDGET_S
    plain = run_rep(workload, seed, False, checker, probe, deadline)
    first = run_rep(workload, seed, True, checker, probe, deadline)
    if plain is None or first is None:
        return {}, {}
    snap = first["trace"]
    self_check(snap, {s["name"]: s["report"] for s in first["suites"]},
               checker)
    if snap["missing"]:
        print(f"warning: not traced, gone from the program: {snap['missing']}",
              file=sys.stderr)
    overhead = first["workload_s"] / plain["workload_s"]
    details = {"overhead": overhead, "missing": snap["missing"],
               "layers": snap["functions"], "counts": snap["counts"],
               "spans": [{"name": s["name"], "arg": s["arg"],
                          "s": s["end"] - s["start"]} for s in snap["spans"]],
               "untraced_suite_s": plain["suite_s"],
               "traced_suite_s": first["suite_s"],
               "kernel_backend": first["kernel_backend"]}
    elapsed = time.perf_counter() - start
    if elapsed + 1.5 * (first["end"] - first["start"]) < RUN_BUDGET_S:
        again = run_rep(workload, seed, True, checker, probe, deadline)
        if again is not None:
            a, b = work_counts(snap), work_counts(again["trace"])
            differ = {k: [a[k], b.get(k)] for k in a if a[k] != b.get(k)}
            details["nondeterministic_counts"] = differ
            if differ:
                print(f"warning: work counts differ between repeats: {differ}",
                      file=sys.stderr)
    else:
        details["nondeterministic_counts"] = "not compared: no time left"
    return layer_metrics(snap, workload, overhead), details


# -- context ------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree (loose refs only)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def run_context() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "commit": git_commit(),
            "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: monmap sources not found at {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    context = run_context()
    context["cpu_index"] = pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    checker = Checker(args.seed)
    probe = SpeedProbe()
    if args.trace:
        metrics, details = traced(workload, args.seed, checker, probe, start)
    else:
        metrics, details = timed(workload, args.seed, args.seconds, checker,
                                 probe, start)
    details["context"] = dict(context, probe=probe.summary())
    details["failures"] = checker.failures
    details["elapsed_s"] = time.perf_counter() - start
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "details": details}, default=str))
    failed = len(checker.failures)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": max(checker.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
