"""One cold-cache benchmark worker.

Started fresh for every workload repetition, so monmap's memo dicts and
lru caches start empty, as they do for each ``monmap verify`` invocation.

Protocol on stdin/stdout, one JSON document per line:
  1. after importing ``monmap.cli`` and building its parser it prints
     ``{"ready": true}`` (the parent times set-up up to this line);
  2. it reads one job ``{"suites": [[name, params], ...], "trace": bool}``,
     or ``null`` to exit without work;
  3. it runs ``verify.run_suite`` then ``verify.report_render(.., "json")``
     per suite, exactly the calls ``monmap verify`` makes, and prints one
     result line.  It reports both wall and CPU time with the
     ``perf_counter`` interval they cover; ``perf_counter`` is the
     system-wide monotonic clock, so the parent can match the interval
     against its own host-speed samples.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import monmap
    import monmap.cli

    monmap.cli.build_parser()
    print(json.dumps({"ready": True}), flush=True)

    job = json.loads(sys.stdin.readline())
    if job is None:
        return 0
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracer_mod

        tracer = tracer_mod.install()
    # looked up after install() so the wrapped entry points are the ones called
    verify = sys.modules["monmap.verify"]

    suites = []
    pc, cpu = time.perf_counter, time.process_time
    start, start_cpu = pc(), cpu()
    for name, params in job["suites"]:
        t0, c0 = pc(), cpu()
        report = verify.run_suite(name, **params)
        t1, c1 = pc(), cpu()
        blob = verify.report_render(report, "json")
        suites.append({"name": name, "start": t0, "end": t1, "wall_s": t1 - t0,
                       "cpu_s": c1 - c0, "render_s": pc() - t1,
                       "report": blob.decode()})
    end, end_cpu = pc(), cpu()

    result = {
        "start": start, "end": end, "wall_s": end - start,
        "cpu_s": end_cpu - start_cpu,
        "suites": suites,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kernel_backend": getattr(monmap, "KERNEL_BACKEND", "python"),
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
