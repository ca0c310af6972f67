"""One measured interpreter: set up a workload, optionally run it, report.

Started by ``run.py`` in a fresh interpreter for every sample::

    python3 perfbench/child.py SPEC_JSON

``SPEC_JSON`` holds ``workload``, ``seed``, ``mode`` (``setup``: stop when
ready; ``pass``: run the workload untraced; ``traced``: run it with the
layer wrappers installed), ``spawned_at`` (the parent's
``time.monotonic()`` just before the fork, so ``setup_s`` includes
interpreter start-up) and ``out`` (where to write the JSON result).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    """CPU of this process plus every reaped child (the pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def main(spec: dict) -> dict:
    from repro.solver.dispatch import shutdown_pool

    from workloads import WORKLOADS

    setup, run, expected = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["mode"] == "traced":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    context = setup(spec["seed"])
    out = {"setup_s": time.monotonic() - spec["spawned_at"]}
    if spec["mode"] == "setup":
        return out
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    result = run(context)
    out["wall_s"] = time.perf_counter() - started
    shutdown_pool()
    out["cpu_s"] = _cpu_seconds() - cpu_before
    out["peak_rss_mb"] = _peak_rss_mb()
    out.update(
        latencies=result.latencies,
        attempted=result.attempted,
        decided=result.decided,
        answers=result.answers,
        expected=expected(),
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    with open(spec["out"], "w") as handle:
        json.dump(result, handle)
