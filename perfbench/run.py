"""Benchmark entry point: run one workload, check its answers, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig14-check --seed 1 --seconds 40 --trace 0

Every sample runs in a fresh interpreter (``child.py``) with its own
temporary ledger, cache and run directories, a ``PYTHONHASHSEED``
derived from ``--seed``, and no inherited ``REPRO_*`` settings.

``--trace 0`` reports the end-to-end metrics: several set-up-only
interpreters, then untraced passes of the workload for about
``--seconds`` seconds (at least one), medians over the samples.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass plus ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment and the raw samples.  A known-answer mismatch
or a failed sample prints ``"correct": false`` without metrics and exits
with status 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOAD_NAMES = ("fig14-check", "cti-search", "bmc-pool")
SETUP_SAMPLES = 3
#: a run must end well inside three minutes
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("cti_p50_s", "s"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


class SampleFailed(Exception):
    pass


def child_env(seed: int, work: pathlib.Path, index: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED=str(seed % 2**32),
        REPRO_LEDGER_DIR=str(work / f"ledger-{index}"),
        REPRO_CACHE_DIR=str(work / f"cache-{index}"),
        REPRO_RUNS_DIR=str(work / f"runs-{index}"),
    )
    return env


class Runner:
    """Starts the sample interpreters of one run and collects their results."""

    def __init__(self, workload: str, seed: int, work: pathlib.Path,
                 deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.count = 0

    def sample(self, mode: str) -> dict:
        self.count += 1
        out = self.work / f"sample-{self.count}.json"
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "mode": mode,
            "out": str(out),
            "spawned_at": time.monotonic(),
        }
        process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=child_env(self.seed, self.work, self.count),
            cwd=str(ROOT),
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The child's session holds its pool workers too.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        if code != 0:
            reason = "timed out" if code is None else f"exit status {code}"
            raise SampleFailed(f"{mode} sample {self.count}: {reason}")
        return json.loads(out.read_text())


def environment() -> dict:
    sys.path.insert(0, str(ROOT))
    from benchmarks.telemetry import effective_cpus, git_rev

    return {
        "effective_cpus": effective_cpus(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "loadavg_start": os.getloadavg()[0],
    }


def mismatches(passes: list[dict]) -> list[str]:
    return [
        f"pass {index + 1}: answers {sample['answers']} != {sample['expected']}"
        for index, sample in enumerate(passes)
        if sample["answers"] != sample["expected"]
    ]


def end_to_end(setups: list[dict], passes: list[dict]) -> dict[str, float]:
    latencies = [x for sample in passes for x in sample["latencies"]]
    attempted = sum(sample["attempted"] for sample in passes)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups + passes),
        "wall_s": statistics.median(s["wall_s"] for s in passes),
        "cpu_s": statistics.median(s["cpu_s"] for s in passes),
        "cti_p50_s": statistics.median(latencies),
        "decided_ratio": sum(s["decided"] for s in passes) / attempted,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in passes),
    }


def measure(runner: Runner, seconds: float, started: float) -> tuple[list, list]:
    setups = [runner.sample("setup") for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    longest = 0.0
    while True:
        begun = time.monotonic()
        passes.append(runner.sample("pass"))
        longest = max(longest, time.monotonic() - begun)
        now = time.monotonic()
        if now + longest > min(started + seconds, runner.deadline):
            return setups, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, work, started + RUN_DEADLINE_S)
    try:
        if args.trace:
            passes = [runner.sample("pass"), runner.sample("traced")]
        else:
            setups, passes = measure(runner, args.seconds, started)
    except SampleFailed as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        passes = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if passes is None:
        print(json.dumps({"environment": env}))
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ))
        return 1
    attempted = sum(sample["attempted"] for sample in passes)
    failed = attempted - sum(sample["decided"] for sample in passes)
    problems = mismatches(passes)
    for problem in problems:
        print(f"perfbench: known-answer mismatch: {problem}", file=sys.stderr)
    samples = [
        {k: v for k, v in sample.items()
         if k not in ("answers", "expected", "layers")}
        for sample in passes
    ]
    print(json.dumps({"environment": env, "samples": samples}))
    if problems:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        from layers import LAYER_METRICS

        values = dict(passes[1]["layers"])
        values["trace.overhead_ratio"] = passes[1]["wall_s"] / passes[0]["wall_s"]
        units = dict(LAYER_METRICS, **{"trace.overhead_ratio": "ratio"})
    else:
        values = end_to_end(setups, passes)
        units = dict(END_TO_END)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
