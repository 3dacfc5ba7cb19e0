"""One workload in a fresh process, started by run.py.

The worker imports intalg from the checkout's ``src``, builds the first block
of inputs and prints ``ready``; run.py times that as set-up.  With
``--mode setup`` it stops there.  With ``--mode timed`` it runs whole blocks
until ``--seconds`` have passed and at least ``MIN_TASKS`` tasks are done; with
``--mode trace`` it runs a fixed number of blocks untraced and then traced.
The last line it prints is one JSON object of raw results.
"""

from __future__ import annotations

import argparse
import array
import collections
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# task_p90_ms needs ten samples beyond the percentile.
MIN_TASKS = 100
# Short enough to follow the machine's speed drift, long enough that
# calibrating costs a few percent (in process) or a fifth (cli) of the run.
CALIBRATE_EVERY_S = 0.05
CLI_CALIBRATE_EVERY_S = 0.25


def _describe(task, outcome, status) -> dict:
    shown = {k: v for k, v in task.items() if k not in ("node", "centers", "radii")}
    return {"status": status, "outcome": str(outcome)[:200], "task": str(shown)[:300]}


class Reservoir:
    """A uniform sample of at most ``CAPACITY`` latencies in preallocated memory,
    so the workload's peak memory does not grow with the number of tasks run."""

    CAPACITY = 50_000

    def __init__(self, seed: int):
        self.values = array.array("d", bytes(8 * self.CAPACITY))
        self.seen = 0
        self.rng = random.Random(seed)

    def add(self, value: float) -> None:
        if self.seen < self.CAPACITY:
            self.values[self.seen] = value
        else:
            j = self.rng.randrange(self.seen + 1)
            if j < self.CAPACITY:
                self.values[j] = value
        self.seen += 1

    def sample(self):
        return self.values[: min(self.seen, self.CAPACITY)]


def timed(wl, seed: int, seconds: float, block: list) -> dict:
    """Closed loop over whole blocks; latencies are scaled to the reference speed."""
    from workloads import OK, attempt, cli_env

    if wl.name == "cli":
        env = cli_env(ROOT)
        reference, every = speed.START_REFERENCE_S, CLI_CALIBRATE_EVERY_S

        def measure():
            return speed.interpreter_start(env)

    else:
        measure, reference, every = speed.calibrate, speed.REFERENCE_S, CALIBRATE_EVERY_S
    clock = time.perf_counter
    start = clock()
    latencies = Reservoir(seed)
    raw_busy, block_tps = 0.0, []
    statuses, problems = collections.Counter(), []
    cal = measure()
    index = 0
    while True:
        outcomes, pending, busy = [], [], 0.0
        last = clock()
        for task in block:
            t0 = clock()
            outcomes.append(attempt(wl.run, task))
            t1 = clock()
            pending.append(t1 - t0)
            if t1 - last >= every or len(outcomes) == len(block):
                new = measure()
                scale = speed.factor(cal, new, reference)
                cal = new
                for lat in pending:
                    latencies.add(scale * lat)
                raw_busy += sum(pending)
                busy += scale * sum(pending)
                pending = []
                last = clock()
        block_tps.append(len(block) / busy)
        for task, outcome in zip(block, outcomes):
            status = wl.check(task, outcome)
            statuses[status] += 1
            if status != OK and len(problems) < 5:
                problems.append(_describe(task, outcome, status))
        index += 1
        if clock() - start >= seconds and latencies.seen >= MIN_TASKS:
            break
        block = wl.block(seed, index)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "statuses": dict(statuses),
        "problems": problems,
        "blocks": index,
        "block_tps": block_tps,
        "p50_ms": 1e3 * statistics.median(latencies.sample()),
        "p90_ms": 1e3 * statistics.quantiles(latencies.sample(), n=10)[8],
        "raw_tps": latencies.seen / raw_busy,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def _median_wall_ms(argv, env, n: int = 5) -> float:
    walls = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True, timeout=60)
        walls.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(walls)


def traced(wl, seed: int, first: list) -> dict:
    from tracer import Tracer, self_check
    from workloads import OK, attempt, cli_env

    tasks = first + [t for i in range(1, wl.trace_blocks) for t in wl.block(seed, i)]
    run = wl.run_in_process if wl.name == "cli" else wl.run
    t0 = time.perf_counter()
    untraced = [attempt(run, task) for task in tasks]
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        problems = [{"status": "selfcheck", "problem": p} for p in self_check(tracer)]
        t0 = time.perf_counter()
        outcomes = [attempt(run, task, tracer) for task in tasks]
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    if [o[0] for o in untraced] != [o[0] for o in outcomes]:
        problems.append({"status": "selfcheck", "problem": "traced and untraced outcomes differ"})
    statuses = collections.Counter()
    for task, outcome in zip(tasks, outcomes):
        status = wl.check(task, outcome)
        statuses[status] += 1
        if status != OK and len(problems) < 5:
            problems.append(_describe(task, outcome, status))
    metrics = tracer.layer_metrics(traced_s)
    startup = import_ms = main_ms = 0.0
    if wl.name == "cli":
        env = cli_env(ROOT)
        startup = _median_wall_ms([sys.executable, "-c", "pass"], env)
        import_ms = _median_wall_ms([sys.executable, "-c", "import intalg.cli"], env) - startup
        main_ms = 1e3 * untraced_s / len(tasks)
    metrics["cli.startup_ms"] = (startup, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.main_ms"] = (main_ms, "ms")
    metrics["trace.overhead_share"] = (1.0 - untraced_s / traced_s, "ratio")
    return {
        "statuses": dict(statuses),
        "problems": problems,
        "selfcheck_ok": not any(p["status"] == "selfcheck" for p in problems),
        "layers": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    sys.path[:0] = [SRC, HERE]
    import intalg

    if os.path.dirname(os.path.abspath(intalg.__file__)) != os.path.join(SRC, "intalg"):
        print(f"intalg was imported from {intalg.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    import workloads

    wl = workloads.make(args.workload, ROOT)
    first = wl.block(args.seed, 0)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "timed":
        result = timed(wl, args.seed, args.seconds, first)
    else:
        result = traced(wl, args.seed, first)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
