"""intalg benchmark: one workload, one seed, end to end or traced per layer.

    python3 bench/run.py --workload {expr,descent,linalg,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The script byte-compiles
``src/intalg``.  With ``--trace 0`` it times seven fresh worker processes from
start to their ``ready`` signal (set-up), then lets one more worker run the
workload for ``S`` seconds; timings are scaled to a reference machine speed
(see speed.py).  With ``--trace 1`` one worker runs a fixed, seeded list of
tasks untraced and then traced, and reports per-layer counts and self times.
Every task's output is checked against an oracle.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts tasks that raised an untyped exception or gave a wrong
answer; ``correct`` is false when any answer was wrong or the tracer's
self-check failed.  Exit code 1 (and no JSON) means the benchmark itself
could not run.  DESIGN.md records the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "intalg")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("expr", "descent", "linalg", "cli")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


def start_worker(args, mode: str):
    """Start a worker and return it with the seconds until it signalled ready."""
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--mode", mode, "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ({mode}) failed during set-up")
    return proc, ready_s


def finish_worker(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args) -> tuple[dict, dict]:
    setup = []
    cal = speed.calibrate()
    for _ in range(SETUP_SAMPLES):
        proc, ready_s = start_worker(args, "setup")
        finish = proc.wait(timeout=WORKER_TIMEOUT_S)
        if finish != 0:
            raise BenchError(f"set-up worker exited with code {finish}")
        new = speed.calibrate()
        setup.append(ready_s * speed.factor(cal, new))
        cal = new
    proc, _ = start_worker(args, "timed")
    raw = finish_worker(proc)
    attempted = sum(raw["statuses"].values())
    failed = attempted - raw["statuses"].get("ok", 0)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_s": (statistics.median(raw["block_tps"]), "tasks/s"),
        "task_p50_ms": (raw["p50_ms"], "ms"),
        "task_p90_ms": (raw["p90_ms"], "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    raw["notes"] = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "throughput_per_s": f"median over {raw['blocks']} blocks (unscaled mean {raw['raw_tps']:.6g})",
        "task_p50_ms": f"{attempted} samples",
        "task_p90_ms": f"{attempted} samples",
    }
    return raw, metrics


def traced(args) -> tuple[dict, dict]:
    proc, _ = start_worker(args, "trace")
    raw = finish_worker(proc)
    raw["notes"] = {}
    return raw, {k: tuple(v) for k, v in raw["layers"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no intalg sources at {PACKAGE}: run from a source checkout", file=sys.stderr)
        return 1
    if not compileall.compile_dir(PACKAGE, quiet=1):
        print("byte-compiling intalg failed", file=sys.stderr)
        return 1
    try:
        raw, metrics = traced(args) if args.trace else end_to_end(args)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    statuses = raw["statuses"]
    attempted = sum(statuses.values())
    failed = attempted - statuses.get("ok", 0)
    correct = statuses.get("wrong", 0) == 0 and raw.get("selfcheck_ok", True)
    for problem in raw["problems"]:
        print(f"problem: {json.dumps(problem)}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"  attempted {attempted}  failed {failed}  (untyped {statuses.get('failed', 0)}, "
        f"wrong {statuses.get('wrong', 0)})  failed_share {failed / attempted:.6g}  correct {correct}"
    )
    for name, (value, unit) in metrics.items():
        note = raw["notes"].get(name, "")
        print(f"  {name:<28} {value:>14.6g} {unit:<8} {note}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
