"""Checks of the benchmark itself: tracer bindings, exact counts, output contract.

    python3 -m pytest bench/test_bench.py -q

These start benchmark processes and take about a minute; the repository's own
test suite does not collect them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("expr", "descent", "linalg", "cli")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, seed: int, trace: int, root: str = ROOT):
    argv = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_counts(workload: str, seed: int) -> dict:
    result = result_of(run_bench(workload, seed, trace=1))
    assert result["correct"], result
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.fixture
def tracer():
    sys.path[:0] = [SRC, HERE]
    import intalg  # noqa: F401
    from tracer import Tracer

    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_self_check_passes(tracer):
    from tracer import self_check

    assert self_check(tracer) == []


def test_self_check_reports_a_missed_binding(tracer):
    from tracer import self_check

    cli = sys.modules["intalg.cli"]
    cli.matmul = cli.matmul.__wrapped__
    problems = self_check(tracer)
    assert any("intalg.cli.matmul" in p for p in problems)


def test_uninstall_restores_every_binding():
    sys.path[:0] = [SRC, HERE]
    import intalg
    from tracer import Tracer

    before = {name: getattr(intalg, name) for name in ("alg_mul", "embed", "matmul", "exp")}
    t = Tracer()
    t.install()
    t.uninstall()
    assert {name: getattr(intalg, name) for name in before} == before
    assert sys.modules["intalg.exprcalc"].FUNCTIONS["exp"] is before["exp"]


def test_generated_expressions_stay_in_the_float_domain():
    sys.path[:0] = [SRC, HERE]
    import reference
    import workloads

    outcomes = set()
    for seed in range(20):
        for task in workloads.Expr().block(seed, 0):
            if task["kind"] == "gen":
                expected = reference.expected_expression(
                    task["node"], task["bindings"], task["order"], task["mode"]
                )
                outcomes.add(expected[0])
    assert outcomes == {"value", "typed"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_and_follow_the_seed(workload):
    first = traced_counts(workload, 11)
    assert first == traced_counts(workload, 11)
    assert first != traced_counts(workload, 12)


def test_metrics_match_the_spec():
    end_to_end = result_of(run_bench("linalg", 3, trace=0))
    assert set(end_to_end) == {"correct", "attempted", "failed", "metrics"}
    assert end_to_end["attempted"] >= 100
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in end_to_end["metrics"].items()} == want
    per_layer = result_of(run_bench("linalg", 3, trace=1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in per_layer["metrics"].items()} == want
    assert per_layer["metrics"]["linalg.mul_per_matmul"]["value"] > 27


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("expr", 1, trace=0, root=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
