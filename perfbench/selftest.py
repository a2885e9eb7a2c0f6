"""Self-test of the benchmark: a tiny dry run of every workload at smoke scale.

Run with ``python3 perfbench/run.py --self-test`` (two to three minutes).  It checks
that

* ``BENCHMARK.json`` names exactly the workloads of ``workloads.WORKLOADS``
  and the metrics of ``report.py``, with their units and directions;
* an untraced pass of each workload is correct and its result has the
  contract's schema (``correct``, ``attempted``, ``failed``, ``metrics`` with
  every end-to-end metric and its unit);
* a traced pass reports every per-layer metric, and its shares plus set-up
  add up to the traced wall within a few per cent;
* a corrupted (truncated) output is counted as failed, so it raises
  ``error_rate``.

Exit code 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

import report
import run
from workloads import EXTRA_WORKLOADS, GOLDEN_RUNS, WORKLOADS, Fig6Default, Fig6Socket, GoldenSmoke

#: Largest accepted distance of the traced coverage from 1.
COVERAGE_TOLERANCE = 0.05


def tiny(name: str):
    """The smoke-scale stand-in of a workload (two golden runs for golden-smoke)."""
    if name == GoldenSmoke.name:
        return GoldenSmoke(runs=GOLDEN_RUNS[1:2] + GOLDEN_RUNS[3:4])
    return {**WORKLOADS, **EXTRA_WORKLOADS}[name]("smoke")


def result_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The result object ``run.main`` prints as its last line, round-tripped through JSON."""
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = report.with_units(result["metrics"])
    return json.loads(json.dumps(line))


def schema_problems(line: Dict[str, Any], expected: List[tuple]) -> List[str]:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        problems.append("attempted is not a positive whole number")
    if not isinstance(line["failed"], int):
        problems.append("failed is not a whole number")
    names = [name for name, _, _ in expected]
    if sorted(line["metrics"]) != sorted(names):
        problems.append(f"metric names {sorted(line['metrics'])} != {sorted(names)}")
    for name, unit, _ in expected:
        entry = line["metrics"].get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"metric {name}: {entry}")
    return problems


def definition_problems() -> List[str]:
    definition = run.load_definition()
    problems = []
    if [w["name"] for w in definition["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for key, table in (("end_to_end", report.END_TO_END), ("per_layer", report.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in definition[key]]
        if declared != list(table):
            problems.append(f"BENCHMARK.json {key} differs from report.py")
    why = {w["name"]: w["why"] for w in definition["workloads"]}
    for name, workload in WORKLOADS.items():
        if why.get(name) != workload.why:
            problems.append(f"BENCHMARK.json why of {name} differs from workloads.py")
    return problems


def dry_run(workload, *, trace: bool = False, corrupt=()) -> Dict[str, Any]:
    bench = run.Bench(
        run.DEFAULT_SEED, parallel=workload.parallel, stream_weight=workload.stream_weight, corrupt=corrupt
    )
    try:
        return run.measure(bench, workload, 0.0, trace=trace)
    finally:
        bench.close()


def main() -> int:
    problems = definition_problems()
    for name in [*WORKLOADS, *EXTRA_WORKLOADS]:
        result = dry_run(tiny(name))
        problems += [f"{name}: {p}" for p in result["failures"]]
        problems += [f"{name}: {p}" for p in schema_problems(result_line(result), report.END_TO_END)]
        print(f"self-test {name}: {result['attempted']} invocation(s), {result['failed']} failed")

    for workload, busy in ((tiny(GoldenSmoke.name), "phy.turbo.decode_calls"), (Fig6Socket("smoke"), "runner.backends.frames_sent")):
        traced = dry_run(workload, trace=True)
        label = f"traced {workload.name}"
        problems += [f"{label}: {p}" for p in traced["failures"]]
        problems += [f"{label}: {p}" for p in schema_problems(result_line(traced), report.PER_LAYER)]
        coverage = traced["metrics"]["trace.coverage"]
        if abs(coverage - 1) > COVERAGE_TOLERANCE:
            problems.append(f"{label}: shares plus set-up cover {coverage:.1%} of the traced wall")
        if not traced["metrics"][busy] > 0:
            problems.append(f"{label}: no {busy} recorded")
        print(f"self-test {label}: coverage {coverage:.3f}; " + report.shares_line(traced["metrics"]))

    corrupted = dry_run(Fig6Default("smoke"), corrupt=["cold"])
    if corrupted["failed"] < 1 or corrupted["correct"]:
        problems.append("a corrupted output was not counted as failed")
    print(
        f"self-test corrupted output: {corrupted['failed']} of {corrupted['attempted']} failed, "
        f"error_rate {corrupted['failed'] / corrupted['attempted']:.3g}"
    )

    for problem in problems:
        print(f"self-test problem: {problem}")
    print("self-test " + ("passed" if not problems else f"FAILED ({len(problems)} problem(s))"))
    return 0 if not problems else 1
