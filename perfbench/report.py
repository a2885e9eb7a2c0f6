"""Metric names and how each is computed from the benchmark's invocation records.

An invocation record (built by ``run.py``) holds the parent-side timestamps
``spawn`` and ``end`` (``time.monotonic``), the child's ``report`` written by
``invoke.py`` (``ready``, ``main_start``, ``main_end``, telemetry counters,
spans when traced), the peak RSS and the captured stderr.  A pass is the
``cold`` and ``warm`` lists of records of one repetition of a workload.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Sequence

from spans import SPAN_NAMES

#: (name, unit, better) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("packets_per_s", "1/s", "higher"),
    ("warm_wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer metrics of a traced run (name, unit, better).
PER_LAYER = (
    ("import.total_s", "s", "lower"),
    ("import.repro_core_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("phy.turbo.decode_s", "s", "lower"),
    ("phy.turbo.decode_calls", "count", "lower"),
    ("phy.turbo.rows", "count", "lower"),
    ("phy.turbo.rows_per_call", "count", "higher"),
    ("phy.turbo.iterations_ratio", "ratio", "lower"),
    ("phy.encode_s", "s", "lower"),
    ("phy.transmit_s", "s", "lower"),
    ("channel.apply_s", "s", "lower"),
    ("equalizer.front_end_s", "s", "lower"),
    ("harq.store_s", "s", "lower"),
    ("harq.load_s", "s", "lower"),
    ("harq.ops", "count", "lower"),
    ("memory.read_s", "s", "lower"),
    ("memory.reads", "count", "lower"),
    ("memory.buffer_setup_s", "s", "lower"),
    ("link.rounds", "count", "lower"),
    ("link.self_s", "s", "lower"),
    ("runner.tasks", "count", "lower"),
    ("runner.task_p50_ms", "ms", "lower"),
    ("runner.task_p75_ms", "ms", "lower"),
    ("runner.journal.appends", "count", "lower"),
    ("runner.journal.append_s", "s", "lower"),
    ("runner.point_store.writes", "count", "lower"),
    ("runner.point_store.hits", "count", "higher"),
    ("runner.point_store.misses", "count", "lower"),
    ("runner.point_store.hit_ratio", "ratio", "higher"),
    ("runner.point_store.load_s", "s", "lower"),
    ("runner.point_store.store_s", "s", "lower"),
    ("runner.backends.frames_sent", "count", "lower"),
    ("runner.backends.bytes_sent", "bytes", "lower"),
    ("runner.backends.recv_wait_s", "s", "lower"),
    ("runner.backends.worker_ready_s", "s", "lower"),
    ("runner.backends.redeliveries", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("host.slowdown", "ratio", "lower"),
    ("share.setup", "ratio", "lower"),
    ("share.process_other", "ratio", "lower"),
) + tuple((f"share.{name}", "ratio", "lower") for name in SPAN_NAMES)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Inclusive linear-interpolation percentile (0 for no values)."""
    values = sorted(values)
    if not values:
        return 0.0
    position = share * (len(values) - 1)
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def phase_wall(records: Sequence[Dict[str, Any]]) -> float:
    """First spawn to last exit of one phase's invocations."""
    return records[-1]["end"] - records[0]["spawn"] if records else 0.0


def setup_time(record: Dict[str, Any]) -> float:
    """Spawn to ``repro.runner.cli`` imported and ready."""
    return record["report"]["ready"] - record["spawn"]


def telemetry_total(records: Iterable[Dict[str, Any]], name: str, **labels: str) -> float:
    total = 0.0
    for record in records:
        for entry in record["report"]["telemetry"]:
            if entry["name"] == name and all(
                entry["labels"].get(key) == value for key, value in labels.items()
            ):
                total += entry["value"]
    return total


def with_units(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


# --------------------------------------------------------------------------- #
def end_to_end(passes: Sequence[Dict[str, Any]], *, scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of untraced passes (medians).

    Each time is divided by the host's slowdown while it was measured (see
    ``speed.py``), unless *scaled* is false.  ``packets`` of a pass is the
    number of Monte-Carlo packet lifetimes its cold phase simulated (set by
    the workload).
    """

    def by(slowdown: float) -> float:
        return slowdown if scaled else 1.0

    records = [r for p in passes for r in p["cold"] + p["warm"]]
    walls, rates = [], []
    for p in passes:
        wall = phase_wall(p["cold"]) / by(p["cold_slowdown"])
        walls.append(wall)
        setup = sum(setup_time(r) / by(r["setup_slowdown"]) for r in p["cold"])
        rates.append(p["packets"] / (wall - setup))
    return {
        "wall_s": median(walls),
        "setup_s": median(setup_time(r) / by(r["setup_slowdown"]) for r in records),
        "packets_per_s": median(rates),
        "warm_wall_s": median(wall / by(slowdown) for p in passes for wall, slowdown in p["warm_reruns"]),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Self import times (seconds) of one ``-X importtime`` log."""
    totals = {"total": 0.0, "repro": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, _cumulative, module = line.split("|")
        self_s = int(head.split(":")[1]) / 1e6
        module = module.strip()
        totals["total"] += self_s
        for prefix in ("repro", "scipy"):
            if module == prefix or module.startswith(prefix + "."):
                totals[prefix] += self_s
    return totals


def _pass_layers(p: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    records = p["cold"] + p["warm"]
    times = {name: {"total": 0.0, "self": 0.0, "count": 0} for name in SPAN_NAMES}
    counters: Dict[str, float] = {}
    task_ms: List[float] = []
    ready_s: List[float] = []
    link_rounds = 0
    for record in records:
        trace = record["report"]["trace"]
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            entry = times[name]
            entry["total"] += end - start
            entry["self"] += end - start - child_time[index]
            entry["count"] += 1
            if name == "runner.task":
                task_ms.append((end - start) * 1e3)
            if name == "phy.turbo.decode" and parent >= 0:
                link_rounds += spans[parent][0] == "link.simulate_packet_groups"
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        task_ms.extend(trace["task_round_trips_ms"])
        if trace["spawn_time"] is not None and trace["hello_times"]:
            ready_s.append(max(trace["hello_times"]) - trace["spawn_time"])

    wall = phase_wall(p["cold"]) + phase_wall(p["warm"])
    decode_calls = times["phy.turbo.decode"]["count"]
    hits = telemetry_total(records, "store_hits_total", store="point-store")
    misses = telemetry_total(records, "store_misses_total", store="point-store")
    setup = sum(setup_time(r) for r in records)
    other = sum(
        (r["report"]["main_start"] - r["report"]["ready"]) + (r["end"] - r["report"]["main_end"])
        for r in records
    )
    values = {
        "phy.turbo.decode_s": times["phy.turbo.decode"]["total"],
        "phy.turbo.decode_calls": decode_calls,
        "phy.turbo.rows": counters.get("decode_rows", 0),
        "phy.turbo.rows_per_call": counters.get("decode_rows", 0) / decode_calls if decode_calls else 0.0,
        "phy.turbo.iterations_ratio": (
            counters["decode_iterations"] / counters["decode_iterations_configured"]
            if counters.get("decode_iterations_configured")
            else 0.0
        ),
        "phy.encode_s": times["phy.encode"]["total"],
        "phy.transmit_s": times["phy.transmit"]["total"],
        "channel.apply_s": times["channel.apply"]["total"],
        "equalizer.front_end_s": times["equalizer.front_end"]["total"],
        "harq.store_s": times["harq.store"]["total"],
        "harq.load_s": times["harq.load"]["total"],
        "harq.ops": times["harq.store"]["count"] + times["harq.load"]["count"],
        "memory.read_s": times["memory.read"]["total"],
        "memory.reads": times["memory.read"]["count"],
        "memory.buffer_setup_s": times["memory.buffer_setup"]["total"],
        "link.rounds": link_rounds,
        "link.self_s": times["link.simulate_packet_groups"]["self"],
        "runner.tasks": telemetry_total(records, "runner_tasks_total"),
        "runner.task_p50_ms": percentile(task_ms, 0.50),
        "runner.task_p75_ms": percentile(task_ms, 0.75),
        "runner.journal.appends": telemetry_total(records, "journal_appends_total"),
        "runner.journal.append_s": times["runner.journal.append"]["total"],
        "runner.point_store.writes": telemetry_total(
            records, "store_writes_total", store="point-store"
        ),
        "runner.point_store.hits": hits,
        "runner.point_store.misses": misses,
        "runner.point_store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runner.point_store.load_s": times["runner.point_store.load"]["total"],
        "runner.point_store.store_s": times["runner.point_store.store"]["total"],
        "runner.backends.frames_sent": counters.get("frames_sent", 0),
        "runner.backends.bytes_sent": counters.get("bytes_sent", 0),
        "runner.backends.recv_wait_s": times["runner.backends.recv_wait"]["total"],
        "runner.backends.worker_ready_s": median(ready_s),
        "runner.backends.redeliveries": telemetry_total(records, "backend_redeliveries_total"),
        "trace.wall_s": wall,
        "share.setup": setup / wall,
        "share.process_other": other / wall,
    }
    for name in SPAN_NAMES:
        values[f"share.{name}"] = times[name]["self"] / wall
    values["trace.coverage"] = (
        setup + other + sum(times[name]["self"] for name in SPAN_NAMES)
    ) / wall
    imports = [parse_importtime(r["stderr"]) for r in records]
    values["import.total_s"] = median(i["total"] for i in imports)
    values["import.repro_core_s"] = median(i["repro"] for i in imports)
    values["import.scipy_s"] = median(i["scipy"] for i in imports)
    return values


def per_layer(
    plain: Sequence[Dict[str, Any]], traced: Sequence[Dict[str, Any]], slowdown: float
) -> Dict[str, float]:
    """Per-layer metrics (times as measured): medians over traced passes, overhead against untraced ones.

    *slowdown* is the host's mean slowdown over the run (see ``speed.py``).
    """
    per_pass = [_pass_layers(p) for p in traced]
    values = {name: median(v[name] for v in per_pass) for name in per_pass[0]}
    untraced = median(phase_wall(p["cold"]) + phase_wall(p["warm"]) for p in plain)
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced
    values["host.slowdown"] = slowdown
    return {name: values[name] for name, _, _ in PER_LAYER}


def shares_line(values: Dict[str, float]) -> str:
    """Human summary of where a traced run's time went, largest share first."""
    shares = sorted(
        ((name[len("share.") :], value) for name, value in values.items() if name.startswith("share.")),
        key=lambda item: -item[1],
    )
    parts = [f"{name} {value:.1%}" for name, value in shares if value >= 0.005]
    return "shares of traced wall: " + ", ".join(parts)

