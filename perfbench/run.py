#!/usr/bin/env python3
"""End-to-end benchmark of ``repro run``: whole command lines timed from outside.

Usage, from the repository root::

    python3 perfbench/run.py --workload all                       # every workload
    python3 perfbench/run.py --workload fig6-default --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fig6-socket --trace 1     # per-layer spans
    python3 perfbench/run.py --self-test                          # tiny dry run

Each run copies ``src/`` and ``setup.py`` into ``.perfbench-work/tree-<digest>/``
(once per source digest), builds the native decoder there, byte-compiles it
and runs every ``repro`` invocation with its working directory in a work
directory under ``.perfbench-work/``, so caches, stores, journals, the
``.so`` and all outputs stay out of the source tree.  Workloads and their
output checks are in ``workloads.py``; metric definitions in ``report.py``.

A run prepares the workload untimed (one warm-up invocation, the numpy
reference output of the seed if one is needed), then repeats passes until
``--seconds`` is used up (at least one).  Throughout, a probe thread
samples the host's speed on the workload's CPUs (``speed.py``), and every
end-to-end time is divided by the host's slowdown while it was measured.
``--trace 0`` reports the end-to-end metrics of those passes.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones plus the tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``error_rate`` is
``failed / attempted``.  A full record with provenance goes to
``.perfbench-work/results/``, the spans of the last traced pass of each
workload to ``.perfbench-work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import report
import speed
from workloads import EXTRA_WORKLOADS, WORKLOADS, BenchError, Step, Workload, fig6_sanity

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
DEFAULT_SEED = 2012
#: A single invocation taking longer than this is killed and counted failed.
INVOCATION_TIMEOUT_S = 150.0
#: Files of the repository the benchmark builds and checks against.
REQUIRED = ("setup.py", "src/repro/runner/cli.py", "tests/golden")

PROBE = """
import json, platform, numpy, scipy
from repro.phy.turbo.backends import family_listing
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "decoder_families": {f["family"]: f["available"] for f in family_listing()},
}))
"""


#: One BLAS/OpenMP thread per process: the workloads are serial (or one
#: process per worker), and idle BLAS threads spinning on a 2-core host
#: measure the scheduler rather than the program.
SERIAL_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env(tree: Path, tmp: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(SERIAL_THREADS)
    env["PYTHONPATH"] = str(tree / "src")
    env["TMPDIR"] = str(tmp)
    return env


def tree_digest() -> str:
    digest = hashlib.sha256((ROOT / "setup.py").read_bytes())
    for path in sorted((ROOT / "src").rglob("*")):
        skipped = any(p == "__pycache__" or p.endswith(".egg-info") for p in path.parts)
        if path.is_file() and not skipped and path.suffix not in (".so", ".pyc"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prepare_tree() -> Path:
    """The built copy of this checkout's sources (made once per source digest)."""
    missing = [name for name in REQUIRED if not (ROOT / name).exists()]
    if missing:
        raise BenchError(f"not a repro checkout: {', '.join(missing)} missing under {ROOT}")
    tree = WORK / f"tree-{tree_digest()}"
    if (tree / "provenance.json").exists():
        return tree
    staging = WORK / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    shutil.copytree(
        ROOT / "src",
        staging / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc", "*.egg-info"),
    )
    shutil.copy2(ROOT / "setup.py", staging / "setup.py")
    (staging / "tmp").mkdir()
    env = child_env(staging, staging / "tmp")
    with open(staging / "build.log", "wb") as log:
        subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=staging, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=600,
        )  # fmt: skip
    native = any((staging / "src/repro/phy/turbo/backends/_native").glob("_sisokernel*.so"))
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"],
        cwd=staging, env=env, stdout=subprocess.DEVNULL, check=True, timeout=600,
    )  # fmt: skip
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=staging, env=env, capture_output=True, text=True, timeout=300
    )
    if probe.returncode != 0:
        raise BenchError(f"the copied tree does not import:\n{probe.stderr}")
    provenance = json.loads(probe.stdout)
    provenance["native_build"] = native
    (staging / "provenance.json").write_text(json.dumps(provenance, indent=2, sort_keys=True))
    try:
        staging.rename(tree)
    except OSError:  # another run finished the same tree first
        shutil.rmtree(staging, ignore_errors=True)
    return tree


def git_state() -> Dict[str, Any]:
    if not (ROOT / ".git").exists():
        return {"rev": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=60
        ).stdout.strip()

    return {"rev": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain"))}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Bench:
    """One workload run: the built tree, a scratch directory, and the check tally.

    *corrupt* names step labels whose outputs are truncated before they are
    checked (the self-test's proof that a bad output counts as failed).
    """

    def __init__(
        self, seed: int, *, parallel: bool = False, stream_weight: float = 0.0, corrupt: Sequence[str] = ()
    ) -> None:
        if seed < 0:
            raise BenchError("--seed must be non-negative")
        self.seed = seed
        self.corrupt = set(corrupt)
        self.attempted = 0
        self.failures: List[str] = []
        self.tree = prepare_tree()
        self.provenance = json.loads((self.tree / "provenance.json").read_text())
        self.run_dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        (self.run_dir / "tmp").mkdir(parents=True)
        self.env = child_env(self.tree, self.run_dir / "tmp")
        self._count = 0
        # Serial workloads run on one CPU, so that the probe samples the CPU
        # they run on; children inherit the affinity of this (main) thread.
        self._allowed = sorted(os.sched_getaffinity(0))
        cpus = self._allowed if parallel else self._allowed[-1:]
        os.sched_setaffinity(0, cpus)
        self.probe = speed.SpeedProbe(cpus, stream_weight)

    def close(self) -> None:
        self.probe.close()
        os.sched_setaffinity(0, self._allowed)
        shutil.rmtree(self.run_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    def launch(self, argv: Sequence[str], *, trace: bool = False) -> Dict[str, Any]:
        """Run ``repro <argv>`` through ``invoke.py`` and time it from outside."""
        self._count += 1
        base = self.run_dir / f"inv-{self._count:04d}"
        report_path = base.with_suffix(".report.json")
        command = [sys.executable]
        if trace:
            command += ["-X", "importtime"]
        command += [str(HERE / "invoke.py"), str(report_path)]
        if trace:
            command.append("--trace")
        command += ["--", *argv]
        with open(base.with_suffix(".out"), "wb") as out, open(base.with_suffix(".err"), "wb") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(
                command, cwd=self.run_dir, env=self.env, stdout=out, stderr=err,
                start_new_session=True,
            )  # fmt: skip
            killer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the invocation down with us
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing of the invocation outlives it
        record = {
            "argv": list(argv),
            "spawn": spawn,
            "end": end,
            "exit_code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024,
            "stderr": base.with_suffix(".err").read_text(errors="replace"),
        }
        try:
            record["report"] = json.loads(report_path.read_text())
        except (OSError, ValueError):
            empty = {"spans": [], "counters": {}, "task_round_trips_ms": [], "hello_times": [], "spawn_time": None}
            record["report"] = {
                "ready": end, "main_start": end, "main_end": end, "packets": 0,
                "telemetry": [], "trace": empty if trace else None, "missing": True,
            }  # fmt: skip
        record["setup_slowdown"] = self.probe.slowdown(spawn, record["report"]["ready"])
        record["setup_ratios"] = self.probe.ratios(spawn, record["report"]["ready"])
        return record

    def verify(self, step: Step, record: Dict[str, Any]) -> Optional[bytes]:
        """Check one invocation; a non-zero exit or a failed check counts as failed."""
        self.attempted += 1
        data = None
        if record["exit_code"] != 0 or record["report"].get("missing"):
            tail = record["stderr"].strip().splitlines()[-3:]
            problem = f"exit code {record['exit_code']}: {' | '.join(tail)}"
        elif not step.out.exists():
            problem = "no output written"
        else:
            data = step.out.read_bytes()
            if step.label in self.corrupt:
                data = data[: len(data) // 2]
            try:
                problem = step.check(data, record)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            self.failures.append(f"{step.label}: {problem}")
        return data

    def warm_up(self, argv: Sequence[str]) -> None:
        """One untimed invocation that fills OS caches before the timed passes."""
        record = self.launch(argv)
        if record["exit_code"] != 0:
            raise BenchError(f"warm-up `repro {' '.join(argv)}` failed:\n{record['stderr']}")

    def golden(self, stem: str) -> bytes:
        path = ROOT / "tests" / "golden" / f"{stem}.json"
        if not path.exists():
            raise BenchError(f"golden file {path} is missing")
        return path.read_bytes()

    def _reference_paths(self, scale: str, decoder: str) -> List[Path]:
        name = f"fig6-{scale}-{decoder}-seed{self.seed}.json"
        paths = [HERE / "reference" / name, self.tree / "refs" / name]
        if (scale, decoder, self.seed) == ("smoke", "numpy", DEFAULT_SEED):
            paths.insert(0, ROOT / "tests" / "golden" / "fig6.json")
        return paths

    def reference(self, scale: str, decoder: str = "numpy", *, compute: bool = True) -> Optional[bytes]:
        """The serial fig6 output of this seed and decoder: kept, cached, or computed now (untimed)."""
        for path in self._reference_paths(scale, decoder):
            if path.exists():
                return path.read_bytes()
        if not compute:
            return None
        out = self.run_dir / f"reference-{scale}-{decoder}.json"
        argv = ["run", "fig6", "--scale", scale, "--seed", str(self.seed), "--no-cache", "--no-journal"]
        if decoder != "numpy":  # the default decoder leaves the run identity untouched
            argv += ["--decoder-backend", decoder]
        record = self.launch([*argv, "--out", str(out)])
        if record["exit_code"] != 0 or not out.exists():
            problem = f"exit code {record['exit_code']}"
        else:
            problem = fig6_sanity(out.read_bytes(), scale, self.seed)
        if problem:
            raise BenchError(f"reference run `repro {' '.join(argv)}` failed: {problem}\n{record['stderr']}")
        data = out.read_bytes()
        self.save_reference(scale, decoder, data)
        return data

    def save_reference(self, scale: str, decoder: str, data: bytes) -> None:
        path = self._reference_paths(scale, decoder)[-1]
        path.parent.mkdir(exist_ok=True)
        staging = path.with_suffix(f".{os.getpid()}.tmp")
        staging.write_bytes(data)
        staging.replace(path)


# --------------------------------------------------------------------------- #
def run_pass(bench: Bench, workload: Workload, index: int, *, trace: bool) -> Dict[str, Any]:
    """One cold phase, its checks, one warm phase, its checks."""
    pass_dir = bench.run_dir / f"pass-{index}"
    pass_dir.mkdir()
    cold_steps = workload.cold(bench, pass_dir)
    cold = [bench.launch(step.argv, trace=trace) for step in cold_steps]
    outputs = [bench.verify(step, record) for step, record in zip(cold_steps, cold)]
    warm_steps = workload.warm(bench, pass_dir, outputs)
    warm = [bench.launch(step.argv, trace=trace) for step in warm_steps]
    for step, record in zip(warm_steps, warm):
        bench.verify(step, record)
    shutil.rmtree(pass_dir)
    size = len(warm) // workload.warm_reruns
    reruns = [warm[i : i + size] for i in range(0, len(warm), size)]
    return {
        "cold": cold,
        "warm": warm,
        "cold_slowdown": phase_slowdown(bench, cold),
        "cold_ratios": bench.probe.ratios(cold[0]["spawn"], cold[-1]["end"]),
        "warm_reruns": [(report.phase_wall(rerun), phase_slowdown(bench, rerun)) for rerun in reruns],
        "warm_ratios": [bench.probe.ratios(rerun[0]["spawn"], rerun[-1]["end"]) for rerun in reruns],
        "packets": workload.packets(cold),
        "traced": trace,
    }


def phase_slowdown(bench: Bench, records: Sequence[Dict[str, Any]]) -> float:
    return bench.probe.slowdown(records[0]["spawn"], records[-1]["end"])


def measure(bench: Bench, workload: Workload, seconds: float, *, trace: bool) -> Dict[str, Any]:
    """Prepare untimed, then repeat passes until *seconds* are used (at least one)."""
    workload.prepare(bench)
    passes: List[Dict[str, Any]] = []
    start = time.monotonic()
    rounds = 0
    while True:
        passes.append(run_pass(bench, workload, len(passes), trace=False))
        if trace:
            passes.append(run_pass(bench, workload, len(passes), trace=True))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    slowdown = bench.probe.slowdown(start, time.monotonic())
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace:
        values = report.per_layer(plain, traced, slowdown)
        keep_trace(workload.name, traced[-1])
    else:
        values = report.end_to_end(plain)
    return {
        "workload": workload.name,
        "seed": bench.seed,
        "trace": trace,
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures,
        "metrics": values,
        "host": {
            "cpus": bench.probe.cpus,
            "slowdown": slowdown,
            "stream_weight": bench.probe.stream_weight,
            "raw": report.end_to_end(plain, scaled=False),
        },
        "input_size": {
            **workload.input_size(),
            "packets": passes[0]["packets"],
            "tasks": report.telemetry_total(passes[0]["cold"], "runner_tasks_total"),
            "invocations_per_pass": len(passes[0]["cold"]) + len(passes[0]["warm"]),
        },
        "passes": [
            {
                "traced": p["traced"],
                "packets": p["packets"],
                **{
                    phase: [
                        {
                            "argv": r["argv"],
                            "wall_s": r["end"] - r["spawn"],
                            "setup_s": report.setup_time(r),
                            "setup_slowdown": r["setup_slowdown"],
                            "setup_ratios": r["setup_ratios"],
                            "rss_mb": r["rss_mb"],
                            "exit_code": r["exit_code"],
                        }
                        for r in p[phase]
                    ]
                    for phase in ("cold", "warm")
                },
                "cold_slowdown": p["cold_slowdown"],
                "cold_ratios": p["cold_ratios"],
                "warm_reruns": p["warm_reruns"],
                "warm_ratios": p["warm_ratios"],
            }
            for p in passes
        ],
    }


def keep_trace(name: str, traced_pass: Dict[str, Any]) -> None:
    """Write the spans of one traced pass to ``.perfbench-work/traces/<workload>/``."""
    target = WORK / "traces" / name
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    for phase in ("cold", "warm"):
        for index, record in enumerate(traced_pass[phase]):
            (target / f"{phase}-{index:02d}.json").write_text(json.dumps(record))


def provenance(bench: Bench) -> Dict[str, Any]:
    return {
        **bench.provenance,
        **git_state(),
        "source_digest": bench.tree.name[len("tree-") :],
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    workload = {**WORKLOADS, **EXTRA_WORKLOADS}[name]()
    bench = Bench(seed, parallel=workload.parallel, stream_weight=workload.stream_weight)
    try:
        result = measure(bench, workload, seconds, trace=trace)
        result["provenance"] = provenance(bench)
    finally:
        bench.close()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True))
    return result


def summary_lines(result: Dict[str, Any]) -> List[str]:
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"{result['workload']} (seed {result['seed']}, trace {int(result['trace'])}): "
        f"{len(result['passes'])} pass(es), {attempted} invocation(s), {failed} failed, "
        f"error_rate {failed / attempted:.3g}",
        "  input " + json.dumps(result["input_size"], sort_keys=True),
    ]
    lines += [f"  failed check: {problem}" for problem in result["failures"]]
    for name, value in result["metrics"].items():
        lines.append(f"  {name:<36} {value:>14.6g} {report.UNITS[name]}")
    if result["trace"]:
        lines.append("  " + report.shares_line(result["metrics"]))
    return lines


def load_definition() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS, *EXTRA_WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny dry run of the benchmark itself")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.self_test:
            import selftest

            return selftest.main()
        seconds = args.seconds if args.seconds is not None else load_definition()["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(name, args.seed, seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print("\n".join(summary_lines(result)))
    print("provenance " + json.dumps(results[0]["provenance"], sort_keys=True))
    units = report.with_units
    if len(results) == 1:
        final = {key: results[0][key] for key in ("correct", "attempted", "failed")}
        final["metrics"] = units(results[0]["metrics"])
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {r["workload"]: units(r["metrics"]) for r in results},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
