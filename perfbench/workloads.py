"""The benchmark's workloads: which ``repro`` command lines run, and how each output is checked.

Every workload is a sequence of passes.  A pass has a *cold* phase (the
timed work: outputs computed from scratch) and a *warm* phase (the same
command lines rerun against the cache or point store the cold phase filled).
A :class:`Step` is one ``repro`` invocation with the check of its output; a
check returns ``None`` or the reason the output is wrong.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Largest |numpy - native| difference of a fig6 BLER or throughput value
#: (the repository's max-log decoder BLER-parity tolerance).
PARITY_TOLERANCE = 0.05

#: The golden-backed smoke runs: (golden file stem, ``repro run`` arguments).
GOLDEN_RUNS = tuple(
    (name, ["run", name])
    for name in ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "power_savings")
) + tuple(
    (f"scenario-{name}", ["run", "scenario", name])
    for name in (
        "jakes-doppler-sweep",
        "jakes-harq-gain",
        "clustered-vs-uniform",
        "soft-vs-hard-faults",
        "clustered-interleaver-depth",
    )
)

class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed build or reference)."""


Check = Callable[[bytes, Dict[str, Any]], Optional[str]]


@dataclass
class Step:
    """One ``repro`` invocation of a pass and the check of its output."""

    label: str
    argv: List[str]
    out: Path
    check: Check


def same_bytes(expected: bytes, what: str) -> Check:
    def check(data: bytes, _record: Dict[str, Any]) -> Optional[str]:
        return None if data == expected else f"output differs from {what}"

    return check


def fig6_table(data: bytes) -> List[Dict[str, Any]]:
    return json.loads(data)["tables"]["table"]["rows"]


def fig6_packets(data: bytes) -> int:
    """Packet lifetimes behind a (non-adaptive) fig6 output."""
    table = json.loads(data)["tables"]["table"]
    meta = table["metadata"]
    per_die = max(1, meta["num_packets"] // meta["num_fault_maps"])
    return per_die * meta["num_fault_maps"] * len(table["rows"])


def fig6_sanity(data: bytes, scale: str, seed: int) -> Optional[str]:
    """Checks any fig6 output must pass, whatever its seed."""
    try:
        payload = json.loads(data)
        params = payload["identity"]["scale_params"]
        rows = fig6_table(data)
    except (ValueError, KeyError) as exc:
        return f"not a fig6 result: {exc!r}"
    if payload["identity"]["seed"] != seed or payload["identity"]["scale"] != scale:
        return "identity names another seed or scale"
    if len(rows) != len(params["defect_rates"]) * len(params["snr_points_db"]):
        return f"{len(rows)} rows for a {scale} grid"
    for row in rows:
        if not (0 <= row["bler"] <= 1 and 0 <= row["throughput"] <= 1):
            return f"row out of range: {row}"
        if not 1 <= row["avg_transmissions"] <= 4:
            return f"row out of range: {row}"
    return None


def parity(numpy_output: bytes) -> Check:
    """Native rows within :data:`PARITY_TOLERANCE` of the numpy rows of the same seed."""
    expected = fig6_table(numpy_output)

    def check(data: bytes, _record: Dict[str, Any]) -> Optional[str]:
        backend = json.loads(data)["identity"]["kwargs"].get("decoder_backend", {})
        if backend.get("name") != "native-f32":
            return f"decoded with {backend.get('name')!r}, not native-f32"
        rows = fig6_table(data)
        if len(rows) != len(expected):
            return "row count differs from the numpy output"
        for got, want in zip(rows, expected):
            if (got["defect_rate"], got["snr_db"]) != (want["defect_rate"], want["snr_db"]):
                return "grid differs from the numpy output"
            for column in ("bler", "throughput"):
                if abs(got[column] - want[column]) > PARITY_TOLERANCE:
                    return f"{column} at {want['defect_rate']}/{want['snr_db']} dB off by more than {PARITY_TOLERANCE}"
        return None

    return check


def all_of(*checks: Check) -> Check:
    def check(data: bytes, record: Dict[str, Any]) -> Optional[str]:
        for one in checks:
            problem = one(data, record)
            if problem:
                return problem
        return None

    return check


def reused_everything(_data: bytes, record: Dict[str, Any]) -> Optional[str]:
    if "computed 0 point(s)" not in record["stderr"]:
        return "warm rerun recomputed grid points"
    return None


# --------------------------------------------------------------------------- #
class Workload:
    """Base class: a named set of command lines plus their checks."""

    name = ""
    why = ""
    #: Reruns in the warm phase; ``warm_wall_s`` is the median over them.
    warm_reruns = 1
    #: Whether the workload's processes run on several CPUs at once (else
    #: the benchmark keeps them on one).
    parallel = False
    #: Share of the workload's time that slows with shared cache and memory
    #: contention rather than with the core (see ``speed.SpeedProbe``).
    stream_weight = 0.0

    def __init__(self, scale: str = "default") -> None:
        self.scale = scale

    def prepare(self, bench: Any) -> None:
        """Untimed set-up before the first pass (references, warm-up)."""

    def cold(self, bench: Any, pass_dir: Path) -> List[Step]:
        raise NotImplementedError

    def warm(self, bench: Any, pass_dir: Path, cold_outputs: Sequence[bytes]) -> List[Step]:
        raise NotImplementedError

    def packets(self, cold_records: Sequence[Dict[str, Any]]) -> int:
        """Monte-Carlo packet lifetimes simulated by one cold phase."""
        return sum(record["report"]["packets"] for record in cold_records)

    def input_size(self) -> Dict[str, Any]:
        return {"scale": self.scale}


class Fig6(Workload):
    """``repro run fig6`` with a fresh point store (cold) and the same store (warm)."""

    extra: Sequence[str] = ()
    #: Decoder of the serial output the cold runs are checked against.
    reference_decoder = "numpy"
    warm_reruns = 2

    def argv(self, bench: Any, pass_dir: Path, out: str) -> List[str]:
        return [
            "run", "fig6", "--scale", self.scale, "--seed", str(bench.seed), "--no-cache",
            "--point-store", str(pass_dir / "points"), "--out", str(pass_dir / out), *self.extra,
        ]  # fmt: skip

    def cold_check(self, bench: Any) -> Check:
        raise NotImplementedError

    def prepare(self, bench: Any) -> None:
        if "native-f32" in self.extra and not bench.provenance["native_build"]:
            raise BenchError(
                "the native decoder extension did not build; see "
                f"{bench.tree / 'build.log'} (no fallback to numpy)"
            )
        bench.warm_up(["run", "fig6", "--scale", "smoke", "--no-cache", *self.extra])
        self.reference = bench.reference(self.scale, self.reference_decoder)

    def cold(self, bench: Any, pass_dir: Path) -> List[Step]:
        return [Step("cold", self.argv(bench, pass_dir, "cold.json"), pass_dir / "cold.json", self.cold_check(bench))]

    def warm(self, bench: Any, pass_dir: Path, cold_outputs: Sequence[bytes]) -> List[Step]:
        check = all_of(same_bytes(cold_outputs[0], "the cold run"), reused_everything)
        return [
            Step(f"warm-{i}", self.argv(bench, pass_dir, f"warm-{i}.json"), pass_dir / f"warm-{i}.json", check)
            for i in range(self.warm_reruns)
        ]

    def packets(self, cold_records: Sequence[Dict[str, Any]]) -> int:
        """The reference's packet count: every checked output has its grid."""
        return fig6_packets(self.reference) if self.reference is not None else 0



class Fig6Default(Fig6):
    name = "fig6-default"
    why = (
        "the paper's headline figure at everyday scale, serial numpy decoder; "
        "decode is most of compute, so decoder-kernel work shows here"
    )
    #: The numpy decoder streams through batch-sized arrays.  Of the weights
    #: 0, 0.25, 0.5, 0.75 and 1, 0.25 gave the steadiest wall_s and
    #: packets_per_s over 5 seeds (0 was best for fig6-socket).
    stream_weight = 0.25

    def prepare(self, bench: Any) -> None:
        bench.warm_up(["run", "fig6", "--scale", "smoke", "--no-cache"])
        self.reference = bench.reference(self.scale, compute=False)

    def cold_check(self, bench: Any) -> Check:
        """Byte equality with the kept (or first) output of this seed.

        Without a kept output for the seed, the first cold output must pass
        :func:`fig6_sanity`; it then becomes the seed's reference for the
        remaining passes and for the other fig6 workloads.
        """

        def check(data: bytes, record: Dict[str, Any]) -> Optional[str]:
            if record["report"]["packets"] != fig6_packets(data):
                return "simulated packet count does not match the output's grid"
            if self.reference is None:
                problem = fig6_sanity(data, self.scale, bench.seed)
                if problem:
                    return problem
                self.reference = data
                bench.save_reference(self.scale, "numpy", data)
            return same_bytes(self.reference, "the reference output")(data, record)

        return check


class Fig6Native(Fig6):
    name = "fig6-default-native"
    why = (
        "the same run on the native C decoder; decode is small, so start-up, "
        "front end and the HARQ buffer path dominate"
    )
    extra = ("--decoder-backend", "native-f32")

    def cold_check(self, bench: Any) -> Check:
        sanity: Check = lambda data, _record: fig6_sanity(data, self.scale, bench.seed)
        return all_of(sanity, parity(self.reference))


class Fig6Socket(Fig6):
    name = "fig6-socket"
    why = (
        "cold native fig6 over 2 socket worker daemons with a fresh point store, "
        "then warm reruns; the only path through backends, point store and journal"
    )
    extra = ("--execution-backend", "socket", "--socket-workers", "2", *Fig6Native.extra)
    parallel = True
    reference_decoder = "native-f32"

    def cold_check(self, bench: Any) -> Check:
        return same_bytes(self.reference, "the serial output of the same seed")


class GoldenSmoke(Workload):
    name = "golden-smoke"
    why = (
        "the 13 golden-backed smoke runs as separate processes, in a seed-shuffled "
        "order; start-up bound and the widest range of physics paths"
    )

    def __init__(self, runs: Sequence = GOLDEN_RUNS) -> None:
        super().__init__("smoke")
        self.runs = list(runs)

    def prepare(self, bench: Any) -> None:
        bench.warm_up(["run", "fig6", "--scale", "smoke", "--no-cache"])
        self.order = list(self.runs)
        random.Random(bench.seed).shuffle(self.order)
        self.goldens = {stem: bench.golden(stem) for stem, _ in self.order}

    def _steps(self, pass_dir: Path, suffix: str) -> List[Step]:
        steps = []
        for stem, argv in self.order:
            out = pass_dir / f"{stem}{suffix}.json"
            argv = [*argv, "--cache-dir", str(pass_dir / "cache"), "--out", str(out)]
            steps.append(Step(stem + suffix, argv, out, same_bytes(self.goldens[stem], f"tests/golden/{stem}.json")))
        return steps

    def cold(self, bench: Any, pass_dir: Path) -> List[Step]:
        return self._steps(pass_dir, "")

    def warm(self, bench: Any, pass_dir: Path, cold_outputs: Sequence[bytes]) -> List[Step]:
        return self._steps(pass_dir, ".warm")

    def input_size(self) -> Dict[str, Any]:
        return {"scale": "smoke", "seed_of_runs": 2012, "order": [stem for stem, _ in self.order]}


#: The workloads of ``BENCHMARK.json``.
WORKLOADS = {w.name: w for w in (Fig6Default, Fig6Socket)}
#: Runnable by name, but left out of ``BENCHMARK.json``: a run must last
#: about a minute for its medians to be steady on a shared 2-core host, and
#: the repeated runs that judge a change (22 per workload) must finish within
#: an hour, which leaves room for two workloads.  Every layer these exercise
#: is also measured by the two above.
EXTRA_WORKLOADS = {w.name: w for w in (Fig6Native, GoldenSmoke)}
