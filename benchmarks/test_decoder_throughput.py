"""Benchmarks: pipeline throughput per stage, backend and batch size.

``BENCH_decoder.json`` (the name is historical — it now covers the whole
pipeline) collects three sections: the turbo-decoder kernel comparison
below, the end-to-end llr-dtype link benchmark, and the link front-end
section (seed-serial vs batched transmit/channel/equalize/demap) produced
by :mod:`repro.runner.bench` / ``repro bench front-end``.

Decoder section:

Measures information bits decoded per second on a realistic mixed-noise
workload (rows from clean to garbage, like a Monte-Carlo sweep's decode
calls) for

* the **seed** kernel — a faithful copy of the pre-engine decoder, kept in
  :mod:`repro.runner.bench` as the fixed baseline,
* every available backend of the new engine (numpy, numpy-f32, plus numba /
  native / cupy when importable),

at the batch sizes that occur at smoke scale: 8 (one work-item chunk /
fault-map die) and 32 (the cross-work-item aggregated batch,
``DEFAULT_AGGREGATE_PACKETS``), plus 128 for headroom.  Every test here
writes its section into a ``BENCH_decoder.json`` under pytest's
``tmp_path``, so running the suite never touches the tracked copy at the
repository root; ``repro bench decoder|front-end`` is the only writer of
that file.

Set ``REPRO_BENCH_STRICT=1`` to also assert the engine's speedup targets —
numpy backend >= 3x the seed kernel at the aggregated batch sizes (>= 32)
and for the aggregated pipeline, >= 2.5x at batch 8 (measured ~6x on a
2-vCPU Xeon container; the looser bound absorbs shared-machine jitter).  Kept opt-in because
wall-clock ratios are flaky on shared CI machines.
"""

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.scales import SCALES
from repro.phy.turbo import TurboCode, TurboDecoder
from repro.phy.turbo.backends import available_backends
from repro.phy.turbo.interleaver import TurboInterleaver
from repro.runner.bench import _SeedTurboDecoder
from repro.runner.tasks import DEFAULT_AGGREGATE_PACKETS

BATCH_SIZES = (8, DEFAULT_AGGREGATE_PACKETS, 128)
REPEATS = 12
#: Per-row noise levels cycled through the batch: solid, moderate, hard,
#: hopeless — the convergence mix a sweep's decode calls actually see.
NOISE_SIGMAS = (0.8, 1.5, 2.2, 3.0)

# --------------------------------------------------------------------------- #
@dataclass
class _Workload:
    block_size: int
    num_iterations: int
    interleaver: TurboInterleaver
    batches: dict = field(default_factory=dict)


def _build_workload() -> _Workload:
    scale = SCALES[os.environ.get("REPRO_BENCH_SCALE", "smoke")]
    config = scale.link_config()
    k = config.block_size
    code = TurboCode(k, num_iterations=scale.turbo_iterations)
    rng = np.random.default_rng(2012)
    workload = _Workload(
        block_size=k,
        num_iterations=scale.turbo_iterations,
        interleaver=code.encoder.interleaver,
    )
    for batch in BATCH_SIZES:
        rows = []
        for i in range(batch):
            bits = rng.integers(0, 2, k, dtype=np.int8)
            coded = code.encode(bits)
            noise = rng.normal(0.0, NOISE_SIGMAS[i % len(NOISE_SIGMAS)], coded.size)
            rows.append((1.0 - 2.0 * coded.astype(np.float64)) * 2.0 + noise)
        llrs = np.stack(rows)
        workload.batches[batch] = (
            llrs[:, :k],
            np.ascontiguousarray(llrs[:, k::2]),
            np.ascontiguousarray(llrs[:, k + 1 :: 2]),
        )
    return workload


def _throughput(decode, batch_inputs, block_size: int, batch: int) -> float:
    """Best-of-groups throughput: the minimum elapsed time over several
    timed groups is the least-noise estimate on a shared machine."""
    decode(*batch_inputs)  # warm-up (JIT compilation, workspace growth)
    best = float("inf")
    for _group in range(3):
        start = time.perf_counter()
        for _ in range(REPEATS):
            decode(*batch_inputs)
        best = min(best, (time.perf_counter() - start) / REPEATS)
    return batch * block_size / best


def test_decoder_throughput_benchmark(tmp_path):
    workload = _build_workload()
    k, iterations = workload.block_size, workload.num_iterations

    backends = ["numpy", "numpy-f32"]
    for optional in ("numba", "native", "native-f32", "cupy-f32"):
        if optional in available_backends():
            backends.append(optional)

    results = {"seed": {}}
    for name in backends:
        results[name] = {}

    for batch, inputs in workload.batches.items():
        seed_decoder = _SeedTurboDecoder(k, iterations, workload.interleaver)
        results["seed"][batch] = _throughput(seed_decoder.decode, inputs, k, batch)
        for name in backends:
            decoder = TurboDecoder(
                k, iterations, interleaver=workload.interleaver, backend=name
            )
            results[name][batch] = _throughput(decoder.decode, inputs, k, batch)

    speedup_vs_seed = {
        name: {
            str(batch): results[name][batch] / results["seed"][batch]
            for batch in workload.batches
        }
        for name in backends
    }
    # What the pipeline change actually did to smoke-scale decode calls: the
    # seed pipeline decoded per-chunk batches of 8; the aggregation layer
    # pools work items into batches of DEFAULT_AGGREGATE_PACKETS.
    aggregated_speedup = (
        results["numpy"][DEFAULT_AGGREGATE_PACKETS] / results["seed"][BATCH_SIZES[0]]
    )

    payload = {
        "block_size": k,
        "num_iterations": iterations,
        "batch_sizes": list(workload.batches),
        "info_bits_per_second": {
            name: {str(batch): value for batch, value in per_batch.items()}
            for name, per_batch in results.items()
        },
        "kernel_speedup_vs_seed": speedup_vs_seed,
        "aggregated_pipeline_speedup": aggregated_speedup,
        "aggregate_packets": DEFAULT_AGGREGATE_PACKETS,
        "available_backends": list(available_backends()),
    }
    (tmp_path / "BENCH_decoder.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    print()
    for name, per_batch in results.items():
        for batch, value in per_batch.items():
            ratio = value / results["seed"][batch]
            print(f"{name:10s} batch={batch:4d}: {value:10.0f} info bits/s ({ratio:4.2f}x seed)")
    print(f"aggregated pipeline (numpy@{DEFAULT_AGGREGATE_PACKETS} vs seed@8): {aggregated_speedup:.2f}x")

    assert all(v > 0 for per in results.values() for v in per.values())
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert aggregated_speedup >= 3.0, payload
        for batch in workload.batches:
            floor = 3.0 if batch >= DEFAULT_AGGREGATE_PACKETS else 2.5
            assert speedup_vs_seed["numpy"][str(batch)] >= floor, payload


# --------------------------------------------------------------------------- #
# decoder backend-family sweep (families x batch x threads + BLER parity)
# --------------------------------------------------------------------------- #
def test_decoder_backend_sweep(tmp_path):
    """Sweep every available decoder family across batch sizes and threads.

    Delegates to :mod:`repro.runner.bench` (also exposed as ``repro bench
    decoder``): throughput per backend token at each batch size, the
    speedup of every token against the ``numpy-f32`` baseline, an ``@t<N>``
    thread-scaling series for threaded families (recorded with the
    machine's ``cpu_count`` so single-core containers are reported
    honestly), and a paired seeded BLER sweep holding the fastest
    non-exact family within ``DECODER_BLER_TOLERANCE`` of the numpy
    reference.  Results land in the ``decoder_backends`` section of
    ``BENCH_decoder.json``.  The >= 3x native-vs-numpy-f32 target at the
    widest batch gates only under ``REPRO_BENCH_STRICT=1`` (and only when
    the extension is built); the always-on assertions are positive
    throughput and BLER parity within tolerance.
    """
    from repro.runner.bench import run_and_record_decoder_backends

    scale = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    section = run_and_record_decoder_backends(
        scale, path=tmp_path / "BENCH_decoder.json"
    )
    assert all(
        value > 0
        for per_token in section["info_bits_per_second"].values()
        for value in per_token.values()
    )
    parity = section.get("bler_parity")
    if parity is not None:
        assert parity["within_tolerance"], parity
    if (
        os.environ.get("REPRO_BENCH_STRICT") == "1"
        and "native-f32" in section["info_bits_per_second"]
    ):
        widest = str(max(section["batch_sizes"]))
        speedup = section["speedup_vs_numpy_f32"]["native-f32"][widest]
        assert speedup >= 3.0, section


# --------------------------------------------------------------------------- #
# end-to-end link-LLR dtype benchmark (the opt-in LinkConfig.llr_dtype mode)
# --------------------------------------------------------------------------- #
LINK_BENCH_PACKETS = 16
LINK_BENCH_SNR_DB = 14.0
LINK_BENCH_SEED = 2012


def test_link_llr_dtype_benchmark(tmp_path):
    """Measure the float32 end-to-end link-LLR mode against the default.

    Times full packet lifetimes (transmit -> channel -> equalize -> demap ->
    HARQ buffer -> decode) at one mid-range SNR for the float64 default and
    the opt-in ``llr_dtype="float32"`` + ``numpy-f32`` decoder pairing, and
    records packets-per-second (and the speedup ratio) under the
    ``link_llr_dtype`` key of ``BENCH_decoder.json``.  Non-gating on speed:
    the mode trades precision for memory traffic, and wall-clock ratios are
    flaky on shared machines — the assertion is only that both modes run.
    """
    from repro.experiments.scales import SCALES as ALL_SCALES
    from repro.link.system import HspaLikeLink

    scale = ALL_SCALES[os.environ.get("REPRO_BENCH_SCALE", "smoke")]
    modes = {
        "float64": scale.link_config(),
        "float32": scale.link_config(llr_dtype="float32", decoder_backend="numpy-f32"),
    }
    throughput = {}
    for mode, config in modes.items():
        link = HspaLikeLink(config)
        link.simulate_packets(LINK_BENCH_PACKETS, LINK_BENCH_SNR_DB, rng=LINK_BENCH_SEED)
        best = float("inf")
        for _group in range(3):
            start = time.perf_counter()
            link.simulate_packets(
                LINK_BENCH_PACKETS, LINK_BENCH_SNR_DB, rng=LINK_BENCH_SEED
            )
            best = min(best, time.perf_counter() - start)
        throughput[mode] = LINK_BENCH_PACKETS / best

    section = {
        "packets_per_second": throughput,
        "speedup_f32_vs_f64": throughput["float32"] / throughput["float64"],
        "num_packets": LINK_BENCH_PACKETS,
        "snr_db": LINK_BENCH_SNR_DB,
    }
    (tmp_path / "BENCH_decoder.json").write_text(
        json.dumps({"link_llr_dtype": section}, indent=2, sort_keys=True) + "\n"
    )

    print()
    for mode, value in throughput.items():
        print(f"link llr_dtype={mode}: {value:8.1f} packets/s")
    print(f"float32 vs float64: {section['speedup_f32_vs_f64']:.2f}x")
    assert all(v > 0 for v in throughput.values())


# --------------------------------------------------------------------------- #
# link front-end benchmark (batched vs the preserved pre-batching serial path)
# --------------------------------------------------------------------------- #
def test_front_end_benchmark(tmp_path):
    """Measure the batched link front end against the seed serial copy.

    Delegates to :mod:`repro.runner.bench` (also exposed as ``repro bench
    front-end``), which times one HARQ transmission's front end — encode,
    transmit, channel, equalize, demap, HARQ store + combined read — for
    both implementations and asserts they produce byte-identical LLR
    matrices before timing.  Results land in the ``front_end`` section of
    ``BENCH_decoder.json``.  The >= 4x speedup target at batch 32 is gated
    only under ``REPRO_BENCH_STRICT=1`` (wall-clock ratios are flaky on
    shared CI machines); the always-on assertion is byte-identity plus
    positive throughput.
    """
    from repro.runner.bench import (
        FRONT_END_TARGET_SPEEDUP,
        run_and_record_front_end,
    )

    scale = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    section = run_and_record_front_end(scale, path=tmp_path / "BENCH_decoder.json")
    assert all(
        value > 0
        for per_path in section["packets_per_second"].values()
        for value in per_path.values()
    )
    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert section["speedup_vs_seed"]["32"] >= FRONT_END_TARGET_SPEEDUP, section
