"""``python -m repro`` — the unified experiment command line.

Subcommands
-----------

``run <experiment>``
    Run one registered experiment (``--scale``, ``--seed``, ``--workers``,
    ``--execution-backend``), consult / fill the on-disk result cache, and
    emit the result as canonical JSON (``--out``) or markdown (default).
``run scenario <name>``
    Run one registered scenario (see :mod:`repro.scenarios`), optionally
    overriding its axes or fields with ``--set field=v1,v2``.  A figure
    scenario with no overrides resolves to the figure's own run identity and
    is byte-identical to its golden snapshot; any override keys a distinct
    cache identity (scenario name + resolved non-default fields).
``list``
    Show registered experiments, scale presets and execution backends.
``scenarios ls [--json]``
    List the scenario registry (human-readable, or machine-readable JSON).
``backends ls [--json]``
    List all three registries — decoder-backend families (with availability
    probes and reasons), execution backends and scenarios — for this machine.
``bler``
    Adaptively estimate the defect-free link BLER at one SNR point, stopping
    once the Wilson interval meets the requested relative error.
``worker``
    Run a distributed-execution worker daemon that connects to a
    ``--execution-backend socket`` coordinator and serves work items.
``golden``
    (Re)generate the golden-seed regression snapshots under ``tests/golden``.
``cache``
    Inspect (``ls``) or evict (``clear``) the result cache.
``serve``
    Expose a result cache (and optionally a shared point store) as a
    read-only JSON HTTP API — see :mod:`repro.runner.serve`.  ``GET
    /metrics`` on the server returns the process telemetry snapshot.
``metrics``
    Summarise a telemetry snapshot file written by ``--metrics-out``
    (``repro run`` / ``repro bler``): counters, gauges, histograms and the
    structured event log.  Telemetry is observability only — it never
    enters a run identity, a cached payload or a golden file.

The execution backend is pure topology — serial, process-pool and
socket-distributed runs of the same plan are byte-identical — so it is
never part of the run identity that keys the cache and the golden files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.scales import SCALES, get_scale
from repro.phy.turbo.backends import backend_names
from repro.runner import chaos
from repro.runner.backends import (
    DEFAULT_BACKEND,
    DEFAULT_PARALLEL_BACKEND,
    TASK_ERROR_POLICIES,
    create_execution_backend,
    execution_backend_names,
    run_worker,
)
from repro.runner.cache import (
    QuarantineStore,
    ResultCache,
    config_digest,
    decoder_backend_identity,
    serialize_payload,
)
from repro.runner.parallel import ParallelRunner
from repro.runner.registry import EXPERIMENTS, run_experiment
from repro.scenarios.engine import run_scenario
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.spec import (
    resolved_scenario_fields,
    resolve_link_config,
    scenario_listing,
)
from repro.runner.tasks import (
    LinkChunkTask,
    count_block_errors,
    count_block_errors_batched,
    resolve_adaptive,
)

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"
#: Seed used throughout the repository's reproducible artefacts.
DEFAULT_SEED = 2012
#: Experiments snapshotted by the golden-seed regression suite (all of them).
GOLDEN_EXPERIMENTS = tuple(EXPERIMENTS)
#: Non-figure scenarios snapshotted as ``tests/golden/scenario-<name>.json``
#: (the new-physics compositions: intra-packet fading, clustered fault maps,
#: transient soft errors).  Figure scenarios need no own snapshots — they are
#: byte-identical to their experiment's golden file by construction.
GOLDEN_SCENARIOS = (
    "jakes-doppler-sweep",
    "jakes-harq-gain",
    "clustered-vs-uniform",
    "soft-vs-hard-faults",
    "clustered-interleaver-depth",
    "stuckat-vs-bitflip",
    "ecc-low-voltage",
)
#: Fault-map sweeps that support ``--adaptive`` early stopping.
ADAPTIVE_EXPERIMENTS = ("fig6", "fig7", "fig8", "fig9")


#: Default coordinator bind address of the socket backend (loopback,
#: ephemeral port); used to detect whether the user set the flag at all.
DEFAULT_SOCKET_BIND = "127.0.0.1:0"


def _decoder_backend_token(value: str) -> str:
    """argparse type for ``--decoder-backend`` (accepts ``@t<N>`` suffixes).

    A static ``choices=`` list cannot enumerate the open-ended thread tokens
    (``native-f32@t4``), so validation goes through the same parser the
    decoder itself uses and bad tokens still fail at argument-parse time.
    """
    from repro.phy.turbo.backends import parse_backend_name

    try:
        parse_backend_name(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags selecting where work items execute (never what they compute)."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: 1, or one per CPU when "
        "--execution-backend is given; 0 = one per CPU; never changes the "
        "results)",
    )
    parser.add_argument(
        "--execution-backend",
        default=None,
        choices=sorted(execution_backend_names()),
        help="execution backend (default: serial, or the local process pool "
        "when --workers > 1); pure topology, never part of the run identity",
    )
    parser.add_argument(
        "--socket-address",
        default=DEFAULT_SOCKET_BIND,
        help="socket backend: coordinator bind address HOST:PORT "
        "(port 0 = ephemeral; non-loopback hosts only on trusted networks)",
    )
    parser.add_argument(
        "--socket-workers",
        type=int,
        default=None,
        help="socket backend: local worker daemons to auto-spawn "
        "(default: --workers; 0 = wait for external `repro worker` daemons)",
    )
    parser.add_argument(
        "--socket-task-timeout",
        type=float,
        default=None,
        help="socket backend: per-task deadline in seconds — a work item "
        "unanswered this long marks its worker hung and is preemptively "
        "requeued to another worker (default: no deadline)",
    )
    parser.add_argument(
        "--socket-worker-slots",
        type=int,
        default=None,
        help="socket backend: concurrent work items per auto-spawned local "
        "daemon (default: 1; 0 = one per CPU of the daemon's machine); "
        "external daemons advertise their own --slots",
    )
    parser.add_argument(
        "--on-task-error",
        default=None,
        choices=sorted(TASK_ERROR_POLICIES),
        help="what a work item that *raises* does to the sweep: 'fail' "
        "(default) aborts with the traceback; 'quarantine' records the item "
        "under <cache-dir>/quarantine/ and completes the sweep without it "
        "(worker crashes are always retried silently — this flag is about "
        "poison tasks, not dead workers)",
    )
    parser.add_argument(
        "--task-attempts",
        type=int,
        default=None,
        metavar="K",
        help="socket backend: retry a raising work item on up to K distinct "
        "workers before applying --on-task-error (default: 1 — no retry; "
        "a deterministic raise fails everywhere, so retries only help "
        "machine-specific breakage)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for resilience testing, e.g. "
        "'drop-send=4;kill-task=2;tear-write=1' (see repro.runner.chaos; "
        "also honours the REPRO_CHAOS environment variable); results must "
        "stay byte-identical under any plan",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's experiments with deterministic parallel sharding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment or scenario")
    run_p.add_argument(
        "experiment",
        choices=list(EXPERIMENTS) + ["scenario"],
        help="experiment name, or the literal 'scenario' followed by a scenario name",
    )
    run_p.add_argument(
        "name",
        nargs="?",
        default=None,
        help="scenario name (only with 'run scenario'; see `repro scenarios ls`)",
    )
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=V1[,V2,...]",
        help="scenario override: replace an axis' values or a scalar field "
        "(only with 'run scenario'; repeatable)",
    )
    run_p.add_argument("--scale", default="smoke", choices=sorted(SCALES), help="scale preset")
    run_p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="experiment seed")
    _add_execution_arguments(run_p)
    run_p.add_argument("--out", type=Path, default=None, help="write canonical JSON here")
    run_p.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSON telemetry snapshot (dispatches, cache hits, "
        "redeliveries, chaos injections, round timings) here when the run "
        "ends; observability only — never part of the run identity or the "
        "result payload (inspect with `repro metrics PATH`)",
    )
    run_p.add_argument("--cache-dir", type=Path, default=Path(DEFAULT_CACHE_DIR))
    run_p.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    run_p.add_argument(
        "--point-store",
        type=Path,
        default=None,
        metavar="DIR",
        help="shared content-addressed store of individual grid-point results: "
        "known points are loaded instead of recomputed, fresh ones stored for "
        "other coordinators; pure topology, never part of the run identity "
        "(keep the directory separate from --cache-dir)",
    )
    run_p.add_argument("--force", action="store_true", help="recompute even on a cache hit")
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from its journal under "
        "<cache-dir>/journal/ (same experiment/scale/seed/flags); completed "
        "grid points are replayed, the rest recomputed — output is "
        "byte-identical to an uninterrupted run",
    )
    run_p.add_argument(
        "--no-journal",
        action="store_true",
        help="skip the crash-safe sweep journal (journaling is on by default "
        "for simulated experiments; the journal is deleted on success)",
    )
    run_p.add_argument(
        "--decoder-backend",
        default=None,
        type=_decoder_backend_token,
        metavar="BACKEND",
        help="turbo-decoder backend, e.g. "
        f"{', '.join(sorted(backend_names()))}; threaded families accept an "
        "@t<N> suffix such as native-f32@t4 (default: the deterministic "
        "numpy kernel; see `repro backends ls`)",
    )
    run_p.add_argument(
        "--adaptive",
        action="store_true",
        help="stop confidently-resolved sweep points before the full packet budget "
        "(fault-map experiments only)",
    )

    sub.add_parser("list", help="list experiments and scale presets")

    scenarios_p = sub.add_parser("scenarios", help="list registered scenarios")
    scenarios_p.add_argument(
        "action", nargs="?", default="ls", choices=("ls",), help="ls: list scenarios"
    )
    scenarios_p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing (one JSON array of scenario descriptions)",
    )

    backends_p = sub.add_parser(
        "backends",
        help="list the decoder, execution and scenario registries with "
        "availability on this machine",
    )
    backends_p.add_argument(
        "action", nargs="?", default="ls", choices=("ls",), help="ls: list backends"
    )
    backends_p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing (one JSON object with decoder_backends, "
        "execution_backends and scenarios)",
    )

    bler_p = sub.add_parser("bler", help="adaptive BLER estimate at one SNR point")
    bler_p.add_argument("--snr", type=float, required=True, help="receive SNR in dB")
    bler_p.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    bler_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_execution_arguments(bler_p)
    bler_p.add_argument("--relative-error", type=float, default=0.3)
    bler_p.add_argument("--confidence", type=float, default=0.95)
    bler_p.add_argument("--bler-floor", type=float, default=1e-2)
    bler_p.add_argument("--chunk-packets", type=int, default=8)
    bler_p.add_argument("--max-packets", type=int, default=None)
    bler_p.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSON telemetry snapshot here when the estimate ends "
        "(inspect with `repro metrics PATH`)",
    )

    golden_p = sub.add_parser("golden", help="regenerate golden regression snapshots")
    golden_p.add_argument(
        "--out-dir", type=Path, default=Path("tests/golden"), help="snapshot directory"
    )
    golden_p.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    golden_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    golden_p.add_argument(
        "--experiments", nargs="*", default=None, help="subset to regenerate (default: all)"
    )

    bench_p = sub.add_parser(
        "bench", help="run a performance benchmark and update BENCH_decoder.json"
    )
    bench_p.add_argument(
        "target",
        choices=("front-end", "decoder"),
        help="benchmark to run (front-end: seed-serial vs batched link front "
        "end; decoder: backend-family throughput/thread/BLER-parity sweep)",
    )
    bench_p.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    bench_p.add_argument(
        "--no-bler",
        action="store_true",
        help="skip the float64-vs-float32 LLR BLER characterisation sweeps",
    )

    worker_p = sub.add_parser(
        "worker", help="serve work items for a socket-distributed coordinator"
    )
    worker_p.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="coordinator address"
    )
    worker_p.add_argument(
        "--connect-retries",
        type=int,
        default=40,
        help="connection attempts before giving up (the daemon may be "
        "started before the coordinator)",
    )
    worker_p.add_argument(
        "--retry-delay", type=float, default=0.5, help="seconds between attempts"
    )
    worker_p.add_argument(
        "--once",
        action="store_true",
        help="exit after the first connection ends instead of reconnecting",
    )
    worker_p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        help="seconds between liveness heartbeats (default: 2; 0 disables "
        "heartbeating and opts out of coordinator staleness enforcement)",
    )
    worker_p.add_argument(
        "--slots",
        type=int,
        default=1,
        help="concurrent work items this daemon advertises and executes "
        "(default: 1; 0 = one per CPU)",
    )

    cache_p = sub.add_parser("cache", help="inspect or evict the result cache")
    cache_p.add_argument(
        "action",
        nargs="?",
        default="ls",
        choices=("ls", "clear"),
        help="ls: list cached runs (default); clear: delete them",
    )
    cache_p.add_argument(
        "--experiment",
        default=None,
        help="restrict ls/clear to one experiment's entries",
    )
    cache_p.add_argument("--cache-dir", type=Path, default=Path(DEFAULT_CACHE_DIR))

    serve_p = sub.add_parser(
        "serve", help="serve cached results as a read-only JSON HTTP API"
    )
    serve_p.add_argument(
        "--cache",
        type=Path,
        default=Path(DEFAULT_CACHE_DIR),
        metavar="DIR",
        help="result cache directory to expose (default: %(default)s)",
    )
    serve_p.add_argument(
        "--point-store",
        type=Path,
        default=None,
        metavar="DIR",
        help="also expose this shared point store under /points",
    )
    serve_p.add_argument(
        "--bind",
        default="127.0.0.1:8000",
        metavar="HOST:PORT",
        help="listen address (default: %(default)s; port 0 = ephemeral; "
        "no authentication — bind non-loopback hosts only on trusted networks)",
    )

    metrics_p = sub.add_parser(
        "metrics", help="summarise a --metrics-out telemetry snapshot file"
    )
    metrics_p.add_argument(
        "snapshot", type=Path, help="snapshot file written by --metrics-out"
    )
    metrics_p.add_argument(
        "--json",
        action="store_true",
        help="re-emit the snapshot as canonical JSON instead of a summary",
    )

    return parser


def make_runner(args: argparse.Namespace) -> ParallelRunner:
    """Build the :class:`ParallelRunner` an execution-flag set asks for."""
    if getattr(args, "chaos", None):
        # Export so auto-spawned socket worker daemons inherit the plan;
        # each process fires its own copy of the directives.
        chaos.activate(args.chaos, export=True)
    name = args.execution_backend
    workers = args.workers
    if name is None:
        workers = 1 if workers is None else workers
        # workers == 0 means "one per CPU" and is therefore parallel.
        name = DEFAULT_BACKEND if workers == 1 else DEFAULT_PARALLEL_BACKEND
    elif workers is None:
        # Naming a backend means "actually use it": scale to one worker per
        # CPU instead of a degenerate single-worker pool (mirrors
        # repro.runner.parallel.resolve_runner).
        workers = 0
    if name != "socket" and (
        args.socket_address != DEFAULT_SOCKET_BIND
        or args.socket_workers is not None
        or args.socket_task_timeout is not None
        or args.socket_worker_slots is not None
    ):
        raise ValueError(
            "--socket-address/--socket-workers/--socket-task-timeout/"
            "--socket-worker-slots require --execution-backend socket"
        )
    if args.task_attempts is not None and name != "socket":
        raise ValueError(
            "--task-attempts requires --execution-backend socket (only the "
            "distributed backend can retry an item on a *different* machine)"
        )
    options: Dict[str, Any] = {}
    if args.on_task_error is not None:
        options["on_task_error"] = args.on_task_error
    if name == "socket":
        options.update(
            bind=args.socket_address,
            local_workers=args.socket_workers,
        )
        if args.socket_task_timeout is not None:
            options["task_timeout"] = args.socket_task_timeout
        if args.socket_worker_slots is not None:
            options["worker_slots"] = args.socket_worker_slots
        if args.task_attempts is not None:
            options["task_attempts"] = args.task_attempts
    backend = create_execution_backend(name, workers=workers, **options)
    if name == "socket" and args.socket_workers == 0:
        # External-worker mode: surface the bound address (the port may be
        # ephemeral) before the run blocks waiting for daemons.
        print(
            f"coordinator listening on {backend.address}; start workers with: "
            f"python -m repro worker --connect {backend.address}",
            file=sys.stderr,
        )
    quarantine_store = None
    if args.on_task_error == "quarantine" and getattr(args, "cache_dir", None) is not None:
        quarantine_store = QuarantineStore(Path(args.cache_dir) / "quarantine")
    return ParallelRunner(workers, backend=backend, quarantine_store=quarantine_store)


# --------------------------------------------------------------------------- #
def run_identity(experiment: str, scale_name: str, seed: int, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """The mapping that keys the cache and annotates every artefact.

    Besides the scale *name*, the identity hashes the resolved scale
    parameters and the derived link configuration, so editing a preset (or a
    ``LinkConfig`` default) invalidates stale cache entries instead of
    silently serving pre-change results.  A requested decoder backend is
    replaced by the backend that will *actually* run — name and compute
    dtype (see :func:`repro.runner.cache.decoder_backend_identity`) — so
    results from different backends are never conflated, while a numba
    request that falls back to numpy shares the numpy entry.
    """
    scale = get_scale(scale_name)
    return {
        "experiment": experiment,
        "scale": scale_name,
        "scale_params": scale,
        "link_config": scale.link_config().describe(),
        "seed": int(seed),
        "kwargs": _normalise_identity_kwargs(kwargs),
    }


def _normalise_identity_kwargs(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Resolve identity-relevant kwargs to what will actually run."""
    kwargs = dict(kwargs)
    if kwargs.get("decoder_backend") is not None:
        resolved_backend = decoder_backend_identity(kwargs["decoder_backend"])
        if resolved_backend == decoder_backend_identity("numpy"):
            # An explicit request for the default backend (or a numba request
            # that fell back to it) computes byte-identical results — share
            # the default cache entry instead of recomputing it.
            del kwargs["decoder_backend"]
        else:
            kwargs["decoder_backend"] = resolved_backend
    if "adaptive" in kwargs:
        # Hash the resolved stopping parameters, not the literal flag, so a
        # change to the AdaptiveStopping defaults invalidates stale entries.
        resolved_adaptive = resolve_adaptive(kwargs["adaptive"])
        if resolved_adaptive is None:
            del kwargs["adaptive"]
        else:
            kwargs["adaptive"] = resolved_adaptive
    return kwargs


def scenario_run_identity(
    spec, scale_name: str, seed: int, kwargs: Dict[str, Any]
) -> Dict[str, Any]:
    """The cache/artefact identity of an overridden (or non-figure) scenario run.

    Keys the cache by the scenario *name* plus every resolved non-default
    spec field (axes included, fully resolved against the scale) — so two
    scenarios, or two override sets, never share an entry — together with
    the resolved base link configuration, the scale parameters and the seed.
    Default-figure scenario runs never reach this path: they delegate to the
    figure experiment's own identity and therefore to its golden bytes.
    """
    scale = get_scale(scale_name)
    return {
        "experiment": f"scenario-{spec.name}",
        "scenario": spec.name,
        "scale": scale_name,
        "scale_params": scale,
        "link_config": resolve_link_config(spec, scale).describe(),
        "fields": resolved_scenario_fields(spec, scale),
        "seed": int(seed),
        "kwargs": _normalise_identity_kwargs(kwargs),
    }


def experiment_payload(
    experiment: str,
    scale_name: str,
    seed: int,
    *,
    workers: int = 1,
    runner: Optional[ParallelRunner] = None,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    point_store: Any = None,
    journal_dir: Any = None,
    resume: bool = False,
    **kwargs: Any,
) -> str:
    """Run (or fetch) an experiment and return its canonical JSON payload.

    This is the programmatic core of ``repro run``: the worker count and the
    execution backend of *runner* affect only wall-clock time, so the
    returned text is byte-identical for any of them and is shared through
    the cache across runs.  Runner lifecycle follows
    :func:`repro.runner.registry.run_experiment`: a runner built from
    *workers* (when *runner* is ``None``) is closed before returning, a
    caller-provided runner stays open.

    *point_store*, *journal_dir* and *resume* are explicit parameters —
    never part of ``**kwargs`` — precisely so they can never leak into
    :func:`run_identity`: a warm shared store or a replayed journal changes
    how much work is scheduled, not a byte of the payload.  With
    *journal_dir*, sweep progress is checkpointed under
    ``<journal_dir>/<experiment>-<digest>.jsonl`` as it completes; a crashed
    run repeated with ``resume=True`` replays completed grid points and
    recomputes only the remainder.  The journal is deleted once the payload
    is successfully built (the result cache takes over).
    """
    identity = run_identity(experiment, scale_name, seed, dict(sorted(kwargs.items())))
    digest = config_digest(identity)
    if cache is not None and not force:
        hit = cache.load(experiment, digest)
        if hit is not None:
            return serialize_from_cache(hit)
    if point_store is not None:
        kwargs = dict(kwargs, point_store=point_store)
    journal = _open_journal(journal_dir, experiment, digest, resume=resume)
    if journal is not None:
        kwargs = dict(kwargs, journal=journal)
    try:
        outcome = run_experiment(
            experiment, scale_name, seed, runner=runner, workers=workers, **kwargs
        )
    except BaseException:
        if journal is not None:
            journal.finalize(success=False)
            print(
                f"sweep interrupted; resume it with --resume "
                f"(journal: {journal.path})",
                file=sys.stderr,
            )
        raise
    payload = serialize_payload(
        experiment, identity=identity, tables=outcome.tables, extras=outcome.extras
    )
    if cache is not None:
        cache.store(
            experiment, digest, identity=identity, tables=outcome.tables, extras=outcome.extras
        )
    if journal is not None:
        journal.finalize(success=True)
    return payload


def _open_journal(journal_dir: Any, experiment: str, digest: str, *, resume: bool):
    """Open the sweep journal for one run identity (``None`` = journaling off)."""
    if journal_dir is None:
        return None
    from repro.runner.journal import SweepJournal

    journal = SweepJournal.open_for_run(
        journal_dir, experiment, digest, resume=resume
    )
    if resume and journal.replayed_entries:
        print(journal.summary(), file=sys.stderr)
    return journal


def serialize_from_cache(payload: Dict[str, Any]) -> str:
    """Re-serialise a cached payload to the canonical text form."""
    import json

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------------- #
def _coerce_override_token(token: str) -> Any:
    """Parse one ``--set`` value token into int, float or string."""
    text = token.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_overrides(items: List[str]) -> Dict[str, Any]:
    """Parse ``--set FIELD=V1[,V2,...]`` items into a field -> value mapping.

    A comma-separated value list becomes a tuple (replacing a sweep axis'
    values); a single token stays scalar.
    """
    overrides: Dict[str, Any] = {}
    for item in items:
        field, sep, value = item.partition("=")
        field = field.strip()
        if not sep or not field or not value.strip():
            raise ValueError(f"--set expects FIELD=VALUE[,VALUE...], got {item!r}")
        if field in overrides:
            raise ValueError(f"duplicate --set for field {field!r}")
        tokens = [t for t in value.split(",") if t.strip()]
        if not tokens:
            raise ValueError(f"--set expects FIELD=VALUE[,VALUE...], got {item!r}")
        parsed = tuple(_coerce_override_token(t) for t in tokens)
        overrides[field] = parsed if len(parsed) > 1 else parsed[0]
    return overrides


def scenario_payload(
    name: str,
    scale_name: str,
    seed: int,
    *,
    runner: Optional[ParallelRunner] = None,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    overrides: Optional[Dict[str, Any]] = None,
    point_store: Any = None,
    journal_dir: Any = None,
    resume: bool = False,
    **kwargs: Any,
) -> str:
    """Run (or fetch) a scenario and return its canonical JSON payload.

    A figure-backed scenario with no ``--set`` overrides delegates to
    :func:`experiment_payload` under the figure's own name and identity, so
    its output is byte-identical to the figure run (and to the golden
    snapshot at the default scale/seed) and shares the figure's cache
    entries.  Any override — and every scenario the paper never ran — is
    keyed by :func:`scenario_run_identity` and cached under
    ``scenario-<name>``.
    """
    from repro.runner.registry import _normalise

    spec = get_scenario(name)
    overrides = dict(overrides or {})
    if not overrides and spec.experiment is not None:
        return experiment_payload(
            spec.experiment,
            scale_name,
            seed,
            runner=runner,
            cache=cache,
            force=force,
            point_store=point_store,
            journal_dir=journal_dir,
            resume=resume,
            **kwargs,
        )
    if spec.kind == "analytical":
        raise ValueError(
            f"scenario {name!r} is analytical; --set overrides do not apply"
        )
    for field in sorted(overrides):
        spec = spec.apply_override(field, overrides[field])

    identity = scenario_run_identity(spec, scale_name, seed, dict(sorted(kwargs.items())))
    digest = config_digest(identity)
    # One label for the payload's experiment field and the cache directory,
    # so a cache hit re-serialises to exactly the fresh-run bytes.
    cache_key = f"scenario-{name}"
    if cache is not None and not force:
        hit = cache.load(cache_key, digest)
        if hit is not None:
            return serialize_from_cache(hit)
    journal = _open_journal(journal_dir, cache_key, digest, resume=resume)
    try:
        result = run_scenario(
            spec,
            scale_name,
            seed,
            runner=runner,
            point_store=point_store,
            journal=journal,
            **kwargs,
        )
    except BaseException:
        if journal is not None:
            journal.finalize(success=False)
            print(
                f"sweep interrupted; resume it with --resume "
                f"(journal: {journal.path})",
                file=sys.stderr,
            )
        raise
    tables, extras = _normalise(result)
    payload = serialize_payload(
        cache_key, identity=identity, tables=tables, extras=extras
    )
    if cache is not None:
        cache.store(cache_key, digest, identity=identity, tables=tables, extras=extras)
    if journal is not None:
        journal.finalize(success=True)
    return payload


# --------------------------------------------------------------------------- #
def _emit_payload(payload: str, args: argparse.Namespace) -> int:
    """Write a run's canonical JSON to ``--out`` or print it as markdown."""
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(payload)
        print(f"wrote {args.out}")
    else:
        import json

        decoded = json.loads(payload)
        from repro.core.results import SweepTable

        for name in sorted(decoded["tables"]):
            print(SweepTable.from_json_dict(decoded["tables"][name]).to_markdown())
            print()
        if decoded.get("extras"):
            print("extras:", json.dumps(decoded["extras"], sort_keys=True))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment == "scenario":
        return _run_scenario_cmd(args)
    if args.name is not None:
        raise ValueError("only `repro run scenario <name>` takes a second name")
    if args.overrides:
        raise ValueError("--set applies to `repro run scenario <name>` only")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    point_store = _make_point_store(args)
    kwargs: Dict[str, Any] = {}
    if args.decoder_backend is not None:
        kwargs["decoder_backend"] = args.decoder_backend
    if args.adaptive:
        kwargs["adaptive"] = True
    if (kwargs or point_store is not None) and not EXPERIMENTS[args.experiment].stochastic:
        flags = ", ".join(
            sorted(kwargs) + (["point_store"] if point_store is not None else [])
        )
        raise ValueError(
            f"{args.experiment} is analytical and does not simulate the link; "
            f"{flags} does not apply"
        )
    if kwargs.get("adaptive") and args.experiment not in ADAPTIVE_EXPERIMENTS:
        raise ValueError(
            f"--adaptive applies to the fault-map sweeps {list(ADAPTIVE_EXPERIMENTS)}"
        )
    journal_dir = _journal_dir(args, stochastic=EXPERIMENTS[args.experiment].stochastic)
    with make_runner(args) as runner:
        payload = experiment_payload(
            args.experiment,
            args.scale,
            args.seed,
            runner=runner,
            cache=cache,
            force=args.force,
            point_store=point_store,
            journal_dir=journal_dir,
            resume=args.resume,
            **kwargs,
        )
    _report_point_store(point_store)
    _report_task_failures(runner)
    _write_metrics(args)
    return _emit_payload(payload, args)


def _write_metrics(args: argparse.Namespace) -> None:
    """Honour ``--metrics-out``: snapshot the process registry to a file."""
    if getattr(args, "metrics_out", None) is None:
        return
    from repro.runner import telemetry

    path = telemetry.write_snapshot(args.metrics_out)
    print(f"wrote metrics snapshot {path}", file=sys.stderr)


def _make_point_store(args: argparse.Namespace):
    """The shared :class:`PointStore` the ``--point-store`` flag asks for."""
    if args.point_store is None:
        return None
    from repro.runner.point_store import PointStore

    return PointStore(args.point_store)


def _report_point_store(point_store) -> None:
    """Tell the user what the shared store saved (stderr, like a progress line)."""
    if point_store is not None:
        print(point_store.summary(), file=sys.stderr)


def _journal_dir(args: argparse.Namespace, *, stochastic: bool) -> Optional[Path]:
    """Where ``repro run`` journals sweep progress (``None`` = journaling off)."""
    if args.resume and args.no_journal:
        raise ValueError("--resume replays the sweep journal; drop --no-journal")
    if not stochastic:
        # Analytical experiments finish in milliseconds: nothing to resume.
        if args.resume:
            raise ValueError(
                "--resume applies to simulated sweeps only (this run is analytical)"
            )
        return None
    if args.no_journal:
        return None
    return Path(args.cache_dir) / "journal"


def _report_task_failures(runner: ParallelRunner) -> None:
    """Summarise quarantined work items (stderr), one line per item."""
    failures = runner.task_failures
    if not failures:
        return
    store = runner.quarantine_store
    where = f" under {store.root}" if store is not None else ""
    print(
        f"warning: {len(failures)} work item(s) quarantined{where}; "
        f"the affected grid points were merged from surviving items only "
        f"and never written to any cache:",
        file=sys.stderr,
    )
    for sentinel in failures:
        print(f"  - {sentinel.summary()}", file=sys.stderr)


def _run_scenario_cmd(args: argparse.Namespace) -> int:
    if args.name is None:
        raise ValueError(
            f"`repro run scenario` needs a scenario name; choose from {scenario_names()}"
        )
    spec = get_scenario(args.name)
    overrides = parse_overrides(args.overrides)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    point_store = _make_point_store(args)
    kwargs: Dict[str, Any] = {}
    if args.decoder_backend is not None:
        kwargs["decoder_backend"] = args.decoder_backend
    if args.adaptive:
        kwargs["adaptive"] = True
    if spec.kind == "analytical" and (kwargs or overrides or point_store is not None):
        raise ValueError(
            f"scenario {spec.name!r} is analytical and does not simulate the link; "
            "--set/--decoder-backend/--adaptive/--point-store do not apply"
        )
    if kwargs.get("adaptive") and spec.kind != "fault":
        raise ValueError("--adaptive applies to fault-map scenarios only")
    journal_dir = _journal_dir(args, stochastic=spec.kind != "analytical")
    with make_runner(args) as runner:
        payload = scenario_payload(
            args.name,
            args.scale,
            args.seed,
            runner=runner,
            cache=cache,
            force=args.force,
            overrides=overrides,
            point_store=point_store,
            journal_dir=journal_dir,
            resume=args.resume,
            **kwargs,
        )
    _report_point_store(point_store)
    _report_task_failures(runner)
    _write_metrics(args)
    return _emit_payload(payload, args)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for spec in EXPERIMENTS.values():
        kind = "monte-carlo" if spec.stochastic else "analytical"
        print(f"  {spec.name:<14} {spec.figure:<12} [{kind}] {spec.summary}")
    print("scales:")
    for scale in SCALES.values():
        print(
            f"  {scale.name:<8} payload={scale.payload_bits}b packets={scale.num_packets} "
            f"maps={scale.num_fault_maps} snr_points={len(scale.snr_points_db)}"
        )
    print("execution backends (topology only; results are identical):")
    print(f"  {' '.join(sorted(execution_backend_names()))}")
    print(f"scenarios: {len(scenario_names())} registered (see `repro scenarios ls`)")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    listings = [scenario_listing(get_scenario(name)) for name in scenario_names()]
    if args.json:
        print(json.dumps(listings, sort_keys=True, indent=2))
        return 0
    print("scenarios (run with `repro run scenario <name>`):")
    for entry in listings:
        axes = ", ".join(
            "{}={}".format(
                axis["field"],
                "scale" if axis["values"] == "scale-default" else len(axis["values"]),
            )
            for axis in entry["axes"]
        )
        origin = entry["experiment"] or "new"
        print(
            f"  {entry['name']:<20} [{entry['kind']:<10}] ({origin:<13}) "
            f"axes: {axes or '-':<30} {entry['summary']}"
        )
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    """``repro backends ls [--json]`` — all three registries, with reasons.

    Decoder families carry a real availability probe (compiled extension,
    importable package); execution backends are stdlib-only topology and are
    always available; scenarios are listed by name so one command answers
    "what can this machine run".
    """
    import json

    from repro.phy.turbo.backends import DEFAULT_BACKEND as DECODER_DEFAULT
    from repro.phy.turbo.backends import family_listing

    decoder = family_listing()
    execution = [
        {
            "name": name,
            "available": True,
            "reason": "stdlib-only execution topology, always available",
            "default": name == DEFAULT_BACKEND,
            "default_parallel": name == DEFAULT_PARALLEL_BACKEND,
        }
        for name in sorted(execution_backend_names())
    ]
    scenarios = list(scenario_names())
    if args.json:
        print(
            json.dumps(
                {
                    "decoder_backends": decoder,
                    "execution_backends": execution,
                    "scenarios": scenarios,
                },
                sort_keys=True,
                indent=2,
            )
        )
        return 0
    print("decoder backends (select with --decoder-backend):")
    for entry in decoder:
        status = "available" if entry["available"] else "unavailable"
        flags = []
        if entry["family"] == DECODER_DEFAULT:
            flags.append("default")
        flags.append("exact" if entry["exact"] else "max-log")
        if entry["threaded"]:
            flags.append("threaded (@t<N>)")
        print(
            f"  {entry['family']:<8} [{status:<11}] ({', '.join(flags)}) "
            f"{entry['reason']}"
        )
    print("execution backends (topology only; results are identical):")
    for entry in execution:
        flags = []
        if entry["default"]:
            flags.append("default")
        if entry["default_parallel"]:
            flags.append("default with --workers")
        suffix = f" ({', '.join(flags)})" if flags else ""
        print(f"  {entry['name']:<8} {entry['reason']}{suffix}")
    print(f"scenarios: {len(scenarios)} registered (see `repro scenarios ls`)")
    return 0


def _cmd_bler(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    config = scale.link_config()

    def make_task(chunk_index: int) -> LinkChunkTask:
        return LinkChunkTask(
            config=config,
            snr_db=args.snr,
            num_packets=args.chunk_packets,
            entropy=args.seed,
            key=(chunk_index,),
        )

    with make_runner(args) as runner:
        outcome = runner.run_adaptive_proportion(
            make_task,
            count_block_errors,
            confidence=args.confidence,
            relative_error=args.relative_error,
            bler_floor=args.bler_floor,
            max_trials=args.max_packets,
            map_chunks=count_block_errors_batched,
        )
    estimate = outcome.estimate
    print(
        f"BLER at {args.snr:.1f} dB ({scale.name} scale): {estimate.value:.4f} "
        f"± {estimate.half_width:.4f} ({estimate.confidence:.0%} Wilson)"
    )
    print(
        f"  errors={outcome.errors} packets={outcome.trials} "
        f"chunks={outcome.num_chunks} stop={outcome.stop_reason}"
    )
    _write_metrics(args)
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    names = args.experiments or list(GOLDEN_EXPERIMENTS) + list(GOLDEN_SCENARIOS)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        if name in EXPERIMENTS:
            payload = experiment_payload(name, args.scale, args.seed, workers=1, cache=None)
            path = args.out_dir / f"{name}.json"
        else:
            payload = scenario_payload(name, args.scale, args.seed, cache=None)
            path = args.out_dir / f"scenario-{name}.json"
        path.write_text(payload)
        print(f"wrote {path}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.heartbeat_interval is not None:
        kwargs["heartbeat_interval"] = args.heartbeat_interval or None
    return run_worker(
        args.connect,
        connect_retries=args.connect_retries,
        retry_delay=args.retry_delay,
        once=args.once,
        slots=args.slots,
        **kwargs,
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear(args.experiment)
        scope = f" for {args.experiment}" if args.experiment else ""
        print(f"removed {removed} cached run(s){scope} from {args.cache_dir}")
        return 0
    shown = 0
    for experiment, digest, path in cache.iter_entries():
        if args.experiment is not None and experiment != args.experiment:
            continue
        detail = ""
        payload = cache.load(experiment, digest)
        if payload is not None:
            identity = payload.get("identity", {})
            detail = f" scale={identity.get('scale', '?')} seed={identity.get('seed', '?')}"
        print(f"  {experiment:<14} {digest}{detail}  ({path.stat().st_size} bytes)")
        shown += 1
    if not shown:
        print(f"cache at {args.cache_dir} is empty")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runner.serve import serve_forever_from_cli

    return serve_forever_from_cli(
        args.cache,
        point_store_dir=args.point_store,
        bind=args.bind,
        log=lambda message: print(message, file=sys.stderr),
    )


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.runner import telemetry

    try:
        snapshot = telemetry.load_snapshot(args.snapshot)
    except FileNotFoundError:
        raise ValueError(f"no metrics snapshot at {args.snapshot}") from None
    except json.JSONDecodeError:
        raise ValueError(f"{args.snapshot} is not a JSON metrics snapshot") from None
    if args.json:
        print(json.dumps(snapshot, sort_keys=True, indent=2))
    else:
        print(telemetry.summarize_snapshot(snapshot))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.target == "decoder":
        from repro.runner.bench import run_and_record_decoder_backends

        run_and_record_decoder_backends(args.scale)
        return 0

    from repro.runner.bench import FRONT_END_TARGET_SPEEDUP, run_and_record_front_end

    section = run_and_record_front_end(args.scale, with_bler=not args.no_bler)
    speedup_at_32 = section["speedup_vs_seed"].get("32")
    if speedup_at_32 is not None:
        status = "meets" if speedup_at_32 >= FRONT_END_TARGET_SPEEDUP else "below"
        print(
            f"batched front end at batch 32: {speedup_at_32:.2f}x seed "
            f"({status} the {FRONT_END_TARGET_SPEEDUP:.0f}x target)"
        )
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "list": _cmd_list,
    "scenarios": _cmd_scenarios,
    "backends": _cmd_backends,
    "bler": _cmd_bler,
    "worker": _cmd_worker,
    "golden": _cmd_golden,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "metrics": _cmd_metrics,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (returns a process exit code)."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        # Domain validation (negative seeds/workers, bad floors, ...) should
        # read like a CLI error, not a traceback.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module execution helper
    sys.exit(main())
