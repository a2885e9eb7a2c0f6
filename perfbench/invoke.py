"""Run one ``repro`` command line the way ``python -m repro`` does, and report on it.

Usage::

    python invoke.py REPORT.json [--trace] -- <repro arguments>

The benchmark spawns this script instead of ``python -m repro`` so that it
can tell when start-up ended: the moment ``repro.runner.cli`` is imported
and ready.  An untraced run adds one counter around ``simulate_packet_groups``
(packet lifetimes simulated here); ``--trace`` also wraps every layer call
listed in :mod:`spans`.  When the command returns, REPORT.json receives the
timestamps (``time.monotonic``, comparable across processes), the exit code,
the packet count, the process telemetry counters and, when traced, the spans.
"""

import json
import sys
import time


def main() -> int:
    report_path, rest = sys.argv[1], sys.argv[2:]
    split = rest.index("--")
    traced, argv = "--trace" in rest[:split], rest[split + 1 :]

    import repro.runner.cli as cli

    ready = time.monotonic()
    import spans

    counters = {}
    spans.count_packets(counters)
    recorder = spans.install() if traced else None
    root = recorder.open(spans.ROOT_SPAN) if recorder else None
    main_start = time.monotonic()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 1
    main_end = time.monotonic()
    if recorder:
        recorder.close(root)

    from repro.runner import telemetry

    report = {
        "ready": ready,
        "main_start": main_start,
        "main_end": main_end,
        "exit_code": code,
        "packets": counters.get("packets", 0),
        "telemetry": telemetry.registry().snapshot()["counters"],
        "trace": recorder.to_json() if recorder else None,
    }
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
