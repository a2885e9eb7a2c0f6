"""In-memory spans around the public calls of each ``repro`` layer.

:func:`install` wraps the calls listed in :data:`LAYERS` inside one running
``repro`` process.  Every wrapped call on the main thread becomes a span
``[name, start, end, parent]`` (``time.monotonic`` seconds, ``parent`` the
index of the enclosing span or -1); a call nested in an open span of the
same name is not recorded again, so a layer's time never counts twice.

The socket backend is observed from the coordinator side only: frames and
bytes sent, task round trips (dispatch to reply), worker spawn-to-hello and
the main thread's wait for replies.  Spans inside worker processes are out
of scope.

Everything here runs inside the ``repro`` process (see ``invoke.py``); the
benchmark turns the written-out spans into metrics in ``report.py``.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Root span covering ``repro.runner.cli.main``.
ROOT_SPAN = "cli.main"

#: (module, attribute path, span name) of every wrapped layer call.  Batch
#: calls and their batch-of-one counterparts share a span name.
LAYERS = (
    ("repro.runner.tasks", "simulate_fault_map_batch", "runner.task"),
    ("repro.runner.tasks", "simulate_link_chunk_batch", "runner.task"),
    ("repro.link.system", "simulate_packet_groups", "link.simulate_packet_groups"),
    ("repro.link.system", "HspaLikeLink.make_buffer", "memory.buffer_setup"),
    ("repro.link.transmitter", "Transmitter.encode_batch", "phy.encode"),
    ("repro.link.transmitter", "Transmitter.encode", "phy.encode"),
    ("repro.link.transmitter", "Transmitter.transmit_batch", "phy.transmit"),
    ("repro.link.transmitter", "Transmitter.transmit", "phy.transmit"),
    ("repro.channel.multipath", "MultipathChannel.apply_batch", "channel.apply"),
    ("repro.channel.multipath", "MultipathChannel.apply", "channel.apply"),
    ("repro.link.receiver", "Receiver.front_end_batch", "equalizer.front_end"),
    ("repro.link.receiver", "Receiver.front_end", "equalizer.front_end"),
    ("repro.link.receiver", "Receiver.decode_batch", "phy.turbo.decode"),
    ("repro.harq.buffer", "TransmissionSoftBuffer.store_transmission", "harq.store"),
    ("repro.harq.buffer", "TransmissionSoftBuffer.load_transmission", "harq.load"),
    ("repro.memory.array", "MemoryArray.read_words", "memory.read"),
    ("repro.runner.journal", "SweepJournal.record_fault_point", "runner.journal.append"),
    ("repro.runner.journal", "SweepJournal.record_bler_cell", "runner.journal.append"),
    ("repro.runner.journal", "SweepJournal.record_adaptive_round", "runner.journal.append"),
    ("repro.runner.point_store", "PointStore.load_fault_point", "runner.point_store.load"),
    ("repro.runner.point_store", "PointStore.load_statistics", "runner.point_store.load"),
    ("repro.runner.point_store", "PointStore.store_fault_point", "runner.point_store.store"),
    ("repro.runner.point_store", "PointStore.store_statistics", "runner.point_store.store"),
    ("repro.runner.backends.socket_backend", "SocketDistributedBackend.close", "runner.backends.close"),
)

SOCKET_MODULE = "repro.runner.backends.socket_backend"

#: Every span name, in reporting order (the root first).
SPAN_NAMES = (ROOT_SPAN,) + tuple(dict.fromkeys(name for _, _, name in LAYERS)) + (
    "runner.backends.recv_wait",
)


def _rebind(module_name: str, attribute: str, original: Any, replacement: Any) -> None:
    """Point *module_name*'s attribute and every ``from``-import of it at *replacement*."""
    owner = sys.modules[module_name]
    path = attribute.split(".")
    if len(path) == 2:
        setattr(getattr(owner, path[0]), path[1], replacement)
        return
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            module, attribute, None
        ) is original:
            setattr(module, attribute, replacement)


def _lookup(module_name: str, attribute: str) -> Any:
    value: Any = sys.modules[module_name]
    for part in attribute.split("."):
        value = getattr(value, part)
    return value


def count_packets(counters: Dict[str, float]) -> None:
    """Count packet lifetimes simulated in this process (``counters["packets"]``).

    One cheap wrapper per ``simulate_packet_groups`` call — the only hook an
    untraced invocation carries.
    """
    import repro.link.system as system

    original = system.simulate_packet_groups

    @functools.wraps(original)
    def counted(link, groups):
        groups = list(groups)
        counters["packets"] = counters.get("packets", 0) + sum(
            group.num_packets for group in groups
        )
        return original(link, groups)

    _rebind("repro.link.system", "simulate_packet_groups", original, counted)


class Recorder:
    """Spans and counters of one traced invocation."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, float] = {}
        self.task_round_trips_ms: List[float] = []
        self.hello_times: List[float] = []
        self.spawn_time: Optional[float] = None
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._task_sent: Dict[Any, float] = {}
        self._main = threading.main_thread()

    # ------------------------------------------------------------------ #
    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name: str) -> Optional[int]:
        if threading.current_thread() is not self._main or self._open.get(name):
            return None
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self._open[name] = self._open.get(name, 0) + 1
        return index

    def close(self, index: Optional[int]) -> None:
        if index is None:
            return
        self.spans[index][2] = time.monotonic()
        self._stack.pop()
        self._open[self.spans[index][0]] -= 1

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None and index is not None:
                after(args, result)
            return result

        return traced

    def to_json(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "task_round_trips_ms": self.task_round_trips_ms,
            "hello_times": self.hello_times,
            "spawn_time": self.spawn_time,
        }

    # ------------------------------------------------------------------ #
    def _after_decode(self, args: Sequence[Any], result: Any) -> None:
        receiver, rows = args[0], int(args[1].shape[0])
        configured = receiver.transmitter.turbo.num_iterations
        self.add("decode_rows", rows)
        self.add("decode_iterations", rows * result[2].iterations_run)
        self.add("decode_iterations_configured", rows * configured)

    def _patch_socket(self, module: Any) -> None:
        original_send, original_recv = module.send_message, module.recv_message
        backend = module.SocketDistributedBackend

        def send_message(sock, message):
            self.add("frames_sent")
            self.add("bytes_sent", 8 + len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL)))
            if message and message[0] == "task":
                with self._lock:
                    self._task_sent[(message[1], message[2])] = time.monotonic()
            return original_send(sock, message)

        def recv_message(sock):
            message = original_recv(sock)
            now = time.monotonic()
            if message and message[0] == "hello":
                with self._lock:
                    self.hello_times.append(now)
            elif message and message[0] in ("result", "error"):
                with self._lock:
                    sent = self._task_sent.pop((message[1], message[2]), None)
                    if sent is not None:
                        self.task_round_trips_ms.append((now - sent) * 1e3)
            return message

        spawn = backend._spawn_local_workers

        @functools.wraps(spawn)
        def spawn_local_workers(backend_self):
            if self.spawn_time is None:
                self.spawn_time = time.monotonic()
            return spawn(backend_self)

        submit = backend.submit

        @functools.wraps(submit)
        def timed_submit(backend_self, *args, **kwargs):
            stream = iter(submit(backend_self, *args, **kwargs))

            def waited():
                while True:
                    index = self.open("runner.backends.recv_wait")
                    try:
                        item = next(stream)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    yield item

            return waited()

        module.send_message, module.recv_message = send_message, recv_message
        backend._spawn_local_workers = spawn_local_workers
        backend.submit = timed_submit

    def patch_module(self, module_name: str) -> None:
        """Wrap every listed call that lives in *module_name*."""
        if module_name == SOCKET_MODULE:
            self._patch_socket(sys.modules[module_name])
        for owner, attribute, name in LAYERS:
            if owner != module_name:
                continue
            original = _lookup(owner, attribute)
            after = self._after_decode if name == "phy.turbo.decode" else None
            _rebind(owner, attribute, original, self.wrap(name, original, after))


def install() -> Recorder:
    """Wrap every layer call and return the recorder.

    Modules the command would import lazily (journal, point store) are
    imported here so that they can be patched; that time counts as tracing
    overhead, not as a layer.
    """
    recorder = Recorder()
    for name in sorted({owner for owner, _, _ in LAYERS} | {SOCKET_MODULE}):
        importlib.import_module(name)
        recorder.patch_module(name)
    return recorder
