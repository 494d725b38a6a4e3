"""Socket-sharded serving: N daemon processes, one port, one snapshot.

The single-process daemon is GIL-bound: one core caps throughput no
matter how many the host has. The shard supervisor buys horizontal
scale with the two oldest tricks in the serving book:

- **One port, N acceptors.** Every shard is a full
  :class:`~repro.serve.daemon.ServeDaemon` accepting on the *same*
  ``(host, port)``. With ``SO_REUSEPORT`` (Linux >= 3.9, the default
  path) each shard binds its own listening socket and the kernel
  load-balances incoming connections across them — no userspace
  dispatcher on the hot path. Where ``SO_REUSEPORT`` is unavailable the
  supervisor binds one listening socket *before* forking and every
  shard inherits and accepts on it (the classic pre-fork fallback).
- **One snapshot, N mmaps.** The supervisor resolves the serving state
  once (graph nodes ``serve:snapshot`` / ``serve:detector``), packs it
  into a ``kind=snapshot`` RDPK container
  (:mod:`repro.serve.snapshot`), and every shard boots by mmap'ing
  that file read-only — after the first boot faults the pages in,
  shard boots and post-crash *respawns* are page-cache reads, not N
  graph resolutions.

The supervisor owns the control plane on a private loopback port
(each shard also opens its own private control listener, so control
traffic never races the kernel's query balancing):

- ``health``  — fans out to every shard, sums the counter quartet,
  reports the minimum epoch, the per-shard epoch vector, and the
  respawn count;
- ``metrics`` — fans out, merges counters (sum), gauges (max), and
  histograms (bucket-wise, via :class:`~repro.obs.hist.Histogram`),
  and keeps a per-shard breakdown under ``serve.shard.<i>.*``;
- ``reload``  — broadcasts the delta to every shard in parallel and
  reports a per-shard ``{shard, epoch, drained}`` vector (the delta is
  recorded first, so a shard respawned mid-broadcast replays it and
  still lands on the same epoch);
- ``shutdown`` — stops shards, the monitor, and the control listener.

A dead shard is detected by the monitor thread, logged, counted
(``serve.shard_restarts``), and respawned from the snapshot with the
full delta history replayed — same rules, same epoch, same answers.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.hist import Histogram, merge_histogram_dicts
from ..obs.metrics import get_metrics, reset_metrics
from . import protocol
from .daemon import SERVE_COUNTERS, ServeDaemon, _Handler, _Server, build_engine
from .snapshot import read_state

logger = logging.getLogger("repro.serve.shard")

#: Seconds a freshly forked shard gets to report its control port.
BOOT_TIMEOUT = 60.0

#: Seconds between monitor sweeps for dead shards.
MONITOR_INTERVAL = 0.2


def reuse_port_available() -> bool:
    """Whether this platform supports ``SO_REUSEPORT`` binds."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


@dataclass
class _ShardConfig:
    """Everything a forked shard needs to boot (passed by fork, not pickle)."""

    index: int
    snapshot_path: str
    host: str
    port: int
    reuse_port: bool
    listen_socket: Optional[socket.socket]
    batch_size: Optional[int]
    wait_ms: Optional[float]
    deltas: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = field(default_factory=list)


def _shard_main(config: _ShardConfig, ready_conn) -> None:
    """The forked shard body: boot from the snapshot, serve until shutdown."""
    # The fork copied the supervisor's registry (its own boot counters,
    # restart counts, ...) — a shard's registry must start empty so the
    # merged view never double-counts.
    reset_metrics()
    state = read_state(config.snapshot_path)
    engine = build_engine(state)
    daemon = ServeDaemon(
        engine,
        host=config.host,
        port=config.port,
        batch_size=config.batch_size,
        wait_ms=config.wait_ms,
        reuse_port=config.reuse_port,
        listen_socket=config.listen_socket,
        shard_index=config.index,
    )
    # Replay the supervisor's reload history before accepting traffic, so
    # a respawned shard reaches the same epoch (and the same answers) as
    # its siblings before the kernel balances any connection to it.
    for added, removed in config.deltas:
        daemon.reload(list(added), list(removed))
    daemon.start()
    control_host, control_port = daemon.add_listener("127.0.0.1", 0)
    ready_conn.send(
        {
            "pid": os.getpid(),
            "control_host": control_host,
            "control_port": control_port,
            "epoch": engine.chain.current.index,
        }
    )
    ready_conn.close()
    try:
        daemon.wait()
    except KeyboardInterrupt:
        daemon.stop()


@dataclass
class ShardHandle:
    """The supervisor's view of one live shard process."""

    index: int
    process: Any
    pid: int
    control_host: str
    control_port: int
    boot_ms: float


class ShardSupervisor:
    """Forks, monitors, and fronts N daemon shards over one query port."""

    def __init__(
        self,
        snapshot_path: Union[str, Path],
        shards: int,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_size: Optional[int] = None,
        wait_ms: Optional[float] = None,
        reuse_port: Optional[bool] = None,
        restart: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        import multiprocessing

        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-fork platforms
            raise RuntimeError(
                "shard supervisor requires the fork start method"
            ) from exc
        self.snapshot_path = str(snapshot_path)
        self.shard_count = shards
        self.host = host
        self.port = port
        self.batch_size = batch_size
        self.wait_ms = wait_ms
        self.restart = restart
        #: None = autodetect; resolved at :meth:`start`.
        self.reuse_port = reuse_port
        self.control_port: Optional[int] = None
        self.shards: List[ShardHandle] = []
        self._anchor: Optional[socket.socket] = None
        self._listen_socket: Optional[socket.socket] = None
        self._control: Optional[_Server] = None
        self._threads: List[threading.Thread] = []
        self._lock = threading.RLock()
        self._reload_lock = threading.Lock()
        self._deltas: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._final_counters: Optional[Dict[str, int]] = None
        self._last_epoch = 0
        self.ready = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind the shared port, fork the shards, open the control plane.

        Returns the query ``(host, port)`` every shard accepts on.
        """
        if self.reuse_port is None:
            self.reuse_port = reuse_port_available()
        if self.reuse_port:
            # Reserve the port without accepting: a bound, never-listening
            # SO_REUSEPORT socket keeps the address stable across shard
            # deaths (the port cannot be lost while the anchor holds it).
            self._anchor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._anchor.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            self._anchor.bind((self.host, self.port))
            self.host, self.port = self._anchor.getsockname()[:2]
        else:
            # Pre-fork fallback: one listener, inherited by every shard.
            self._listen_socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listen_socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listen_socket.bind((self.host, self.port))
            self._listen_socket.listen(128)
            # A shared blocking accept can strand a shard's serve loop (a
            # sibling wins the race); a short timeout turns the loss into
            # a retry. Accepted connections come back blocking.
            self._listen_socket.settimeout(0.5)
            self.host, self.port = self._listen_socket.getsockname()[:2]
        logger.info(
            "shard supervisor binding %s:%d (%d shards, %s)",
            self.host,
            self.port,
            self.shard_count,
            "SO_REUSEPORT" if self.reuse_port else "pre-fork shared listener",
        )
        with self._lock:
            self.shards = [self._spawn(index) for index in range(self.shard_count)]
        self._control = _Server(("127.0.0.1", 0), _Handler)
        self._control.daemon = self  # type: ignore[attr-defined]
        control_thread = threading.Thread(
            target=self._control.serve_forever, name="shard-control", daemon=True
        )
        control_thread.start()
        self._threads.append(control_thread)
        self.control_port = self._control.server_address[1]
        monitor = threading.Thread(
            target=self._monitor_loop, name="shard-monitor", daemon=True
        )
        monitor.start()
        self._threads.append(monitor)
        get_metrics().gauge("serve.shards", self.shard_count)
        self.ready.set()
        return self.host, self.port

    def _spawn(self, index: int) -> ShardHandle:
        """Fork one shard and wait for its ready handshake."""
        recv_end, send_end = self._mp.Pipe(duplex=False)
        config = _ShardConfig(
            index=index,
            snapshot_path=self.snapshot_path,
            host=self.host,
            port=self.port,
            reuse_port=bool(self.reuse_port),
            listen_socket=self._listen_socket,
            batch_size=self.batch_size,
            wait_ms=self.wait_ms,
            deltas=list(self._deltas),
        )
        started = time.perf_counter()
        process = self._mp.Process(
            target=_shard_main,
            args=(config, send_end),
            name=f"repro-serve-shard-{index}",
            # A shard dies with its supervisor.
            daemon=True,
        )
        process.start()
        send_end.close()
        try:
            if not recv_end.poll(BOOT_TIMEOUT):
                process.terminate()
                raise RuntimeError(
                    f"shard {index} did not report ready within {BOOT_TIMEOUT:.0f}s"
                )
            info = recv_end.recv()
        finally:
            recv_end.close()
        boot_ms = (time.perf_counter() - started) * 1000.0
        logger.info(
            "shard %d up (pid %d, control port %d, epoch %d, %.0f ms)",
            index,
            info["pid"],
            info["control_port"],
            info["epoch"],
            boot_ms,
        )
        return ShardHandle(
            index=index,
            process=process,
            pid=info["pid"],
            control_host=info["control_host"],
            control_port=info["control_port"],
            boot_ms=boot_ms,
        )

    def _monitor_loop(self) -> None:
        """Detect dead shards; log, count, and respawn them."""
        while not self._stopping.wait(MONITOR_INTERVAL):
            with self._lock:
                handles = list(self.shards)
            for handle in handles:
                if handle.process.is_alive() or self._stopping.is_set():
                    continue
                with self._lock:
                    if self._stopping.is_set() or self.shards[handle.index] is not handle:
                        continue
                    exitcode = handle.process.exitcode
                    get_metrics().count("serve.shard_restarts")
                    logger.warning(
                        "shard %d (pid %d) died with exit code %s; %s",
                        handle.index,
                        handle.pid,
                        exitcode,
                        "respawning from snapshot" if self.restart else "not restarting",
                    )
                    if not self.restart:
                        continue
                    try:
                        self.shards[handle.index] = self._spawn(handle.index)
                    except Exception:
                        logger.exception("shard %d respawn failed", handle.index)

    def stop(self) -> None:
        """Stop every shard, the monitor, and the control listener."""
        if self._stopping.is_set():
            self._stopped.wait(30.0)
            return
        # Capture the final merged counters while the shards can still
        # answer — the manifest's serve section outlives them.
        try:
            self._final_counters = self._merged_counters()
        except Exception:  # pragma: no cover - shards already gone
            self._final_counters = {name: 0 for name in SERVE_COUNTERS}
        self._stopping.set()
        with self._lock:
            handles = list(self.shards)
        for handle in handles:
            try:
                self._ask_shard(handle, {"op": "shutdown"}, timeout=5.0)
            except OSError:
                pass
        for handle in handles:
            handle.process.join(10.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(5.0)
        if self._control is not None:
            self._control.shutdown()
            self._control.server_close()
            self._control = None
        if self._anchor is not None:
            self._anchor.close()
            self._anchor = None
        if self._listen_socket is not None:
            self._listen_socket.close()
            self._listen_socket = None
        self._stopped.set()
        logger.info("shard supervisor stopped")

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the supervisor is stopped."""
        return self._stopped.wait(timeout)

    def shard_pids(self) -> List[int]:
        """The live shard PIDs, by shard index."""
        with self._lock:
            return [handle.pid for handle in self.shards]

    def describe(self) -> Dict[str, Any]:
        """Boot facts for ready files and benchmarks."""
        with self._lock:
            return {
                "host": self.host,
                "port": self.port,
                "control_port": self.control_port,
                "shards": self.shard_count,
                "reuse_port": bool(self.reuse_port),
                "shard_pids": [handle.pid for handle in self.shards],
                "boot_ms": [round(handle.boot_ms, 3) for handle in self.shards],
            }

    # -- shard RPC -----------------------------------------------------------

    def _ask_shard(
        self, handle: ShardHandle, message: Dict[str, Any], timeout: float = 30.0
    ) -> Dict[str, Any]:
        """One request to one shard's private control port."""
        with protocol.ServeClient(
            handle.control_host, handle.control_port, timeout=timeout
        ) as client:
            return client.ask(message)

    def _fan_out(
        self, message: Dict[str, Any], timeout: float = 30.0
    ) -> List[Dict[str, Any]]:
        """Ask every shard in parallel; dead shards yield error frames."""
        with self._lock:
            handles = list(self.shards)
        results: List[Dict[str, Any]] = [
            protocol.error_response("shard did not answer") for _ in handles
        ]

        def one(slot: int, handle: ShardHandle) -> None:
            try:
                results[slot] = self._ask_shard(handle, message, timeout)
            except (OSError, ValueError) as exc:
                results[slot] = protocol.error_response(
                    f"shard {handle.index}: {exc}"
                )

        threads = [
            threading.Thread(target=one, args=(slot, handle), daemon=True)
            for slot, handle in enumerate(handles)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout + 5.0)
        return results

    def _merged_counters(self) -> Dict[str, int]:
        """The counter quartet summed across every answering shard."""
        merged = {name: 0 for name in SERVE_COUNTERS}
        for response in self._fan_out({"op": "health"}, timeout=10.0):
            if not response.get("ok"):
                continue
            for name in SERVE_COUNTERS:
                merged[name] += int(response.get(name, 0))
        return merged

    # -- control plane -------------------------------------------------------

    def dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Route one control request (the supervisor's ``_Server`` plane)."""
        op = message.get("op")
        if op == "health":
            return protocol.ok_response(op, **self.health())
        if op == "metrics":
            return protocol.ok_response(op, metrics=self.metrics_summary())
        if op == "reload":
            return self.reload(
                message.get("added", []) or [], message.get("removed", []) or []
            )
        if op == "shutdown":
            threading.Thread(target=self.stop, daemon=True).start()
            return protocol.ok_response(op, stopping=True)
        if op in protocol.QUERY_OPS or op == protocol.BATCH_OP:
            return protocol.error_response(
                f"queries go to the shared query port {self.host}:{self.port}; "
                "this is the shard control port",
                op,
            )
        return protocol.error_response(f"unknown op: {op!r}", op)

    def answer_queries(self, queries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Refuse pipelined queries, one frame each: this is not the query port."""
        return [self.dispatch(query) for query in queries]

    def health(self) -> Dict[str, Any]:
        """Merged readiness: all shards answering "ok" or the truth."""
        responses = self._fan_out({"op": "health"}, timeout=10.0)
        counters = {name: 0 for name in SERVE_COUNTERS}
        epochs: List[Optional[int]] = []
        rules = 0
        healthy = 0
        for response in responses:
            if not response.get("ok"):
                epochs.append(None)
                continue
            epochs.append(int(response.get("epoch", 0)))
            if response.get("status") == "ok":
                healthy += 1
            rules = max(rules, int(response.get("rules", 0)))
            for name in SERVE_COUNTERS:
                counters[name] += int(response.get(name, 0))
        live_epochs = [epoch for epoch in epochs if epoch is not None]
        if live_epochs:
            self._last_epoch = min(live_epochs)
        if self._stopping.is_set():
            status = "stopping"
        elif healthy == len(responses) and responses:
            status = "ok"
        elif not self.ready.is_set():
            status = "starting"
        else:
            status = "degraded"
        return {
            "status": status,
            "epoch": self._last_epoch,
            "shards": self.shard_count,
            "shard_epochs": epochs,
            "restarts": get_metrics().counter("serve.shard_restarts"),
            "rules": rules,
            **counters,
        }

    def metrics_summary(self) -> Dict[str, Any]:
        """Fan out ``metrics`` and merge: sum/max/bucket-wise plus breakdown.

        Counters sum, gauges take the max, histograms merge bucket-wise —
        the same order-insensitive semantics as
        :meth:`~repro.obs.metrics.MetricsRegistry.merge` — and every
        shard's own counters and gauges are kept under
        ``serve.shard.<i>.*`` so a hot or dying shard is visible.
        """
        responses = self._fan_out({"op": "metrics"}, timeout=10.0)
        counters: Dict[str, int] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Dict[str, object]] = {}
        for index, response in enumerate(responses):
            if not response.get("ok"):
                continue
            shard_metrics = response.get("metrics", {}) or {}
            for name, value in sorted(shard_metrics.get("counters", {}).items()):
                counters[name] = counters.get(name, 0) + int(value)
                counters[_shard_metric(name, index)] = int(value)
            for name, value in sorted(shard_metrics.get("gauges", {}).items()):
                gauges[name] = max(gauges.get(name, value), value)
                gauges[_shard_metric(name, index)] = value
            merge_histogram_dicts(histograms, shard_metrics.get("histograms", {}))
        # The supervisor's own serve.* slice (restart counter, shard
        # gauge) joins the merged view.
        own = get_metrics().as_dict()
        for name, value in own["counters"].items():
            if name.startswith("serve."):
                counters[name] = counters.get(name, 0) + int(value)
        for name, value in own["gauges"].items():
            if name.startswith("serve."):
                gauges[name] = max(gauges.get(name, value), value)
        summary: Dict[str, Any] = {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        latency = histograms.get("serve.latency_ns")
        if latency is not None:
            summary["latency_ns"] = Histogram.from_dict(latency).quantiles()
        return summary

    def reload(self, added: Sequence[str], removed: Sequence[str]) -> Dict[str, Any]:
        """Broadcast one delta to every shard; report the per-shard vector.

        The delta joins the respawn history *before* the broadcast: a
        shard that dies mid-broadcast answers with an error here, but
        its respawn replays the recorded delta and still converges on
        the same epoch as its siblings.
        """
        added = list(added)
        removed = list(removed)
        with self._reload_lock:
            with self._lock:
                self._deltas.append((tuple(added), tuple(removed)))
            responses = self._fan_out(
                protocol.reload_request(added, removed), timeout=60.0
            )
        vector = []
        epochs = []
        drained_all = True
        for index, response in enumerate(responses):
            entry = {
                "shard": index,
                "ok": bool(response.get("ok")),
                "epoch": response.get("epoch"),
                "drained": response.get("drained"),
            }
            if response.get("ok"):
                epochs.append(int(response.get("epoch", 0)))
                drained_all = drained_all and bool(response.get("drained"))
            else:
                entry["error"] = response.get("error")
                drained_all = False
            vector.append(entry)
        if epochs:
            self._last_epoch = min(epochs)
        first_ok = next((r for r in responses if r.get("ok")), {})
        return protocol.ok_response(
            "reload",
            epoch=self._last_epoch,
            shards=vector,
            drained=drained_all,
            added=first_ok.get("added", 0),
            removed=first_ok.get("removed", 0),
            skipped=first_ok.get("skipped", 0),
        )

    def serve_section(self) -> Dict[str, Any]:
        """The run manifest's ``serve`` section, shard-merged."""
        counters = self._final_counters
        if counters is None:
            counters = self._merged_counters()
        return {
            "port": self.port,
            "epoch": self._last_epoch,
            "shards": self.shard_count,
            "shard_restarts": get_metrics().counter("serve.shard_restarts"),
            **counters,
        }


def _shard_metric(name: str, index: int) -> str:
    """``serve.queries`` -> ``serve.shard.3.queries`` (breakdown names)."""
    if name.startswith("serve."):
        return f"serve.shard.{index}.{name[len('serve.'):]}"
    return f"serve.shard.{index}.{name}"
